"""Slow per-node reference oracle for the LPPL profile search.

Each grid node builds its own four-column design matrix and solves it
with ``np.linalg.lstsq``; the residual is ``y - X @ beta`` squared and
summed. A node is degenerate when lstsq's rank falls under 4 or the
condition number exceeds ``1e12``. ``fit_lppl`` walks the grid node by
node, sorts the survivors by ``(ssr, tc, m, omega)`` and refines the best
with Nelder-Mead on the same solve. The batched QR kernel in
``phasecrash.lppl`` must choose the same grid node, refuse the same nodes
and agree on the residuals to a fixed tolerance. :func:`svd_gate` is the
gate by the singular values of every R factor, which the grid's bounded
screen must reproduce bit for bit.

:func:`lockstep_minimize` is the numpy form of ``phasecrash.lppl.minimize``
that keeps every start's simplex in one (k, d + 1, d) array and masks the
starts that stop. ``minimize`` bookkeeps each simplex in Python floats
instead, and must return exactly its results.
"""

import numpy as np
from scipy.optimize import minimize

import phasecrash as pc
from phasecrash.errors import DegenerateDesignError, FitFailureError
from phasecrash.lppl import _MAX_ITER, SimplexResult, _default_tc_bounds

MAX_CONDITION = 1e12


def design_matrix(times, tc, m, omega):
    tail = tc - times
    f = tail**m
    phase = omega * np.log(tail)
    return np.column_stack([np.ones_like(f), f, f * np.cos(phase), f * np.sin(phase)])


def solve_linear(times, y, tc, m, omega):
    """``(beta, ssr, cond)``; raises DegenerateDesignError like the gate."""
    x = design_matrix(times, tc, m, omega)
    beta, _, rank, sv = np.linalg.lstsq(x, y, rcond=None)
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
    if rank < 4 or sv[-1] == 0.0 or cond > MAX_CONDITION:
        raise DegenerateDesignError(f"degenerate at ({tc}, {m}, {omega})")
    resid = y - x @ beta
    return beta, float(resid @ resid), cond


def svd_gate(r, n):
    """``ok`` for the R factors ``r`` of designs with ``n`` observations:
    the singular values of each leading 4x4 block show rank 4 at rcond =
    eps * max(n, 4) and a condition number of at most 1e12."""
    sv = np.linalg.svd(r[..., :4, :4], compute_uv=False)
    lo, hi = sv[..., -1], sv[..., 0]
    return (lo > np.finfo(float).eps * max(n, 4) * hi) & (hi <= MAX_CONDITION * lo)


def _sorted(sim, fsim):
    order = np.argsort(fsim, axis=-1)
    return np.take_along_axis(sim, order[..., None], -2), np.take_along_axis(fsim, order, -1)


def lockstep_minimize(fun, x0, bounds):
    """Bounded Nelder-Mead from each row of ``x0``, in numpy arrays: the
    contract of ``phasecrash.lppl.minimize``, one batched ``fun`` call per
    phase, with every start's simplex in one array."""
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    k, d = x0.shape
    sim = np.repeat(x0[:, None, :], d + 1, axis=1)
    diag = np.arange(d)
    sim[:, diag + 1, diag] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.asarray(fun(sim.reshape(-1, d)), dtype=float).reshape(k, d + 1)
    sim, fsim = _sorted(sim, fsim)
    nfev = np.full(k, d + 1)
    iterations = np.ones(k, dtype=int)  # scipy counts from 1
    running = np.ones(k, dtype=bool)
    while True:
        running &= iterations < _MAX_ITER
        s, f = sim[running], fsim[running]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which never stops
            running[running] = ~(
                (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2), initial=0.0) <= 1e-6)
                & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1, initial=0.0) <= 1e-12)
            )
        live = np.flatnonzero(running)
        if not live.size:
            break
        s, f = sim[live], fsim[live]
        worst = s[:, -1]
        xbar = np.add.reduce(s[:, :-1], 1) / d
        xr = np.clip(2 * xbar - worst, lo, hi)
        fxr = np.asarray(fun(xr), dtype=float)
        # scipy's branches: expand, keep xr, contract outside or inside
        expand = fxr < f[:, 0]
        keep = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~keep & (fxr < f[:, -1])
        inside = ~expand & ~keep & ~outside
        trial = np.where(
            expand[:, None],
            3 * xbar - 2 * worst,
            np.where(outside[:, None], 1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst),
        )
        trial = np.clip(trial, lo, hi)
        ftrial = np.full(live.size, np.nan)
        if not keep.all():
            ftrial[~keep] = fun(trial[~keep])
        take = (
            (expand & (ftrial < fxr))
            | (outside & (ftrial <= fxr))
            | (inside & (ftrial < f[:, -1]))
        )
        shrink = (outside | inside) & ~take
        swap = ~shrink
        s[swap, -1] = np.where(take[:, None], trial, xr)[swap]
        f[swap, -1] = np.where(take, ftrial, fxr)[swap]
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = np.clip(best + 0.5 * (s[shrink, 1:] - best), lo, hi)
            f[shrink, 1:] = np.reshape(fun(s[shrink, 1:].reshape(-1, d)), (-1, d))
        nfev[live] += 1 + ~keep + d * shrink
        iterations[live] += 1
        sim[live], fsim[live] = _sorted(s, f)
    return SimplexResult(
        x=sim[:, 0], fun=fsim.min(axis=1), success=iterations < _MAX_ITER, start_nfev=nfev
    )


def power_law_ssr(series, tc, m):
    tail = tc - series.times
    x = np.column_stack([np.ones_like(tail), tail**m])
    beta, _, _, _ = np.linalg.lstsq(x, series.log_prices, rcond=None)
    resid = series.log_prices - x @ beta
    return float(resid @ resid)


def grid(times, y, tcs, ms, omegas):
    """Per-node ``(ssr, cond)`` arrays of shape (tc, m, omega); NaN where
    the node is degenerate."""
    ssr = np.full((len(tcs), len(ms), len(omegas)), np.nan)
    cond = np.full_like(ssr, np.nan)
    for i, tc in enumerate(tcs):
        for j, m in enumerate(ms):
            for k, omega in enumerate(omegas):
                try:
                    node = solve_linear(times, y, tc, m, omega)
                except DegenerateDesignError:
                    continue
                ssr[i, j, k], cond[i, j, k] = node[1:]
    return ssr, cond


def fit_lppl(series, search=None):
    """The per-node profiled least-squares fit; returns an ``LpplFit``."""
    search = search or pc.SearchConfig()
    times, y = series.times, series.log_prices
    tc_bounds = search.tc_bounds or _default_tc_bounds(times)
    tc_floor = float(times[-1]) + 1e-9 * max(1.0, abs(times[-1]))
    tcs = np.linspace(tc_bounds[0], tc_bounds[1], search.n_tc)
    ms = np.linspace(search.m_bounds[0], search.m_bounds[1], search.n_m)
    omegas = np.linspace(search.omega_bounds[0], search.omega_bounds[1], search.n_omega)

    evals, degenerate = 0, 0
    candidates = []  # (ssr, tc, m, omega, beta)
    for tc in tcs:
        if tc <= tc_floor:
            continue
        for m in ms:
            for omega in omegas:
                evals += 1
                try:
                    beta, ssr, _ = solve_linear(times, y, tc, m, omega)
                except DegenerateDesignError:
                    degenerate += 1
                    continue
                candidates.append((ssr, tc, m, omega, beta))
    if not candidates:
        raise FitFailureError("every grid node had a degenerate design matrix")
    candidates.sort(key=lambda c: c[:4])

    def objective(theta):
        tc, m, omega = theta
        if tc <= tc_floor or not 0.0 < m < 1.0 or omega <= 0.0:
            return np.inf
        try:
            return solve_linear(times, y, tc, m, omega)[1]
        except DegenerateDesignError:
            return np.inf

    best = candidates[0]
    converged = False
    nm_bounds = [(tc_floor, tc_bounds[1]), search.m_bounds, search.omega_bounds]
    for _, tc0, m0, omega0, _ in candidates[: search.refine_top_k]:
        res = minimize(
            objective,
            np.array([tc0, m0, omega0]),
            method="Nelder-Mead",
            bounds=nm_bounds,
            options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-12},
        )
        evals += res.nfev
        if not np.isfinite(res.fun):
            continue
        converged = converged or bool(res.success)
        tc, m, omega = res.x
        try:
            beta, ssr, _ = solve_linear(times, y, tc, m, omega)
        except DegenerateDesignError:
            continue
        if (ssr, tc, m, omega) < best[:4]:
            best = (ssr, tc, m, omega, beta)

    ssr, tc, m, omega, beta = best
    params = pc.LpplParams(*map(float, (*beta, m, omega, tc)))
    return pc.LpplFit(params, float(ssr), len(series), evals, converged, degenerate)
