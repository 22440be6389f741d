"""Log-periodic power-law bubble model: evaluation and calibration.

The log-price model is

    ln p(t) = A + B*(tc - t)**m
            + C1*(tc - t)**m * cos(omega * ln(tc - t))
            + C2*(tc - t)**m * sin(omega * ln(tc - t)),

valid for t < tc only. The companion hazard rate is
``alpha * (tc - t)**(m - 1) * (1 + beta * cos(omega * ln(tc - t) - phi))``,
nonnegative whenever ``|beta| <= 1``.

Calibration profiles out the linear parameters (Filimonov & Sornette
2013): for fixed (tc, m, omega) the best (A, B, C1, C2) solve an ordinary
least-squares problem on the four basis functions above. One QR
factorisation of the augmented design ``[1, f, f*cos, f*sin | y]`` gives
the residual as the square of R's last diagonal entry, and the singular
values of R's leading 4x4 block, which are the design's, gate the node: a
numerical rank below 4 or a condition number above 1e12 makes it
degenerate. The grid skips such nodes, Nelder-Mead sees an infinite
residual there and :func:`solve_linear_params` raises
:class:`~phasecrash.errors.DegenerateDesignError` instead of returning
noise-amplified coefficients.

The search factorises a coarse grid one (tc, m) row of omegas at a time.
``ln(tc - t)`` and the cosine and sine of every omega depend on tc only,
so one trig pass per tc serves all of its m rows. Then :func:`minimize`,
a numpy port of scipy's bounded Nelder-Mead (Nelder & Mead 1965), refines
the best nodes in lockstep: each phase of a step (reflect; expand or
contract; shrink) profiles the trial points of every live start in one
batched call. Ties in the residual are broken by lexicographic
(tc, m, omega), so the fit does not depend on the order of the grid.

Fitting arbitrary data always yields *some* finite-residual parameters;
when a series has no log-periodic structure the improvement over a pure
power-law baseline (:func:`power_law_ssr`) is small. That ratio is the
practical guard against reading bubbles into noise: the model's seven
parameters fit almost anything.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, FitFailureError

__all__ = [
    "LpplParams",
    "HazardParams",
    "LpplFit",
    "SearchConfig",
    "lppl_log_price",
    "hazard_rate",
    "solve_linear_params",
    "fit_lppl",
    "power_law_ssr",
]

_MAX_CONDITION = 1e12
_MAX_ITER = 400  # Nelder-Mead iterations per start


@dataclass(frozen=True)
class LpplParams:
    """Price-model parameters; C and phi are derived, never stored."""

    A: float
    B: float
    C1: float
    C2: float
    m: float
    omega: float
    tc: float

    def __post_init__(self):
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {self.m}")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def C(self):
        return math.hypot(self.C1, self.C2)

    @property
    def phi(self):
        # The phase putting the oscillation in the form C*cos(omega*ln(tc-t) - phi):
        # cos expands with C1 on cos and C2 on sin exactly when phi = atan2(C2, C1).
        return math.atan2(self.C2, self.C1)


@dataclass(frozen=True)
class HazardParams:
    alpha_h: float
    beta_h: float
    m: float
    omega: float
    phi: float
    tc: float

    def __post_init__(self):
        if self.alpha_h <= 0.0:
            raise ValueError("alpha_h must be positive")
        if abs(self.beta_h) > 1.0:
            raise ValueError("|beta_h| must be <= 1 to keep the hazard nonnegative")
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {self.m}")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")


@dataclass
class LpplFit:
    params: LpplParams
    ssr: float
    n_obs: int
    grid_evals: int
    converged: bool
    degenerate_nodes: int

    def to_dict(self):
        p = self.params
        return {
            "A": p.A,
            "B": p.B,
            "C1": p.C1,
            "C2": p.C2,
            "C": p.C,
            "phi": p.phi,
            "m": p.m,
            "omega": p.omega,
            "tc": p.tc,
            "ssr": self.ssr,
            "n_obs": self.n_obs,
            "converged": self.converged,
            "degenerate_nodes": self.degenerate_nodes,
        }


@dataclass(frozen=True)
class SearchConfig:
    """Search bounds and grid density for :func:`fit_lppl`.

    The coarse grid holds ``n_tc``, ``n_m`` and ``n_omega`` evenly spaced
    values over ``tc_bounds``, ``m_bounds`` and ``omega_bounds``, ends
    included. ``tc_bounds`` defaults to (last time + spacing, last time +
    0.5 * n * spacing). The grid computes the trig columns once per tc and
    factorises one (tc, m) row of omegas per QR call. Nelder-Mead then
    refines the ``refine_top_k`` best nodes in lockstep, for at most 400
    iterations each, inside the m and omega bounds and with tc between
    the last time and the upper tc bound; ``refine_top_k = 0`` keeps the
    best grid node.
    """

    m_bounds: tuple = (0.1, 0.9)
    omega_bounds: tuple = (2.0, 25.0)
    tc_bounds: tuple = None
    n_tc: int = 20
    n_m: int = 9
    n_omega: int = 12
    refine_top_k: int = 5

    def __post_init__(self):
        if not 0.0 < self.m_bounds[0] < self.m_bounds[1] < 1.0:
            raise ValueError(f"m_bounds must satisfy 0 < lo < hi < 1: {self.m_bounds}")
        if not 0.0 < self.omega_bounds[0] < self.omega_bounds[1]:
            raise ValueError(
                f"omega_bounds must satisfy 0 < lo < hi: {self.omega_bounds}"
            )
        if self.tc_bounds is not None and not self.tc_bounds[0] < self.tc_bounds[1]:
            raise ValueError("tc_bounds must satisfy lo < hi")
        for name, lo in (("n_tc", 1), ("n_m", 1), ("n_omega", 1), ("refine_top_k", 0)):
            value = getattr(self, name)
            if value < lo:
                raise ValueError(f"{name} must be >= {lo}, got {value!r}")


def _tail(params, t):
    t = np.asarray(t, dtype=float)
    if np.any(t >= params.tc):
        raise ValueError(
            f"the model is defined only before tc = {params.tc}; got t >= tc"
        )
    return params.tc - t


def lppl_log_price(params, t):
    """Model log-price at time(s) ``t``; requires ``t < tc``."""
    tail = _tail(params, t)
    f = tail**params.m
    phase = params.omega * np.log(tail)
    out = (
        params.A
        + params.B * f
        + params.C1 * f * np.cos(phase)
        + params.C2 * f * np.sin(phase)
    )
    return float(out) if np.isscalar(t) else out


def hazard_rate(params, t):
    """Crash hazard at time(s) ``t``; requires ``t < tc``."""
    tail = _tail(params, t)
    h = (
        params.alpha_h
        * tail ** (params.m - 1.0)
        * (1.0 + params.beta_h * np.cos(params.omega * np.log(tail) - params.phi))
    )
    h = np.maximum(h, 0.0)  # |beta| <= 1 keeps this exact up to roundoff
    return float(h) if np.isscalar(t) else h


def _design(y, batch):
    """Augmented designs ``[1, f, f*cos, f*sin | y]`` for a ``batch`` of
    nodes, one column per row, with the constant and ``y`` rows filled.
    The grid fills one such buffer per (tc, m) row instead of allocating a
    new one for each of its hundreds of QR calls."""
    a = np.empty(tuple(batch) + (5, y.size))
    a[..., 0, :] = 1.0
    a[..., 4, :] = y
    return a


def _fill(a, f, cos, sin):
    """Write the basis rows ``f``, ``f*cos`` and ``f*sin`` of the
    :func:`_design` buffer ``a``; all three broadcast."""
    a[..., 1, :] = f
    np.multiply(cos, f, out=a[..., 2, :])
    np.multiply(sin, f, out=a[..., 3, :])


def _gate(a):
    """QR-factorise the filled designs ``a``. Returns ``(ssr, ok, sv, r)``:
    the residual, the gate (rank 4 at rcond = eps * max(n, 4) and
    condition at most 1e12), the design's singular values and the R factor
    of the augmented design."""
    # rows hold the columns, so each swapped matrix is Fortran-ordered for LAPACK
    r = np.linalg.qr(a.swapaxes(-1, -2), mode="r")
    sv = np.linalg.svd(r[..., :4, :4], compute_uv=False)
    lo, hi = sv[..., -1], sv[..., 0]
    rcond = np.finfo(float).eps * max(a.shape[-1], 4)
    ok = (lo > rcond * hi) & (hi <= _MAX_CONDITION * lo)
    return r[..., 4, 4] ** 2, ok, sv, r


def _profile(times, y, tc, m, omega):
    """Profile (A, B, C1, C2) out at (tc, m, omega), which broadcast: a
    batch of nodes is one call. Returns :func:`_gate`'s ``(ssr, ok, sv, r)``."""
    tail = np.asarray(tc)[..., None] - times
    m = np.asarray(m)[..., None]
    # numpy's power takes sqrt for one broadcast exponent of 0.5 but pow for
    # an array of them; sqrt in both keeps a node's residual batch-independent
    f = np.where(m == 0.5, np.sqrt(tail), tail**m)
    phase = np.asarray(omega)[..., None] * np.log(tail)
    a = _design(y, np.broadcast_shapes(f.shape, phase.shape)[:-1])
    _fill(a, f, np.cos(phase), np.sin(phase))
    return _gate(a)


def solve_linear_params(tc, m, omega, series):
    """Exact least-squares (A, B, C1, C2, ssr) at fixed (tc, m, omega)."""
    times, y = series.times, series.log_prices
    if len(series) < 8:
        raise ValueError("need at least 8 observations for the linear subproblem")
    if tc <= times[-1]:
        raise ValueError(f"tc = {tc} must exceed every observation time")
    ssr, ok, sv, r = _profile(times, y, tc, m, omega)
    if not ok:
        raise DegenerateDesignError(
            f"design matrix at (tc={tc}, m={m}, omega={omega}) is degenerate "
            f"(condition {np.inf if sv[-1] == 0 else sv[0] / sv[-1]:.3g})"
        )
    beta = np.linalg.solve(r[:4, :4], r[:4, 4])
    return beta[0], beta[1], beta[2], beta[3], float(ssr)


def power_law_ssr(series, tc, m):
    """Residual of the oscillation-free baseline A + B*(tc - t)**m.

    Comparing this with a full fit's ``ssr`` measures how much of the fit
    quality the log-periodic terms actually contribute.
    """
    tail = tc - series.times
    if np.any(tail <= 0):
        raise ValueError(f"tc = {tc} must exceed every observation time")
    # the last diagonal entry of R for [1, f | y], as in _profile
    a = np.column_stack([np.ones_like(tail), tail**m, series.log_prices])
    return float(np.linalg.qr(a, mode="r")[2, 2] ** 2)


def _default_tc_bounds(times):
    spacing = float(np.median(np.diff(times)))
    last = float(times[-1])
    return last + spacing, last + 0.5 * times.size * spacing


@dataclass(frozen=True)
class SimplexResult:
    """Per-start outcome of :func:`minimize`, one row per start: the best
    vertex ``x``, its value ``fun``, ``success`` when the stop rule held
    within 400 iterations, and the evaluations ``start_nfev``. ``nfev`` sums
    them."""

    x: np.ndarray
    fun: np.ndarray
    success: np.ndarray
    start_nfev: np.ndarray

    @property
    def nfev(self):
        return int(self.start_nfev.sum())


def _sorted(sim, fsim):
    order = np.argsort(fsim, axis=-1)
    return np.take_along_axis(sim, order[..., None], -2), np.take_along_axis(fsim, order, -1)


def minimize(fun, x0, bounds):
    """Bounded Nelder-Mead from each row of ``x0``, all starts in lockstep.

    A numpy port of ``scipy.optimize.minimize(method="Nelder-Mead")`` with
    ``bounds``, a sequence of (lo, hi) pairs, ``maxiter=400`` and the stop
    rule ``xatol=1e-6``, ``fatol=1e-12``. It keeps scipy's coefficients
    (reflect 1, expand 2, contract 1/2, shrink 1/2), its initial simplex
    (each coordinate times 1.05, reflected back under its upper bound) and
    its clipping of every vertex, so each start takes scipy's steps
    exactly. ``fun`` maps a (p, d) array of points to their p values. Each
    phase of a step (reflect; expand or contract; shrink) calls it once on
    the trial points of every live start; a start that stops is masked
    out. Returns a :class:`SimplexResult`.
    """
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


def fit_lppl(series, search=None):
    """Calibrate the model by profiled least squares.

    Coarse grid over (tc, m, omega) with the linear subproblem solved at
    each node, then Nelder-Mead refinement of the ``refine_top_k`` best
    nodes. The returned residual never exceeds the best coarse-grid
    residual.
    """
    if search is None:
        search = SearchConfig()
    if len(series) < 30:
        raise ValueError("need at least 30 observations to fit")
    times, y = series.times, series.log_prices
    tc_bounds = search.tc_bounds or _default_tc_bounds(times)
    tc_floor = float(times[-1]) + 1e-9 * max(1.0, abs(times[-1]))

    tcs = np.linspace(tc_bounds[0], tc_bounds[1], search.n_tc)
    ms = np.linspace(search.m_bounds[0], search.m_bounds[1], search.n_m)
    omegas = np.linspace(search.omega_bounds[0], search.omega_bounds[1], search.n_omega)

    # ln(tc - t) and the trig of every omega depend on tc only: one pass per
    # tc serves its m rows, and one QR call per (tc, m) row of omegas keeps
    # the working set to one row
    live = tcs[tcs > tc_floor]
    shape = (live.size, ms.size, omegas.size)
    ssr, ok = np.empty(shape), np.empty(shape, dtype=bool)
    row = _design(y, omegas.shape)
    for i, tc in enumerate(live):
        tail = tc - times
        phase = omegas[:, None] * np.log(tail)
        cos, sin = np.cos(phase), np.sin(phase)
        for j, m in enumerate(ms):
            _fill(row, tail**m, cos, sin)
            ssr[i, j], ok[i, j], _, _ = _gate(row)
    keys = [ssr[ok]] + [g[ok] for g in np.meshgrid(live, ms, omegas, indexing="ij")]
    order = np.lexsort(keys[::-1])[: max(search.refine_top_k, 1)]  # (ssr, tc, m, omega)
    if not order.size:
        raise FitFailureError("every grid node had a degenerate design matrix")
    candidates = [tuple(key[k] for key in keys) for k in order]
    evals, degenerate = ssr.size, int(ssr.size - ok.sum())
    best = candidates[0]
    converged = False
    if search.refine_top_k:

        def objective(theta):
            tc, m, omega = theta.T
            ssr, ok, _, _ = _profile(times, y, tc, m, omega)
            ok &= tc > tc_floor  # clipping can put tc on its floor; m and omega stay valid
            return np.where(ok, ssr, np.inf)

        res = minimize(
            objective,
            np.array([c[1:] for c in candidates[: search.refine_top_k]]),
            bounds=[(tc_floor, tc_bounds[1]), search.m_bounds, search.omega_bounds],
        )
        evals += res.nfev
        for fun, x, success in zip(res.fun, res.x, res.success):
            if not np.isfinite(fun):
                continue
            converged = converged or bool(success)
            # fun is the objective at x, a node the gate accepted
            if (fun, *x) < best:
                best = (fun, *x)

    ssr, tc, m, omega = best
    *beta, _ = solve_linear_params(tc, m, omega, series)
    params = LpplParams(*map(float, (*beta, m, omega, tc)))
    return LpplFit(
        params=params,
        ssr=float(ssr),
        n_obs=len(series),
        grid_evals=evals,
        converged=converged,
        degenerate_nodes=degenerate,
    )
