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
noise-amplified coefficients. The power column is built as
``f = exp(m * ln(tc - t))``, so each node takes one log, shared with the
phase. QR runs in numpy's ``raw`` mode, and a constant upper-triangular
mask cuts R out of its result with the bits of mode ``"r"``.

The search factorises a coarse grid one (tc, m) row of omegas at a time.
``ln(tc - t)`` and the cosine and sine of every omega depend on tc only,
so one trig pass per tc serves all of its m rows. The rows keep their R
factors, and one batched SVD call gates every grid node. Then :func:`minimize`,
a port of scipy's bounded Nelder-Mead (Nelder & Mead 1965), refines the
best nodes in lockstep. Each start's simplex bookkeeping runs in Python
floats, and each phase of a step (reflect; expand or contract; shrink)
profiles the trial points of every live start in one batched residual
call. Ties in the residual are broken by lexicographic (tc, m, omega), so
the fit does not depend on the order of the grid.

Fitting arbitrary data always yields *some* finite-residual parameters;
when a series has no log-periodic structure the improvement over a pure
power-law baseline (:func:`power_law_ssr`) is small. That ratio is the
practical guard against reading bubbles into noise: the model's seven
parameters fit almost anything.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DegenerateDesignError, FitFailureError, check_int, check_real

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
        check_real(A=self.A, B=self.B, C1=self.C1, C2=self.C2, tc=self.tc)
        check_real("(0, 1)", m=self.m)
        check_real("(0, inf)", omega=self.omega)

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
        check_real(phi=self.phi, tc=self.tc)
        check_real("(0, inf)", alpha_h=self.alpha_h)
        check_real("[-1, 1]", beta_h=self.beta_h)  # |beta_h| <= 1 keeps the hazard >= 0
        check_real("(0, 1)", m=self.m)
        check_real("(0, inf)", omega=self.omega)


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
    0.5 * n * spacing); a grid with no tc past the last time raises
    ValueError (``n_tc = 1`` places its one tc at the lower bound). The
    grid computes ``ln(tc - t)`` and the trig columns once per tc, builds
    each power column as ``exp(m * ln(tc - t))``, factorises one (tc, m)
    row of omegas per raw-mode QR call and gates every node with one SVD
    call at the end. Nelder-Mead then
    refines the ``refine_top_k`` best nodes in lockstep, for at most 400
    iterations each, inside the m and omega bounds and with tc between
    the last time and the upper tc bound; ``refine_top_k = 0`` keeps the
    best grid node. Each bounds field holds exactly two values, lo < hi,
    every bound must be finite, and the four counts must be integers; a
    bool is refused.
    """

    m_bounds: tuple = (0.1, 0.9)
    omega_bounds: tuple = (2.0, 25.0)
    tc_bounds: tuple = None
    n_tc: int = 20
    n_m: int = 9
    n_omega: int = 12
    refine_top_k: int = 5

    def __post_init__(self):
        for name in ("m_bounds", "omega_bounds", "tc_bounds"):
            bounds = getattr(self, name)
            if bounds is not None and np.shape(bounds) != (2,):
                raise ValueError(f"{name} must hold exactly two values, got {bounds!r}")
        check_real("(0, 1)", m_bounds=self.m_bounds)
        check_real("(0, inf)", omega_bounds=self.omega_bounds)
        check_real(tc_bounds=self.tc_bounds)
        for name in ("m_bounds", "omega_bounds", "tc_bounds"):
            bounds = getattr(self, name)
            if bounds is not None and not bounds[0] < bounds[1]:
                raise ValueError(f"{name} must satisfy lo < hi, got {bounds}")
        for name, lo in (("n_tc", 1), ("n_m", 1), ("n_omega", 1), ("refine_top_k", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


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


_UPPER = np.triu(np.ones((5, 5), dtype=bool))


def _factor(a):
    """The R factors of the filled designs ``a``, as ``np.linalg.qr`` gives
    them in mode ``"r"``. Mode ``"raw"`` skips the ``triu`` that mode
    ``"r"`` builds on every call; a constant mask takes its place."""
    # rows hold the columns, so each swapped matrix is Fortran-ordered for LAPACK
    h, _ = np.linalg.qr(a.swapaxes(-1, -2), mode="raw")
    return np.where(_UPPER, h[..., :5].swapaxes(-1, -2), 0.0)


def _gate(r, n):
    """Judge the R factors ``r`` of designs with ``n`` observations, a batch
    of any shape in one SVD call. Returns ``(ssr, ok, sv)``: the residual,
    the gate (rank 4 at rcond = eps * max(n, 4) and condition at most
    1e12) and the design's singular values."""
    sv = np.linalg.svd(r[..., :4, :4], compute_uv=False)
    lo, hi = sv[..., -1], sv[..., 0]
    rcond = np.finfo(float).eps * max(n, 4)
    ok = (lo > rcond * hi) & (hi <= _MAX_CONDITION * lo)
    return r[..., 4, 4] ** 2, ok, sv


def _profile(times, y, tc, m, omega):
    """Profile (A, B, C1, C2) out at (tc, m, omega), which broadcast: a
    batch of nodes is one call. Returns :func:`_gate`'s ``(ssr, ok, sv)``
    and the R factor of the augmented design."""
    log_tail = np.log(np.asarray(tc)[..., None] - times)
    # (tc - t)**m from the phase's log; exp works element by element, so a
    # node gets the same bits whatever batch it is profiled in
    f = np.exp(np.asarray(m)[..., None] * log_tail)
    phase = np.asarray(omega)[..., None] * log_tail
    a = _design(y, np.broadcast_shapes(f.shape, phase.shape)[:-1])
    _fill(a, f, np.cos(phase), np.sin(phase))
    r = _factor(a)
    return (*_gate(r, times.size), r)


def _grid(times, y, tcs, ms, omegas):
    """:func:`_gate`'s ``(ssr, ok, sv)`` at every node of the grid ``tcs``
    x ``ms`` x ``omegas``, each of shape (tc, m, omega).

    ``ln(tc - t)`` and the trig of every omega depend on tc only: one pass
    per tc serves its m rows. One QR call per (tc, m) row of omegas keeps
    the working set to one row; the R factors of all rows, 25 floats a
    node, are gated in one call at the end."""
    r = np.empty((tcs.size, ms.size, omegas.size, 5, 5))
    row = _design(y, omegas.shape)
    for i, tc in enumerate(tcs):
        log_tail = np.log(tc - times)
        phase = omegas[:, None] * log_tail
        cos, sin = np.cos(phase), np.sin(phase)
        for j, m in enumerate(ms):
            _fill(row, np.exp(m * log_tail), cos, sin)
            r[i, j] = _factor(row)
    return _gate(r, times.size)


def solve_linear_params(tc, m, omega, series):
    """Exact least-squares (A, B, C1, C2, ssr) at fixed (tc, m, omega)."""
    check_real(tc=tc, m=m, omega=omega)
    times, y = series.times, series.log_prices
    if len(series) < 8:
        raise ValueError(
            f"need at least 8 observations for the linear subproblem, got {len(series)}"
        )
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
    check_real(tc=tc, m=m)
    if len(series) < 3:
        raise ValueError(
            f"need at least 3 observations for the power-law baseline, got {len(series)}"
        )
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


def _clip(point, box):
    """``np.clip`` with array bounds, on Python floats: a value tied with a
    bound becomes the bound (so a signed zero takes the bound's sign) and
    NaN passes through."""
    out = []
    for v, (lo, hi) in zip(point, box):
        v = lo if v <= lo else v
        out.append(hi if v >= hi else v)
    return out


def _values(fun, points):
    """``fun`` on a list of points, as Python floats."""
    return np.asarray(fun(np.array(points)), dtype=float).tolist()


def _sort(sims, fsims, starts):
    """Order each listed start's vertices by value, with one ``np.argsort``
    so that ties keep their order and inf and NaN go last."""
    orders = np.argsort(np.array([fsims[i] for i in starts]), axis=-1).tolist()
    for i, order in zip(starts, orders):
        sims[i] = [sims[i][j] for j in order]
        fsims[i] = [fsims[i][j] for j in order]


def _stopped(sim, fsim):
    # scipy's rule; a NaN spread (inf - inf) compares False, so it never stops
    return all(abs(fsim[0] - f) <= 1e-12 for f in fsim[1:]) and all(
        abs(v - b) <= 1e-6 for vertex in sim[1:] for v, b in zip(vertex, sim[0])
    )


def minimize(fun, x0, bounds):
    """Bounded Nelder-Mead from each row of ``x0``, all starts in lockstep.

    A port of ``scipy.optimize.minimize(method="Nelder-Mead")`` with
    ``bounds``, a sequence of (lo, hi) pairs, ``maxiter=400`` and the stop
    rule ``xatol=1e-6``, ``fatol=1e-12``. It keeps scipy's coefficients
    (reflect 1, expand 2, contract 1/2, shrink 1/2), its initial simplex
    (each coordinate times 1.05, reflected back under its upper bound), its
    arithmetic term by term and its clipping of every vertex, so each start
    takes scipy's steps exactly. ``fun`` maps a (p, d) array of points to
    their p values. Each start's simplex, stop test and choice of step run
    on Python floats, which at a few starts costs far less than numpy calls
    on arrays of a few dozen entries; that cost grows linearly with the
    number of starts. The objective stays batched: each phase (initial
    simplex; reflect; expand or contract; shrink) calls ``fun`` once on the
    points of every live start, and a start that stops drops out. Returns
    a :class:`SimplexResult`.
    """
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    k, d = x0.shape
    sim = np.repeat(x0[:, None, :], d + 1, axis=1)
    diag = np.arange(d)
    sim[:, diag + 1, diag] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    sims = sim.tolist()
    fsims = np.asarray(fun(sim.reshape(-1, d)), dtype=float).reshape(k, d + 1).tolist()
    _sort(sims, fsims, range(k))
    box = list(zip(lo.tolist(), hi.tolist()))
    nfev = [d + 1] * k
    iterations = [1] * k  # scipy counts from 1
    live = range(k)
    while True:
        live = [
            i for i in live if iterations[i] < _MAX_ITER and not _stopped(sims[i], fsims[i])
        ]
        if not live:
            break
        xbars, reflected = [], []
        for i in live:
            *rest, worst = sims[i]
            # summed in vertex order, as numpy reduces the vertex axis
            xbar = [reduce(add, column) / d for column in zip(*rest)]
            xbars.append(xbar)
            reflected.append(_clip([2 * a - w for a, w in zip(xbar, worst)], box))
        fxr = _values(fun, reflected)
        # scipy's branches: expand, keep xr, contract outside or inside
        steps, trials = [], []
        for i, xbar, fr in zip(live, xbars, fxr):
            f, worst = fsims[i], sims[i][-1]
            if fr < f[0]:
                step, trial = "expand", [3 * a - 2 * w for a, w in zip(xbar, worst)]
            elif fr < f[-2]:
                step, trial = "keep", None
            elif fr < f[-1]:
                step, trial = "outside", [1.5 * a - 0.5 * w for a, w in zip(xbar, worst)]
            else:
                step, trial = "inside", [0.5 * a + 0.5 * w for a, w in zip(xbar, worst)]
            steps.append(step)
            if trial is not None:
                trials.append(_clip(trial, box))
        ftrials = iter(_values(fun, trials) if trials else ())
        trials = iter(trials)
        shrunk, points = [], []
        for i, step, xr, fr in zip(live, steps, reflected, fxr):
            s, f = sims[i], fsims[i]
            nfev[i] += 1
            iterations[i] += 1
            if step == "keep":
                s[-1], f[-1] = xr, fr
                continue
            trial, ft = next(trials), next(ftrials)
            nfev[i] += 1
            if step == "expand":
                take = ft < fr
            elif step == "outside":
                take = ft <= fr
            else:
                take = ft < f[-1]
            if take:
                s[-1], f[-1] = trial, ft
            elif step == "expand":
                s[-1], f[-1] = xr, fr
            else:
                best = s[0]
                s[1:] = [_clip([b + 0.5 * (v - b) for v, b in zip(x, best)], box) for x in s[1:]]
                shrunk.append(i)
                points += s[1:]
                nfev[i] += d
        if shrunk:
            values = _values(fun, points)
            for n, i in enumerate(shrunk):
                fsims[i][1:] = values[n * d : (n + 1) * d]
        _sort(sims, fsims, live)
    return SimplexResult(
        x=np.array([s[0] for s in sims]).reshape(k, d),
        fun=np.array(fsims).reshape(k, d + 1).min(axis=1),
        success=np.array(iterations) < _MAX_ITER,
        start_nfev=np.array(nfev, dtype=int),
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
        raise ValueError(f"need at least 30 observations to fit, got {len(series)}")
    times, y = series.times, series.log_prices
    tc_bounds = search.tc_bounds or _default_tc_bounds(times)
    tc_floor = float(times[-1]) + 1e-9 * max(1.0, abs(times[-1]))
    tcs = np.linspace(tc_bounds[0], tc_bounds[1], search.n_tc)
    live = tcs[tcs > tc_floor]
    if not live.size:
        raise ValueError(
            f"tc_bounds {tuple(tc_bounds)} with n_tc = {search.n_tc} put no grid tc "
            f"past the last observation time {float(times[-1])}"
        )
    ms = np.linspace(search.m_bounds[0], search.m_bounds[1], search.n_m)
    omegas = np.linspace(search.omega_bounds[0], search.omega_bounds[1], search.n_omega)

    ssr, ok, _ = _grid(times, y, live, ms, omegas)
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
