"""Euler-Maruyama simulation of the three crash routes.

The critical and stochastic routes and the multivariate system share one
Euler step, ``x + (-mu + r*x - lam*x**3) * dt + w`` on noise increments
``w``, run folded as ``x * (a - b*x*x) + c`` with ``a = 1 + r*dt``,
``b = lam*dt`` and ``c = w - mu*dt`` (equal to rounding, not bitwise):

* critical route: ``lam = 1``, a ramped ``mu(t)`` that destroys the
  upper equilibrium at the fold ``mu* = (2r/3) * sqrt(r/3)``, and
  ``w = sigma * dW``;
* stochastic route: fixed double well (``mu = 0``) with linearly growing
  volatility, ``w = alpha_vol * t * dW``;
* dynamic route: zero drift, the path is a rescaled cumulative sum of a
  scheduled noise process (ramped Hurst exponent or stability index).

The multivariate system runs the same step per asset, on Wiener
increments correlated by ``cov(dW_i, dW_j) = D_ij * dt``: unit-variance
draws from :func:`~phasecrash.noise.sample_gaussian_increments`, mixed by
the Cholesky factor of ``D`` and then scaled by ``sqrt(dt)``.

One kernel runs every Euler chain: each chain is a generator of states
on Python floats, and the chains of a call run one after the other into
one ``np.fromiter``, so no per-step list and no copy of a path is made,
and only the running chain's row of ``c`` is alive as a list.

All simulators are pure functions of (params, n, dt, seed). A non-finite
state stays non-finite under the step, so a blow-up raises
:class:`~phasecrash.errors.SimulationOverflowError` naming the first
non-finite step.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SimulationOverflowError, check_int, check_real
from .noise import (
    HurstSchedule,
    Ramp,
    StableSchedule,
    _check_n_dt,
    _seed_list,
    sample_alpha_stable,
    sample_gaussian_increments,
    synth_fbm,
)

__all__ = [
    "CPT_LAM",
    "MuSchedule",
    "CptParams",
    "SptParams",
    "DptParams",
    "MultiParams",
    "SimPath",
    "simulate_cpt",
    "simulate_spt",
    "simulate_dpt",
    "simulate_multivariate",
]


#: Drift offset mu(t), constant when its end is omitted.
MuSchedule = Ramp

#: The critical route's cubic coefficient ``lam``, fixed at 1.
CPT_LAM = 1.0


@dataclass(frozen=True)
class CptParams:
    r: float
    mu_schedule: MuSchedule
    sigma: float
    p0: float

    def __post_init__(self):
        check_real(r=self.r, mu_start=self.mu_schedule.start,
                   mu_end=self.mu_schedule.end, p0=self.p0)
        check_real("[0, inf)", sigma=self.sigma)


@dataclass(frozen=True)
class SptParams:
    r: float
    lam: float
    alpha_vol: float
    p0: float

    def __post_init__(self):
        check_real(r=self.r, p0=self.p0)
        # the double well's minima sit at +-sqrt(r / lam), so lam must be > 0
        check_real("(0, inf)", lam=self.lam)
        check_real("[0, inf)", alpha_vol=self.alpha_vol)


@dataclass(frozen=True)
class DptParams:
    noise_spec: HurstSchedule | StableSchedule
    scale: float
    p0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.noise_spec, (HurstSchedule, StableSchedule)):
            raise ValueError("noise_spec must be a HurstSchedule or StableSchedule")
        check_real(p0=self.p0)
        check_real("[0, inf)", scale=self.scale)


@dataclass(frozen=True)
class MultiParams:
    """Coupled system: k assets, shared mu(t), per-asset r, lam, sigma,
    and a symmetric PSD coupling matrix with unit diagonal."""

    r: tuple
    lam: tuple
    mu_schedule: MuSchedule
    sigma: tuple
    coupling: tuple  # row tuples of the k x k matrix
    p0: tuple = None

    def __post_init__(self):
        k = len(self.r)
        if k < 2:
            raise ValueError("multivariate system needs k >= 2 assets")
        if not (len(self.lam) == len(self.sigma) == k):
            raise ValueError("r, lam, sigma must have equal length")
        d = np.asarray(self.coupling, dtype=float)
        if d.shape != (k, k):
            raise ValueError(f"coupling must be {k}x{k}")
        check_real(r=self.r, mu_start=self.mu_schedule.start,
                   mu_end=self.mu_schedule.end, coupling=self.coupling, p0=self.p0)
        # lam = 0 leaves an asset the linear drift -mu + r*x, a limit the panel
        # may take; only SptParams' double well needs lam > 0
        check_real("[0, inf)", sigma=self.sigma, lam=self.lam)
        if not np.allclose(d, d.T):
            raise ValueError("coupling matrix must be symmetric")
        if not np.allclose(np.diag(d), 1.0):
            raise ValueError("coupling matrix must have unit diagonal")
        if self.p0 is not None and len(self.p0) != k:
            raise ValueError("p0 must have one entry per asset")

    @property
    def k(self):
        return len(self.r)

    def coupling_matrix(self):
        return np.asarray(self.coupling, dtype=float)


@dataclass
class SimPath:
    """A simulated state path including the initial point."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        check_real("(0, inf)", dt=self.dt)

    @property
    def times(self):
        return np.arange(self.values.size) * self.dt

    def __len__(self):
        return self.values.size

    def to_price_series(self, asset_id="sim", sample_every=1):
        """View the state path as a log-price series on its time grid.

        ``sample_every`` keeps every k-th point: integrate at a fine step
        for accuracy, observe at a coarser one. Increment statistics of
        the observed series then follow the continuous process rather
        than the per-step discretisation.
        """
        from .ews import PriceSeries

        sample_every = check_int("sample_every", sample_every, 1)
        return PriceSeries(
            self.times[::sample_every], self.values[::sample_every], asset_id
        )


def _states(x, a, b, c):
    """``x``, then each state of the folded Euler step ``x * (a - b*x*x) + ck``
    over the list ``c``; Python floats beat numpy scalars here."""
    yield x
    for ck in c:
        x = x * (a - b * x * x) + ck
        yield x


def _euler(x, a, b, c):
    """All ``n + 1`` states from ``x`` of the Euler step folded to
    ``x * (a - b*x*x) + c[k]``, ``a = 1 + r*dt``, ``b = lam*dt``, ``c = w - mu*dt``.

    ``c`` is ``(n,)`` for one chain or ``(k, n)`` for ``k`` chains, and
    ``x``, ``a`` and ``b`` are scalars or one value per chain. Each chain is
    one :func:`_states` generator; the ``k`` generators run one after the
    other into one ``np.fromiter``, so no per-step list and no copy of a
    chain is made, and a row of ``c`` becomes a list only when its chain
    starts. The result has the shape of ``c`` with ``n + 1`` in its last axis.
    """
    rows = c.reshape(-1, c.shape[-1])
    k, n = rows.shape
    x, a, b = (np.broadcast_to(np.asarray(v, dtype=float), k).tolist() for v in (x, a, b))
    chains = map(_states, x, a, b, map(np.ndarray.tolist, rows))
    values = np.fromiter(chain.from_iterable(chains), float, k * (n + 1))
    return values.reshape(*c.shape[:-1], n + 1)


def _finish(values, kind, dt, n):
    """Raise at the first step with a non-finite state, else wrap ``values``
    (one row per asset when 2-D) into SimPaths."""
    finite = np.isfinite(values).reshape(-1, n + 1).all(axis=0)
    if not finite.all():
        step = int(np.argmin(finite))
        raise SimulationOverflowError(
            f"{kind} simulation diverged at step {step}", step=step
        )
    if values.ndim == 1:
        return SimPath(values, dt)
    return [SimPath(v, dt) for v in values]


def simulate_cpt(params, n, dt, seed):
    """Critical route: ``dp = (-mu(t) + r p - p^3) dt + sigma dW``."""
    if not isinstance(params, CptParams):
        raise ValueError("params must be CptParams")
    dw = sample_gaussian_increments(n, dt, seed).increments
    c = params.sigma * dw - params.mu_schedule.values(n) * dt
    values = _euler(params.p0, 1 + params.r * dt, CPT_LAM * dt, c)
    return _finish(values, "cpt", dt, n)


def simulate_spt(params, n, dt, seed):
    """Stochastic route: double-well drift, volatility ``alpha_vol * t``."""
    if not isinstance(params, SptParams):
        raise ValueError("params must be SptParams")
    dw = sample_gaussian_increments(n, dt, seed).increments
    w = (params.alpha_vol * np.arange(n) * dt) * dw
    values = _euler(params.p0, 1 + params.r * dt, params.lam * dt, w)
    return _finish(values, "spt", dt, n)


def simulate_dpt(params, n, dt, seed):
    """Dynamic route: ``p(t) = p0 + scale * X(t)`` for scheduled noise X.

    ``seed`` is an int, for one :class:`SimPath`, or a sequence of ints, for
    a list of them, each the path its seed draws alone; a Hurst schedule
    draws the sequence in one :func:`~phasecrash.noise.synth_fbm` call."""
    if not isinstance(params, DptParams):
        raise ValueError("params must be DptParams")
    seeds, one = _seed_list(seed)
    if isinstance(params.noise_spec, HurstSchedule):
        noises = synth_fbm(n, params.noise_spec, dt, seeds)
    else:
        noises = [sample_alpha_stable(n, params.noise_spec, dt, s) for s in seeds]
    paths = [_finish(params.p0 + params.scale * noise.path(), "dpt", dt, n) for noise in noises]
    return paths[0] if one else paths


def simulate_multivariate(params, n, dt, seed):
    """Coupled cubic-drift system with correlated Wiener noise.

    Gaussian increments are mixed by the Cholesky factor of the coupling
    matrix, so ``cov(dW_i, dW_j) = D_ij * dt`` exactly.
    """
    if not isinstance(params, MultiParams):
        raise ValueError("params must be MultiParams")
    _check_n_dt(n, dt)
    d = params.coupling_matrix()
    try:
        chol = np.linalg.cholesky(d)
    except np.linalg.LinAlgError as exc:
        raise ValueError("coupling matrix is not positive semi-definite") from exc
    k = params.k
    w = sample_gaussian_increments(n * k, 1.0, seed).increments.reshape(n, k) @ chol.T
    w *= np.sqrt(dt)  # after the mix; in place saves two n x k arrays
    w *= np.asarray(params.sigma, dtype=float)
    w -= (params.mu_schedule.values(n) * dt)[:, None]
    p0 = 0.0 if params.p0 is None else params.p0
    r, lam = np.asarray(params.r, dtype=float), np.asarray(params.lam, dtype=float)
    values = _euler(p0, 1 + r * dt, lam * dt, w.T)
    return _finish(values, "multi", dt, n)
