"""Seeded generators for the driving-noise processes.

Three families are provided:

* Wiener increments: iid Gaussian, variance ``dt`` per step; every
  Brownian path in the package is a scaled cumulative sum of them. The
  multivariate system's correlated increments are unit-variance draws
  from :func:`sample_gaussian_increments`, mixed by a Cholesky factor.
* Symmetric alpha-stable increments via the Chambers-Mallows-Stuck
  transform, with the stability index on a :class:`Ramp` schedule. The
  per-step scale is ``scale * dt ** (1 / alpha_start)``, so a ramp's
  law does not change with the time unit.
* Fractional Brownian motion. Constant-Hurst paths are exact Gaussian
  draws by circulant embedding (Davies-Harte), which is nonnegative for
  fractional Gaussian noise at every H and length (Davies & Harte 1987;
  Craigmile 2003); a negative eigenvalue raises ``GenerationError``.
  A ramped schedule draws every step from the same complex normal vector
  ``zeta``: increment ``r`` is ``Re FFT(w(h_r) zeta)[r]``, where ``w(h)``
  are the embedding weights at H = h, so each increment is unit-variance
  fractional Gaussian noise at its own H, and a stretch of constant H is
  exact fGn (multifractional noise in the manner of Chan & Wood 1998).
  The weights are interpolated across H on ``_HURST_NODES``
  Chebyshev-Lobatto nodes that span the schedule, and each step is
  scaled back to unit variance, so a path costs one FFT of length ``2n``
  a node. A step whose H is a node, such as each step before
  ``t_start``, draws the bits of the constant-H path at that H. A
  step's law depends on its H alone, not on the time unit or on where
  the ramp sits in the path; the per-step scale is ``dt**h_start``.

Every generator is a pure function of its parameters and a 64-bit seed:
same inputs, bit-identical output. Batches split one master seed into
per-path seeds with :func:`phasecrash.io.derive_seed`.
"""

from collections.abc import Iterable
from dataclasses import InitVar, dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import GenerationError, check_int, check_real

__all__ = [
    "NoisePath",
    "Ramp",
    "HurstSchedule",
    "StableSchedule",
    "sample_gaussian_increments",
    "sample_alpha_stable",
    "synth_fbm",
]

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Ramp:
    """A per-step value that holds ``start`` before step ``t_start`` and
    runs ``np.linspace(start, end, n - t_start)`` from there to the end of
    an ``n``-step path. Constant when ``end`` is omitted."""

    start: float
    end: float | None = None
    t_start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t_start", check_int("t_start", self.t_start, 0))

    def values(self, n):
        """Per-step values for a path of ``n`` steps."""
        end = self.start if self.end is None else self.end
        out = np.full(n, float(self.start))
        out[self.t_start :] = np.linspace(self.start, end, max(n - self.t_start, 0))
        return out

    def is_constant(self):
        return self.end is None or self.end == self.start


def _check_schedule(sch, ramp, name, interval):
    # ``ramp`` selects nothing; it is accepted for callers that still pass
    # ramp="linear", and ramp="constant" must not contradict ``end``
    if ramp not in ("constant", "linear"):
        raise ValueError(f"unknown ramp kind {ramp!r}")
    if ramp == "constant" and not sch.is_constant():
        raise ValueError(f"ramp='constant' but end {sch.end} != start {sch.start}")
    for v in (sch.start, sch.end):
        check_real(interval, **{name: v})


@dataclass(frozen=True)
class HurstSchedule(Ramp):
    """Hurst exponent over the path, a :class:`Ramp` of values in (0, 1)."""

    ramp: InitVar[str] = "linear"

    def __post_init__(self, ramp):
        super().__post_init__()
        _check_schedule(self, ramp, "Hurst exponent", "(0, 1)")


@dataclass(frozen=True)
class StableSchedule(Ramp):
    """Stability index over the path, a :class:`Ramp` of values in (0, 2],
    with a per-step scale in [0, inf); scale 0 draws a flat path."""

    scale: float = 1.0
    ramp: InitVar[str] = "linear"

    def __post_init__(self, ramp):
        super().__post_init__()
        _check_schedule(self, ramp, "stability index", "(0, 2]")
        check_real("[0, inf)", scale=self.scale)


@dataclass
class NoisePath:
    """A seeded realisation of a driving process, stored as increments."""

    increments: np.ndarray

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.size < 1:
            raise ValueError("a noise path needs at least one increment")

    def path(self):
        """Cumulative path X with X(0) = 0, length ``len(increments) + 1``."""
        out = np.empty(self.increments.size + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out

    def __len__(self):
        return self.increments.size


def _check_n_dt(n, dt):
    n = check_int("n", n, 1)
    check_real("(0, inf)", dt=dt)
    return n, float(dt)


def sample_gaussian_increments(n, dt, seed):
    """``n`` iid Gaussian increments with mean zero and variance ``dt``."""
    n, dt = _check_n_dt(n, dt)
    rng = np.random.default_rng(check_int("seed", seed, 0, MAX_SEED))
    z = rng.standard_normal(n)
    z *= np.sqrt(dt)
    return NoisePath(z)


def sample_alpha_stable(n, schedule, dt, seed):
    """Symmetric alpha-stable increments with per-step index from ``schedule``.

    Uses the Chambers-Mallows-Stuck transform
    ``X = sin(aU) / cos(U)**(1/a) * (cos((1-a)U) / E)**((1-a)/a)``
    with U uniform on (-pi/2, pi/2) and E unit exponential, which is the
    standard symmetric stable law for every a in (0, 2] (Cauchy at a = 1,
    Gaussian with variance 2 at a = 2). Every increment is scaled by
    ``schedule.scale * dt**(1/alpha_start)``, so a ramp's law does not
    change with ``dt``.
    """
    if not isinstance(schedule, StableSchedule):
        raise ValueError("schedule must be a StableSchedule")
    n, dt = _check_n_dt(n, dt)
    rng = np.random.default_rng(check_int("seed", seed, 0, MAX_SEED))
    alpha = schedule.values(n)
    u = (rng.random(n) - 0.5) * np.pi
    e = rng.standard_exponential(n)
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
        np.cos((1.0 - alpha) * u) / e
    ) ** ((1.0 - alpha) / alpha)
    inc = schedule.scale * dt ** (1.0 / alpha[:1]) * x  # the first step's scale throughout
    return NoisePath(inc)


def _fgn_autocov(n_lags, h):
    """Autocovariance of unit-step fractional Gaussian noise, lags 0..n_lags."""
    k = np.arange(n_lags + 1, dtype=float)
    return 0.5 * (
        np.abs(k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h)
    )


def _fgn_embedding_weights(h, n):
    """sqrt(eigenvalues / M) of the circulant embedding."""
    gamma = _fgn_autocov(n, h)
    row = np.concatenate([gamma[:n], [gamma[n]], gamma[1:n][::-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise GenerationError(
            f"circulant embedding of fGn (H={h}, n={n}) has eigenvalue {lam.min():.3g}"
        )
    return np.sqrt(np.clip(lam, 0.0, None) / row.size)


def _fgn_constant(h, n, rng):
    """Unit-step fractional Gaussian noise, exact in distribution."""
    w = _fgn_embedding_weights(h, n)
    m = w.size
    z = rng.standard_normal(2 * m)
    spec = w * (z[:m] + 1j * z[m:])
    return np.fft.fft(spec).real[:n]


#: Chebyshev-Lobatto nodes in H on which a ramped schedule's embedding
#: weights are interpolated.
_HURST_NODES = 16


@lru_cache(maxsize=1)  # 16 x 2n weights and n x 16 coefficients, 0.75 MiB at n = 2048
def _hurst_basis(schedule, n):
    """``(weights, coef)`` of a ramped schedule over ``n`` steps.

    ``weights`` holds the embedding weights of :func:`_fgn_embedding_weights`
    at the ``_HURST_NODES`` Chebyshev-Lobatto nodes that span the
    schedule's H, one row a node, the first at its max H and the last at
    its min. Row ``r`` of ``coef`` holds the barycentric coefficients of
    step ``r``'s H on those nodes, scaled through the nodes' Gram matrix
    so that the interpolated weights have unit sum of squares, which is
    the increment's variance. A step whose H is a node takes that node
    alone, unscaled. Every sum is an ``np.einsum``, which calls no BLAS."""
    h = schedule.values(n)
    lo, hi = h.min(), h.max()
    j = np.arange(_HURST_NODES)
    nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(np.pi * j / (_HURST_NODES - 1))
    nodes[0], nodes[-1] = hi, lo  # exact, so that the ends are hit
    weights = np.array([_fgn_embedding_weights(g, n) for g in nodes])
    bary = (-1.0) ** j  # barycentric weights of Chebyshev-Lobatto nodes (Salzer 1972)
    bary[[0, -1]] /= 2
    diff = h[:, None] - nodes
    hit = diff == 0
    on_node = hit.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = bary / diff
        coef /= coef.sum(axis=1, keepdims=True)
    coef[on_node] = np.eye(_HURST_NODES)[hit[on_node].argmax(axis=1)]
    gram = np.einsum("pk,qk->pq", weights, weights)
    between = coef[~on_node]
    var = np.einsum("rp,pq,rq->r", between, gram, between)
    coef[~on_node] = between / np.sqrt(var)[:, None]
    weights.flags.writeable = coef.flags.writeable = False  # shared by every caller
    return weights, coef


def _fgn_ramped(schedule, n, rng):
    """Unit-variance increments under a ramped schedule: increment ``r`` is
    ``Re FFT(w(h_r) zeta)[r]`` for the complex normal ``zeta`` that
    :func:`_fgn_constant` draws, with ``w(h_r)`` interpolated across H by
    :func:`_hurst_basis`. A step whose H is a node, such as every step
    before ``t_start``, draws the bits that ``_fgn_constant`` draws at that
    H."""
    weights, coef = _hurst_basis(schedule, n)
    m = weights.shape[1]
    z = rng.standard_normal(2 * m)
    spec = weights * (z[:m] + 1j * z[m:])
    np.fft.fft(spec, out=spec)  # in place: half the memory traffic
    return np.einsum("rp,pr->r", coef, spec.real[:, :n])


def _seed_list(seed):
    """``(seeds, one)``: ``seed``, an int or a sequence of ints, as a list of
    checked seeds, and whether it was one int."""
    if isinstance(seed, Integral) or isinstance(seed, str) or not isinstance(seed, Iterable):
        return [check_int("seed", seed, 0, MAX_SEED)], True
    return [check_int("seed", s, 0, MAX_SEED) for s in seed], False


def synth_fbm(n, schedule, dt, seed):
    """Fractional Brownian motion increments under a Hurst schedule.

    Constant schedules yield exact fBM with
    ``Cov[X(s), X(t)] = (|s|**2H + |t|**2H - |t-s|**2H) / 2`` in units
    where dt = 1, scaling as ``dt**2H``. A ramped schedule draws increment
    ``i`` as unit-step fractional Gaussian noise at ``h_i``, every H from
    one shared spectral draw (see the module docstring), times
    ``dt**h_start``.

    ``seed`` is an int, for one :class:`NoisePath`, or a sequence of ints,
    for a list of them; each path is the one its seed draws alone.
    """
    if not isinstance(schedule, HurstSchedule):
        raise ValueError("schedule must be a HurstSchedule")
    n, dt = _check_n_dt(n, dt)
    seeds, one = _seed_list(seed)
    rngs = [np.random.default_rng(s) for s in seeds]
    h = schedule.values(n)
    if h.min() == h.max():
        incs = [_fgn_constant(schedule.start, n, rng) for rng in rngs]
    else:
        incs = [_fgn_ramped(schedule, n, rng) for rng in rngs]
    paths = [NoisePath(inc * dt**schedule.start) for inc in incs]
    return paths[0] if one else paths
