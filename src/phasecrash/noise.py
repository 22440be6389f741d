"""Seeded generators for the driving-noise processes.

Three families are provided:

* Wiener increments: iid Gaussian, variance ``dt`` per step; every
  Brownian path in the package is a scaled cumulative sum of them. The
  multivariate system's correlated increments are unit-variance draws
  from :func:`sample_gaussian_increments`, mixed by a Cholesky factor.
* Symmetric alpha-stable increments via the Chambers-Mallows-Stuck
  transform, with the stability index on a :class:`Ramp` schedule. The
  per-step scale is ``scale * dt ** (1 / alpha)``.
* Fractional Brownian motion. Constant-Hurst paths are exact Gaussian
  draws by circulant embedding (Davies-Harte), which is nonnegative for
  fractional Gaussian noise at every H and length (Davies & Harte 1987;
  Craigmile 2003); a negative eigenvalue raises ``GenerationError``.
  Ramped-Hurst paths are drawn by Cholesky factorisation of the
  local-exponent (multifractional) kernel of Peltier & Levy Vehel (1995)
  ``R(s, t) = (s**(H(s)+H(t)) + t**(H(s)+H(t)) - |t-s|**(H(s)+H(t))) / 2``.
  A schedule that starts at H = 0.5 has a Brownian head before
  ``t_start``: there the kernel is ``min(s, t)`` and its factor is a
  scaled cumulative sum, so only the ``n - t_start`` ramped rows of the
  factor are built, an O((n - t_start) * n)-memory block refused above
  ``MAX_MBM_STEPS**2`` entries. The kernel is built in row blocks up to
  its diagonal, so building the factor peaks at twice the factor it
  keeps (the kernel and its Cholesky copy). The head increments are
  plain Wiener increments, and a seed draws the same path as the full
  factor up to rounding. A block that is not positive definite raises
  ``GenerationError`` naming its smallest eigenvalue.

Every generator is a pure function of its parameters and a 64-bit seed:
same inputs, bit-identical output. Batches split one master seed into
per-path seeds with :func:`phasecrash.io.derive_seed`.
"""

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import GenerationError

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

#: Cap on a ramped-Hurst factor: synth_fbm refuses a path whose ramped
#: rows span more than MAX_MBM_STEPS**2 kernel entries. The cached factor
#: takes 8 bytes an entry (512 MB at the cap), and building it peaks at
#: 2.0 times that, the kernel and its Cholesky copy (measured at n = 1024,
#: 2048 and 2520 under tracemalloc).
MAX_MBM_STEPS = 8192

def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) <= MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class Ramp:
    """A per-step value that holds ``start`` before step ``t_start`` and
    runs ``np.linspace(start, end, n - t_start)`` from there to the end of
    an ``n``-step path. Constant when ``end`` is omitted."""

    start: float
    end: float | None = None
    t_start: int = 0

    def __post_init__(self):
        if not isinstance(self.t_start, (int, np.integer)) or self.t_start < 0:
            raise ValueError(f"t_start must be an integer >= 0, got {self.t_start!r}")

    def values(self, n):
        """Per-step values for a path of ``n`` steps."""
        end = self.start if self.end is None else self.end
        out = np.full(n, float(self.start))
        out[self.t_start :] = np.linspace(self.start, end, max(n - self.t_start, 0))
        return out

    def is_constant(self):
        return self.end is None or self.end == self.start


def _check_schedule(sch, ramp, name, interval, inside):
    # ``ramp`` selects nothing; it is accepted for callers that still pass
    # ramp="linear", and ramp="constant" must not contradict ``end``
    if ramp not in ("constant", "linear"):
        raise ValueError(f"unknown ramp kind {ramp!r}")
    if ramp == "constant" and not sch.is_constant():
        raise ValueError(f"ramp='constant' but end {sch.end} != start {sch.start}")
    for v in (sch.start, sch.end):
        if v is not None and not inside(v):
            raise ValueError(f"{name} must lie in {interval}, got {v}")


@dataclass(frozen=True)
class HurstSchedule(Ramp):
    """Hurst exponent over the path, a :class:`Ramp` of values in (0, 1)."""

    ramp: InitVar[str] = "linear"

    def __post_init__(self, ramp):
        super().__post_init__()
        _check_schedule(self, ramp, "Hurst exponent", "(0, 1)", lambda h: 0 < h < 1)


@dataclass(frozen=True)
class StableSchedule(Ramp):
    """Stability index over the path, a :class:`Ramp` of values in (0, 2],
    with a per-step scale."""

    scale: float = 1.0
    ramp: InitVar[str] = "linear"

    def __post_init__(self, ramp):
        super().__post_init__()
        _check_schedule(self, ramp, "stability index", "(0, 2]", lambda a: 0 < a <= 2)
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")


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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return int(n), float(dt)


def sample_gaussian_increments(n, dt, seed):
    """``n`` iid Gaussian increments with mean zero and variance ``dt``."""
    n, dt = _check_n_dt(n, dt)
    rng = np.random.default_rng(_check_seed(seed))
    z = rng.standard_normal(n)
    return NoisePath(z * np.sqrt(dt))


def sample_alpha_stable(n, schedule, dt, seed):
    """Symmetric alpha-stable increments with per-step index from ``schedule``.

    Uses the Chambers-Mallows-Stuck transform
    ``X = sin(aU) / cos(U)**(1/a) * (cos((1-a)U) / E)**((1-a)/a)``
    with U uniform on (-pi/2, pi/2) and E unit exponential, which is the
    standard symmetric stable law for every a in (0, 2] (Cauchy at a = 1,
    Gaussian with variance 2 at a = 2). Increment ``i`` is scaled by
    ``schedule.scale * dt**(1/alpha_i)``.
    """
    if not isinstance(schedule, StableSchedule):
        raise ValueError("schedule must be a StableSchedule")
    n, dt = _check_n_dt(n, dt)
    rng = np.random.default_rng(_check_seed(seed))
    alpha = schedule.values(n)
    u = (rng.random(n) - 0.5) * np.pi
    e = rng.standard_exponential(n)
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
        np.cos((1.0 - alpha) * u) / e
    ) ** ((1.0 - alpha) / alpha)
    inc = schedule.scale * dt ** (1.0 / alpha) * x
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


#: Kernel entries built at a time by _mbm_blocks (1 MB a temporary).
_MBM_BLOCK = 1 << 17


def _mbm_blocks(schedule, n, dt, k):
    """``L21`` and the lower triangle of ``R22 - L21 L21^T`` for the
    ramped rows ``k..n-1`` of the kernel.

    Rows are built in blocks of about ``_MBM_BLOCK`` entries, each only
    up to its last diagonal entry, because ``np.linalg.cholesky`` and
    ``eigvalsh`` read the lower triangle alone; the block temporaries are
    gone when this returns.
    """
    h = schedule.values(n)
    t = np.arange(1, n + 1) * dt
    l21 = np.empty((n - k, k))
    r22 = np.zeros((n - k, n - k))
    step = max(1, _MBM_BLOCK // n)
    for i in range(k, n, step):
        j = min(i + step, n)  # rows i..j-1, columns 0..j-1
        s, tt = t[i:j, None], t[None, :j]
        hs = h[i:j, None] + h[None, :j]
        # R = (s**hs + tt**hs - |tt - s|**hs) / 2, built in place
        cov = np.power(s, hs)
        tmp = np.power(tt, hs)
        cov += tmp
        np.subtract(tt, s, out=tmp)
        np.abs(tmp, out=tmp)
        np.power(tmp, hs, out=tmp)
        cov -= tmp
        cov *= 0.5
        if k:  # the head columns, differenced as np.diff(prepend=0) does
            rows = l21[i - k : j - k]
            rows[:, 0] = cov[:, 0]
            np.subtract(cov[:, 1:k], cov[:, : k - 1], out=rows[:, 1:])
            rows /= np.sqrt(dt)
        r22[i - k : j - k, : j - k] = cov[:, k:]
        del hs, cov, tmp  # before the next block or the product below
    if k:
        r22 -= l21 @ l21.T
    return l21, r22


@lru_cache(maxsize=1)  # one factor is up to 8 * MAX_MBM_STEPS**2 bytes
def _mbm_cholesky_factor(schedule, n, dt):
    """Rows ``[L21 | L22]`` of the kernel's Cholesky factor below its
    Brownian head.

    Over the first ``k`` steps of a schedule that starts at H = 0.5 the
    kernel is ``dt * min(i, j)``, whose factor is ``sqrt(dt)`` times a
    lower triangle of ones; only the ``n - k`` ramped rows are built and
    factored. With k = 0, ``L22`` is the full factor.
    """
    k = min(schedule.t_start, n) if schedule.start == 0.5 else 0
    if (n - k) * n > MAX_MBM_STEPS**2:
        raise GenerationError(
            f"ramped-Hurst paths are limited to {MAX_MBM_STEPS}**2 factor "
            f"entries, got {n - k} ramped rows of {n} steps",
            schedule=schedule,
        )
    l21, r22 = _mbm_blocks(schedule, n, dt, k)
    try:
        return l21, np.linalg.cholesky(r22)
    except np.linalg.LinAlgError:
        raise GenerationError(
            f"covariance for {schedule} is not positive definite: smallest "
            f"eigenvalue {np.linalg.eigvalsh(r22)[0]:.3g}",
            schedule=schedule,
        ) from None


def synth_fbm(n, schedule, dt, seed):
    """Fractional Brownian motion increments under a Hurst schedule.

    Constant schedules yield exact fBM with
    ``Cov[X(s), X(t)] = (|s|**2H + |t|**2H - |t-s|**2H) / 2`` in units
    where dt = 1, scaling as ``dt**2H``. Ramped schedules draw the path
    from the local-exponent kernel documented in the module docstring and
    are refused when their ramped rows exceed ``MAX_MBM_STEPS**2`` kernel
    entries.
    """
    if not isinstance(schedule, HurstSchedule):
        raise ValueError("schedule must be a HurstSchedule")
    n, dt = _check_n_dt(n, dt)
    rng = np.random.default_rng(_check_seed(seed))
    if schedule.is_constant():
        inc = _fgn_constant(schedule.start, n, rng) * dt**schedule.start
    else:
        l21, l22 = _mbm_cholesky_factor(schedule, n, dt)
        k = l21.shape[1]
        z = rng.standard_normal(n)
        inc = np.empty(n)
        inc[:k] = np.sqrt(dt) * z[:k]
        tail = l21 @ z[:k] + l22 @ z[k:]
        inc[k:] = np.diff(tail, prepend=inc[:k].sum())
    return NoisePath(inc)
