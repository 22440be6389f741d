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
  factor are built; a path whose ramped rows span more than
  ``MAX_MBM_STEPS**2`` kernel entries is refused. The factor is built
  and kept as panels of 128 rows, each only up to its last diagonal
  entry, so it keeps about half the entries of the ramped rows when the
  head is short. Building it raises the peak RSS by 1.1 to 1.35 times
  the factor it keeps, 0.58 to 0.72 times a dense factor of the same
  rows. The head increments are plain Wiener increments, and a seed
  draws the same path as the full factor up to rounding. A kernel that
  is not positive definite raises ``GenerationError`` naming the panel
  of steps where the factor failed and the smallest eigenvalue of the
  kernel's Schur complement there.

Every generator is a pure function of its parameters and a 64-bit seed:
same inputs, bit-identical output. Batches split one master seed into
per-path seeds with :func:`phasecrash.io.derive_seed`.
"""

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import GenerationError, check_int

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
#: keeps their lower triangle at 8 bytes an entry: about 256 MB at the cap
#: with no Brownian head, up to 512 MB below a long head. Building it
#: raises the peak RSS by 1.35 and 1.12 times the factor at n = 2048 and
#: 4096 with no head (0.72 and 0.58 times a dense factor).
MAX_MBM_STEPS = 8192


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
    n = check_int("n", n, 1)
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
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
    Gaussian with variance 2 at a = 2). Increment ``i`` is scaled by
    ``schedule.scale * dt**(1/alpha_i)``.
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


#: Kernel entries built at a time by _mbm_cholesky_factor (1 MB a temporary).
_MBM_BLOCK = 1 << 17

#: Ramped rows in a panel of the factor that _mbm_cholesky_factor keeps.
_MBM_PANEL = 128


@lru_cache(maxsize=1)  # one factor is up to 8 * MAX_MBM_STEPS**2 bytes
def _mbm_cholesky_factor(schedule, n, dt):
    """Row panels ``[L21 | L22]`` of the kernel's Cholesky factor below its
    Brownian head, lower triangle only.

    Over the first ``k`` steps of a schedule that starts at H = 0.5 the
    kernel is ``dt * min(i, j)``, whose factor is ``sqrt(dt)`` times a
    lower triangle of ones; only the ``n - k`` ramped rows are built and
    factored. A panel holds ``_MBM_PANEL`` of them (the last may hold
    fewer), steps ``p..q-1``, as a ``(q - p, q)`` array: the ``k`` head
    columns and the ramped columns up to its last diagonal entry.

    Left-looking: a panel's kernel rows are built about ``_MBM_BLOCK``
    entries at a time. Then, an earlier panel at a time, the columns
    below that panel's diagonal block lose the product of the columns
    before them and are mapped through the inverse of its diagonal
    factor. Last, ``np.linalg.cholesky`` factors the panel's own diagonal
    block, which is also the positive-definite check.
    """
    k = min(schedule.t_start, n) if schedule.start == 0.5 else 0
    if (n - k) * n > MAX_MBM_STEPS**2:
        raise GenerationError(
            f"ramped-Hurst paths are limited to {MAX_MBM_STEPS}**2 factor "
            f"entries, got {n - k} ramped rows of {n} steps",
            schedule=schedule,
        )
    h = schedule.values(n)
    t = np.arange(1, n + 1) * dt
    panels, inverses = [], []
    for p in range(k, n, _MBM_PANEL):
        q = min(p + _MBM_PANEL, n)
        panel = np.empty((q - p, q))
        step = max(1, _MBM_BLOCK // q)
        for i in range(p, q, step):
            j = min(i + step, q)  # rows i..j-1, columns 0..q-1
            s, tt = t[i:j, None], t[None, :q]
            hs = h[i:j, None] + h[None, :q]
            # R = (s**hs + tt**hs - |tt - s|**hs) / 2, built in the panel
            rows = np.power(s, hs, out=panel[i - p : j - p])
            tmp = np.power(tt, hs)
            rows += tmp
            np.subtract(tt, s, out=tmp)
            np.abs(tmp, out=tmp)
            np.power(tmp, hs, out=tmp)
            rows -= tmp
            rows *= 0.5
            del hs, tmp  # before the next block
            if k:  # the head columns, differenced as np.diff(prepend=0) does
                rows[:, 1:k] = np.diff(rows[:, :k])
                rows[:, :k] /= np.sqrt(dt)
        for prev, inv in zip(panels, inverses):  # prev holds steps c..d-1
            d = prev.shape[1]
            c = d - prev.shape[0]
            cols = panel[:, c:d]
            cols -= panel[:, :c] @ prev[:, :c].T
            cols[...] = cols @ inv
        diag = panel[:, p:]
        diag -= panel[:, :p] @ panel[:, :p].T
        try:
            diag[...] = factor = np.linalg.cholesky(diag)
        except np.linalg.LinAlgError:
            raise GenerationError(
                f"covariance for {schedule} is not positive definite at steps "
                f"{p}-{q - 1}: the Schur complement there has smallest "
                f"eigenvalue {np.linalg.eigvalsh(diag)[0]:.3g}",
                schedule=schedule,
            ) from None
        panels.append(panel)
        inverses.append(np.linalg.inv(factor).T)
    return tuple(panels)


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
    rng = np.random.default_rng(check_int("seed", seed, 0, MAX_SEED))
    if schedule.is_constant():
        inc = _fgn_constant(schedule.start, n, rng) * dt**schedule.start
    else:
        panels = _mbm_cholesky_factor(schedule, n, dt)
        k = n - sum(len(panel) for panel in panels)
        z = rng.standard_normal(n)
        inc = np.empty(n)
        inc[:k] = np.sqrt(dt) * z[:k]
        tail = [panel @ z[: panel.shape[1]] for panel in panels]
        inc[k:] = np.diff(np.concatenate([[inc[:k].sum()], *tail]))
    return NoisePath(inc)
