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
  scaled cumulative sum, so the head increments are plain Wiener
  increments, and the factor's ramped rows have a closed form over the
  head columns, rebuilt a block at a time when needed. Only the factor
  of the ramped block's Schur complement is built and kept, as panels
  of 128 rows, each only up to its last diagonal entry; a path whose
  ramped rows span more than ``MAX_MBM_STEPS**2`` kernel entries is
  refused. With no head, building it raises the peak RSS by 1.1 to 1.25
  times the factor it keeps (0.56 to 0.66 times a dense factor); below
  a head, 1 MB temporaries add a few MB (8.3 MB for the README crash
  asset, whose factor keeps 2.5 MB). A list of seeds is drawn with one
  pass over the head columns, so a group costs about what one path
  does. A seed draws the same path as the full factor up to rounding,
  and the same bits whatever seeds share its call. A kernel that is not
  positive definite raises ``GenerationError`` naming the panel of steps
  where the factor failed and the smallest eigenvalue of the kernel's
  Schur complement there.

Every generator is a pure function of its parameters and a 64-bit seed:
same inputs, bit-identical output. Batches split one master seed into
per-path seeds with :func:`phasecrash.io.derive_seed`.
"""

from collections.abc import Iterable
from dataclasses import InitVar, dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

#: Cap on a ramped-Hurst factor: synth_fbm refuses a path whose ramped
#: rows span more than MAX_MBM_STEPS**2 kernel entries. The cached factor
#: keeps the lower triangle of the ramped rows' own columns at 8 bytes an
#: entry, about 256 MB at the cap, and none of the Brownian head's columns.
#: Building it raises the peak RSS by 1.25 and 1.10 times the factor at
#: n = 2048 and 4096 with no head (0.66 and 0.56 times a dense factor).
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


#: Kernel entries built at a time by _mbm_cholesky_factor and _mbm_head_blocks
#: (1 MB a temporary).
_MBM_BLOCK = 1 << 17

#: Ramped rows in a panel of the factor that _mbm_cholesky_factor keeps.
_MBM_PANEL = 128


def _mbm_head(schedule, n):
    """Steps in the Brownian head of a ramped-Hurst path: those before
    ``t_start`` when the schedule starts at H = 0.5, else none."""
    return min(schedule.t_start, n) if schedule.start == 0.5 else 0


def _increment_power(eta, log_m, log_step, out, tmp):
    """``(m + 1)**eta - m**eta`` into ``out``, from ``log(m)`` and
    ``log1p(1 / m)``, as ``m**eta * expm1(eta * log1p(1 / m))``, which
    does not cancel; ``tmp`` is scratch of the same shape."""
    np.exp(np.multiply(eta, log_m, out=out), out=out)
    np.expm1(np.multiply(eta, log_step, out=tmp), out=tmp)
    out *= tmp
    return out


def _mbm_head_blocks(h, k, dt):
    """``(a, L21[:, a:b].T)``: the head columns ``a..b-1`` of the factor's
    ramped rows, as rows, a block of at most ``_MBM_BLOCK`` entries at a
    time. The blocks share one buffer, so each is overwritten by the next.

    Over a head of ``k`` steps the kernel's factor is ``sqrt(dt)`` times a
    lower triangle of ones, so ``L21`` is the kernel's ramped rows
    differenced over the head columns. With ``eta = h_i + 0.5`` and 0-based
    steps that is ``dt**h_i / 2 * (D_i(j) + D_i(i - j))``, where
    ``D_i(m) = (m + 1)**eta - m**eta`` and ``D_i(0) = 1``. The split
    depends only on ``(n, k)``."""
    n = h.size
    if n == k:  # no ramped rows
        return
    eta, half = h[k:] + 0.5, dt ** h[k:] / 2
    m = np.arange(1.0, n)  # log(m) and log1p(1 / m) for m = 1..n-1 at m - 1
    log_m, log_step = np.log(m), np.log1p(1.0 / m)
    width = max(1, _MBM_BLOCK // (n - k))
    work = np.empty((3, width * (n - k)))
    for a in range(0, k, width):
        b = min(a + width, k)
        block, d, tmp = (w[: (b - a) * (n - k)].reshape(b - a, n - k) for w in work)

        def toeplitz(v):  # v[i - j - 1] at row j - a, column i - k
            return sliding_window_view(v[k - b : n - 1 - a], n - k)[::-1]

        _increment_power(eta, toeplitz(log_m), toeplitz(log_step), block, tmp)
        j = max(a, 1)  # D_i(j) for the columns j >= 1; D_i(0) = 1
        cols = np.s_[j - 1 : b - 1, None]  # log(j) and log1p(1 / j), a row each
        block[j - a :] += _increment_power(eta, log_m[cols], log_step[cols], d[j - a :], tmp[j - a :])
        if a == 0:
            block[0] += 1.0
        block *= half
        yield a, block


@lru_cache(maxsize=1)  # one factor is up to 4 * MAX_MBM_STEPS**2 bytes
def _mbm_cholesky_factor(schedule, n, dt):
    """Row panels of ``L22``, the Cholesky factor of the ramped block's
    Schur complement ``K22 - L21 L21^T`` below the Brownian head, lower
    triangle only.

    Only the ``n - k`` ramped rows are factored (``k`` from
    :func:`_mbm_head`). A panel holds ``_MBM_PANEL`` of them (the last may
    hold fewer), steps ``p..q-1``, as a ``(q - p, q - k)`` array: the
    ramped columns up to its last diagonal entry. Each panel's kernel rows
    are built about ``_MBM_BLOCK`` entries at a time. Then every block of
    :func:`_mbm_head_blocks` is subtracted times its transpose and
    dropped. Last, left-looking, panel by panel: the columns below each
    earlier panel's diagonal block lose the product of the columns before
    them and are mapped through the inverse of its diagonal factor, and
    ``np.linalg.cholesky`` factors the panel's own diagonal block, which
    is also the positive-definite check.
    """
    k = _mbm_head(schedule, n)
    if (n - k) * n > MAX_MBM_STEPS**2:
        raise GenerationError(
            f"ramped-Hurst paths are limited to {MAX_MBM_STEPS}**2 factor "
            f"entries, got {n - k} ramped rows of {n} steps",
            schedule=schedule,
        )
    h = schedule.values(n)
    t = np.arange(1, n + 1) * dt
    panels = []
    for p in range(k, n, _MBM_PANEL):
        q = min(p + _MBM_PANEL, n)
        panel = np.empty((q - p, q - k))
        step = max(1, _MBM_BLOCK // (q - k))
        for i in range(p, q, step):
            j = min(i + step, q)  # rows i..j-1, columns k..q-1
            s, tt = t[i:j, None], t[None, k:q]
            hs = h[i:j, None] + h[None, k:q]
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
        panels.append(panel)
    starts = range(0, n - k, _MBM_PANEL)  # of the panels, in ramped columns
    for _, block in _mbm_head_blocks(h, k, dt):  # K22 - L21 L21^T
        for p, panel in zip(starts, panels):
            below = block[:, p : p + len(panel)].T
            width = max(1, _MBM_BLOCK // len(panel))
            for c in range(0, panel.shape[1], width):
                d = min(c + width, panel.shape[1])
                panel[:, c:d] -= below @ block[:, c:d]
    inverses = []
    for p, panel in zip(starts, panels):
        for prev, inv in zip(panels, inverses):  # prev holds ramped columns c..d-1
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
                f"{k + p}-{k + p + len(panel) - 1}: the Schur complement there has "
                f"smallest eigenvalue {np.linalg.eigvalsh(diag)[0]:.3g}",
                schedule=schedule,
            ) from None
        inverses.append(np.linalg.inv(factor).T)
    return tuple(panels)


def _mbm_draw(schedule, n, dt, rngs):
    """Ramped-Hurst increments, an array of ``n`` for each generator in
    ``rngs``, drawn by its ``n`` unit normals ``z``.

    The head is ``sqrt(dt) * z``. One pass over :func:`_mbm_head_blocks`
    adds ``L21 z`` for every path, a matvec a block and path, and then
    each ramped panel adds its own matvec; a path's bits do not depend on
    which other paths share the call."""
    panels = _mbm_cholesky_factor(schedule, n, dt)  # refuses before any draw
    k = _mbm_head(schedule, n)
    zs = [rng.standard_normal(n) for rng in rngs]
    heads = [np.zeros(n - k) if k else None for _ in zs]
    for a, block in _mbm_head_blocks(schedule.values(n), k, dt):
        for z, head in zip(zs, heads):
            head += z[a : a + len(block)] @ block
    for z, head in zip(zs, heads):  # z becomes the increments
        tail = [panel @ z[k : k + panel.shape[1]] for panel in panels]
        z[:k] *= np.sqrt(dt)
        path = np.concatenate([[z[:k].sum()], *tail])  # X at steps k-1..n-1
        if k:
            path[1:] += head
        z[k:] = np.diff(path)
    return zs


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
    where dt = 1, scaling as ``dt**2H``. Ramped schedules draw the path
    from the local-exponent kernel documented in the module docstring and
    are refused when their ramped rows exceed ``MAX_MBM_STEPS**2`` kernel
    entries.

    ``seed`` is an int, for one :class:`NoisePath`, or a sequence of ints,
    for a list of them; each path is the one its seed draws alone. A
    ramped schedule below a Brownian head draws a sequence in one pass
    over the head, so a group costs about what one seed does.
    """
    if not isinstance(schedule, HurstSchedule):
        raise ValueError("schedule must be a HurstSchedule")
    n, dt = _check_n_dt(n, dt)
    seeds, one = _seed_list(seed)
    rngs = [np.random.default_rng(s) for s in seeds]
    if schedule.is_constant():
        incs = [_fgn_constant(schedule.start, n, rng) * dt**schedule.start for rng in rngs]
    else:
        incs = _mbm_draw(schedule, n, dt, rngs)
    paths = [NoisePath(inc) for inc in incs]
    return paths[0] if one else paths
