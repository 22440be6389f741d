"""Reference oracles for ramped-Hurst paths.

``full_factor`` is the full Cholesky factor of the local-exponent kernel
that ``phasecrash.noise`` factored before it skipped the Brownian head.
``synth_fbm`` must reproduce its increments bitwise when the schedule
has no Brownian head, and its path to rounding when it has one.

``block_factor`` builds every ramped row of the kernel at once, whole
rows and all, with three full-size temporaries; ``phasecrash.noise``
builds them in row blocks up to the diagonal. The two must agree
bitwise, ``L21`` and ``L22`` alike.
"""

import numpy as np


def full_factor(schedule, n, dt):
    h = schedule.values(n)
    t = np.arange(1, n + 1) * dt
    hs = h[:, None] + h[None, :]
    s, tt = t[:, None], t[None, :]
    cov = 0.5 * (s**hs + tt**hs - np.abs(tt - s) ** hs)
    return np.linalg.cholesky(cov)


def mbm_path(schedule, n, dt, seed):
    """The path ``X(dt), ..., X(n dt)`` and the unit normals that drew it."""
    z = np.random.default_rng(seed).standard_normal(n)
    return full_factor(schedule, n, dt) @ z, z


def block_factor(schedule, n, dt):
    """``(L21, L22)``: the ramped rows of the factor below the Brownian head."""
    k = min(schedule.t_start, n) if schedule.start == 0.5 else 0
    h = schedule.values(n)
    t = np.arange(1, n + 1) * dt
    s, tt = t[k:, None], t[None, :]
    hs = h[k:, None] + h[None, :]
    cov = np.power(s, hs)
    tmp = np.power(tt, hs)
    cov += tmp
    np.subtract(tt, s, out=tmp)
    np.abs(tmp, out=tmp)
    np.power(tmp, hs, out=tmp)
    cov -= tmp
    cov *= 0.5
    l21 = np.diff(cov[:, :k], axis=1, prepend=0.0)
    l21 /= np.sqrt(dt)
    r22 = cov[:, k:]
    if k:
        r22 -= l21 @ l21.T
    return l21, np.linalg.cholesky(r22)
