"""Reference oracle for ramped-Hurst paths: the full Cholesky factor of
the local-exponent kernel that ``phasecrash.noise`` factored before it
skipped the Brownian head.

``synth_fbm`` must reproduce its increments bitwise when the schedule
has no Brownian head, and its path to rounding when it has one.
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
