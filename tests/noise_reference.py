"""Reference oracles for ramped-Hurst paths.

``full_factor`` is the full Cholesky factor of the local-exponent kernel
that ``phasecrash.noise`` factored before it skipped the Brownian head.
``synth_fbm`` must reproduce its increments bitwise when the schedule
has no Brownian head and the path fits in one panel of
``phasecrash.noise._mbm_cholesky_factor``, and its path to rounding
otherwise.

``block_factor`` builds every ramped row of the kernel at once, whole
rows and all, with three full-size temporaries, differences them over
the Brownian head's columns into ``L21``, and factors ``K22 - L21 L21^T``
with one ``np.linalg.cholesky`` call. ``phasecrash.noise`` computes
``L21`` in closed form, a block of head columns at a time, and keeps
only ``L22``, built a panel of rows at a time, each up to its last
diagonal entry, and factored left-looking, panel by panel.
``assemble_factor`` lays those head blocks and panels out as
``block_factor``'s ``(L21, L22)``. ``L21`` agrees to the rounding of the
differences, and ``L22`` bitwise when there is no head and its rows fit
in one panel, to rounding otherwise.
"""

import numpy as np

from phasecrash import noise


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


def assemble_factor(panels, schedule, n, dt):
    """``(L21, L22)`` of an ``n``-step factor: the closed-form head blocks
    of ``phasecrash.noise._mbm_head_blocks`` side by side, and the row
    panels that ``phasecrash.noise._mbm_cholesky_factor`` keeps of
    ``L22``."""
    k = n - sum(len(p) for p in panels)
    l21 = np.zeros((n - k, k))
    for a, block in noise._mbm_head_blocks(schedule.values(n), k, dt):
        l21[:, a : a + len(block)] = block.T
    l22 = np.zeros((n - k, n - k))
    i = 0
    for p in panels:
        l22[i : i + len(p), : p.shape[1]] = p
        i += len(p)
    return l21, l22
