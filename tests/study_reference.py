"""Slow reference oracle for the normal-time segments of ``segment_windows``.

It masks every peak-to-trough interval widened by the exclusion margin,
then walks the mask one step at a time, collecting each maximal run of
kept steps that can hold one EWS window. ``phasecrash.study`` finds the
same runs from the boundaries of the mask; both must return the same
segments.
"""

import numpy as np


def normal_segments(series, events, cfg):
    n = len(series)
    keep = np.ones(n, dtype=bool)
    for ev in events:
        lo = max(0, ev.peak_index - cfg.exclusion_margin)
        hi = min(n, ev.trough_index + cfg.exclusion_margin + 1)
        keep[lo:hi] = False

    normal = []
    i = 0
    while i < n:
        if not keep[i]:
            i += 1
            continue
        j = i
        while j < n and keep[j]:
            j += 1
        if j - i >= cfg.ews_cfg.window:
            normal.append(series.slice(i, j))
        i = j
    return normal
