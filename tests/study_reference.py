"""Slow reference oracles for ``phasecrash.study``.

``detect_crashes`` walks the series one step at a time, keeping the
rolling peak in a monotone deque of indices; ``phasecrash.study`` takes
the rolling peak from a sliding-window maximum and steps from event to
event. Both must return the same events, field for field.

``normal_segments`` masks every peak-to-trough interval widened by the
exclusion margin, then walks the mask one step at a time, collecting
each maximal run of kept steps that can hold one EWS window.
``phasecrash.study`` finds the same runs from the boundaries of the
mask; both must return the same ``(start, stop)`` ranges.

``segment_ews`` estimates a signal per segment, on the sub-series that
starts at the first step of the asset's window grid (anchored at step 0,
advancing by the stride) inside the segment; ``trend_records`` ranks
those windows as the study does, one ``kendall_tau_trend`` call a
segment. ``phasecrash.study`` estimates each signal once over the panel,
gives a segment the windows wholly inside it and ranks every segment of
every signal in one batched Kendall pass; both must give every segment
the same windows, times and values bit for bit, and the same records.
"""

import numpy as np

from phasecrash.errors import InsufficientDataError
from phasecrash.ews import EwsSeries, PriceSeries, signal_estimator
from phasecrash.study import _BOUNDARY_EPS, CrashEvent, SegmentTrend, kendall_tau_trend


def detect_crashes(series, cfg):
    n = len(series)
    if n <= cfg.lookback:
        raise ValueError(f"series {series.id!r} is too short")
    lp = series.log_prices
    times = series.times
    thresh = cfg.crash_threshold - _BOUNDARY_EPS
    recovery_gap = np.log1p(-0.05)  # the study's fixed 5% recovery rule

    events = []
    window = []  # indices with decreasing log-price, rolling max front
    in_episode = False
    episode_peak_lp = -np.inf
    for i in range(n):
        while window and lp[window[-1]] < lp[i]:
            window.pop()
        window.append(i)
        while window[0] < i - cfg.lookback + 1:
            window.pop(0)
        if in_episode:
            if lp[i] >= episode_peak_lp + recovery_gap:
                in_episode = False
            continue
        peak = window[0]
        drawdown = 1.0 - np.exp(lp[i] - lp[peak])
        if drawdown >= thresh:
            events.append(
                CrashEvent(
                    asset_id=series.id,
                    peak_time=float(times[peak]),
                    trough_time=float(times[i]),
                    peak_log_price=float(lp[peak]),
                    trough_log_price=float(lp[i]),
                    drawdown=float(drawdown),
                    peak_index=int(peak),
                    trough_index=int(i),
                )
            )
            in_episode = True
            episode_peak_lp = lp[peak]
    return events


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
            normal.append((i, j))
        i = j
    return normal


def segment_ews(asset, signal, cfg, segment):
    start, stop = segment
    stride = cfg.ews_cfg.stride
    anchor = -(-start // stride) * stride  # the first grid step >= start
    sub = PriceSeries(asset.times[anchor:stop], asset.log_prices[anchor:stop], asset.id)
    try:
        return signal_estimator(signal)(sub, cfg.ews_cfg)
    except InsufficientDataError:
        return EwsSeries([], [], signal, asset.id)


def trend_records(asset, signal, cfg, pre, normal):
    records = []
    for group, segments in (("pre", pre), ("normal", normal)):
        for k, seg in enumerate(segments):
            try:
                tau, n_windows = kendall_tau_trend(segment_ews(asset, signal, cfg, seg))
            except InsufficientDataError:
                continue
            if np.isfinite(tau):
                records.append(SegmentTrend(
                    asset.id, signal, group, k, float(asset.times[seg[0]]),
                    float(asset.times[seg[1] - 1]), n_windows, tau,
                ))
    return records
