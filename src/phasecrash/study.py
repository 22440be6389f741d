"""Crash detection and the pre-crash versus normal-time trend protocol.

A crash is a drawdown of at least ``crash_threshold`` (default 20%) from
the running maximum over a ``lookback`` horizon; one decline spawns one
event, with new events suppressed until price recovers to within 5% of
the peak. For every event the ``pre_crash_window`` observations ending
at the peak form a pre-crash segment; stretches at least
``exclusion_margin`` observations away from every peak-to-trough
interval form the normal-time segments. Each configured early-warning
signal is computed per segment, its monotone trend is summarised by
Kendall's tau-b against window index, and the pre and normal tau samples
are compared per signal with a two-sample Mann-Whitney test.

Both statistics are computed here in numpy, to the rules of
``scipy.stats`` (which the tests use as their oracle), so the CLI never
imports scipy for them. :func:`kendall_tau_trend` counts inversions by a
bottom-up merge in O(n log^2 n) and takes the tie-corrected normal
approximation (Kendall 1945, Biometrika 33:239). ``_mannwhitney_p``
follows scipy's ``auto`` rule: the exact null distribution by Mann and
Whitney's recursion when the smaller sample has at most 8 values and
there are no ties, else the tie- and continuity-corrected normal
approximation (Mann & Whitney 1947, Ann. Math. Stat. 18:50).

A series too short to scan for crashes is a recorded skip of the study,
not a failure of the panel.

Everything here is deterministic: no randomness enters detection,
segmentation, or aggregation, and per-asset work reduces in input order.
"""

import logging
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError
from .ews import (
    ANOMALOUS_DIM,
    CROSS_COV,
    LAG1_AUTOCORR,
    SKEWNESS,
    VOLATILITY,
    WindowConfig,
    check_aligned,
    cross_covariance,
    signal_estimator,
)
from .ews import rolling_volatility  # noqa: F401  perfbench's tracer test reads it here

__all__ = [
    "CrashEvent",
    "StudyConfig",
    "SignalTrend",
    "SegmentTrend",
    "TrendReport",
    "detect_crashes",
    "detect_panel",
    "segment_windows",
    "kendall_tau_trend",
    "run_study",
]

# Relative guard so a drop of exactly the threshold counts despite the
# log/exp round trip in the drawdown computation.
_BOUNDARY_EPS = 1e-12

log = logging.getLogger("phasecrash")


@dataclass(frozen=True)
class CrashEvent:
    asset_id: str
    peak_time: float
    trough_time: float
    peak_log_price: float
    trough_log_price: float
    drawdown: float
    peak_index: int
    trough_index: int

    def __post_init__(self):
        if not self.peak_time < self.trough_time:
            raise ValueError("peak_time must precede trough_time")

    def to_dict(self):
        return asdict(self)


def _default_ews_cfg():
    # Sized so a default 252-observation pre-crash segment still yields
    # dozens of trend points per signal.
    return WindowConfig(window=63, stride=5, tau_grid=(2, 4, 8), orders=(1, 2))


@dataclass(frozen=True)
class StudyConfig:
    crash_threshold: float = 0.20
    lookback: int = 126
    pre_crash_window: int = 252
    exclusion_margin: int = 63
    signals: tuple = (VOLATILITY, SKEWNESS, LAG1_AUTOCORR, ANOMALOUS_DIM)
    ews_cfg: WindowConfig = field(default_factory=_default_ews_cfg)
    recovery_fraction: float = 0.05
    min_trend_points: int = 10

    def __post_init__(self):
        if not 0.0 < self.crash_threshold < 1.0:
            raise ValueError("crash_threshold must lie in (0, 1)")
        if self.lookback < 1:
            raise ValueError("lookback must be positive")
        if self.exclusion_margin < 0:
            raise ValueError("exclusion_margin must be nonnegative")
        if self.pre_crash_window < self.ews_cfg.window:
            raise ValueError("pre_crash_window must be >= ews_cfg.window")
        if not 0.0 < self.recovery_fraction < 1.0:
            raise ValueError("recovery_fraction must lie in (0, 1)")
        if self.min_trend_points < 1:
            raise ValueError("min_trend_points must be positive")
        if isinstance(self.signals, str):
            raise ValueError(f"signals must be a list of names, got {self.signals!r}")
        for name in self.signals:
            if name != CROSS_COV:
                signal_estimator(name)  # raises for an unknown name


@dataclass
class SegmentTrend:
    """Per-segment trend record, exportable for plotting."""

    asset_id: str
    signal: str
    group: str  # "pre" | "normal"
    segment_index: int
    start_time: float
    end_time: float
    n_windows: int
    tau: float
    p_value: float


@dataclass
class SignalTrend:
    signal: str
    taus_pre: list
    taus_normal: list
    p_value: float
    inconclusive_reason: str = None  # None when both groups have taus

    @property
    def inconclusive(self):
        return self.inconclusive_reason is not None

    @property
    def n_pre(self):
        return len(self.taus_pre)

    @property
    def n_normal(self):
        return len(self.taus_normal)

    @property
    def mean_tau_pre(self):
        return float(np.mean(self.taus_pre)) if self.taus_pre else float("nan")

    @property
    def mean_tau_normal(self):
        return float(np.mean(self.taus_normal)) if self.taus_normal else float("nan")

    def to_dict(self):
        return {
            "signal": self.signal,
            "mean_tau_pre": self.mean_tau_pre,
            "mean_tau_normal": self.mean_tau_normal,
            "n_pre": self.n_pre,
            "n_normal": self.n_normal,
            "p_value": self.p_value,
            "inconclusive": self.inconclusive,
            "inconclusive_reason": self.inconclusive_reason,
        }


@dataclass
class TrendReport:
    signals: dict
    segments: list
    n_assets: int  # assets given, skipped ones included
    n_events: int
    skipped: list = field(default_factory=list)  # {asset_id, reason} per skip

    def to_dict(self):
        return {
            "n_assets": self.n_assets,
            "n_events": self.n_events,
            "n_skipped": len(self.skipped),
            "skipped": self.skipped,
            "signals": {name: st.to_dict() for name, st in self.signals.items()},
        }


def _too_short(series, cfg):
    """Why ``series`` cannot be scanned for crashes, or None if it can."""
    if len(series) <= cfg.lookback:
        return f"{len(series)} observations, needs more than lookback = {cfg.lookback}"
    return None


def detect_crashes(series, cfg):
    """Drawdown episodes of at least ``cfg.crash_threshold`` from the
    rolling peak; returns one event per episode.

    The peak at step i is the earliest maximum of the last ``lookback``
    log-prices up to i. After an event no new one starts until a step
    regains the peak to within ``recovery_fraction``; that step itself
    is not scanned.
    """
    reason = _too_short(series, cfg)
    if reason:
        raise ValueError(f"series {series.id!r} has {reason}")
    lp = series.log_prices
    times = series.times
    lookback = cfg.lookback
    thresh = cfg.crash_threshold - _BOUNDARY_EPS
    recovery_gap = np.log1p(-cfg.recovery_fraction)

    peak_lp = np.concatenate([
        np.maximum.accumulate(lp[: lookback - 1]),
        sliding_window_view(lp, lookback).max(axis=-1),
    ])
    breach = 1.0 - np.exp(lp - peak_lp) >= thresh

    events = []
    i, n = 0, len(series)
    while i < n:
        i += int(np.argmax(breach[i:]))
        if not breach[i]:
            break
        lo = max(0, i - lookback + 1)
        peak = lo + int(np.argmax(lp[lo : i + 1]))
        events.append(
            CrashEvent(
                asset_id=series.id,
                peak_time=float(times[peak]),
                trough_time=float(times[i]),
                peak_log_price=float(lp[peak]),
                trough_log_price=float(lp[i]),
                drawdown=float(1.0 - np.exp(lp[i] - lp[peak])),
                peak_index=peak,
                trough_index=i,
            )
        )
        recovered = lp[i + 1 :] >= lp[peak] + recovery_gap
        if not recovered.any():
            break
        i += int(np.argmax(recovered)) + 2  # resume after the recovery step
    return events


def detect_panel(assets, cfg):
    """:func:`detect_crashes` over a panel.

    Returns ``(scanned, skipped)``: ``(asset, events)`` for each asset
    long enough to scan and one ``{"asset_id", "reason"}`` record for each
    asset that is not, both in input order.
    """
    scanned, skipped = [], []
    for asset in assets:
        reason = _too_short(asset, cfg)
        if reason:
            log.warning("skipping %s: %s", asset.id, reason)
            skipped.append({"asset_id": asset.id, "reason": reason})
        else:
            scanned.append((asset, detect_crashes(asset, cfg)))
    return scanned, skipped


def segment_windows(series, events, cfg):
    """Pre-crash and normal-time sub-series for one asset.

    Pre segments hold the ``pre_crash_window`` observations ending at
    each event's peak, truncated at the previous event's trough plus the
    exclusion margin and dropped when shorter than the EWS window.
    Normal segments are the maximal runs at least ``exclusion_margin``
    observations away from every peak-to-trough interval, kept when they
    can hold at least one EWS window.
    """
    n = len(series)
    events = sorted(events, key=lambda e: e.peak_time)
    min_len = cfg.ews_cfg.window

    pre = []
    prev_trough = None
    for ev in events:
        start = ev.peak_index - cfg.pre_crash_window + 1
        if prev_trough is not None:
            start = max(start, prev_trough + cfg.exclusion_margin)
        start = max(start, 0)
        stop = ev.peak_index + 1
        if stop - start >= min_len:
            pre.append(series.slice(start, stop))
        prev_trough = ev.trough_index

    keep = np.ones(n, dtype=bool)
    for ev in events:
        lo = max(0, ev.peak_index - cfg.exclusion_margin)
        hi = min(n, ev.trough_index + cfg.exclusion_margin + 1)
        keep[lo:hi] = False

    # each run of kept steps starts where keep rises and stops where it falls
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    normal = [
        series.slice(i, j) for i, j in zip(edges[::2], edges[1::2]) if j - i >= min_len
    ]
    return pre, normal


# Leaf blocks of _LEAF ranks count their inversions pair by pair: cheaper
# than the first four merge passes, which cost a few numpy calls each.
_LEAF = 16


def _inversions(ranks):
    """Pairs i < j with ranks[i] > ranks[j], for nonnegative integer
    ranks, in O(n log^2 n).

    The ranks are padded to a power-of-two multiple of ``_LEAF`` with a
    value above every rank, which adds no inversion. After the leaves,
    each bottom-up merge pass counts, for every value in the right half
    of a block pair, the larger values in the sorted left half (one
    ``searchsorted`` over keys offset per pair), then sorts each pair
    into one block.
    """
    width = size = _LEAF
    while size < ranks.size:
        size *= 2
    top = int(ranks.max()) + 1
    s = np.full(size, top, dtype=np.int64)
    s[: ranks.size] = ranks
    leaves = s.reshape(-1, width)
    count = int(np.triu(leaves[:, :, None] > leaves[:, None, :], 1).sum())
    s = np.sort(leaves, axis=1)
    span = top + 1
    while width < size:
        pairs = s.reshape(-1, 2, width)
        n_pairs = len(pairs)
        offset = (np.arange(n_pairs) * span)[:, None]
        at_most = np.searchsorted(
            (pairs[:, 0] + offset).ravel(), (pairs[:, 1] + offset).ravel(), side="right"
        )
        # the right half of pair p has p + 1 full left halves at or before it
        count += width * width * n_pairs * (n_pairs + 1) // 2 - int(at_most.sum())
        s = np.sort(pairs.reshape(n_pairs, 2 * width), axis=1)
        width *= 2
    return count


def kendall_tau_trend(values, min_points=10):
    """Kendall's tau-b of an EWS series against window index.

    Missing windows are skipped. Returns ``(tau, p_value)`` with the
    normal-approximation p-value; fewer than ``min_points`` usable
    windows raise :class:`InsufficientDataError`, and a constant series
    gives ``(nan, nan)``.
    """
    mask = np.isfinite(values.values)
    n = int(mask.sum())
    if n < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} non-missing values, got {n}"
        )
    _, ranks, ties = np.unique(values.values[mask], return_inverse=True, return_counts=True)
    pairs = n * (n - 1) // 2
    tied = int((ties * (ties - 1) // 2).sum())
    if tied == pairs:
        return float("nan"), float("nan")
    # concordant minus discordant; the window index itself has no ties
    s = pairs - tied - 2 * _inversions(ranks)
    tau = min(1.0, max(-1.0, s / math.sqrt(pairs) / math.sqrt(pairs - tied)))
    tie_var = int((ties * (ties - 1.0) * (2 * ties + 5)).sum())
    var = (n * (n - 1.0) * (2 * n + 5) - tie_var) / 18
    return tau, math.erfc(abs(s / math.sqrt(var)) / math.sqrt(2.0))


def _mannwhitney_p(a, b):
    """Two-sided Mann-Whitney p-value of samples ``a`` and ``b``, by the
    rule of ``scipy.stats.mannwhitneyu(method="auto")``: exact when the
    smaller sample has at most 8 values and nothing ties, else the tie-
    and continuity-corrected normal approximation."""
    n1, n2 = len(a), len(b)
    _, groups, ties = np.unique(
        np.concatenate([a, b]), return_inverse=True, return_counts=True
    )
    # average 1-based rank of each tie group
    ranks = (np.cumsum(ties) - (ties - 1) / 2.0)[groups]
    u1 = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    small, large = sorted((n1, n2))
    if small <= 8 and ties.max() == 1:
        return min(1.0, 2.0 * _mwu_lower_tail(small, large, int(n1 * n2 - u)))
    n = n1 + n2
    tie_term = float((ties**3.0 - ties).sum())
    sd = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    if sd == 0.0:  # every value tied
        return 1.0
    return min(1.0, math.erfc((u - n1 * n2 / 2 - 0.5) / sd / math.sqrt(2.0)))


def _mwu_lower_tail(m, n, k):
    """P(U <= k) under the null for samples of sizes ``m <= n``.

    After step j, ``f[i, u]`` counts the orders of i values of the
    smaller sample among j of the larger that give U = u. Mann and
    Whitney's recursion f(i, j, u) = f(i - 1, j, u - j) + f(i, j - 1, u)
    updates it in place, i ascending, in O(m k) memory.
    """
    f = np.zeros((m + 1, k + 1))
    f[:, 0] = 1.0
    for j in range(1, min(n, k) + 1):  # larger j cannot reach u <= k
        for i in range(1, m + 1):
            f[i, j:] += f[i - 1, : k + 1 - j]
    return f[m].sum() / math.comb(m + n, m)


def _trend_records(asset_id, signal, estimate, pre, normal, cfg):
    """One :class:`SegmentTrend` per segment whose EWS ``estimate(seg)``
    has a Kendall trend; segments shorter than ``window + 1``, with too
    few trend points or with a NaN tau (a constant signal) are dropped."""
    records = []
    for group, segments in (("pre", pre), ("normal", normal)):
        for k, seg in enumerate(segments):
            if len(seg) < cfg.ews_cfg.window + 1:
                continue
            ews = estimate(seg)
            try:
                tau, p = kendall_tau_trend(ews, cfg.min_trend_points)
            except InsufficientDataError:
                continue
            if not np.isfinite(tau):
                continue
            records.append(
                SegmentTrend(
                    asset_id=asset_id,
                    signal=signal,
                    group=group,
                    segment_index=k,
                    start_time=float(seg.times[0]),
                    end_time=float(seg.times[-1]),
                    n_windows=int(np.isfinite(ews.values).sum()),
                    tau=tau,
                    p_value=p,
                )
            )
    return records


def run_study(assets, cfg=None):
    """Detect, segment, and compare trends across a panel of assets.

    Per-signal pre and normal tau samples are pooled across assets and
    compared with a two-sided Mann-Whitney test; a signal with an empty
    group is flagged inconclusive rather than failing, and an asset too
    short to scan is skipped and recorded in ``TrendReport.skipped``.
    """
    if not assets:
        raise ValueError("need at least one asset")
    if cfg is None:
        cfg = StudyConfig()
    univariate = [s for s in cfg.signals if s != CROSS_COV]

    scanned, skipped = detect_panel(assets, cfg)
    all_events, records = [], []
    for asset, events in scanned:
        pre, normal = segment_windows(asset, events, cfg)
        for signal in univariate:
            estimate = partial(signal_estimator(signal), cfg=cfg.ews_cfg)
            records += _trend_records(asset.id, signal, estimate, pre, normal, cfg)
        all_events += events
    if CROSS_COV in cfg.signals:
        # the aligned panel is segmented by the union of every asset's events
        if len(assets) < 2:
            raise ValueError("cross_cov signal needs at least 2 assets")
        check_aligned(assets)
        ref = assets[0]
        merged = sorted(all_events, key=lambda e: (e.peak_index, e.trough_index))
        pre, normal = segment_windows(ref, merged, cfg)

        def panel_cross_cov(seg):
            lo = int(np.searchsorted(ref.times, seg.times[0]))
            panel = [s.slice(lo, lo + len(seg)) for s in assets]
            return cross_covariance(panel, cfg.ews_cfg)

        records += _trend_records("panel", CROSS_COV, panel_cross_cov, pre, normal, cfg)

    report_signals = {}
    for signal in cfg.signals:
        taus = {"pre": [], "normal": []}
        for rec in records:
            if rec.signal == signal:
                taus[rec.group].append(rec.tau)
        p_value, reason = float("nan"), None
        if taus["pre"] and taus["normal"]:
            p_value = _mannwhitney_p(taus["pre"], taus["normal"])
        elif taus["pre"]:
            reason = "no normal segments"
        elif taus["normal"]:
            reason = "no pre segments"
        else:
            reason = "no segments"
        report_signals[signal] = SignalTrend(
            signal=signal,
            taus_pre=taus["pre"],
            taus_normal=taus["normal"],
            p_value=p_value,
            inconclusive_reason=reason,
        )
    return TrendReport(
        signals=report_signals,
        segments=records,
        n_assets=len(assets),
        n_events=len(all_events),
        skipped=skipped,
    )
