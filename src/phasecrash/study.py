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

Everything here is deterministic: no randomness enters detection,
segmentation, or aggregation, and per-asset work reduces in input order.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.stats import kendalltau, mannwhitneyu

from .errors import InsufficientDataError
from .ews import (
    ANOMALOUS_DIM,
    CONFORMALITY,
    CROSS_COV,
    LAG1_AUTOCORR,
    SKEWNESS,
    VOLATILITY,
    WindowConfig,
    anomalous_dimension,
    check_aligned,
    conformality_index,
    cross_covariance,
    generalized_hurst,
    rolling_lag1_autocorr,
    rolling_skewness,
    rolling_volatility,
)

__all__ = [
    "CrashEvent",
    "StudyConfig",
    "SignalTrend",
    "SegmentTrend",
    "TrendReport",
    "detect_crashes",
    "segment_windows",
    "kendall_tau_trend",
    "run_study",
]

# Relative guard so a drop of exactly the threshold counts despite the
# log/exp round trip in the drawdown computation.
_BOUNDARY_EPS = 1e-12


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
        return {
            "asset_id": self.asset_id,
            "peak_time": self.peak_time,
            "trough_time": self.trough_time,
            "peak_log_price": self.peak_log_price,
            "trough_log_price": self.trough_log_price,
            "drawdown": self.drawdown,
            "peak_index": self.peak_index,
            "trough_index": self.trough_index,
        }


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
        if self.exclusion_margin < 0:
            raise ValueError("exclusion_margin must be nonnegative")
        if self.pre_crash_window < self.ews_cfg.window:
            raise ValueError("pre_crash_window must be >= ews_cfg.window")
        if not 0.0 < self.recovery_fraction < 1.0:
            raise ValueError("recovery_fraction must lie in (0, 1)")


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
    inconclusive: bool

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
        }


@dataclass
class TrendReport:
    signals: dict
    segments: list
    n_assets: int
    n_events: int

    def to_dict(self):
        return {
            "n_assets": self.n_assets,
            "n_events": self.n_events,
            "signals": {name: st.to_dict() for name, st in self.signals.items()},
        }


def detect_crashes(series, cfg):
    """Drawdown episodes of at least ``cfg.crash_threshold`` from the
    rolling peak; returns one event per episode."""
    n = len(series)
    if n <= cfg.lookback:
        raise ValueError(
            f"series {series.id!r} has {n} observations, needs more than "
            f"lookback = {cfg.lookback}"
        )
    lp = series.log_prices
    times = series.times
    thresh = cfg.crash_threshold - _BOUNDARY_EPS
    recovery_gap = np.log1p(-cfg.recovery_fraction)

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


def kendall_tau_trend(values, min_points=10):
    """Kendall's tau-b of an EWS series against window index.

    Missing windows are skipped. Returns ``(tau, p_value)`` with the
    normal-approximation p-value; fewer than ``min_points`` usable
    windows raise :class:`InsufficientDataError`.
    """
    mask = np.isfinite(values.values)
    if mask.sum() < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} non-missing values, got {int(mask.sum())}"
        )
    idx = np.flatnonzero(mask).astype(float)
    tau, p = kendalltau(idx, values.values[mask], variant="b", method="asymptotic")
    return float(tau), float(p)


def _estimator(signal):
    table = {
        VOLATILITY: rolling_volatility,
        SKEWNESS: rolling_skewness,
        LAG1_AUTOCORR: rolling_lag1_autocorr,
        ANOMALOUS_DIM: anomalous_dimension,
        CONFORMALITY: conformality_index,
    }
    if signal in table:
        return table[signal]
    if signal.startswith("ghe"):
        order = int(signal[3:])

        def ghe_one(series, cfg):
            return generalized_hurst(series, replace(cfg, orders=(order,)))[0]

        return ghe_one
    raise ValueError(f"unknown signal {signal!r}")


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
    group is flagged inconclusive rather than failing.
    """
    if not assets:
        raise ValueError("need at least one asset")
    if cfg is None:
        cfg = StudyConfig()
    univariate = [s for s in cfg.signals if s != CROSS_COV]

    all_events, records = [], []
    for asset in assets:
        events = detect_crashes(asset, cfg)
        pre, normal = segment_windows(asset, events, cfg)
        for signal in univariate:
            estimate = partial(_estimator(signal), cfg=cfg.ews_cfg)
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
        if taus["pre"] and taus["normal"]:
            stat = mannwhitneyu(taus["pre"], taus["normal"], alternative="two-sided")
            p_value, inconclusive = float(stat.pvalue), False
        else:
            p_value, inconclusive = float("nan"), True
        report_signals[signal] = SignalTrend(
            signal=signal,
            taus_pre=taus["pre"],
            taus_normal=taus["normal"],
            p_value=p_value,
            inconclusive=inconclusive,
        )
    return TrendReport(
        signals=report_signals,
        segments=records,
        n_assets=len(assets),
        n_events=len(all_events),
    )
