"""Crash detection and the pre-crash versus normal-time trend protocol.

A crash is a drawdown of at least ``crash_threshold`` (default 20%) from
the running maximum over a ``lookback`` horizon; one decline spawns one
event, with new events suppressed until price recovers to within 5% of
the peak. For every event the ``pre_crash_window`` observations ending
at the peak form a pre-crash segment; stretches at least
``exclusion_margin`` observations away from every peak-to-trough
interval form the normal-time segments, each a ``(start, stop)`` index
range. Each configured early-warning signal (a univariate one: the panel
signal ``cross_cov`` is not) is estimated once over the panel, each asset
on one window grid anchored at its step 0; a segment takes the windows
wholly inside it, their monotone trend is summarised by Kendall's tau-b
against window index, and the pre and normal tau samples are compared
per signal with a two-sample Mann-Whitney test. The report counts, per
signal and group, the segments ranked and those dropped with fewer than
10 windows or a NaN tau (a constant signal).

Both statistics are computed here in numpy, to the rules of
``scipy.stats`` (which the tests use as their oracle), so the CLI never
imports scipy for them. Kendall's tau counts inversions by a bottom-up
merge in O(n log^2 n) (Knight 1966, JASA 61:436), for every segment of
every signal in one batched pass: segments are grouped by power-of-two
size class and ranked a block of padded rows at a time, with merge keys
offset per row and block pair. :func:`kendall_tau_trend` is that pass on
one series. It gives no p-value, as overlapping windows are
not independent draws. ``_mannwhitney_p``
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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, check_int, check_real
from .ews import (
    ANOMALOUS_DIM,
    LAG1_AUTOCORR,
    SKEWNESS,
    VOLATILITY,
    PriceSeries,
    WindowConfig,
    estimate_panel,
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

#: After an event, a new one waits until price is back within this of its peak.
_RECOVERY_FRACTION = 0.05

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


def _check_signal_list(signals):
    """Refuse an empty tuple of signal names, or one that names a signal
    twice: a repeated name would count each of its taus twice."""
    if not signals:
        raise ValueError("signals must name at least one signal")
    repeated = [s for s in dict.fromkeys(signals) if signals.count(s) > 1]
    if repeated:
        raise ValueError(f"signals repeats {', '.join(map(repr, repeated))}")


def _check_window(signals, cfg):
    """Refuse an unknown signal, or a window ``cfg`` that one cannot use,
    before any data is read: run each once on ``cfg.window + 1`` constant prices."""
    n = cfg.window + 1
    probe = PriceSeries(np.arange(n, dtype=float), np.zeros(n))
    with np.errstate(all="ignore"):
        for name in signals:
            signal_estimator(name)(probe, cfg)


@dataclass(frozen=True)
class StudyConfig:
    crash_threshold: float = 0.20
    lookback: int = 126
    pre_crash_window: int = 252
    exclusion_margin: int = 63
    signals: tuple = (VOLATILITY, SKEWNESS, LAG1_AUTOCORR, ANOMALOUS_DIM)
    ews_cfg: WindowConfig = field(default_factory=_default_ews_cfg)

    def __post_init__(self):
        check_real("(0, 1)", crash_threshold=self.crash_threshold)
        for key, lo in (("lookback", 1), ("exclusion_margin", 0),
                        ("pre_crash_window", self.ews_cfg.window)):
            object.__setattr__(self, key, check_int(key, getattr(self, key), lo))
        if isinstance(self.signals, str) or not all(isinstance(s, str) for s in self.signals):
            raise ValueError(f"signals must be a list of names, got {self.signals!r}")
        _check_window(self.signals, self.ews_cfg)
        _check_signal_list(self.signals)


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


@dataclass
class SignalTrend:
    signal: str
    taus_pre: list
    taus_normal: list
    p_value: float
    inconclusive_reason: str = None  # None when both groups have taus
    # per group: segments ranked, and dropped with too few windows or a NaN tau
    segment_counts: dict = field(default_factory=dict)

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
            "segments": self.segment_counts,
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
    regains the peak to within 5% (``_RECOVERY_FRACTION``, fixed); that
    step itself is not scanned.
    """
    reason = _too_short(series, cfg)
    if reason:
        raise ValueError(f"series {series.id!r} has {reason}")
    lp = series.log_prices
    times = series.times
    lookback = cfg.lookback
    thresh = cfg.crash_threshold - _BOUNDARY_EPS
    recovery_gap = np.log1p(-_RECOVERY_FRACTION)

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
    """Pre-crash and normal-time segments of one asset, as ``(start, stop)``
    ranges of observation indices.

    Pre segments hold the ``pre_crash_window`` observations ending at
    each event's peak, truncated at the previous event's trough plus the
    exclusion margin and dropped when shorter than the EWS window.
    Normal segments are the maximal runs at least ``exclusion_margin``
    observations away from every peak-to-trough interval, kept when they
    can hold at least one EWS window. A segment takes its windows from
    the asset's one grid, anchored at step 0: those wholly inside it.
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
            pre.append((start, stop))
        prev_trough = ev.trough_index

    keep = np.ones(n, dtype=bool)
    for ev in events:
        lo = max(0, ev.peak_index - cfg.exclusion_margin)
        hi = min(n, ev.trough_index + cfg.exclusion_margin + 1)
        keep[lo:hi] = False

    # each run of kept steps starts where keep rises and stops where it falls
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False)).tolist()
    normal = [(i, j) for i, j in zip(edges[::2], edges[1::2]) if j - i >= min_len]
    return pre, normal


# Leaf blocks of _LEAF ranks count their inversions pair by pair: cheaper
# than the first four merge passes, which cost a few numpy calls each.
_LEAF = 16
_ABOVE_DIAGONAL = np.triu(np.ones((_LEAF, _LEAF), dtype=bool), 1)

#: Fewest ranked windows that give a segment a trend.
_MIN_WINDOWS = 10


def _inversions(s):
    """Per row of ``s``, the pairs i < j with s[i] > s[j], for nonnegative
    integers in rows a power-of-two multiple of ``_LEAF`` long, in
    O(m log^2 m) for a row of m.

    Leaf blocks of ``_LEAF`` count their pairs at once. Each bottom-up
    merge pass then counts, for every value in the right half of a block
    pair, the larger values in the sorted left half (one ``searchsorted``
    over keys offset per pair), and sorts each pair into one block.
    """
    rows, size = s.shape
    span = int(s.max()) + 1
    width = _LEAF
    leaves = s.reshape(rows, -1, width)
    pairs = (leaves[..., :, None] > leaves[..., None, :]) & _ABOVE_DIAGONAL
    count = pairs.reshape(rows, -1).sum(axis=1)
    s = np.sort(leaves, axis=-1)
    while width < size:
        pairs = s.reshape(-1, 2, width)
        n_pairs = len(pairs)
        offset = (np.arange(n_pairs) * span)[:, None]
        at_most = np.searchsorted(
            (pairs[:, 0] + offset).ravel(), (pairs[:, 1] + offset).ravel(), side="right"
        ).reshape(n_pairs, width)
        # the right half of pair p has p + 1 full left halves at or before it
        larger = width * np.arange(1, n_pairs + 1)[:, None] - at_most
        count += larger.reshape(rows, -1).sum(axis=1)
        s = np.sort(pairs.reshape(n_pairs, 2 * width), axis=1)
        width *= 2
    return count


def _block_taus(x, m, size):
    """Kendall's tau-b against index of each run of ``m`` values of ``x``,
    runs end to end, of 2 to ``size`` values each; NaN for a run without
    an untied pair. ``size`` is a power-of-two multiple of ``_LEAF``."""
    row_of = np.repeat(np.arange(m.size), m)
    # stable, so that equal values stay in run order: one rank for each
    # distinct value, which orders every run, and one group for its ties in each
    order = np.argsort(x, kind="stable")
    xs, rs = x[order], row_of[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    new[1:] |= rs[1:] != rs[:-1]
    heads = np.flatnonzero(new)
    ties = np.diff(heads, append=x.size)
    tied = np.bincount(rs[heads], ties * (ties - 1) // 2, m.size).astype(np.int64)
    s = np.full((m.size, size), x.size)  # a run a row, padded above every rank
    s[row_of, np.arange(x.size) - np.repeat(np.cumsum(m) - m, m)] = ranks
    pairs = m * (m - 1) // 2
    # concordant minus discordant; the index itself has no ties
    disc = pairs - tied - 2 * _inversions(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.clip(disc / np.sqrt(pairs) / np.sqrt(pairs - tied), -1.0, 1.0)
    tau[tied == pairs] = np.nan
    return tau


#: Most padded values that one block of the batched Kendall pass ranks.
_KENDALL_BLOCK = 1 << 14


def _kendall_taus(values, lo, hi):
    """Kendall's tau-b against window index of each slice
    ``values[lo[i]:hi[i]]``, missing values skipped, and the number of
    values ranked in each, as two arrays. A slice without an untied pair
    (a constant one, or one of fewer than two values) has a NaN tau.

    Slices are ranked by size class, the least power-of-two multiple of
    ``_LEAF`` that holds their values, in blocks of up to
    ``_KENDALL_BLOCK`` padded values: one sort ranks a block and counts
    each slice's ties, and one :func:`_inversions` call counts the
    discordant pairs of all its slices.
    """
    finite = np.isfinite(values)
    seen = np.concatenate([[0], np.cumsum(finite)])
    n = seen[hi] - seen[lo]
    size = np.full(n.size, _LEAF)
    while (grow := size < n).any():
        size[grow] *= 2
    tau = np.full(n.size, np.nan)
    for cls in sorted(set(size[n > 1].tolist())):
        in_class = np.flatnonzero((size == cls) & (n > 1))
        step = max(1, _KENDALL_BLOCK // cls)
        for k in range(0, in_class.size, step):
            rows = in_class[k : k + step]
            lens = hi[rows] - lo[rows]
            at = np.arange(lens.sum()) + np.repeat(lo[rows] - (np.cumsum(lens) - lens), lens)
            tau[rows] = _block_taus(values[at[finite[at]]], n[rows], cls)
    return tau, n


def kendall_tau_trend(values, min_points=_MIN_WINDOWS):
    """Kendall's tau-b of an EWS series against window index.

    Missing windows are skipped. Returns ``(tau, n)``, ``n`` the number
    of windows ranked; fewer than ``min_points`` of them raise
    :class:`InsufficientDataError`, and a constant series gives
    ``(nan, n)``. This is the study's batched pass on a batch of one.
    """
    tau, n = _kendall_taus(values.values, np.array([0]), np.array([len(values)]))
    if n[0] < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} non-missing values, got {n[0]}"
        )
    return float(tau[0]), int(n[0])


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


def _trend_records(segmented, cfg):
    """The :class:`SegmentTrend` records of the segments of each
    ``(asset, (pre, normal))`` of ``segmented``, asset by asset and signal
    by signal, and per signal and group the segments ranked, dropped with
    fewer than 10 windows and dropped with a NaN tau (a constant signal).

    Each signal is estimated once over the panel of segmented assets, on
    each asset's one window grid; a segment ``(start, stop)`` ranks the
    windows that open at or after ``start`` and close before ``stop``, and
    one batched Kendall pass ranks the segments of every signal.
    """
    segmented = [(asset, parts) for asset, parts in segmented if parts[0] or parts[1]]
    panel = [asset for asset, _ in segmented]
    rows = [(a, group, k, start, stop)
            for a, (_, parts) in enumerate(segmented)
            for group, part in zip(("pre", "normal"), parts)
            for k, (start, stop) in enumerate(part)]
    stride = cfg.ews_cfg.stride
    values, lo, hi, base = [], [], [], 0
    for signal in cfg.signals if rows else ():  # no segments, no estimate
        vals, n_windows, span = estimate_panel(signal, panel, cfg.ews_cfg)
        first = (base + np.cumsum(n_windows) - n_windows).tolist()  # each asset's first
        for a, _, _, start, stop in rows:
            opens = -(-start // stride)
            lo.append(first[a] + opens)
            hi.append(first[a] + max(opens, (stop - span) // stride + 1))
        values.append(vals)
        base += vals.size
    values = np.concatenate(values) if values else np.empty(0)
    shape = (len(cfg.signals), len(rows))
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    tau, n = (a.reshape(shape) for a in _kendall_taus(values, lo, hi))
    few = n < _MIN_WINDOWS
    nan = ~few & np.isnan(tau)
    outcome = {"ranked": ~few & ~nan, "too_few_windows": few, "nan_tau": nan}
    pre = np.array([group == "pre" for _, group, *_ in rows], dtype=bool)
    counts = {
        signal: {group: {key: int(hit[i, in_group].sum()) for key, hit in outcome.items()}
                 for group, in_group in (("pre", pre), ("normal", ~pre))}
        for i, signal in enumerate(cfg.signals)
    }
    # records asset by asset, then signal by signal, each in row order
    kept_signal, kept_row = np.nonzero(outcome["ranked"])
    asset_of = np.array([a for a, *_ in rows], dtype=np.int64)
    order = np.lexsort((kept_row, kept_signal, asset_of[kept_row]))
    records = []
    for i, r in zip(kept_signal[order].tolist(), kept_row[order].tolist()):
        a, group, k, start, stop = rows[r]
        ends = panel[a].times[[start, stop - 1]].tolist()
        records.append(SegmentTrend(panel[a].id, cfg.signals[i], group, k, *ends,
                                    int(n[i, r]), float(tau[i, r])))
    return records, counts


def run_study(assets, cfg=None):
    """Detect, segment, and compare trends across a panel of assets.

    Each asset is segmented by its own events, and per-signal pre and
    normal tau samples of its segments are pooled across assets and
    compared with a two-sided Mann-Whitney test; a signal with an empty
    group is flagged inconclusive rather than failing, and an asset too
    short to scan is skipped and recorded in ``TrendReport.skipped``.
    """
    if not assets:
        raise ValueError("need at least one asset")
    if cfg is None:
        cfg = StudyConfig()

    scanned, skipped = detect_panel(assets, cfg)
    segmented = [(asset, segment_windows(asset, events, cfg)) for asset, events in scanned]
    records, counts = _trend_records(segmented, cfg)
    n_events = sum(len(events) for _, events in scanned)

    report_signals = {}
    for signal in cfg.signals:
        taus = {"pre": [], "normal": []}
        for rec in records:
            if rec.signal == signal:
                taus[rec.group].append(rec.tau)
        p_value, reason = float("nan"), "no segments"
        if taus["pre"] and taus["normal"]:
            p_value, reason = _mannwhitney_p(taus["pre"], taus["normal"]), None
        elif taus["pre"] or taus["normal"]:
            reason = f"no {'normal' if taus['pre'] else 'pre'} segments"
        report_signals[signal] = SignalTrend(
            signal=signal,
            taus_pre=taus["pre"],
            taus_normal=taus["normal"],
            p_value=p_value,
            inconclusive_reason=reason,
            segment_counts=counts[signal],
        )
    return TrendReport(
        signals=report_signals,
        segments=records,
        n_assets=len(assets),
        n_events=n_events,
        skipped=skipped,
    )
