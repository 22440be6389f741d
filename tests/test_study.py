import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import phasecrash as pc
from phasecrash.errors import InsufficientDataError
from phasecrash import study
from phasecrash.io import CorpusSpec, derive_seed, study_config_from_dict, synth_corpus
from phasecrash.study import SegmentTrend, _mannwhitney_p, _trend_records

import study_reference
from conftest import readme_json_blocks


def _prices(levels, asset_id="x"):
    lp = np.log(np.asarray(levels, dtype=float))
    return pc.PriceSeries(np.arange(lp.size, dtype=float), lp, asset_id)


def _cfg(**kw):
    # one lag is legal only for the moment signals
    base = dict(
        crash_threshold=0.20,
        lookback=10,
        pre_crash_window=20,
        exclusion_margin=5,
        signals=("volatility", "skewness", "lag1_autocorr"),
        ews_cfg=pc.WindowConfig(window=10, stride=1, tau_grid=(2,)),
    )
    base.update(kw)
    return pc.StudyConfig(**base)


# ------------------------------------------------------------ kendall tau


def test_kendall_strictly_increasing():
    e = pc.EwsSeries(np.arange(12.0), np.arange(12.0), "volatility")
    tau, n = pc.kendall_tau_trend(e)
    assert tau == pytest.approx(1.0, abs=1e-12)
    assert n == 12


def test_kendall_strictly_decreasing():
    e = pc.EwsSeries(np.arange(12.0), -np.arange(12.0), "volatility")
    tau, _ = pc.kendall_tau_trend(e)
    assert tau == pytest.approx(-1.0, abs=1e-12)


def test_kendall_tie_oracle():
    # {1,2,2,3}: 5 concordant pairs, one y-tie -> tau-b = 5/sqrt(30)
    e = pc.EwsSeries(np.arange(4.0), np.array([1.0, 2.0, 2.0, 3.0]), "volatility")
    tau, n = pc.kendall_tau_trend(e, min_points=4)
    assert tau == pytest.approx(5.0 / math.sqrt(30.0), abs=1e-12)
    assert n == 4


def test_kendall_monotone_transform_invariance():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(40)
    base = pc.kendall_tau_trend(pc.EwsSeries(np.arange(40.0), vals, "s"))
    for f in (np.exp, lambda v: v**3, lambda v: 5 * v - 2):
        got = pc.kendall_tau_trend(pc.EwsSeries(np.arange(40.0), f(vals), "s"))
        assert got[0] == pytest.approx(base[0], abs=1e-12)


def test_kendall_skips_missing_and_requires_points():
    vals = np.arange(15.0)
    vals[3] = np.nan
    e = pc.EwsSeries(np.arange(15.0), vals, "s")
    tau, _ = pc.kendall_tau_trend(e)
    assert tau == pytest.approx(1.0, abs=1e-12)
    short = pc.EwsSeries(np.arange(9.0), np.arange(9.0), "s")
    with pytest.raises(InsufficientDataError):
        pc.kendall_tau_trend(short)


def _walk(n, seed=21, asset_id="x"):
    rng = np.random.default_rng(seed)
    return _prices(np.exp(np.cumsum(0.01 * rng.standard_normal(n))), asset_id)


def _records(asset, signal, cfg, pre, normal):
    records, _ = _trend_records([(asset, (pre, normal))], replace(cfg, signals=(signal,)))
    return records


def test_trend_records_need_ten_trend_points():
    # the study keeps a segment only with kendall_tau_trend's default of 10:
    # at window 10 and stride 1 a segment of 10 + k prices holds k windows
    segments = [(0, 19), (20, 40)]
    records = _records(_walk(60), "volatility", _cfg(), segments, segments)
    assert [(r.group, r.segment_index, r.n_windows) for r in records] == [
        ("pre", 1, 10), ("normal", 1, 10)]


@pytest.mark.parametrize("signal", ["volatility", "anomalous_dim"])
def test_trend_records_drop_a_segment_exactly_one_window_long(signal):
    # volatility needs window + 1 prices, anomalous_dim gets one window: the
    # segment holds too few windows for kendall_tau_trend, with no length check here
    cfg = _cfg(pre_crash_window=40, signals=(signal,),
               ews_cfg=pc.WindowConfig(window=40, stride=1, tau_grid=(2, 4, 8)))
    segments = [(0, 40), (40, 100)]
    records = _records(_walk(120), signal, cfg, segments, segments)
    assert [(r.group, r.segment_index) for r in records] == [("pre", 1), ("normal", 1)]


def test_trend_records_let_other_value_errors_through(monkeypatch):
    def estimate(name, panel, cfg):
        raise ValueError("not a data shortage")

    monkeypatch.setattr(study, "estimate_panel", estimate)
    with pytest.raises(ValueError, match="not a data shortage"):
        _records(_walk(30), "volatility", _cfg(), [(0, 30)], [])


def test_trend_records_of_an_asset_shorter_than_one_window_are_empty():
    records, counts = _trend_records([(_walk(10), ([(0, 10)], [(0, 10)]))], _cfg())
    assert records == []
    few = {"ranked": 0, "too_few_windows": 1, "nan_tau": 0}
    assert counts == {s: {"pre": few, "normal": few} for s in _cfg().signals}


def _scipy_kendall(vals):
    keep = np.isfinite(vals)
    return float(stats.kendalltau(np.flatnonzero(keep).astype(float), vals[keep],
                                  variant="b").statistic)


@pytest.mark.parametrize("n", [10, 16, 17, 33, 64, 657, 2000])
@pytest.mark.parametrize("kind", ["distinct", "ties", "missing"])
def test_kendall_matches_scipy_oracle(n, kind):
    rng = np.random.default_rng(derive_seed(905, n))
    for _ in range(5):
        vals = rng.standard_normal(n) + rng.uniform(-0.02, 0.02) * np.arange(n)
        if kind == "ties":
            vals = np.round(vals * rng.integers(1, 4))
        elif kind == "missing":
            vals[rng.choice(n, n // 5, replace=False)] = np.nan
        tau, ranked = pc.kendall_tau_trend(pc.EwsSeries(np.arange(float(n)), vals, "s"),
                                           min_points=n // 2)
        assert abs(tau - _scipy_kendall(vals)) <= 1e-15
        assert ranked == int(np.isfinite(vals).sum())


def test_kendall_constant_series_is_nan_like_scipy():
    vals = np.full(40, 0.3)
    vals[[4, 9]] = np.nan
    tau, n = pc.kendall_tau_trend(pc.EwsSeries(np.arange(40.0), vals, "s"))
    assert math.isnan(tau) and n == 38
    assert math.isnan(_scipy_kendall(vals))


def _kendall_slices():
    """Values with slices of 0 to 300 values end to end, distinct, tied,
    partly missing and constant, then 30 slices that overlap them."""
    rng = np.random.default_rng(derive_seed(907, 0))
    parts = []
    for n in (0, 1, 2, 9, 10, 15, 16, 17, 31, 32, 33, 64, 65, 300):
        for kind in ("distinct", "ties", "missing", "constant"):
            v = rng.standard_normal(n) + rng.uniform(-0.05, 0.05) * np.arange(n)
            if kind == "ties":
                v = np.round(v * 2.0)
            elif kind == "missing":
                v[rng.random(n) < 0.25] = np.nan
            elif kind == "constant":
                v = np.where(rng.random(n) < 0.1, np.nan, 0.25)
            parts.append(v)
    values = np.concatenate(parts)
    hi = np.cumsum([p.size for p in parts])
    lo = hi - [p.size for p in parts]
    extra = rng.integers(0, values.size - 80, 30)
    extra_hi = extra + rng.integers(0, 80, 30)
    return values, np.concatenate([lo, extra]), np.concatenate([hi, extra_hi])


@pytest.mark.parametrize("block", [16, 100, study._KENDALL_BLOCK])
def test_batched_kendall_matches_each_slice_alone_bit_for_bit(monkeypatch, block):
    # blocks of one slice a block (16), of a few, and of every slice of a size class
    values, lo, hi = _kendall_slices()
    monkeypatch.setattr(study, "_KENDALL_BLOCK", block)
    tau, n = study._kendall_taus(values, lo, hi)
    assert tau.shape == n.shape == lo.shape
    for t, m, a, b in zip(tau.tolist(), n.tolist(), lo.tolist(), hi.tolist()):
        alone, ranked = pc.kendall_tau_trend(pc.EwsSeries(np.arange(b - a), values[a:b], "s"),
                                             min_points=0)
        assert m == ranked == int(np.isfinite(values[a:b]).sum())
        assert t == alone or (math.isnan(t) and math.isnan(alone))
        if m >= 2:
            want = _scipy_kendall(values[a:b])
            assert (math.isnan(t) and math.isnan(want)) or abs(t - want) <= 1e-15


@pytest.mark.parametrize("size", [16, 32, 64, 512])
def test_inversions_count_every_pair_of_each_row(size):
    rng = np.random.default_rng(derive_seed(907, size))
    ranks = rng.integers(0, 40, (5, size))
    ranks[0] = np.sort(ranks[0])[::-1]  # every untied pair inverted
    ranks[1] = 7  # none
    got = study._inversions(ranks)
    assert got.tolist() == [int(np.triu(r[:, None] > r[None, :], 1).sum()) for r in ranks]


def test_batched_kendall_of_no_slices_is_empty():
    tau, n = study._kendall_taus(np.empty(0), np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64))
    assert tau.size == n.size == 0


# ----------------------------------------------------------- mann-whitney


def _mwu_cases(seed, sizes, ties):
    rng = np.random.default_rng(seed)
    for n1, n2 in sizes:
        a = rng.standard_normal(n1) + rng.uniform(0.0, 1.5)
        b = rng.standard_normal(n2)
        if ties:
            a, b = np.round(a), np.round(b)
        yield a, b


@pytest.mark.parametrize(
    "branch, sizes, ties",
    [
        # exact: the smaller sample has at most 8 values and nothing ties
        ("exact", [(n1, n2) for n1 in (1, 2, 5, 8) for n2 in (1, 3, 8, 9, 40)], False),
        ("exact", [(n1, n2) for n1 in (9, 30, 200) for n2 in (4, 8)], False),
        # normal approximation: both samples larger than 8, or ties
        ("asymptotic", [(n1, n2) for n1 in (9, 20, 60) for n2 in (9, 37)], False),
        ("asymptotic", [(n1, n2) for n1 in (2, 8, 30) for n2 in (3, 25)], True),
    ],
)
def test_mannwhitney_matches_scipy_oracle(branch, sizes, ties):
    for a, b in _mwu_cases(derive_seed(906, len(sizes), ties), sizes, ties):
        has_ties = np.unique(np.concatenate([a, b])).size < a.size + b.size
        assert (min(a.size, b.size) <= 8 and not has_ties) == (branch == "exact")
        want = stats.mannwhitneyu(a, b, alternative="two-sided").pvalue
        assert _mannwhitney_p(a, b) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n1, n2", [(1, 1), (3, 5), (12, 30)])
def test_mannwhitney_all_tied_is_one_like_scipy(n1, n2):
    a, b = np.full(n1, 0.25), np.full(n2, 0.25)
    assert _mannwhitney_p(a, b) == 1.0
    assert stats.mannwhitneyu(a, b, alternative="two-sided").pvalue == 1.0


# -------------------------------------------------------- crash detection


def test_detect_monotone_decline_single_event():
    series = _prices([100, 97, 95, 92, 90, 88, 85, 83, 81, 79, 79, 79])
    events = pc.detect_crashes(series, _cfg())
    assert len(events) == 1
    ev = events[0]
    assert ev.drawdown >= 0.20
    assert ev.drawdown == pytest.approx(0.21, abs=1e-12)
    assert ev.peak_index == 0
    assert series.log_prices[ev.trough_index] == math.log(79.0)


def test_detect_strictly_increasing_no_events():
    series = _prices(np.linspace(100, 200, 40))
    assert pc.detect_crashes(series, _cfg()) == []


def test_detect_exact_boundary_and_just_below():
    flat = [100.0] * 11
    assert len(pc.detect_crashes(_prices(flat + [80.0] * 4), _cfg())) == 1
    assert len(pc.detect_crashes(_prices(flat + [80.1] * 4), _cfg())) == 0


def test_detect_scale_invariance():
    rng = np.random.default_rng(derive_seed(640, 0))
    lp = np.concatenate([[0.0], np.cumsum(rng.standard_normal(400) * 0.05)])
    a = pc.PriceSeries(np.arange(lp.size, dtype=float), lp, "a")
    b = pc.PriceSeries(np.arange(lp.size, dtype=float), lp + math.log(2.5), "b")
    cfg = _cfg(lookback=50)
    ev_a = pc.detect_crashes(a, cfg)
    ev_b = pc.detect_crashes(b, cfg)
    assert len(ev_a) == len(ev_b) > 0
    for x, y in zip(ev_a, ev_b):
        assert (x.peak_index, x.trough_index) == (y.peak_index, y.trough_index)
        assert x.drawdown == pytest.approx(y.drawdown, abs=1e-9)


def test_detect_deduplicates_until_recovery():
    # one long slide must yield one event; a second slide after recovery
    # to within 5% of the peak yields another
    levels = (
        [100] * 10
        + [79, 70, 65, 60]          # crash 1, keeps falling
        + [80, 90, 96]              # recovery through 95% of peak
        + [100] * 10
        + [75]                      # crash 2
        + [75] * 3
    )
    events = pc.detect_crashes(_prices(levels), _cfg())
    assert len(events) == 2
    assert events[0].trough_index == 10
    assert events[1].trough_index == len(levels) - 4


def test_detect_slow_decline_outside_lookback():
    # 30% total fall spread so thin that no lookback window sees 20%
    n = 400
    lp = np.log(100.0) + np.linspace(0.0, math.log(0.7), n)
    series = pc.PriceSeries(np.arange(float(n)), lp, "slow")
    assert pc.detect_crashes(series, _cfg(lookback=10)) == []


def test_detect_requires_more_than_lookback():
    with pytest.raises(ValueError):
        pc.detect_crashes(_prices([100] * 5), _cfg(lookback=10))


def _readme_corpus():
    spec = CorpusSpec.from_dict(json.loads(readme_json_blocks()["spec.json"]))
    return synth_corpus(spec, 7)


def _same_events(series, cfg):
    got = pc.detect_crashes(series, cfg)
    want = study_reference.detect_crashes(series, cfg)
    assert [ev.to_dict() for ev in got] == [ev.to_dict() for ev in want]
    assert got == want
    return got


def test_detect_matches_reference_on_readme_corpus():
    corpus = _readme_corpus()
    events = [ev for s in corpus for ev in _same_events(s, pc.StudyConfig())]
    assert len(events) >= 20


@pytest.mark.parametrize(
    "levels, lookback, n_events",
    [
        ([100.0] * 11 + [80.0] * 4, 10, 1),  # a drop of exactly the threshold
        ([100.0] * 11 + [80.1] * 4, 10, 0),  # just short of it
        # recovery on the step after the breach, then a second breach
        ([100.0] * 11 + [79.0, 96.0, 100.0, 79.0, 70.0], 10, 2),
        ([100.0] * 10 + [79.0], 10, 1),  # n = lookback + 1
        ([100.0] * 10 + [81.0], 10, 0),
        ([90.0, 100.0, 100.0, 85.0, 79.0, 80.0], 5, 1),  # tied peaks: the earliest
    ],
)
def test_detect_matches_reference_edges(levels, lookback, n_events):
    assert len(_same_events(_prices(levels), _cfg(lookback=lookback))) == n_events


def test_detect_matches_reference_random_walks():
    rng = np.random.default_rng(derive_seed(907, 0))
    n_events = 0
    for k in range(200):
        n = int(rng.integers(12, 600))
        lookback = int(rng.integers(1, n))
        lp = np.cumsum(rng.standard_normal(n) * rng.uniform(0.01, 0.2))
        if k % 5 == 0:
            lp = np.round(lp, 1)  # tied peaks
        series = pc.PriceSeries(np.arange(float(n)), lp, f"W{k}")
        n_events += len(_same_events(series, _cfg(lookback=lookback)))
    assert n_events > 200


# ------------------------------------------------------------ segmentation


def _event(series, peak_idx, trough_idx):
    return pc.CrashEvent(
        asset_id=series.id,
        peak_time=float(series.times[peak_idx]),
        trough_time=float(series.times[trough_idx]),
        peak_log_price=float(series.log_prices[peak_idx]),
        trough_log_price=float(series.log_prices[trough_idx]),
        drawdown=0.25,
        peak_index=peak_idx,
        trough_index=trough_idx,
    )


@pytest.mark.parametrize("trough_idx", [50, 49])
def test_crash_event_refuses_a_trough_not_after_its_peak(trough_idx):
    series = _prices(np.linspace(100, 120, 60))
    with pytest.raises(ValueError) as err:
        _event(series, 50, trough_idx)
    assert str(err.value) == "peak_time must precede trough_time"


def test_segment_no_events():
    series = _prices(np.linspace(100, 120, 60))
    pre, normal = pc.segment_windows(series, [], _cfg())
    assert pre == []
    assert normal == [(0, 60)]


def test_segment_single_event():
    series = _prices(np.linspace(100, 120, 100))
    cfg = _cfg()
    ev = _event(series, 50, 55)
    pre, normal = pc.segment_windows(series, [ev], cfg)
    # the pre segment ends exactly at the peak and holds pre_crash_window steps
    assert pre == [(50 - cfg.pre_crash_window + 1, 51)]
    # the normal runs stop short of peak - margin and start after trough + margin
    assert normal == [(0, 50 - cfg.exclusion_margin), (55 + cfg.exclusion_margin + 1, 100)]


def test_segment_two_close_events_truncation():
    # second pre-window is cut at trough1 + margin; expected indices by
    # direct interval arithmetic
    series = _prices(np.linspace(100, 120, 100))
    cfg = _cfg(pre_crash_window=30, exclusion_margin=5)
    e1 = _event(series, 40, 45)
    e2 = _event(series, 70, 75)
    pre, _ = pc.segment_windows(series, [e1, e2], cfg)
    assert pre == [(11, 41), (45 + 5, 71)]
    # squeeze harder: remaining stretch shorter than the EWS window drops it
    cfg2 = _cfg(pre_crash_window=30, exclusion_margin=18)
    pre2, _ = pc.segment_windows(series, [e1, e2], cfg2)
    assert pre2 == [(11, 41)]


def test_segment_exclusion_invariant_random_events():
    rng = np.random.default_rng(10)
    series = _prices(np.exp(rng.standard_normal(500) * 0.01).cumprod() * 100)
    cfg = _cfg(pre_crash_window=40, exclusion_margin=12)
    idx = np.sort(rng.choice(np.arange(30, 470, dtype=int), size=4, replace=False))
    events = [_event(series, int(i), int(i) + 8) for i in idx]
    pre, normal = pc.segment_windows(series, events, cfg)
    assert pre
    for start, stop in pre:
        assert any(stop - 1 == e.peak_index for e in events)
    for start, stop in normal:
        for e in events:
            lo = max(0, e.peak_index - cfg.exclusion_margin)
            hi = min(len(series) - 1, e.trough_index + cfg.exclusion_margin)
            assert stop - 1 < lo or start > hi


def _assert_normal_matches_reference(series, events, cfg):
    _, normal = pc.segment_windows(series, events, cfg)
    assert normal == study_reference.normal_segments(series, events, cfg)


@pytest.mark.parametrize(
    "spans",
    [
        [],  # all kept: one run over the whole series
        [(5, 94)],  # none kept: the margins cover both ends
        [(50, 55)],  # one run touching each end
        [(14, 80)],  # the first run is window - 1 steps long: dropped
        [(15, 80)],  # ... exactly window steps: kept
        [(16, 80)],
        [(30, 40), (61, 70)],  # a middle run of exactly window steps
        [(30, 40), (35, 60)],  # overlapping exclusion zones
    ],
)
def test_segment_normal_matches_reference_edges(spans):
    series = _prices(np.linspace(100, 120, 100))
    events = [_event(series, p, t) for p, t in spans]
    _assert_normal_matches_reference(series, events, _cfg())


def test_segment_normal_matches_reference_random_events():
    rng = np.random.default_rng(23)
    series = _prices(np.linspace(100, 120, 200))
    for _ in range(300):
        peaks = rng.integers(0, 199, size=rng.integers(0, 7))
        events = [_event(series, int(p), int(min(199, p + rng.integers(1, 20))))
                  for p in peaks]
        cfg = _cfg(exclusion_margin=int(rng.integers(0, 15)))
        _assert_normal_matches_reference(series, events, cfg)


# --------------------------------------------------------------- run_study


def _mini_corpus(seed=17):
    spec = {
        "groups": [
            {
                "kind": "dpt_hurst",
                "count": 6,
                "n": 1260,
                "params": {"onset": 0.6, "scale": 0.0015, "h_end": 0.9},
                "forced_drop": 0.25,
                "drop_len": 20,
                "id_prefix": "H",
            },
            {
                "kind": "bm",
                "count": 6,
                "n": 1280,
                "params": {"sigma": 0.001},
                "id_prefix": "B",
            },
        ]
    }
    return synth_corpus(spec, seed)


def _mini_cfg(signals=("volatility", "anomalous_dim")):
    return pc.StudyConfig(
        lookback=126,
        pre_crash_window=504,
        exclusion_margin=504,
        signals=signals,
        ews_cfg=pc.WindowConfig(window=126, stride=10, tau_grid=(2, 4, 8, 16), orders=(1,)),
    )


def test_run_study_discriminates_scaling_trend():
    report = pc.run_study(_mini_corpus(), _mini_cfg())
    st = report.signals["anomalous_dim"]
    assert st.mean_tau_pre > st.mean_tau_normal
    assert st.p_value < 0.05
    assert not st.inconclusive
    assert report.n_events == 6


def test_run_study_deterministic_and_thread_invariant():
    corpus = _mini_corpus()
    cfg = _mini_cfg()
    a = pc.run_study(corpus, cfg)
    b = pc.run_study(corpus, cfg)
    c = pc.run_study(corpus, cfg)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    assert [vars(s) for s in a.segments] == [vars(s) for s in c.segments]


def test_run_study_no_events_inconclusive():
    spec = {"groups": [{"kind": "bm", "count": 4, "n": 1280, "params": {"sigma": 0.001}}]}
    corpus = synth_corpus(spec, 3)
    report = pc.run_study(corpus, _mini_cfg())
    assert report.n_events == 0
    for st in report.signals.values():
        assert st.inconclusive
        assert st.n_pre == 0
        assert math.isnan(st.p_value)


def test_run_study_handles_insufficient_segments():
    # series shorter than window+1 segments are skipped, not fatal
    series = _prices(np.linspace(100, 130, 140))
    cfg = _mini_cfg()
    report = pc.run_study([series], cfg)
    assert report.signals["anomalous_dim"].inconclusive


def test_run_study_skips_nan_tau_of_flat_asset():
    # a flat asset has a constant volatility series, whose Kendall tau is NaN
    flat = pc.PriceSeries(np.arange(1280.0), np.zeros(1280), "FLAT")
    report = pc.run_study(_mini_corpus() + [flat], _mini_cfg(signals=("volatility",)))
    st = report.signals["volatility"]
    assert np.all(np.isfinite(st.taus_pre + st.taus_normal))
    assert all(rec.asset_id != "FLAT" for rec in report.segments)
    assert np.isfinite(st.p_value) and not st.inconclusive


def test_run_study_nan_taus_leave_group_empty_and_inconclusive():
    rise = 100.0 * np.exp(np.cumsum(0.01 + 0.005 * np.sin(np.arange(31.0))))
    crash = _prices(np.concatenate([rise, rise[-1] * 0.93 ** np.arange(1, 6)]), "C")
    flat = _prices(np.full(36, 100.0), "FLAT")
    # the margin leaves the crash asset no normal segment, so the flat
    # asset's NaN tau would be the only normal-time sample
    report = pc.run_study([crash, flat], _cfg(exclusion_margin=40, signals=("volatility",)))
    st = report.signals["volatility"]
    assert st.n_pre == 1 and st.n_normal == 0
    assert st.inconclusive and math.isnan(st.p_value)


def test_segment_trend_record_fields():
    report = pc.run_study(_mini_corpus(), _mini_cfg())
    assert report.segments
    rec = report.segments[0]
    assert isinstance(rec, SegmentTrend)
    assert rec.group in ("pre", "normal")
    assert -1.0 <= rec.tau <= 1.0
    assert rec.n_windows >= 10


def test_run_study_records_short_ticker_as_skip():
    corpus = _mini_corpus()
    short = _prices(np.linspace(100, 90, 126), "SHORT")  # lookback is 126
    full = pc.run_study(corpus, _mini_cfg())
    report = pc.run_study(corpus[:3] + [short] + corpus[3:], _mini_cfg())
    assert report.n_assets == len(corpus) + 1
    assert report.skipped == [
        {"asset_id": "SHORT", "reason": "126 observations, needs more than lookback = 126"}
    ]
    doc = report.to_dict()
    assert doc["n_skipped"] == 1 and doc["skipped"] == report.skipped
    drop = ("n_assets", "n_skipped", "skipped")
    assert {k: v for k, v in doc.items() if k not in drop} == {
        k: v for k, v in full.to_dict().items() if k not in drop
    }
    with pytest.raises(ValueError, match="lookback"):
        pc.detect_crashes(short, _mini_cfg())


def test_run_study_refuses_an_empty_panel():
    with pytest.raises(ValueError) as exc:
        pc.run_study([])
    assert str(exc.value) == "need at least one asset"


def test_run_study_without_a_config_uses_the_default():
    corpus = _mini_corpus()
    report = pc.run_study(corpus)
    assert report.to_dict() == pc.run_study(corpus, pc.StudyConfig()).to_dict()
    assert tuple(report.signals) == pc.StudyConfig.signals
    assert report.n_assets == 12 and report.n_events == 6


def test_run_study_only_short_tickers_is_inconclusive():
    report = pc.run_study([_prices([100.0] * 10, "A"), _prices([100.0] * 5, "B")], _cfg())
    assert report.n_assets == 2 and report.n_events == 0
    assert [s["asset_id"] for s in report.skipped] == ["A", "B"]
    for st in report.signals.values():
        assert st.inconclusive_reason == "no segments"


_ALL_SIGNALS = ("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "conformality",
                "ghe1", "ghe2")


def _readme_study_cfg():
    return study_config_from_dict(json.loads(readme_json_blocks()["study.json"]))


def _ranked_windows(monkeypatch, assets, cfg):
    """run_study's report and the windows its one Kendall pass ranks: per
    segment, in the study's order (asset by asset, pre then normal), a dict
    of one EwsSeries per signal, each slice of the pass stamped from the
    window grid of the estimate it reads."""
    estimates, passes = [], []

    def estimating(name, panel, ews_cfg):
        out = estimate(name, panel, ews_cfg)
        estimates.append((name, panel, *out))
        return out

    def ranking(values, lo, hi):
        passes.append((values, lo.tolist(), hi.tolist()))
        return kendall(values, lo, hi)

    estimate, kendall = study.estimate_panel, study._kendall_taus
    with monkeypatch.context() as m:
        m.setattr(study, "estimate_panel", estimating)
        m.setattr(study, "_kendall_taus", ranking)
        report = pc.run_study(assets, cfg)
    (values, lo, hi), = passes
    assert [name for name, *_ in estimates] == (list(cfg.signals) if lo else [])
    n_rows = len(lo) // len(cfg.signals)
    by_row = [{} for _ in range(n_rows)]
    stop = 0
    for i, (name, panel, vals, counts, span) in enumerate(estimates):
        base, stop = stop, stop + vals.size
        first = base + np.cumsum(counts) - counts  # each asset's first window
        for row in range(n_rows):
            a, b = lo[i * n_rows + row], hi[i * n_rows + row]
            j = int(np.searchsorted(first, a, side="right")) - 1  # the asset, if b > a
            opens = (np.arange(a, b) - first[j]) * cfg.ews_cfg.stride
            by_row[row][name] = pc.EwsSeries(panel[j].times[opens + span - 1], values[a:b], name)
    return report, by_row


def _assert_windows_match_per_segment_oracle(monkeypatch, assets, cfg):
    """Every window a segment takes from its asset's one estimate is the
    window of the per-segment estimate anchored at the segment's first
    grid step, times and values bit for bit; so are the records."""
    report, by_row = _ranked_windows(monkeypatch, assets, cfg)
    scanned, _ = pc.detect_panel(assets, cfg)
    ranked, want_windows, want_records, row = [], [], [], 0
    for asset, events in scanned:
        assert len(asset) > cfg.ews_cfg.window  # every asset has one estimate
        pre, normal = pc.segment_windows(asset, events, cfg)
        for signal in cfg.signals:
            ranked += [by_row[row + i][signal] for i in range(len(pre + normal))]
            want_windows += [study_reference.segment_ews(asset, signal, cfg, seg)
                             for seg in pre + normal]
            want_records += study_reference.trend_records(asset, signal, cfg, pre, normal)
        row += len(pre + normal)
    assert row == len(by_row) and len(ranked) == len(want_windows)
    for got, want in zip(ranked, want_windows):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values, equal_nan=True)
    assert [vars(r) for r in report.segments] == [vars(r) for r in want_records]
    return ranked


def test_segment_windows_match_the_per_segment_oracle_on_the_readme_panel(monkeypatch):
    cfg = replace(_readme_study_cfg(), signals=_ALL_SIGNALS)
    ranked = _assert_windows_match_per_segment_oracle(monkeypatch, _readme_corpus(), cfg)
    assert sum(map(len, ranked)) > 0


def _edge_path(peaks, n):
    """A rising path with a 40% V-shaped dip after each peak: each dip is
    one event, its trough two steps after the peak."""
    t = np.arange(n, dtype=float)
    lp = 0.002 * t + 0.001 * np.sin(0.7 * t)
    dip = np.log(0.6) * np.array([1, 2, 3, 2, 1]) / 3
    for p in peaks:
        k = min(5, n - p - 1)
        lp[p + 1 : p + 1 + k] += dip[:k]
    return pc.PriceSeries(t, lp, "EDGE")


def test_segment_windows_match_the_per_segment_oracle_on_edge_cases(monkeypatch):
    # normal runs of 10, 11, 17 and 18 steps between events; the first
    # event's pre segment is cut by the series start, most others by the
    # previous trough, and the last event's trough is the last step
    series = _edge_path((12, 35, 59, 89, 120, 163), 166)
    scaling = dict(tau_grid=(2, 3, 4), orders=(1, 2))
    cfgs = [
        _cfg(),
        _cfg(ews_cfg=pc.WindowConfig(window=10, stride=3, tau_grid=(2,))),
        _cfg(signals=_ALL_SIGNALS, ews_cfg=pc.WindowConfig(window=17, stride=1, **scaling)),
        _cfg(signals=_ALL_SIGNALS, ews_cfg=pc.WindowConfig(window=17, stride=4, **scaling)),
        _cfg(signals=_ALL_SIGNALS, pre_crash_window=40,
             ews_cfg=pc.WindowConfig(window=17, stride=2, **scaling)),
    ]
    seen = set()
    for cfg in cfgs:
        events = pc.detect_crashes(series, cfg)
        assert [(e.peak_index, e.trough_index) for e in events][::5] == [(12, 14), (163, 165)]
        pre, _ = pc.segment_windows(series, events, cfg)
        if pre[0][0] == 0:
            seen.add("cut by the series start")
        if any(b[0] == a.trough_index + cfg.exclusion_margin for a, b in zip(events, pre[1:])):
            seen.add("cut by the previous trough")
        ranked = _assert_windows_match_per_segment_oracle(monkeypatch, [series], cfg)
        if any(len(ews) == 1 for ews in ranked):
            seen.add("one window")
        if any(len(ews) >= 10 for ews in ranked):
            seen.add("ranked")
    assert seen == {"cut by the series start", "cut by the previous trough", "one window",
                    "ranked"}


def test_trend_records_match_the_per_segment_oracle_at_size_class_edges():
    # segments of 9, 10, 16, 17, 32 and 33 windows at window 10, stride 1
    # (the Kendall pass pads ranks to 16, 32 and 64); a flat asset, whose
    # volatility is constant and whose other signals are missing; and a walk
    # with a flat stretch, whose skewness and autocorrelation miss windows
    segments = [(0, 19), (20, 40), (40, 66), (66, 93), (93, 135), (135, 178)]
    stretch = _walk(200, seed=5, asset_id="STRETCH")
    stretch.log_prices[60:90] = stretch.log_prices[60]
    panel = [_walk(200, asset_id="WALK"), pc.PriceSeries(np.arange(200.0), np.zeros(200), "FLAT"),
             stretch]
    for stride in (1, 2, 3):
        cfg = _cfg(ews_cfg=pc.WindowConfig(window=10, stride=stride, tau_grid=(2,)))
        segmented = [(a, (segments[::2], segments[1::2])) for a in panel]
        records, counts = _trend_records(segmented, cfg)
        want = [rec for a, (pre, normal) in segmented for signal in cfg.signals
                for rec in study_reference.trend_records(a, signal, cfg, pre, normal)]
        assert [vars(r) for r in records] == [vars(r) for r in want]
        for signal in cfg.signals:
            for group in ("pre", "normal"):
                c = counts[signal][group]
                assert sum(c.values()) == 3 * 3
                assert c["ranked"] == sum(r.signal == signal and r.group == group
                                          for r in records)
    assert counts["volatility"]["pre"] == {"ranked": 2, "too_few_windows": 6, "nan_tau": 1}


def test_report_counts_ranked_short_and_constant_segments(tmp_path):
    rise = 100.0 * np.exp(np.cumsum(0.01 + 0.005 * np.sin(np.arange(31.0))))
    crash = _prices(np.concatenate([rise, rise[-1] * 0.93 ** np.arange(1, 6)]), "C")
    flat = _prices(np.full(36, 100.0), "FLAT")  # one constant normal segment
    short = _walk(15, asset_id="SHORT")  # one normal segment of 5 windows
    report = pc.run_study([crash, flat, short], _cfg(exclusion_margin=40, signals=("volatility",)))
    st = report.signals["volatility"]
    assert st.n_pre == 1 and st.n_normal == 0
    want = {"pre": {"ranked": 1, "too_few_windows": 0, "nan_tau": 0},
            "normal": {"ranked": 0, "too_few_windows": 1, "nan_tau": 1}}
    assert st.segment_counts == want
    assert st.to_dict()["segments"] == want
    pc.io.write_report_json(report, tmp_path / "report.json")
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert doc["signals"]["volatility"]["segments"] == want


def test_run_study_estimates_each_signal_once_per_panel(monkeypatch):
    corpus = _readme_corpus()
    short = _prices(np.linspace(100, 90, 100), "SHORT")  # at most lookback = 126 rows
    cfg = _readme_study_cfg()
    calls = []

    def counting(name, panel, ews_cfg):
        calls.append((name, [s.id for s in panel]))
        return real(name, panel, ews_cfg)

    real = study.estimate_panel
    monkeypatch.setattr(study, "estimate_panel", counting)
    report = pc.run_study(corpus + [short], cfg)
    assert report.skipped[0]["asset_id"] == "SHORT"
    assert calls == [(s, [a.id for a in corpus]) for s in cfg.signals]


def test_signal_trend_inconclusive_reason():
    report = pc.run_study(_mini_corpus(), _mini_cfg())
    assert report.signals["anomalous_dim"].inconclusive_reason is None
    spec = {"groups": [{"kind": "bm", "count": 2, "n": 1280, "params": {"sigma": 0.001}}]}
    calm = pc.run_study(synth_corpus(spec, 3), _mini_cfg())
    assert calm.signals["volatility"].inconclusive_reason == "no pre segments"
    short = pc.run_study([_prices(np.linspace(100, 130, 140))], _mini_cfg())
    assert short.signals["anomalous_dim"].inconclusive_reason == "no segments"
    rise = 100.0 * np.exp(np.cumsum(0.01 + 0.005 * np.sin(np.arange(31.0))))
    crash = _prices(np.concatenate([rise, rise[-1] * 0.93 ** np.arange(1, 6)]), "C")
    no_normal = pc.run_study([crash], _cfg(exclusion_margin=40, signals=("volatility",)))
    st = no_normal.signals["volatility"]
    assert st.inconclusive and st.inconclusive_reason == "no normal segments"
    assert st.to_dict()["inconclusive_reason"] == "no normal segments"


@pytest.mark.parametrize(
    "signals, message",
    [("volatility", "signals must be a list of names, got 'volatility'"),
     ("", "signals must be a list of names, got ''"),
     ((), "signals must name at least one signal"),
     (("volatility", "volatility"), "signals repeats 'volatility'"),
     (("ghe1", "skewness", "ghe1", "skewness", "ghe1"), "signals repeats 'ghe1', 'skewness'"),
     ((1,), "signals must be a list of names, got (1,)"),
     (("volatility", None), "signals must be a list of names, got ('volatility', None)"),
     # a panel signal has no per-asset segments; since 0.15.0 only ews computes it
     (("volatility", "cross_cov"), "unknown signal 'cross_cov'")]
    + [((name,), f"unknown signal '{name}'")
       for name in ("vol", "ghe0", "ghe-1", "ghe+1", "ghex", "ghe", "cross_covariance")],
)
def test_study_config_refuses_bad_signals_at_construction(signals, message):
    with pytest.raises(ValueError) as err:
        pc.StudyConfig(signals=signals)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kw, message",
    [({"crash_threshold": 0.0}, "crash_threshold must lie in (0, 1), got 0.0"),
     ({"crash_threshold": 1.0}, "crash_threshold must lie in (0, 1), got 1.0"),
     ({"crash_threshold": math.nan}, "crash_threshold must lie in (0, 1), got nan"),
     ({"lookback": 0}, "lookback must be >= 1, got 0"),
     ({"exclusion_margin": -1}, "exclusion_margin must be >= 0, got -1"),
     ({"pre_crash_window": 62}, "pre_crash_window must be >= 63, got 62")],
)
def test_study_config_refuses_bad_fields(kw, message):
    with pytest.raises(ValueError) as err:
        pc.StudyConfig(**kw)
    assert str(err.value) == message


def test_study_config_accepts_every_signal_name():
    names = ("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "conformality",
             "ghe1", "ghe12")
    assert pc.StudyConfig(signals=names).signals == names
