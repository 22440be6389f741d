import json
import math

import numpy as np
import pytest
from scipy import stats

import phasecrash as pc
from phasecrash.errors import AlignmentError, InsufficientDataError
from phasecrash.io import CorpusSpec, derive_seed, synth_corpus
from phasecrash.study import SegmentTrend, _mannwhitney_p

import study_reference
from conftest import readme_json_blocks


def _prices(levels, asset_id="x"):
    lp = np.log(np.asarray(levels, dtype=float))
    return pc.PriceSeries(np.arange(lp.size, dtype=float), lp, asset_id)


def _cfg(**kw):
    base = dict(
        crash_threshold=0.20,
        lookback=10,
        pre_crash_window=20,
        exclusion_margin=5,
        ews_cfg=pc.WindowConfig(window=10, stride=1, tau_grid=(2,)),
    )
    base.update(kw)
    return pc.StudyConfig(**base)


# ------------------------------------------------------------ kendall tau


def test_kendall_strictly_increasing():
    e = pc.EwsSeries(np.arange(12.0), np.arange(12.0), "volatility")
    tau, p = pc.kendall_tau_trend(e)
    assert tau == pytest.approx(1.0, abs=1e-12)
    assert p < 0.01


def test_kendall_strictly_decreasing():
    e = pc.EwsSeries(np.arange(12.0), -np.arange(12.0), "volatility")
    tau, _ = pc.kendall_tau_trend(e)
    assert tau == pytest.approx(-1.0, abs=1e-12)


def test_kendall_tie_oracle():
    # {1,2,2,3}: 5 concordant pairs, one y-tie -> tau-b = 5/sqrt(30)
    e = pc.EwsSeries(np.arange(4.0), np.array([1.0, 2.0, 2.0, 3.0]), "volatility")
    tau, p = pc.kendall_tau_trend(e, min_points=4)
    assert tau == pytest.approx(5.0 / math.sqrt(30.0), abs=1e-12)
    assert 0.0 < p < 1.0


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


def _scipy_kendall(vals):
    keep = np.isfinite(vals)
    res = stats.kendalltau(np.flatnonzero(keep).astype(float), vals[keep],
                           variant="b", method="asymptotic")
    return float(res.statistic), float(res.pvalue)


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
        tau, p = pc.kendall_tau_trend(pc.EwsSeries(np.arange(float(n)), vals, "s"),
                                      min_points=n // 2)
        want_tau, want_p = _scipy_kendall(vals)
        assert abs(tau - want_tau) <= 1e-15
        assert p == pytest.approx(want_p, rel=1e-12, abs=0)


def test_kendall_constant_series_is_nan_like_scipy():
    vals = np.full(40, 0.3)
    vals[[4, 9]] = np.nan
    tau, p = pc.kendall_tau_trend(pc.EwsSeries(np.arange(40.0), vals, "s"))
    assert math.isnan(tau) and math.isnan(p)
    assert all(math.isnan(x) for x in _scipy_kendall(vals))


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
        cfg = _cfg(lookback=lookback, recovery_fraction=float(rng.uniform(0.01, 0.5)))
        n_events += len(_same_events(series, cfg))
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


def test_segment_no_events():
    series = _prices(np.linspace(100, 120, 60))
    pre, normal = pc.segment_windows(series, [], _cfg())
    assert pre == []
    assert len(normal) == 1
    assert len(normal[0]) == 60


def test_segment_single_event():
    series = _prices(np.linspace(100, 120, 100))
    cfg = _cfg()
    ev = _event(series, 50, 55)
    pre, normal = pc.segment_windows(series, [ev], cfg)
    assert len(pre) == 1
    assert pre[0].times[-1] == series.times[50]  # ends exactly at the peak
    assert len(pre[0]) == cfg.pre_crash_window
    assert len(normal) == 2
    assert normal[0].times[-1] < series.times[50 - cfg.exclusion_margin]
    assert normal[1].times[0] > series.times[55 + cfg.exclusion_margin]


def test_segment_two_close_events_truncation():
    # second pre-window is cut at trough1 + margin; expected indices by
    # direct interval arithmetic
    series = _prices(np.linspace(100, 120, 100))
    cfg = _cfg(pre_crash_window=30, exclusion_margin=5)
    e1 = _event(series, 40, 45)
    e2 = _event(series, 70, 75)
    pre, _ = pc.segment_windows(series, [e1, e2], cfg)
    assert len(pre) == 2
    assert pre[1].times[0] == series.times[45 + 5]
    assert pre[1].times[-1] == series.times[70]
    # squeeze harder: remaining stretch shorter than the EWS window drops it
    cfg2 = _cfg(pre_crash_window=30, exclusion_margin=18)
    pre2, _ = pc.segment_windows(series, [e1, e2], cfg2)
    assert len(pre2) == 1


def test_segment_exclusion_invariant_random_events():
    rng = np.random.default_rng(10)
    series = _prices(np.exp(rng.standard_normal(500) * 0.01).cumprod() * 100)
    cfg = _cfg(pre_crash_window=40, exclusion_margin=12)
    idx = np.sort(rng.choice(np.arange(30, 470, dtype=int), size=4, replace=False))
    events = [_event(series, int(i), int(i) + 8) for i in idx]
    pre, normal = pc.segment_windows(series, events, cfg)
    for seg in pre:
        assert any(seg.times[-1] == series.times[e.peak_index] for e in events)
    for seg in normal:
        for e in events:
            lo = series.times[max(0, e.peak_index - cfg.exclusion_margin)]
            hi_idx = min(len(series) - 1, e.trough_index + cfg.exclusion_margin)
            hi = series.times[hi_idx]
            assert seg.times[-1] < lo or seg.times[0] > hi


def _assert_normal_matches_reference(series, events, cfg):
    _, normal = pc.segment_windows(series, events, cfg)
    expected = study_reference.normal_segments(series, events, cfg)
    assert [(s.times[0], len(s)) for s in normal] == [
        (s.times[0], len(s)) for s in expected
    ]
    for got, want in zip(normal, expected):
        assert np.array_equal(got.log_prices, want.log_prices)


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


def test_run_study_cross_cov_signal():
    corpus = _mini_corpus()
    # align lengths: crash assets end up 1280 long (1260 + 20 drop), controls 1281
    corpus = [s.slice(0, 1280) for s in corpus]
    cfg = _mini_cfg(signals=("volatility", "cross_cov"))
    report = pc.run_study(corpus, cfg)
    st = report.signals["cross_cov"]
    assert (st.n_pre + st.n_normal) == len(
        [r for r in report.segments if r.signal == "cross_cov"]
    )
    assert not math.isnan(st.mean_tau_normal)


@pytest.mark.parametrize("shift", ["length", "times"])
def test_run_study_cross_cov_misaligned_panel_raises(shift):
    panel = [_prices(np.linspace(100, 120, 60), f"A{i}") for i in range(3)]
    if shift == "length":
        panel[2] = _prices(np.linspace(100, 120, 61), "A2")
    else:
        panel[1] = pc.PriceSeries(panel[1].times + 0.5, panel[1].log_prices, "A1")
    with pytest.raises(AlignmentError) as exc:
        pc.run_study(panel, _cfg(signals=("volatility", "cross_cov")))
    assert exc.value.ids == (("A2",) if shift == "length" else ("A1",))


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


def test_run_study_only_short_tickers_is_inconclusive():
    report = pc.run_study([_prices([100.0] * 10, "A"), _prices([100.0] * 5, "B")], _cfg())
    assert report.n_assets == 2 and report.n_events == 0
    assert [s["asset_id"] for s in report.skipped] == ["A", "B"]
    for st in report.signals.values():
        assert st.inconclusive_reason == "no segments"


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
     ("", "signals must be a list of names, got ''")]
    + [((name,), f"unknown signal '{name}'")
       for name in ("vol", "ghe0", "ghe-1", "ghe+1", "ghex", "ghe", "cross_covariance")],
)
def test_study_config_refuses_bad_signals_at_construction(signals, message):
    with pytest.raises(ValueError) as err:
        pc.StudyConfig(signals=signals)
    assert str(err.value) == message


def test_study_config_accepts_every_signal_name():
    names = ("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "conformality",
             "ghe1", "ghe12", "cross_cov")
    assert pc.StudyConfig(signals=names).signals == names
