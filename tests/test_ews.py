import tracemalloc

import numpy as np
import pytest
from scipy.stats import wilcoxon

import phasecrash as pc
from phasecrash.errors import InsufficientDataError
from phasecrash.ews import estimate_panel, ghe_signal, signal_estimator
from phasecrash.io import derive_seed

import ews_reference as ref
from conftest import series_from_increments


def _cfg(**kw):
    base = dict(window=8, stride=1, tau_grid=(2,), orders=(1, 2))
    base.update(kw)
    # tau_grid present but unused by the moment statistics
    return pc.WindowConfig(**base)


# ------------------------------------------------------------- volatility


def test_volatility_constant_returns_zero():
    series = series_from_increments(np.full(50, 0.25))
    out = pc.rolling_volatility(series, _cfg(window=10))
    assert np.all(out.values == 0.0)
    assert out.signal == "volatility"


def test_volatility_alternating_closed_form():
    n = 10
    inc = np.tile([0.01, -0.01], 30)
    series = series_from_increments(inc)
    out = pc.rolling_volatility(series, _cfg(window=n))
    expected = 0.01 * np.sqrt(n / (n - 1.0))
    assert np.allclose(out.values, expected, rtol=0, atol=1e-12)


def test_volatility_shift_invariance():
    rng = np.random.default_rng(0)
    # dyadic increments: the +4 shift is exact, so differences are identical
    inc = np.floor(rng.standard_normal(200) * 256.0) / 1024.0
    a = series_from_increments(inc)
    b = pc.PriceSeries(a.times, a.log_prices + 4.0, "b")
    cfg = _cfg(window=32)
    assert np.array_equal(
        pc.rolling_volatility(a, cfg).values, pc.rolling_volatility(b, cfg).values
    )


def test_volatility_window_end_times():
    series = series_from_increments(np.arange(20) * 0.01)
    out = pc.rolling_volatility(series, _cfg(window=8, stride=3))
    assert np.array_equal(out.times, series.times[np.array([8, 11, 14, 17, 20])])


def test_volatility_validation():
    series = series_from_increments(np.ones(30))
    with pytest.raises(ValueError):
        pc.rolling_volatility(series, _cfg(window=1))
    with pytest.raises(ValueError):
        pc.rolling_volatility(series_from_increments(np.ones(5)), _cfg(window=10))


# -------------------------------------------------------------- skewness


def test_skewness_symmetric_sample_is_zero():
    inc = np.array([0.5, -0.5, 1.25, -1.25, 0.75, -0.75, 0.25, -0.25])
    series = series_from_increments(np.tile(inc, 4))
    out = pc.rolling_skewness(series, _cfg(window=8))
    assert np.all(out.values == 0.0)


def test_skewness_hand_value():
    # adjusted Fisher-Pearson on {-3, 1, 1, 1} is exactly -2
    series = series_from_increments(np.array([-3.0, 1.0, 1.0, 1.0]))
    out = pc.rolling_skewness(series, _cfg(window=4))
    assert out.values[0] == pytest.approx(-2.0, abs=1e-12)


def test_skewness_scale_invariance():
    rng = np.random.default_rng(1)
    inc = rng.standard_normal(100)
    a = series_from_increments(inc)
    b = series_from_increments(2.0 * inc)
    cfg = _cfg(window=25)
    assert np.allclose(
        pc.rolling_skewness(a, cfg).values,
        pc.rolling_skewness(b, cfg).values,
        rtol=0,
        atol=1e-12,
    )


def test_skewness_zero_variance_window_missing():
    # dyadic increments keep the flat stretch exactly constant
    inc = np.concatenate([np.full(10, 0.125), [0.25], np.full(10, 0.125)])
    series = series_from_increments(inc)
    out = pc.rolling_skewness(series, _cfg(window=5))
    assert np.isnan(out.values[0])  # flat stretch
    assert np.isfinite(out.values[7])  # contains the kink


# --------------------------------------------------------- lag-1 autocorr


def test_autocorr_alternating_is_minus_one():
    series = series_from_increments(np.tile([1.0, -1.0], 20))
    out = pc.rolling_lag1_autocorr(series, _cfg(window=10))
    assert np.allclose(out.values, -1.0, rtol=0, atol=1e-12)


def test_autocorr_iid_null_band():
    rng = np.random.default_rng(derive_seed(630, 1))
    series = series_from_increments(0.01 * rng.standard_normal(30_000))
    cfg = _cfg(window=200, stride=200)
    out = pc.rolling_lag1_autocorr(series, cfg)
    # null sd is about 1/sqrt(window); 0.15 is a 2.1-sigma band
    assert np.mean(np.abs(out.values) < 0.15) >= 0.95


def test_autocorr_ar1_oracle():
    means = []
    for i in range(100):
        rng = np.random.default_rng(derive_seed(99, i))
        r = np.empty(3000)
        r[0] = rng.standard_normal()
        for k in range(1, 3000):
            r[k] = 0.6 * r[k - 1] + rng.standard_normal()
        series = series_from_increments(r)
        out = pc.rolling_lag1_autocorr(series, _cfg(window=500, stride=100))
        means.append(np.nanmean(out.values))
    assert 0.5 <= np.mean(means) <= 0.7


def test_autocorr_zero_variance_missing():
    inc = np.concatenate([np.full(12, 0.125), [0.375], np.full(12, 0.125)])
    out = pc.rolling_lag1_autocorr(series_from_increments(inc), _cfg(window=6))
    assert np.isnan(out.values[0])


# ------------------------------------------------------ scaling exponents


def _fbm_series(h, n, seed):
    return series_from_increments(
        pc.synth_fbm(n, pc.HurstSchedule(h), 1.0, seed).increments
    )


@pytest.mark.parametrize("h,lo,hi", [(0.5, 0.42, 0.58), (0.8, 0.70, 0.90)])
def test_anomalous_dimension_recovers_hurst(h, lo, hi):
    cfg = pc.WindowConfig(window=512, stride=1, tau_grid=(2, 4, 8, 16, 32))
    vals = [
        pc.anomalous_dimension(_fbm_series(h, 512, derive_seed(61, i)), cfg).values[0]
        for i in range(100)
    ]
    assert lo <= np.mean(vals) <= hi


def test_anomalous_dimension_trend_on_hurst_ramp(dpt_hurst_trend_taus):
    assert wilcoxon(dpt_hurst_trend_taus, alternative="greater").pvalue < 0.01


def test_anomalous_dimension_constant_window_missing():
    series = series_from_increments(np.zeros(600))
    cfg = pc.WindowConfig(window=512, stride=1, tau_grid=(2, 4, 8, 16, 32))
    out = pc.anomalous_dimension(series, cfg)
    assert np.all(np.isnan(out.values))


def test_ghe_monofractal_orders_agree():
    cfg = pc.WindowConfig(window=1024, stride=1, tau_grid=(2, 4, 8, 16, 32), orders=(1, 2, 4))
    sums = {1: [], 2: [], 4: []}
    for i in range(100):
        series = _fbm_series(0.5, 1024, derive_seed(62, i))
        for est in pc.generalized_hurst(series, cfg):
            sums[int(est.signal[3:])].append(est.values[0])
    for order, vals in sums.items():
        assert abs(np.mean(vals) - 0.5) <= 0.1, f"order {order}"


def test_ghe_order2_is_anomalous_dimension_bitwise():
    cfg = pc.WindowConfig(window=256, stride=16, tau_grid=(2, 4, 8, 16), orders=(2,))
    series = _fbm_series(0.7, 2048, 33)
    ghe = pc.generalized_hurst(series, cfg)[0]
    delta = pc.anomalous_dimension(series, cfg)
    assert np.array_equal(ghe.values, delta.values)
    assert ghe.signal == ghe_signal(2)


def test_ghe_stable_order1_self_similarity():
    cfg = pc.WindowConfig(window=2048, stride=1, tau_grid=(2, 4, 8, 16, 32), orders=(1,))
    vals = []
    for i in range(100):
        p = pc.sample_alpha_stable(2048, pc.StableSchedule(1.5, scale=1.0), 1.0, derive_seed(90, i))
        series = series_from_increments(p.increments)
        vals.append(pc.generalized_hurst(series, cfg)[0].values[0])
    assert abs(np.mean(vals) - 1.0 / 1.5) <= 0.1


def test_ghe_overflowing_moments_reported_missing():
    inc = np.ones(300)
    inc[150] = 1e40  # |jump|**8 overflows to inf
    series = series_from_increments(inc)
    cfg = pc.WindowConfig(window=256, stride=16, tau_grid=(2, 4, 8, 16), orders=(8,))
    out = pc.generalized_hurst(series, cfg)[0]
    assert np.isnan(out.values).any()


# ----------------------------------------------------------- conformality


def test_conformality_exact_power_law_is_zero():
    # a linear path has S2(tau) = tau**2 exactly, a perfect power law
    series = pc.PriceSeries(np.arange(600.0), 0.5 * np.arange(600.0), "lin")
    cfg = pc.WindowConfig(window=512, stride=1, tau_grid=(2, 4, 8, 16, 32))
    out = pc.conformality_index(series, cfg)
    assert np.all(out.values < 1e-12)


def test_conformality_synthetic_structure_function():
    # regression identity on a synthetic S2(tau) = tau**(2*0.6)
    taus = (2, 4, 8, 16, 32)
    svals = np.asarray(taus, dtype=float) ** 1.2
    fit = np.polyfit(np.log(taus), np.log(svals), 1)
    per_tau = (np.log(svals) - fit[1]) / (2.0 * np.log(np.asarray(taus, dtype=float)))
    assert per_tau.std(ddof=1) < 1e-12


def test_conformality_fbm_band():
    cfg = pc.WindowConfig(window=1024, stride=1, tau_grid=(2, 4, 8, 16, 32))
    vals = [
        pc.conformality_index(_fbm_series(0.7, 1024, derive_seed(64, i)), cfg).values[0]
        for i in range(100)
    ]
    assert max(vals) < 0.08


def test_conformality_regime_switch_breaks_scaling():
    # half H=0.5, half H=0.9, amplitude-matched at the middle lag; the bent
    # structure function needs a wide lag span to beat estimator noise
    w = 16_384
    taus = (2, 4, 16, 64, 256, 1024)
    cfg = pc.WindowConfig(window=w, stride=1, tau_grid=taus)
    mid = taus[len(taus) // 2]
    wins = 0
    for i in range(100):
        base = pc.conformality_index(_fbm_series(0.7, w, derive_seed(65, i)), cfg).values[0]
        a = np.cumsum(pc.synth_fbm(w // 2, pc.HurstSchedule(0.5), 1.0, derive_seed(66, i)).increments)
        b = np.cumsum(pc.synth_fbm(w // 2, pc.HurstSchedule(0.9), 1.0, derive_seed(67, i)).increments)
        s = np.sqrt(np.mean((a[mid:] - a[:-mid]) ** 2) / np.mean((b[mid:] - b[:-mid]) ** 2))
        x = np.concatenate([a, a[-1] + s * b])
        switch = pc.conformality_index(
            pc.PriceSeries(np.arange(float(w)), x, "sw"), cfg
        ).values[0]
        wins += switch > base
    assert wins >= 95


def test_conformality_needs_three_lags():
    series = _fbm_series(0.5, 512, 1)
    with pytest.raises(ValueError):
        pc.conformality_index(series, pc.WindowConfig(window=128, tau_grid=(2, 4)))


# -------------------------------------------------------- cross-covariance


def test_cross_cov_identical_series_equals_variance():
    rng = np.random.default_rng(2)
    inc = rng.standard_normal(400) * 0.02
    a = series_from_increments(inc, "a")
    b = series_from_increments(inc, "b")
    cfg = _cfg(window=100, stride=50)
    cc = pc.cross_covariance([a, b], cfg)
    var = np.array([inc[s : s + 100].var(ddof=1) for s in range(0, 301, 50)])
    assert np.allclose(cc.values, var, rtol=1e-12)


def test_cross_cov_independent_null_band():
    rng = np.random.default_rng(derive_seed(631, 0))
    a = series_from_increments(0.01 * rng.standard_normal(25_000), "a")
    b = series_from_increments(0.01 * rng.standard_normal(25_000), "b")
    cfg = _cfg(window=500, stride=500)
    cc = pc.cross_covariance([a, b], cfg)
    bound = 3.0 / np.sqrt(500) * 0.01 * 0.01
    assert np.mean(np.abs(cc.values) < bound) >= 0.95


def _sub(series, start, stop):
    """``series`` over observation indices [start, stop)."""
    return pc.PriceSeries(series.times[start:stop], series.log_prices[start:stop], series.id)


def _random_panel(n, k=4, seed=21):
    rng = np.random.default_rng(seed)
    return [series_from_increments(0.01 * rng.standard_normal(n), f"A{i}") for i in range(k)]


@pytest.mark.parametrize("shift", ["length", "times"])
def test_cross_cov_misaligned_panel_runs_on_the_shared_times(shift):
    # the panel restricted by hand to the times every series has is aligned
    panel = _random_panel(60)
    if shift == "length":
        panel[2] = _random_panel(61, seed=22)[2]
        by_hand = [*panel[:2], _sub(panel[2], 0, 61), panel[3]]
    else:
        for i in (1, 3):
            panel[i] = pc.PriceSeries(panel[i].times + 5.0, panel[i].log_prices, f"A{i}")
        by_hand = [_sub(s, 5, 61) if i in (0, 2) else _sub(s, 0, 56)
                   for i, s in enumerate(panel)]
    cfg = _cfg(window=10, stride=3)
    got, want = pc.cross_covariance(panel, cfg), pc.cross_covariance(by_hand, cfg)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.times, want.times)  # the first series' times
    assert got.id == want.id == "A0|A1|A2|A3"


def test_cross_cov_panel_with_too_few_shared_times_names_the_count():
    a, b = _random_panel(60, k=2)
    b = pc.PriceSeries(b.times + 55.0, b.log_prices, "b")  # shares times 55..60
    with pytest.raises(InsufficientDataError) as exc:
        pc.cross_covariance([a, b], _cfg(window=10))
    assert str(exc.value) == "the panel shares 6 dates, needs at least window + 1 = 11"


@pytest.mark.parametrize("case", ["disjoint", "dated-and-undated"])
def test_cross_cov_refuses_a_panel_that_shares_no_dates(case):
    a, b = _random_panel(60, k=2)
    if case == "disjoint":
        b = pc.PriceSeries(b.times + 0.5, b.log_prices, "b")
    else:  # equal times, but only one series knows its dates
        dates = tuple(f"2000-{m:02d}-{d:02d}" for m in (1, 2, 3) for d in range(1, 21))
        b = pc.PriceSeries(b.times, b.log_prices, "b", dates + ("2000-04-01",))
    with pytest.raises(InsufficientDataError) as exc:
        pc.cross_covariance([a, b], _cfg(window=10))
    assert str(exc.value) == "the panel shares 0 dates, needs at least window + 1 = 11"


def test_cross_cov_refuses_a_single_series():
    a = series_from_increments(np.ones(50), "a")
    with pytest.raises(ValueError) as exc:
        pc.cross_covariance([a], _cfg(window=10))
    assert str(exc.value) == "cross_covariance needs at least 2 series"


def test_cross_cov_scaling_quadratic():
    rng = np.random.default_rng(3)
    i1, i2 = rng.standard_normal(300), rng.standard_normal(300)
    cfg = _cfg(window=64, stride=32)
    base = pc.cross_covariance(
        [series_from_increments(i1, "a"), series_from_increments(i2, "b")], cfg
    )
    scaled = pc.cross_covariance(
        [series_from_increments(2 * i1, "a"), series_from_increments(2 * i2, "b")], cfg
    )
    assert np.allclose(scaled.values, 4.0 * base.values, rtol=1e-12)


# --------------------------------------------------------------- generic


def test_stride_is_subsampling():
    rng = np.random.default_rng(5)
    series = series_from_increments(rng.standard_normal(800) * 0.01)
    fbm = _fbm_series(0.6, 800, 44)
    scfg1 = pc.WindowConfig(window=128, stride=1, tau_grid=(2, 4, 8, 16))
    scfg3 = pc.WindowConfig(window=128, stride=3, tau_grid=(2, 4, 8, 16))
    for fn, target in [
        (pc.rolling_volatility, series),
        (pc.rolling_skewness, series),
        (pc.rolling_lag1_autocorr, series),
        (pc.anomalous_dimension, fbm),
        (pc.conformality_index, fbm),
    ]:
        full = fn(target, scfg1)
        sub = fn(target, scfg3)
        assert np.array_equal(full.values[::3], sub.values, equal_nan=True)
        assert np.array_equal(full.times[::3], sub.times)


@pytest.mark.parametrize(
    "signal, lag",
    [("volatility", 1), ("skewness", 1), ("lag1_autocorr", 1), ("cross_cov", 1),
     ("anomalous_dim", 0), ("ghe1", 0), ("conformality", 0)],
)
def test_minimum_length_gives_one_window_stamped_at_the_last_time(signal, lag):
    # moment signals roll over returns, one fewer than the prices
    cfg = pc.WindowConfig(window=40, stride=3, tau_grid=(2, 4, 8))
    needed = cfg.window + lag
    rng = np.random.default_rng(8)

    def estimate(n):
        times = 3.0 + 0.5 * np.arange(n)
        panel = [pc.PriceSeries(times, np.cumsum(rng.standard_normal(n)) * 0.01, i)
                 for i in ("a", "b")]
        if signal == "cross_cov":
            return pc.cross_covariance(panel, cfg)
        return signal_estimator(signal)(panel[0], cfg)

    out = estimate(needed)
    assert out.times.tolist() == [3.0 + 0.5 * (needed - 1)]
    assert np.isfinite(out.values).all()
    with pytest.raises(InsufficientDataError,
                       match=f"has {needed - 1} observations, .* = {needed}$"):
        estimate(needed - 1)


@pytest.mark.parametrize("signal", ["volatility", "skewness", "lag1_autocorr", "cross_cov",
                                    "anomalous_dim", "ghe1", "conformality"])
def test_a_stride_past_the_int64_range_gives_the_first_window(signal):
    cfg = pc.WindowConfig(window=40, stride=2**63, tau_grid=(2, 4, 8))
    panel = _random_panel(100, k=2)
    if signal == "cross_cov":
        out = pc.cross_covariance(panel, cfg)
    else:
        out = signal_estimator(signal)(panel[0], cfg)
    lag = 1 if signal in ("volatility", "skewness", "lag1_autocorr", "cross_cov") else 0
    assert out.times.tolist() == [cfg.window - 1.0 + lag]
    assert np.isfinite(out.values).all()


_UNIVARIATE = ("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "conformality",
               "ghe1", "ghe2", "ghe3")


@pytest.mark.parametrize("signal", _UNIVARIATE)
@pytest.mark.parametrize("window, stride", [(40, 1), (40, 7), (33, 40), (40, 2**63)])
def test_panel_estimate_matches_each_series_alone(signal, window, stride):
    # series of different lengths, two too short for a window (one by a single
    # price for the moment signals), a flat stretch of missing windows, and
    # strides that do and do not divide the lengths
    cfg = pc.WindowConfig(window=window, stride=stride, tau_grid=(2, 4, 8))
    panel = _random_panel(300, k=3) + _random_panel(window, k=1, seed=5)
    panel += _random_panel(window - 3, k=1, seed=6) + _random_panel(131, k=2, seed=7)
    panel[1].log_prices[100:180] = panel[1].log_prices[100]
    values, counts, span = estimate_panel(signal, panel, cfg)
    assert counts.tolist() == [len(s.times[span - 1 :: stride]) for s in panel]
    assert values.size == counts.sum()
    missing = 0
    for series, part in zip(panel, np.split(values, np.cumsum(counts)[:-1])):
        if len(series) < span:
            with pytest.raises(InsufficientDataError):
                signal_estimator(signal)(series, cfg)
            assert part.size == 0
            continue
        alone = signal_estimator(signal)(series, cfg)
        assert np.array_equal(part, alone.values, equal_nan=True)
        assert np.array_equal(series.times[span - 1 :: stride], alone.times)
        missing += int(alone.missing.sum())
    if stride == 1:  # the flat stretch leaves volatility at zero, the rest missing
        assert (missing > 0) == (signal != "volatility")


def test_panel_estimate_of_series_all_too_short_is_empty():
    values, counts, span = estimate_panel("volatility", _random_panel(7, k=3), _cfg())
    assert values.size == 0 and counts.tolist() == [0, 0, 0] and span == 9


def test_volatility_return_scaling_linear():
    rng = np.random.default_rng(6)
    inc = rng.standard_normal(300)
    cfg = _cfg(window=64, stride=16)
    a = pc.rolling_volatility(series_from_increments(inc), cfg)
    b = pc.rolling_volatility(series_from_increments(2.0 * inc), cfg)
    assert np.array_equal(2.0 * a.values, b.values)


def test_scale_invariant_statistics():
    fbm = pc.synth_fbm(800, pc.HurstSchedule(0.6), 1.0, 45).increments
    a = series_from_increments(fbm)
    b = series_from_increments(4.0 * fbm)
    mcfg = _cfg(window=100, stride=25)
    scfg = pc.WindowConfig(window=256, stride=64, tau_grid=(2, 4, 8, 16))
    for fn, cfg in [
        (pc.rolling_skewness, mcfg),
        (pc.rolling_lag1_autocorr, mcfg),
        (pc.anomalous_dimension, scfg),
        (pc.conformality_index, scfg),
    ]:
        assert np.allclose(fn(a, cfg).values, fn(b, cfg).values, rtol=0, atol=1e-10)


def test_window_config_validation():
    with pytest.raises(ValueError):
        # lag constraint binds when the scaling estimators consume tau_grid
        cfg = pc.WindowConfig(window=100, tau_grid=(2, 4, 32))
        pc.anomalous_dimension(series_from_increments(np.ones(200)), cfg)
    with pytest.raises(ValueError):
        pc.WindowConfig(window=100, tau_grid=(4, 2))
    with pytest.raises(ValueError):
        pc.WindowConfig(window=100, tau_grid=(1, 2, 4))
    with pytest.raises(ValueError):
        pc.WindowConfig(window=100, tau_grid=())
    with pytest.raises(ValueError):
        pc.WindowConfig(window=100, stride=0, tau_grid=(2, 4))
    with pytest.raises(ValueError):
        pc.WindowConfig(window=100, tau_grid=(2, 4), orders=(0,))


@pytest.mark.parametrize(
    "kw, message",
    [(dict(tau_grid=(2, 4, 8.9)), "tau_grid[2] must be an integer, got 8.9"),
     (dict(tau_grid=(2, 4, 8.0)), "tau_grid[2] must be an integer, got 8.0"),
     (dict(tau_grid=(2, "4")), "tau_grid[1] must be an integer, got '4'"),
     (dict(tau_grid=(True, 4)), "tau_grid[0] must be an integer, got True"),
     (dict(tau_grid=(2, None)), "tau_grid[1] must be an integer, got None"),
     (dict(orders=(1.5, 2)), "orders[0] must be an integer, got 1.5"),
     (dict(orders=(True,)), "orders[0] must be an integer, got True"),
     (dict(orders=("1",)), "orders[0] must be an integer, got '1'")],
)
def test_window_config_refuses_elements_that_are_not_integers(kw, message):
    # int() would silently run 8.9 as lag 8 and True as order 1
    with pytest.raises(ValueError) as exc:
        pc.WindowConfig(**{"window": 100, **kw})
    assert str(exc.value) == message


def test_window_config_keeps_numpy_integers_as_ints():
    cfg = pc.WindowConfig(tau_grid=np.array([2, 4, 8]), orders=(np.int64(1),))
    assert cfg.tau_grid == (2, 4, 8) and cfg.orders == (1,)
    assert all(type(v) is int for v in cfg.tau_grid + cfg.orders)


def test_generalized_hurst_refuses_an_empty_orders():
    series = series_from_increments(np.random.default_rng(derive_seed(31, 1)).standard_normal(300))
    with pytest.raises(ValueError) as exc:
        pc.generalized_hurst(series, _cfg(window=64, tau_grid=(2, 4), orders=()))
    assert str(exc.value) == "cfg.orders must be nonempty"


def test_one_lag_is_refused_for_scaling_signals_only():
    # a one-point log-log fit has no slope: every window would be missing
    cfg = pc.WindowConfig(window=64, stride=8, tau_grid=(2,))
    series = series_from_increments(np.random.default_rng(derive_seed(31, 0)).standard_normal(300))
    for fn in (pc.anomalous_dimension, pc.generalized_hurst):
        with pytest.raises(ValueError, match="at least 2 lags in tau_grid, got \\(2,\\)"):
            fn(series, cfg)
    with pytest.raises(ValueError, match="at least 2 lags"):
        pc.StudyConfig(pre_crash_window=64, signals=("anomalous_dim",), ews_cfg=cfg)
    pc.StudyConfig(pre_crash_window=64, signals=("volatility", "skewness"), ews_cfg=cfg)
    assert len(pc.rolling_volatility(series, cfg)) == 30
    two = pc.WindowConfig(window=64, stride=8, tau_grid=(2, 4))
    assert np.isfinite(pc.anomalous_dimension(series, two).values).all()


def test_ews_series_refuses_times_and_values_of_unequal_length():
    with pytest.raises(ValueError) as exc:
        pc.EwsSeries(np.arange(3.0), np.zeros(4), "volatility")
    assert str(exc.value) == "times and values must have equal length"


def test_price_series_validation():
    with pytest.raises(ValueError):
        pc.PriceSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3), "x")
    with pytest.raises(ValueError):
        pc.PriceSeries(np.arange(3.0), np.array([0.0, np.nan, 1.0]), "x")
    with pytest.raises(ValueError):
        pc.PriceSeries(np.arange(3.0), np.zeros(4), "x")
    # write_price_csv zips dates with prices, so a short tuple would truncate
    with pytest.raises(ValueError, match="'A' has 1 dates for 3 prices"):
        pc.PriceSeries(np.arange(3.0), 4 + np.arange(3.0), "A", ("2020-01-01",))


# ------------------------------------------------------ reference oracles


def _oracle_series(seed, asset_id="x"):
    """Random walk of random scale and level with an exactly flat stretch;
    odd seeds add a 1e150 jump whose third moments overflow."""
    rng = np.random.default_rng(derive_seed(700, seed))
    inc = rng.standard_normal(600) * 10.0 ** rng.uniform(-3.0, 0.0)
    inc[250:400] = 0.0
    if seed % 2:
        inc[480] = 1e150
    lp = np.concatenate([[rng.uniform(-5.0, 5.0)], inc]).cumsum()
    return pc.PriceSeries(np.arange(lp.size, dtype=float), lp, asset_id)


def _assert_matches_oracle(fast, oracle, *args):
    with np.errstate(all="ignore"):  # the oracle warns on overflowing windows
        expected = oracle(*args)
    assert fast.shape == expected.shape
    assert np.array_equal(np.isnan(fast), np.isnan(expected))
    assert np.allclose(fast, expected, rtol=1e-10, atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("stride", [1, 7])
def test_estimators_match_reference_oracles(stride):
    cfg = pc.WindowConfig(window=96, stride=stride, tau_grid=(2, 4, 8, 16), orders=(1, 2, 3))
    for seed in range(6):
        series = _oracle_series(seed)
        # constant price windows have no scaling signal: both sides give NaN
        x = np.lib.stride_tricks.sliding_window_view(series.log_prices, cfg.window)
        assert (np.ptp(x[:: cfg.stride], axis=1) == 0.0).any()

        for fn, oracle in [
            (pc.rolling_volatility, ref.volatility),
            (pc.rolling_skewness, ref.skewness),
            (pc.rolling_lag1_autocorr, ref.lag1_autocorr),
        ]:
            _assert_matches_oracle(fn(series, cfg).values, oracle, series, cfg)
        for est in pc.generalized_hurst(series, cfg):
            _assert_matches_oracle(
                est.values, ref.scaling_exponent, series, cfg, int(est.signal[3:])
            )
        _assert_matches_oracle(
            pc.anomalous_dimension(series, cfg).values, ref.scaling_exponent, series, cfg, 2
        )
        _assert_matches_oracle(
            pc.conformality_index(series, cfg).values, ref.conformality, series, cfg
        )
        panel = [series, _oracle_series(seed + 10, "b"), _oracle_series(seed + 20, "c")]
        _assert_matches_oracle(
            pc.cross_covariance(panel, cfg).values, ref.cross_covariance, panel, cfg
        )


def test_row_blocks_bound_memory_and_are_seamless():
    rng = np.random.default_rng(derive_seed(701, 0))
    series = series_from_increments(0.01 * rng.standard_normal(49_999))
    cfg = pc.WindowConfig(window=512, stride=1, tau_grid=(2, 4, 8, 16, 32))
    n_windows = len(series) - cfg.window + 1
    tracemalloc.start()
    try:
        full = pc.anomalous_dimension(series, cfg).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole float64 window matrix would take about 200 MB
    assert peak < n_windows * cfg.window * 8 / 10
    half = n_windows // 2
    first = pc.anomalous_dimension(_sub(series, 0, half + cfg.window - 1), cfg)
    second = pc.anomalous_dimension(_sub(series, half, len(series)), cfg)
    assert np.array_equal(full, np.concatenate([first.values, second.values]))
