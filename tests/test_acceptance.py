"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria follow a fixed protocol: per-seed Kendall tau of the
rolling signal against time, aggregated over 100 derived seeds, with a
one-sided Wilcoxon signed-rank test for "trend present" (p < 0.01) and a
two-sided one for "no trend" (p > 0.05). Study-level comparisons use the
report's Mann-Whitney p-values directly. All seeds are fixed, so every
run is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

import phasecrash as pc
from phasecrash.io import derive_seed, synth_corpus, write_report_json
from phasecrash.study import StudyConfig

from conftest import series_from_increments


def _report(criterion, message):
    print(f"[acceptance {criterion}] PASS: {message}")


def _trend_taus(make_series, estimator, cfg, n_seeds, master):
    taus = []
    for i in range(n_seeds):
        ews = estimator(make_series(derive_seed(master, i)), cfg)
        taus.append(pc.kendall_tau_trend(ews)[0])
    return np.array(taus)


def _wilcoxon_greater(taus):
    return stats.wilcoxon(taus, alternative="greater").pvalue


def _wilcoxon_two_sided(taus):
    return stats.wilcoxon(taus).pvalue


# ---------------------------------------------------------------------- 1


def test_criterion_1_noise_generators():
    t0 = time.monotonic()
    # structure-function estimate recovers H within 0.08 (100 seeds, w=1024)
    cfg = pc.WindowConfig(window=1024, stride=1, tau_grid=(2, 4, 8, 16, 32))
    for h in (0.3, 0.5, 0.7):
        vals = []
        for i in range(100):
            inc = pc.synth_fbm(1024, pc.HurstSchedule(h), 1.0, derive_seed(50_000, i)).increments
            vals.append(pc.anomalous_dimension(series_from_increments(inc), cfg).values[0])
        assert abs(np.mean(vals) - h) <= 0.08, f"H={h}: mean {np.mean(vals)}"

    # alpha = 2 is Gaussian with variance 2*scale^2*dt
    p = pc.sample_alpha_stable(100_000, pc.StableSchedule(2.0, scale=1.0), 1.0, 7)
    gauss = np.random.default_rng(123).standard_normal(100_000) * math.sqrt(2.0)
    assert stats.ks_2samp(p.increments, gauss).pvalue > 0.01

    # stability under addition at m = 50000: sum of 2m ~ 2**(1/a) * sum of m
    for alpha in (1.2, 1.5):
        sch = pc.StableSchedule(alpha, scale=1.0)
        m, reps = 50_000, 300
        u = np.array(
            [pc.sample_alpha_stable(2 * m, sch, 1.0, derive_seed(5, i)).increments.sum()
             for i in range(reps)]
        )
        v = 2 ** (1.0 / alpha) * np.array(
            [pc.sample_alpha_stable(m, sch, 1.0, derive_seed(6, i)).increments.sum()
             for i in range(reps)]
        )
        assert stats.ks_2samp(u, v).pvalue > 0.01, f"alpha={alpha}"

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"fBM recovery, alpha=2 KS, stability-in-addition ({elapsed:.1f}s)")


# ---------------------------------------------------------------------- 2


def test_criterion_2_lppl_roundtrip():
    t0 = time.monotonic()
    true = pc.LpplParams(A=7.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=550.0)
    t = np.arange(500.0)
    clean = pc.lppl_log_price(true, t)

    fit = pc.fit_lppl(pc.PriceSeries(t, clean, "clean"))
    assert abs(fit.params.tc - 550.0) <= 1.0
    assert abs(fit.params.m - 0.5) <= 0.02
    assert abs(fit.params.omega - 8.0) <= 0.1

    hits = 0
    for i in range(100):
        rng = np.random.default_rng(derive_seed(31_337, i))
        noisy = clean + 0.01 * rng.standard_normal(500)
        f = pc.fit_lppl(pc.PriceSeries(t, noisy, "noisy"))
        hits += abs(f.params.tc - 550.0) <= 10.0
    assert hits >= 90, f"only {hits}/100 noisy fits inside +-10"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(2, f"noiseless exact, noisy {hits}/100 within +-10 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------- 3


def test_criterion_3_linear_subproblem_optimality():
    rng = np.random.default_rng(derive_seed(333, 0))
    true = pc.LpplParams(A=5.0, B=-0.4, C1=0.04, C2=-0.02, m=0.5, omega=9.0, tc=620.0)
    t = np.arange(500.0)
    for instance in range(50):
        if instance % 2 == 0:
            y = pc.lppl_log_price(true, t) + 0.02 * rng.standard_normal(500)
        else:
            y = np.cumsum(0.01 * rng.standard_normal(500))
        series = pc.PriceSeries(t, y, f"inst{instance}")
        tc = float(rng.uniform(505.0, 750.0))
        m = float(rng.uniform(0.1, 0.9))
        omega = float(rng.uniform(2.0, 25.0))
        A, B, C1, C2, ssr = pc.solve_linear_params(tc, m, omega, series)
        beta = np.array([A, B, C1, C2])
        tail = tc - t
        f = tail**m
        phase = omega * np.log(tail)
        basis = np.column_stack([np.ones_like(f), f, f * np.cos(phase), f * np.sin(phase)])
        scale = 1e-3 * (np.abs(beta) + 1e-2)
        for _ in range(1000):
            pert = beta + rng.uniform(-1.0, 1.0, 4) * scale
            resid = y - basis @ pert
            assert resid @ resid > ssr
    _report(3, "least-squares beat 1000 random perturbations on 50 instances")


# ---------------------------------------------------------------------- 4


def test_criterion_4_simulator_oracles():
    # zero-noise Euler path vs a 4th-order Runge-Kutta oracle
    def rk4(f, x0, n, dt):
        x = x0
        for _ in range(n):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        return x

    mu = pc.MuSchedule(0.2)
    params = pc.CptParams(r=1.0, mu_schedule=mu, sigma=0.0, p0=1.5)
    drift = lambda x: -0.2 + x - x**3
    # short transient at fine step, and the settled state at n*dt = 20
    path = pc.simulate_cpt(params, 5000, 1e-4, 1)
    assert abs(path.values[-1] - rk4(drift, 1.5, 500, 1e-3)) < 1e-4
    path = pc.simulate_cpt(params, 2000, 0.01, 1)
    assert abs(path.values[-1] - rk4(drift, 1.5, 2000, 0.01)) < 1e-4

    # fold location against the root-finding oracle
    p_fold = brentq(lambda p: 1.0 - 3 * p**2, 0.0, 1.0)
    mu_star = 1.0 * p_fold - p_fold**3
    assert abs(mu_star - (2.0 / 3.0) * math.sqrt(1.0 / 3.0)) < 1e-12
    n = 70_000
    ramp = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.37, 0.40), sigma=0.0, p0=1.0)
    path = pc.simulate_cpt(ramp, n, 0.01, 1)
    mus = ramp.mu_schedule.values(n)
    cross = int(np.argmax(path.values[1:] < 0.0))
    assert path.values[1:][cross] < 0.0
    rel_err = abs(mus[cross] - mu_star) / mu_star
    assert rel_err < 0.02, f"fold detected at relative error {rel_err:.4f}"
    _report(4, f"RK4 oracle match, fold within {100 * rel_err:.2f}% of mu*")


# ---------------------------------------------------------------------- 5


def test_criterion_5_ews_signature_matrix(dpt_hurst_trend_taus):
    t0 = time.monotonic()
    moment_cfg = pc.WindowConfig(window=150, stride=15, tau_grid=(2, 4, 8, 16))
    scaling_cfg = pc.WindowConfig(window=512, stride=128, tau_grid=(2, 4, 8, 16, 32), orders=(1,))

    # critical route: integrate fine, observe every 20th point
    cpt = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=0.03, p0=1.0)
    cpt_series = lambda seed: pc.simulate_cpt(cpt, 40_000, 0.02, seed).to_price_series(
        "cpt", sample_every=20
    )
    acf = _trend_taus(cpt_series, pc.rolling_lag1_autocorr, moment_cfg, 100, 11)
    vol = _trend_taus(cpt_series, pc.rolling_volatility, moment_cfg, 100, 11)
    assert _wilcoxon_greater(acf) < 0.01, "CPT lag-1 autocorrelation must trend up"
    assert _wilcoxon_greater(vol) < 0.01, "CPT volatility must trend up"
    cpt_msg = f"CPT acf {acf.mean():+.2f} vol {vol.mean():+.2f}"

    # stochastic route: growing volatility, no autocorrelation drift
    spt = pc.SptParams(r=1.0, lam=1.0, alpha_vol=0.008, p0=1.0)
    spt_series = lambda seed: pc.simulate_spt(spt, 10_000, 0.01, seed).to_price_series("spt")
    vol = _trend_taus(spt_series, pc.rolling_volatility, moment_cfg, 100, 202)
    acf = _trend_taus(spt_series, pc.rolling_lag1_autocorr, moment_cfg, 100, 202)
    assert _wilcoxon_greater(vol) < 0.01, "SPT volatility must trend up"
    assert _wilcoxon_two_sided(acf) > 0.05, "SPT autocorrelation must be trendless"
    spt_msg = f"SPT vol {vol.mean():+.2f} acf {acf.mean():+.2f}"

    # dynamic route, fat-tail family: independent increments keep the
    # autocorrelation flat while the order-1 exponent tracks 1/alpha
    dpt_a = pc.DptParams(pc.StableSchedule(2.0, 1.2, scale=0.01), scale=1.0)
    dpta_series = lambda seed: pc.simulate_dpt(dpt_a, 4096, 1.0, seed).to_price_series("dpta")
    ghe1 = _trend_taus(
        dpta_series,
        lambda s, cfg: pc.generalized_hurst(s, cfg)[0],
        scaling_cfg,
        100,
        303,
    )
    acf = _trend_taus(dpta_series, pc.rolling_lag1_autocorr, moment_cfg, 100, 303)
    assert _wilcoxon_greater(ghe1) < 0.01, "DPT(alpha) order-1 exponent must trend up"
    assert _wilcoxon_two_sided(acf) > 0.05, "DPT(alpha) autocorrelation must be trendless"
    dpta_msg = f"DPT-a ghe1 {ghe1.mean():+.2f} acf {acf.mean():+.2f}"

    # dynamic route, Hurst family: the anomalous-dimension estimator rises
    # (its increments are genuinely autocorrelated, so the flat-ACF claim
    # belongs to the fat-tail family above)
    assert _wilcoxon_greater(dpt_hurst_trend_taus) < 0.01
    dpth_msg = f"DPT-H delta {dpt_hurst_trend_taus.mean():+.2f}"

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 600s"
    _report(5, f"{cpt_msg} | {spt_msg} | {dpta_msg} | {dpth_msg} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------- 6


def test_criterion_6_multivariate_cross_covariance():
    k = 10
    coupling = tuple(tuple(1.0 if i == j else 0.5 for j in range(k)) for i in range(k))
    params = pc.MultiParams(
        r=(1.0,) * k,
        lam=(1.0,) * k,
        mu_schedule=pc.MuSchedule(0.0, 0.36),
        sigma=(0.03,) * k,
        coupling=coupling,
        p0=(1.0,) * k,
    )
    cfg = pc.WindowConfig(window=150, stride=15, tau_grid=(2, 4, 8, 16))
    taus = []
    for i in range(100):
        paths = pc.simulate_multivariate(params, 20_000, 0.02, derive_seed(22, i))
        panel = [p.to_price_series(f"a{j}", sample_every=10) for j, p in enumerate(paths)]
        taus.append(pc.kendall_tau_trend(pc.cross_covariance(panel, cfg))[0])
    p = _wilcoxon_greater(np.array(taus))
    assert p < 0.01
    _report(6, f"cross-covariance tau {np.mean(taus):+.3f}, p {p:.2e}")


# ---------------------------------------------------------------------- 7


def _study_corpus(kind, seed):
    crash_group = {
        "kind": kind,
        "count": 20,
        "n": 2520,
        "params": {"onset": 0.7, "scale": 0.0015},
        "forced_drop": 0.25,
        "drop_len": 40,
        "id_prefix": "C",
    }
    control_group = {
        "kind": "bm",
        "count": 20,
        "n": 2560,
        "params": {"sigma": 0.001},
        "id_prefix": "B",
    }
    return synth_corpus({"groups": [crash_group, control_group]}, seed)


def _study_cfg():
    return StudyConfig(
        crash_threshold=0.20,
        lookback=126,
        pre_crash_window=756,
        exclusion_margin=504,
        signals=("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "ghe1"),
        ews_cfg=pc.WindowConfig(window=126, stride=10, tau_grid=(2, 4, 8, 16), orders=(1,)),
    )


def test_criterion_7_study_pipeline(tmp_path):
    cfg = _study_cfg()

    # fat-tail corpus: order-1 exponent discriminates, volatility weakly
    # positive, lag-1 autocorrelation inconclusive
    alpha_corpus = _study_corpus("dpt_stable", 4101)
    rep_a = pc.run_study(alpha_corpus, cfg)
    ghe1 = rep_a.signals["ghe1"]
    assert ghe1.mean_tau_pre > ghe1.mean_tau_normal
    assert ghe1.p_value < 0.01
    vol = rep_a.signals["volatility"]
    assert vol.mean_tau_pre > vol.mean_tau_normal
    assert vol.p_value < 0.05
    acf = rep_a.signals["lag1_autocorr"]
    assert acf.p_value > 0.1

    # Hurst corpus: the anomalous-dimension estimator discriminates
    hurst_corpus = _study_corpus("dpt_hurst", 4102)
    rep_h = pc.run_study(hurst_corpus, cfg)
    delta = rep_h.signals["anomalous_dim"]
    assert delta.mean_tau_pre > delta.mean_tau_normal
    assert delta.p_value < 0.01

    # determinism: identical corpora and byte-identical serialised reports
    rep_a2 = pc.run_study(_study_corpus("dpt_stable", 4101), cfg)
    assert rep_a.to_dict() == rep_a2.to_dict()
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    write_report_json(rep_a, f1)
    write_report_json(rep_a2, f2)
    assert open(f1, "rb").read() == open(f2, "rb").read()

    _report(
        7,
        "alpha corpus: ghe1 pre {:+.2f} vs {:+.2f} (p {:.1e}), vol p {:.1e}, "
        "acf p {:.2f}; hurst corpus: delta pre {:+.2f} vs {:+.2f} (p {:.1e})".format(
            ghe1.mean_tau_pre,
            ghe1.mean_tau_normal,
            ghe1.p_value,
            vol.p_value,
            acf.p_value,
            delta.mean_tau_pre,
            delta.mean_tau_normal,
            delta.p_value,
        ),
    )


# ---------------------------------------------------------------------- 8


def test_criterion_8_crash_detector_fixtures():
    cfg = StudyConfig(
        lookback=126,
        pre_crash_window=64,
        signals=("volatility", "skewness", "lag1_autocorr"),
        ews_cfg=pc.WindowConfig(window=16, tau_grid=(2,)),
    )

    def series(levels):
        lp = np.log(np.asarray(levels, dtype=float))
        return pc.PriceSeries(np.arange(lp.size, dtype=float), lp, "fix")

    flat = [100.0] * 130
    assert len(pc.detect_crashes(series(flat + [79.0] * 5), cfg)) == 1  # 21%
    assert len(pc.detect_crashes(series(flat + [80.1] * 5), cfg)) == 0  # 19.9%
    assert len(pc.detect_crashes(series(flat + [80.0] * 5), cfg)) == 1  # exactly 20%

    base = flat + [79.0] * 5
    scaled = [3.7 * x for x in base]
    ev_a = pc.detect_crashes(series(base), cfg)
    ev_b = pc.detect_crashes(series(scaled), cfg)
    assert [(e.peak_index, e.trough_index) for e in ev_a] == [
        (e.peak_index, e.trough_index) for e in ev_b
    ]
    assert ev_a[0].drawdown == pytest.approx(ev_b[0].drawdown, abs=1e-9)
    _report(8, "21% -> 1, 19.9% -> 0, 20.000% -> 1, scale-invariant")


# ---------------------------------------------------------------------- 9


def test_criterion_9_estimator_unit_oracles():
    e = pc.EwsSeries(np.arange(4.0), np.array([1.0, 2.0, 2.0, 3.0]), "s")
    tau, _ = pc.kendall_tau_trend(e, min_points=4)
    assert abs(tau - 5.0 / math.sqrt(30.0)) < 1e-12

    skew_series = series_from_increments(np.array([-3.0, 1.0, 1.0, 1.0]))
    cfg = pc.WindowConfig(window=4, stride=1, tau_grid=(2,))
    skew = pc.rolling_skewness(skew_series, cfg).values[0]
    assert abs(skew - (-2.0)) < 1e-12

    acf_series = series_from_increments(np.tile([1.0, -1.0], 10))
    cfg = pc.WindowConfig(window=10, stride=1, tau_grid=(2,))
    acf = pc.rolling_lag1_autocorr(acf_series, cfg).values
    assert np.all(np.abs(acf - (-1.0)) < 1e-12)
    _report(9, "tau-b = 5/sqrt(30), skewness = -2, alternating acf = -1")
