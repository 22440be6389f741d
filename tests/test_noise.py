import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import phasecrash as pc
from phasecrash import noise
from phasecrash.errors import GenerationError
from phasecrash.io import derive_seed

import noise_reference
from conftest import fresh_python, readme_json_blocks, series_from_increments


# ---------------------------------------------------------------- gaussian


def test_gaussian_determinism():
    a = pc.sample_gaussian_increments(1000, 1.0, 12345)
    b = pc.sample_gaussian_increments(1000, 1.0, 12345)
    assert np.array_equal(a.increments, b.increments)
    c = pc.sample_gaussian_increments(1000, 1.0, 12346)
    assert not np.array_equal(a.increments, c.increments)


@pytest.mark.parametrize("dt", [1.0, 0.01])
def test_gaussian_variance(dt):
    # chi-square 3-sigma band for the sample variance of 1e5 normals
    p = pc.sample_gaussian_increments(100_000, dt, 42)
    assert 0.97 * dt < p.increments.var(ddof=1) < 1.03 * dt


def test_gaussian_invalid_args():
    with pytest.raises(ValueError):
        pc.sample_gaussian_increments(0, 1.0, 1)
    with pytest.raises(ValueError):
        pc.sample_gaussian_increments(10, 0.0, 1)
    with pytest.raises(ValueError):
        pc.sample_gaussian_increments(10, 1.0, -1)


# ------------------------------------------------------------- alpha-stable


def test_stable_alpha2_is_gaussian():
    p = pc.sample_alpha_stable(100_000, pc.StableSchedule(2.0, scale=1.0), 1.0, 7)
    rng = np.random.default_rng(123)
    gauss = rng.standard_normal(100_000) * np.sqrt(2.0)  # alpha=2 variance 2*scale^2*dt
    assert stats.ks_2samp(p.increments, gauss).pvalue > 0.01


def test_stable_alpha1_cauchy_iqr():
    # standard Cauchy quartiles are +-1, so IQR = 2*scale*dt
    p = pc.sample_alpha_stable(200_000, pc.StableSchedule(1.0, scale=1.0), 1.0, 7)
    q75, q25 = np.percentile(p.increments, [75, 25])
    assert abs((q75 - q25) - 2.0) < 0.05


def test_stable_alpha15_tail_matches_integration_oracle():
    # oracle: Gil-Pelaez inversion of the characteristic function exp(-u^1.5)
    x = 10.0
    tail = 0.5 - quad(
        lambda u: np.sin(u * x) * np.exp(-(u**1.5)) / u, 0, np.inf, limit=200
    )[0] / np.pi
    expected = 2.0 * tail
    p = pc.sample_alpha_stable(100_000, pc.StableSchedule(1.5, scale=1.0), 1.0, 99)
    frac = np.mean(np.abs(p.increments) > x)
    assert abs(frac - expected) / expected < 0.20


def test_stable_schedule_validation():
    with pytest.raises(ValueError):
        pc.StableSchedule(0.0)
    with pytest.raises(ValueError):
        pc.StableSchedule(2.2)
    for scale in (-1e-300, np.nan, np.inf):
        with pytest.raises(ValueError, match="scale"):
            pc.StableSchedule(1.5, scale=scale)
    with pytest.raises(ValueError):
        pc.sample_alpha_stable(10, pc.HurstSchedule(0.5), 1.0, 1)


@pytest.mark.parametrize("alpha", [1.2, 1.5])
def test_stable_stability_under_addition(alpha):
    # sum of 2m draws has the law of 2**(1/alpha) times a sum of m draws
    m, reps = 5000, 300
    sch = pc.StableSchedule(alpha, scale=1.0)
    u = np.array(
        [
            pc.sample_alpha_stable(2 * m, sch, 1.0, derive_seed(5, i)).increments.sum()
            for i in range(reps)
        ]
    )
    v = 2 ** (1.0 / alpha) * np.array(
        [
            pc.sample_alpha_stable(m, sch, 1.0, derive_seed(6, i)).increments.sum()
            for i in range(reps)
        ]
    )
    assert stats.ks_2samp(u, v).pvalue > 0.01


def test_stable_scale_and_dt_scaling():
    a = pc.sample_alpha_stable(1000, pc.StableSchedule(1.5, scale=1.0), 1.0, 3)
    b = pc.sample_alpha_stable(1000, pc.StableSchedule(1.5, scale=2.0), 1.0, 3)
    assert np.allclose(2.0 * a.increments, b.increments)


@pytest.mark.parametrize(
    "schedule", [pc.StableSchedule(2.0, 1.2, t_start=100, scale=0.5), pc.StableSchedule(1.5)],
    ids=["ramp", "constant"],
)
def test_stable_step_scale_is_set_by_alpha_start(schedule):
    # every step is scaled by scale * dt**(1/alpha_start), so dt scales a
    # path and does not tilt its volatility along the ramp
    n, seed = 1000, 8
    unit = pc.sample_alpha_stable(n, schedule, 1.0, seed).increments
    for dt in (1 / 252, 0.5, 100.0):
        got = pc.sample_alpha_stable(n, schedule, dt, seed).increments
        assert np.allclose(got, unit * dt ** (1 / schedule.start), rtol=1e-14, atol=0), dt
    # where the per-step dt**(1/alpha_i) rule agrees with it, at dt 1 and
    # for a constant schedule at any dt, the bits are that rule's, op for op
    rng = np.random.default_rng(seed)
    alpha = schedule.values(n)
    u = (rng.random(n) - 0.5) * np.pi
    e = rng.standard_exponential(n)
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
        np.cos((1.0 - alpha) * u) / e
    ) ** ((1.0 - alpha) / alpha)
    for dt in (1.0, 1 / 252) if schedule.is_constant() else (1.0,):
        got = pc.sample_alpha_stable(n, schedule, dt, seed).increments
        assert np.array_equal(got, schedule.scale * dt ** (1.0 / alpha) * x), dt


# ---------------------------------------------------------------------- fbm


def test_fbm_h05_uncorrelated_increments():
    p = pc.synth_fbm(10_000, pc.HurstSchedule(0.5), 1.0, 11)
    r = p.increments
    assert abs(np.corrcoef(r[:-1], r[1:])[0, 1]) < 0.02


def test_fbm_h07_lag1_autocorrelation():
    # fractional Gaussian noise: rho_1 = 2**(2H-1) - 1
    expected = 2 ** (2 * 0.7 - 1) - 1
    p = pc.synth_fbm(10_000, pc.HurstSchedule(0.7), 1.0, 11)
    r = p.increments
    assert abs(np.corrcoef(r[:-1], r[1:])[0, 1] - expected) < 0.03


def test_fbm_variance_slope():
    t_idx = np.array([16, 32, 64, 128, 256, 512, 1024])
    paths = np.array(
        [
            pc.synth_fbm(1024, pc.HurstSchedule(0.7), 1.0, derive_seed(12, i)).path()[t_idx]
            for i in range(200)
        ]
    )
    slope = np.polyfit(np.log(t_idx), np.log(paths.var(axis=0, ddof=1)), 1)[0]
    assert abs(slope - 1.4) < 0.1


@pytest.mark.parametrize("lam", [2, 4])
def test_fbm_self_similarity(lam):
    anchors = np.array([128, 256, 512])
    paths = np.array(
        [
            pc.synth_fbm(2048, pc.HurstSchedule(0.7), 1.0, derive_seed(13, i)).path()
            for i in range(600)
        ]
    )
    ratio = np.mean(
        paths[:, lam * anchors].var(axis=0) / paths[:, anchors].var(axis=0)
    )
    assert abs(ratio / lam**1.4 - 1.0) < 0.10


def test_fbm_dt_scaling():
    a = pc.synth_fbm(500, pc.HurstSchedule(0.7), 1.0, 9)
    b = pc.synth_fbm(500, pc.HurstSchedule(0.7), 0.25, 9)
    assert np.allclose(a.increments * 0.25**0.7, b.increments)


def test_fbm_davies_harte_large_n():
    # a long circulant-embedding draw keeps the fGn marginal statistics
    p = pc.synth_fbm(8192, pc.HurstSchedule(0.7), 1.0, 5)
    r = p.increments
    expected = 2**0.4 - 1
    assert abs(np.corrcoef(r[:-1], r[1:])[0, 1] - expected) < 0.04
    assert abs(r.var() - 1.0) < 0.06
    assert np.array_equal(
        r, pc.synth_fbm(8192, pc.HurstSchedule(0.7), 1.0, 5).increments
    )


def test_fbm_davies_harte_eigenvalues_positive():
    # every circulant eigenvalue is positive (a weight is zero exactly when
    # its eigenvalue is not), so no H or length needs another method
    weights = noise._fgn_embedding_weights
    for h in np.linspace(0.001, 0.999, 37):
        for n in (1, 2, 3, 5, 64, 1000, 2520, 4096, 4097, 20_000):
            w = weights(float(h), n)
            assert w.size == 2 * n
            assert np.all(w > 0), (h, n)


def test_fbm_negative_embedding_raises(monkeypatch):
    # an autocovariance that is not positive definite cannot be embedded
    bad = lambda n_lags, h: np.r_[1.0, np.full(n_lags, 2.0)]
    monkeypatch.setattr(noise, "_fgn_autocov", bad)
    with pytest.raises(GenerationError, match="eigenvalue"):
        pc.synth_fbm(64, pc.HurstSchedule(0.7), 1.0, 1)


def test_fbm_ramped_hurst_has_no_step_cap():
    # any length draws; the cold draw peaks at 2.56 times the basis it
    # caches (7.7 MiB over 3.0 MiB measured), and 100,000 steps at 92 MiB
    sch, n = pc.HurstSchedule(0.5, 0.9), 8193
    noise._hurst_basis.cache_clear()
    tracemalloc.start()
    try:
        p = pc.synth_fbm(n, sch, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights, coef = noise._hurst_basis(sch, n)
    assert len(p) == n and np.all(np.isfinite(p.increments))
    assert peak <= 2.75 * (weights.nbytes + coef.nbytes)


@pytest.mark.parametrize(
    "n, t_start",
    [(2, 0), (3, 0), (64, 0), (129, 0), (1000, 0), (1000, 1), (1000, 500), (1000, 997),
     (1000, 998), (2048, 0), (2520, 1764), (4097, 0)],
)
def test_hurst_basis_holds_unit_variance_weights_for_every_step(n, t_start):
    # the cache keeps _HURST_NODES x 2n weights and n x _HURST_NODES
    # coefficients, whatever the ramp; each step's interpolated weights
    # have unit sum of squares, and a step on a node takes that node alone
    nodes = noise._HURST_NODES
    sch = pc.HurstSchedule(0.5, 0.9, t_start=t_start)
    weights, coef = noise._hurst_basis.__wrapped__(sch, n)
    assert weights.shape == (nodes, 2 * n) and coef.shape == (n, nodes)
    h = sch.values(n)
    assert np.array_equal(coef[h == 0.5], np.tile(np.eye(nodes)[-1], (np.sum(h == 0.5), 1)))
    assert np.array_equal(coef[-1], np.eye(nodes)[0])
    step_weights = np.einsum("rp,pk->rk", coef, weights)
    assert np.abs((step_weights**2).sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize(
    "n, schedule, peak_mb",
    [(2048, pc.HurstSchedule(0.6, 0.9), 3.3),  # no Brownian head
     (2520, pc.HurstSchedule(0.5, 0.9, t_start=1764), 2.75)],  # the README crash asset
)
def test_cold_hurst_draw_peak(n, schedule, peak_mb):
    # measured 2.99 and 2.48 MiB
    noise._hurst_basis.cache_clear()
    tracemalloc.start()
    try:
        pc.synth_fbm(n, schedule, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_mb * 2**20


def _peak_rss_growth(statement, setup=""):
    """Bytes by which ``statement``, run after ``setup``, raises the peak
    RSS of a fresh interpreter, and what it prints. The peak is VmHWM, that of the
    process's own address space: Linux carries a parent's RSS into
    ru_maxrss across fork and exec, so a child of a large test process
    reads no growth there."""
    code = (
        "import phasecrash as pc\n"
        "from phasecrash import noise\n"
        f"{setup}\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        f"{statement}\n"
        "print(hwm() - before)\n"
    )
    *printed, grown_kb = fresh_python(code).splitlines()
    return int(grown_kb) * 1024, "\n".join(printed)  # VmHWM is in kB


def test_cold_hurst_draw_grows_rss_by_under_12_mb():
    # n = 2048 with no Brownian head; measured 8.4-8.7 MiB, most of it
    # numpy's FFT set-up
    grown, _ = _peak_rss_growth("pc.synth_fbm(2048, pc.HurstSchedule(0.6, 0.9), 1.0, 1)")
    assert grown < 12 * 2**20


def test_readme_corpus_grows_rss_by_under_12_mb():
    # the README spec: 20 dpt_hurst assets and 20 bm assets; measured 5.5 MiB
    spec = readme_json_blocks()["spec.json"]
    grown, _ = _peak_rss_growth(
        "synth_corpus(spec, 7)",
        setup=f"import json\nfrom phasecrash.io import synth_corpus\nspec = json.loads({spec!r})",
    )
    assert grown < 12 * 2**20


@pytest.mark.parametrize(
    "n, schedule",
    [(2520, pc.HurstSchedule(0.5, 0.9, t_start=1764)),  # the README crash asset
     (600, pc.HurstSchedule(0.6, 0.9, t_start=200)),  # no Brownian head
     (1000, pc.HurstSchedule(0.8, 0.4, t_start=300)),  # falling
     (500, pc.HurstSchedule(0.7))],  # Davies-Harte
)
def test_fbm_group_draw_is_each_seed_drawn_alone(n, schedule):
    seeds = [derive_seed(33, j) for j in range(5)]
    noise._hurst_basis.cache_clear()
    alone = [pc.synth_fbm(n, schedule, 1.0, s).increments for s in seeds]  # first one cold
    noise._hurst_basis.cache_clear()
    cold = pc.synth_fbm(n, schedule, 1.0, seeds)
    warm = pc.synth_fbm(n, schedule, 1.0, seeds)
    reversed_ = pc.synth_fbm(n, schedule, 1.0, seeds[::-1])[::-1]
    for paths in (cold, warm, reversed_):
        assert isinstance(paths, list) and len(paths) == len(seeds)
        assert all(np.array_equal(p.increments, a) for p, a in zip(paths, alone))
    one = pc.synth_fbm(n, schedule, 1.0, seeds[2])
    assert isinstance(one, pc.NoisePath) and np.array_equal(one.increments, alone[2])


def test_fbm_seed_sequence_is_checked_seed_by_seed():
    sch = pc.HurstSchedule(0.5, 0.9, t_start=32)
    assert pc.synth_fbm(64, sch, 1.0, []) == []
    assert len(pc.synth_fbm(64, sch, 1.0, range(3))) == 3
    for bad in ([1, -1], [1, 2.0], (True,), [noise.MAX_SEED + 1]):
        with pytest.raises(ValueError, match="seed"):
            pc.synth_fbm(64, sch, 1.0, bad)
    for bad in (1.0, "7", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            pc.synth_fbm(64, sch, 1.0, bad)


def _assert_matches_oracle(n, sch, seeds, bound, dts=(1.0,)):
    """``synth_fbm`` against the exact per-row oracle: within ``bound`` a
    unit increment, and a step whose H is ``h_start`` or ``h_end`` is the
    constant-H draw at that H, to the bit."""
    want = noise_reference.ramped_increments(sch, n, seeds)
    h = sch.values(n)
    for dt in dts:
        scale = dt**sch.start
        for s, ref in zip(seeds, want):
            got = pc.synth_fbm(n, sch, dt, s).increments
            assert np.abs(got / scale - ref).max() <= bound, (dt, s)
            for end in (sch.start, sch.end):
                at = h == end
                flat = noise._fgn_constant(end, n, np.random.default_rng(s)) * scale
                assert np.array_equal(got[at], flat[at]), (dt, s, end)


# the exact per-row oracle against the interpolated draw, at 16 nodes, over
# 8 seeds: 1.3e-8 (README), 6.5e-9 (no head), 2.5e-10 (falling) and 4.2e-5
# (0.1 -> 0.95); a 0.05 -> 0.99 ramp reads 4e-3
@pytest.mark.parametrize(
    "n, schedule, bound",
    [(2520, pc.HurstSchedule(0.5, 0.9, t_start=1764), 1e-7),
     (2048, pc.HurstSchedule(0.6, 0.9), 5e-8),
     (1000, pc.HurstSchedule(0.8, 0.4, t_start=300), 2e-9),
     (2420, pc.HurstSchedule(0.1, 0.95), 2e-4)],
    ids=["readme", "no-head", "falling", "wide"],
)
def test_ramped_hurst_matches_per_row_oracle(n, schedule, bound):
    _assert_matches_oracle(n, schedule, [derive_seed(61, i) for i in range(8)], bound)


_ORACLE_GRID = sorted(
    {(n, t) for n in (1, 2, 64, 400, 1000, 2520) for t in (0, 1, n // 2, n - 1, n, n + 2)}
)


@pytest.mark.parametrize("n, t_start", _ORACLE_GRID)
def test_ramped_hurst_matches_per_row_oracle_on_a_grid(n, t_start):
    # ramps of every length from none to the whole path, with a head at
    # H 0.5 or 0.6; measured 1.5e-8 at most (at n = 2520)
    for h_start in (0.5, 0.6):
        sch = pc.HurstSchedule(h_start, 0.9, t_start=t_start)
        _assert_matches_oracle(n, sch, [5, 6], 5e-8, dts=(0.25, 1.0, 2.0))


@pytest.mark.parametrize(
    "h_start, n", [(0.5, 250), (0.5, 500), (0.5, 1000), (0.5, 2520), (0.6, 500), (0.6, 1000)]
)
def test_steep_ramps_draw_what_the_oracle_draws(h_start, n):
    # ramps over the last 10% to 0.1% of the path, down to 3 steps, have a
    # Gaussian law like any other. Measured 6.5e-7 at most, at n = 2520
    # (3.2e-7 at n = 250, 1.0e-7 with a head at H 0.6)
    for h_end in (0.9, 0.95):
        for onset in (0.9, 0.95, 0.98, 0.985, 0.99, 0.995, 0.998, 0.999):
            sch = pc.HurstSchedule(h_start, h_end, t_start=int(onset * n))
            _assert_matches_oracle(n, sch, [1], 3e-6)


def test_a_jump_in_h_draws_the_two_constant_paths():
    # H jumps from 0.5 to 0.9 in one step after a long Brownian head: every
    # step is on a node, so the path is the two constant-H draws spliced
    sch = pc.HurstSchedule(0.5, 0.9, t_start=254)
    _assert_matches_oracle(256, sch, [1, 2], 1e-14)


@pytest.mark.parametrize(
    "h, n, dt", [(0.5, 1, 1.0), (0.1, 257, 1.0), (0.3, 64, 0.25), (0.7, 2520, 1.0),
                 (0.9, 1000, 2.0), (0.95, 2048, 0.5), (0.7, 4097, 1 / 252)],
)
def test_constant_hurst_keeps_its_davies_harte_bits(h, n, dt):
    # the constant-H draw is unchanged: op for op the circulant embedding,
    # its complex normal vector, one FFT and the dt**h scale; a ramp that
    # never leaves its start draws it too
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.abs(k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
    row = np.concatenate([gamma[:n], [gamma[n]], gamma[1:n][::-1]])
    w = np.sqrt(np.clip(np.fft.fft(row).real, 0.0, None) / row.size)
    z = np.random.default_rng(3).standard_normal(2 * w.size)
    want = np.fft.fft(w * (z[: w.size] + 1j * z[w.size :])).real[:n] * dt**h
    for sch in (pc.HurstSchedule(h), pc.HurstSchedule(h, 0.95, t_start=n - 1)):
        assert np.array_equal(pc.synth_fbm(n, sch, dt, 3).increments, want), sch


def _last_increment_sd(n, schedule, dt, seeds, step=-1):
    incs = np.array([p.increments[step] for p in pc.synth_fbm(n, schedule, dt, seeds)])
    return incs.std(ddof=1) / dt**schedule.start


@pytest.mark.parametrize(
    "n, sch",
    [(2520, pc.HurstSchedule(0.5, 0.9, t_start=1764)),
     (2048, pc.HurstSchedule(0.6, 0.9)),
     (1000, pc.HurstSchedule(0.8, 0.4, t_start=300)),
     (2420, pc.HurstSchedule(0.1, 0.95))],
    ids=["readme", "no-head", "falling", "wide"],
)
def test_ramped_hurst_increments_have_unit_variance_at_any_dt(n, sch):
    # the last increment. Each dt scales the same unit draw, so all three
    # dts read the same sd: measured 1.04 (README), 0.99 (no head), 0.98
    # (falling) and 1.02 (0.1 -> 0.95)
    seeds = [derive_seed(40, i) for i in range(200)]
    sds = [_last_increment_sd(n, sch, dt, seeds) for dt in (1 / 252, 1.0, 100.0)]
    assert all(0.9 <= sd <= 1.1 for sd in sds), sds


@pytest.mark.parametrize("step", [-1, -378], ids=["last", "mid-ramp"])
def test_ramped_hurst_law_does_not_depend_on_where_the_path_starts(step):
    # the same 756-step ramp at the end of a 1,000- and a 5,000-step path;
    # measured 1.03 and 1.03 at the last step, 0.97 and 1.04 mid-ramp. Two
    # sds of 200 draws each differ by 0.07 at one standard error
    seeds = [derive_seed(41, i) for i in range(200)]
    sds = [_last_increment_sd(n, pc.HurstSchedule(0.5, 0.9, t_start=n - 756), 1.0, seeds, step)
           for n in (1000, 5000)]
    assert all(0.9 <= sd <= 1.1 for sd in sds) and abs(sds[0] - sds[1]) < 0.15, sds


def test_fbm_time_varying_determinism():
    sch = pc.HurstSchedule(0.5, 0.9)
    a = pc.synth_fbm(256, sch, 1.0, 21)
    b = pc.synth_fbm(256, sch, 1.0, 21)
    assert np.array_equal(a.increments, b.increments)


def test_monotone_hurst_schedule_trend(dpt_hurst_trend_taus):
    # windowed scaling-exponent estimates rise along the ramp
    p = stats.wilcoxon(dpt_hurst_trend_taus, alternative="greater").pvalue
    assert p < 0.01
    assert np.mean(dpt_hurst_trend_taus > 0) > 0.9


def test_hurst_schedule_validation():
    with pytest.raises(ValueError):
        pc.HurstSchedule(0.0)
    with pytest.raises(ValueError):
        pc.HurstSchedule(0.5, 1.0)
    with pytest.raises(ValueError):
        pc.HurstSchedule(0.5, ramp="quadratic")
    with pytest.raises(ValueError):
        pc.synth_fbm(10, pc.StableSchedule(1.5), 1.0, 1)


# ------------------------------------------------------------------ ramp


def _ramp_oracle(start, end, t_start, n):
    end = start if end is None else end
    i = np.arange(n)
    # a span of one step is just ``start`` at t_start: guard the 0/0
    frac = np.clip((i - t_start) / max(n - 1 - t_start, 1), 0.0, 1.0)
    return start + (end - start) * frac


@pytest.mark.parametrize(
    "start, end, t_start, n",
    [
        (0.5, 0.9, 0, 5),  # whole path
        (2.0, 1.2, 4, 10),  # flat, then ramp to the end of the path
        (0.5, 0.9, 12, 10),  # t_start >= n: flat at start
        (0.5, 0.9, 10, 10),
        (0.5, 0.9, 7, 8),  # span of 1
        (0.5, None, 2, 8),  # end omitted
        (0.7, 0.7, 2, 8),  # end == start
        (-0.1, 0.3, 0, 1000),
    ],
)
def test_ramp_matches_oracle(start, end, t_start, n):
    r = pc.Ramp(start, end, t_start)
    v = r.values(n)
    assert v.shape == (n,)
    assert np.allclose(v, _ramp_oracle(start, end, t_start, n), rtol=0, atol=1e-15)
    assert r.is_constant() == (end is None or end == start)


def test_schedules_ramp_without_ramp_keyword():
    # H and alpha ramp like mu; neither is a constant path by default
    h = pc.HurstSchedule(0.5, 0.9)
    assert not h.is_constant()
    assert np.array_equal(h.values(5), np.linspace(0.5, 0.9, 5))
    a = pc.StableSchedule(2.0, 1.2, scale=0.5)
    assert np.array_equal(a.values(7), np.linspace(2.0, 1.2, 7))
    # the ramp starts exactly at its start value
    assert pc.HurstSchedule(0.5, 0.9, t_start=3).values(10)[3] == 0.5


def test_ramp_keyword_selects_nothing():
    assert pc.HurstSchedule(0.5, 0.9, ramp="linear") == pc.HurstSchedule(0.5, 0.9)
    assert pc.StableSchedule(1.5, ramp="constant").is_constant()
    with pytest.raises(ValueError, match="constant"):
        pc.HurstSchedule(0.5, 0.9, ramp="constant")
    with pytest.raises(ValueError, match="constant"):
        pc.StableSchedule(2.0, 1.2, ramp="constant")


@pytest.mark.parametrize(
    "make",
    [pc.Ramp, pc.HurstSchedule, pc.StableSchedule],
    ids=["ramp", "hurst", "stable"],
)
def test_ramp_rejects_bad_step_range(make):
    with pytest.raises(ValueError, match="t_start must be >= 0, got -5"):
        make(0.5, 0.9, t_start=-5)
    with pytest.raises(ValueError, match="integer"):  # e.g. a scale passed by position
        make(0.5, 0.9, 2.0)


def test_hurst_basis_cache_holds_one_basis():
    noise._hurst_basis.cache_clear()
    for t_start in (0, 10, 20):
        pc.synth_fbm(64, pc.HurstSchedule(0.5, 0.9, t_start=t_start), 1.0, 1)
    assert noise._hurst_basis.cache_info().currsize == 1
    noise._hurst_basis.cache_clear()


def test_negative_embedding_refuses_a_ramped_schedule(monkeypatch):
    # the Davies-Harte refusal is the only one a ramp can meet; it comes
    # before any draw and caches nothing
    bad = lambda n_lags, h: np.r_[1.0, np.full(n_lags, 2.0)]
    monkeypatch.setattr(noise, "_fgn_autocov", bad)
    noise._hurst_basis.cache_clear()
    with pytest.raises(GenerationError, match="eigenvalue"):
        pc.synth_fbm(64, pc.HurstSchedule(0.5, 0.9), 1.0, 1)
    assert noise._hurst_basis.cache_info().currsize == 0


def test_noisepath_validation():
    with pytest.raises(ValueError):
        pc.NoisePath(np.array([]))

