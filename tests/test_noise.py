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


def test_fbm_ramped_hurst_refused_above_limit():
    sch = pc.HurstSchedule(0.5, 0.9)
    n = noise.MAX_MBM_STEPS + 1
    tracemalloc.start()
    try:
        with pytest.raises(GenerationError, match="limited") as exc:
            pc.synth_fbm(n, sch, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.schedule == sch
    assert peak < 8 * n  # refused before even one row of the n x n factor
    # the constant-H path has no such limit
    assert len(pc.synth_fbm(n, pc.HurstSchedule(0.9), 1.0, 1)) == n


def test_mbm_cap_bounds_the_ramped_rows(monkeypatch):
    # the cap counts (n - k) * n factor entries below a Brownian head of k
    monkeypatch.setattr(noise, "MAX_MBM_STEPS", 40)
    noise._mbm_cholesky_factor.cache_clear()  # a cached factor skips the cap
    at_cap = pc.HurstSchedule(0.5, 0.9, t_start=84)  # 16 rows x 100 = 40**2
    assert len(pc.synth_fbm(100, at_cap, 1.0, 1)) == 100
    over = pc.HurstSchedule(0.5, 0.9, t_start=83)  # 17 rows x 100
    with pytest.raises(GenerationError, match="limited") as exc:
        pc.synth_fbm(100, over, 1.0, 1)
    assert exc.value.schedule == over
    # without a Brownian head every row is ramped
    assert len(pc.synth_fbm(40, pc.HurstSchedule(0.6, 0.9), 1.0, 1)) == 40
    with pytest.raises(GenerationError, match="limited"):
        pc.synth_fbm(41, pc.HurstSchedule(0.6, 0.9), 1.0, 1)


def _kept_bytes(panels):
    return sum(panel.nbytes for panel in panels)


@pytest.mark.parametrize("t_start", [0, 512])
def test_mbm_factor_is_built_in_place(t_start):
    # the panels kept, the inverses of their diagonal factors, and either
    # the two 1 MB temporaries of a kernel row block or the three 1 MB
    # buffers of the closed-form head blocks: measured 1.680 and 4.017
    # times the factor kept, 4.5 and 1.25 MB (5.02 MB at t_start 512, where
    # 0.20.0 kept 3.4 MB, head columns and all, and peaked at 1.814 times
    # that, 6.2 MB; 1.699 times at t_start 0)
    ratio = {0: 1.69, 512: 4.05}[t_start]
    n, panel = 1024, noise._MBM_PANEL
    sch = pc.HurstSchedule(0.5, 0.9, t_start=t_start)
    noise._mbm_cholesky_factor.cache_clear()
    tracemalloc.start()
    try:
        panels = noise._mbm_cholesky_factor(sch, n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        noise._mbm_cholesky_factor.cache_clear()
    ends = range(panel, n - t_start + panel, panel)
    assert [p.shape for p in panels] == [(panel, end) for end in ends]
    assert peak <= ratio * _kept_bytes(panels)


@pytest.mark.parametrize(
    "n, t_start",
    [(1, 0), (64, 0), (129, 0), (1000, 0), (1000, 1), (1000, 500), (1000, 999),
     (1000, 1000), (2048, 0), (2520, 1764)],
)
def test_mbm_factor_keeps_the_lower_triangle_in_row_panels(n, t_start):
    # each panel is a (rows, q - k) array of its own, the ramped columns up
    # to its diagonal end, so the factor keeps about (n - k)**2 / 2 entries;
    # the head columns are not kept at all
    panel = noise._MBM_PANEL
    sch = pc.HurstSchedule(0.5, 0.9, t_start=t_start)
    panels = noise._mbm_cholesky_factor.__wrapped__(sch, n, 1.0)
    k = min(t_start, n)
    starts = range(k, n, panel)
    assert [p.shape for p in panels] == [(min(panel, n - s), min(s + panel, n) - k) for s in starts]
    assert all(p.base is None and p.flags.c_contiguous for p in panels)
    kept = _kept_bytes(panels)
    assert kept == 8 * sum(rows * width for rows, width in (p.shape for p in panels))
    assert kept <= 8 * (n - k) * (n - k + panel) / 2


@pytest.mark.parametrize(
    "n, schedule, peak_mb",
    [(2048, pc.HurstSchedule(0.6, 0.9), 22.5),  # no Brownian head: 17.0 MB kept
     # the README crash asset: onset 0.7 of 2520 steps, 2.5 MB kept
     (2520, pc.HurstSchedule(0.5, 0.9, t_start=1764), 6.9)],
)
def test_mbm_factor_build_peak(n, schedule, peak_mb):
    # measured 20.11 and 6.57 MB; 21.17 and 15.63 while the head columns of
    # the factor were kept (12.7 MB for the README asset), 35.16 and 17.70
    # while L22 was dense and factored in place, 64.00 and 18.94 while
    # np.linalg.cholesky copied the whole block, 96.2 and 43.8 when whole
    # rows were built
    tracemalloc.start()
    try:
        noise._mbm_cholesky_factor.__wrapped__(schedule, n, 1.0)
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


_DENSE_2048 = 8 * 2048**2  # a dense 32 MB factor of 2048 ramped rows


def test_mbm_factor_build_grows_rss_by_under_0_75_dense_factors():
    # measured 0.716 of the dense factor (17.0 MB kept); 1.22 while L22 was
    # dense and factored in place, 3.2 when np.linalg.cholesky copied it
    grown, _ = _peak_rss_growth(
        "noise._mbm_cholesky_factor(pc.HurstSchedule(0.6, 0.9), 2048, 1.0)"
    )
    assert grown < 0.75 * _DENSE_2048


def test_mbm_refusal_grows_rss_by_under_0_75_dense_factors():
    # the last panel fails, after every other is built; measured 0.71 of
    # the dense factor, 2.27 while the refusal rebuilt the whole kernel
    # and took its spectrum with np.linalg.eigvalsh
    grown, message = _peak_rss_growth(
        "try:\n"
        "    noise._mbm_cholesky_factor(pc.HurstSchedule(0.6, 0.9, t_start=2043), 2048, 1.0)\n"
        "except pc.GenerationError as exc:\n"
        "    print(exc)\n"
    )
    assert "not positive definite at steps 1920-2047" in message
    assert "smallest eigenvalue -6.93" in message
    assert grown < 0.75 * _DENSE_2048


def test_readme_corpus_grows_rss_by_under_12_mb():
    # the README spec: 20 dpt_hurst assets drawn in one pass over a head of
    # 1,764 steps, and 20 bm assets; measured 10.1-10.3 MB, and 18.9 MB
    # when the factor kept its 10.2 MB of head columns and each asset was
    # drawn alone
    spec = readme_json_blocks()["spec.json"]
    grown, _ = _peak_rss_growth(
        "synth_corpus(spec, 7)",
        setup=f"import json\nfrom phasecrash.io import synth_corpus\nspec = json.loads({spec!r})",
    )
    assert grown < 12 * 2**20


@pytest.mark.parametrize(
    "n, schedule",
    [(2520, pc.HurstSchedule(0.5, 0.9, t_start=1764)),  # the README crash asset
     (600, pc.HurstSchedule(0.6, 0.9, t_start=200)),  # no Brownian head, 5 panels
     (500, pc.HurstSchedule(0.7))],  # Davies-Harte
)
def test_fbm_group_draw_is_each_seed_drawn_alone(n, schedule):
    seeds = [derive_seed(33, j) for j in range(5)]
    noise._mbm_cholesky_factor.cache_clear()
    alone = [pc.synth_fbm(n, schedule, 1.0, s).increments for s in seeds]  # first one cold
    noise._mbm_cholesky_factor.cache_clear()
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


# a block of ramped rows wider than one panel, or below a head, is factored
# in the order of the blocked algorithm, not LAPACK's; the two differed by
# at most 2.9e-10 * max|L| over the grid below and the README schedule
_PANEL_RTOL = 1e-9

# the oracle differences the kernel over the head columns, which cancels:
# it was 6.9e-13 * max|L21| from the closed form on the README schedule,
# and the closed form was 2.2e-15 from a long-double evaluation of it
_HEAD_RTOL = 1e-12


def _assert_block_factor_matches(got, sch, n, dt, want, panel, case):
    (l21, l22), (ref21, ref22) = noise_reference.assemble_factor(got, sch, n, dt), want
    assert l21.shape == ref21.shape, case
    if l21.size:
        assert np.abs(l21 - ref21).max() <= _HEAD_RTOL * np.abs(ref21).max(), case
    assert l22.shape == ref22.shape, case
    if l22.shape[0] <= panel and not l21.size:  # one np.linalg.cholesky call on one block
        assert np.array_equal(l22, ref22), case
    elif l22.size:
        assert np.abs(l22 - ref22).max() <= _PANEL_RTOL * np.abs(ref22).max(), case
        assert not np.triu(l22, 1).any(), case


_BLOCK_GRID = sorted(
    {(n, t) for n in (1, 2, 64, 400, 1000) for t in (0, 1, n // 2, int(0.7 * n), n - 1, n)}
)


@pytest.mark.parametrize("n, t_start", _BLOCK_GRID)
def test_mbm_blocks_match_block_factor_oracle(monkeypatch, n, t_start):
    # one kernel block holds 2**17 entries, so n = 400 and 1000 span several
    # blocks of rows; 256 entries make a block of 4 rows at n = 64 and of
    # one row above n = 128, and a head block of 256 // (n - k) columns,
    # one column once 129 rows are ramped. Panels of 7 rows leave a
    # partial last panel at every size above 7. All of that occurs by
    # n = 400 (one-column head blocks at t_start 200), so n = 1000 runs
    # the default sizes alone
    sizes = [(noise._MBM_BLOCK, noise._MBM_PANEL)]
    if n <= 400:
        sizes.append((256, 7))
    for block, panel in sizes:
        monkeypatch.setattr(noise, "_MBM_BLOCK", block)
        monkeypatch.setattr(noise, "_MBM_PANEL", panel)
        for dt in (0.25, 1.0, 2.0):
            for h_start in (0.5, 0.6):
                sch = pc.HurstSchedule(h_start, 0.9, t_start=t_start)
                got = noise._mbm_cholesky_factor.__wrapped__(sch, n, dt)
                want = noise_reference.block_factor(sch, n, dt)
                case = (block, panel, dt, h_start)
                _assert_block_factor_matches(got, sch, n, dt, want, panel, case)


def test_mbm_blocks_match_block_factor_oracle_on_the_readme_schedule():
    sch = pc.HurstSchedule(0.5, 0.9, t_start=1764)
    got = noise._mbm_cholesky_factor.__wrapped__(sch, 2520, 1.0)
    want = noise_reference.block_factor(sch, 2520, 1.0)
    _assert_block_factor_matches(got, sch, 2520, 1.0, want, noise._MBM_PANEL, "readme")


_ORACLE_GRID = sorted(
    {(n, t) for n in (1, 2, 64, 400, 2520) for t in (0, 1, n // 2, n - 1, n, n + 2)}
)


@pytest.mark.parametrize("n, t_start", _ORACLE_GRID)
def test_mbm_matches_full_factor_oracle(n, t_start):
    for dt in (0.25, 1.0, 2.0):
        for h_start in (0.5, 0.6):
            case = (dt, h_start)
            sch = pc.HurstSchedule(h_start, 0.9, t_start=t_start)
            p = pc.synth_fbm(n, sch, dt, 5)
            ref_path, z = noise_reference.mbm_path(sch, n, dt, 5)
            k = min(t_start, n) if h_start == 0.5 else 0
            if k == 0 and n <= noise._MBM_PANEL:  # one np.linalg.cholesky call
                assert np.array_equal(p.increments, np.diff(ref_path, prepend=0.0)), case
                continue
            assert np.array_equal(p.increments[:k], np.sqrt(dt) * z[:k]), case
            # two LAPACK orderings of the full factor itself (numpy's and
            # scipy's) differ by up to 1.5e-9 * max|path| at n = 2520
            err = np.abs(p.path()[1:] - ref_path).max()
            assert err <= 1e-8 * np.abs(ref_path).max(), case


def test_block_factor_refuses_what_the_full_factor_refuses():
    # a jump of 0.4 in H over one step after a long Brownian head
    sch = pc.HurstSchedule(0.5, 0.9, t_start=254)
    with pytest.raises(np.linalg.LinAlgError):
        noise_reference.full_factor(sch, 256, 1.0)
    with pytest.raises(GenerationError, match="smallest eigenvalue") as exc:
        pc.synth_fbm(256, sch, 1.0, 1)
    assert exc.value.schedule == sch


@pytest.mark.parametrize(
    "h_start, n", [(0.5, 250), (0.5, 500), (0.5, 1000), (0.5, 2520), (0.6, 500), (0.6, 1000)]
)
def test_in_place_factor_refuses_exactly_what_the_full_factor_refuses(h_start, n):
    # ramps over the last 10% to 0.1% of the path straddle the steepest
    # ramp that factors (the README's "shortest ramp that factors"); the
    # panels refuse exactly what one np.linalg.cholesky call refuses
    refused = []
    for h_end in (0.9, 0.95):
        for onset in (0.9, 0.95, 0.98, 0.985, 0.99, 0.995, 0.998, 0.999):
            sch = pc.HurstSchedule(h_start, h_end, t_start=int(onset * n))
            try:
                noise_reference.block_factor(sch, n, 1.0)
                want = False
            except np.linalg.LinAlgError:
                want = True
            try:
                noise._mbm_cholesky_factor.__wrapped__(sch, n, 1.0)
                got = False
            except GenerationError as exc:
                assert "smallest eigenvalue" in str(exc), (h_end, onset)
                got = True
            assert got == want, (h_end, onset)
            refused.append(want)
    assert any(refused) and not all(refused)


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


def test_mbm_factor_cache_holds_one_factor():
    noise._mbm_cholesky_factor.cache_clear()
    for t_start in (0, 10, 20):
        pc.synth_fbm(64, pc.HurstSchedule(0.5, 0.9, t_start=t_start), 1.0, 1)
    assert noise._mbm_cholesky_factor.cache_info().currsize == 1
    noise._mbm_cholesky_factor.cache_clear()


def test_generation_error_names_schedule(monkeypatch):
    sch = pc.HurstSchedule(0.5, 0.9)
    attempts = []

    def failing_cholesky(a):
        attempts.append(a)
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    from phasecrash.noise import _mbm_cholesky_factor

    _mbm_cholesky_factor.cache_clear()
    with pytest.raises(GenerationError, match="smallest eigenvalue") as exc:
        pc.synth_fbm(64, sch, 1.0, 1)
    assert exc.value.schedule == sch
    assert len(attempts) == 1  # no retry with jitter
    _mbm_cholesky_factor.cache_clear()


def test_noisepath_validation():
    with pytest.raises(ValueError):
        pc.NoisePath(np.array([]))

