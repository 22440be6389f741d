import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp, kurtosis, wilcoxon

import phasecrash as pc
from phasecrash.errors import SimulationOverflowError
from phasecrash.io import derive_seed
from phasecrash.simulate import _euler

import simulate_reference as ref


def _const_mu(value=0.0):
    return pc.MuSchedule(value)


def _rk4_autonomous(f, x0, n, dt):
    x = x0
    for _ in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return x


# ------------------------------------------------------------------- CPT


@pytest.mark.parametrize("a, b, n", [(0.0, 0.36, 2000), (0.37, 0.40, 7), (-0.1, -0.3, 1)])
def test_mu_schedule_is_linspace(a, b, n):
    assert np.array_equal(pc.MuSchedule(a, b).values(n), np.linspace(a, b, n))


def test_cpt_zero_noise_fixed_point():
    params = pc.CptParams(r=1.0, mu_schedule=_const_mu(0.0), sigma=0.0, p0=1.0)
    path = pc.simulate_cpt(params, 2000, 0.01, 1)  # n*dt = 20
    assert abs(path.values[-1] - 1.0) < 1e-6
    params = pc.CptParams(r=1.0, mu_schedule=_const_mu(0.0), sigma=0.0, p0=1.5)
    path = pc.simulate_cpt(params, 2000, 0.01, 1)
    assert abs(path.values[-1] - 1.0) < 1e-6


def test_cpt_zero_noise_matches_rk4():
    params = pc.CptParams(r=1.0, mu_schedule=_const_mu(0.2), sigma=0.0, p0=1.5)
    path = pc.simulate_cpt(params, 5000, 1e-4, 1)
    ref = _rk4_autonomous(lambda x: -0.2 + x - x**3, 1.5, 500, 1e-3)
    assert abs(path.values[-1] - ref) < 1e-4


def test_cpt_fold_exit_to_lower_branch():
    # ramp past the fold: upper equilibrium vanishes, path settles on the
    # lower branch found by an independent root-finding oracle
    params = pc.CptParams(
        r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.5), sigma=0.0, p0=1.0
    )
    path = pc.simulate_cpt(params, 20_000, 0.01, 1)
    lower = brentq(lambda p: -0.5 + p - p**3, -2.0, -1.0)
    assert abs(path.values[-1] - lower) < 1e-2
    assert path.values[0] == 1.0


def test_cpt_fold_location():
    # mu at loss of stability vs the oracle from r - 3p^2 = 0, mu = rp - p^3
    p_fold = brentq(lambda p: 1.0 - 3 * p**2, 0.0, 1.0)
    mu_star = p_fold - p_fold**3
    n = 70_000
    params = pc.CptParams(
        r=1.0, mu_schedule=pc.MuSchedule(0.35, 0.42), sigma=0.0, p0=1.0
    )
    path = pc.simulate_cpt(params, n, 0.01, 1)
    mu = params.mu_schedule.values(n)
    cross = int(np.argmax(path.values[1:] < 0.0))
    assert path.values[1:][cross] < 0.0
    assert abs(mu[cross] - mu_star) / mu_star < 0.02


def test_cpt_determinism():
    params = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.3), sigma=0.2, p0=1.0)
    a = pc.simulate_cpt(params, 500, 0.01, 77)
    b = pc.simulate_cpt(params, 500, 0.01, 77)
    assert np.array_equal(a.values, b.values)


_DIVERGING = {
    "cpt": (pc.simulate_cpt, ref.cpt,
            pc.CptParams(r=1.0, mu_schedule=_const_mu(0.0), sigma=0.0, p0=3.0)),
    "spt": (pc.simulate_spt, ref.spt,
            pc.SptParams(r=1.0, lam=1.0, alpha_vol=0.0, p0=3.0)),
    # only the second asset diverges, so the step is the first bad row
    "multi": (pc.simulate_multivariate, ref.multivariate,
              pc.MultiParams(r=(1.0, 1.0), lam=(1.0, 1.0), mu_schedule=_const_mu(0.0),
                             sigma=(0.1, 0.1), coupling=((1.0, 0.3), (0.3, 1.0)),
                             p0=(1.0, 3.0))),
}


@pytest.mark.parametrize("route", sorted(_DIVERGING))
def test_cpt_overflow_reports_step(route):
    simulate, oracle, params = _DIVERGING[route]
    with pytest.raises(SimulationOverflowError) as exc:
        simulate(params, 100, 1.0, 1)
    assert exc.value.step >= 1
    assert exc.value.step == oracle(params, 100, 1.0, 1)[1]


def test_cpt_odd_symmetry():
    # drift is odd under (p, mu) -> (-p, -mu): zero-noise paths negate exactly
    up = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.1, 0.3), sigma=0.0, p0=1.2)
    dn = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(-0.1, -0.3), sigma=0.0, p0=-1.2)
    a = pc.simulate_cpt(up, 1000, 0.01, 1)
    b = pc.simulate_cpt(dn, 1000, 0.01, 1)
    assert np.array_equal(a.values, -b.values)


def test_cpt_weak_convergence_in_dt():
    params = pc.CptParams(r=1.0, mu_schedule=_const_mu(0.1), sigma=0.1, p0=1.0)
    t_final, reps = 2.0, 1000
    coarse = np.array(
        [
            pc.simulate_cpt(params, 200, t_final / 200, derive_seed(7, i)).values[-1]
            for i in range(reps)
        ]
    )
    fine = np.array(
        [
            pc.simulate_cpt(params, 400, t_final / 400, derive_seed(8, i)).values[-1]
            for i in range(reps)
        ]
    )
    se = np.sqrt(coarse.var(ddof=1) / reps + fine.var(ddof=1) / reps)
    assert abs(coarse.mean() - fine.mean()) < 3 * se


# ------------------------------------------------------------------- SPT


def test_spt_zero_noise_stays_in_basin():
    params = pc.SptParams(r=1.0, lam=1.0, alpha_vol=0.0, p0=1.0)
    path = pc.simulate_spt(params, 5000, 0.01, 3)
    assert np.all(path.values > 0.5)
    assert abs(path.values[-1] - 1.0) < 1e-6  # well bottom at sqrt(r/lam)


def test_spt_zero_noise_matches_rk4():
    params = pc.SptParams(r=1.0, lam=2.0, alpha_vol=0.0, p0=0.4)
    path = pc.simulate_spt(params, 5000, 1e-4, 1)
    ref = _rk4_autonomous(lambda x: x - 2.0 * x**3, 0.4, 500, 1e-3)
    assert abs(path.values[-1] - ref) < 1e-4


def test_spt_crossing_probability_monotone_in_ramp_slope():
    # growing volatility tunnels between wells; horizon short enough that
    # the crossing fractions stay well below saturation
    fractions = []
    for a in (0.01, 0.05, 0.1):
        params = pc.SptParams(r=1.0, lam=1.0, alpha_vol=a, p0=1.0)
        crossed = 0
        for i in range(500):
            path = pc.simulate_spt(params, 2000, 0.01, derive_seed(77, i))
            crossed += bool(np.any(path.values < 0.0))
        fractions.append(crossed / 500)
    assert fractions[0] < fractions[1] < fractions[2]


def test_spt_volatility_trend():
    params = pc.SptParams(r=1.0, lam=1.0, alpha_vol=0.008, p0=1.0)
    cfg = pc.WindowConfig(window=200, stride=40, tau_grid=(2, 4, 8, 16))
    taus = []
    for i in range(100):
        series = pc.simulate_spt(params, 10_000, 0.01, derive_seed(202, i)).to_price_series("spt")
        taus.append(pc.kendall_tau_trend(pc.rolling_volatility(series, cfg))[0])
    assert wilcoxon(taus, alternative="greater").pvalue < 0.01


def test_spt_validation():
    with pytest.raises(ValueError):
        pc.SptParams(r=1.0, lam=0.0, alpha_vol=0.1, p0=1.0)


# ------------------------------------------------------------------- DPT


def test_dpt_h05_reduces_to_brownian():
    sigma = 0.02
    dpt = pc.DptParams(pc.HurstSchedule(0.5), scale=sigma)
    cpt = pc.CptParams(r=0.0, mu_schedule=_const_mu(0.0), sigma=sigma, p0=0.0)
    a = np.diff(pc.simulate_dpt(dpt, 20_000, 0.01, 5).values)
    b = np.diff(pc.simulate_cpt(cpt, 20_000, 0.01, 6).values)
    assert ks_2samp(a, b).pvalue > 0.01


def test_dpt_hurst_ramp_scaling_trend(dpt_hurst_trend_taus):
    assert wilcoxon(dpt_hurst_trend_taus, alternative="greater").pvalue < 0.01


def test_dpt_stable_ramp_fattens_tails():
    spec = pc.DptParams(pc.StableSchedule(2.0, 1.2, scale=1.0), scale=1.0)
    wins = 0
    for i in range(100):
        path = pc.simulate_dpt(spec, 4000, 1.0, derive_seed(88, i))
        r = np.diff(path.values)
        wins += kurtosis(r[-400:]) > kurtosis(r[:400])
    assert wins >= 95


def test_dpt_determinism_and_p0():
    spec = pc.DptParams(pc.HurstSchedule(0.6), scale=0.5, p0=3.0)
    a = pc.simulate_dpt(spec, 100, 1.0, 9)
    b = pc.simulate_dpt(spec, 100, 1.0, 9)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 3.0


# ----------------------------------------------------------- multivariate


def _coupling(k, rho):
    return tuple(tuple(1.0 if i == j else rho for j in range(k)) for i in range(k))


def test_multi_identity_coupling_uncorrelated():
    params = pc.MultiParams(
        r=(0.0, 0.0),
        lam=(0.0, 0.0),
        mu_schedule=_const_mu(0.0),
        sigma=(0.1, 0.1),
        coupling=_coupling(2, 0.0),
    )
    paths = pc.simulate_multivariate(params, 10_000, 0.01, 42)
    r0, r1 = (np.diff(p.values) for p in paths)
    assert abs(np.corrcoef(r0, r1)[0, 1]) < 0.03


def test_multi_coupled_increment_correlation():
    # flat potential region: increments are Cholesky-mixed Gaussians
    params = pc.MultiParams(
        r=(0.0, 0.0),
        lam=(0.0, 0.0),
        mu_schedule=_const_mu(0.0),
        sigma=(0.05, 0.05),
        coupling=_coupling(2, 0.8),
    )
    paths = pc.simulate_multivariate(params, 10_000, 0.01, 43)
    r0, r1 = (np.diff(p.values) for p in paths)
    assert abs(np.corrcoef(r0, r1)[0, 1] - 0.8) < 0.05


def test_multi_not_psd_rejected():
    with pytest.raises(ValueError):
        params = pc.MultiParams(
            r=(1.0, 1.0),
            lam=(1.0, 1.0),
            mu_schedule=_const_mu(0.0),
            sigma=(0.1, 0.1),
            coupling=_coupling(2, 1.5),
        )
        pc.simulate_multivariate(params, 10, 0.01, 1)


def test_multi_refuses_negative_lam():
    # lam = 0 leaves the linear drift -mu + r*x; below it the cubic drives paths out
    kw = dict(r=(1.0, 1.0), mu_schedule=_const_mu(0.0), sigma=(0.1, 0.1),
              coupling=_coupling(2, 0.3))
    with pytest.raises(ValueError, match="lam"):
        pc.MultiParams(lam=(1.0, -1.0), **kw)
    pc.MultiParams(lam=(0.0, 0.0), **kw)


@pytest.mark.parametrize(
    "kw, message",
    [(dict(r=(1.0,), lam=(1.0,), sigma=(0.1,), coupling=((1.0,),)),
      "multivariate system needs k >= 2 assets"),
     (dict(lam=(1.0, 1.0, 1.0)), "r, lam, sigma must have equal length"),
     (dict(sigma=(0.1,)), "r, lam, sigma must have equal length"),
     (dict(coupling=_coupling(3, 0.3)), "coupling must be 2x2"),
     (dict(coupling=(1.0, 0.3)), "coupling must be 2x2"),
     (dict(coupling=((1.0, 0.2), (0.3, 1.0))), "coupling matrix must be symmetric"),
     (dict(coupling=((2.0, 0.3), (0.3, 2.0))), "coupling matrix must have unit diagonal"),
     (dict(sigma=(0.1, -1e-300)), "sigma must lie in [0, inf), got (0.1, -1e-300)"),
     (dict(sigma=(-0.1, 0.1)), "sigma must lie in [0, inf), got (-0.1, 0.1)"),
     (dict(p0=(1.0,)), "p0 must have one entry per asset"),
     (dict(p0=(1.0, 1.0, 1.0)), "p0 must have one entry per asset")],
)
def test_multi_coupling_validation(kw, message):
    cls, valid = _VALID["multi"]
    with pytest.raises(ValueError) as exc:
        cls(**{**valid, **kw})
    assert str(exc.value) == message


def test_multi_cross_covariance_trend_toward_fold():
    # lighter version of the acceptance run (30 seeds)
    params = pc.MultiParams(
        r=(1.0,) * 4,
        lam=(1.0,) * 4,
        mu_schedule=pc.MuSchedule(0.0, 0.36),
        sigma=(0.03,) * 4,
        coupling=_coupling(4, 0.5),
        p0=(1.0,) * 4,
    )
    cfg = pc.WindowConfig(window=150, stride=15, tau_grid=(2, 4, 8, 16))
    taus = []
    for i in range(30):
        paths = pc.simulate_multivariate(params, 20_000, 0.02, derive_seed(22, i))
        panel = [p.to_price_series(f"a{j}", sample_every=10) for j, p in enumerate(paths)]
        taus.append(pc.kendall_tau_trend(pc.cross_covariance(panel, cfg))[0])
    assert wilcoxon(taus, alternative="greater").pvalue < 0.01


def test_multi_determinism():
    params = pc.MultiParams(
        r=(1.0, 1.0),
        lam=(1.0, 1.0),
        mu_schedule=_const_mu(0.1),
        sigma=(0.1, 0.1),
        coupling=_coupling(2, 0.5),
        p0=(1.0, 1.0),
    )
    a = pc.simulate_multivariate(params, 200, 0.01, 11)
    b = pc.simulate_multivariate(params, 200, 0.01, 11)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)


def test_sample_every_observation_grid():
    params = pc.CptParams(r=1.0, mu_schedule=_const_mu(0.0), sigma=0.1, p0=1.0)
    path = pc.simulate_cpt(params, 100, 0.01, 3)
    series = path.to_price_series("s", sample_every=10)
    assert len(series) == 11
    assert np.array_equal(series.log_prices, path.values[::10])
    assert np.allclose(np.diff(series.times), 0.1)


# ------------------------------------------------- shared Euler step oracles


_MU_RAMPS = [(0.0, 0.36), (0.2, None), (-0.1, 0.45)]


def _assert_matches_oracle(got, expected):
    # the kernel runs the step folded to x * (a - b*x*x) + c, the scalar
    # oracle unfolded: the same map, equal to rounding (worst seen 3.2e-14)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("mu", _MU_RAMPS)
@pytest.mark.parametrize("seed", [1, 2**63 + 5])
def test_cpt_matches_scalar_oracle(mu, seed):
    params = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(*mu), sigma=0.05, p0=1.0)
    expected, step = ref.cpt(params, 5000, 0.02, seed)
    assert step is None
    _assert_matches_oracle(pc.simulate_cpt(params, 5000, 0.02, seed).values, expected)


@pytest.mark.parametrize("r, lam, alpha_vol, p0", [(1.0, 1.0, 0.008, 1.0),
                                                   (1.3, 2.5, 0.05, 0.4)])
def test_spt_matches_scalar_oracle(r, lam, alpha_vol, p0):
    params = pc.SptParams(r=r, lam=lam, alpha_vol=alpha_vol, p0=p0)
    expected, step = ref.spt(params, 5000, 0.01, 31)
    assert step is None
    _assert_matches_oracle(pc.simulate_spt(params, 5000, 0.01, 31).values, expected)


@pytest.mark.parametrize("k, dt, seed", [(2, 0.02, 17), (10, 0.37, 2**63 + 9),
                                         (2, 0.37, 5), (10, 0.02, 2**64 - 1)])
def test_multi_draw_matches_vector_oracle_bitwise(k, dt, seed):
    # with r = lam = mu = 0 the Euler step adds only the noise, so the
    # paths are equal exactly when the correlated draws are
    params = pc.MultiParams(
        r=(0.0,) * k,
        lam=(0.0,) * k,
        mu_schedule=_const_mu(0.0),
        sigma=tuple(0.01 * (i + 1) for i in range(k)),
        coupling=_coupling(k, 0.4),
    )
    expected, step = ref.multivariate(params, 2000, dt, seed)
    assert step is None
    paths = pc.simulate_multivariate(params, 2000, dt, seed)
    assert np.array_equal(np.column_stack([p.values for p in paths]), expected)


@pytest.mark.parametrize("p0", [None, (1.0, 0.9, -0.5)])
def test_multi_matches_vector_oracle(p0):
    # the oracle steps unfolded with numpy's x**3, the kernel folded: equal to rounding
    params = pc.MultiParams(
        r=(1.0, 0.8, 1.2),
        lam=(1.0, 0.5, 2.0),
        mu_schedule=pc.MuSchedule(0.0, 0.36),
        sigma=(0.03, 0.05, 0.02),
        coupling=((1.0, 0.5, 0.2), (0.5, 1.0, 0.4), (0.2, 0.4, 1.0)),
        p0=p0,
    )
    expected, step = ref.multivariate(params, 5000, 0.02, 17)
    assert step is None
    paths = pc.simulate_multivariate(params, 5000, 0.02, 17)
    got = np.column_stack([p.values for p in paths])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


# ------------------------------------------ streamed kernel vs the list kernel


def _same_bits(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


_SEEDS = [5, 2**63 + 11]

_ONE_CHAIN = {
    "cpt": (pc.simulate_cpt, ref.folded_cpt,
            pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=0.03, p0=1.0)),
    "spt": (pc.simulate_spt, ref.folded_spt,
            pc.SptParams(r=1.0, lam=1.3, alpha_vol=0.01, p0=0.7)),
}


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("route", sorted(_ONE_CHAIN))
def test_one_chain_routes_match_the_list_kernel_bitwise(route, seed):
    simulate, oracle, params = _ONE_CHAIN[route]
    got = simulate(params, 4000, 0.01, seed).values
    assert _same_bits(got, oracle(params, 4000, 0.01, seed))


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("p0", [None, 0.9])
@pytest.mark.parametrize("k", [2, 10])
def test_multi_matches_the_list_kernel_bitwise(k, p0, seed):
    params = pc.MultiParams(
        r=tuple(1.0 + 0.05 * i for i in range(k)),
        lam=(0.0,) + tuple(1.0 + 0.1 * i for i in range(1, k)),  # asset 0 is linear
        mu_schedule=pc.MuSchedule(0.0, 0.36),
        sigma=tuple(0.02 + 0.005 * i for i in range(k)),
        coupling=_coupling(k, 0.4),
        p0=None if p0 is None else tuple(p0 - 0.1 * i for i in range(k)),
    )
    got = np.array([p.values for p in pc.simulate_multivariate(params, 3000, 0.02, seed)])
    assert _same_bits(got, ref.folded_multivariate(params, 3000, 0.02, seed))


@pytest.mark.parametrize("k", [2, 10])
def test_euler_over_k_rows_equals_k_one_chain_calls(k):
    rng = np.random.default_rng(k)
    c = 0.05 * rng.standard_normal((500, k)).T  # strided rows, as simulate_multivariate passes
    x = rng.uniform(-1.0, 1.0, k)
    a = 1.0 + 0.02 * rng.uniform(0.0, 2.0, k)
    b = 0.02 * rng.uniform(0.0, 2.0, k)
    b[0] = 0.0
    got = _euler(x, a, b, c)
    assert got.shape == (k, 501)
    for i in range(k):
        one = _euler(x[i], a[i], b[i], c[i])
        assert one.shape == (501,)
        assert _same_bits(got[i], one)
        assert _same_bits(one, ref.euler(x[i], a[i], b[i], c[i]))
    # scalar x, a and b are shared by every chain
    shared = _euler(0.5, a[0], b[1], c)
    assert all(_same_bits(shared[i], ref.euler(0.5, a[0], b[1], c[i])) for i in range(k))


_DIVERGING_FOLDED = {
    "cpt": (pc.simulate_cpt, ref.folded_cpt,
            pc.CptParams(r=1.0, mu_schedule=_const_mu(0.0), sigma=50.0, p0=0.0)),
    "multi": (pc.simulate_multivariate, ref.folded_multivariate,
              pc.MultiParams(r=(1.0, 1.0), lam=(0.0, 1.0), mu_schedule=_const_mu(0.0),
                             sigma=(0.1, 5.0), coupling=_coupling(2, 0.3))),
}


@pytest.mark.parametrize("seed", [3, 2**63 + 11])
@pytest.mark.parametrize("route", sorted(_DIVERGING_FOLDED))
def test_divergence_step_matches_the_list_kernel(route, seed):
    simulate, oracle, params = _DIVERGING_FOLDED[route]
    finite = np.isfinite(oracle(params, 2000, 0.5, seed)).reshape(-1, 2001).all(axis=0)
    step = int(np.argmin(finite))
    assert step > 0
    with pytest.raises(SimulationOverflowError) as exc:
        simulate(params, 2000, 0.5, seed)
    assert exc.value.step == step


@pytest.mark.parametrize("route, n, bound_mib", [("multi", 20_000, 4.0), ("cpt", 40_000, 2.5)])
def test_simulator_peak_memory(route, n, bound_mib):
    # the route_ensemble benchmark's parameters. The states stream into one
    # array and a noise row is a list only while its chain runs: about 3.67
    # and 2.14 MiB. A list per chain plus a stacking copy peaks at 4.58 and
    # 3.08 MiB, and converting every row up front at 9.16 MiB for multi
    if route == "multi":
        simulate = pc.simulate_multivariate
        params = pc.MultiParams(
            r=(1.0,) * 10, lam=(1.0,) * 10, mu_schedule=pc.MuSchedule(0.0, 0.36),
            sigma=(0.03,) * 10, coupling=_coupling(10, 0.5), p0=(1.0,) * 10)
    else:
        simulate = pc.simulate_cpt
        params = pc.CptParams(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=0.03, p0=1.0)
    simulate(params, 100, 0.02, 1)
    tracemalloc.start()
    try:
        simulate(params, n, 0.02, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


# ------------------------------------------------------- parameter checks


_VALID = {
    "cpt": (pc.CptParams, dict(r=1.0, mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=0.03,
                               p0=1.0)),
    "spt": (pc.SptParams, dict(r=1.0, lam=1.0, alpha_vol=0.01, p0=1.0)),
    "dpt": (pc.DptParams, dict(noise_spec=pc.HurstSchedule(0.5, 0.9), scale=0.01, p0=0.0)),
    "multi": (pc.MultiParams, dict(r=(1.0, 1.0), lam=(1.0, 1.0),
                                   mu_schedule=pc.MuSchedule(0.0, 0.36), sigma=(0.1, 0.1),
                                   coupling=_coupling(2, 0.3), p0=(1.0, 1.0))),
}

_FIELDS = {
    "cpt": ("r", "mu_start", "mu_end", "sigma", "p0"),
    "spt": ("r", "lam", "alpha_vol", "p0"),
    "dpt": ("scale", "p0"),
    "multi": ("r", "lam", "mu_start", "mu_end", "sigma", "coupling", "p0"),
}


def _rule(route, field):
    """The start of the message refusing a bad ``field`` of ``route``'s params."""
    if field == "lam":  # spt's double well needs lam > 0, a multi asset takes lam = 0
        return f"lam must lie in {'(0, inf)' if route == 'spt' else '[0, inf)'}"
    if field in ("sigma", "alpha_vol", "scale"):  # noise amplitudes
        return f"{field} must lie in [0, inf)"
    return f"{field} must be finite"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("route, field",
                         [(route, f) for route, fields in _FIELDS.items() for f in fields])
def test_params_refuse_non_finite_fields(route, field, bad):
    # a non-finite parameter is a bad input, not a diverging path
    cls, kw = _VALID[route]
    cls(**kw)
    if field in ("mu_start", "mu_end"):
        ends = (bad, 0.36) if field == "mu_start" else (0.0, bad)
        kw = {**kw, "mu_schedule": pc.MuSchedule(*ends)}
    elif field == "coupling":
        kw = {**kw, "coupling": ((1.0, bad), (bad, 1.0))}
    else:
        kw = {**kw, field: (1.0, bad) if route == "multi" else bad}
    with pytest.raises(ValueError, match=f"^{re.escape(_rule(route, field))}"):
        cls(**kw)


@pytest.mark.parametrize(
    "route, kw, message",
    [("cpt", dict(sigma=-0.03), "sigma must lie in [0, inf), got -0.03"),
     ("spt", dict(alpha_vol=-0.01), "alpha_vol must lie in [0, inf), got -0.01"),
     ("dpt", dict(scale=-0.01), "scale must lie in [0, inf), got -0.01"),
     ("dpt", dict(noise_spec=0.7), "noise_spec must be a HurstSchedule or StableSchedule")],
)
def test_params_refuse_out_of_range_fields(route, kw, message):
    cls, valid = _VALID[route]
    with pytest.raises(ValueError) as exc:
        cls(**{**valid, **kw})
    assert str(exc.value) == message


def test_a_zero_noise_amplitude_draws_the_drift_alone():
    # every noise amplitude lies in [0, inf), whichever params class reads it
    mu = pc.MuSchedule(0.0, 0.36)
    multi = pc.MultiParams(r=(1.0, 1.0), lam=(1.0, 1.0), mu_schedule=mu, sigma=(0.1, 0.0),
                           coupling=_coupling(2, 0.3))
    cpt = pc.CptParams(r=1.0, mu_schedule=mu, sigma=0.0, p0=0.0)
    np.testing.assert_array_equal(pc.simulate_multivariate(multi, 200, 0.01, 3)[1].values,
                                  pc.simulate_cpt(cpt, 200, 0.01, 3).values)
    stable = pc.StableSchedule(2.0, 1.2, scale=0.0)
    assert not pc.sample_alpha_stable(50, stable, 1.0, 3).increments.any()
    for sch in (stable, pc.HurstSchedule(0.5, 0.9)):
        flat = pc.simulate_dpt(pc.DptParams(sch, scale=0.0, p0=0.2), 50, 1.0, 3)
        assert (flat.values == 0.2).all()


@pytest.mark.parametrize(
    "simulate, route, expected",
    [(pc.simulate_cpt, "spt", "CptParams"),
     (pc.simulate_spt, "cpt", "SptParams"),
     (pc.simulate_dpt, "multi", "DptParams"),
     (pc.simulate_multivariate, "dpt", "MultiParams")],
)
def test_simulators_refuse_another_routes_params(simulate, route, expected):
    cls, kw = _VALID[route]
    with pytest.raises(ValueError) as exc:
        simulate(cls(**kw), 10, 0.01, 1)
    assert str(exc.value) == f"params must be {expected}"


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_sim_path_refuses_a_dt_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError) as exc:
        pc.SimPath(np.zeros(3), dt)
    assert str(exc.value) == f"dt must lie in (0, inf), got {dt!r}"


@pytest.mark.parametrize("sample_every", [0, -1])
def test_to_price_series_refuses_sample_every_below_one(sample_every):
    path = pc.SimPath(np.zeros(3), 0.01)
    with pytest.raises(ValueError) as exc:
        path.to_price_series("x", sample_every=sample_every)
    assert str(exc.value) == f"sample_every must be >= 1, got {sample_every}"
