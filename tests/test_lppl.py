import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import phasecrash as pc
from phasecrash.errors import DegenerateDesignError
from phasecrash.io import derive_seed
from phasecrash.lppl import _profile, minimize

import lppl_reference as ref

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _params(**kw):
    base = dict(A=1.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=550.0)
    base.update(kw)
    return pc.LpplParams(**base)


def _synthetic_series(params, n=500, noise=0.0, seed=None):
    t = np.arange(float(n))
    y = pc.lppl_log_price(params, t)
    if noise:
        rng = np.random.default_rng(seed)
        y = y + noise * rng.standard_normal(n)
    return pc.PriceSeries(t, y, "synthetic")


# ------------------------------------------------------------- evaluation


def test_degenerate_constant():
    p = _params(B=0.0, C1=0.0, C2=0.0, A=3.25)
    t = np.linspace(0.0, 500.0, 50)
    assert np.all(pc.lppl_log_price(p, t) == 3.25)


def test_pure_power_term():
    p = _params(A=0.0, B=1.0, C1=0.0, C2=0.0, m=0.5, tc=100.0)
    assert pc.lppl_log_price(p, 96.0) == pytest.approx(2.0, abs=1e-12)


def test_high_precision_fixture():
    # expected values frozen from an arbitrary-precision (mpmath) oracle
    with open(os.path.join(FIXTURES, "lppl_eval.json")) as fh:
        fix = json.load(fh)
    p = pc.LpplParams(**fix["params"])
    for row in fix["evaluations"]:
        got = pc.lppl_log_price(p, row["t"])
        assert got == pytest.approx(row["expected"], rel=1e-12)


def test_domain_error_at_tc():
    p = _params(tc=100.0)
    with pytest.raises(ValueError):
        pc.lppl_log_price(p, 100.0)
    with pytest.raises(ValueError):
        pc.lppl_log_price(p, np.array([50.0, 101.0]))
    h = pc.HazardParams(alpha_h=1.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=100.0)
    with pytest.raises(ValueError):
        pc.hazard_rate(h, 100.5)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(m=0.0)
    with pytest.raises(ValueError):
        _params(m=1.0)
    with pytest.raises(ValueError):
        _params(omega=-1.0)
    with pytest.raises(ValueError):
        pc.HazardParams(alpha_h=1.0, beta_h=1.2, m=0.5, omega=6.0, phi=0.0, tc=10.0)
    with pytest.raises(ValueError):
        pc.HazardParams(alpha_h=0.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=10.0)


@pytest.mark.parametrize(
    "kw, message",
    [(dict(m=0.0), "m must lie in (0, 1), got 0.0"),
     (dict(m=1.0), "m must lie in (0, 1), got 1.0"),
     (dict(omega=0.0), "omega must lie in (0, inf), got 0.0"),
     (dict(omega=-6.0), "omega must lie in (0, inf), got -6.0")],
)
def test_hazard_params_refuse_m_and_omega_outside_the_model(kw, message):
    base = dict(alpha_h=1.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=10.0)
    with pytest.raises(ValueError) as exc:
        pc.HazardParams(**{**base, **kw})
    assert str(exc.value) == message


_LPPL_FIELDS = dict(A=1.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=550.0)
_HAZARD_FIELDS = dict(alpha_h=1.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=10.0)
#: The interval of each field that has one; the others need only be finite
_INTERVALS = {"m": "(0, 1)", "omega": "(0, inf)", "alpha_h": "(0, inf)", "beta_h": "[-1, 1]"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, base, name",
    [(pc.LpplParams, _LPPL_FIELDS, name) for name in _LPPL_FIELDS]
    + [(pc.HazardParams, _HAZARD_FIELDS, name) for name in _HAZARD_FIELDS],
    ids=[f"lppl-{name}" for name in _LPPL_FIELDS]
    + [f"hazard-{name}" for name in _HAZARD_FIELDS],
)
def test_params_refuse_a_field_that_is_not_finite(cls, base, name, value):
    # otherwise the model returns NaN without an error
    with pytest.raises(ValueError) as exc:
        cls(**{**base, name: value})
    rule = f"lie in {_INTERVALS[name]}" if name in _INTERVALS else "be finite"
    assert str(exc.value) == f"{name} must {rule}, got {value!r}"


def test_phase_identity():
    # C1*cos + C2*sin == C*cos(theta - phi) with C = hypot(C1, C2) and
    # phi = atan2(C2, C1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        c1, c2 = rng.standard_normal(2)
        p = _params(C1=c1, C2=c2, A=0.0, B=0.0)
        t = rng.uniform(0.0, p.tc - 1e-3, size=20)
        tail = p.tc - t
        expected = p.C * tail**p.m * np.cos(p.omega * np.log(tail) - p.phi)
        assert np.allclose(pc.lppl_log_price(p, t), expected, rtol=0, atol=1e-12)


# ------------------------------------------------------------------ hazard


def test_hazard_pure_power_law():
    h = pc.HazardParams(alpha_h=2.0, beta_h=0.0, m=0.4, omega=6.0, phi=0.0, tc=100.0)
    t = np.linspace(0.0, 99.0, 200)
    vals = pc.hazard_rate(h, t)
    assert np.allclose(vals, 2.0 * (100.0 - t) ** (-0.6))
    assert np.all(np.diff(vals) > 0)  # monotone increasing toward tc for m < 1


def test_hazard_touches_zero_at_beta_one():
    # at t = tc - 1 the log term vanishes, so phi = -pi puts the cosine at -1
    h = pc.HazardParams(alpha_h=1.3, beta_h=1.0, m=0.5, omega=6.0, phi=-np.pi, tc=100.0)
    assert pc.hazard_rate(h, 99.0) == 0.0


def test_hazard_collapsed_cosine_value():
    h = pc.HazardParams(alpha_h=1.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=100.0)
    assert pc.hazard_rate(h, 99.0) == pytest.approx(1.5, abs=1e-12)


def test_hazard_nonnegative_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = pc.HazardParams(
            alpha_h=float(rng.uniform(0.1, 5)),
            beta_h=float(rng.uniform(-1, 1)),
            m=float(rng.uniform(0.1, 0.9)),
            omega=float(rng.uniform(2, 20)),
            phi=float(rng.uniform(-np.pi, np.pi)),
            tc=100.0,
        )
        t = rng.uniform(0, 99.999, size=200)
        assert np.all(pc.hazard_rate(h, t) >= 0.0)


# ------------------------------------------------------------ linear solve


def test_solve_linear_roundtrip():
    p = _params(A=7.0, B=-0.5, C1=0.05, C2=-0.03)
    series = _synthetic_series(p)
    A, B, C1, C2, ssr = pc.solve_linear_params(p.tc, p.m, p.omega, series)
    assert abs(A - p.A) < 1e-9
    assert abs(B - p.B) < 1e-9
    assert abs(C1 - p.C1) < 1e-9
    assert abs(C2 - p.C2) < 1e-9
    assert ssr < 1e-18


def test_solve_linear_constant_series():
    series = pc.PriceSeries(np.arange(100.0), np.full(100, 5.0), "flat")
    A, B, C1, C2, ssr = pc.solve_linear_params(200.0, 0.5, 8.0, series)
    assert A == pytest.approx(5.0, abs=1e-9)
    for v in (B, C1, C2):
        assert abs(v) < 1e-9
    assert ssr < 1e-18


def test_solve_linear_perturbation_increases_ssr():
    p = _params(A=2.0, B=-0.3, C1=0.04, C2=0.02)
    series = _synthetic_series(p, noise=0.01, seed=5)
    A, B, C1, C2, ssr = pc.solve_linear_params(p.tc, p.m, p.omega, series)
    tail = p.tc - series.times
    f = tail**p.m
    phase = p.omega * np.log(tail)
    basis = np.column_stack([np.ones_like(f), f, f * np.cos(phase), f * np.sin(phase)])
    beta = np.array([A, B, C1, C2])
    for j in range(4):
        for sign in (-1.0, 1.0):
            pert = beta.copy()
            pert[j] += sign * 1e-3
            resid = series.log_prices - basis @ pert
            assert resid @ resid > ssr


def test_solve_linear_degenerate_design():
    # m near zero collapses the power basis into the intercept
    series = _synthetic_series(_params(), n=100)
    with pytest.raises(DegenerateDesignError):
        pc.solve_linear_params(550.0, 1e-12, 8.0, series)


@pytest.mark.parametrize("n", [0, 6, 7])
def test_solve_linear_refuses_fewer_than_eight_observations(n):
    series = pc.PriceSeries(np.arange(float(n)), np.zeros(n))
    with pytest.raises(ValueError) as exc:
        pc.solve_linear_params(550.0, 0.5, 8.0, series)
    assert str(exc.value) == (
        f"need at least 8 observations for the linear subproblem, got {n}"
    )


def test_solve_linear_preconditions():
    series = _synthetic_series(_params(), n=6)
    with pytest.raises(ValueError):
        pc.solve_linear_params(550.0, 0.5, 8.0, series)
    series = _synthetic_series(_params(), n=100)
    with pytest.raises(ValueError):
        pc.solve_linear_params(50.0, 0.5, 8.0, series)


@pytest.mark.parametrize("name", ["tc", "m", "omega"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_solve_linear_refuses_a_parameter_that_is_not_finite(name, bad):
    series = _synthetic_series(_params(), n=100)
    point = dict(tc=550.0, m=0.5, omega=8.0) | {name: bad}
    with pytest.raises(ValueError) as exc:
        pc.solve_linear_params(**point, series=series)
    assert str(exc.value) == f"{name} must be finite, got {bad!r}"


# ------------------------------------------------------------------- fit


def test_fit_noiseless_roundtrip():
    p = _params(A=7.0, B=-0.5)
    fit = pc.fit_lppl(_synthetic_series(p))
    assert abs(fit.params.tc - p.tc) <= 1.0
    assert abs(fit.params.m - p.m) <= 0.02
    assert abs(fit.params.omega - p.omega) <= 0.1
    assert fit.converged
    assert fit.n_obs == 500
    assert fit.grid_evals >= 20 * 9 * 12


def test_fit_noisy_recovery_sample():
    p = _params(A=7.0, B=-0.5)
    for i in range(5):
        series = _synthetic_series(p, noise=0.01, seed=derive_seed(31337, i))
        fit = pc.fit_lppl(series)
        assert abs(fit.params.tc - p.tc) <= 10.0


def test_fit_iid_noise_returns_finite_fit():
    # structureless data still fits with finite residual; the power-law
    # baseline comparison shows how much the oscillation soaks up even
    # here, which is the practical overfitting caveat
    rng = np.random.default_rng(4)
    walk = np.cumsum(0.01 * rng.standard_normal(500))
    series = pc.PriceSeries(np.arange(500.0), walk, "walk")
    fit = pc.fit_lppl(series)
    assert np.isfinite(fit.ssr) and fit.ssr > 0
    baseline = pc.power_law_ssr(series, fit.params.tc, fit.params.m)
    improvement = 1.0 - fit.ssr / baseline
    assert 0.0 <= improvement <= 1.0
    # LPPL decorations fit even iid-return data far better than the bare
    # power law: signatures appear in noise
    assert improvement > 0.3


def test_fit_monotonicity_on_grid_supersets():
    p = _params(A=7.0, B=-0.5)
    series = _synthetic_series(p, noise=0.02, seed=9)
    bounds = dict(tc_bounds=(520.0, 560.0), m_bounds=(0.3, 0.6), omega_bounds=(6.0, 9.0))
    small = pc.SearchConfig(n_tc=2, n_m=2, n_omega=2, refine_top_k=0, **bounds)
    large = pc.SearchConfig(n_tc=3, n_m=3, n_omega=3, refine_top_k=0, **bounds)
    # the 3-point linspace over each bound holds the 2-point one exactly
    for lo, hi in bounds.values():
        assert set(np.linspace(lo, hi, 2)) <= set(np.linspace(lo, hi, 3))
    assert pc.fit_lppl(series, large).ssr <= pc.fit_lppl(series, small).ssr


def test_time_shift_covariance():
    # shifting observation times and tc together changes nothing; asserted
    # on the linear solve and the deterministic grid search (Nelder-Mead's
    # scale-adaptive initial simplex is not shift-equivariant)
    p = _params(A=7.0, B=-0.5)
    series = _synthetic_series(p, noise=0.005, seed=11)
    shift = 128.0  # dyadic, so time arithmetic shifts exactly
    shifted = pc.PriceSeries(series.times + shift, series.log_prices, "shifted")

    a = pc.solve_linear_params(p.tc, p.m, p.omega, series)
    b = pc.solve_linear_params(p.tc + shift, p.m, p.omega, shifted)
    assert np.allclose(a, b, rtol=0, atol=1e-9)

    # a tc step of 16 keeps both grids exact, so they differ by the shift alone
    grids = dict(m_bounds=(0.3, 0.6), omega_bounds=(6.0, 9.0), n_tc=5, refine_top_k=0)
    cfg = pc.SearchConfig(tc_bounds=(512.0, 576.0), **grids)
    cfg_shift = pc.SearchConfig(tc_bounds=(512.0 + shift, 576.0 + shift), **grids)
    assert np.array_equal(np.linspace(512.0, 576.0, 5) + shift,
                          np.linspace(512.0 + shift, 576.0 + shift, 5))
    fa = pc.fit_lppl(series, cfg)
    fb = pc.fit_lppl(shifted, cfg_shift)
    assert abs((fb.params.tc - shift) - fa.params.tc) < 1e-9
    assert abs(fb.params.m - fa.params.m) < 1e-9
    assert abs(fb.params.omega - fa.params.omega) < 1e-9
    assert abs(fb.ssr - fa.ssr) < 1e-9
    for name in ("A", "B", "C1", "C2"):
        assert abs(getattr(fb.params, name) - getattr(fa.params, name)) < 1e-9


def test_fit_preconditions():
    series = _synthetic_series(_params(), n=20)
    with pytest.raises(ValueError):
        pc.fit_lppl(series)


@pytest.mark.parametrize("n", [0, 20, 29])
def test_fit_refuses_fewer_than_thirty_observations(n):
    series = pc.PriceSeries(np.arange(float(n)), np.zeros(n))
    with pytest.raises(ValueError) as exc:
        pc.fit_lppl(series)
    assert str(exc.value) == f"need at least 30 observations to fit, got {n}"


def test_fit_with_every_grid_node_degenerate_raises():
    # m near zero collapses the power basis into the intercept at every node
    series = _synthetic_series(_params(), n=100)
    search = pc.SearchConfig(m_bounds=(1e-12, 2e-12), n_tc=2, n_m=2, n_omega=2)
    with pytest.raises(pc.FitFailureError) as exc:
        pc.fit_lppl(series, search)
    assert str(exc.value) == "every grid node had a degenerate design matrix"


def test_fit_to_dict_schema():
    fit = pc.fit_lppl(_synthetic_series(_params(A=7.0, B=-0.5)))
    d = fit.to_dict()
    assert set(d) == {
        "A", "B", "C1", "C2", "C", "phi", "m", "omega", "tc", "ssr", "n_obs",
        "converged", "degenerate_nodes",
    }
    assert d["C"] == pytest.approx(math.hypot(d["C1"], d["C2"]))


# -------------------------------------------- batched kernel vs oracle


def _oracle_series(kind, n, seed):
    # a criterion-2 bubble (tc = 1.1 n, 1% noise) or an iid-return walk
    rng = np.random.default_rng(derive_seed(seed, n))
    if kind == "bubble":
        p = _params(A=7.0, B=-0.5, tc=1.1 * n)
        return _synthetic_series(p, n=n, noise=0.01, seed=derive_seed(seed, n))
    walk = np.cumsum(0.01 * rng.standard_normal(n))
    return pc.PriceSeries(np.arange(float(n)), walk, kind)


def _kernel_grid(series, tcs, ms, omegas):
    # one call per tc, with m down the rows and omega along them
    rows = [_profile(series.times, series.log_prices, tc, ms[:, None], omegas)
            for tc in tcs]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


@pytest.mark.parametrize("kind", ["bubble", "walk"])
@pytest.mark.parametrize("n", [30, 250, 1000])
def test_grid_matches_reference_oracle(kind, n):
    series = _oracle_series(kind, n, 71)
    cfg = pc.SearchConfig(refine_top_k=0)
    fit, oracle = pc.fit_lppl(series, cfg), ref.fit_lppl(series, cfg)
    got = (fit.params.tc, fit.params.m, fit.params.omega)
    assert got == (oracle.params.tc, oracle.params.m, oracle.params.omega)
    assert fit.ssr == pytest.approx(oracle.ssr, rel=1e-12, abs=0)
    assert fit.grid_evals == oracle.grid_evals == 20 * 9 * 12
    assert fit.degenerate_nodes == oracle.degenerate_nodes

    lo, hi = pc.lppl._default_tc_bounds(series.times)
    tcs = np.linspace(lo, hi, 20)
    ms, omegas = np.linspace(0.1, 0.9, 9), np.linspace(2.0, 25.0, 12)
    expected, _ = ref.grid(series.times, series.log_prices, tcs, ms, omegas)
    ssr, ok = _kernel_grid(series, tcs, ms, omegas)
    assert np.array_equal(ok, np.isfinite(expected))
    assert np.allclose(ssr[ok], expected[ok], rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["bubble", "walk"])
@pytest.mark.parametrize("n", [30, 250, 1000])
def test_grid_trig_pass_per_tc_matches_per_row_profiles_exactly(kind, n):
    series = _oracle_series(kind, n, 71)
    fit = pc.fit_lppl(series, pc.SearchConfig(refine_top_k=0))
    times, y = series.times, series.log_prices
    omegas = np.linspace(2.0, 25.0, 12)
    nodes, degenerate = [], 0
    for tc in np.linspace(*pc.lppl._default_tc_bounds(times), 20):
        for m in np.linspace(0.1, 0.9, 9):
            ssr, ok, _ = _profile(times, y, tc, m, omegas)
            degenerate += int((~ok).sum())
            nodes += [(s, tc, m, omega) for s, omega in zip(ssr[ok], omegas[ok])]
    assert (fit.ssr, fit.params.tc, fit.params.m, fit.params.omega) == min(nodes)
    assert fit.degenerate_nodes == degenerate


def test_profile_of_a_batch_matches_per_node_calls_exactly():
    # the lockstep refinement profiles each node in batches of changing
    # size, so a node's residual must not depend on its batch; m = 0.5 is
    # the default grid's middle value and a common refinement start
    series = _oracle_series("bubble", 250, 76)
    rng = np.random.default_rng(76)
    tc = 250.0 + rng.uniform(1.0, 125.0, 7)
    m, omega = rng.uniform(0.1, 0.9, 7), rng.uniform(2.0, 25.0, 7)
    m[[0, 3]] = 0.5
    batch = _profile(series.times, series.log_prices, tc, m, omega)
    for i in range(7):
        node = _profile(series.times, series.log_prices, tc[i], m[i], omega[i])
        assert batch[1][i] == node[1] and np.array_equal(batch[2][i], node[2])


@pytest.mark.parametrize("kind, n", [("bubble", 250), ("walk", 250), ("walk", 1000)])
def test_gate_matches_reference_on_stress_grid(kind, n):
    # m and omega down to where the power and log-periodic columns collapse
    # into the intercept, and tc just past the last observation
    series = _oracle_series(kind, n, 72)
    last = series.times[-1]
    tcs = last + np.array([1e-6, 1e-3, 1.0, 10.0, 1e3])
    ms = np.array([1e-14, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    omegas = np.array([1e-12, 1e-8, 1e-4, 1e-2, 1.0, 8.0, 25.0])
    expected, cond = ref.grid(series.times, series.log_prices, tcs, ms, omegas)
    ssr, ok = _kernel_grid(series, tcs, ms, omegas)
    assert np.array_equal(ok, np.isfinite(expected))
    assert 0 < ok.sum() < ok.size
    # accepted nodes may be ill-conditioned: the residual is good to cond(X) eps
    tol = cond[ok] * np.finfo(float).eps
    assert np.all(np.abs(ssr[ok] - expected[ok]) <= tol * expected[ok])


def test_grid_memory_is_one_row_at_a_time():
    # the whole (2160, 1000, 5) augmented tensor would take 86 MB
    series = _oracle_series("walk", 1000, 73)
    cfg = pc.SearchConfig(refine_top_k=0)
    pc.fit_lppl(series, cfg)  # warm up imports and LAPACK
    tracemalloc.start()
    try:
        pc.fit_lppl(series, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 86e6 / 20


def _default_and_stress_grids(series):
    # the default search's grid, and the stress grid of
    # test_gate_matches_reference_on_stress_grid
    last = series.times[-1]
    default = (np.linspace(*pc.lppl._default_tc_bounds(series.times), 20),
               np.linspace(0.1, 0.9, 9), np.linspace(2.0, 25.0, 12))
    stress = (last + np.array([1e-6, 1e-3, 1.0, 10.0, 1e3]),
              np.array([1e-14, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9]),
              np.array([1e-12, 1e-8, 1e-4, 1e-2, 1.0, 8.0, 25.0]))
    return default, stress


def _recorded_designs(monkeypatch, run):
    # the designs that run() hands to the QR kernel, one (omega, 5, n) row each
    designs, factor = [], pc.lppl._factor

    def record(a):
        designs.append(a.copy())
        return factor(a)

    with monkeypatch.context() as patch:
        patch.setattr(pc.lppl, "_factor", record)
        out = run()
    return designs, out


@pytest.mark.parametrize("kind, n", [("bubble", 250), ("walk", 1000)])
def test_raw_qr_gives_the_bits_of_mode_r(monkeypatch, kind, n):
    series = _oracle_series(kind, n, 72)
    for tcs, ms, omegas in _default_and_stress_grids(series):
        designs, _ = _recorded_designs(monkeypatch, lambda: pc.lppl._grid(
            series.times, series.log_prices, tcs, ms, omegas))
        a = np.array(designs)
        got = pc.lppl._factor(a)
        want = np.linalg.qr(a.swapaxes(-1, -2), mode="r")
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kind, n", [("bubble", 250), ("walk", 1000)])
def test_grid_gate_in_one_call_matches_a_gate_call_per_row(monkeypatch, kind, n):
    series = _oracle_series(kind, n, 72)
    for tcs, ms, omegas in _default_and_stress_grids(series):
        designs, (ssr, ok) = _recorded_designs(monkeypatch, lambda: pc.lppl._grid(
            series.times, series.log_prices, tcs, ms, omegas))
        assert len(designs) == tcs.size * ms.size
        rows = [pc.lppl._gate(pc.lppl._factor(a), n) for a in designs]
        shape = (tcs.size, ms.size, omegas.size)
        for got, want in zip((ssr, ok), zip(*rows)):
            assert np.array_equal(got, np.array(want).reshape(shape))


def _screened_factors(monkeypatch, series, tcs, ms, omegas):
    # the R factors that the grid hands to its gate, and the grid's (ssr, ok)
    factors, screen = [], pc.lppl._screen

    def record(r, n):
        factors.append(r.copy())
        return screen(r, n)

    with monkeypatch.context() as patch:
        patch.setattr(pc.lppl, "_screen", record)
        out = pc.lppl._grid(series.times, series.log_prices, tcs, ms, omegas)
    return factors[0], out


@pytest.mark.parametrize("kind", ["bubble", "walk"])
@pytest.mark.parametrize("n", [30, 250, 1000])
def test_grid_gate_matches_the_svd_oracle_bit_for_bit(monkeypatch, kind, n):
    series = _oracle_series(kind, n, 72)
    for tcs, ms, omegas in _default_and_stress_grids(series):
        r, (ssr, ok) = _screened_factors(monkeypatch, series, tcs, ms, omegas)
        assert np.array_equal(ok, ref.svd_gate(r, n))
        assert np.array_equal(ssr, r[..., 4, 4] ** 2)


def test_default_grid_of_bubbles_and_walks_sends_no_node_to_the_svd(monkeypatch):
    # the six series shapes of the benchmark's LPPL fits: condition numbers
    # up to a few 1e4, so the bound accepts every node
    def no_svd(*_a):
        raise AssertionError("a node went to the SVD")

    monkeypatch.setattr(pc.lppl, "_gate", no_svd)
    for kind in ("bubble", "walk"):
        for n in (250, 500, 1000):
            series = _oracle_series(kind, n, 78)
            tcs, ms, omegas = _default_and_stress_grids(series)[0]
            _, ok = pc.lppl._grid(series.times, series.log_prices, tcs, ms, omegas)
            assert ok.all()


def _triangular_stacks():
    """Upper-triangular 4x4 blocks by family, with condition numbers from 1
    to past 1e17."""
    rng = np.random.default_rng(77)
    # rows graded as QR leaves them: diagonal 1, g, g**2, g**3
    g = np.logspace(0, -17 / 3, 300)[:, None] ** np.arange(4)
    graded = g[..., None] * (np.eye(4) + np.triu(rng.uniform(-1.0, 1.0, (300, 4, 4)), 1))
    # Kahan's matrix: diag(1, s, s**2, s**3) times 1 on the diagonal and -c above
    theta = np.logspace(-6.0, np.log10(1.5), 200)
    s, c = np.sin(theta)[:, None], np.cos(theta)[:, None, None]
    kahan = (s ** np.arange(4))[..., None] * (np.eye(4) - c * np.triu(np.ones((4, 4)), 1))
    # each diagonal entry zero in turn, and a zero block
    zero = np.repeat(graded[::60], 4, axis=0)
    k = np.arange(zero.shape[0])
    zero[k, k % 4, k % 4] = 0.0
    zero = np.concatenate([zero, np.zeros((1, 4, 4))])
    rows, cols = np.triu_indices(4)
    infinite = np.repeat(graded[100:101], 2 * rows.size, axis=0)
    infinite[np.arange(2 * rows.size), np.tile(rows, 2), np.tile(cols, 2)] = np.repeat(
        [np.inf, -np.inf], rows.size)
    # singular values 1, 1e-3, 1e-6 and 1 / cond under random rotations, with
    # cond within 1% of 1e12 and of the rcond limit at n = 1e5
    near = []
    for limit in (1e12, 1.0 / (np.finfo(float).eps * 100_000)):
        for d in np.concatenate([np.logspace(-7, -2, 100), -np.logspace(-7, -2, 100)]):
            u, v = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
            sv = np.array([1.0, 1e-3, 1e-6, 1.0 / (limit * (1.0 + d))])
            near.append(np.linalg.qr((u * sv) @ v.T, mode="r"))
    return {"graded": graded, "kahan": kahan, "zero": zero, "infinite": infinite,
            "near_limit": np.array(near)}


def _padded(r4):
    # 4x4 blocks in the corner of 5x5 R factors, each with its own residual
    r = np.zeros(r4.shape[:-2] + (5, 5))
    r[..., :4, :4] = r4
    r[..., 4, 4] = np.arange(1, r4[..., 0, 0].size + 1).reshape(r4.shape[:-2])
    return r


@pytest.mark.parametrize("n", [4, 250, 100_000])
def test_screen_matches_the_svd_oracle_on_triangular_stacks(n):
    stacks = _triangular_stacks()
    r = _padded(np.concatenate(list(stacks.values())))
    want = ref.svd_gate(r, n)
    assert 0 < want.sum() < want.size
    ssr, ok = pc.lppl._screen(r, n)
    assert np.array_equal(ok, want)
    assert np.array_equal(ssr, r[..., 4, 4] ** 2)
    nan = _padded(stacks["graded"][:3].copy())
    nan[1, 2, 3] = np.nan
    for gate in (ref.svd_gate, lambda r, n: pc.lppl._screen(r, n)[1]):
        with pytest.raises(np.linalg.LinAlgError):
            gate(nan, n)


def _condition(r):
    sv = np.linalg.svd(r[..., :4, :4], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sv[..., 0] / sv[..., -1]


def test_condition_bound_lies_between_the_condition_and_four_times_it():
    # ||R||_F ||R^-1||_F is at least cond_2(R) and at most 4 cond_2(R) for a
    # 4x4 R; checked where the SVD's condition number is good to 1e-6
    r = _padded(np.concatenate(list(_triangular_stacks().values())))
    cond, b = _condition(r), pc.lppl._condition_bound(r)
    keep = cond <= 1e10
    assert keep.sum() > 200
    assert np.all(b[keep] >= cond[keep] * (1 - 1e-6))
    assert np.all(b[keep] <= 4 * cond[keep] * (1 + 1e-6))
    assert not np.isfinite(b[~np.isfinite(cond)]).any()


@pytest.mark.parametrize("n", [4, 100_000])
def test_screen_sends_the_svd_every_node_within_1e3_of_the_limit(monkeypatch, n):
    # the bound accepts a node only 1e-3 inside the gate's limit: the SVD
    # judges every node with cond above that, and none with cond below a
    # quarter of it
    r = _padded(np.concatenate(list(_triangular_stacks().values())))
    sent, gate = [], pc.lppl._gate

    def record(rest, n):
        sent.extend(rest[..., 4, 4].astype(int) - 1)
        return gate(rest, n)

    monkeypatch.setattr(pc.lppl, "_gate", record)
    pc.lppl._screen(r, n)
    judged = np.zeros(len(r), dtype=bool)
    judged[sent] = True
    cond = _condition(r)
    margin = 1e-3 * min(1e12, 1.0 / (np.finfo(float).eps * n))
    far, near = cond < margin / 4, ~(cond <= margin)
    assert far.sum() > 150 and (near & (cond < 1e3 * margin)).sum() > 10
    assert np.array_equal(judged[far | near], near[far | near])


@pytest.mark.parametrize("kind, n", [("bubble", 250), ("walk", 1000)])
def test_exp_power_column_matches_the_power(monkeypatch, kind, n):
    # the grid and the refinement build (tc - t)**m as exp(m * ln(tc - t))
    series = _oracle_series(kind, n, 72)
    times, y = series.times, series.log_prices
    for tcs, ms, omegas in _default_and_stress_grids(series):
        grid, _ = _recorded_designs(monkeypatch, lambda: pc.lppl._grid(
            times, y, tcs, ms, omegas))
        # a scalar tc, m down the rows and omega along them, as the refinement
        # batches broadcast
        profiles, _ = _recorded_designs(monkeypatch, lambda: [
            _profile(times, y, tc, ms[:, None], omegas) for tc in tcs])
        shape = (tcs.size, ms.size, omegas.size, n)
        expected = np.broadcast_to(((tcs[:, None, None] - times) ** ms[:, None])[:, :, None],
                                   shape)
        for designs in (grid, profiles):
            got = np.array(designs).reshape(shape[:-1] + (5, n))[..., 1, :]
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind, n", [("bubble", 250), ("walk", 250), ("bubble", 500),
                                     ("walk", 500)])
def test_fit_matches_reference_oracle(kind, n):
    # Nelder-Mead stops once its simplex spans 1e-6 and its values 1e-12, so
    # last-bit differences in the objective can move the end point by a few
    # simplex widths; the residual moves far less
    series = _oracle_series(kind, n, 74)
    fit, oracle = pc.fit_lppl(series), ref.fit_lppl(series)
    assert fit.ssr == pytest.approx(oracle.ssr, rel=1e-10, abs=0)
    assert fit.params.tc == pytest.approx(oracle.params.tc, rel=0, abs=1e-3)
    assert fit.params.m == pytest.approx(oracle.params.m, rel=0, abs=1e-5)
    assert fit.params.omega == pytest.approx(oracle.params.omega, rel=0, abs=1e-4)
    for name in ("A", "B", "C1", "C2"):
        a, b = getattr(fit.params, name), getattr(oracle.params, name)
        assert a == pytest.approx(b, rel=1e-4, abs=1e-8)
    assert fit.converged == oracle.converged
    assert fit.degenerate_nodes == oracle.degenerate_nodes


@pytest.mark.parametrize("name", ["tc", "m"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_power_law_ssr_refuses_a_parameter_that_is_not_finite(name, bad):
    series = _synthetic_series(_params(), n=100)
    point = dict(tc=550.0, m=0.5) | {name: bad}
    with pytest.raises(ValueError) as exc:
        pc.power_law_ssr(series, **point)
    assert str(exc.value) == f"{name} must be finite, got {bad!r}"


@pytest.mark.parametrize("tc", [98.0, 99.0])
def test_power_law_ssr_refuses_a_tc_inside_the_data(tc):
    series = _synthetic_series(_params(), n=100)  # ends at t = 99
    with pytest.raises(ValueError) as exc:
        pc.power_law_ssr(series, tc, 0.5)
    assert str(exc.value) == f"tc = {tc} must exceed every observation time"


@pytest.mark.parametrize("n", [0, 1, 2])
def test_power_law_ssr_refuses_fewer_than_three_observations(n):
    # its three columns need three rows for R's last diagonal entry
    series = pc.PriceSeries(np.arange(float(n)), np.zeros(n))
    with pytest.raises(ValueError) as exc:
        pc.power_law_ssr(series, 10.0, 0.5)
    assert str(exc.value) == f"need at least 3 observations for the power-law baseline, got {n}"


@pytest.mark.parametrize("kind", ["bubble", "walk"])
def test_power_law_ssr_matches_reference_oracle(kind):
    series = _oracle_series(kind, 500, 75)
    for tc in series.times[-1] + np.array([1e-3, 1.0, 50.0, 250.0]):
        for m in (0.1, 0.5, 0.9):
            expected = ref.power_law_ssr(series, tc, m)
            assert pc.power_law_ssr(series, tc, m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"m_bounds": (0.5, 1.5)}, r"^m_bounds must lie in \(0, 1\), got \(0.5, 1.5\)$"),
        ({"m_bounds": (0.0, 0.5)}, r"^m_bounds must lie in \(0, 1\), got \(0.0, 0.5\)$"),
        ({"omega_bounds": (-5.0, 5.0)},
         r"^omega_bounds must lie in \(0, inf\), got \(-5.0, 5.0\)$"),
        ({"omega_bounds": (0.0, 5.0)}, r"^omega_bounds must lie in \(0, inf\), got \(0.0, 5.0\)$"),
        ({"n_tc": 0}, "n_tc must be >= 1, got 0"),
        ({"n_m": -2}, "n_m must be >= 1, got -2"),
        ({"n_omega": 0}, "n_omega must be >= 1, got 0"),
        ({"refine_top_k": -1}, "refine_top_k must be >= 0, got -1"),
        ({"n_tc": 2.5}, r"^n_tc must be an integer, got 2.5$"),
        ({"n_m": True}, r"^n_m must be an integer, got True$"),
        ({"n_omega": 12.0}, r"^n_omega must be an integer, got 12.0$"),
        ({"refine_top_k": 1.5}, r"^refine_top_k must be an integer, got 1.5$"),
        ({"refine_top_k": False}, r"^refine_top_k must be an integer, got False$"),
        # the series ends at t = 99, so no grid tc would lie past it
        ({"tc_bounds": (10.0, 50.0)}, r"tc_bounds \(10.0, 50.0\) .* time 99.0"),
        ({"tc_bounds": (30.0, 99.0)}, r"tc_bounds \(30.0, 99.0\) .* time 99.0"),
        # one grid tc sits at the lower bound, before the data end, so no node is profiled
        ({"tc_bounds": (50.0, 200.0), "n_tc": 1},
         r"^tc_bounds \(50.0, 200.0\) with n_tc = 1 put no grid tc past the last "
         r"observation time 99.0$"),
        ({"tc_bounds": (150.0, 120.0)}, r"^tc_bounds must satisfy lo < hi, got \(150.0, 120.0\)$"),
        ({"tc_bounds": (150.0, 150.0)}, r"^tc_bounds must satisfy lo < hi, got \(150.0, 150.0\)$"),
        # a bound that is not finite would put an infinite or NaN node in the grid
        ({"omega_bounds": (2.0, math.inf)},
         r"^omega_bounds must lie in \(0, inf\), got \(2.0, inf\)$"),
        ({"tc_bounds": (400.0, math.inf)}, r"^tc_bounds must be finite, got \(400.0, inf\)$"),
        ({"m_bounds": (math.nan, 0.5)}, r"^m_bounds must lie in \(0, 1\), got \(nan, 0.5\)$"),
        # a bounds field holds lo and hi, no more and no fewer
        ({"m_bounds": (0.1, 0.5, 0.9)},
         r"^m_bounds must hold exactly two values, got \(0.1, 0.5, 0.9\)$"),
        ({"m_bounds": (0.5,)}, r"^m_bounds must hold exactly two values, got \(0.5,\)$"),
        ({"omega_bounds": (2.0, 5.0, 25.0)},
         r"^omega_bounds must hold exactly two values, got \(2.0, 5.0, 25.0\)$"),
        ({"omega_bounds": ()}, r"^omega_bounds must hold exactly two values, got \(\)$"),
        ({"tc_bounds": (150.0,)}, r"^tc_bounds must hold exactly two values, got \(150.0,\)$"),
        ({"tc_bounds": 150.0}, r"^tc_bounds must hold exactly two values, got 150.0$"),
    ],
    ids=["bounds0", "bounds1", "bounds2", "bounds3", "n_tc", "n_m", "n_omega", "top_k",
         "n_tc_float", "n_m_bool", "n_omega_float", "top_k_float", "top_k_bool",
         "tc_before", "tc_at", "tc_one_node", "tc_reversed", "tc_equal",
         "omega_inf", "tc_inf", "m_nan", "m_three", "m_one", "omega_three", "omega_none",
         "tc_one", "tc_scalar"],
)
def test_search_config_refuses_bounds_outside_the_model(monkeypatch, bounds, message):
    def no_profile(*_a, **_k):
        raise AssertionError("the search ran")

    # the grid factorises every node and may send none of them to the SVD
    monkeypatch.setattr(pc.lppl, "_profile", no_profile)
    monkeypatch.setattr(pc.lppl, "_factor", no_profile)
    monkeypatch.setattr(pc.lppl, "_gate", no_profile)
    series = _synthetic_series(_params(), n=100)
    with pytest.raises(ValueError, match=message):
        pc.fit_lppl(series, pc.SearchConfig(**bounds))


def test_search_config_takes_numpy_integers():
    series = _synthetic_series(_params(), n=100)
    counts = dict(n_tc=np.int64(3), n_m=np.int32(2), n_omega=np.int64(2),
                  refine_top_k=np.int64(1))
    fit = pc.fit_lppl(series, pc.SearchConfig(**counts))
    plain = pc.fit_lppl(series, pc.SearchConfig(n_tc=3, n_m=2, n_omega=2, refine_top_k=1))
    assert fit == plain


# ------------------------------------------------------------- Nelder-Mead


def _rosenbrock(p):
    # a valley 100 times steeper than the textbook one, slow enough that
    # some starts are cut off at 400 iterations
    return (1e4 * (p[:, 1:] - p[:, :-1] ** 2) ** 2 + (1.0 - p[:, :-1]) ** 2).sum(axis=1)


def _edge_quadratic(p):
    # ill-conditioned and not axis-aligned; the unconstrained minimum
    # (2, -1, 0.5) lies past the first upper bound, the bounded one is
    # (1.5, -0.5, 0.5)
    d = p - [2.0, -1.0, 0.5]
    return d[:, 0] ** 2 + 1e3 * (d[:, 0] + d[:, 1]) ** 2 + 1e6 * d.sum(axis=1) ** 2


def _terraced(p):
    # plateaus in a tilted bowl cut by a steep curved valley: tied values,
    # failed contractions, shrinks before the end
    bowl = ((p - [0.4, -0.3, 0.2]) ** 2 * [1.0, 2.0, 3.0]).sum(axis=1)
    return np.floor(1e4 * (bowl + 1e5 * (p[:, 1] - p[:, 0] ** 2) ** 2))


def _walled(p):
    # +inf on the part of the box where x0 + x1 > 1
    q = ((p - [0.8, 0.6, -0.2]) ** 2).sum(axis=1)
    return np.where(p[:, 0] + p[:, 1] > 1.0, np.inf, q)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")  # scipy's inf - inf
@pytest.mark.parametrize("objective", [_rosenbrock, _edge_quadratic, _terraced, _walled])
def test_minimize_matches_scipy_nelder_mead_per_start(objective):
    # exact agreement was checked against scipy 1.17, the floor of the test
    # extra; older releases may build the initial simplex differently
    bounds = [(-2.0, 1.5), (-1.5, 2.0), (-1.0, 1.0)]
    # the first start sits on every upper bound, so its initial simplex is
    # reflected back into the box; the second has zero coordinates
    starts = np.array([[1.5, 2.0, 1.0], [0.0, 0.0, 0.0], [-1.2, 1.0, 0.5],
                       [0.3, -0.7, -0.9], [1.0, 1.0, 1.0]])
    calls = []

    def batched(points):
        calls.append(len(points))
        return objective(points)

    res = minimize(batched, starts, bounds)
    for i, x0 in enumerate(starts):
        ref = scipy_minimize(lambda x: objective(x[None])[0], x0, method="Nelder-Mead",
                             bounds=bounds,
                             options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-12})
        assert np.array_equal(res.x[i], ref.x)
        assert res.fun[i] == ref.fun
        assert res.start_nfev[i] == ref.nfev
        assert res.success[i] == ref.success
    assert res.nfev == sum(res.start_nfev)
    # starts that stop early run beside starts cut at maxiter
    assert res.success.any() and not res.success.all()
    # lockstep: one call for the initial simplices, then at most one per phase
    assert calls[0] == 4 * len(starts)
    assert len(calls) <= 1 + 3 * (400 - 1)
    assert max(calls[1:]) <= 3 * len(starts)


def _recorded(objective, calls):
    def batched(points):
        calls.append(points.copy())
        return objective(points)

    return batched


def _assert_same_result(res, oracle):
    for name in ("x", "fun", "success", "start_nfev"):
        got, want = getattr(res, name), getattr(oracle, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want), name
        # == holds for -0.0 against 0.0; the sign must match too
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("objective", [_rosenbrock, _edge_quadratic, _terraced, _walled])
def test_minimize_matches_the_lockstep_oracle(objective, k):
    # starts inside and past the box; the first sits on every upper bound and
    # the second, when there is one, at the origin
    bounds = [(-2.0, 1.5), (-1.5, 2.0), (-1.0, 1.0)]
    rng = np.random.default_rng(derive_seed(77, k))
    starts = np.column_stack([rng.uniform(lo - 0.3, hi + 0.3, k) for lo, hi in bounds])
    starts[0] = [1.5, 2.0, 1.0]
    starts[1:2] = 0.0
    calls, oracle_calls = [], []
    res = minimize(_recorded(objective, calls), starts, bounds)
    oracle = ref.lockstep_minimize(_recorded(objective, oracle_calls), starts, bounds)
    _assert_same_result(res, oracle)
    # the same batches in the same order: one call per phase
    assert len(calls) == len(oracle_calls)
    assert all(np.array_equal(a, b) for a, b in zip(calls, oracle_calls))


def test_minimize_clips_a_signed_zero_to_the_bound_as_numpy_does():
    # a trial point equal to a bound takes the bound's bits, as np.clip does
    # with array bounds: -0.0 clipped under a 0.0 floor is 0.0
    bounds = [(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0)]
    target = np.array([-0.5, -0.0, 0.0, 0.5])

    def objective(p):
        return ((p - target) ** 2).sum(axis=1)

    starts = np.array([[0.0, -0.0, 0.0, -0.0], [0.5, 0.5, -0.5, -0.5], [1.0, 1e-300, -1.0, 0.0]])
    res = minimize(objective, starts, bounds)
    _assert_same_result(res, ref.lockstep_minimize(objective, starts, bounds))


@pytest.mark.parametrize("top_k", [5, 20])
@pytest.mark.parametrize("n", [250, 500, 1000])
@pytest.mark.parametrize("kind", ["bubble", "walk"])
def test_fit_matches_the_lockstep_oracle_exactly(monkeypatch, kind, n, top_k):
    series = _oracle_series(kind, n, 78)
    search = pc.SearchConfig(refine_top_k=top_k)
    fit = pc.fit_lppl(series, search)
    monkeypatch.setattr(pc.lppl, "minimize", ref.lockstep_minimize)
    oracle = pc.fit_lppl(series, search)
    assert fit == oracle
