import math

import numpy as np
import pytest

import phasecrash as pc
from phasecrash.cli import _cmd_simulate, build_parser
from phasecrash.errors import check_int, check_real
from phasecrash.io import PARAM_DEFAULTS, AssetGroupSpec, RunManifest, _to_dict, simulate_asset
from phasecrash.noise import MAX_SEED


@pytest.mark.parametrize(
    "value, lo, hi, message",
    [(True, 0, None, "n must be an integer, got True"),
     (np.bool_(False), 0, None, "n must be an integer, got np.False_"),
     (2.0, 0, None, "n must be an integer, got 2.0"),
     ("2", 0, None, "n must be an integer, got '2'"),
     (None, 0, None, "n must be an integer, got None"),
     (-1, 0, None, "n must be >= 0, got -1"),
     (np.int64(4), 5, None, "n must be >= 5, got np.int64(4)"),
     (11, 0, 10, "n must lie in [0, 10], got 11"),
     (-1, 0, 10, "n must lie in [0, 10], got -1")],
)
def test_check_int_refuses_by_name(value, lo, hi, message):
    with pytest.raises(ValueError) as exc:
        check_int("n", value, lo, hi)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "interval, value, message",
    [("(0, 1]", 0.0, "x must lie in (0, 1], got 0.0"),
     ("(0, 1]", 1.0, None),
     ("(0, 1]", 1.5, "x must lie in (0, 1], got 1.5"),
     ("[0, inf)", 0.0, None),
     ("[0, inf)", -5e-324, "x must lie in [0, inf), got -5e-324"),
     ("[0, inf)", math.inf, "x must lie in [0, inf), got inf"),
     ("[-1, 1]", -1.0, None),
     ("[-1, 1]", math.nan, "x must lie in [-1, 1], got nan"),
     ("(-inf, inf)", -1e300, None),
     ("(-inf, inf)", math.nan, "x must be finite, got nan"),
     ("(-inf, inf)", math.inf, "x must be finite, got inf"),
     ("(-inf, inf)", -math.inf, "x must be finite, got -inf"),
     ("(0, 1)", None, None),
     ("(0, 1)", (0.5, 0.25), None),
     ("(0, 1)", (0.5, 1.0), "x must lie in (0, 1), got (0.5, 1.0)"),
     ("(-inf, inf)", ((1.0, 0.5), (math.nan, 1.0)),
      "x must be finite, got ((1.0, 0.5), (nan, 1.0))"),
     ("[0, inf)", np.array([0.0, 2.0]), None),
     ("[0, inf)", np.array([0.5, -1.0]), "x must lie in [0, inf), got array([ 0.5, -1. ])")],
)
def test_check_real_refuses_by_name_and_interval(interval, value, message):
    if message is None:
        assert check_real(interval, x=value) is None
        return
    with pytest.raises(ValueError) as exc:
        check_real(interval, x=value)
    assert str(exc.value) == message


def test_check_real_defaults_to_finite_and_names_the_first_bad_field():
    check_real(a=1.0, b=None)
    with pytest.raises(ValueError) as exc:
        check_real("(0, 1)", a=0.5, b=2.0, c=math.nan)
    assert str(exc.value) == "b must lie in (0, 1), got 2.0"


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(3), np.int8(3)])
def test_check_int_returns_a_python_int(value):
    got = check_int("n", value, 3, 2**64 - 1)
    assert got == 3 and type(got) is int


def _cli_sample_every(value, tmp_path):
    args = build_parser().parse_args(["simulate", "--kind", "bm", "--n", "20",
                                      "--out", str(tmp_path / "sim")])
    args.sample_every = value
    _cmd_simulate(args)


I64 = np.int64

#: (name in the message, lowest value taken, a value taken, a call that takes the value);
#: a seed is also refused above MAX_SEED. Each taken value is a numpy integer, except
#: on the command line, whose parser makes every value a Python int
_INTEGER_FIELDS = [
    ("seed", 0, I64(3), lambda v, _: pc.sample_gaussian_increments(4, 1.0, v)),
    ("n", 1, I64(4), lambda v, _: pc.sample_gaussian_increments(v, 1.0, 3)),
    ("t_start", 0, I64(2), lambda v, _: pc.Ramp(0.5, 0.9, t_start=v)),
    ("window", 1, I64(126), lambda v, _: pc.WindowConfig(window=v)),
    ("stride", 1, I64(10), lambda v, _: pc.WindowConfig(stride=v)),
    ("tau_grid[2]", 2, I64(8), lambda v, _: pc.WindowConfig(tau_grid=(2, 4, v))),
    ("orders[1]", 1, I64(2), lambda v, _: pc.WindowConfig(orders=(1, v))),
    ("n_tc", 1, I64(20), lambda v, _: pc.SearchConfig(n_tc=v)),
    ("n_m", 1, I64(9), lambda v, _: pc.SearchConfig(n_m=v)),
    ("n_omega", 1, I64(12), lambda v, _: pc.SearchConfig(n_omega=v)),
    ("refine_top_k", 0, I64(5), lambda v, _: pc.SearchConfig(refine_top_k=v)),
    ("lookback", 1, I64(126), lambda v, _: pc.StudyConfig(lookback=v)),
    ("exclusion_margin", 0, I64(63), lambda v, _: pc.StudyConfig(exclusion_margin=v)),
    # at least the window of the default ews config, 63
    ("pre_crash_window", 63, I64(252), lambda v, _: pc.StudyConfig(pre_crash_window=v)),
    ("count", 0, I64(2), lambda v, _: AssetGroupSpec("bm", v)),
    ("n", 1, I64(2520), lambda v, _: AssetGroupSpec("bm", 2, n=v)),
    ("sample_every", 1, I64(2), lambda v, _: AssetGroupSpec("bm", 2, sample_every=v)),
    ("drop_len", 1, I64(40), lambda v, _: AssetGroupSpec("bm", 2, drop_len=v)),
    ("t_start", 0, I64(5),
     lambda v, _: simulate_asset("bm", PARAM_DEFAULTS["bm"], 10, 1.0, v, 3)),
    ("sample_every", 1, I64(2),
     lambda v, _: pc.SimPath(np.zeros(5), 1.0).to_price_series("x", sample_every=v)),
    ("sample_every", 1, 2, _cli_sample_every),
]
_IDS = ["noise-seed", "noise-n", "ramp-t_start", "window", "stride", "tau_grid", "orders",
        "n_tc", "n_m", "n_omega", "refine_top_k", "lookback", "exclusion_margin",
        "pre_crash_window", "group-count", "group-n", "group-sample_every", "group-drop_len",
        "simulate_asset-t_start", "sim_path-sample_every", "cli-sample_every"]


@pytest.mark.parametrize("name, lo, good, call", _INTEGER_FIELDS, ids=_IDS)
def test_every_integer_field_refuses_a_bool_a_fraction_and_a_value_below_its_floor(
        tmp_path, name, lo, good, call):
    cases = [(True, "be an integer"), (2.5, "be an integer"), (lo - 1, f"be >= {lo}")]
    if name == "seed":
        cases[2:] = [(v, f"lie in [0, {MAX_SEED}]") for v in (-1, MAX_SEED + 1)]
    for bad, rule in cases:
        with pytest.raises(ValueError) as exc:
            call(bad, tmp_path)
        assert f"{name} must {rule}, got {bad!r}" in str(exc.value)
    made = call(good, tmp_path)
    if isinstance(made, _CONFIGS):  # a config keeps the Python int, which JSON can write
        held = getattr(made, name.split("[")[0])
        assert type(held[int(name[-2])] if "[" in name else held) is int


_CONFIGS = (pc.Ramp, pc.WindowConfig, pc.SearchConfig, pc.StudyConfig, AssetGroupSpec)


def _cli_bm_sigma(value, tmp_path):
    args = build_parser().parse_args(["simulate", "--kind", "bm", "--n", "20",
                                      "--out", str(tmp_path / "sim")])
    args.sigma = value
    _cmd_simulate(args)


def _set(cls, base, key):
    """A call that builds ``cls`` from ``base`` with ``key`` set to its value."""
    return lambda v, _: cls(**{**base, key: v})


def _pair(v):
    return (0.5, v)


_MU = pc.MuSchedule(0.0, 0.36)
_CPT = dict(r=1.0, mu_schedule=_MU, sigma=0.03, p0=1.0)
_SPT = dict(r=1.0, lam=1.0, alpha_vol=0.01, p0=1.0)
_DPT = dict(noise_spec=pc.HurstSchedule(0.5, 0.9), scale=0.01, p0=0.0)
_MULTI = dict(r=(1.0, 1.0), lam=(1.0, 1.0), mu_schedule=_MU, sigma=(0.1, 0.1),
              coupling=((1.0, 0.3), (0.3, 1.0)), p0=(1.0, 1.0))
_LPPL = dict(A=1.0, B=-0.5, C1=0.05, C2=0.05, m=0.5, omega=8.0, tc=550.0)
_HAZARD = dict(alpha_h=1.0, beta_h=0.5, m=0.5, omega=6.0, phi=0.0, tc=10.0)
_SERIES = pc.PriceSeries(np.arange(100.0), np.linspace(0.0, 1.0, 100))
_POINT = dict(tc=550.0, m=0.5, omega=8.0)
_FINITE = "(-inf, inf)"

#: (id, name in the message, interval, a call that takes the field's value, and for a
#: field that holds a tuple, the tuple that holds a value)
_REAL_FIELDS = [
    *[(f"cpt-{k}", k, _FINITE, _set(pc.CptParams, _CPT, k)) for k in ("r", "p0")],
    ("cpt-mu_start", "mu_start", _FINITE,
     lambda v, _: pc.CptParams(**{**_CPT, "mu_schedule": pc.MuSchedule(v, 0.36)})),
    ("cpt-mu_end", "mu_end", _FINITE,
     lambda v, _: pc.CptParams(**{**_CPT, "mu_schedule": pc.MuSchedule(0.0, v)})),
    ("cpt-sigma", "sigma", "[0, inf)", _set(pc.CptParams, _CPT, "sigma")),
    *[(f"spt-{k}", k, _FINITE, _set(pc.SptParams, _SPT, k)) for k in ("r", "p0")],
    ("spt-lam", "lam", "(0, inf)", _set(pc.SptParams, _SPT, "lam")),
    ("spt-alpha_vol", "alpha_vol", "[0, inf)", _set(pc.SptParams, _SPT, "alpha_vol")),
    ("dpt-p0", "p0", _FINITE, _set(pc.DptParams, _DPT, "p0")),
    ("dpt-scale", "scale", "[0, inf)", _set(pc.DptParams, _DPT, "scale")),
    *[(f"multi-{k}", k, _FINITE, _set(pc.MultiParams, _MULTI, k), _pair) for k in ("r", "p0")],
    *[(f"multi-{k}", k, "[0, inf)", _set(pc.MultiParams, _MULTI, k), _pair)
      for k in ("lam", "sigma")],
    ("multi-mu_start", "mu_start", _FINITE,
     lambda v, _: pc.MultiParams(**{**_MULTI, "mu_schedule": pc.MuSchedule(v, 0.36)})),
    ("multi-mu_end", "mu_end", _FINITE,
     lambda v, _: pc.MultiParams(**{**_MULTI, "mu_schedule": pc.MuSchedule(0.0, v)})),
    ("multi-coupling", "coupling", _FINITE, _set(pc.MultiParams, _MULTI, "coupling"),
     lambda v: ((1.0, v), (v, 1.0))),
    ("sim_path-dt", "dt", "(0, inf)", lambda v, _: pc.SimPath(np.zeros(3), v)),
    ("noise-dt", "dt", "(0, inf)", lambda v, _: pc.sample_gaussian_increments(4, v, 3)),
    ("hurst-start", "Hurst exponent", "(0, 1)", lambda v, _: pc.HurstSchedule(v, 0.9)),
    ("hurst-end", "Hurst exponent", "(0, 1)", lambda v, _: pc.HurstSchedule(0.5, v)),
    ("stable-start", "stability index", "(0, 2]", lambda v, _: pc.StableSchedule(v, 1.2)),
    ("stable-end", "stability index", "(0, 2]", lambda v, _: pc.StableSchedule(2.0, v)),
    ("stable-scale", "scale", "[0, inf)", lambda v, _: pc.StableSchedule(2.0, scale=v)),
    *[(f"lppl-{k}", k, _FINITE, _set(pc.LpplParams, _LPPL, k))
      for k in ("A", "B", "C1", "C2", "tc")],
    ("lppl-m", "m", "(0, 1)", _set(pc.LpplParams, _LPPL, "m")),
    ("lppl-omega", "omega", "(0, inf)", _set(pc.LpplParams, _LPPL, "omega")),
    *[(f"hazard-{k}", k, _FINITE, _set(pc.HazardParams, _HAZARD, k)) for k in ("phi", "tc")],
    ("hazard-alpha_h", "alpha_h", "(0, inf)", _set(pc.HazardParams, _HAZARD, "alpha_h")),
    ("hazard-beta_h", "beta_h", "[-1, 1]", _set(pc.HazardParams, _HAZARD, "beta_h")),
    ("hazard-m", "m", "(0, 1)", _set(pc.HazardParams, _HAZARD, "m")),
    ("hazard-omega", "omega", "(0, inf)", _set(pc.HazardParams, _HAZARD, "omega")),
    ("search-m_bounds", "m_bounds", "(0, 1)",
     lambda v, _: pc.SearchConfig(m_bounds=v), lambda v: (v, 0.9)),
    ("search-omega_bounds", "omega_bounds", "(0, inf)",
     lambda v, _: pc.SearchConfig(omega_bounds=v), lambda v: (v, 25.0)),
    ("search-tc_bounds", "tc_bounds", _FINITE,
     lambda v, _: pc.SearchConfig(tc_bounds=v), lambda v: (400.0, v)),
    *[(f"solve_linear-{k}", k, _FINITE,
       lambda v, _, k=k: pc.solve_linear_params(**{**_POINT, k: v}, series=_SERIES))
      for k in _POINT],
    *[(f"power_law-{k}", k, _FINITE,
       lambda v, _, k=k: pc.power_law_ssr(_SERIES, **{"tc": 550.0, "m": 0.5, k: v}))
      for k in ("tc", "m")],
    ("study-crash_threshold", "crash_threshold", "(0, 1)",
     lambda v, _: pc.StudyConfig(crash_threshold=v)),
    ("group-onset", "onset", "[0, 1)",
     lambda v, _: AssetGroupSpec("dpt_stable", 1, params={"onset": v})),
    ("group-dt", "dt", "(0, inf)", lambda v, _: AssetGroupSpec("bm", 1, dt=v)),
    ("group-forced_drop", "forced_drop", "(0, 1)",
     lambda v, _: AssetGroupSpec("bm", 1, forced_drop=v)),
    *[(f"bm-{k}", k, interval,
       lambda v, _, k=k: simulate_asset("bm", {**PARAM_DEFAULTS["bm"], k: v}, 10, 1.0, 0, 3))
      for k, interval in (("p0", _FINITE), ("sigma", "[0, inf)"))],
    ("cli-bm-sigma", "sigma", "[0, inf)", _cli_bm_sigma),
]


def _outside(interval):
    """NaN, and past each end of ``interval`` the nearest value outside it: the
    end itself where it is open (an infinity where it is infinite), the next
    float where it is closed."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    ends = ((lo, interval[0] == "[", -math.inf), (hi, interval[-1] == "]", math.inf))
    return [math.nan, *(float(np.nextafter(end, away)) if closed else end
                        for end, closed, away in ends)]


@pytest.mark.parametrize("row", _REAL_FIELDS, ids=[row[0] for row in _REAL_FIELDS])
def test_every_real_field_refuses_nan_and_a_value_just_outside_its_interval(tmp_path, row):
    _, name, interval, call, *in_tuple = row
    rule = "be finite" if interval == _FINITE else f"lie in {interval}"
    for bad in _outside(interval):
        value = in_tuple[0](bad) if in_tuple else bad
        with pytest.raises(ValueError) as exc:
            call(value, tmp_path)
        assert f"{name} must {rule}, got {value!r}" in str(exc.value)


def test_a_study_config_with_numpy_counts_digests_as_one_with_python_ints():
    def config(cast):
        ews = pc.WindowConfig(window=cast(63), stride=cast(5), tau_grid=(2, cast(4), 8))
        return pc.StudyConfig(lookback=cast(126), pre_crash_window=cast(252),
                              exclusion_margin=cast(63), ews_cfg=ews)

    digests = [RunManifest.digest_config(_to_dict(config(cast))) for cast in (int, I64)]
    assert digests[0] == digests[1]
