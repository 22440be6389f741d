import numpy as np
import pytest

import phasecrash as pc
from phasecrash.cli import _cmd_simulate, build_parser
from phasecrash.errors import check_int
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


def test_a_study_config_with_numpy_counts_digests_as_one_with_python_ints():
    def config(cast):
        ews = pc.WindowConfig(window=cast(63), stride=cast(5), tau_grid=(2, cast(4), 8))
        return pc.StudyConfig(lookback=cast(126), pre_crash_window=cast(252),
                              exclusion_margin=cast(63), ews_cfg=ews)

    digests = [RunManifest.digest_config(_to_dict(config(cast))) for cast in (int, I64)]
    assert digests[0] == digests[1]
