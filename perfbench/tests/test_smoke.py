"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each workload runs one short closed loop through ``run.main``; the test
checks that every named metric is printed with its unit and that a
corrupted output is counted as a failed op instead of ending the run.
"""

import dataclasses
import importlib
import json
import math
import os
import sys

import pytest

import phasecrash as pc
import run
import workloads
from metrics import END_TO_END, PER_LAYER
from tracing import TARGETS, Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = {
    "study_panel": lambda seed, work: workloads.StudyPanel(seed, work, crash=6, control=6),
    "route_ensemble": lambda seed, work: workloads.RouteEnsemble(seed),
    "lppl_fits": lambda seed, work: workloads.LpplFits(seed, sizes=(60,), per_size=1),
}


def _run(monkeypatch, capsys, tmp_path, workload, trace, make=None):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "make", make or (lambda name, seed, work: TINY[name](seed, work)))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _assert_emitted(result, lines, spec):
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in spec}
    printed = {line.split()[0]: line.split() for line in lines if not line.startswith("#")}
    for name, unit, _ in spec:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        assert printed[name][2] == unit


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    for attr in parts[cut:]:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return
        else:
            raise AttributeError(f"{dotted}: no {attr!r}")


def test_public_names_resolve():
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    names = list(record["common_names"])
    for w in workloads.WORKLOADS:
        names.extend(record["workloads"][w]["public_names"])
    for name in names:
        _resolve(name)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {(home, attr): getattr(sys.modules[home], attr) for _, home, attr, _ in TARGETS}
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "phasecrash"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in modules:
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values())
        assert pc.study.rolling_volatility is pc.rolling_volatility is pc.ews.rolling_volatility
    finally:
        tracer.uninstall()
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[home], attr) is fn


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(monkeypatch, capsys, tmp_path, workload, trace):
    result, lines = _run(monkeypatch, capsys, tmp_path, workload, trace)
    _assert_emitted(result, lines, PER_LAYER if trace else END_TO_END)
    if workload != "route_ensemble":
        # The route fingerprints are pooled over a run; over one or two
        # replicates their signs are noise, not a check.
        assert result["failed"] == 0 and result["correct"]
    assert any(line.startswith("# env ") for line in lines)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in ("noise", "simulate", "ews",
                                                         "study", "lppl", "io", "cli"))
        total = layers + m["startup.import_s"] + m["bench.self_s"]
        assert total == pytest.approx(m["trace.op_s"], rel=1e-9)


def test_nan_study_p_value_is_a_failed_op(monkeypatch, capsys, tmp_path):
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["signals"]["anomalous_dim"]["p_value"] = float("nan")
        return report

    monkeypatch.setattr(workloads.StudyPanel, "load_report", staticmethod(corrupt))
    result, lines = _run(monkeypatch, capsys, tmp_path, "study_panel", 0)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert any("p = nan" in line for line in lines)


def test_fit_before_last_observation_is_a_failed_op(monkeypatch, capsys, tmp_path):
    fit_lppl = pc.fit_lppl

    def early_tc(series, search=None):
        fit = fit_lppl(series, search)
        params = dataclasses.replace(fit.params, tc=float(series.times[-1]) - 1.0)
        return dataclasses.replace(fit, params=params)

    monkeypatch.setattr(pc, "fit_lppl", early_tc)
    result, _ = _run(monkeypatch, capsys, tmp_path, "lppl_fits", 0)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


def test_wrong_route_fingerprint_fails_the_run(monkeypatch, capsys, tmp_path):
    replicate = workloads.RouteEnsemble.replicate

    def flipped(self, seed):
        out = replicate(self, seed)
        out["taus"]["multi_xcov"] = -abs(out["taus"]["multi_xcov"]) - 0.1
        return out

    monkeypatch.setattr(workloads.RouteEnsemble, "replicate", flipped)
    result, lines = _run(monkeypatch, capsys, tmp_path, "route_ensemble", 0)
    assert result["failed"] == result["attempted"] >= 1
    assert any("multi_xcov" in line for line in lines)
