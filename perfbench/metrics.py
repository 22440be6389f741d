"""Metric names, units and directions, and the per-layer metrics derived
from a traced run's spans. ``BENCHMARK.json`` lists the same names; the
smoke test keeps the two in step."""

from tracing import LAYERS

#: (name, unit, better) of every end-to-end metric, measured untraced.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

_NOISE = ("synth_fbm", "sample_alpha_stable", "sample_gaussian_increments")
_SIMULATORS = ("simulate_cpt", "simulate_spt", "simulate_dpt", "simulate_multivariate")
_EULER = ("simulate_cpt", "simulate_spt", "simulate_multivariate")
_EWS = (
    "rolling_volatility",
    "rolling_skewness",
    "rolling_lag1_autocorr",
    "anomalous_dimension",
    "generalized_hurst",
    "conformality_index",
    "cross_covariance",
)
_REPORT_WRITERS = ("io.write_report_json", "io.write_report_csv", "io.write_segments_csv")


def _per_layer_spec():
    spec = []
    add = lambda name, unit, better="lower": spec.append((name, unit, better))
    for fn in _NOISE:
        add(f"noise.{fn}.calls", "calls/op")
        add(f"noise.{fn}.busy_s", "s/op")
    add("noise.synth_fbm.max_s", "s")
    for fn in _SIMULATORS:
        add(f"simulate.{fn}.calls", "calls/op")
        add(f"simulate.{fn}.busy_s", "s/op")
        add(f"simulate.{fn}.steps", "steps/op")
    add("simulate.steps_per_s", "steps/s", "higher")
    for fn in _EWS:
        add(f"ews.{fn}.calls", "calls/op")
        add(f"ews.{fn}.busy_s", "s/op")
        add(f"ews.{fn}.windows", "windows/op")
        add(f"ews.{fn}.missing", "windows/op")
    add("ews.windows_per_s", "windows/s", "higher")
    for fn in ("detect_crashes", "segment_windows", "kendall_tau_trend"):
        add(f"study.{fn}.calls", "calls/op")
        add(f"study.{fn}.busy_s", "s/op")
    add("study.segment_windows.segments", "count/op")
    add("study.kendall_tau_trend.insufficient", "count/op")
    add("study.run_study.busy_s", "s/op")
    add("study.run_study.self_s", "s/op")
    add("study.events", "count/op")
    add("lppl.fit_lppl.calls", "calls/op")
    add("lppl.fit_lppl.busy_s", "s/op")
    add("lppl.refine.busy_s", "s/op")
    add("lppl.refine.nfev", "count/op")
    add("lppl.grid_s", "s/op")
    add("lppl.grid_nodes", "count/op")
    add("lppl.converged_ratio", "ratio", "higher")
    add("lppl.tc_hit_ratio", "ratio", "higher")
    add("io.synth_corpus.busy_s", "s/op")
    add("io.write_price_csv.busy_s", "s/op")
    add("io.write_price_csv.rows", "rows/op")
    add("io.write_price_csv.bytes", "bytes/op")
    add("io.load_price_csv.busy_s", "s/op")
    add("io.load_price_csv.rows", "rows/op")
    add("io.report_write_s", "s/op")
    add("cli.synth.busy_s", "s/op")
    add("cli.study.busy_s", "s/op")
    for layer in LAYERS:
        add(f"{layer}.self_s", "s/op")
    add("startup.import_s", "s/op")
    add("bench.self_s", "s/op")
    add("trace.op_s", "s/op")
    add("trace.untraced_op_s", "s/op")
    add("trace.traced_ops_per_s", "1/s", "higher")
    add("trace.untraced_ops_per_s", "1/s", "higher")
    add("trace.overhead_ops_per_s", "1/s", "higher")
    add("error_rate", "ratio")
    return tuple(spec)


#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER = _per_layer_spec()


def layer_values(stats, n_ops, workload_extra, phases):
    """Per-layer metric values. Calls, times and counts are per traced op,
    ``max_s`` is the longest single call, ratios and rates cover the run.

    ``stats`` comes from :func:`tracing.summarize`; ``workload_extra``
    holds values only the workload knows (evaluations reported by the
    fits, converged fits, tc hits);
    ``phases`` holds the untraced and traced op rates and mean op times
    and the error rate of the whole run.
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0,
             "counts": {}, "errors": {}}
    get = lambda name: stats.get(name, empty)
    per_op = lambda x: x / n_ops
    ratio = lambda a, b: a / b if b else 0.0
    out = {}
    for fn in _NOISE:
        out[f"noise.{fn}.calls"] = per_op(get(f"noise.{fn}")["calls"])
        out[f"noise.{fn}.busy_s"] = per_op(get(f"noise.{fn}")["busy_s"])
    out["noise.synth_fbm.max_s"] = get("noise.synth_fbm")["max_s"]
    for fn in _SIMULATORS:
        s = get(f"simulate.{fn}")
        out[f"simulate.{fn}.calls"] = per_op(s["calls"])
        out[f"simulate.{fn}.busy_s"] = per_op(s["busy_s"])
        out[f"simulate.{fn}.steps"] = per_op(s["counts"].get("steps", 0))
    out["simulate.steps_per_s"] = ratio(
        sum(get(f"simulate.{fn}")["counts"].get("steps", 0) for fn in _EULER),
        sum(get(f"simulate.{fn}")["busy_s"] for fn in _EULER),
    )
    windows = busy = 0.0
    for fn in _EWS:
        s = get(f"ews.{fn}")
        out[f"ews.{fn}.calls"] = per_op(s["calls"])
        out[f"ews.{fn}.busy_s"] = per_op(s["busy_s"])
        out[f"ews.{fn}.windows"] = per_op(s["counts"].get("windows", 0))
        out[f"ews.{fn}.missing"] = per_op(s["counts"].get("missing", 0))
        windows += s["counts"].get("windows", 0)
        busy += s["busy_s"]
    out["ews.windows_per_s"] = ratio(windows, busy)
    for fn in ("detect_crashes", "segment_windows", "kendall_tau_trend"):
        out[f"study.{fn}.calls"] = per_op(get(f"study.{fn}")["calls"])
        out[f"study.{fn}.busy_s"] = per_op(get(f"study.{fn}")["busy_s"])
    out["study.segment_windows.segments"] = per_op(
        get("study.segment_windows")["counts"].get("segments", 0))
    out["study.kendall_tau_trend.insufficient"] = per_op(
        get("study.kendall_tau_trend")["errors"].get("InsufficientDataError", 0))
    out["study.run_study.busy_s"] = per_op(get("study.run_study")["busy_s"])
    out["study.run_study.self_s"] = per_op(get("study.run_study")["self_s"])
    out["study.events"] = per_op(get("study.detect_crashes")["counts"].get("events", 0))
    fit, refine = get("lppl.fit_lppl"), get("lppl.refine")
    out["lppl.fit_lppl.calls"] = per_op(fit["calls"])
    out["lppl.fit_lppl.busy_s"] = per_op(fit["busy_s"])
    out["lppl.refine.busy_s"] = per_op(refine["busy_s"])
    out["lppl.refine.nfev"] = per_op(refine["counts"].get("nfev", 0))
    out["lppl.grid_s"] = per_op(fit["busy_s"] - refine["busy_s"])
    out["lppl.grid_nodes"] = per_op(
        workload_extra.get("grid_evals", 0) - refine["counts"].get("nfev", 0))
    out["lppl.converged_ratio"] = ratio(workload_extra.get("converged", 0), fit["calls"])
    out["lppl.tc_hit_ratio"] = ratio(
        workload_extra.get("tc_hits", 0), workload_extra.get("bubbles", 0))
    out["io.synth_corpus.busy_s"] = per_op(get("io.synth_corpus")["busy_s"])
    w, ld = get("io.write_price_csv"), get("io.load_price_csv")
    out["io.write_price_csv.busy_s"] = per_op(w["busy_s"])
    out["io.write_price_csv.rows"] = per_op(w["counts"].get("rows", 0))
    out["io.write_price_csv.bytes"] = per_op(w["counts"].get("bytes", 0))
    out["io.load_price_csv.busy_s"] = per_op(ld["busy_s"])
    out["io.load_price_csv.rows"] = per_op(ld["counts"].get("rows", 0))
    out["io.report_write_s"] = per_op(sum(get(n)["busy_s"] for n in _REPORT_WRITERS))
    out["cli.synth.busy_s"] = per_op(get("cli.synth")["busy_s"])
    out["cli.study.busy_s"] = per_op(get("cli.study")["busy_s"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(sum(
            s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer))
    out["startup.import_s"] = per_op(get("startup.import")["busy_s"])
    out["bench.self_s"] = per_op(get("bench.op")["self_s"])
    out["trace.op_s"] = per_op(get("bench.op")["busy_s"])
    out["trace.untraced_op_s"] = phases["untraced_op_s"]
    out["trace.traced_ops_per_s"] = phases["traced_ops_per_s"]
    out["trace.untraced_ops_per_s"] = phases["untraced_ops_per_s"]
    out["trace.overhead_ops_per_s"] = (
        phases["traced_ops_per_s"] - phases["untraced_ops_per_s"])
    out["error_rate"] = phases["error_rate"]
    return out
