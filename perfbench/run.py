"""phasecrash benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study_panel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced and half traced, and reports
the per-layer metrics and the tracing overhead. Times are scaled to a
nominal host speed (see ``hostspeed.py``); the values as measured are
printed too. Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment
block, metrics, per-op times and factors and, when traced, the spans)
is written to ``.bench_out/`` in the checkout.

The benchmark passes no thread option and leaves BLAS threads at their
default; it records their number in the environment block.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import hostspeed
from metrics import END_TO_END, PER_LAYER, layer_values
from tracing import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# In-process workloads time their set-up here and in this many fresh
# processes, and report the median.
SETUP_PROBES = 2
SETUP_PROBE_TIMEOUT_S = 60

clock = time.monotonic


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one in-process set-up in this fresh interpreter.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import phasecrash from this checkout's ``src/``, never from an
    installed copy; returns None when the sources are absent."""
    if not os.path.isfile(os.path.join(SRC, "phasecrash", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import phasecrash

    if os.path.dirname(os.path.dirname(os.path.abspath(phasecrash.__file__))) != SRC:
        return None
    return phasecrash


# ---------------------------------------------------------------- environment

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from the
    files under ``.git`` so nothing outside the checkout is touched."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(pc):
    import numpy as np
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads(),
        "phasecrash": pc.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- measuring

@dataclass
class Op:
    index: int
    seconds: float  # as measured
    factor: float  # host-speed scale, see hostspeed.py
    outcome: object = None
    problems: list = field(default_factory=list)

    @property
    def corrected_s(self):
        return self.seconds * self.factor


def run_ops(wl, seconds, first, tracer=None):
    """Closed loop: run ops back to back until ``seconds`` have passed
    and a whole cycle of the workload's inputs is done. A host-speed
    reference reading sits between consecutive ops; an op that runs
    child processes adds the readings they took on their own CPU."""
    ops = []
    start = clock()
    before = hostspeed.reference()
    i = first
    while True:
        t0 = clock()
        span = tracer.span("bench.op", op_id=i) if tracer else nullcontext()
        try:
            with span:
                out = wl.op(i, tracer)
            dur = clock() - t0
            problems = wl.check(out)
        except Exception as exc:  # one failed op must not end the run
            dur, out = clock() - t0, None
            problems = [f"{type(exc).__name__}: {exc}"]
            if not any(op.problems for op in ops):
                traceback.print_exc()
        if problems and not any(op.problems for op in ops):
            print(f"op {i} failed: {problems}", file=sys.stderr)
        after = hostspeed.reference()
        during = out.get("host_readings", []) if isinstance(out, dict) else []
        ops.append(Op(i, dur, hostspeed.factor([before, *during, after]), out, problems))
        before = after
        i += 1
        if clock() - start >= seconds and (i - first) % wl.cycle == 0:
            return ops


def apply_pooled(wl, ops):
    """Run the workload's whole-run checks; ops they fail get a problem."""
    ok = {op.index: op.outcome for op in ops if not op.problems}
    failed = wl.pooled(ok) if ok else {}
    for op in ops:
        if op.index in failed:
            op.problems.append(failed[op.index])


class SetupClock:
    """Times set-up in segments with a host-speed reading after each, so
    a burst of host load inside set-up is corrected where it happened."""

    def __init__(self):
        self.ref = hostspeed.reference()
        self.raw = self.corrected = 0.0
        self.t = clock()

    def lap(self):
        seg = clock() - self.t
        ref = hostspeed.reference()
        self.raw += seg
        self.corrected += seg * hostspeed.factor([self.ref, ref])
        self.ref, self.t = ref, clock()


def timed_setup(wl, setup_clock):
    """Set up and warm up ``wl``; returns the set-up time since before
    phasecrash was imported and its overall host-speed factor."""
    wl.setup()
    setup_clock.lap()
    wl.warmup()
    setup_clock.lap()
    return setup_clock.raw, setup_clock.corrected / setup_clock.raw


def setup_times(args):
    """(time, factor) of the set-up in ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S, check=True)
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"]))
    return samples


def end_to_end(wl, ops, setups, corrected=True):
    """End-to-end metrics; times host-corrected unless ``corrected`` is
    false. Run time is the summed op time of the closed loop; ``setups``
    holds (time, factor) pairs."""
    ok = [op for op in ops if not op.problems]
    secs = lambda op: op.corrected_s if corrected else op.seconds
    setup = [t * f if corrected else t for t, f in setups]
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = statistics.median(op.outcome["rss_mb"] for op in ok) if ok else 0.0
    return {
        "ops_per_s": len(ok) / sum(secs(op) for op in ops),
        "op_p50_s": statistics.median(secs(op) for op in (ok or ops)),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": rss,
        "success_rate": len(ok) / len(ops),
    }


def measure(args, wl, setup_clock):
    """Set up, then run the closed loop. Returns (ops, metrics, record
    extras)."""
    if wl.in_process:
        own = timed_setup(wl, setup_clock)
    else:
        wl.setup()
    if not args.trace:
        setups = [own] + setup_times(args) if wl.in_process else []
        ops = run_ops(wl, args.seconds, 0)
        apply_pooled(wl, ops)
        if not wl.in_process:
            setups = [pair for op in ops if op.outcome for pair in op.outcome["setup_s"]]
        metrics = end_to_end(wl, ops, setups)
        raw = end_to_end(wl, ops, setups, corrected=False)
        return ops, metrics, {"measured": raw, "setups": setups}

    untraced = run_ops(wl, args.seconds / 2, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, args.seconds / 2, len(untraced), tracer)
    finally:
        tracer.uninstall()
    ops = untraced + traced
    apply_pooled(wl, ops)
    ok_traced = {op.index: op.outcome for op in traced if not op.problems}
    phases = {
        "untraced_op_s": statistics.fmean(op.corrected_s for op in untraced),
        "untraced_ops_per_s": len(untraced) / sum(op.corrected_s for op in untraced),
        "traced_ops_per_s": len(traced) / sum(op.corrected_s for op in traced),
        "error_rate": sum(1 for op in ops if op.problems) / len(ops),
    }
    stats = summarize(tracer.spans, {op.index: op.factor for op in traced})
    metrics = layer_values(stats, len(traced), wl.extra(ok_traced), phases)
    return ops, metrics, {"spans": tracer.spans}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    setup_clock = SetupClock()
    pc = import_package()
    if pc is None:
        print(f"perfbench: no phasecrash sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_clock.lap()
    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed, None)
        print(json.dumps({"setup": timed_setup(wl, setup_clock)}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.make(args.workload, args.seed, work)
        ops, metrics, extras = measure(args, wl, setup_clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = PER_LAYER if args.trace else END_TO_END
    failed = [op for op in ops if op.problems]
    env = environment(pc)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit, _ in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"# op_p50_s over n={len(ops) - len(failed)} ops, setup_s over "
              f"n={len(extras['setups'])} set-ups; times are host-corrected")
        print("# as measured: " + "  ".join(
            f"{k} {v:.6g}" for k, v in extras["measured"].items()))
        print(f"# host speed factor: median {statistics.median(op.factor for op in ops):.4g}")
    for op in failed:
        print(f"# failed op {op.index}: {'; '.join(op.problems)}")

    results = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec}
    record = {
        "args": vars(args),
        "env": env,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": results,
        "ops": [{"index": op.index, "seconds": op.seconds, "factor": op.factor,
                 "problems": op.problems} for op in ops],
        **extras,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
