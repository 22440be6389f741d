"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces phasecrash's public functions with timing wrappers
at every name a caller looks up: ``rolling_volatility`` is bound in
``phasecrash``, ``phasecrash.ews`` and ``phasecrash.study``, and all
three bindings get the same wrapper. Nothing under ``src/`` changes.

A span is ``[span_id, parent_id, op_id, name, start, end, counts,
error]`` with ``time.monotonic()`` stamps, which are comparable across
processes on Linux, so spans recorded in a CLI child process nest inside
the parent's op span. Spans stay in memory until the run ends.
"""

import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("noise", "simulate", "ews", "study", "lppl", "io", "cli")


def _windows(_args, _kwargs, result):
    series = result if isinstance(result, list) else [result]
    return {
        "windows": sum(len(e) for e in series),
        "missing": sum(int(e.missing.sum()) for e in series),
    }


def _steps(args, kwargs, result):
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    return {"steps": n * (len(result) if isinstance(result, list) else 1)}


def _rows(_args, _kwargs, result):
    return {"rows": sum(len(s) for s in result)}


def _written(args, kwargs, _result):
    series = args[0] if args else kwargs["series_list"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"rows": sum(len(s) for s in series), "bytes": os.path.getsize(path)}


def _segments(_args, _kwargs, result):
    pre, normal = result
    return {"segments": len(pre) + len(normal)}


def _events(_args, _kwargs, result):
    return {"events": len(result)}


def _nfev(_args, _kwargs, result):
    return {"nfev": int(result.nfev)}


#: (span name, home module, attribute, counter). The span name is
#: ``<layer>.<function>``; the counter maps (args, kwargs, result) to
#: the work counts recorded on the span.
TARGETS = (
    ("noise.synth_fbm", "phasecrash.noise", "synth_fbm", None),
    ("noise.sample_alpha_stable", "phasecrash.noise", "sample_alpha_stable", None),
    ("noise.sample_gaussian_increments", "phasecrash.noise",
     "sample_gaussian_increments", None),
    ("simulate.simulate_cpt", "phasecrash.simulate", "simulate_cpt", _steps),
    ("simulate.simulate_spt", "phasecrash.simulate", "simulate_spt", _steps),
    ("simulate.simulate_dpt", "phasecrash.simulate", "simulate_dpt", _steps),
    ("simulate.simulate_multivariate", "phasecrash.simulate",
     "simulate_multivariate", _steps),
    ("ews.rolling_volatility", "phasecrash.ews", "rolling_volatility", _windows),
    ("ews.rolling_skewness", "phasecrash.ews", "rolling_skewness", _windows),
    ("ews.rolling_lag1_autocorr", "phasecrash.ews", "rolling_lag1_autocorr", _windows),
    ("ews.anomalous_dimension", "phasecrash.ews", "anomalous_dimension", _windows),
    ("ews.generalized_hurst", "phasecrash.ews", "generalized_hurst", _windows),
    ("ews.conformality_index", "phasecrash.ews", "conformality_index", _windows),
    ("ews.cross_covariance", "phasecrash.ews", "cross_covariance", _windows),
    ("study.detect_crashes", "phasecrash.study", "detect_crashes", _events),
    ("study.segment_windows", "phasecrash.study", "segment_windows", _segments),
    ("study.kendall_tau_trend", "phasecrash.study", "kendall_tau_trend", None),
    ("study.run_study", "phasecrash.study", "run_study", None),
    ("lppl.fit_lppl", "phasecrash.lppl", "fit_lppl", None),
    # Nelder-Mead refinement: scipy's ``minimize`` as bound in lppl.
    ("lppl.refine", "phasecrash.lppl", "minimize", _nfev),
    ("io.synth_corpus", "phasecrash.io", "synth_corpus", None),
    ("io.write_price_csv", "phasecrash.io", "write_price_csv", _written),
    ("io.load_price_csv", "phasecrash.io", "load_price_csv", _rows),
    ("io.write_report_json", "phasecrash.io", "write_report_json", None),
    ("io.write_report_csv", "phasecrash.io", "write_report_csv", None),
    ("io.write_segments_csv", "phasecrash.io", "write_segments_csv", None),
)


class Tracer:
    """Records spans; ``install`` wraps the targets, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.op_id, name, time.monotonic(), None, None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[5] = time.monotonic()
        self._stack.pop()

    def current(self):
        """Id of the innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name, op_id=None):
        """Benchmark-level span; ``op_id`` marks the root span of one op."""
        if op_id is not None:
            self.op_id = op_id
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[7] = type(exc).__name__
            raise
        finally:
            self._close(rec)
            if op_id is not None:
                self.op_id = None

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[7] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if count is not None:
                rec[6] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS):
        """Wrap each target at its home module and at every other
        ``phasecrash`` module attribute bound to the same object."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "phasecrash" or k.startswith("phasecrash."))]
        for name, home, attr, count in targets:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def adopt(self, spans, parent_id):
        """Append spans recorded in another process under ``parent_id``."""
        base = len(self.spans)
        for sid, parent, _op, name, start, end, counts, error in spans:
            self.spans.append([
                base + sid,
                parent_id if parent is None else base + parent,
                self.op_id, name, start, end, counts, error,
            ])


def summarize(spans, factors=None):
    """Per span name: calls, busy time, self time, max time, summed
    counts and error counts. Self time is span time not covered by
    direct child spans (spans of one process nest; they never overlap).
    ``factors`` maps an op id to the scale applied to its span times."""
    factors = factors or {}
    dur = {sid: (end - start) * factors.get(op, 1.0)
           for sid, _parent, op, _name, start, end, *_ in spans}
    child_time = {}
    for sid, parent, *_ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + dur[sid]
    stats = {}
    for sid, _parent, _op, name, _start, _end, counts, error in spans:
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "max_s": 0.0, "counts": {}, "errors": {}})
        s["calls"] += 1
        s["busy_s"] += dur[sid]
        s["self_s"] += dur[sid] - child_time.get(sid, 0.0)
        s["max_s"] = max(s["max_s"], dur[sid])
        for key, value in (counts or {}).items():
            s["counts"][key] = s["counts"].get(key, 0) + value
        if error is not None:
            s["errors"][error] = s["errors"].get(error, 0) + 1
    return stats
