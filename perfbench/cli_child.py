"""Run one ``phasecrash`` command in a fresh interpreter, as a CLI user
would, and record what the benchmark measures about it.

Usage: python3 cli_child.py RESULT_JSON SPAWN_STAMP TRACE -- COMMAND ARGS...

``SPAWN_STAMP`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s``, the time to the end of the import
of ``phasecrash.cli`` less the host-speed readings, is interpreter start
plus import. With ``TRACE`` = 1 the public functions are wrapped and the
spans are written into RESULT_JSON with the exit code, the readings and
the peak RSS.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import hostspeed  # noqa: E402  (sits beside this file)


class Readings:
    """Host-speed readings on this process's own CPU: one at start, then
    one every ``EVERY_S`` from a timer signal, whose handler runs between
    bytecodes of the main thread."""

    EVERY_S = 0.5

    def __init__(self):
        self.values, self.spent = [], 0.0
        self.take()
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def take(self):
        t0 = time.monotonic()
        self.values.append(hostspeed.reference())
        self.spent += time.monotonic() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.take()


def main(argv):
    result_path, spawn, trace = argv[0], float(argv[1]), argv[2] == "1"
    command = argv[4:]
    readings = Readings()
    sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))
    from phasecrash.cli import cli_dispatch

    ready = time.monotonic()
    setup_s = ready - spawn - readings.spent
    readings.take()
    setup_readings = len(readings.values)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.spans.append([0, None, None, "startup.import", spawn, ready, None, None])
        tracer.install()
    try:
        if tracer is None:
            rc = cli_dispatch(command)
        else:
            with tracer.span("cli." + command[0]):
                rc = cli_dispatch(command)
    except Exception:  # report any crash as a failed op, with its traceback
        traceback.print_exc()
        rc = 3
    readings.stop()
    record = {
        "rc": rc,
        "setup_s": setup_s,
        "readings": readings.values,
        "setup_readings": setup_readings,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [] if tracer is None else tracer.spans,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
