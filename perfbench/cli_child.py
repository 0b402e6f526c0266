"""Run ``python -m graphbell`` and report the machine speed this process saw.

Usage (with the package on PYTHONPATH):

    python perfbench/cli_child.py <graphbell arguments>

Stdout, stderr and the exit code are the command's own.  The reference loop
of ``speed.py`` is timed before and after the command, and
"<before> <after> <seconds spent in the loops>" is written to
$PERFBENCH_SPEED_FILE, so the parent can take the loops out of the request's
time and scale the rest.  When $PERFBENCH_TRACE_FILE is set, the span hooks
of ``tracing.py`` are installed first and the aggregated spans are written
there as JSON when the command ends.
"""

import os
import runpy
import sys
import time

import speed


def main() -> None:
    t0 = time.perf_counter()
    before = speed.reference_seconds()
    in_loops = time.perf_counter() - t0
    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    if trace_file:
        import json

        import graphbell.cli  # noqa: F401  -- imported first so ``cli.main`` can be hooked
        import tracing

        tracing.SPAN_SAMPLE_CAP = 2_000
        tracer = tracing.Tracer()
        tracing.Hooks(tracer).install(cli=True).count_shared_memo()
    sys.argv = ["graphbell", *sys.argv[1:]]
    try:
        runpy.run_module("graphbell", run_name="__main__", alter_sys=True)
    finally:
        t0 = time.perf_counter()
        after = speed.reference_seconds()
        in_loops += time.perf_counter() - t0
        with open(os.environ["PERFBENCH_SPEED_FILE"], "w", encoding="utf-8") as fh:
            fh.write(f"{before} {after} {in_loops}\n")
        if trace_file:
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.aggregates(), fh)


if __name__ == "__main__":
    main()
