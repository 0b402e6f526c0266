"""graphbell benchmark: run the workloads, check every answer, print the metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Each workload runs in a fresh process
(``perfbench/worker.py``); without ``--workload`` all four run, one after
another.  Every metric is printed by name with its unit, then the last line
of stdout is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  The full result, with the run context, is also written
to ``perfbench/out/``.  The exit code is 0 when every answer was right, 1
when some were wrong, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("families", "random", "grid", "cli")
SETUP_SAMPLES = 9  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170  # per workload, so one run stays inside 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph_core.canonical_key.calls": "count",
    "graph_core.canonical_key.self_s": "s",
    "graph_core.rewrite.calls": "count",
    "graph_core.rewrite.self_s": "s",
    "coloring_engine.profile.self_s": "s",
    "coloring_engine.memo.lookups": "count",
    "coloring_engine.memo.labeled_hit_ratio": "ratio",
    "coloring_engine.memo.canonical_hit_ratio": "ratio",
    "coloring_engine.memo.entries": "count",
    "sequences.bell.calls": "count",
    "sequences.bell.self_s": "s",
    "sequences.stirling2.calls": "count",
    "sequences.stirling2.self_s": "s",
    "sequences.growth_s": "s",
    "closed_forms.calls": "count",
    "closed_forms.self_s": "s",
    "inequality_verifier.points": "count",
    "inequality_verifier.scan.self_s": "s",
    "inequality_verifier.profile_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker")
    # A session of its own, so a timeout also stops any child the worker started.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_context(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def end_to_end_metrics(res: dict) -> dict:
    lat = res["latency"]
    return {
        "setup_s": statistics.median(res["setup_samples"]),
        "wall_s": res["wall_s"],
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": lat["p50_s"] * 1000,
        "latency_tail_ms": lat["tail_s"] * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report(res: dict, metrics: dict, units: dict, trace: bool) -> None:
    desc = res["describe"]
    print(f"workload {res['workload']}: seed {res['seed']}, {res['passes']} passes of "
          f"{desc['requests_per_pass']} requests, source {res['source_digest']}")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(res['setup_samples'])} set-ups"
        elif name == "latency_tail_ms":
            lat = res["latency"]
            note = (f"p{lat['tail_percentile']:.1f} of {lat['samples']} samples; "
                    f"{lat['beyond_requests']} requests beyond it")
        print(f"  {name:42s} {value:>16.6g} {units[name]:6s} {note}")
    if not trace:
        raw = res["raw"]
        print(f"  as timed, before speed normalisation: wall_s {raw['wall_s']:.6g} s, "
              f"latency_p50_ms {raw['latency']['p50_s'] * 1000:.6g} ms, "
              f"latency_tail_ms {raw['latency']['tail_s'] * 1000:.6g} ms")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_frac':42s} {frac:>16.6g} {'':6s} {res['failed']} of {res['attempted']}")
    if trace:
        acc = res["trace_accounting"]
        print(f"  trace: layer self times {acc['self_s_total']:.4f} s + untraced remainder "
              f"{acc['untraced_remainder_s']:.4f} s = traced wall {acc['traced_wall_s']:.4f} s")
    for message in res["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphbell benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "graphbell" / "__init__.py").is_file():
        print(f"error: no graphbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    context = run_context(args.seed)
    print(f"context: {json.dumps(context)}")
    OUT_DIR.mkdir(exist_ok=True)

    metrics_out: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        worker_args = ["--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            setup = []
            if not args.trace:
                for _ in range(SETUP_SAMPLES - 1):
                    setup.append(run_worker(worker_args + ["--setup-only"], deadline)["setup_s"])
            res = run_worker(worker_args, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        res["setup_samples"] = setup + [res["setup_s"]]
        res["context"] = context
        if args.trace:
            metrics, units = res["per_layer"], PER_LAYER
        else:
            metrics, units = end_to_end_metrics(res), END_TO_END
        report(res, metrics, units, bool(args.trace))
        with open(OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in metrics.items():
            metrics_out[prefix + metric] = {"value": value, "unit": units[metric]}
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
