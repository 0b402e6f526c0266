"""Run one workload in a fresh process and print its measurements as one JSON line.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this once per workload, plus a few ``--setup-only``
copies that only time the set-up.  The timed phase is a closed loop: one
client, the next request starts when the previous one has finished.  With
``--trace 1`` half the passes (rounded up) run twice, first untraced and
then with the span hooks installed, so a traced run stays near the time of
an untraced one; the per-layer numbers come from the second run and
``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
PROBES = 5  # bare-interpreter and import probes for the cli layer
MAX_FAILURE_MESSAGES = 10
REMAINDER_MAX = 0.05  # share of an in-process traced phase allowed outside the layer spans


class Phase:
    """A closed loop of ``passes`` passes: every call's time, raw and speed-normalised."""

    def __init__(self, passes: int):
        self.passes = passes
        self.calls: list[tuple[float, float, int, int]] = []  # (normalised s, raw s, requests, index)

    @property
    def wall_s(self) -> float:
        """Duration of the timed phase, speed-normalised."""
        return sum(c[0] for c in self.calls)

    @property
    def raw_wall_s(self) -> float:
        return sum(c[1] for c in self.calls)

    @property
    def requests(self) -> int:
        return sum(c[2] for c in self.calls)

    def latency(self, raw: bool = False) -> dict:
        """Median and tail latency per request, one sample per timed call.

        Every call is one sample: a request counts once per pass, at the time
        that pass measured.  A ``grid`` call is a whole scan, and its sample
        is the scan's time divided by its points.  The tail is the highest
        percentile with ``TAIL_BEYOND`` samples above it; ``beyond_requests``
        counts the different requests among those samples.
        """
        k = 1 if raw else 0
        samples = sorted((c[k] / c[2], c[3]) for c in self.calls)
        times = [t for t, _ in samples]
        rank = max(len(samples) - TAIL_BEYOND - 1, 0)
        return {
            "p50_s": statistics.median(times),
            "tail_s": times[rank],
            "tail_percentile": 100.0 * (rank + 1) / len(samples),
            "samples": len(samples),
            "beyond_requests": len({i for _, i in samples[rank + 1:]}),
        }


def run_phase(wl, passes: int, failures: "Failures", tracer=None) -> Phase:
    phase = Phase(passes)
    clock = time.perf_counter
    measure = (lambda: 0.0) if wl.children_do_the_work else speed.reference_seconds
    before = measure()
    for p in range(passes):
        for i in wl.pass_order(p):
            if tracer is not None:
                tracer.request = (p, i)
            weight = wl.weight(i)
            t0 = clock()
            try:
                out = wl.run(i)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                out = None
                error = f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            after = measure()
            raw, normalised = wl.times(dt, before, after)
            phase.calls.append((normalised, raw, weight, i))
            before = after
            failures.attempt(i, weight)
            if error is None:
                error = wl.check(i, out)
            if error:
                failures.fail(i, weight, f"{wl.label(i)}: {error}")
    return phase


class Failures:
    """Failed attempts per request, so a later check can fail all of a request's attempts."""

    def __init__(self):
        self.attempts: dict[int, int] = defaultdict(int)
        self.failed: dict[int, int] = defaultdict(int)
        self.messages: list[str] = []

    def attempt(self, i: int, weight: int) -> None:
        self.attempts[i] += weight

    def fail(self, i: int, weight: int, message: str) -> None:
        self.failed[i] += weight
        self.note(message)

    def fail_all(self, i: int, message: str) -> None:
        self.failed[i] = self.attempts[i]
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)

    @property
    def count(self) -> int:
        return sum(self.failed.values())


def peak_rss_mb(wl) -> float:
    kb = wl.peak_child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def probe_seconds(argv: list[str], env: dict) -> float:
    """Median wall time of ``PROBES`` runs of a short child process."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracing, tracer, setup_tracer, wl, plain: Phase, traced: Phase) -> dict:
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters

    def ratio(hits, lookups):
        return counters[hits] / counters[lookups] if counters[lookups] else 0.0

    out = {
        "graph_core.canonical_key.calls": calls[tracing.CANONICAL],
        "graph_core.canonical_key.self_s": self_s[tracing.CANONICAL],
        "graph_core.rewrite.calls": calls[tracing.REWRITE],
        "graph_core.rewrite.self_s": self_s[tracing.REWRITE],
        "coloring_engine.profile.self_s": self_s[tracing.PROFILE],
        "coloring_engine.memo.lookups": int(counters[tracing.LABELED_LOOKUPS]),
        "coloring_engine.memo.labeled_hit_ratio": ratio(tracing.LABELED_HITS, tracing.LABELED_LOOKUPS),
        "coloring_engine.memo.canonical_hit_ratio": ratio(tracing.CANONICAL_HITS, tracing.CANONICAL_LOOKUPS),
        "coloring_engine.memo.entries": int(counters[tracing.MEMO_ENTRIES_MAX]),
        "sequences.bell.calls": calls[tracing.BELL],
        "sequences.bell.self_s": self_s[tracing.BELL],
        "sequences.stirling2.calls": calls[tracing.STIRLING],
        "sequences.stirling2.self_s": self_s[tracing.STIRLING],
        "sequences.growth_s": counters[tracing.GROWTH_S] + setup_tracer.counters[tracing.GROWTH_S],
        "closed_forms.calls": calls[tracing.CLOSED_FORMS],
        "closed_forms.self_s": self_s[tracing.CLOSED_FORMS],
        "inequality_verifier.points": int(counters[tracing.SCAN_POINTS]),
        "inequality_verifier.scan.self_s": self_s[tracing.SCAN],
        "inequality_verifier.profile_s": counters[tracing.PROFILE_IN_SCAN_S],
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "cli.main.self_s": self_s[tracing.CLI_MAIN],
        "cli.output_bytes": wl.output_bytes,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1 if plain.wall_s else 0.0,
    }
    if wl.name == "cli":
        from workloads import child_env

        bare = probe_seconds([sys.executable, "-c", "pass"], child_env())
        imported = probe_seconds([sys.executable, "-c", "import graphbell.cli"], child_env())
        out["cli.interpreter_s"] = bare
        out["cli.import_s"] = imported - bare
    return out


def trace_accounting(tracing, tracer, wl, traced: Phase) -> dict:
    """Split the traced time into layer self times and the untraced remainder.

    Self times add up to the root spans by construction, so the checks are
    on what the spans cover.  An in-process request is one hooked call
    (``profile`` or ``scan``), so the remainder, the harness's own time,
    must stay under ``REMAINDER_MAX`` of the traced time.  A cli request is a
    child process that must report exactly one ``cli.main`` span.
    """
    self_total = sum(tracer.self_s.values())
    remainder = traced.raw_wall_s - tracer.root_s
    problems = []
    if tracer.missing:
        problems.append(f"hook targets not found: {', '.join(sorted(tracer.missing))}")
    if wl.children_do_the_work:
        if tracer.calls[tracing.CLI_MAIN] != len(traced.calls):
            problems.append(f"{tracer.calls[tracing.CLI_MAIN]} cli.main spans "
                            f"for {len(traced.calls)} processes")
    elif remainder > REMAINDER_MAX * traced.raw_wall_s:
        problems.append(f"{remainder:.4f} s of the traced {traced.raw_wall_s:.4f} s "
                        f"is outside every layer span")
    return {
        "self_s_total": self_total,
        "untraced_remainder_s": remainder,
        "traced_wall_s": traced.raw_wall_s,
        "problems": problems,
    }


def write_spans(path: Path, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["id", "parent", "name", "start", "end", "request"], "spans": [\n')
        fh.write(",\n".join(json.dumps(s) for s in tracer.spans))
        fh.write("\n]}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    before = speed.reference_seconds()
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphbell

    if src.resolve() not in Path(graphbell.__file__).resolve().parents:
        print(f"error: imported graphbell from {graphbell.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    setup_tracer = tracing.Tracer()
    hooks = tracing.Hooks(setup_tracer).install() if args.trace else None
    wl.setup()
    if hooks is not None:
        hooks.uninstall()
    raw_setup_s = time.perf_counter() - t0
    _, setup_s = wl.setup_times(raw_setup_s, before, speed.reference_seconds())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    if args.trace:
        passes = (passes + 1) // 2
    failures = Failures()
    plain = run_phase(wl, passes, failures)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": passes,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": plain.wall_s,
        "ops_per_s": plain.requests / plain.wall_s,
        "latency": plain.latency(),
        "raw": {
            "wall_s": plain.raw_wall_s,
            "ops_per_s": plain.requests / plain.raw_wall_s,
            "latency": plain.latency(raw=True),
        },
        "peak_rss_mb": peak_rss_mb(wl),
        "describe": wl.describe(),
        "source_digest": workloads.source_digest(),
    }

    if args.trace:
        tracer = tracing.Tracer()
        hooks = tracing.Hooks(tracer).install()
        base_memo = wl.memo_class
        wl.memo_class = hooks.cache_class
        wl.tracer = tracer
        wl.output_bytes = 0
        traced = run_phase(wl, passes, failures, tracer)
        hooks.uninstall()
        wl.memo_class, wl.tracer = base_memo, None
        result["per_layer"] = layer_metrics(tracing, tracer, setup_tracer, wl, plain, traced)
        tracer.missing |= setup_tracer.missing
        result["trace_accounting"] = trace_accounting(tracing, tracer, wl, traced)
        spans_path = workloads.OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        write_spans(spans_path, tracer)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        for problem in result["trace_accounting"]["problems"]:
            failures.note(f"trace accounting: {problem}")

    for i, message in wl.final_checks():
        failures.fail_all(i, f"{wl.label(i)}: {message}")
    from graphbell import coloring_engine

    shared = vars(coloring_engine).get("SHARED_PROFILE_CACHE")
    if shared is None:
        failures.note("coloring_engine.SHARED_PROFILE_CACHE is gone, so the leak guard cannot run")
        result["shared_cache_leak"] = None
    elif len(shared):
        failures.note(f"the module-global profile cache holds {len(shared)} entries after the run")
        result["shared_cache_leak"] = len(shared)

    result["attempted"] = sum(failures.attempts.values())
    result["failed"] = failures.count
    result["failures"] = failures.messages
    result["correct"] = (
        failures.count == 0
        and "shared_cache_leak" not in result
        and not result.get("trace_accounting", {}).get("problems")
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
