"""The benchmark's four workloads: seeded inputs, one request, answer checks.

A workload holds a list of requests.  One pass runs every request once, in
an order drawn from the seed; a run makes ``passes`` whole passes, so the
parent and a change do identical work.  Every in-process request gets a
fresh ``ProfileCache``; the module-global cache is never used.

Why these workloads:

* ``families`` -- large structured families.  The dominating/simplicial
  reductions and the canonical-fingerprint memo do nearly all the work;
  ``canonical_key`` is almost all of it, and ``sequences`` is barely used.
* ``random`` -- generic G(n, q) graphs, so deletion-contraction branching,
  the graph rewrites and both memo levels do the work.  It is the
  counterweight to ``families``: it shows what removing or cheapening the
  canonical memo costs on inputs where the memo is said to pay.
* ``grid`` -- every named inequality scanned on one grid with the Bell table
  already warm: ``sequences`` reads, Bell sums in ``closed_forms`` and the
  verifier, and big-integer cross-multiplication.  The engine only runs for
  ``PROP7_MIX``, on graphs of order <= 7.
* ``cli`` -- ``python -m graphbell`` processes, one after another.  Only here
  does each request pay interpreter start, imports, growth of the sequence
  tables and a cold memo, as a command-line user does.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import graphbell
import speed
from graphbell import closed_forms, coloring_engine, inequality_verifier, sequences
from graphbell.graph_core import FamilyKind, FamilySpec, Graph, build

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"


def _load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Base class: requests, per-request checks and the checks after the run."""

    name = ""
    # Seconds one pass took on the 2-vCPU x86-64 box the benchmark was sized
    # on; a run makes round(seconds / nominal_pass_s) passes, at least one.
    nominal_pass_s = 5.0
    # Whether the requests' work runs in child processes, which then time
    # the speed reference themselves (see speed.py and cli_child.py).
    children_do_the_work = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Random(f"{self.name}:{seed}")
        self.requests: list = []
        self.memo_class = coloring_engine.ProfileCache
        self.peak_child_rss_kb = 0
        self.output_bytes = 0

    def setup(self) -> None:
        """Build the inputs and warm what a long-lived user would have warm."""

    def pass_order(self, index: int) -> list[int]:
        order = list(range(len(self.requests)))
        Random(f"{self.name}:{self.seed}:pass{index}").shuffle(order)
        return order

    def weight(self, i: int) -> int:
        """How many requests one call counts for (grid points per scan)."""
        return 1

    def label(self, i: int) -> str:
        return str(self.requests[i])

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """Return an error message if ``out`` is wrong, checked right after the call."""
        return None

    def final_checks(self) -> list[tuple[int, str]]:
        """Checks made once after the timed phases, as (request, message)."""
        return []

    def times(self, dt: float, before: float, after: float) -> tuple[float, float]:
        """(raw, speed-normalised) time of a call that took ``dt`` seconds
        between reference timings ``before`` and ``after``."""
        return dt, dt * speed.scale(before, after)

    def setup_times(self, dt: float, before: float, after: float) -> tuple[float, float]:
        """(raw, speed-normalised) time of the set-up, timed like a call."""
        return self.times(dt, before, after)

    def describe(self) -> dict:
        return {"requests_per_pass": sum(self.weight(i) for i in range(len(self.requests)))}


class _ProfileWorkload(Workload):
    """Requests are single ``profile()`` calls; repeats must agree exactly."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graphs: list[Graph] = []
        self.first: dict[int, tuple[int, ...]] = {}

    def run(self, i: int):
        return coloring_engine.profile(self.graphs[i], self.memo_class()).counts

    def check(self, i: int, out) -> str | None:
        if i not in self.first:
            self.first[i] = out
        elif out != self.first[i]:
            return "profile differs from the same request's earlier answer"
        return None


# --- families ------------------------------------------------------------------

# Smallest and largest order (n + r) per kind.  With the canonical memo the
# cost of one profile grows roughly as order^3 and differs by kind (a cycle
# of order 63 costs about as much as a path of order 90 or a caterpillar of
# order 126), so the ranges are sized to take similar time per kind and
# about ``Families.nominal_pass_s`` per pass.
FAMILY_ORDERS = {
    "path": (40, 90),
    "cycle": (40, 63),
    "caterpillar": (40, 126),
    "star": (40, 200),
    "h": (40, 77),
}
FAMILY_STEPS = 8
FAMILY_JITTER = 0.01
FAMILY_MAX_ISOLATED = 4
FAMILY_TAIL_SHARE = 0.4  # h:n,r -- share of the order in the tail


def family_specs(rng: Random) -> list[FamilySpec]:
    """Per kind, a geometric ladder of orders, each jittered a little.

    Odd steps of every ladder get 1..4 isolated vertices and even steps
    none.  The seed draws the jitter, the isolated-vertex counts and the
    tail split of ``h``; the ladder's shape, which sets the cost, is fixed
    so runs with different seeds stay comparable.
    """
    specs = []
    for kind_name, (lo, hi) in FAMILY_ORDERS.items():
        kind = FamilyKind(kind_name)
        for step in range(FAMILY_STEPS):
            base = lo * (hi / lo) ** (step / (FAMILY_STEPS - 1))
            order = round(base * (1 + rng.uniform(-FAMILY_JITTER, FAMILY_JITTER)))
            p = rng.randint(1, FAMILY_MAX_ISOLATED) if step % 2 else 0
            if kind is FamilyKind.HNR:
                r = round(order * FAMILY_TAIL_SHARE) + rng.randint(-1, 1)
                specs.append(FamilySpec(kind, order - r, r=r, p=p))
            else:
                specs.append(FamilySpec(kind, order, p=p))
    return specs


def spec_text(spec: FamilySpec) -> str:
    if spec.kind is FamilyKind.HNR:
        return f"h:{spec.n},{spec.r},{spec.p}"
    return f"{spec.kind.value}:{spec.n},{spec.p}"


class Families(_ProfileWorkload):
    name = "families"

    def setup(self) -> None:
        self.requests = family_specs(self.rng)
        self.graphs = [build(spec) for spec in self.requests]

    def label(self, i: int) -> str:
        return spec_text(self.requests[i])

    def final_checks(self) -> list[tuple[int, str]]:
        errors = []
        for i, counts in sorted(self.first.items()):
            spec = self.requests[i]
            agg = closed_forms.aggregates_for(spec)
            b = sum(counts)
            t = sum(k * c for k, c in enumerate(counts))
            if (b, t) != (agg.b, agg.t):
                errors.append((i, f"b/t ({b}, {t}) differ from the closed form ({agg.b}, {agg.t})"))
        return errors


# --- random ----------------------------------------------------------------------

RANDOM_POOL_FILE = "random_pool.json"
RANDOM_POOL_SEED = 20210401
RANDOM_ORDERS = (11, 12)
RANDOM_EDGE_PROBS = (0.3, 0.5, 0.7)
RANDOM_PER_CELL = 48
RANDOM_RELABELINGS = 2  # requests per pool graph, each under its own relabelling


def encode_edges(g: Graph) -> str:
    """Edge set as a hex bitmask over the vertex pairs in lexicographic order."""
    mask = 0
    for i, (u, v) in enumerate(combinations(range(g.n), 2)):
        if g.adj[u] >> v & 1:
            mask |= 1 << i
    return format(mask, "x")


def decode_edges(n: int, text: str) -> list[tuple[int, int]]:
    mask = int(text, 16)
    return [pair for i, pair in enumerate(combinations(range(n), 2)) if mask >> i & 1]


def clique_number(n: int, edges) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def profile_invariant_errors(n: int, edges, counts) -> list[str]:
    """Checks that need no stored answer.

    counts[n] = 1 (all singletons), counts[n-1] = number of non-adjacent
    pairs (merge one of them), and no partition has fewer classes than the
    clique number.
    """
    errors = []
    if len(counts) != n + 1:
        return [f"profile has {len(counts)} entries, expected {n + 1}"]
    if n >= 1 and counts[n] != 1:
        errors.append(f"counts[n] = {counts[n]}, expected 1")
    if n >= 2 and counts[n - 1] != comb(n, 2) - len(edges):
        errors.append(f"counts[n-1] = {counts[n - 1]}, expected {comb(n, 2) - len(edges)}")
    omega = clique_number(n, edges)
    if any(counts[k] for k in range(min(omega, n + 1))):
        errors.append(f"nonzero count below the clique number {omega}")
    return errors


class RandomGraphs(_ProfileWorkload):
    """A fixed pool of G(n, q) graphs, relabelled and reordered per seed.

    The pool was drawn once with ``random_graph`` and is stored with its
    profiles.  Drawing fresh graphs per seed makes the heavy-tailed cost of
    the hardest few graphs swing the run's tail latency and throughput by
    far more than any bound the benchmark can set; a random relabelling
    still changes every graph the engine sees and the order it branches
    in, while the stored answers hold for every seed.
    """

    name = "random"
    # One pass, and every pool graph twice under different relabellings:
    # the ten slowest samples that set the tail are then many different
    # relabelled graphs, not repeats of the few hardest.
    nominal_pass_s = 15.0

    def setup(self) -> None:
        self.pool = _load_expected(RANDOM_POOL_FILE)["graphs"]
        self.requests = []
        for _ in range(RANDOM_RELABELINGS):
            for index, entry in enumerate(self.pool):
                n = entry["n"]
                perm = list(range(n))
                self.rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in decode_edges(n, entry["edges"])]
                self.requests.append((n, entry["q"], edges, index))
                self.graphs.append(Graph.from_edges(n, edges))

    def label(self, i: int) -> str:
        n, q, edges, index = self.requests[i]
        return f"G({n},{q}) pool #{index} request #{i}, m={len(edges)}"

    def check(self, i: int, out) -> str | None:
        if list(out) != self.pool[self.requests[i][3]]["counts"]:
            return "profile differs from the stored answer"
        return super().check(i, out)

    def final_checks(self) -> list[tuple[int, str]]:
        errors = []
        for i, counts in sorted(self.first.items()):
            n, _, edges, _ = self.requests[i]
            errors += [(i, msg) for msg in profile_invariant_errors(n, edges, counts)]
        return errors

    def describe(self) -> dict:
        return dict(super().describe(), orders=list(RANDOM_ORDERS),
                    edge_probs=list(RANDOM_EDGE_PROBS), per_cell=RANDOM_PER_CELL,
                    relabelings=RANDOM_RELABELINGS)


# --- grid ------------------------------------------------------------------------

GRID_FILE = "grid.json"
GRID_N_MAX = 170
GRID_P_MAX = 4


def reports_digest(reports) -> str:
    """sha256 of the reports as ``graphbell verify --json`` prints them."""
    text = json.dumps([r.as_dict() for r in reports], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Grid(Workload):
    """Every named inequality scanned on one (n_max, p_max) grid.

    The grid is fixed, so its answers are stored as digests; the seed orders
    the scans.  A request is one grid point.  ``scan`` evaluates all points
    of one statement in one call, so each scan gives one latency sample: its
    time divided by its point count, the mean time of a point of that scan.
    """

    name = "grid"
    # Seven short passes, so the tail sample (the 11th slowest of 16 x 7 scan
    # samples) falls in the middle of one statement's seven samples.
    nominal_pass_s = 2.1

    def setup(self) -> None:
        self.expected = _load_expected(GRID_FILE)
        self.requests = list(inequality_verifier.INEQUALITY_IDS)
        # PROP7_MIX profiles random graphs through the verifier's own
        # ``profile`` name; give each call a fresh cache so the global one
        # stays empty.
        inequality_verifier.profile = self._fresh_profile
        cache = sequences.shared_cache()
        top = GRID_N_MAX + GRID_P_MAX + 6
        cache.grow_capacity(top)
        cache.bell(top - 1)

    def _fresh_profile(self, g, memo=None):
        return coloring_engine.profile(g, self.memo_class())

    def weight(self, i: int) -> int:
        return self.expected["ids"][self.requests[i]]["reports"]

    def run(self, i: int):
        return inequality_verifier.scan(self.requests[i], GRID_N_MAX, GRID_P_MAX)

    def check(self, i: int, out) -> str | None:
        want = self.expected["ids"][self.requests[i]]
        if len(out) != want["reports"]:
            return f"{len(out)} reports, expected {want['reports']}"
        violations = inequality_verifier.summarize(out)["violations"]
        if violations:
            return f"{violations} violations"
        if reports_digest(out) != want["digest"]:
            return "report digest differs from the stored one"
        return None

    def describe(self) -> dict:
        return dict(super().describe(), n_max=GRID_N_MAX, p_max=GRID_P_MAX)


# --- cli -------------------------------------------------------------------------

CLI_FILE = "cli.json"
CLI_EDGE_FILE = "mygraph.txt"
CLI_TIMEOUT_S = 120
# The Petersen graph, for the README's ``compute --edges`` example.
CLI_EDGE_LIST = "10 15\n" + "".join(
    f"{u} {v}\n"
    for u, v in [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)

# The README examples, then a few cold large requests.
CLI_COMMANDS = (
    ("seq", "--kind", "bell", "--n", "6"),
    ("seq", "--kind", "two_bell", "--n", "5", "--json"),
    ("compute", "--family", "cycle:5", "--json"),
    ("compute", "--edges", "{edges}", "--csv"),
    ("family", "--family", "h:7,2,1", "--json"),
    ("verify", "--id", "I1", "--n-max", "200", "--json"),
    ("verify", "--id", "I3", "--n-max", "20", "--explore"),
    ("selftest", "--seed", "7", "--json"),
    ("seq", "--kind", "bell", "--n", "1000"),
    ("verify", "--id", "I6", "--n-max", "900"),
    ("compute", "--family", "cycle:60"),
    ("selftest", "--json"),
)
CLI_WARMUP = ("seq", "--kind", "bell", "--n", "1")


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    env.update(extra or {})
    return env


def run_child(argv: list[str], env: dict, timeout: float = CLI_TIMEOUT_S):
    """Run one process to completion; return (exit code, stdout, own peak RSS in KiB).

    The child is reaped with ``wait4`` so the resource usage is its own, not
    the running maximum over all children.  Its stderr goes to a file.
    """
    with open(OUT_DIR / "child-stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    chunks = []
    try:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"{' '.join(argv[1:])} ran past {timeout} s")
                if sel.select(left):
                    data = os.read(proc.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return proc.returncode, b"".join(chunks), usage.ru_maxrss


def child_stderr_tail(limit: int = 400) -> str:
    try:
        return (OUT_DIR / "child-stderr.txt").read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""


class Cli(Workload):
    """``python -m graphbell`` runs (started through ``cli_child.py``), one process at a time.

    The command mix is fixed, so answers are stored as stdout digests; the
    seed orders the commands.
    """

    name = "cli"
    # A reference loop timed in this process does not follow the speed a
    # child saw (scaling by it made the spread of the same command's time
    # worse), so each child times the loop itself.
    children_do_the_work = True
    # Four passes.  Seven of the twelve commands are small, so the median
    # sample sits near the top of their cluster, where single samples
    # scatter most; three passes left it unsteady.  With four, the tail
    # sample (the 11th slowest of 48) falls among the runs of the three
    # mid-sized commands (``selftest`` twice, ``compute cycle:60``), whose
    # pure-Python work the speed reference tracks; the two largest commands
    # are memory-bound and vary from run to run by more than it corrects.
    nominal_pass_s = 3.75

    def __init__(self, seed: int):
        super().__init__(seed)
        self.trace_file = OUT_DIR / "child-trace.json"
        self.speed_file = OUT_DIR / "child-speed.txt"
        self.child_speed: tuple[float, float, float] | None = None
        self.tracer = None  # set for the traced phase; children's spans merge into it

    def setup(self) -> None:
        self.expected = _load_expected(CLI_FILE)["commands"]
        OUT_DIR.mkdir(exist_ok=True)
        edges = OUT_DIR / CLI_EDGE_FILE
        edges.write_text(CLI_EDGE_LIST, encoding="utf-8")
        self.requests = [
            [arg.format(edges=edges) for arg in cmd] for cmd in CLI_COMMANDS
        ]
        # A first child compiles the bytecode and warms the page cache.
        code, _, _ = self._child(list(CLI_WARMUP))
        if code != 0:
            raise RuntimeError(f"warm-up child exited {code}: {child_stderr_tail()}")

    def _child(self, args: list[str]):
        """Run one ``cli_child.py`` process; note the speed it reported."""
        env = {"PERFBENCH_SPEED_FILE": str(self.speed_file)}
        self.speed_file.unlink(missing_ok=True)
        if self.tracer is not None:
            env["PERFBENCH_TRACE_FILE"] = str(self.trace_file)
            self.trace_file.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), *args]
        result = run_child(argv, child_env(env))
        try:
            before, after, in_loops = map(float, self.speed_file.read_text().split())
            self.child_speed = (before, after, in_loops)
        except (OSError, ValueError):
            self.child_speed = None
        return result

    def label(self, i: int) -> str:
        return " ".join(CLI_COMMANDS[i])

    def run(self, i: int):
        code, out, rss_kb = self._child(self.requests[i])
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
        self.output_bytes += len(out)
        if self.tracer is not None and self.trace_file.exists():
            with open(self.trace_file, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
        return code, out

    def times(self, dt: float, before: float, after: float) -> tuple[float, float]:
        """The child's time without its reference loops, scaled by the speed it saw."""
        if self.child_speed is None:  # the child died before reporting; check() fails it
            return dt, dt
        child_before, child_after, in_loops = self.child_speed
        work = dt - in_loops
        return work, work * speed.scale(child_before, child_after)

    def setup_times(self, dt: float, before: float, after: float) -> tuple[float, float]:
        """The set-up runs partly here (imports) and partly in the warm-up
        child, so it is scaled by the loops both processes timed; that
        halved the batch-to-batch swing of the median set-up against
        scaling by the child's loops alone."""
        child_before, child_after, in_loops = self.child_speed
        work = dt - in_loops
        return work, work * speed.scale((before + child_before) / 2, (after + child_after) / 2)

    def check(self, i: int, out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}: {child_stderr_tail()}"
        if hashlib.sha256(stdout).hexdigest() != self.expected[i]["sha256"]:
            return "stdout digest differs from the stored one"
        return None


WORKLOADS = {w.name: w for w in (Families, RandomGraphs, Grid, Cli)}


def source_digest() -> str:
    """sha256 over the package sources, to tell program versions apart."""
    h = hashlib.sha256()
    pkg = Path(graphbell.__file__).resolve().parent
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
