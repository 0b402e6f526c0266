"""Regenerate the answers the benchmark checks against, in perfbench/expected/.

    python perfbench/make_expected.py [random|grid|cli ...]

* ``random_pool.json``: the fixed pool of G(n, q) graphs drawn with
  ``random_graph``, with each graph's profile.  Every stored profile is
  checked against ``stable_partition_counts`` below, a subset recursion
  that shares no code with graphbell.  It is also checked against
  graphbell's brute-force oracle for every graph of order <= 11 and for the
  first ORACLE_SAMPLE graphs of each order-12 cell, and against
  ``networkx.chromatic_polynomial`` of the whole graph for the first graph
  of each sparsest cell (networkx takes minutes on the denser ones).
* ``grid.json``: per inequality id, the report count and digest of the scan.
* ``cli.json``: per command, the sha256 and length of its stdout.

Regenerate only after a deliberate change of the program's outputs: the
benchmark counts every answer that differs from these files as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from graphbell import coloring_engine, inequality_verifier, sequences  # noqa: E402
from graphbell.graph_core import random_graph  # noqa: E402

ORACLE_MAX_ORDER = 11
ORACLE_SAMPLE = 4  # order-12 graphs per cell checked by brute force (about 12 s each)
NX_EDGE_PROB = 0.3  # the cells whose first graph networkx checks


def _write(name: str, data: dict) -> None:
    """Write ``data`` with one top-level key, and one list item, per line."""
    path = workloads.EXPECTED_DIR / name
    path.parent.mkdir(exist_ok=True)
    lines = []
    for key, value in data.items():
        if isinstance(value, list):
            items = ",\n".join(f"  {json.dumps(item)}" for item in value)
            lines.append(f" {json.dumps(key)}: [\n{items}\n ]")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path.relative_to(workloads.ROOT)}")


def _falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def _matches_networkx(n: int, edges, counts) -> bool:
    """Compare sum_k counts[k] * x^(k falling) with networkx's chromatic polynomial."""
    import networkx as nx
    import sympy

    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_edges_from(edges)
    poly = nx.chromatic_polynomial(ng)
    x = sorted(poly.free_symbols, key=str)[0] if poly.free_symbols else sympy.Symbol("x")
    return all(
        int(poly.subs(x, v)) == sum(c * _falling(v, k) for k, c in enumerate(counts))
        for v in range(n + 2)
    )


def stable_partition_counts(n: int, edges) -> list[int]:
    """counts[k] = partitions of the vertices into k stable sets, by a subset recursion.

    The block holding the lowest vertex of a set S is that vertex plus a
    stable subset of its non-neighbours in S; the rest of S is partitioned
    the same way.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo = {0: [1] + [0] * n}

    def parts(s: int) -> list[int]:
        if s in memo:
            return memo[s]
        low = s & -s
        rest = s ^ low
        free = rest & ~nbr[low.bit_length() - 1]
        out = [0] * (n + 1)
        block = free
        while True:
            if all(not nbr[u] & block for u in range(n) if block >> u & 1):
                sub = parts(rest & ~block)
                for k in range(n):
                    out[k + 1] += sub[k]
            if not block:
                break
            block = (block - 1) & free
        memo[s] = out
        return out

    return parts((1 << n) - 1)


def make_random_pool() -> None:
    rng = Random(workloads.RANDOM_POOL_SEED)
    graphs = []
    oracle = foreign = 0
    for n in workloads.RANDOM_ORDERS:
        for q in workloads.RANDOM_EDGE_PROBS:
            for j in range(workloads.RANDOM_PER_CELL):
                g = random_graph(n, rng, q)
                edges = g.edges()
                counts = coloring_engine.profile(g, coloring_engine.ProfileCache()).counts
                if stable_partition_counts(n, edges) != list(counts):
                    raise SystemExit(f"engine and subset recursion disagree on G({n},{q}) #{j}")
                if n <= ORACLE_MAX_ORDER or j < ORACLE_SAMPLE:
                    if coloring_engine.brute_force_profile(g).counts != counts:
                        raise SystemExit(f"engine and brute force disagree on G({n},{q}) #{j}")
                    oracle += 1
                if q == NX_EDGE_PROB and j == 0:
                    if not _matches_networkx(n, edges, counts):
                        raise SystemExit(f"engine and networkx disagree on G({n},{q}) #{j}")
                    foreign += 1
                errors = workloads.profile_invariant_errors(n, edges, counts)
                if errors:
                    raise SystemExit(f"G({n},{q}) #{j}: {errors}")
                graphs.append({"n": n, "q": q, "edges": workloads.encode_edges(g), "counts": list(counts)})
    print(f"random: {len(graphs)} graphs, all checked by subset recursion, {oracle} by "
          f"brute force, {foreign} by networkx")
    _write(workloads.RANDOM_POOL_FILE, {
        "pool_seed": workloads.RANDOM_POOL_SEED,
        "orders": list(workloads.RANDOM_ORDERS),
        "edge_probs": list(workloads.RANDOM_EDGE_PROBS),
        "per_cell": workloads.RANDOM_PER_CELL,
        "graphs": graphs,
    })


def make_grid() -> None:
    inequality_verifier.profile = lambda g, memo=None: coloring_engine.profile(
        g, coloring_engine.ProfileCache()
    )
    sequences.shared_cache().grow_capacity(workloads.GRID_N_MAX + workloads.GRID_P_MAX + 6)
    ids = {}
    for id in inequality_verifier.INEQUALITY_IDS:
        reports = inequality_verifier.scan(id, workloads.GRID_N_MAX, workloads.GRID_P_MAX)
        violations = inequality_verifier.summarize(reports)["violations"]
        if violations:
            raise SystemExit(f"{id}: {violations} violations")
        ids[id] = {"reports": len(reports), "digest": workloads.reports_digest(reports)}
    print(f"grid: {sum(v['reports'] for v in ids.values())} points")
    _write(workloads.GRID_FILE, {
        "n_max": workloads.GRID_N_MAX, "p_max": workloads.GRID_P_MAX, "ids": ids,
    })


def make_cli() -> None:
    workloads.OUT_DIR.mkdir(exist_ok=True)
    edges = workloads.OUT_DIR / workloads.CLI_EDGE_FILE
    edges.write_text(workloads.CLI_EDGE_LIST, encoding="utf-8")
    commands = []
    for cmd in workloads.CLI_COMMANDS:
        args = [arg.format(edges=edges) for arg in cmd]
        code, out, _ = workloads.run_child(
            [sys.executable, "-m", "graphbell", *args], workloads.child_env()
        )
        if code != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {code}: {workloads.child_stderr_tail()}")
        commands.append({"args": list(cmd), "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)})
    print(f"cli: {len(commands)} commands")
    _write(workloads.CLI_FILE, {"commands": commands})


MAKERS = {"random": make_random_pool, "grid": make_grid, "cli": make_cli}


def main(argv: list[str]) -> int:
    for name in argv or list(MAKERS):
        t0 = time.perf_counter()
        MAKERS[name]()
        print(f"{name}: {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
