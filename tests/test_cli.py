"""Command-line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path
from random import Random

import pytest

from graphbell import cli, coloring_engine, sequences
from graphbell.cli import main, parse_family
from graphbell.coloring_engine import PROFILE_MAX_ORDER, brute_force_profile
from graphbell.errors import (
    DataFileError, DomainError, GraphBellError, ResourceError, UsageError,
)
from graphbell.graph_core import (
    EDGE_LIST_MAX_CHARS, FamilyKind, FamilySpec, Graph, random_graph,
)
from graphbell.inequality_verifier import INEQUALITY_IDS, InequalityReport
from graphbell.sequences import STIRLING_MAX_ROWS, stirling_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- family spec grammar ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("path:4", FamilySpec(FamilyKind.PATH, 4)),
        ("path:4,2", FamilySpec(FamilyKind.PATH, 4, p=2)),
        ("cycle:5", FamilySpec(FamilyKind.CYCLE, 5)),
        ("star:6,1", FamilySpec(FamilyKind.STAR, 6, p=1)),
        ("h:5,2", FamilySpec(FamilyKind.HNR, 5, r=2)),
        ("h:5,2,1", FamilySpec(FamilyKind.HNR, 5, r=2, p=1)),
        ("empty:3", FamilySpec(FamilyKind.EMPTY, 3)),
        ("complete:4", FamilySpec(FamilyKind.COMPLETE, 4)),
        ("caterpillar:9,2", FamilySpec(FamilyKind.CATERPILLAR, 9, p=2)),
    ],
)
def test_parse_family_grammar(text, expected):
    assert parse_family(text) == expected


@pytest.mark.parametrize(
    "text", ["", "path", "path:", "path:1,2,3", "empty:3,1", "wheel:5", "path:x", "h:5"]
)
def test_parse_family_rejects(text):
    with pytest.raises(UsageError):
        parse_family(text)


# --- compute -----------------------------------------------------------------------


def test_compute_cycle5_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 5,
        "counts": ["0", "0", "0", "5", "5", "1"],
        "b": "11",
        "t": "40",
        "a": "40/11",
    }


def test_compute_text_has_exact_and_tagged_approx(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:5")
    assert code == 0
    assert "a: 40/11" in out and "approximate" in out


def test_compute_from_edge_list(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text("# five cycle\n5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "compute", "--edges", str(f), "--json")
    assert code == 0
    assert json.loads(out)["b"] == "11"


def test_compute_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "compute")
    assert code == 1
    code, _, _ = run_cli(capsys, "compute", "--family", "cycle:5", "--edges", "x")
    assert code == 1


def test_compute_missing_file_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "compute", "--edges", "/nonexistent/file.txt")
    assert code == 1


def test_compute_non_utf8_edge_list_is_usage_error(tmp_path, capsys):
    f = tmp_path / "c3.txt"
    f.write_bytes("3 0\n".encode("utf-16"))  # starts with the bytes ff fe
    code, out, err = run_cli(capsys, "compute", "--edges", str(f))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read edge list ") and err.count("\n") == 1


def test_edge_list_order_refused_before_graph_is_built(tmp_path, capsys, monkeypatch):
    def never(n, edges=()):
        raise AssertionError("Graph.from_edges was called")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(never))
    f = tmp_path / "big.txt"
    f.write_text(f"{PROFILE_MAX_ORDER + 1} 0\n")
    code, out, err = run_cli(capsys, "compute", "--edges", str(f))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compute_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "cycle:2")
    assert code == 2
    assert "n >= 3" in err


def test_compute_no_memo_identical_output(capsys):
    _, out_a, _ = run_cli(capsys, "compute", "--family", "h:6,2,1", "--json")
    _, out_b, _ = run_cli(capsys, "compute", "--family", "h:6,2,1", "--json", "--no-memo")
    assert out_a == out_b


def test_compute_no_memo_eliminates_degree_3_vertices(tmp_path, capsys):
    # The Petersen graph is 3-regular and peels nowhere, so every branch
    # eliminates a degree-3 vertex, pushing up to five children, which no
    # memo then shares.
    edges = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    f = tmp_path / "petersen.txt"
    f.write_text("10 15\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out_a, _ = run_cli(capsys, "compute", "--edges", str(f), "--no-memo")
    assert code == 0
    _, out_b, _ = run_cli(capsys, "compute", "--edges", str(f))
    assert out_a == out_b and "b: 7430\n" in out_a


def test_compute_no_memo_matches_the_block_step_on_a_dense_graph(tmp_path, capsys):
    # G(16, .7): its least degree passes 3 at about a thousand nodes.  With
    # the memo each of them expands the block of a vertex of greatest degree
    # into one child per stable set of its non-neighbors; without it no
    # child would be shared, so each fills in instead.  The two rules must
    # print the same bytes.
    g = random_graph(16, Random(1), 0.7)
    f = tmp_path / "dense.txt"
    f.write_text(f"16 {len(g.edges())}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    code, out_a, _ = run_cli(capsys, "compute", "--edges", str(f), "--no-memo")
    assert code == 0
    _, out_b, _ = run_cli(capsys, "compute", "--edges", str(f))
    assert out_a == out_b and f"b: {brute_force_profile(g).bell}\n" in out_a


def test_compute_null_graph(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "empty:0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == "1" and payload["a"] is None


def test_compute_csv_parses(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cycle:4", "--csv")
    assert code == 0
    rows = dict(
        (r["key"], r["value"]) for r in csv.DictReader(io.StringIO(out))
    )
    assert rows["b"] == "4" and rows["counts"] == "0;0;1;2;1"


# --- seq ----------------------------------------------------------------------------


def test_seq_bell_text(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "bell", "--n", "6")
    assert code == 0
    assert out.strip() == "1,1,2,5,15,52,203"


def test_seq_two_bell_json(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "two_bell", "--n", "5", "--json")
    assert json.loads(out)["values"] == ["1", "3", "10", "37", "151", "674"]


def test_seq_avg_blocks(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "avg_blocks", "--n", "5")
    assert out.strip() == "1/1,3/2,2/1,37/15,151/52"


def test_seq_stirling_csv(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "stirling2", "--n", "4", "--csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    values = {(int(r["n"]), int(r["k"])): r["value"] for r in rows}
    assert values[(4, 2)] == "7"


@pytest.mark.parametrize("n", [0, 1, 40])
def test_seq_stirling_json_stream_matches_whole_object(capsys, n):
    code, out, _ = run_cli(capsys, "seq", "--kind", "stirling2", "--n", str(n), "--json")
    rows = [list(map(str, row)) for row in stirling_rows(n)]
    whole = {"kind": "stirling2", "n_max": n, "rows": rows}
    assert code == 0
    assert out == json.dumps(whole, separators=(",", ":")) + "\n"


# Starts the command in its argv, reaps it with wait4 and prints its exit code
# and peak RSS in kB.  Linux carries the peak RSS of the process that
# execs into the new program, so a child started from the test process
# itself would read at least the suite's own size.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_kb(env, *args, code=0):
    """Peak RSS in kB of ``python -m graphbell`` with ``args``, which must exit ``code``."""
    argv = [sys.executable, "-m", "graphbell", *args]
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                          capture_output=True, text=True, check=True, env=env, timeout=120)
    status, kb = map(int, proc.stdout.split())
    assert status == code
    return kb


def test_seq_stirling_peak_memory_stays_near_a_bare_request(child_env):
    # One row alive, in text as in JSON.  Keeping the whole triangle peaked
    # at 43 MB, against 15.7 MB for the bare request.
    bare = peak_kb(child_env, "seq", "--kind", "bell", "--n", "1")
    argv = ("seq", "--kind", "stirling2", "--n", str(STIRLING_MAX_ROWS - 1))
    assert peak_kb(child_env, *argv) <= bare + 4096
    assert peak_kb(child_env, *argv, "--json") <= bare + 4096


def test_seq_bell_json_peak_memory_matches_csv(child_env):
    # The values are streamed in either format.  Held as one list and then
    # encoded whole, JSON peaked at 33.7 MB against 29.5 MB for CSV.
    argv = ("seq", "--kind", "bell", "--n", "1500")
    assert peak_kb(child_env, *argv, "--json") <= 1.05 * peak_kb(child_env, *argv, "--csv")


def test_seq_bell_text_peak_memory_matches_csv(child_env):
    # The text line is written a value at a time, as the CSV rows are.
    # Holding every decimal string and then the joined line peaked at
    # 31.4 MB against 27.3 MB for CSV.
    argv = ("seq", "--kind", "bell", "--n", "1500")
    assert peak_kb(child_env, *argv) <= 1.05 * peak_kb(child_env, *argv, "--csv")


def test_verify_json_peak_memory_matches_csv(child_env):
    # Each report's JSON is encoded and written on its own, as its CSV row
    # is.  Holding every report's dict and then the whole text peaked at
    # 88 MB, against 24 MB for CSV.
    argv = ("verify", "--id", "C9", "--n-max", "300", "--p-max", "40")
    assert peak_kb(child_env, *argv, "--json") <= 1.25 * peak_kb(child_env, *argv, "--csv")


def test_edge_list_with_too_many_lines_is_read_only_past_the_header_count(child_env, tmp_path):
    # Full-size files of 4.2M lines "0 1".  Under the header "3 1" reading
    # stops at the second edge line; under a header that counts every line,
    # each edge goes into the masks as it is read, and the first duplicate
    # ends the parse.  Either way the parse costs about the file's text on
    # top of the interpreter.  Splitting every line first peaked at 365 MB,
    # and holding every line and edge of the second file at 636 MB.
    text_kb = EDGE_LIST_MAX_CHARS >> 10
    base = peak_kb(child_env, "compute", "--family", "path:8")
    f = tmp_path / "long.txt"
    for header, m in (("3 1", EDGE_LIST_MAX_CHARS // 4 - 1), ("3 4194301", 4194301)):
        f.write_text(f"{header}\n" + "0 1\n" * m)
        assert EDGE_LIST_MAX_CHARS - 4 < f.stat().st_size <= EDGE_LIST_MAX_CHARS
        assert peak_kb(child_env, "compute", "--edges", str(f), code=1) <= base + 4 * text_kb


def test_compute_path_peak_memory_stays_near_a_small_path(child_env):
    # The engine peels a path without a branch and memoizes none of the
    # peeled graphs, so path:1024 needs little more than path:8.  A memo of
    # the whole peel chain took about 275 MB.
    def peak(n):
        return peak_kb(child_env, "compute", "--family", f"path:{n}", "--json")

    assert peak(1024) <= 2 * peak(8)


@pytest.mark.parametrize("family,digest", [
    ("cycle:1024", "92c9e59ac4a03b84545eb9fd3f1dfa43c062bc1f65386dc543d3a3c05dfd23f3"),
    ("complete:1024", "e567b80ec873faa22d6aaeb81fab59010f95cb28e3d02e876a9ca260350d4016"),
    ("h:3,1021", "ba3e8abf04a673c7e7a914e72ce4506d13df43b2a510dcb45aa793e2b9041985"),
])
def test_large_family_json_digest(family, digest, child_env):
    # The largest orders the engine accepts, on the families that branch
    # most (a cycle), peel through dominating vertices (a clique) and peel a
    # long tail before a short cycle.  Each runs in its own interpreter,
    # since the memo of cycle:1024 alone is about 340 MB.
    proc = subprocess.run(
        [sys.executable, "-m", "graphbell", "compute", "--family", family, "--json"],
        capture_output=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_verify_many_p_peak_memory_follows_the_points(child_env):
    # A scan holds its Pascal-rule columns cut to the indices it reads, so
    # 401 columns cost about what the reports do.  Uncut, the columns form
    # a whole Pascal triangle over the Bell column (about twice the peak).
    def peak(p_max):
        return peak_kb(child_env, "verify", "--id", "C9", "--n-max", "5",
                       "--p-max", str(p_max), "--csv")

    assert peak(400) <= 1.5 * peak(1)


# Installs perfbench's span hooks after the CLI import, as its cli workload
# does, then runs one request through the counting memo: cycle:8, since the
# engine's table answers every graph on at most 6 vertices without a lookup.
# In a child interpreter, because uninstalling the hooks leaves
# SHARED_PROFILE_CACHE in the counting class.
_HOOKS = (
    "import json, sys\n"
    "import graphbell.cli\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from tracing import LABELED_LOOKUPS, Hooks, Tracer\n"
    "tracer = Tracer()\n"
    "Hooks(tracer).install(cli=True).count_shared_memo()\n"
    "code = graphbell.cli.main(['compute', '--family', 'cycle:8', '--json'])\n"
    "print(json.dumps([code, sorted(tracer.missing), tracer.counters[LABELED_LOOKUPS]]))\n"
)


def test_perfbench_hooks_find_every_target(child_env):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", _HOOKS, str(perfbench)],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, missing, lookups = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and missing == [] and lookups > 0


@pytest.mark.parametrize("kind,reach", [("bell", 0), ("avg_blocks", 1), ("two_bell", 2)])
def test_seq_bell_cap_boundary_per_kind(capsys, monkeypatch, kind, reach):
    # Term n of a kind reads Bell indices up to n + reach.  With a cap of 20
    # terms, the last --n whose terms all fit is accepted and the next one
    # refused before any term is computed.  The column is checked against
    # the cap only when it grows, so the test starts from a fresh one rather
    # than from whatever earlier tests grew.
    monkeypatch.setattr(sequences, "HARD_MAX_TERMS", 20)
    monkeypatch.setattr(sequences, "_SHARED", sequences.BigSeqCache())
    last = 20 - 1 - reach
    code, out, err = run_cli(capsys, "seq", "--kind", kind, "--n", str(last), "--csv")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith(f"{last},")
    code, out, err = run_cli(capsys, "seq", "--kind", kind, "--n", str(last + 1))
    assert code == 3 and out == ""
    assert err == "error: requested capacity 21 exceeds the hard cap of 20 terms\n"


def test_seq_stirling_over_row_cap_exits_resource_at_once(capsys):
    # The call to stirling_rows refuses, before a generator exists; a refusal
    # on the first row would follow JSON's opening bytes and CSV's header.
    for fmt in ((), ("--json",), ("--csv",)):
        code, out, err = run_cli(capsys, "seq", "--kind", "stirling2", "--n", "4000", *fmt)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_seq_stirling_just_under_row_cap(child_env):
    n = STIRLING_MAX_ROWS - 1
    proc = subprocess.run(
        [sys.executable, "-m", "graphbell", "seq", "--kind", "stirling2", "--n", str(n)],
        capture_output=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    lines = proc.stdout.splitlines()
    assert len(lines) == n + 1
    assert lines[-1].endswith(f",{n * (n - 1) // 2},1".encode())  # S(n, n-1), S(n, n)


# --- family -----------------------------------------------------------------------


def test_family_cycle5_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "cycle:5", "--json")
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert payload["counts"] is None
    assert (payload["b"], payload["t"], payload["a"]) == ("11", "40", "40/11")


def test_family_matches_compute_aggregates(capsys, child_env):
    # The last three read Bell terms past index 256.
    for spec in ["path:6,1", "star:6,1", "cycle:7,2", "h:5,3,1", "empty:5", "complete:4",
                 "caterpillar:9,2", "caterpillar:8", "path:5,400", "star:5,300", "empty:400"]:
        _, fam_out, _ = run_cli(capsys, "family", "--family", spec, "--json")
        _, cmp_out, _ = run_cli(capsys, "compute", "--family", spec, "--json")
        fam, cmp_ = json.loads(fam_out), json.loads(cmp_out)
        assert (fam["b"], fam["t"], fam["a"]) == (cmp_["b"], cmp_["t"], cmp_["a"])
    # Peel chains past the Stirling triangle's cap and the recursion limit, each
    # in a child interpreter so the suite does not keep its 60-260 MB memo.
    script = ("import sys; from graphbell.cli import main; "
              "[main([cmd, '--family', sys.argv[1], '--json']) for cmd in ('family', 'compute')]")
    for spec in ["empty:600", "path:5,600", "star:600", "path:1000"]:
        proc = subprocess.run([sys.executable, "-c", script, spec],
                              capture_output=True, text=True, env=child_env, timeout=120)
        assert proc.stderr == ""
        fam, cmp_ = map(json.loads, proc.stdout.splitlines())
        assert (fam["b"], fam["t"], fam["a"]) == (cmp_["b"], cmp_["t"], cmp_["a"])


# --- verify -----------------------------------------------------------------------


def test_verify_i1_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "I1", "--n-max", "50", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 50
    assert all(set(r) >= {"id", "n", "p", "lhs", "rhs", "margin", "holds_strict"} for r in reports)
    assert all(r["holds_strict"] for r in reports)
    assert "0 in-range violations" in err


@pytest.mark.parametrize("extra", [(), ("--no-memo",)])
def test_compute_too_deep_exits_resource(capsys, extra, child_env):
    # A cycle branches once per vertex, and the engine keeps its branches on
    # an explicit stack, so a recursion limit far below the branching depth
    # must not matter (the name is from when it did, and this exited 3).
    # Run in a fresh interpreter so the real stderr is checked.
    script = ("import sys; from graphbell.cli import main; sys.setrecursionlimit(100); "
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "compute", "--family", "cycle:150", "--json", *extra],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    code, out, _ = run_cli(capsys, "family", "--family", "cycle:150", "--json")
    assert code == 0
    got, want = json.loads(proc.stdout), json.loads(out)
    assert (got["b"], got["t"], got["a"]) == (want["b"], want["t"], want["a"])


@pytest.mark.parametrize("argv", [
    ("compute", "--family", f"path:{PROFILE_MAX_ORDER + 1}"),
    ("compute", "--family", "complete:100000"),
])
def test_profile_cap_refused_before_build(argv, child_env):
    # complete:100000 would list about 5e9 edges if build() ran first.
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "graphbell", *argv],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("seq", "--kind", "bell", "--n", "4096"),
    ("verify", "--id", "I1", "--n-max", "4091"),
    ("family", "--family", "path:4096"),
    ("seq", "--kind", "two_bell", "--n", "4094"),
    ("seq", "--kind", "avg_blocks", "--n", "4095"),
    ("verify", "--id", "PROP7_MIX", "--n-max", "4091"),
])
def test_bell_cap_refused_before_growth(argv, child_env):
    # Each asks for one Bell term past the cap: bell(4096), the last term of
    # two_bell through 4094 and of avg_blocks through 4095.  PROP7_MIX reads
    # no Bell term, yet its grid is refused by the same check.  Reaching
    # bell(4095) takes about 10 s, so a quick exit shows the refusal came
    # before any growth.
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "graphbell", *argv],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_verify_unknown_id(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "I7", "--n-max", "5")
    assert code == 1
    assert out == ""
    assert err == f"error: unknown inequality id 'I7'; valid ids: {', '.join(INEQUALITY_IDS)}\n"


@pytest.mark.parametrize("fmt", ["--json", "--csv", None])
def test_verify_summary_goes_to_stderr_once_with_json_or_csv(capsys, fmt):
    argv = ["verify", "--id", "C9", "--n-max", "6", "--p-max", "1"] + ([fmt] if fmt else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if fmt:
        assert err == "C9: 12 reports, 0 in-range violations\n"
        assert "summary" not in out
    else:
        assert err == ""
        assert out.splitlines()[-1] == "summary: 12 reports, 0 in-range violations"


@pytest.mark.parametrize("fmt", ["--json", "--csv", None])
def test_verify_violation_exits_4_and_is_counted(capsys, monkeypatch, fmt):
    bad = InequalityReport("I1", 5, 0, lhs=3, rhs=2)
    monkeypatch.setattr(cli, "scan", lambda *a, **k: [bad])
    code, out, err = run_cli(capsys, "verify", "--id", "I1", "--n-max", "5",
                             *([fmt] if fmt else []))
    assert code == 4
    if fmt:
        assert err == "I1: 1 reports, 1 in-range violations\n"
    else:
        assert err == ""
        assert out == (
            "I1 n=5 p=0 lhs=3 rhs=2 margin=-1 VIOLATION\n"
            "summary: 1 reports, 1 in-range violations\n"
        )


def test_verify_resource_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "I1", "--n-max", "999999")
    assert code == 3


def test_verify_explore_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "I3", "--n-max", "6", "--explore")
    assert code == 0  # out-of-range failures do not change the exit status
    assert "out-of-range" in out
    assert "first failure outside the documented range: n=2 p=0" in out


def test_verify_equality_boundary_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "T_CYCLE_VS_H3", "--n-max", "5")
    assert code == 0
    assert "EQUALITY [families coincide]" in out


def test_verify_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "C9", "--n-max", "6", "--p-max", "1", "--csv"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert all(r["holds_strict"] == "true" for r in rows)


def test_verify_jobs_is_usage_error(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "graphbell", "verify", "--id", "C17", "--n-max", "12",
         "--jobs", "4"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "--jobs" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- selftest and misc --------------------------------------------------------------


def test_selftest_json_deterministic_in_process(capsys):
    code_a, out_a, _ = run_cli(capsys, "selftest", "--seed", "7", "--json", "--n-max", "8", "--p-max", "1")
    code_b, out_b, _ = run_cli(capsys, "selftest", "--seed", "7", "--json", "--n-max", "8", "--p-max", "1")
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["fail"] == 0


def test_bad_flags_exit_usage(capsys):
    assert run_cli(capsys, "seq", "--kind", "nonsense", "--n", "3")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "selftest", "--csv")[0] == 1  # selftest has no CSV form


@pytest.mark.parametrize("exc, code", [
    (GraphBellError, 2), (UsageError, 1), (DomainError, 2), (ResourceError, 3),
    (DataFileError, 3),
])
def test_error_class_sets_exit_code(capsys, monkeypatch, exc, code):
    def fail(args):
        raise exc("refused")

    monkeypatch.setattr(cli, "_cmd_family", fail)
    assert run_cli(capsys, "family", "--family", "cycle:5") == (code, "", "error: refused\n")


@pytest.mark.parametrize("exc, reason", [
    (RecursionError, "the recursion depth limit was reached"),
    (MemoryError, "out of memory"),
])
def test_exhaustion_exits_resource(capsys, monkeypatch, exc, reason):
    # The engine no longer recurses, so no input reaches this clause through
    # it; the clause stays so that no traceback can escape main.
    def fail(args):
        raise exc("refused")

    monkeypatch.setattr(cli, "_cmd_family", fail)
    assert run_cli(capsys, "family", "--family", "cycle:5") == (
        3, "", f"error: input too large: {reason}\n")


def test_out_of_memory_frees_the_memo_before_it_prints(capsys, monkeypatch):
    # The shared memo can hold most of the heap when an allocation fails, so
    # the handler empties it before printing its one line.
    def fill_and_fail(g, memo):
        memo.update({(i,): (i,) for i in range(1000)})
        raise MemoryError

    monkeypatch.setattr(cli, "profile", fill_and_fail)
    assert run_cli(capsys, "compute", "--family", "cycle:9") == (
        3, "", "error: input too large: out of memory\n")
    assert len(cli.SHARED_PROFILE_CACHE) == 0


# Points the engine at another table file, then runs a request that reads
# it.  In a child interpreter, because the rows are loaded once per process.
# cycle:7 takes the order-7 step over the rows, cycle:5 a row with two
# dominating vertices added.
_TABLE = (
    "import sys\n"
    "from graphbell import cli, coloring_engine\n"
    "coloring_engine.TABLE_FILE = sys.argv[1]\n"
    "sys.exit(cli.main(['compute', '--family', sys.argv[2], '--json']))\n"
)
_DAMAGES = ["missing", "truncated", "short", "long"]


@pytest.mark.parametrize("damage, family", [
    *[pytest.param(d, "cycle:7", id=d) for d in _DAMAGES],
    *[pytest.param(d, "cycle:5", id=f"{d}-cycle:5") for d in _DAMAGES],
])
def test_damaged_table_file_exits_resource_naming_it(damage, family, tmp_path, child_env):
    with open(coloring_engine.TABLE_FILE, "rb") as f:
        packed = f.read()
    path = tmp_path / "small_table.zlib"
    if damage == "truncated":
        path.write_bytes(packed[:len(packed) // 2])
    elif damage == "short":  # intact zlib, one row missing
        path.write_bytes(zlib.compress(zlib.decompress(packed)[:-7]))
    elif damage == "long":  # intact zlib, one row too many
        path.write_bytes(zlib.compress(zlib.decompress(packed) * 2))
    proc = subprocess.run([sys.executable, "-c", _TABLE, str(path), family], capture_output=True,
                          text=True, env=child_env, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(path) in proc.stderr


# --- cold start -----------------------------------------------------------------


def test_cli_import_leaves_out_dataclasses_and_inspect(child_env):
    # Every `python -m graphbell` process pays for what the CLI imports.
    snippet = (
        "import sys, graphbell.cli;"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                          text=True, check=True, env=child_env, timeout=120)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    # bell through 1000 prints one 880 KB line, stirling2 through 300 about
    # 13 MB of JSON rows: either overfills a pipe buffer, so the reader's
    # close reaches the writer mid-output, in print and in writelines.
    ("seq", "--kind", "bell", "--n", "1000"),
    ("seq", "--kind", "stirling2", "--n", "300", "--json"),
])
def test_closed_output_pipe_exits_usage_without_traceback(argv, child_env):
    proc = subprocess.Popen([sys.executable, "-m", "graphbell", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert err == b""


def assert_one_error_line(stderr):
    assert "Traceback" not in stderr
    assert stderr.startswith("error: cannot write output: ") and stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("seq", "--kind", "bell", "--n", "50"),
    ("seq", "--kind", "stirling2", "--n", "30", "--json"),
    ("compute", "--family", "path:10", "--json"),
    ("selftest",),
])
def test_full_device_exits_resource_without_traceback(argv, child_env):
    # Every write to /dev/full fails with ENOSPC.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "graphbell", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=child_env, timeout=120)
    assert proc.returncode == 3
    assert_one_error_line(proc.stderr)


def test_file_size_limit_exits_resource_without_traceback(tmp_path, child_env):
    # The bell terms through 2000 take about 4 MB, past a 100 KiB limit on
    # the files the child writes, so a write fails with EFBIG.  The
    # interpreter ignores SIGXFSZ, which would otherwise kill the child.
    resource = pytest.importorskip("resource")

    def limit_file_size():
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (100 * 1024, hard))

    with open(tmp_path / "out.txt", "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "graphbell", "seq", "--kind", "bell", "--n", "2000"],
            stdout=out, stderr=subprocess.PIPE, text=True, env=child_env, timeout=120,
            preexec_fn=limit_file_size)
    assert proc.returncode == 3
    assert_one_error_line(proc.stderr)


_GRID_7X7 = "49 84\n" + "".join(  # the 7x7 grid graph, vertices numbered row by row
    f"{u} {v}\n" for u, v in sorted([(v, v + 1) for v in range(49) if v % 7 < 6]
                                    + [(v, v + 7) for v in range(42)]))


@pytest.mark.parametrize("argv,code,err", [
    (("compute", "--edges", "grid.txt"), 3, "error: input too large: out of memory\n"),
    (("verify", "--id", "C9", "--n-max", "400", "--p-max", "80", "--json"), 0,
     "C9: 32400 reports, 0 in-range violations\n"),
], ids=["compute-grid-7x7", "verify-C9-400-80-json"])
def test_address_space_limit_of_150_mb(argv, code, err, tmp_path, child_env):
    # A real memory limit, set in the child only.  The 7x7 grid's memo
    # outgrows it, and the run ends in one line; the 6x6 grid, whose
    # degree-3 vertices go in one step, fits in about 57 MB.  The engine
    # empties its work stacks on MemoryError; without that, a run can end
    # in "SystemError: error return without exception set".  The C9
    # grid's JSON is written a report at a time; encoded whole, it needed
    # more and exited 3.
    resource = pytest.importorskip("resource")

    def limit_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (150 << 20, hard))

    (tmp_path / "grid.txt").write_text(_GRID_7X7)
    proc = subprocess.run([sys.executable, "-m", "graphbell", *argv], cwd=tmp_path,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          env=child_env, timeout=120, preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child")
def test_interrupt_exits_130_without_traceback(child_env):
    # This verify prints about 7.6 MB.  After its first line the test reads
    # no more, so the child is still writing, held by the full pipe, when
    # the signal arrives.
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphbell", "verify", "--id", "C9", "--n-max", "100",
         "--p-max", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
    assert proc.stdout.readline().startswith(b"C9 ")
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert err == b""
