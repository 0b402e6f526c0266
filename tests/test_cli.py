"""Command-line surface: formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from graphbell import cli
from graphbell.cli import main, parse_family
from graphbell.errors import DomainError, GraphBellError, ResourceError, UsageError
from graphbell.graph_core import FamilyKind, FamilySpec
from graphbell.inequality_verifier import INEQUALITY_IDS, InequalityReport
from graphbell.sequences import STIRLING_MAX_ROWS, shared_cache


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


def test_compute_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "cycle:2")
    assert code == 2
    assert "n >= 3" in err


def test_compute_no_memo_identical_output(capsys):
    _, out_a, _ = run_cli(capsys, "compute", "--family", "h:6,2,1", "--json")
    _, out_b, _ = run_cli(capsys, "compute", "--family", "h:6,2,1", "--json", "--no-memo")
    assert out_a == out_b


def test_compute_large_order_warns(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "path:24", "--json")
    assert code == 0
    assert "warning" in err


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


def test_seq_stirling_over_row_cap_exits_resource_at_once(capsys):
    rows_before = len(shared_cache()._stirling)
    code, out, err = run_cli(capsys, "seq", "--kind", "stirling2", "--n", "4000")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(shared_cache()._stirling) == rows_before  # refused before any row grew


def test_seq_stirling_just_under_row_cap(child_env):
    # In a child interpreter, so the suite does not keep the grown triangle.
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


def test_family_matches_compute_aggregates(capsys):
    # The last three read Bell terms and Stirling rows past index 256.
    for spec in ["path:6,1", "star:6,1", "cycle:7,2", "h:5,3,1", "empty:5", "complete:4",
                 "path:5,400", "star:5,300", "empty:400"]:
        _, fam_out, _ = run_cli(capsys, "family", "--family", spec, "--json")
        _, cmp_out, _ = run_cli(capsys, "compute", "--family", spec, "--json")
        fam, cmp_ = json.loads(fam_out), json.loads(cmp_out)
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
def test_compute_too_deep_exits_resource(extra, child_env):
    # A path this long peels one vertex per recursion level, past Python's
    # default recursion limit.  Run in a fresh interpreter so the real stderr
    # is checked.  The MemoryError branch of main has no test: provoking it
    # safely is not possible.
    proc = subprocess.run(
        [sys.executable, "-m", "graphbell", "compute", "--family", "path:1200", *extra],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("seq", "--kind", "bell", "--n", "4094"),
    ("verify", "--id", "I1", "--n-max", "4091"),
    ("family", "--family", "path:4096"),
])
def test_bell_cap_refused_before_growth(argv, child_env):
    # Each asks for one Bell term past the cap.  Reaching bell(4095) takes
    # about 10 s, so a quick exit shows the refusal came before any growth.
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
    bad = InequalityReport("I1", 5, 0, lhs=3, rhs=2, margin=-1, holds_strict=False)
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
])
def test_error_class_sets_exit_code(capsys, monkeypatch, exc, code):
    def fail(args):
        raise exc("refused")

    monkeypatch.setattr(cli, "_cmd_family", fail)
    assert run_cli(capsys, "family", "--family", "cycle:5") == (code, "", "error: refused\n")
