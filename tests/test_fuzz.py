"""hypothesis fuzz of the input parsers and the command line.

Every parser input parses or raises a GraphBellError, and every argv ends
in one of the documented exit codes.  Generated orders stay at most 2000,
so an input that slips past the order check can never allocate much.  The
settings profile in ``conftest.py`` derandomizes the search.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from graphbell import cli  # noqa: E402
from graphbell.cli import parse_family  # noqa: E402
from graphbell.errors import GraphBellError  # noqa: E402
from graphbell.graph_core import FamilySpec, Graph, load_edge_list  # noqa: E402
from graphbell.inequality_verifier import INEQUALITY_IDS  # noqa: E402

_TOKENS = st.integers(-2, 2000).map(str) | st.sampled_from(
    ["", "x", "#", "1.5", "+3", "٣", "0x1", " ", ","]
)


def family_texts():
    kinds = st.sampled_from(["path", "cycle", "star", "h", "empty", "complete", "wheel", ""])
    params = st.lists(_TOKENS, max_size=4).map(",".join)
    spec = st.tuples(kinds, st.sampled_from([":", "", "::"]), params).map("".join)
    return spec | st.text(max_size=20)


@settings(max_examples=150)
@given(family_texts())
def test_parse_family_returns_or_raises_library_error(text):
    try:
        spec = parse_family(text)
    except GraphBellError:
        return
    assert isinstance(spec, FamilySpec)


def edge_list_bytes():
    line = st.lists(_TOKENS, max_size=3).map(" ".join)
    # Junk holds no ASCII digit, so it can never widen a generated order.
    junk = st.binary(max_size=8).filter(lambda b: not any(48 <= c <= 57 for c in b))
    rows = st.lists(line.map(str.encode) | junk, max_size=6)
    prefix = st.sampled_from([b"", b"\xff\xfe", b"\xef\xbb\xbf", b"\x80"])
    return st.tuples(prefix, rows.map(b"\n".join)).map(b"".join)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_bytes())
def test_load_edge_list_returns_or_raises_library_error(tmp_path, data):
    f = tmp_path / "fuzz.txt"
    f.write_bytes(data)
    try:
        g = load_edge_list(f)
    except GraphBellError:
        return
    assert isinstance(g, Graph)


# --- command line ----------------------------------------------------------------

# Integers stay small, so every accepted request finishes in milliseconds.
# The sizes at the caps enter only as requests refused before any work:
# cap - 1 and the cap itself cost seconds (bell(4095)) or print 48 MB
# (stirling2 --n 511).  -h/--help are left out: argparse exits through
# SystemExit(0) for them.
_INTS = st.integers(-3, 30).map(str)
_JUNK = st.sampled_from(["", "x", "-1.5", "0x1", "٣", "nan", "--", "-", "--json", "seq"])
_REFUSED = [
    ["seq", "--kind", "bell", "--n", "4096"],
    ["seq", "--kind", "two_bell", "--n", "4094"],
    ["seq", "--kind", "avg_blocks", "--n", "4095"],
    ["seq", "--kind", "stirling2", "--n", "512", "--json"],
    ["compute", "--family", "path:1025"],
    ["verify", "--id", "I1", "--n-max", "4091", "--csv"],
    ["verify", "--id", "C9", "--n-max", "4090", "--p-max", "1", "--csv"],
]
_FAMILIES = st.tuples(
    st.sampled_from(["path", "cycle", "star", "h", "empty", "complete", "wheel"]),
    st.lists(_INTS, min_size=1, max_size=3).map(",".join),
).map(":".join)


def _flag(name, values):
    return values.map(lambda v: [name, v])


def _maybe(tokens):
    return st.just([]) | tokens


_FORMATS = st.sampled_from([[], ["--json"], ["--csv"]])
_REQUESTS = {
    "seq": [
        _flag("--kind", st.sampled_from(["bell", "two_bell", "stirling2", "avg_blocks"])),
        _flag("--n", _INTS),
        _FORMATS,
    ],
    "compute": [
        _flag("--family", _FAMILIES)
        | _flag("--edges", st.sampled_from(["EDGES", "JUNK", "/nonexistent/edges.txt"])),
        _maybe(st.just(["--no-memo"])),
        _FORMATS,
    ],
    "family": [_flag("--family", _FAMILIES), _FORMATS],
    "verify": [
        _flag("--id", st.sampled_from(INEQUALITY_IDS)),
        _flag("--n-max", _INTS),
        _maybe(_flag("--p-max", _INTS)),
        _maybe(st.just(["--explore"])),
        _FORMATS,
    ],
    "selftest": [
        _maybe(_flag("--seed", _INTS)),
        _maybe(_flag("--n-max", _INTS)),
        _maybe(_flag("--p-max", _INTS)),
        _maybe(st.just(["--json"])),
    ],
}


@st.composite
def argvs(draw):
    """A well-formed request with its flags in any order, then at most one
    edit: a token dropped, replaced by junk or a small int, or inserted."""
    command = draw(st.sampled_from(sorted(_REQUESTS)))
    groups = draw(st.permutations([draw(g) for g in _REQUESTS[command]]))
    argv = [command] + [token for group in groups for token in group]
    edit = draw(st.sampled_from(["none", "none", "drop", "replace", "insert"]))
    if edit == "none":
        return argv
    i = draw(st.integers(0, len(argv) - (edit != "insert")))
    if edit == "drop":
        return argv[:i] + argv[i + 1:]
    token = draw(_INTS | _JUNK)
    return argv[:i] + [token] + argv[i + (edit == "replace"):]


@settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs() | st.sampled_from(_REFUSED))
def test_cli_argv_ends_in_documented_exit_code(tmp_path, monkeypatch, argv):
    (tmp_path / "EDGES").write_text("4 3\n0 1\n1 2\n2 3\n")
    (tmp_path / "JUNK").write_bytes(b"\xff 3\n")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
