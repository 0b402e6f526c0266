"""hypothesis fuzz of the input parsers: every input parses or raises a GraphBellError.

Generated orders stay at most 2000, so an input that slips past the order
check can never allocate much.  The settings profile in ``conftest.py``
derandomizes the search.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from graphbell.cli import parse_family  # noqa: E402
from graphbell.errors import GraphBellError  # noqa: E402
from graphbell.graph_core import FamilySpec, Graph, load_edge_list  # noqa: E402

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
