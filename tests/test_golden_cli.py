"""Golden CLI outputs: every README example plus a few large and p-grid requests.

``golden_cli.json`` holds the exit code, byte count and sha256 of stdout for
each command, and for the later entries (every subcommand in every format)
also the exact stderr text.  The digests are fixed; a change to any printed
byte fails here, so speed work on the tables, closed forms and verifier, and
any rework of the CLI's output code, must keep outputs byte-identical.
The CLI writes CSV by joining fields with commas, so each CSV output must
also read back through ``csv.reader`` as its plain comma split: no field may
need quoting.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from graphbell.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

# The Petersen graph, for the README's ``compute --edges`` example.
PETERSEN = "10 15\n" + "".join(
    f"{u} {v}\n"
    for u, v in [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_output_matches_golden_digest(entry, capsys, tmp_path):
    edges = tmp_path / "mygraph.txt"
    edges.write_text(PETERSEN)
    argv = [a.replace("{edges}", str(edges)) for a in entry["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert code == entry["exit"]
    assert len(out) == entry["bytes"]
    assert hashlib.sha256(out).hexdigest() == entry["sha256"]
    if "stderr" in entry:
        assert captured.err == entry["stderr"]
    if "--csv" in argv:
        lines = captured.out.splitlines()
        assert list(csv.reader(io.StringIO(captured.out))) == [line.split(",") for line in lines]
