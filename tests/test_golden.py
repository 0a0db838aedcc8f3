"""CLI documents pinned against outputs recorded before the momentum-space rewrite.

The files under ``golden/`` were written by the position-space mpmath
implementation of the collective statistics.  Every document except
``collective`` must be reproduced byte for byte; ``collective`` now comes
from a different quadrature, so its mean and spread are compared to 1e-9 and
every other field, the mode included, exactly.
"""

import json
from pathlib import Path

import pytest

from weakmeas.cli import run

GOLDEN = Path(__file__).parent / "golden"


def cli_stdout(argv, capsys):
    assert run(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name, argv", [
    ("hardy-table", ["hardy-table"]),
    ("detector-stats", ["detector-stats"]),
    ("abl", ["abl"]),
    ("simultaneous", ["simultaneous"]),
    ("weak-measure", ["weak-measure", "--seed", "7", "--trials", "20000"]),
    ("verify", ["verify"]),
])
def test_document_is_byte_identical(name, argv, capsys):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert cli_stdout(argv, capsys) == expected


def test_collective_document_matches_field_by_field(capsys):
    doc = json.loads(cli_stdout(["collective", "--n-pairs", "100"], capsys))
    expected = json.loads((GOLDEN / "collective.json").read_text(encoding="utf-8"))
    quadrature = {"mean", "mean_over_g", "spread", "spread_over_g"}
    for key in quadrature:
        assert doc["results"].pop(key) == pytest.approx(
            expected["results"].pop(key), abs=1e-9), key
    assert doc == expected
