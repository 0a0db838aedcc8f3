"""CLI documents pinned against outputs recorded before the momentum-space rewrite.

The JSON documents under ``golden/`` were written by the position-space
mpmath implementation of the collective statistics; the CSV tables and the
``--no-interaction`` document were recorded later, before ``hardy`` began to
return plain dicts, and the three ``collective-*`` documents (the
out-of-regime warning, the exact single-branch case and the ``density_grid``
table) before the value types below ``hardy`` lost their unread fields.
``verify.json``'s criterion 8 detail was rewritten once, when the check
began to judge the KS distance against its 1% critical value instead of a
p-value; its pull and its distance are the same numbers as before.
``collective-pdf.csv``'s pdf column was rewritten once, when the density
scan became a chirp-z transform; its q column is the same, and every pdf
value moved by less than 3e-13 of the peak.
Every document except ``collective.json`` must be reproduced byte for byte;
``collective.json`` now comes from a different quadrature, so its mean and
spread are compared to 1e-9 and every other field, the mode included,
exactly.
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
    ("hardy-table.json", ["hardy-table"]),
    ("hardy-table.csv", ["hardy-table", "--format", "csv"]),
    ("detector-stats.json", ["detector-stats"]),
    ("detector-stats.csv", ["detector-stats", "--format", "csv"]),
    ("detector-stats-no-interaction.json", ["detector-stats", "--no-interaction"]),
    ("abl.json", ["abl"]),
    ("simultaneous.json", ["simultaneous"]),
    ("weak-measure.json", ["weak-measure", "--seed", "7", "--trials", "20000"]),
    ("weak-measure-pdf.csv", ["weak-measure", "--observable", "N_pair_NO_NO", "--seed", "7",
                              "--trials", "10", "--pdf-points", "64", "--format", "csv"]),
    ("verify.json", ["verify"]),
    ("collective-strong.json", ["collective", "--n-pairs", "100", "--c", "0.5"]),
    ("collective-single-branch.json", ["collective", "--observable", "N_pair_O_O",
                                       "--n-pairs", "10"]),
    ("collective-pdf.csv", ["collective", "--n-pairs", "25", "--c", "1",
                            "--pdf-points", "256", "--format", "csv"]),
])
def test_document_is_byte_identical(name, argv, capsys):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_stdout(argv, capsys) == expected


def test_collective_document_matches_field_by_field(capsys):
    doc = json.loads(cli_stdout(["collective", "--n-pairs", "100"], capsys))
    expected = json.loads((GOLDEN / "collective.json").read_text(encoding="utf-8"))
    quadrature = {"mean", "mean_over_g", "spread", "spread_over_g"}
    for key in quadrature:
        assert doc["results"].pop(key) == pytest.approx(
            expected["results"].pop(key), abs=1e-9), key
    assert doc == expected
