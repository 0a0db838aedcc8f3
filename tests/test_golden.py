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
``collective.json`` and ``collective-strong.json`` were re-recorded once,
when the mode search became the density scan zoomed onto its argmax.  Their
modes moved by 1.3e-7 and 1.6e-7 of delta, to within 5.5e-9 and 1.5e-10 of
delta of the mode that mpmath refines to 1e-12 of delta.  The mean and
spread in ``collective.json``, from the momentum-space quadrature, are
within 6e-15 of the mpmath values first recorded there.  Every document
must be reproduced byte for byte.
"""

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
    ("collective.json", ["collective", "--n-pairs", "100"]),
    ("collective-strong.json", ["collective", "--n-pairs", "100", "--c", "0.5"]),
    ("collective-single-branch.json", ["collective", "--observable", "N_pair_O_O",
                                       "--n-pairs", "10"]),
    ("collective-pdf.csv", ["collective", "--n-pairs", "25", "--c", "1",
                            "--pdf-points", "256", "--format", "csv"]),
])
def test_document_is_byte_identical(name, argv, capsys):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_stdout(argv, capsys) == expected

