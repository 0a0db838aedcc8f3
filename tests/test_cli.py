"""CLI contract: documents, formats, config handling and exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import weakmeas
from weakmeas import cli, collective, hardy, pointer, verify
from weakmeas.cli import build_parser, render_json, result_schema, run
from weakmeas.pointer import MAX_PDF_POINTS, MAX_TRIALS


# a collective window span that overflows: to inf, or to a 304-digit grid size
_OVERFLOWED_GRIDS = [["collective", "--g", "1e300", "--n-pairs", "10000000000", "--delta", "1"],
                     ["collective", "--g", "1e300", "--delta", "1"]]


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env(**extra) -> dict:
    """This process's environment for a child that imports ``weakmeas`` from
    this tree, without the BLAS thread count that importing ``weakmeas.cli``
    here set, plus ``extra``."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(Path(weakmeas.__file__).parents[1]), **extra}


# A child's ru_maxrss also counts the peak of the process it was spawned
# from, so a bare launcher spawns the command and reports its exit code and
# ru_maxrss (KiB on Linux).
_LAUNCHER = ("import os, subprocess, sys\n"
             "with open(sys.argv[1], 'wb') as out:\n"
             "    proc = subprocess.Popen(sys.argv[2:], stdout=out)\n"
             "    _, status, usage = os.wait4(proc.pid, 0)\n"
             "proc.returncode = os.waitstatus_to_exitcode(status)\n"
             "print(proc.returncode, usage.ru_maxrss)\n")


def child_peak_rss_mib(out, *args) -> float:
    """The peak RSS of a fresh ``python *args`` with its stdout in ``out``,
    which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, str(out), sys.executable, *args],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return maxrss_kib / 1024


def run_json(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, result_schema())
    return doc


class TestHardyTable:
    def test_values_and_schema(self, capsys):
        doc = run_json(["hardy-table"], capsys)
        entry = doc["results"]["N_pair_NO_NO"]
        assert entry["re"] == pytest.approx(-1.0, abs=1e-12)
        assert entry["im"] == 0.0
        assert doc["results"]["p_postselect"] == pytest.approx(1 / 12, abs=1e-12)
        assert doc["timing_ms"] is None

    def test_round_trip_stable(self, capsys):
        _, out, _ = run_cli(["hardy-table"], capsys)
        assert render_json(json.loads(out)) == out

    def test_csv(self, capsys):
        code, out, _ = run_cli(["hardy-table", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_name = {r["name"]: float(r["re"]) for r in rows}
        assert by_name["N_pair_NO_NO"] == pytest.approx(-1.0, abs=1e-12)
        assert by_name["p_postselect"] == pytest.approx(1 / 12, abs=1e-12)

    def test_timing_opt_in(self, capsys):
        doc = run_json(["hardy-table", "--timing"], capsys)
        assert isinstance(doc["timing_ms"], float)


class TestDetectorStats:
    def test_with_interaction(self, capsys):
        doc = run_json(["detector-stats"], capsys)
        assert doc["results"]["annihilation"] == pytest.approx(0.25, abs=1e-12)
        assert doc["results"]["D_plus_D_minus_given_no_annihilation"] == pytest.approx(
            1 / 12, abs=1e-12)

    def test_without_interaction(self, capsys):
        doc = run_json(["detector-stats", "--no-interaction"], capsys)
        assert doc["results"]["D_plus_D_minus"] == pytest.approx(0.0, abs=1e-12)


class TestAbl:
    def test_single_observable(self, capsys):
        doc = run_json(["abl", "--observable", "N_pair_NO_NO"], capsys)
        entries = doc["results"]["N_pair_NO_NO"]["entries"]
        assert {e["eigenvalue"]: e["probability"] for e in entries} == pytest.approx(
            {0.0: 0.8, 1.0: 0.2}, abs=1e-12)

    def test_all_observables_default(self, capsys):
        doc = run_json(["abl"], capsys)
        assert len(doc["results"]) == 8

    def test_degenerate_postselection_exits_3(self, capsys):
        code, _, err = run_cli(["abl", "--postselect", "oo"], capsys)
        assert code == 3
        assert err.startswith("error: computation:")
        assert err.count("\n") == 1

    def test_unknown_observable_exits_2(self, capsys):
        code, _, err = run_cli(["abl", "--observable", "N_typo"], capsys)
        assert code == 2
        assert err.startswith("error: config:")


class TestWeakMeasure:
    def test_deterministic_documents(self, capsys):
        args = ["weak-measure", "--observable", "N_minus_O", "--g", "0.05",
                "--delta", "1", "--trials", "2000", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_estimate_fields(self, capsys):
        doc = run_json(["weak-measure", "--observable", "N_pair_NO_NO",
                        "--trials", "20000", "--seed", "11"], capsys)
        res = doc["results"]["N_pair_NO_NO"]
        assert res["weak_value"] == {"re": -1.0, "im": 0.0}
        assert abs(res["estimate"] - (-1.0)) < 4 * res["stderr"]
        assert doc["inputs"]["seed"] == 11

    def test_seed_required(self, capsys):
        code, _, err = run_cli(["weak-measure", "--observable", "N_minus_O"], capsys)
        assert code == 2
        assert "seed" in err

    def test_weak_regime_warning(self, capsys):
        doc = run_json(["weak-measure", "--observable", "N_minus_O", "--g", "5",
                        "--trials", "10", "--seed", "1"], capsys)
        assert any("weak regime" in w for w in doc["warnings"])

    def test_csv_weak_values_match_the_document(self, capsys):
        # both print a negative-zero weak value as plain 0.0
        args = ["weak-measure", "--seed", "1", "--trials", "1000"]
        doc = run_json(args, capsys)
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["observable"] for row in rows] == list(hardy.OBSERVABLE_ORDER)
        for row in rows:
            wv = doc["results"][row["observable"]]["weak_value"]
            assert (row["weak_value_re"], row["weak_value_im"]) == (repr(wv["re"]), repr(wv["im"]))

    def test_pdf_csv(self, capsys):
        code, out, _ = run_cli(
            ["weak-measure", "--observable", "N_minus_O", "--seed", "1",
             "--trials", "10", "--pdf-points", "64", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 64
        assert set(rows[0]) == {"q", "pdf"}

    def test_pdf_points_need_a_single_observable(self, capsys):
        code, out, err = run_cli(["weak-measure", "--observable", "all", "--seed", "1",
                                  "--pdf-points", "10", "--format", "csv"], capsys)
        assert (code, out, err) == (2, "", "error: config: --pdf-points needs a single "
                                           "--observable\n")

    def test_pdf_rows_span_the_sampling_grid(self, capsys):
        # the rows cover the sampler's window, +-(max|shift| + 10 delta)
        code, out, _ = run_cli(
            ["weak-measure", "--observable", "N_minus_O", "--seed", "1", "--g", "0.2",
             "--delta", "0.5", "--trials", "10", "--pdf-points", "64", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        scenario = hardy.build()
        spec = pointer.CouplingSpec(scenario.observable("N_minus_O"), g=0.2, delta=0.5)
        m = pointer.mixture(scenario.ensemble, spec)
        grid = pointer._sampling_grid(m.shifts, m.delta, 64)
        assert (float(rows[0]["q"]), float(rows[-1]["q"])) == (grid[0], grid[-1])

    @pytest.mark.parametrize("poison", [
        lambda est: pointer.WeakEstimate(est.estimate, float("inf")),
        lambda est: pointer.WeakEstimate(float("nan"), est.stderr),
    ], ids=["infinite-stderr", "nan-estimate"])
    def test_non_finite_result_exits_3(self, poison, monkeypatch, capsys):
        # the bounds on g and delta keep the known inputs from reaching this;
        # the rendering still refuses a non-finite document
        real = pointer.estimate
        monkeypatch.setattr(pointer, "estimate", lambda *args: poison(real(*args)))
        code, out, err = run_cli(["weak-measure", "--observable", "N_pair_NO_NO",
                                  "--seed", "1", "--trials", "1000"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: computation: result is not finite (NaN or infinity)\n"

    def test_negative_trials_rejected(self, capsys):
        code, _, err = run_cli(["weak-measure", "--observable", "N_minus_O",
                                "--trials", "-5", "--seed", "1"], capsys)
        assert code == 2

    def test_pointer_wider_than_grid_resolution_exits_3(self, capsys):
        # 4096 points over +-1e300 cannot resolve a width-1 pointer; the
        # estimate used to come out as 0.99975 against the strong-limit 0.2
        code, out, err = run_cli(["weak-measure", "--observable", "N_pair_NO_NO",
                                  "--g", "1e300", "--seed", "1", "--trials", "1000"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: computation: sampling CDF total")
        assert err.count("\n") == 1

    def test_trials_above_cap_rejected(self, capsys):
        code, out, err = run_cli(["weak-measure", "--observable", "N_minus_O",
                                  "--trials", str(MAX_TRIALS + 1), "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: config: trials")
        assert err.count("\n") == 1


class TestSimultaneous:
    def test_all_marginals(self, capsys):
        doc = run_json(["simultaneous", "--g", "0.01"], capsys)
        assert doc["results"]["N_pair_NO_NO"]["mean_over_g"] == pytest.approx(
            -1.0, abs=1e-2)
        assert len(doc["results"]) == 8


class TestCollective:
    def test_mean_within_band(self, capsys):
        doc = run_json(["collective", "--n-pairs", "100", "--observable",
                        "N_pair_NO_NO", "--c", "5"], capsys)
        assert -110.0 <= doc["results"]["mean_over_g"] <= -90.0
        assert doc["results"]["mode_over_g"] < 0.0
        assert doc["results"]["success_probability_log10"] == pytest.approx(
            100 * (2 * (1 / 2) * -1.0792), rel=1e-3)

    def test_explicit_delta_overrides_c(self, capsys):
        doc = run_json(["collective", "--n-pairs", "4", "--delta", "2.5",
                        "--g", "0.1"], capsys)
        assert doc["inputs"]["delta"] == 2.5

    def test_regime_warning(self, capsys):
        doc = run_json(["collective", "--n-pairs", "25", "--g", "1.0",
                        "--delta", "2.0"], capsys)
        assert doc["warnings"]

    def test_all_observables_exits_2(self, capsys):
        code, out, err = run_cli(["collective", "--observable", "all"], capsys)
        assert (code, out, err) == (2, "", "error: config: collective needs a single observable\n")

    # the last two overflow the window span to inf, so the momentum step is 0
    @pytest.mark.parametrize("argv", [["collective", "--n-pairs", "100000000"],
                                      *_OVERFLOWED_GRIDS], ids=" ".join)
    def test_oversized_quadrature_exits_3(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error: computation: momentum grid needs (inf|\d\.\d\de\+\d+) "
                            r"points, above the cap of 65536; reduce n_pairs or widen delta\n",
                            err), err

    def test_peak_rss_at_the_limits(self, tmp_path):
        # a momentum grid near 6*10^4 points and the most --pdf-points; with
        # the scan as two sqrt(points) x m factor matrices the peak is near
        # 934 MB
        out = tmp_path / "pdf.csv"
        peak = child_peak_rss_mib(out, "-m", "weakmeas.cli", "collective", "--n-pairs", "100000",
                                  "--pdf-points", str(MAX_PDF_POINTS), "--format", "csv")
        assert len(out.read_text().splitlines()) == MAX_PDF_POINTS + 1
        assert peak < 128


def test_arithmetic_error_exits_3(monkeypatch, capsys):
    def overflow(params, provided):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._COMMANDS, "hardy-table", (overflow, *cli._COMMANDS["hardy-table"][1:]))
    code, out, err = run_cli(["hardy-table"], capsys)
    assert (code, out, err) == (3, "", "error: computation: OverflowError: math range error\n")


class TestVerify:
    @pytest.fixture
    def broken_check(self, monkeypatch):
        def boom():
            raise RuntimeError("check blew up")

        monkeypatch.setattr(verify, "CHECKS", (
            (1, "broken", boom),
            (2, "postselection_probability", verify.check_postselection_probability)))

    def test_raising_check_is_recorded_as_fail(self, broken_check):
        outcome = verify.run_check(1)
        assert not outcome.passed
        assert "RuntimeError: check blew up" in outcome.detail
        assert verify.run_check(2).passed

    def test_elapsed_ms_only_under_timing(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:2])
        plain = run_json(["verify"], capsys)
        timed = run_json(["verify", "--timing"], capsys)
        assert plain["timing_ms"] is None
        assert set(timed["results"]) == set(plain["results"])
        for name, entry in timed["results"].items():
            assert "elapsed_ms" not in plain["results"][name]
            assert entry.pop("elapsed_ms") >= 0.0
            assert entry == plain["results"][name]

    def test_report_continues_past_a_raising_check(self, broken_check, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["broken"]["passed"] is False
        assert doc["results"]["postselection_probability"]["passed"] is True

    def test_peak_rss_above_the_floor(self, tmp_path):
        # The floor is what every verify run must load: numpy, numpy.random
        # (its secrets -> hmac -> _hashlib chain loads libcrypto) and the
        # first eigh.  Above it, cold, with and without cached bytecode, verify
        # took 4.9-5.5 MB and criterion 5 alone 4.5-5.2 MB while criterion 5
        # held its draws as lists of small arrays and built each dimension as
        # one stack; with preallocated draws and batches, 3.6-4.3 and 1.7-2.2 MB;
        # with each batch built as the draws fill it, criterion 5 took 0.5-0.9 MB.
        floor = "import weakmeas.cli, numpy.random; from weakmeas import hardy; hardy.build()"
        out = tmp_path / "stdout"
        base = child_peak_rss_mib(out, "-c", floor)
        whole = child_peak_rss_mib(out, "-m", "weakmeas.cli", "verify")
        additivity = child_peak_rss_mib(out, "-c", floor + "; from weakmeas import verify; "
                                        "raise SystemExit(not verify.check_additivity()[0])")
        assert whole - base <= 5.0
        assert additivity - base <= 1.2


class TestConfigFile:
    def test_file_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.02\ntrials = 500\nseed = 3\n# comment line\n")
        doc = run_json(["weak-measure", "--observable", "N_minus_O",
                        "--config", str(cfg)], capsys)
        assert doc["inputs"]["g"] == 0.02
        assert doc["inputs"]["trials"] == 500

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.02\nseed = 3\ntrials = 100\n")
        doc = run_json(["weak-measure", "--observable", "N_minus_O",
                        "--config", str(cfg), "--g", "0.04"], capsys)
        assert doc["inputs"]["g"] == 0.04

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code, _, err = run_cli(["hardy-table", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error: config:")

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gg = 1\n")
        code, _, err = run_cli(["hardy-table", "--config", str(cfg)], capsys)
        assert code == 2

    def test_timing_from_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "timing.cfg"
        cfg.write_text("timing = true\n")
        doc = run_json(["hardy-table", "--config", str(cfg)], capsys)
        assert isinstance(doc["timing_ms"], float)

    def test_bad_bool_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("timing = maybe\n")
        code, out, err = run_cli(["hardy-table", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", f"error: config: {cfg}:1: bad bool value 'maybe' "
                                           "for timing\n")

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = lots\n")
        code, _, err = run_cli(["weak-measure", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith(f"error: config: {cfg}:1: bad int value 'lots' for trials")

    @pytest.mark.parametrize("command, lines", [
        ("abl", "trials = 0\nseed = -5\n"),
        ("hardy-table", "pdf_points = 1\n"),
        ("verify", "g = 0.05\n"),
        ("collective", "interaction = no\n"),
    ], ids=["abl-trials", "hardy-table-pdf_points", "verify-g", "collective-interaction"])
    def test_key_the_command_does_not_take_exits_2(self, command, lines, tmp_path, capsys):
        # a config file says only what the run uses, even a value the command would ignore
        cfg = tmp_path / "other.cfg"
        cfg.write_text(lines)
        out_file = tmp_path / "doc.json"
        code, out, err = run_cli([command, "--config", str(cfg), "--output-path", str(out_file)],
                                 capsys)
        key = lines.split(" ", 1)[0]
        assert (code, out) == (2, "") and not out_file.exists()
        assert err == f"error: config: {cfg}:1: {command} takes no {key!r}\n"

    @pytest.mark.parametrize("command", ["weak-measure", "collective"])
    def test_pdf_points_from_the_file_needs_csv(self, command, tmp_path, capsys):
        cfg = tmp_path / "pdf.cfg"
        cfg.write_text("pdf_points = 64\n")
        code, out, err = run_cli([command, "--observable", "N_minus_O", "--config", str(cfg)],
                                 capsys)
        assert (code, out, err) == (2, "", "error: config: --pdf-points needs --format csv\n")

    def test_common_keys_are_taken_by_every_command(self, tmp_path, capsys):
        cfg = tmp_path / "common.cfg"
        out_file = tmp_path / "doc.json"
        cfg.write_text(f"format = json\ntiming = no\noutput_path = {out_file}\n")
        code, out, err = run_cli(["hardy-table", "--config", str(cfg)], capsys)
        assert (code, out, err) == (0, "", "")
        assert json.loads(out_file.read_text())["command"] == "hardy-table"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["hardy-table", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2

    @pytest.mark.parametrize("line", ["postselect = zz", "format = xml"])
    def test_value_outside_the_choices_exits_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out_file = tmp_path / "doc.json"
        code, out, err = run_cli(["abl", "--config", str(cfg), "--output-path", str(out_file)],
                                 capsys)
        assert code == 2
        assert out == "" and not out_file.exists()
        assert err.startswith("error: config:")
        assert err.count("\n") == 1


# the flags every command takes, then each command's own, in --help order
_COMMON_FLAGS = ["--config", "--output-path", "--format", "--timing"]
_COMMAND_FLAGS = {
    "hardy-table": [],
    "detector-stats": ["--no-interaction"],
    "abl": ["--observable", "--postselect"],
    "weak-measure": ["--observable", "--postselect", "--g", "--delta", "--trials", "--seed",
                     "--pdf-points"],
    "simultaneous": ["--postselect", "--g", "--delta"],
    "collective": ["--observable", "--postselect", "--n-pairs", "--g", "--c", "--delta",
                   "--pdf-points"],
    "verify": [],
}
# every flag: (dest, its argument or None for a switch, the parsed value)
_FLAG_VALUES = {
    "--config": ("config", "run.cfg", "run.cfg"),
    "--output-path": ("output_path", "doc.json", "doc.json"),
    "--format": ("format", "csv", "csv"),
    "--timing": ("timing", None, True),
    "--no-interaction": ("interaction", None, False),
    "--observable": ("observable", "N_minus_O", "N_minus_O"),
    "--postselect": ("postselect", "cc", "cc"),
    "--g": ("g", "0.1", 0.1),
    "--delta": ("delta", "2", 2.0),
    "--c": ("c", "3", 3.0),
    "--trials": ("trials", "5", 5),
    "--seed": ("seed", "7", 7),
    "--n-pairs": ("n_pairs", "4", 4),
    "--pdf-points": ("pdf_points", "64", 64),
}
_CHOICES = {"--format": ["json", "csv"], "--postselect": ["dd", "cc", "cd", "dc", "oo"]}


def _argv(command, flag, value=None):
    _, arg, _ = _FLAG_VALUES[flag]
    return [command, flag] + ([value or arg] if arg else [])


class TestFlagMap:
    """Each command's flags, pinned as a literal map rather than read from the tables."""

    @pytest.mark.parametrize("command", _COMMAND_FLAGS)
    def test_help_lists_the_flags_in_order(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, flags=re.M)
        assert flags == _COMMON_FLAGS + _COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command", _COMMAND_FLAGS)
    def test_absent_flags_parse_to_none(self, command):
        dests = [_FLAG_VALUES[flag][0] for flag in _COMMON_FLAGS + _COMMAND_FLAGS[command]]
        assert vars(build_parser().parse_args([command])) == {"command": command,
                                                               **dict.fromkeys(dests)}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, own in _COMMAND_FLAGS.items()
        for flag in _COMMON_FLAGS + own])
    def test_every_flag_parses(self, command, flag):
        dest, _, value = _FLAG_VALUES[flag]
        parsed = getattr(build_parser().parse_args(_argv(command, flag)), dest)
        assert parsed == value
        assert type(parsed) is type(value)

    # flags are never abbreviated, so a foreign --c is not taken for --config
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, own in _COMMAND_FLAGS.items()
        for flag in _FLAG_VALUES if flag not in _COMMON_FLAGS + own])
    def test_flag_of_another_command_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(_argv(command, flag))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: config: unrecognized arguments")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", _CHOICES)
    def test_choice_sets(self, flag, capsys):
        dest = _FLAG_VALUES[flag][0]
        for choice in _CHOICES[flag]:
            assert getattr(build_parser().parse_args(_argv("abl", flag, choice)), dest) == choice
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_argv("abl", flag, "zz"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: config: argument " + flag)


def test_every_option_row_is_used():
    used = set(cli._COMMON).union(*(names for _, _, names in cli._COMMANDS.values()))
    assert used == set(cli._OPTIONS)


class TestOutputPath:
    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "doc.json"
        code, out, _ = run_cli(["hardy-table", "--output-path", str(out_file)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(out_file.read_text())
        jsonschema.validate(doc, result_schema())

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_path_exits_2(self, where, tmp_path, capsys):
        path = tmp_path / "missing" / "doc.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(["hardy-table", "--output-path", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config: cannot write output file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestEntryPoint:
    def test_cold_import_skips_heavy_modules(self):
        # scipy and mpmath are test-only oracles: neither the import nor any
        # command loads them
        runs = [["hardy-table"], ["detector-stats"], ["abl"], ["simultaneous"],
                ["weak-measure", "--seed", "1", "--trials", "1000"], ["collective"], ["verify"]]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys, weakmeas.cli as cli\n"
             "def heavy():\n"
             "    return [m for m in sys.modules if m.split('.')[0] in ('mpmath', 'scipy')]\n"
             "print(heavy())\n"
             f"for argv in {runs!r}:\n"
             "    assert cli.run(argv + ['--output-path', os.devnull]) == 0, argv\n"
             "    print(argv[0], heavy())\n"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"] + [f"{argv[0]} []" for argv in runs]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir() or os.cpu_count() == 1,
                        reason="counts threads in /proc on a host with more than one CPU")
    def test_cli_import_starts_no_blas_thread(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, weakmeas.cli\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]

    def test_cli_import_keeps_an_explicit_blas_thread_count(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, weakmeas.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"],
            capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_large_collective_document_is_the_same_on_any_thread_count(self):
        # its moment sums run over more than 10^4 points, which a BLAS thread
        # pool splits by the host's CPU count
        argv = [sys.executable, "-m", "weakmeas.cli", "collective", "--n-pairs", "100000"]
        unset, pinned = (subprocess.run(argv, capture_output=True, env=env)
                         for env in (_child_env(), _child_env(OPENBLAS_NUM_THREADS="1")))
        assert unset.returncode == pinned.returncode == 0
        assert unset.stdout == pinned.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeas.cli", "hardy-table"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"]["N_minus_O"]["re"] == pytest.approx(1.0, abs=1e-12)

    def test_bad_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeas.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")


@pytest.mark.parametrize("argv", [
    ["weak-measure", "--g", "1", "--delta", "1e200", "--seed", "1"],
    ["simultaneous", "--delta", "1e200"],
    ["collective", "--delta", "1e200"],
], ids=" ".join)
def test_delta_whose_square_overflows_exits_2(argv, capsys):
    # delta**2 of a Python float would overflow: delta above 1e150 is out of the domain
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config: delta")
    assert err.count("\n") == 1


_TINY_CASES = [
    (["weak-measure", "--seed", "1", "--g", "1e-300"],
     "g must be at least 1e-140 times delta = 1.0, got 1e-300"),
    (["weak-measure", "--seed", "1", "--delta", "1e-300"],
     "delta must be at least 1e-150, got 1e-300"),
    # the default delta is c g sqrt(N) = 5e-299: the message names the flags that set it
    (["collective", "--g", "1e-300"], "delta must be at least 1e-150, got 5e-299, the default "
     "delta = c*g*sqrt(N) with c = 5.0, g = 1e-300, N = 100; change --g or --c, or give --delta"),
    (["collective", "--delta", "1e-300"], "delta must be at least 1e-150, got 1e-300"),
    (["collective", "--g", "1e-300", "--delta", "1"],
     "g must be at least 1e-140 times delta = 1.0, got 1e-300"),
    (["simultaneous", "--delta", "1e-300"], "delta must be at least 1e-150, got 1e-300"),
    (["simultaneous", "--g", "1e-300"],
     "g must be at least 1e-140 times delta = 1.0, got 1e-300"),
]


@pytest.mark.parametrize("argv, message", _TINY_CASES,
                         ids=[" ".join(argv) for argv, _ in _TINY_CASES])
def test_tiny_coupling_or_width_exits_2(argv, message, capsys):
    # delta**2 below a normal float, or readings/g whose squares could overflow
    # in estimate, are out of the domain: refused before any work
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: config: {message}\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_HOSTILE = ["0", "-1", "nan", "inf", "1e-300", "1e300"]
_FUZZ_BASE = {
    "weak-measure": ["--observable", "N_pair_NO_NO", "--seed", "1", "--trials", "1000"],
    "simultaneous": [],
    "collective": ["--n-pairs", "4"],
}
_PDF_POINTS = ["0", "1", "-1", str(MAX_PDF_POINTS + 1)]
_FUZZ_FLAGS = {
    "weak-measure": {"--g": _HOSTILE, "--delta": _HOSTILE,
                     "--trials": ["0", "1", "-1", str(MAX_TRIALS + 1)], "--seed": ["-1", str(2**64)],
                     "--pdf-points": _PDF_POINTS},
    "simultaneous": {"--g": _HOSTILE, "--delta": _HOSTILE},
    "collective": {"--g": _HOSTILE, "--c": _HOSTILE, "--delta": _HOSTILE,
                   "--n-pairs": ["0", "-1"], "--pdf-points": _PDF_POINTS},
}
_FUZZ_CONFIG = ["g = -1", "delta = nan", "trials = 0"]  # the same rules, from a config file
_FUZZ_NEEDS = {"--pdf-points": ["--format", "csv"]}  # the flags a fuzzed flag is taken with
# out of the domain, so exit exactly 2; 1e300 is in it and may exit 0 or 3, except a
# delta of 1e300, above pointer.MAX_DELTA; 1e-300 is out as a g or a delta
# (below pointer.MIN_G_OVER_DELTA and pointer.MIN_DELTA)
_OUT_OF_DOMAIN = {"0", "-1", "nan", "inf"}
_TINY = {("--g", "1e-300"), ("--delta", "1e-300")}
_ALWAYS_OUT = {"--trials", "--seed", "--n-pairs", "--pdf-points", "--config"}
# a q,pdf table run draws nothing, but judges --trials and --seed by the sampler's rule
_TABLE_DRAWS = [["weak-measure", *_FUZZ_BASE["weak-measure"], "--format", "csv", "--pdf-points",
                 "64", flag, value]
                for flag, value in [("--trials", "0"), ("--trials", str(MAX_TRIALS + 1)),
                                    ("--seed", "-1"), ("--seed", str(2**64))]]


@pytest.mark.parametrize("argv", [
    [command, *_FUZZ_BASE[command], *_FUZZ_NEEDS.get(flag, []), flag, value]
    for command, flags in _FUZZ_FLAGS.items()
    for flag, values in flags.items()
    for value in values
] + [["weak-measure", "--observable", "N_pair_NO_NO", "--seed", "1", "--config", line]
     for line in _FUZZ_CONFIG] + _OVERFLOWED_GRIDS + _TABLE_DRAWS, ids=" ".join)
def test_hostile_input_fails_cleanly(argv, tmp_path, capsys):
    """Out-of-domain numbers exit 2, extreme ones 0 or 3: strict JSON or one error line."""
    flag, value = argv[-2:]
    if flag == "--config":
        cfg = tmp_path / "hostile.cfg"
        cfg.write_text(value + "\n")
        argv = [*argv[:-1], str(cfg)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    if (flag in _ALWAYS_OUT or value in _OUT_OF_DOMAIN or (flag, value) == ("--delta", "1e300")
            or (flag, value) in _TINY):
        name = value.split(" ")[0] if flag == "--config" else flag[2:].replace("-", "_")
        name = "points" if name == "pdf_points" else name  # the grid rule names its argument
        if argv[0] == "collective" and flag == "--g" and value == "1e-300":
            name = "delta"  # the default delta, c g sqrt(N), is the one out of range
        assert code == 2
        assert err.startswith(f"error: config: {name} must be")
    if code == 0:
        jsonschema.validate(json.loads(out, parse_constant=_reject_constant),
                            result_schema())
    else:
        assert out == ""
        assert err.startswith(("error: config:", "error: computation:"))
        # a judged failure, not a Python exception name from cli.run's catch-all
        assert not re.match(r"error: computation: \w+Error: ", err), err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, module, name, error", [
    (["weak-measure", *_FUZZ_BASE["weak-measure"], "--format", "csv", "--pdf-points", "1"],
     pointer, "position_pdf", "points must be"),
    (["collective", *_FUZZ_BASE["collective"], "--format", "csv", "--pdf-points", "1"],
     collective, "collective_pointer_stats", "points must be"),
    # the q,pdf table is CSV only: a JSON run with --pdf-points builds nothing
    (["weak-measure", *_FUZZ_BASE["weak-measure"], "--pdf-points", "64"],
     pointer, "mixture", "--pdf-points needs --format csv\n"),
    (["collective", *_FUZZ_BASE["collective"], "--pdf-points", "64"],
     collective, "density_grid", "--pdf-points needs --format csv\n"),
], ids=["weak-measure", "collective", "weak-measure-json", "collective-json"])
def test_pdf_points_judged_before_the_work(argv, module, name, error, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before --pdf-points was judged")

    monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config: {error}")
    assert err.count("\n") == 1


def test_weak_measure_pdf_table_draws_nothing(monkeypatch, capsys):
    # the CSV run prints only the q,pdf table; readings and their estimate
    # would be work it never shows
    def refuse(*args, **kwargs):
        raise AssertionError("sample ran for a q,pdf table")

    monkeypatch.setattr(pointer, "sample", refuse)
    code, out, err = run_cli(["weak-measure", *_FUZZ_BASE["weak-measure"], "--format", "csv",
                              "--pdf-points", "64"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("q,pdf\n")
    assert out.count("\n") == 65


def test_collective_pdf_table_computes_no_statistics(monkeypatch, capsys):
    # the CSV run prints only the q,pdf table; the statistics' second momentum
    # quadrature and mode search would be work it never shows
    def refuse(*args, **kwargs):
        raise AssertionError("collective_pointer_stats ran for a q,pdf table")

    monkeypatch.setattr(collective, "collective_pointer_stats", refuse)
    code, out, err = run_cli(["collective", *_FUZZ_BASE["collective"], "--format", "csv",
                              "--pdf-points", "64"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("q,pdf\n")
    assert out.count("\n") == 65
