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
from weakmeas import cli, hardy, pointer, verify
from weakmeas.cli import MAX_PDF_POINTS, build_parser, render_json, result_schema, run
from weakmeas.pointer import MAX_TRIALS


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_pdf_csv(self, capsys):
        code, out, _ = run_cli(
            ["weak-measure", "--observable", "N_minus_O", "--seed", "1",
             "--trials", "10", "--pdf-points", "64", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 64
        assert set(rows[0]) == {"q", "pdf"}

    def test_pdf_rows_span_the_sampling_grid(self, capsys):
        # the rows cover the sampler's window, +-(max|shift| + 10 delta)
        code, out, _ = run_cli(
            ["weak-measure", "--observable", "N_minus_O", "--seed", "1", "--g", "0.2",
             "--delta", "0.5", "--trials", "10", "--pdf-points", "64", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        scenario = hardy.build()
        spec = pointer.CouplingSpec(scenario.observable("N_minus_O"), g=0.2, delta=0.5)
        grid = pointer._sampling_grid(pointer.mixture(scenario.ensemble, spec), 64)
        assert (float(rows[0]["q"]), float(rows[-1]["q"])) == (grid[0], grid[-1])

    @pytest.mark.parametrize("flag", ["--g", "--delta"])
    def test_non_finite_result_exits_3(self, flag, capsys):
        # g = 1e-300 makes the stderr infinite, delta = 1e-300 makes the estimate NaN
        code, out, err = run_cli(["weak-measure", "--observable", "N_pair_NO_NO",
                                  "--seed", "1", "--trials", "1000", flag, "1e-300"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: computation:")
        assert err.count("\n") == 1

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

    def test_oversized_quadrature_exits_3(self, capsys):
        code, out, err = run_cli(["collective", "--n-pairs", "100000000"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: computation: momentum grid")
        assert "above the cap" in err
        assert err.count("\n") == 1


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

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = lots\n")
        code, _, err = run_cli(["hardy-table", "--config", str(cfg)], capsys)
        assert code == 2

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


class TestEntryPoint:
    def test_cold_import_skips_heavy_modules(self):
        # mpmath is a test-only oracle; scipy is imported by the functions that need it
        env = {**os.environ, "PYTHONPATH": str(Path(weakmeas.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, weakmeas.cli; "
             "print([m for m in sys.modules "
             "if m.split('.')[0] in ('mpmath', 'scipy')])"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_HOSTILE = ["0", "-1", "nan", "inf", "1e-300", "1e300"]
_FUZZ_BASE = {
    "weak-measure": ["--observable", "N_pair_NO_NO", "--seed", "1", "--trials", "1000"],
    "simultaneous": [],
    "collective": ["--n-pairs", "4"],
}
_PDF_POINTS = ["1", str(MAX_PDF_POINTS + 1)]
_FUZZ_FLAGS = {
    "weak-measure": {"--g": _HOSTILE, "--delta": _HOSTILE,
                     "--trials": ["0", "-1", str(MAX_TRIALS + 1)], "--seed": ["-1", str(2**64)],
                     "--pdf-points": _PDF_POINTS},
    "simultaneous": {"--g": _HOSTILE, "--delta": _HOSTILE},
    "collective": {"--g": _HOSTILE, "--c": _HOSTILE, "--delta": _HOSTILE,
                   "--n-pairs": ["0", "-1"], "--pdf-points": _PDF_POINTS},
}
_FUZZ_CONFIG = ["g = -1", "delta = nan", "trials = 0"]  # the same rules, from a config file
# out of the domain, so exit exactly 2; 1e-300 and 1e300 are in it and may exit 0 or 3
_OUT_OF_DOMAIN = {"0", "-1", "nan", "inf"}
_ALWAYS_OUT = {"--trials", "--seed", "--n-pairs", "--pdf-points", "--config"}


@pytest.mark.parametrize("argv", [
    [command, *_FUZZ_BASE[command], flag, value]
    for command, flags in _FUZZ_FLAGS.items()
    for flag, values in flags.items()
    for value in values
] + [["weak-measure", "--observable", "N_pair_NO_NO", "--seed", "1", "--config", line]
     for line in _FUZZ_CONFIG], ids=" ".join)
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
    if flag in _ALWAYS_OUT or value in _OUT_OF_DOMAIN:
        name = value.split(" ")[0] if flag == "--config" else flag[2:].replace("-", "_")
        assert code == 2
        assert err.startswith(f"error: config: {name} must be")
    if code == 0:
        jsonschema.validate(json.loads(out, parse_constant=_reject_constant),
                            result_schema())
    else:
        assert out == ""
        assert err.startswith(("error: config:", "error: computation:"))
        assert err.count("\n") == 1
