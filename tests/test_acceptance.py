"""Acceptance suite: every headline claim at its stated tolerance.

Each test runs the corresponding self-check from ``weakmeas.verify`` (the
same code the CLI ``verify`` command executes), prints one pass/fail line,
and additionally pins the key numbers with direct assertions so a defect in
the check implementation cannot silently pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import subprocess
import sys
from math import sqrt

import jsonschema
import numpy as np
import pytest

from weakmeas import collective, hardy, pointer, prepost, verify
from weakmeas.cli import result_schema

EXPECTED = {
    "N_minus_O": 1.0,
    "N_plus_O": 1.0,
    "N_minus_NO": 0.0,
    "N_plus_NO": 0.0,
    "N_pair_O_O": 0.0,
    "N_pair_O_NO": 1.0,
    "N_pair_NO_O": 1.0,
    "N_pair_NO_NO": -1.0,
}


def report(criterion: int) -> verify.CheckResult:
    result = verify.run_check(criterion)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {criterion:2d} {result.name}: {result.detail} "
          f"({result.elapsed_ms:.0f} ms)")
    return result


def test_criterion_01_weak_value_table(scenario):
    result = report(1)
    table = hardy.weak_value_table(scenario)
    for name, expected in EXPECTED.items():
        assert table[name] == pytest.approx(expected, abs=1e-12), name
    assert result.passed


def test_criterion_02_postselection_probability(scenario):
    result = report(2)
    assert prepost.postselection_probability(scenario.ensemble) == pytest.approx(
        1.0 / 12.0, abs=1e-12)
    assert result.passed


def test_criterion_03_abl_distribution(scenario):
    result = report(3)
    dist = prepost.abl_probabilities(
        scenario.observable("N_pair_NO_NO"), scenario.ensemble)
    assert dict(dist.entries)[0.0] == pytest.approx(0.8, abs=1e-12)
    assert dict(dist.entries)[1.0] == pytest.approx(0.2, abs=1e-12)
    for name in EXPECTED:
        if name == "N_pair_NO_NO":
            continue
        eig = prepost.certainty_check(scenario.observable(name), scenario.ensemble)
        assert eig is not None, name
        assert eig == pytest.approx(EXPECTED[name], abs=1e-10)
    assert result.passed


def test_criterion_04_identity_chain(chain):
    result = report(4)
    for name, expected in EXPECTED.items():
        assert chain["derived"][name] == pytest.approx(expected, abs=1e-12)
    assert chain["appendix"] == pytest.approx(-1.0, abs=1e-12)
    assert result.passed


def test_criterion_05_additivity():
    result = report(5)
    assert result.passed, result.detail


def test_criterion_06_weak_limit_convergence(scenario):
    result = report(6)
    errs = []
    for g in (0.1, 0.05, 0.01):
        spec = pointer.CouplingSpec(scenario.observable("N_pair_NO_NO"), g=g, delta=1.0)
        errs.append(abs(pointer.position_mean(
            pointer.mixture(scenario.ensemble, spec)) / g + 1.0))
    consts = [e / g**2 for e, g in zip(errs, (0.1, 0.05, 0.01))]
    assert max(consts) / min(consts) <= 2.0
    assert errs[-1] < 1e-3
    assert result.passed


def test_criterion_07_strong_limit(scenario):
    result = report(7)
    spec = pointer.CouplingSpec(scenario.observable("N_pair_NO_NO"), g=20.0, delta=1.0)
    m = pointer.mixture(scenario.ensemble, spec)
    assert pointer.window_mass(m, -2.0, 2.0) == pytest.approx(0.8, abs=1e-3)
    assert pointer.window_mass(m, 18.0, 22.0) == pytest.approx(0.2, abs=1e-3)
    assert result.passed


def test_criterion_08_monte_carlo(scenario):
    result = report(8)
    spec = pointer.CouplingSpec(scenario.observable("N_minus_O"), g=0.05, delta=1.0)
    m = pointer.mixture(scenario.ensemble, spec)
    one = pointer.sample(m, 1000, seed=verify.MC_SEED)
    two = pointer.sample(m, 1000, seed=verify.MC_SEED)
    assert one.readings.tobytes() == two.readings.tobytes()
    assert result.passed, result.detail


def test_criterion_09_simultaneous(scenario):
    result = report(9)
    g = 0.01
    specs = [pointer.CouplingSpec(scenario.observable(n), g=g, delta=1.0)
             for n in hardy.OBSERVABLE_ORDER]
    means = pointer.simultaneous(scenario.ensemble, specs)
    for name, mean in zip(hardy.OBSERVABLE_ORDER, means):
        assert mean / g == pytest.approx(EXPECTED[name], abs=1e-2), name
    assert result.passed, result.detail


def test_criterion_10_collective(scenario):
    result = report(10)
    n = 25
    spec = collective.CollectiveSpec(
        scenario.ensemble, scenario.observable("N_pair_NO_NO"),
        n_pairs=n, g=1.0, delta=5.0 * sqrt(n))
    stats = collective.collective_pointer_stats(spec)
    assert abs(stats.mean + n) <= sqrt(n)
    assert stats.mode < 0.0
    a0, a1 = spec.observable.eigenvalues
    assert np.all(spec.g * (n * a0 + (a1 - a0) * np.arange(n + 1)) >= 0.0)
    assert result.passed, result.detail


def test_criterion_11_non_multiplicativity(scenario):
    result = report(11)
    pair = prepost.weak_value(scenario.observable("N_pair_NO_NO"), scenario.ensemble)
    singles = (prepost.weak_value(scenario.observable("N_plus_NO"), scenario.ensemble).value
               * prepost.weak_value(scenario.observable("N_minus_NO"), scenario.ensemble).value)
    assert pair.value == pytest.approx(-1.0, abs=1e-12)
    assert singles == pytest.approx(0.0, abs=1e-12)
    assert pair.value != singles
    assert result.passed


class TestCriterion12CliContract:
    def cli(self, *args, **kwargs):
        return subprocess.run([sys.executable, "-m", "weakmeas.cli", *args],
                              capture_output=True, text=True, **kwargs)

    def test_verify_runs_clean(self):
        proc = self.cli("verify")
        print("[PASS] criterion 12 cli_verify: exit 0 with all checks green"
              if proc.returncode == 0 else
              f"[FAIL] criterion 12 cli_verify: exit {proc.returncode}")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, result_schema())
        assert all(entry["passed"] for entry in doc["results"].values())

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value pair\n")
        proc = self.cli("hardy-table", "--config", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")

    def test_degenerate_ensemble_exits_3(self):
        proc = self.cli("abl", "--postselect", "oo")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: computation:")

    def test_emitted_documents_validate(self):
        schema = result_schema()
        for args in (["hardy-table"], ["detector-stats"],
                     ["abl", "--observable", "N_pair_NO_NO"],
                     ["weak-measure", "--observable", "N_minus_O",
                      "--trials", "1000", "--seed", "5"],
                     ["simultaneous"],
                     ["collective", "--n-pairs", "4", "--g", "0.05"]):
            proc = self.cli(*args)
            assert proc.returncode == 0, (args, proc.stderr)
            jsonschema.validate(json.loads(proc.stdout), schema)
