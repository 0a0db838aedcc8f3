"""``verify`` internals: its numpy KS test, its batched criterion 5, the
failure branches of criteria 2, 3 and 4 and its worst-case folds.

``verify`` computes the KS statistic and its p-value itself so that it never
imports scipy; ``scipy.stats.kstest`` and ``kstwo`` stay here as the
oracle.  Criterion 5 builds its observables in stacks; the per-triple loop
it replaced stays here as the oracle.  A NaN anywhere in a check's worst-case
fold must fail the check.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from spectral_oracle import observable, pairwise_from_matrix

import weakmeas
from weakmeas import collective, hardy, pointer, prepost, verify
from weakmeas.qcore import Observable, StateVector

N = 100_000  # criterion 8's sample size


@pytest.mark.parametrize("name", hardy.OBSERVABLE_ORDER)
def test_criterion_8_samples_match_kstest(scenario, name):
    m = pointer.mixture(scenario.ensemble,
                        pointer.CouplingSpec(scenario.observable(name), g=0.05, delta=1.0))
    readings = pointer.sample(m, N, seed=verify.MC_SEED).readings
    ks = stats.kstest(readings, lambda x: pointer.position_cdf(m, x))
    d = verify._ks_statistic(pointer.position_cdf(m, np.sort(readings)))
    assert d == ks.statistic
    assert abs(verify._ks_pvalue(N, d) - ks.pvalue) <= 1e-15


# kstwo.sf takes about 0.1 s a point above n d^2 = 2.2 (its smirnov sum), so
# that side of the grid is coarser
@pytest.mark.parametrize("z", np.concatenate([np.arange(0.3, 1.48, 0.01),
                                              np.linspace(1.5, 6.0, 10)]))
def test_pvalue_matches_kstwo(z):
    d = float(z / np.sqrt(N))
    p = verify._ks_pvalue(N, d)
    ref = float(stats.kstwo.sf(d, N))
    # scipy uses the same Pelz-Good expansion below n d^2 = 2.2, 2 smirnov above
    assert abs(p - ref) <= (1e-15 if N * d * d < 2.2 else 1e-7)


@pytest.mark.parametrize("d, expected", [(0.0, 1.0), (-0.5, 1.0), (1e-9, 1.0), (1e-300, 1.0),
                                         (5e-324, 1.0), (1.0, 0.0), (2.0, 0.0)])
def test_pvalue_edges(d, expected):
    assert verify._ks_pvalue(N, d) == expected


@pytest.mark.parametrize("n", [1, 10, 1000, N, 10**8])
def test_pvalue_is_a_probability(n):
    for d in np.geomspace(1e-7, 0.999, 400):
        assert 0.0 <= verify._ks_pvalue(n, float(d)) <= 1.0


def additivity_loop() -> list[float]:
    """Criterion 5 one triple at a time, each observable from the original from_matrix."""
    rng = np.random.default_rng(verify.ADDITIVITY_SEED)
    errs = []
    for _ in range(verify.ADDITIVITY_TRIALS):
        dim = int(rng.integers(2, 7))
        ens = verify._random_ensemble(rng, dim)
        a = observable(*pairwise_from_matrix(verify._random_hermitian(rng, dim)))
        b = observable(*pairwise_from_matrix(verify._random_hermitian(rng, dim)))
        ab = observable(*pairwise_from_matrix(a.matrix + b.matrix))
        lhs = prepost.weak_value(ab, ens).value
        rhs = prepost.weak_value(a, ens).value + prepost.weak_value(b, ens).value
        errs.append(abs(lhs - rhs))
    return errs


def test_additivity_differences_match_the_per_triple_loop(monkeypatch):
    folded = []
    real = verify._worst

    def capture(values, fold=np.max):
        folded.append(list(values))
        return real(folded[-1], fold)

    monkeypatch.setattr(verify, "_worst", capture)
    passed, detail = verify.check_additivity()
    expected = additivity_loop()
    assert len(folded) == 1 and len(expected) == verify.ADDITIVITY_TRIALS
    assert np.array(folded[0]).tobytes() == np.array(expected).tobytes()
    assert passed
    assert detail == f"1000 random triples, worst |(A+B)_w - A_w - B_w| = {max(expected):.2e}"


def test_verify_never_imports_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(weakmeas.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weakmeas.verify as v; "
         "assert all(v.run_check(num).passed for num, _, _ in v.CHECKS); "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


NAN = math.nan


@pytest.mark.parametrize("criterion, module, name, calls, poison", [
    # the imaginary part of the second entry of the table
    (1, hardy, "weak_value_table", {1},
     lambda out: {**out, hardy.OBSERVABLE_ORDER[1]: complex(0.0, NAN)}),
    # the certainty of the first of the seven, after the NO·NO pair's
    (3, prepost, "certainty_check", {2}, lambda out: NAN),
    # the second entry of the direct table
    (4, hardy, "weak_value_table", {1},
     lambda out: {**out, hardy.OBSERVABLE_ORDER[1]: complex(NAN, 0.0)}),
    # the second random triple's (A+B)_w
    (5, prepost, "weak_value", {4}, lambda out: prepost.WeakValue(complex(NAN, 0.0))),
    # every coupling of the second observable
    (6, pointer, "position_mean", {4, 5, 6}, lambda out: NAN),
    # the second window mass
    (7, pointer, "window_mass", {2}, lambda out: NAN),
    # the second observable's estimate, then its KS p-value
    (8, pointer, "estimate", {2}, lambda out: pointer.WeakEstimate(NAN, out.stderr)),
    (8, verify, "_ks_pvalue", {2}, lambda out: NAN),
    # the second Hardy pointer of the joint measurement
    (9, pointer, "simultaneous", {1}, lambda out: [out[0], NAN, *out[2:]]),
    # the N = 100 collective mean
    (10, collective, "collective_pointer_stats", {2},
     lambda out: collective.CollectiveStats(NAN, out.mode, out.spread)),
], ids=["c1-weak_value_table", "c3-certainty_check", "c4-weak_value_table", "c5-weak_value",
        "c6-position_mean",
        "c7-window_mass", "c8-estimate", "c8-ks_pvalue", "c9-simultaneous",
        "c10-collective_mean"])
def test_nan_in_second_item_fails_the_check(monkeypatch, criterion, module, name, calls,
                                            poison):
    real = getattr(module, name)
    count = itertools.count(1)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return poison(out) if next(count) in calls else out

    monkeypatch.setattr(module, name, patched)
    result = verify.run_check(criterion)
    assert not result.passed, result.detail
    assert "nan" in result.detail


@pytest.mark.parametrize("name, value, criterion, detail", [
    ("N_minus_O", None, 3, "N_minus_O not certain"),
    # criterion 3 judges the certainty; criterion 4 reads the missing one as NaN
    ("N_minus_O", None, 4, "derived table deviates from the direct one by nan"),
    ("N_pair_NO_NO", 0.0, 3, "N_pair_NO_NO certain"),
])
def test_certainty_failures_fail_the_chain(monkeypatch, scenario, name, value, criterion,
                                           detail):
    real = prepost.certainty_check
    target = scenario.observable(name).matrix

    def patched(a, ens):
        return value if np.array_equal(a.matrix, target) else real(a, ens)

    monkeypatch.setattr(prepost, "certainty_check", patched)
    result = verify.run_check(criterion)
    assert not result.passed
    assert result.detail == detail


def test_identity_chain_fails_when_the_direct_table_disagrees(monkeypatch):
    real = hardy.weak_value_table

    def shifted(s):
        table = real(s)
        table["N_pair_NO_NO"] += 1e-9
        return table

    monkeypatch.setattr(hardy, "weak_value_table", shifted)
    result = verify.run_check(4)
    assert not result.passed
    assert result.detail == "derived table deviates from the direct one by 1.00e-09"


def _with_pre_oo(s, amplitude):
    """The scenario with an O·O amplitude left in the pre-selected state."""
    amps = np.array(s.ensemble.pre.amplitudes)
    amps[3] = amplitude  # O·O, last in the product basis
    pre = StateVector(amps).normalized()
    return dataclasses.replace(s, ensemble=prepost.PrePostEnsemble(pre, s.ensemble.post))


def _shift_stat(key, by):
    real = hardy.detector_statistics

    def shifted(s, interaction=True):
        stats = real(s, interaction)
        stats[key] += by
        return stats
    return shifted


@pytest.mark.parametrize("target, patch, detail", [
    ("build", lambda real: lambda: _with_pre_oo(real(), 1e-6),
     "annihilated O·O amplitude 1.00e-06 survived pre-selection"),
    ("detector_statistics", lambda real: _shift_stat("C_plus_C_minus", 1e-9),
     "detector distribution total off 1 by 1.00e-09"),
    ("detector_statistics",
     lambda real: _shift_stat("D_plus_D_minus_given_no_annihilation", 1e-9),
     "D+D- given no annihilation off p by 1.00e-09"),
], ids=["oo-survives", "sum-not-one", "conditional-not-p"])
def test_postselection_check_fails_on_each_detector_fact(monkeypatch, target, patch, detail):
    monkeypatch.setattr(hardy, target, patch(getattr(hardy, target)))
    result = verify.run_check(2)
    assert not result.passed
    assert result.detail == detail


def test_identity_chain_fails_when_a_pair_is_not_a_product(monkeypatch, scenario):
    # N_pair_O_O and N_pair_NO_NO gain +0.5 on O·O, N_pair_O_NO and N_pair_NO_O
    # lose it: the seven sums still hold, and neither the weak values nor the
    # certainties change (the pre-selected state has no O·O amplitude), but no
    # pair is the product of its one-particle operators any more
    bump = np.diag([0.0, 0.0, 0.0, 0.5])
    sign = {"N_pair_O_O": 1.0, "N_pair_NO_NO": 1.0, "N_pair_O_NO": -1.0, "N_pair_NO_O": -1.0}
    observables = {name: (Observable.from_matrix(obs.matrix + sign[name] * bump)
                          if name in sign else obs)
                   for name, obs in scenario.observables.items()}
    broken = dataclasses.replace(scenario, observables=observables)
    monkeypatch.setattr(hardy, "build", lambda: broken)
    result = verify.run_check(4)
    assert not result.passed
    assert result.detail == "derived-table deviation 0.00e+00, identity residual 5.00e-01"
