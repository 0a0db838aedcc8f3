"""``verify`` internals: its numpy KS test and its worst-case folds.

``verify`` computes the KS statistic and its p-value itself so that it never
imports ``scipy.stats``; ``scipy.stats.kstest`` and ``kstwo`` stay here as the
oracle.  A NaN anywhere in a check's worst-case fold must fail the check.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import weakmeas
from weakmeas import collective, hardy, pointer, prepost, verify

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


def test_verify_never_imports_scipy_stats():
    env = {**os.environ, "PYTHONPATH": str(Path(weakmeas.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weakmeas.verify as v; "
         "assert all(r.passed for r in v.run_all()); "
         "print([m for m in sys.modules if m.startswith('scipy.stats')])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


NAN = math.nan


@pytest.mark.parametrize("criterion, module, name, calls, poison", [
    # the second random triple's (A+B)_w
    (5, prepost, "weak_value", {4}, lambda out: prepost.WeakValue(complex(NAN, 0.0))),
    # every coupling of the second observable
    (6, pointer, "position_mean", {4, 5, 6}, lambda out: NAN),
    # the second window mass
    (7, pointer, "window_mass", {2}, lambda out: NAN),
    # the second observable's estimate, then its KS p-value
    (8, pointer, "estimate", {2}, lambda out: pointer.WeakEstimate(NAN, out.stderr, out.trials)),
    (8, verify, "_ks_pvalue", {2}, lambda out: NAN),
    # the second Hardy pointer of the joint measurement
    (9, pointer, "simultaneous", {1}, lambda out: [out[0], NAN, *out[2:]]),
    # the N = 100 collective mean
    (10, collective, "collective_pointer_stats", {2},
     lambda out: collective.CollectiveStats(NAN, out.mode, out.spread, out.warnings)),
], ids=["c5-weak_value", "c6-position_mean", "c7-window_mass", "c8-estimate",
        "c8-ks_pvalue", "c9-simultaneous", "c10-collective_mean"])
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
