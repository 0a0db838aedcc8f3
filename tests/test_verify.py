"""The numpy Kolmogorov-Smirnov test of criterion 8 against scipy.stats.

``verify`` computes the KS statistic and its p-value itself so that it never
imports ``scipy.stats``; ``scipy.stats.kstest`` and ``kstwo`` stay here as the
oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import weakmeas
from weakmeas import hardy, pointer, verify

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
