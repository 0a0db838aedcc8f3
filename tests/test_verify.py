"""``verify`` internals: its numpy KS test, its batched criterion 5, the
failure branches of criteria 2, 3, 4 and 10 and its worst-case folds.

``verify`` computes the KS distance itself and judges it against one pinned
1% critical value, so that it never imports scipy; ``scipy.stats.kstest``
stays here as the oracle for the distance and ``kstwo`` for the critical
value and the verdict.  Criterion 5 builds its observables in stacks and
takes its weak values as one stacked product; the per-triple loop it
replaced stays here as the oracle.  Criterion 8 samples each distinct
pointer mixture once; the per-observable loop it replaced stays here as the
oracle.  A NaN anywhere in a check's worst-case fold must fail the check.
"""

import copy
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from spectral_oracle import observable, pairwise_from_matrix

import weakmeas
from weakmeas import collective, hardy, pointer, prepost, verify
from weakmeas.qcore import Observable, StateVector

N = verify.MC_TRIALS  # criterion 8's sample size


@pytest.mark.parametrize("name", hardy.OBSERVABLE_ORDER)
def test_criterion_8_samples_match_kstest(scenario, name):
    m = pointer.mixture(scenario.ensemble,
                        pointer.CouplingSpec(scenario.observable(name), g=0.05, delta=1.0))
    readings = pointer.sample(m, N, seed=verify.MC_SEED).readings
    ks = stats.kstest(readings, lambda x: pointer.position_cdf(m, x))
    d = verify._ks_statistic(pointer.position_cdf(m, np.sort(readings)))
    assert d == ks.statistic
    assert (d < verify.KS_D_CRITICAL) == (ks.pvalue > 0.01)


def test_ks_critical_value_is_kstwos():
    assert verify.KS_D_CRITICAL == pytest.approx(stats.kstwo.isf(0.01, N), rel=1e-9)
    # the 1% level falls between the two sides of the pinned value
    assert stats.kstwo.sf(verify.KS_D_CRITICAL * (1 - 1e-6), N) > 0.01
    assert stats.kstwo.sf(verify.KS_D_CRITICAL * (1 + 1e-6), N) < 0.01


# kstwo.sf takes about 0.1 s a point above n d^2 = 2.2 (its smirnov sum), so
# that side of the grid is coarser; no point lies within 1e-6 of the critical value
@pytest.mark.parametrize("z", np.concatenate([np.arange(0.3, 1.48, 0.01),
                                              np.linspace(1.5, 6.0, 10)]))
def test_verdict_matches_kstwo(z):
    d = float(z / np.sqrt(N))
    assert (d < verify.KS_D_CRITICAL) == (stats.kstwo.sf(d, N) > 0.01)


def _random_ensemble(rng: np.random.Generator, dim: int) -> prepost.PrePostEnsemble:
    while True:
        pre = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        post = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pre = StateVector(pre / np.linalg.norm(pre))
        post = StateVector(post / np.linalg.norm(post))
        if abs(np.vdot(post.amplitudes, pre.amplitudes)) > 1e-3:
            return prepost.PrePostEnsemble(pre, post)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def additivity_loop() -> list[float]:
    """Criterion 5 one triple at a time, from its draws one call at a time: each
    ensemble a ``PrePostEnsemble``, each observable from the original from_matrix
    and each weak value from ``prepost.weak_value``."""
    rng = np.random.default_rng(verify.ADDITIVITY_SEED)
    errs = []
    for _ in range(verify.ADDITIVITY_TRIALS):
        dim = int(rng.integers(2, 7))
        ens = _random_ensemble(rng, dim)
        a = observable(*pairwise_from_matrix(_random_hermitian(rng, dim)))
        b = observable(*pairwise_from_matrix(_random_hermitian(rng, dim)))
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


def additivity_dims() -> list[int]:
    """The dimension of each of criterion 5's trials, in draw order."""
    rng = np.random.default_rng(verify.ADDITIVITY_SEED)
    dims = []
    for _ in range(verify.ADDITIVITY_TRIALS):
        dims.append(int(rng.integers(2, 7)))
        _random_ensemble(rng, dims[-1])
        _random_hermitian(rng, dims[-1])
        _random_hermitian(rng, dims[-1])
    return dims


def additivity_batches() -> list[tuple[int, list[int]]]:
    """Criterion 5's stacked builds in order, as (dimension, trials): each
    dimension's trials are cut into batches of ``ADDITIVITY_BATCH`` in draw
    order; a batch is built when its last trial is drawn, then each dimension's
    short last batch, in the order those batches began."""
    open_batches = {}
    batches = []
    for t, dim in enumerate(additivity_dims()):
        open_batches.setdefault(dim, []).append(t)
        if len(open_batches[dim]) == verify.ADDITIVITY_BATCH:
            batches.append((dim, open_batches.pop(dim)))
    return batches + list(open_batches.items())


def monte_carlo_loop() -> tuple[bool, str]:
    """Criterion 8 one observable at a time: a sample, a resample, an estimate
    and a KS distance for each of the eight, repeated mixtures included."""
    sc = hardy.build()
    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
    g, delta, trials = 0.05, 1.0, verify.MC_TRIALS
    pulls = []
    distances = []
    for name in hardy.OBSERVABLE_ORDER:
        spec = pointer.CouplingSpec(sc.observable(name), g=g, delta=delta)
        m = pointer.mixture(sc.ensemble, spec)
        reading = pointer.sample(m, trials, seed=verify.MC_SEED)
        again = pointer.sample(m, trials, seed=verify.MC_SEED)
        if reading.readings.tobytes() != again.readings.tobytes():
            return False, f"{name}: same seed produced different readings"
        est = pointer.estimate(reading, g)
        pulls.append(abs(est.estimate - table[name]) / est.stderr)
        cdfvals = pointer.position_cdf(m, np.sort(reading.readings))
        distances.append(verify._ks_statistic(cdfvals))
    worst_pulls, worst_d = verify._worst(pulls), verify._worst(distances)
    ok = worst_pulls <= 3.0 and worst_d < verify.KS_D_CRITICAL
    root_n = math.sqrt(trials)
    return ok, (f"worst |estimate - A_w|/stderr = {worst_pulls:.2f}; worst KS sqrt(n) D = "
                f"{root_n * worst_d:.3f} (1% critical value {root_n * verify.KS_D_CRITICAL:.3f})")


def test_monte_carlo_matches_the_per_observable_loop():
    result = verify.check_monte_carlo()
    assert result == monte_carlo_loop()
    assert result == (True, "worst |estimate - A_w|/stderr = 1.28; "
                            "worst KS sqrt(n) D = 1.153 (1% critical value 1.627)")


def counting(monkeypatch, target, name):
    """Patch ``target.name`` to count its calls; returns the list of their arguments."""
    real = getattr(target, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    return calls


class _CountedTrials:
    """A generator that counts its ``integers`` calls: criterion 5 makes one
    per trial, to draw its dimension."""

    def __init__(self, seed):
        self.rng, self.trials = np.random.default_rng(seed), 0

    def integers(self, *args):
        self.trials += 1
        return self.rng.integers(*args)

    def standard_normal(self, *args):
        return self.rng.standard_normal(*args)


def test_additivity_builds_two_stacks_per_batch_and_no_per_trial_objects(monkeypatch):
    batches = additivity_batches()
    states = counting(monkeypatch, StateVector, "__post_init__")
    ensembles = counting(monkeypatch, prepost.PrePostEnsemble, "__post_init__")
    weak_values = counting(monkeypatch, prepost, "weak_value")
    rng = _CountedTrials(verify.ADDITIVITY_SEED)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    real = Observable._from_matrices
    stacks = []  # each stack's (matrix count, dimension) and the trials drawn before it

    def counted(mats):
        stacks.append((mats.shape[:2], rng.trials))
        return real(mats)

    monkeypatch.setattr(Observable, "_from_matrices", counted)
    assert verify.check_additivity()[0]
    assert (states, ensembles, weak_values) == ([], [], [])
    # every dimension fills at least one whole batch
    assert {dim for dim, trials in batches
            if len(trials) == verify.ADDITIVITY_BATCH} == set(range(2, 7))
    assert all(len(trials) <= verify.ADDITIVITY_BATCH for _, trials in batches)
    # per batch, in the order the batches fill: its trials' A and B
    # interleaved, then their A + B; a whole batch is built as soon as its
    # last trial is drawn, the short ones after the last trial
    assert stacks == [
        (shape, trials[-1] + 1 if len(trials) == verify.ADDITIVITY_BATCH
         else verify.ADDITIVITY_TRIALS)
        for dim, trials in batches for shape in ((2 * len(trials), dim), (len(trials), dim))]


def test_monte_carlo_samples_each_distinct_mixture_once(monkeypatch):
    samples = counting(monkeypatch, pointer, "sample")
    cdfs = counting(monkeypatch, pointer, "position_cdf")
    estimates = counting(monkeypatch, pointer, "estimate")
    assert verify.check_monte_carlo()[0]
    # eight mixtures at g = 0.05, four of them distinct; each is sampled twice
    assert (len(samples), len(cdfs), len(estimates)) == (8, 4, 4)


def test_monte_carlo_fails_when_a_resample_differs(monkeypatch):
    real = pointer.sample
    count = itertools.count(1)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if next(count) == 2:  # the first resample differs in the last bit of one reading
            readings = out.readings.copy()
            readings[-1] = np.nextafter(readings[-1], np.inf)
            out = pointer.ReadingSample(readings)
        return out

    monkeypatch.setattr(pointer, "sample", patched)
    assert verify.check_monte_carlo() == (
        False, f"{hardy.OBSERVABLE_ORDER[0]}: same seed produced different readings")


@pytest.mark.parametrize("check, bound", [
    # at most one open batch of draws per dimension and one batch's build,
    # near 0.36 MB; with every trial's draws preallocated, zero-padded to
    # dimension 6 (1.35 MB), 1.7 MB; with the draws held as lists of small
    # arrays and each dimension built as one stack, 4.0 MB
    (verify.check_additivity, 0.8e6),
    # a sample while its resample is drawn, near 2.9 MB, then never more
    # than two sample-sized arrays; with the sample, its sorted copy and
    # their CDF values held at once, 3.1 MB, and with tobytes() copies,
    # whole-chunk inversion and the last mixture's arrays held into the next,
    # 6.0 MB
    (verify.check_monte_carlo, 3.3e6),
    # the N = 25, 100, 400 statistics, near 0.55 MB; with the N = 2, 3
    # cross-check built as a 4^N operator, eigensolved and mixed, 1.1 MB
    (verify.check_collective, 0.8e6),
], ids=["c5", "c8", "c10"])
def test_check_working_set(check, bound):
    check()
    tracemalloc.start()
    try:
        assert check()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


def _second_sum() -> tuple[int, int]:
    """Which ``_from_matrices`` call of criterion 5 builds the second trial's
    A + B, counting from 1, and that trial's place in it.  Each batch of
    ``additivity_batches`` is an (A, B) stack, then its A + B stack."""
    batches = additivity_batches()
    i = next(i for i, (_, trials) in enumerate(batches) if 1 in trials)
    return 2 * i + 2, batches[i][1].index(1)


def _replaced(obj, **fields):
    """A copy of a frozen dataclass with ``fields`` set, past its validation."""
    bad = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(bad, name, value)
    return bad


def _nan_matrix(obs: Observable) -> Observable:
    return _replaced(obs, matrix=np.full_like(obs.matrix, NAN))


_SECOND_SUM_CALL, _SECOND_SUM_AT = _second_sum()


@pytest.mark.parametrize("criterion, module, name, calls, poison", [
    # the imaginary part of the second entry of the table
    (1, hardy, "weak_value_table", {1},
     lambda out: {**out, hardy.OBSERVABLE_ORDER[1]: complex(0.0, NAN)}),
    # the certainty of the first of the seven, after the NO·NO pair's
    (3, prepost, "certainty_check", {2}, lambda out: NAN),
    # the NO·NO pair's probability of 1, after the call in its certainty check
    (3, prepost, "abl_probabilities", {2},
     lambda out: _replaced(out, entries=(out.entries[0], (out.entries[1][0], NAN)))),
    # the top probability of the second of the seven, each after the call in its
    # certainty check
    (3, prepost, "abl_probabilities", {6},
     lambda out: _replaced(out, entries=tuple((a, NAN) for a, _ in out.entries))),
    # the second entry of the direct table
    (4, hardy, "weak_value_table", {1},
     lambda out: {**out, hardy.OBSERVABLE_ORDER[1]: complex(NAN, 0.0)}),
    # the second random triple's A + B, out of the stacked build of its batch
    (5, Observable, "_from_matrices", {_SECOND_SUM_CALL},
     lambda out: [*out[:_SECOND_SUM_AT], _nan_matrix(out[_SECOND_SUM_AT]),
                  *out[_SECOND_SUM_AT + 1:]]),
    # every coupling of the second observable
    (6, pointer, "position_mean", {4, 5, 6}, lambda out: NAN),
    # the second window mass
    (7, pointer, "window_mass", {2}, lambda out: NAN),
    # the second distinct mixture's estimate, then its KS distance
    (8, pointer, "estimate", {2}, lambda out: pointer.WeakEstimate(NAN, out.stderr)),
    (8, verify, "_ks_statistic", {2}, lambda out: NAN),
    # the second Hardy pointer of the joint measurement
    (9, pointer, "simultaneous", {1}, lambda out: [out[0], NAN, *out[2:]]),
    # the N = 100 collective mean
    (10, collective, "collective_pointer_stats", {2},
     lambda out: collective.CollectiveStats(NAN, out.mode, out.spread)),
    # the N = 100 collective mode
    (10, collective, "collective_pointer_stats", {2},
     lambda out: collective.CollectiveStats(out.mean, NAN, out.spread)),
    # the NO·NO branch amplitude behind every binomial coefficient of the
    # cross-check; ``collective`` binds its own name, so its statistics are untouched
    (10, prepost, "branch_amplitudes", {1}, lambda out: (out[0], complex(NAN))),
], ids=["c1-weak_value_table", "c3-certainty_check", "c3-pair_odds", "c3-certainty_probability",
        "c4-weak_value_table",
        "c5-from_matrices", "c6-position_mean",
        "c7-window_mass", "c8-estimate", "c8-ks_statistic", "c9-simultaneous",
        "c10-collective_mean", "c10-collective_mode", "c10-brute_force"])
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


def test_unknown_criterion_raises_key_error():
    with pytest.raises(KeyError, match="no criterion 12"):
        verify.run_check(12)


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


def test_collective_fails_when_the_binomial_coefficients_disagree(monkeypatch):
    # alpha_1 off by 1e-6 moves c_1 = 2 alpha_1 alpha_0 at N = 2 by 2 |alpha_0| 1e-6
    real = prepost.branch_amplitudes

    def shifted(a, ens):
        alpha0, alpha1 = real(a, ens)
        return alpha0, alpha1 + 1e-6

    monkeypatch.setattr(prepost, "branch_amplitudes", shifted)
    result = verify.run_check(10)
    assert not result.passed
    assert result.detail == "N=2: brute-force coefficients deviate by 1.15e-06"


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
