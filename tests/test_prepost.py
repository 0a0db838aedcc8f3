"""Ensembles, weak values, ABL statistics and the two weak-value rules."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from spectral_oracle import diagonal, identity, observable

from weakmeas.errors import DegenerateEnsembleError, DimensionMismatchError
from weakmeas.prepost import (
    AblDistribution,
    PrePostEnsemble,
    abl_probabilities,
    branch_amplitudes,
    certainty_check,
    postselection_probability,
    weak_value,
)
from weakmeas.qcore import Observable, StateVector


def state(*amps) -> StateVector:
    arr = np.array(amps, dtype=complex)
    return StateVector(arr / np.linalg.norm(arr))


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Observable.from_matrix((g + g.conj().T) / 2)


def random_ensemble(rng, dim, min_overlap=1e-3):
    while True:
        pre = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        post = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pre, post = pre / np.linalg.norm(pre), post / np.linalg.norm(post)
        if abs(np.vdot(post, pre)) > min_overlap:
            return PrePostEnsemble(StateVector(pre), StateVector(post))


class TestEnsemble:
    def test_orthogonal_pair_rejected(self):
        with pytest.raises(DegenerateEnsembleError):
            PrePostEnsemble(state(1, 0), state(0, 1))

    def test_near_orthogonal_rejected(self):
        eps = 1e-12
        with pytest.raises(DegenerateEnsembleError):
            PrePostEnsemble(state(1, 0), state(eps, np.sqrt(1 - eps**2)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            PrePostEnsemble(StateVector(np.array([1, 1], dtype=complex)), state(1, 0))

    def test_overlap_cached(self):
        ens = PrePostEnsemble(state(1, 1), state(1, 0))
        assert ens.overlap == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PrePostEnsemble(state(1, 0), state(1, 0, 0))


class TestWeakValue:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(2)
        ens = random_ensemble(rng, 4)
        wv = weak_value(identity(4), ens)
        assert wv.value == pytest.approx(1.0, abs=1e-12)

    def test_equal_selections_reduce_to_expectation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            s = StateVector(amps / np.linalg.norm(amps))
            obs = random_hermitian(rng, dim)
            wv = weak_value(obs, PrePostEnsemble(s, s)).value
            assert abs(wv.imag) < 1e-12
            expectation = np.vdot(s.amplitudes, obs.matrix @ s.amplitudes).real
            assert wv.real == pytest.approx(expectation, abs=1e-12)

    def test_can_escape_spectrum_and_be_complex(self):
        # both selections real but nearly orthogonal: weak value blows past [0, 1]
        theta = 0.05
        ens = PrePostEnsemble(state(1, 1), state(np.sin(theta), -np.cos(theta)))
        wv = weak_value(diagonal([0.0, 1.0]), ens).value
        assert wv.real < 0.0 or wv.real > 1.0
        ens_c = PrePostEnsemble(state(1, 1), state(1, 1j))
        assert abs(weak_value(diagonal([0.0, 1.0]), ens_c).value.imag) > 0.1

    @given(st.integers(0, 2**32 - 1))
    def test_additivity_rule(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        ens = random_ensemble(rng, dim)
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        both = Observable.from_matrix(a.matrix + b.matrix)
        lhs = weak_value(both, ens).value
        rhs = weak_value(a, ens).value + weak_value(b, ens).value
        assert abs(lhs - rhs) < 1e-10

    def test_projector_family_weak_values_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            ens = random_ensemble(rng, dim)
            obs = random_hermitian(rng, dim)
            total = 0.0 + 0.0j
            for p in obs.projectors:
                comp = np.eye(dim, dtype=complex) - p
                wrapped = observable(p, (0.0, 1.0), (comp, p))
                total += weak_value(wrapped, ens).value
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPostselectionProbability:
    def test_equal_states(self):
        s = state(1, 2, 3)
        assert postselection_probability(PrePostEnsemble(s, s)) == pytest.approx(1.0)

    def test_matches_overlap_square(self):
        ens = PrePostEnsemble(state(1, 1), state(1, 0))
        assert postselection_probability(ens) == pytest.approx(0.5, abs=1e-12)


class TestAbl:
    def test_distribution_normalized_and_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            ens = random_ensemble(rng, dim)
            dist = abl_probabilities(random_hermitian(rng, dim), ens)
            probs = [p for _, p in dist.entries]
            assert all(p >= 0.0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_branch_amplitudes_sum_to_overlap(self):
        rng = np.random.default_rng(7)
        ens = random_ensemble(rng, 4)
        obs = random_hermitian(rng, 4)
        assert sum(branch_amplitudes(obs, ens)) == pytest.approx(ens.overlap, abs=1e-12)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            AblDistribution(((0.0, 0.7), (1.0, 0.7)))

    @pytest.mark.parametrize("entries", [((0.0, float("nan")),),
                                         ((0.0, 1.0), (1.0, float("nan")))])
    def test_nan_probability_rejected(self, entries):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            AblDistribution(entries)


class TestCertainty:
    def test_identity_certain(self):
        rng = np.random.default_rng(8)
        ens = random_ensemble(rng, 3)
        assert certainty_check(identity(3), ens) == pytest.approx(1.0)

    def test_eigenstate_preselection_certain(self):
        # pre-selected in an eigenstate: the ideal outcome is forced
        ens = PrePostEnsemble(state(1, 0), state(1, 1))
        obs = diagonal([0.0, 1.0])
        assert certainty_check(obs, ens) == pytest.approx(0.0, abs=1e-12)
        assert weak_value(obs, ens).value == pytest.approx(0.0, abs=1e-12)

    def test_uncertain_returns_none(self):
        ens = PrePostEnsemble(state(1, 1), state(2, 1))
        dist = abl_probabilities(diagonal([0.0, 1.0]), ens)
        assert dict(dist.entries)[0.0] == pytest.approx(0.8, abs=1e-12)
        assert certainty_check(diagonal([0.0, 1.0]), ens) is None

    def test_certainty_within_tolerance_does_not_raise(self):
        # p(1) = 1 - 1e-12 counts as certain, yet the weak value is 0.999999:
        # near-certainty pins the weak value only to about sqrt(tol)
        ens = PrePostEnsemble(state(np.cos(np.pi / 4), np.sin(np.pi / 4)),
                              StateVector(np.array([1e-6, np.sqrt(1.0 - 1e-12)])))
        obs = diagonal([0.0, 1.0])
        assert dict(abl_probabilities(obs, ens).entries)[1.0] == pytest.approx(
            1.0 - 1e-12, abs=1e-15)
        assert certainty_check(obs, ens) == 1.0
        assert weak_value(obs, ens).value == pytest.approx(0.999999, abs=1e-12)

    def test_random_certainty_bearing_ensembles_obey_rule(self):
        # post-selections orthogonal to one branch force the other outcome;
        # the weak value must then sit at that eigenvalue
        rng = np.random.default_rng(9)
        for _ in range(50):
            obs = diagonal([0.0, 1.0, 1.0])
            pre = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pre[0] = rng.standard_normal() + 0.5  # keep overlap with the a=0 branch
            post = np.zeros(3, dtype=complex)
            post[0] = 1.0
            ens = PrePostEnsemble(StateVector(pre / np.linalg.norm(pre)),
                                  StateVector(post))
            eig = certainty_check(obs, ens)
            assert eig == pytest.approx(0.0, abs=1e-12)
            assert weak_value(obs, ens).value == pytest.approx(0.0, abs=1e-10)
