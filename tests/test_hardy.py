"""The canonical double-interferometer scenario and its quantitative claims."""

import dataclasses

import numpy as np
import pytest
from spectral_oracle import diagonal, identity, op_tensor, projector

from weakmeas import hardy
from weakmeas.errors import DegenerateEnsembleError
from weakmeas.prepost import PrePostEnsemble, abl_probabilities, certainty_check, weak_value
from weakmeas.qcore import StateVector, tensor

SQRT3 = np.sqrt(3.0)

EXPECTED_TABLE = {
    "N_minus_O": 1.0,
    "N_plus_O": 1.0,
    "N_minus_NO": 0.0,
    "N_plus_NO": 0.0,
    "N_pair_O_O": 0.0,
    "N_pair_O_NO": 1.0,
    "N_pair_NO_O": 1.0,
    "N_pair_NO_NO": -1.0,
}


class TestBuild:
    def test_preselected_amplitudes(self, scenario):
        # the product basis, positron arm more significant
        assert [f"{p}·{e}" for p in hardy.ARMS for e in hardy.ARMS] == [
            "NO·NO", "NO·O", "O·NO", "O·O"]
        assert scenario.ensemble.pre.dim == 4
        np.testing.assert_allclose(
            scenario.ensemble.pre.amplitudes,
            np.array([1, 1, 1, 0]) / SQRT3, atol=1e-15)

    def test_annihilated_branch_removed(self, scenario):
        assert scenario.ensemble.pre.amplitudes[3] == 0.0  # O·O, last in the basis

    def test_postselected_amplitudes(self, scenario):
        np.testing.assert_allclose(
            scenario.ensemble.post.amplitudes,
            np.array([1, -1, -1, 1]) / 2.0, atol=1e-15)

    def test_postselection_probability(self, scenario):
        from weakmeas.prepost import postselection_probability
        assert postselection_probability(scenario.ensemble) == pytest.approx(
            1.0 / 12.0, abs=1e-12)

    def test_observables_diagonal_binary(self, scenario):
        for name, obs in scenario.observables.items():
            diag = np.diag(obs.matrix).real
            np.testing.assert_allclose(obs.matrix, np.diag(diag), atol=1e-15)
            assert set(np.round(diag).astype(int)) <= {0, 1}, name

    def test_observables_are_read_only(self):
        # a fresh scenario: the session fixture must not see a write that sticks
        scenario = hardy.build()
        with pytest.raises(TypeError):
            scenario.observables["N_minus_O"] = scenario.observable("N_plus_O")
        assert list(scenario.observables) == list(hardy.OBSERVABLE_ORDER)
        # a replaced mapping is copied, and read-only too
        given = dict(scenario.observables)
        replaced = dataclasses.replace(scenario, observables=given)
        given["N_minus_O"] = scenario.observable("N_plus_O")
        assert replaced.observable("N_minus_O") is scenario.observable("N_minus_O")
        with pytest.raises(TypeError):
            replaced.observables["N_minus_O"] = scenario.observable("N_plus_O")

    def test_pairs_are_products_of_singles(self, scenario):
        for p_arm in ("NO", "O"):
            for e_arm in ("NO", "O"):
                prod = (scenario.observable(f"N_plus_{p_arm}").matrix
                        @ scenario.observable(f"N_minus_{e_arm}").matrix)
                np.testing.assert_allclose(
                    scenario.observable(f"N_pair_{p_arm}_{e_arm}").matrix, prod, atol=1e-15)

    def test_observables_match_the_tensor_construction(self, scenario):
        # the singles as identity (x) arm projector, the pairs as the diagonal
        # of the singles' products: the same bytes as the arm-table build
        arm = {a: StateVector(np.eye(2, dtype=complex)[k])
               for k, a in enumerate(hardy.ARMS)}
        ident = identity(2)
        oracle = {}
        for a in hardy.ARMS:
            oracle[f"N_minus_{a}"] = op_tensor(ident, projector(arm[a]))
            oracle[f"N_plus_{a}"] = op_tensor(projector(arm[a]), ident)
        for p_arm in hardy.ARMS:
            for e_arm in hardy.ARMS:
                prod = oracle[f"N_plus_{p_arm}"].matrix @ oracle[f"N_minus_{e_arm}"].matrix
                oracle[f"N_pair_{p_arm}_{e_arm}"] = diagonal(np.real(np.diag(prod)))
        assert list(scenario.observables) == list(hardy.OBSERVABLE_ORDER)
        for name in hardy.OBSERVABLE_ORDER:
            got, want = scenario.observable(name), oracle[name]
            assert got.matrix.tobytes() == want.matrix.tobytes(), name
            assert np.array(got.eigenvalues).tobytes() == np.array(want.eigenvalues).tobytes()
            assert len(got.projectors) == len(want.projectors), name
            for p, q in zip(got.projectors, want.projectors):
                assert p.tobytes() == q.tobytes(), name

    def test_unknown_observable_raises(self, scenario):
        with pytest.raises(KeyError, match="valid names"):
            scenario.observable("N_typo")


class TestWeakValueTable:
    def test_all_eight_values(self, scenario):
        table = hardy.weak_value_table(scenario)
        for name, expected in EXPECTED_TABLE.items():
            assert table[name] == pytest.approx(expected, abs=1e-12), name

    def test_values_are_real(self, scenario):
        table = hardy.weak_value_table(scenario)
        assert all(abs(v.imag) <= 1e-12 for v in table.values())

    def test_pair_value_escapes_spectrum(self, scenario):
        pair = hardy.weak_value_table(scenario)["N_pair_NO_NO"].real
        eigs = scenario.observable("N_pair_NO_NO").eigenvalues
        assert pair < min(eigs) - 0.5

    def test_non_multiplicativity(self, scenario):
        ens = scenario.ensemble
        pair = weak_value(scenario.observable("N_pair_NO_NO"), ens).value
        prod = (weak_value(scenario.observable("N_plus_NO"), ens).value
                * weak_value(scenario.observable("N_minus_NO"), ens).value)
        assert pair == pytest.approx(-1.0, abs=1e-12)
        assert prod == pytest.approx(0.0, abs=1e-12)
        assert abs(pair - prod) > 0.5


class TestIdealMeasurements:
    def test_pair_no_no_odds(self, scenario):
        dist = abl_probabilities(scenario.observable("N_pair_NO_NO"), scenario.ensemble)
        assert dict(dist.entries)[0.0] == pytest.approx(0.8, abs=1e-12)
        assert dict(dist.entries)[1.0] == pytest.approx(0.2, abs=1e-12)

    def test_electron_always_in_overlapping_arm(self, scenario):
        dist = abl_probabilities(scenario.observable("N_minus_O"), scenario.ensemble)
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_no_pair_in_overlapping_arms(self, scenario):
        dist = abl_probabilities(scenario.observable("N_pair_O_O"), scenario.ensemble)
        assert dict(dist.entries)[0.0] == pytest.approx(1.0, abs=1e-12)

    def test_seven_certain_at_their_weak_values(self, scenario, chain):
        assert certainty_check(scenario.observable("N_pair_NO_NO"), scenario.ensemble) is None
        assert list(chain["certain"]) == [n for n in hardy.OBSERVABLE_ORDER
                                          if n != "N_pair_NO_NO"]
        assert None not in chain["certain"].values()
        # rule (a) end to end: every certainty equals the weak value
        table = {k: v.real for k, v in hardy.weak_value_table(scenario).items()}
        for name, eig in chain["certain"].items():
            assert eig == pytest.approx(table[name], abs=1e-10)


class TestIdentityChain:
    def test_identities_hold_at_matrix_level(self, scenario):
        m = {name: obs.matrix for name, obs in scenario.observables.items()}
        one = np.eye(4)
        residuals = [m["N_minus_O"] + m["N_minus_NO"] - one,
                     m["N_plus_O"] + m["N_plus_NO"] - one,
                     sum(m[f"N_pair_{p}_{e}"] for p in hardy.ARMS for e in hardy.ARMS) - one]
        for arm in hardy.ARMS:
            residuals.append(m[f"N_minus_{arm}"] - m[f"N_pair_O_{arm}"] - m[f"N_pair_NO_{arm}"])
            residuals.append(m[f"N_plus_{arm}"] - m[f"N_pair_{arm}_O"] - m[f"N_pair_{arm}_NO"])
        assert len(residuals) == 7
        assert max(np.abs(r).max() for r in residuals) <= 1e-12

    def test_rederivation_matches_direct_table(self, scenario, chain):
        assert chain["anchors"] == {"N_minus_O": 1.0, "N_plus_O": 1.0, "N_pair_O_O": 0.0}
        table = {k: v.real for k, v in hardy.weak_value_table(scenario).items()}
        for name, expected in EXPECTED_TABLE.items():
            assert chain["derived"][name] == pytest.approx(expected, abs=1e-12)
            assert chain["derived"][name] == pytest.approx(table[name], abs=1e-12)

    def test_appendix_route(self, scenario, chain):
        assert len(chain["certain"]) == 7
        assert chain["appendix"] == pytest.approx(-1.0, abs=1e-12)
        table = {k: v.real for k, v in hardy.weak_value_table(scenario).items()}
        assert chain["appendix"] == pytest.approx(table["N_pair_NO_NO"], abs=1e-12)

    def test_electron_bookkeeping(self, chain):
        # one positive and one negative pair cancel in the non-overlapping arm
        total = chain["derived"]["N_pair_O_NO"] + chain["derived"]["N_pair_NO_NO"]
        assert total == pytest.approx(chain["derived"]["N_minus_NO"], abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)


class TestDetectorStatistics:
    def test_annihilation_probability(self, scenario):
        stats = hardy.detector_statistics(scenario)
        assert stats["annihilation"] == pytest.approx(0.25, abs=1e-12)

    def test_dark_coincidence_conditional(self, scenario):
        stats = hardy.detector_statistics(scenario)
        assert stats["D_plus_D_minus_given_no_annihilation"] == pytest.approx(
            1.0 / 12.0, abs=1e-12)

    def test_distribution_sums_to_one(self, scenario):
        stats = hardy.detector_statistics(scenario)
        del stats["D_plus_D_minus_given_no_annihilation"]
        values = stats.values()
        assert all(v >= 0.0 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

    def test_without_interaction_dark_pair_never_fires(self, scenario):
        stats = hardy.detector_statistics(scenario, interaction=False)
        assert stats["annihilation"] == 0.0
        assert stats["D_plus_D_minus"] == pytest.approx(0.0, abs=1e-12)
        assert stats["C_plus_C_minus"] == pytest.approx(1.0, abs=1e-12)


class TestPostselectionVariants:
    def test_annihilation_branch_is_degenerate(self, scenario):
        variants = hardy.postselection_variants()
        with pytest.raises(DegenerateEnsembleError):
            PrePostEnsemble(scenario.ensemble.pre, variants["O_O"])

    def test_detector_variants_are_valid_ensembles(self, scenario):
        variants = hardy.postselection_variants()
        for key in ("D_plus_D_minus", "C_plus_C_minus", "C_plus_D_minus", "D_plus_C_minus"):
            ens = PrePostEnsemble(scenario.ensemble.pre, variants[key])
            assert abs(ens.overlap) > 0.1

    def test_states_are_the_port_products(self):
        c = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
        d = StateVector(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0))
        o = StateVector(np.array([0.0, 1.0], dtype=complex))
        expected = {"C_plus_C_minus": tensor(c, c), "C_plus_D_minus": tensor(c, d),
                    "D_plus_C_minus": tensor(d, c), "D_plus_D_minus": tensor(d, d),
                    "O_O": tensor(o, o)}
        variants = hardy.postselection_variants()
        assert sorted(variants) == sorted(expected)
        for key, state in expected.items():
            assert variants[key].dim == state.dim
            assert variants[key].amplitudes.tobytes() == state.amplitudes.tobytes(), key
