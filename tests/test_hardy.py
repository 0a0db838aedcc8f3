"""The canonical double-interferometer scenario and its quantitative claims."""

import numpy as np
import pytest
from spectral_oracle import diagonal, identity, op_tensor, projector

from weakmeas import hardy
from weakmeas.errors import DegenerateEnsembleError
from weakmeas.prepost import PrePostEnsemble, abl_probabilities, weak_value
from weakmeas.qcore import Observable, StateVector, tensor

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
        assert scenario.preselected.labels == ("NO·NO", "NO·O", "O·NO", "O·O")
        np.testing.assert_allclose(
            scenario.preselected.amplitudes,
            np.array([1, 1, 1, 0]) / SQRT3, atol=1e-15)

    def test_annihilated_branch_removed(self, scenario):
        assert scenario.preselected.amplitude("O·O") == 0.0

    def test_postselected_amplitudes(self, scenario):
        np.testing.assert_allclose(
            scenario.postselected.amplitudes,
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
        arm = {a: StateVector(np.eye(2, dtype=complex)[k], hardy.ARMS)
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
    def test_nan_imaginary_part_rejected(self):
        with pytest.raises(ValueError, match="imaginary part"):
            hardy.WeakValueTable({"a": complex(0.0, float("nan"))})

    def test_all_eight_values(self, scenario):
        table = hardy.weak_value_table(scenario)
        for name, expected in EXPECTED_TABLE.items():
            assert table.entries[name] == pytest.approx(expected, abs=1e-12), name

    def test_values_are_real(self, scenario):
        table = hardy.weak_value_table(scenario)
        assert all(abs(v.imag) <= 1e-12 for v in table.entries.values())

    def test_pair_value_escapes_spectrum(self, scenario):
        pair = hardy.weak_value_table(scenario).entries["N_pair_NO_NO"].real
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
        assert dist.probability(0.0) == pytest.approx(0.8, abs=1e-12)
        assert dist.probability(1.0) == pytest.approx(0.2, abs=1e-12)

    def test_electron_always_in_overlapping_arm(self, scenario):
        dist = abl_probabilities(scenario.observable("N_minus_O"), scenario.ensemble)
        assert dist.probability(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_pair_in_overlapping_arms(self, scenario):
        dist = abl_probabilities(scenario.observable("N_pair_O_O"), scenario.ensemble)
        assert dist.probability(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_facts_report(self, scenario):
        report = hardy.ideal_measurement_facts(scenario)
        assert report.certainties["N_pair_NO_NO"] is None
        certain = {name: eig for name, eig in report.certainties.items()
                   if eig is not None}
        assert len(certain) == 7
        # rule (a) end to end: every certainty equals the weak value
        table = hardy.weak_value_table(scenario).real_values()
        for name, eig in certain.items():
            assert eig == pytest.approx(table[name], abs=1e-10)


class TestIdentityChain:
    def test_identities_hold_at_matrix_level(self, scenario):
        report = hardy.identity_chain(scenario)
        assert max(report.identity_residuals.values()) <= 1e-12

    def test_rederivation_matches_direct_table(self, scenario):
        report = hardy.identity_chain(scenario)
        assert report.anchors == {"N_minus_O": 1.0, "N_plus_O": 1.0, "N_pair_O_O": 0.0}
        for name, expected in EXPECTED_TABLE.items():
            assert report.derived[name] == pytest.approx(expected, abs=1e-12)
        assert report.max_table_deviation <= 1e-12

    def test_appendix_route(self, scenario):
        report = hardy.identity_chain(scenario)
        assert len(report.appendix_inputs) == 7
        assert report.appendix_pair_value == pytest.approx(-1.0, abs=1e-12)

    def test_nan_table_entry_raises(self, scenario, monkeypatch):
        # a NaN entry past the first must not vanish from the deviation
        entries = dict(hardy.weak_value_table(scenario).entries)
        entries[hardy.OBSERVABLE_ORDER[1]] = complex(float("nan"), 0.0)
        monkeypatch.setattr(hardy, "weak_value_table",
                            lambda s: hardy.WeakValueTable(entries))
        with pytest.raises(AssertionError, match="deviates"):
            hardy.identity_chain(scenario)

    def test_electron_bookkeeping(self, scenario):
        # one positive and one negative pair cancel in the non-overlapping arm
        report = hardy.identity_chain(scenario)
        total = report.derived["N_pair_O_NO"] + report.derived["N_pair_NO_NO"]
        assert total == pytest.approx(report.derived["N_minus_NO"], abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)


class TestDetectorStatistics:
    def test_annihilation_probability(self, scenario):
        stats = hardy.detector_statistics(scenario)
        assert stats.annihilation == pytest.approx(0.25, abs=1e-12)

    def test_dark_coincidence_conditional(self, scenario):
        stats = hardy.detector_statistics(scenario)
        assert stats.dark_pair_given_no_annihilation == pytest.approx(
            1.0 / 12.0, abs=1e-12)

    def test_distribution_sums_to_one(self, scenario):
        stats = hardy.detector_statistics(scenario)
        values = stats.distribution().values()
        assert all(v >= 0.0 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

    def test_without_interaction_dark_pair_never_fires(self, scenario):
        stats = hardy.detector_statistics(scenario, interaction=False)
        assert stats.annihilation == 0.0
        assert stats.coincidences["D_plus_D_minus"] == pytest.approx(0.0, abs=1e-12)
        assert stats.coincidences["C_plus_C_minus"] == pytest.approx(1.0, abs=1e-12)


class TestPostselectionVariants:
    def test_annihilation_branch_is_degenerate(self, scenario):
        variants = hardy.postselection_variants()
        with pytest.raises(DegenerateEnsembleError):
            PrePostEnsemble(scenario.preselected, variants["O_O"])

    def test_detector_variants_are_valid_ensembles(self, scenario):
        variants = hardy.postselection_variants()
        for key in ("D_plus_D_minus", "C_plus_C_minus", "C_plus_D_minus", "D_plus_C_minus"):
            ens = PrePostEnsemble(scenario.preselected, variants[key])
            assert abs(ens.overlap) > 0.1

    def test_states_are_the_port_products(self):
        c = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0), hardy.ARMS)
        d = StateVector(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0), hardy.ARMS)
        o = StateVector(np.array([0.0, 1.0], dtype=complex), hardy.ARMS)
        expected = {"C_plus_C_minus": tensor(c, c), "C_plus_D_minus": tensor(c, d),
                    "D_plus_C_minus": tensor(d, c), "D_plus_D_minus": tensor(d, d),
                    "O_O": tensor(o, o)}
        variants = hardy.postselection_variants()
        assert sorted(variants) == sorted(expected)
        for key, state in expected.items():
            assert variants[key].labels == state.labels
            assert variants[key].amplitudes.tobytes() == state.amplitudes.tobytes(), key
