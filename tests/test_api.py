"""Snapshot of the public surface: a change to it has to edit this file."""

import dataclasses
import inspect

import weakmeas
from weakmeas.prepost import certainty_check

PUBLIC_NAMES = [
    "AblDistribution",
    "AllBranchesVanishError",
    "CollectiveSpec",
    "CollectiveStats",
    "CouplingSpec",
    "DegenerateEnsembleError",
    "DimensionMismatchError",
    "MOMENTUM_SHIFT_FACTOR",
    "Observable",
    "PointerMixture",
    "PrePostEnsemble",
    "QuadratureError",
    "ReadingSample",
    "StateVector",
    "UnsupportedConfigurationError",
    "WeakEstimate",
    "WeakMeasError",
    "WeakValue",
    "abl_probabilities",
    "branch_amplitudes",
    "certainty_check",
    "collective_pointer_stats",
    "collective_weak_value",
    "estimate",
    "inner",
    "mixture",
    "momentum_mean",
    "position_cdf",
    "position_mean",
    "position_pdf",
    "position_variance",
    "postselection_probability",
    "sample",
    "simultaneous",
    "success_probability",
    "tensor",
    "weak_value",
    "window_mass",
]


def field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def test_all_is_the_snapshot():
    assert sorted(weakmeas.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in weakmeas.__all__:
        assert hasattr(weakmeas, name), name


def test_value_type_fields():
    assert field_names(weakmeas.WeakValue) == ("value",)
    assert field_names(weakmeas.Observable) == ("matrix", "eigenvalues", "projectors")


def test_certainty_check_has_no_tolerance_knob():
    assert list(inspect.signature(certainty_check).parameters) == ["a", "ens"]


def test_observable_has_one_public_constructor():
    public = tuple(name for name, attr in vars(weakmeas.Observable).items()
                   if isinstance(attr, classmethod) and not name.startswith("_"))
    assert public == ("from_matrix",)


def test_abl_probability_has_no_tolerance_knob():
    params = inspect.signature(weakmeas.AblDistribution.probability).parameters
    assert list(params) == ["self", "eigenvalue"]
