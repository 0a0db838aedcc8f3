"""Snapshot of the public surface: a change to it has to edit this file."""

import dataclasses
import inspect

import numpy as np
import pytest

import weakmeas
from weakmeas import hardy
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
    assert field_names(weakmeas.StateVector) == ("amplitudes",)
    assert field_names(weakmeas.ReadingSample) == ("readings",)
    assert field_names(weakmeas.CollectiveStats) == ("mean", "mode", "spread")


def test_hardy_scenario_surface():
    assert field_names(hardy.HardyScenario) == ("initial", "observables", "ensemble")
    classes = [name for name, attr in vars(hardy).items()
               if inspect.isclass(attr) and attr.__module__ == hardy.__name__]
    assert classes == ["HardyScenario"]
    functions = sorted(name for name, attr in vars(hardy).items()
                       if inspect.isfunction(attr) and attr.__module__ == hardy.__name__
                       and not name.startswith("_"))
    assert functions == ["build", "detector_statistics", "postselection_variants",
                         "weak_value_table"]


def test_certainty_check_has_no_tolerance_knob():
    assert list(inspect.signature(certainty_check).parameters) == ["a", "ens"]


def test_observable_has_one_public_constructor():
    public = tuple(name for name, attr in vars(weakmeas.Observable).items()
                   if isinstance(attr, classmethod) and not name.startswith("_"))
    assert public == ("from_matrix",)


def test_observable_has_no_dataclass_constructor():
    with pytest.raises(TypeError):
        weakmeas.Observable(np.eye(2), (1.0,), (np.eye(2),))


def test_observable_projectors_are_one_read_only_stack():
    projectors = weakmeas.Observable.from_matrix(np.diag([0.0, 1.0])).projectors
    assert isinstance(projectors, np.ndarray)
    assert projectors.shape == (2, 2, 2)
    assert not projectors.flags.writeable
