"""Snapshot of the public surface: a change to it has to edit this file.

The modules are the API, and the package namespace re-exports nothing.
"""

import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakmeas import hardy
from weakmeas.collective import CollectiveSpec, CollectiveStats
from weakmeas.pointer import CouplingSpec, PointerMixture, ReadingSample, WeakEstimate
from weakmeas.prepost import AblDistribution, PrePostEnsemble, WeakValue, certainty_check
from weakmeas.qcore import Observable, StateVector

# each module's public functions and classes: the names it defines that do
# not start with an underscore
PUBLIC_NAMES = {
    "qcore": ["Observable", "StateVector", "inner", "tensor"],
    "prepost": [
        "AblDistribution", "PrePostEnsemble", "WeakValue", "abl_probabilities",
        "branch_amplitudes", "certainty_check", "check_dimensions",
        "postselection_probability", "weak_value",
    ],
    "pointer": [
        "CouplingSpec", "PointerMixture", "ReadingSample", "WeakEstimate",
        "check_coupling", "check_delta", "check_finite_positive", "check_sampling", "estimate",
        "mixture", "position_cdf", "position_mean",
        "position_pdf", "position_variance", "sample", "simultaneous", "window_mass",
    ],
    "collective": [
        "CollectiveSpec", "CollectiveStats", "collective_pointer_stats",
        "collective_weak_value", "density_grid", "success_probability",
    ],
    "hardy": [
        "HardyScenario", "build", "detector_statistics", "postselection_variants",
        "weak_value_table",
    ],
    "verify": [
        "CheckResult", "check_abl_and_certainty", "check_additivity", "check_collective",
        "check_identity_chain", "check_monte_carlo", "check_non_multiplicativity",
        "check_postselection_probability", "check_simultaneous", "check_strong_limit",
        "check_weak_limit_convergence", "check_weak_value_table", "run_check",
    ],
    "cli": ["build_parser", "main", "render_json", "result_schema", "run"],
    "errors": [
        "AllBranchesVanishError", "DegenerateEnsembleError", "DimensionMismatchError",
        "QuadratureError", "UnsupportedConfigurationError", "WeakMeasError",
    ],
}


def field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_module_surface_is_the_snapshot(name):
    module = importlib.import_module(f"weakmeas.{name}")
    defined = sorted(attr for attr, obj in vars(module).items()
                     if getattr(obj, "__module__", None) == module.__name__
                     and not attr.startswith("_"))
    assert defined == PUBLIC_NAMES[name]


def test_every_module_is_snapshotted_and_named():
    # a new module cannot skip the snapshot, the package docstring or the
    # README's Layout section
    package = Path(hardy.__file__).parent
    stems = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    assert sorted(PUBLIC_NAMES) == stems
    docstring = (package / "__init__.py").read_text(encoding="utf-8")
    assert sorted(re.findall(r"^\* ``(\w+)``:", docstring, re.M)) == stems
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1].split("\ntests/", 1)[0]
    assert sorted(re.findall(r"^  (\w+)\.py ", layout, re.M)) == ["__init__", *stems]


def test_package_import_loads_no_module():
    env = {**os.environ, "PYTHONPATH": str(Path(hardy.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weakmeas; "
         "print([m for m in sys.modules "
         "if m.startswith('weakmeas.') or m.split('.')[0] == 'numpy'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_prints_its_comments():
    # each print line's comment is its output; a comment starting with ~ is a
    # Monte Carlo value and is not compared
    readme = Path(__file__).parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    env = {**os.environ, "PYTHONPATH": str(Path(hardy.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", block],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments)
    for comment, line in zip(comments, printed):
        if not comment.startswith("~"):
            assert line == comment


def test_value_type_fields():
    assert field_names(WeakValue) == ("value",)
    assert field_names(Observable) == ("matrix", "eigenvalues", "projectors")
    assert field_names(StateVector) == ("amplitudes",)
    assert field_names(ReadingSample) == ("readings",)
    assert field_names(CollectiveStats) == ("mean", "mode", "spread")
    assert field_names(WeakEstimate) == ("estimate", "stderr")


# every public field, property and method of each value class
@pytest.mark.parametrize("cls, members", [
    (WeakValue, ["value"]),
    (AblDistribution, ["entries"]),
    (CollectiveSpec, ["delta", "ensemble", "g", "in_regime", "n_pairs", "observable"]),
    (PointerMixture, ["coefficients", "delta", "shifts"]),
    (CouplingSpec, ["delta", "g", "is_weak", "observable", "spectral_span"]),
    (ReadingSample, ["readings"]),
    (WeakEstimate, ["estimate", "stderr"]),
    (CollectiveStats, ["mean", "mode", "spread"]),
    (StateVector, ["amplitudes", "dim", "is_normalized", "norm", "normalized"]),
    (Observable, ["dim", "eigenvalues", "from_matrix", "matrix", "projectors"]),
    (PrePostEnsemble, ["dim", "overlap", "post", "pre"]),
    (hardy.HardyScenario, ["ensemble", "initial", "observable", "observables"]),
], ids=["WeakValue", "AblDistribution", "CollectiveSpec", "PointerMixture", "CouplingSpec",
        "ReadingSample", "WeakEstimate", "CollectiveStats", "StateVector", "Observable",
        "PrePostEnsemble", "HardyScenario"])
def test_value_types_hand_out_only_their_fields(cls, members):
    # a member that only returns what its caller already holds is not API
    public = set(field_names(cls)) | {name for name in dir(cls) if not name.startswith("_")}
    assert sorted(public) == members


def test_hardy_scenario_surface():
    assert field_names(hardy.HardyScenario) == ("initial", "observables", "ensemble")
    # private classes count too: HardyScenario is hardy's only class
    classes = [name for name, attr in vars(hardy).items()
               if inspect.isclass(attr) and attr.__module__ == hardy.__name__]
    assert classes == ["HardyScenario"]


def test_certainty_check_has_no_tolerance_knob():
    assert list(inspect.signature(certainty_check).parameters) == ["a", "ens"]


def test_observable_has_one_public_constructor():
    public = tuple(name for name, attr in vars(Observable).items()
                   if isinstance(attr, classmethod) and not name.startswith("_"))
    assert public == ("from_matrix",)


def test_observable_has_no_dataclass_constructor():
    with pytest.raises(TypeError):
        Observable(np.eye(2), (1.0,), (np.eye(2),))


def test_observable_projectors_are_one_read_only_stack():
    projectors = Observable.from_matrix(np.diag([0.0, 1.0])).projectors
    assert isinstance(projectors, np.ndarray)
    assert projectors.shape == (2, 2, 2)
    assert not projectors.flags.writeable
