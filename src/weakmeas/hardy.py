"""The double Mach-Zehnder electron/positron scenario.

Two overlapping interferometers, one for a positron (+) and one for an
electron (-).  Each arm is labeled O ("overlapping") or NO
("non-overlapping"); a pair found in the two O arms annihilates, which is
modeled as exact projection of that branch.  Conditioning runs from the
state surviving the annihilation region (pre-selection) to a coincident
click of both dark detectors D+ and D- (post-selection).

The product basis is ordered (positron arm, electron arm) with NO before O,
i.e. (NO·NO, NO·O, O·NO, O·O).  Eight occupation observables are exposed by
name: four single-particle projectors and four pair products,

    N_minus_X  - electron in arm X            N_plus_X  - positron in arm X
    N_pair_X_Y - positron in arm X and electron in arm Y (product operator).

Each is the diagonal observable, read off one arm table, that is 1 exactly
on the arm products its arm condition allows and 0 elsewhere; the eight are
built as one stacked eigensolve, ``Observable._from_matrices``.  Results
are plain dicts; ``verify`` judges every fact about them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import sqrt
from types import MappingProxyType

import numpy as np

from .prepost import PrePostEnsemble, weak_value
from .qcore import Observable, StateVector, inner, tensor

ARMS = ("NO", "O")
_O_O = 3  # of the basis (NO·NO, NO·O, O·NO, O·O), the branch annihilation removes

# every observable as (positron arm, electron arm), None meaning either arm
_ARMS_OF = {
    "N_minus_O": (None, "O"),
    "N_plus_O": ("O", None),
    "N_minus_NO": (None, "NO"),
    "N_plus_NO": ("NO", None),
    "N_pair_O_O": ("O", "O"),
    "N_pair_O_NO": ("O", "NO"),
    "N_pair_NO_O": ("NO", "O"),
    "N_pair_NO_NO": ("NO", "NO"),
}
OBSERVABLE_ORDER = tuple(_ARMS_OF)

# one interferometer's detector ports, C = (|NO> + |O>)/sqrt(2) and
# D = (|NO> - |O>)/sqrt(2), and its overlapping arm |O>
_PORTS = {port: StateVector(np.array([1.0, sign], dtype=complex) / sqrt(2.0))
          for port, sign in (("C", 1.0), ("D", -1.0))}
_ARM_O = StateVector(np.array([0.0, 1.0], dtype=complex))


@dataclass(frozen=True)
class HardyScenario:
    """The initial state, the eight occupation observables and the
    (pre-selected, post-selected) ensemble."""

    initial: StateVector
    observables: Mapping[str, Observable]
    ensemble: PrePostEnsemble

    def __post_init__(self):
        object.__setattr__(self, "observables", MappingProxyType(dict(self.observables)))

    def observable(self, name: str) -> Observable:
        if name not in self.observables:
            raise KeyError(
                f"unknown observable {name!r}; valid names: {', '.join(OBSERVABLE_ORDER)}")
        return self.observables[name]


def build() -> HardyScenario:
    """Construct the canonical scenario.

    The beam-splitter superposition signs are hard-coded: free propagation is
    arranged to add no relative phase between the arms, so each particle
    leaves its first beam splitter in the C port state.
    """
    initial = tensor(_PORTS["C"], _PORTS["C"])

    # pre-selection: project out the annihilated O·O branch and renormalize
    survived = np.array(initial.amplitudes)
    survived[_O_O] = 0.0
    preselected = StateVector(survived).normalized()

    # post-selection: both dark detectors fire
    postselected = tensor(_PORTS["D"], _PORTS["D"])

    # each observable is 1 exactly on the arm products its arms allow
    indicators = [np.diag([float(arm_p in (None, p) and arm_e in (None, e))
                           for p in ARMS for e in ARMS])
                  for arm_p, arm_e in _ARMS_OF.values()]
    observables = dict(zip(_ARMS_OF, Observable._from_matrices(indicators)))

    return HardyScenario(initial, observables, PrePostEnsemble(preselected, postselected))


def weak_value_table(s: HardyScenario) -> dict[str, complex]:
    """All eight weak values straight from the defining ratio, in OBSERVABLE_ORDER."""
    return {name: weak_value(s.observable(name), s.ensemble).value
            for name in OBSERVABLE_ORDER}


def postselection_variants() -> dict[str, StateVector]:
    """Alternative final conditions: detector coincidences plus the O·O branch.

    The O·O branch is orthogonal to the pre-selected state (it is exactly what
    annihilation removed), so selecting it yields a degenerate ensemble.
    """
    variants = {f"{p}_plus_{e}_minus": tensor(_PORTS[p], _PORTS[e])
                for p in _PORTS for e in _PORTS}
    variants["O_O"] = tensor(_ARM_O, _ARM_O)
    return variants


def detector_statistics(s: HardyScenario, interaction: bool = True) -> dict[str, float]:
    """Detector coincidence probabilities from the initial state.

    C detectors project each particle onto (|NO> + |O>)/sqrt(2), D detectors
    onto (|NO> - |O>)/sqrt(2).  With ``interaction`` the O·O branch is removed
    (annihilation) before the detectors; without it the particles never meet
    and the dark coincidence D+D- is forbidden by interference.  Returns
    ``annihilation``, the sorted coincidences, then D+D- given no annihilation.
    """
    amps = np.array(s.initial.amplitudes)
    if interaction:
        annihilation = float(abs(amps[_O_O]) ** 2)
        amps[_O_O] = 0.0
    else:
        annihilation = 0.0
    survivor = StateVector(amps)

    stats = {"annihilation": annihilation}
    stats.update((key, float(abs(inner(state, survivor)) ** 2))
                 for key, state in sorted(postselection_variants().items()) if key != "O_O")
    stats["D_plus_D_minus_given_no_annihilation"] = stats["D_plus_D_minus"] / (1.0 - annihilation)
    return stats
