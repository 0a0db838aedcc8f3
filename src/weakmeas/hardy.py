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
built as one stacked eigensolve, ``Observable._from_matrices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import prepost
from .prepost import AblDistribution, PrePostEnsemble, certainty_check, weak_value
from .qcore import Observable, StateVector, inner, tensor

ARMS = ("NO", "O")

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
_PORTS = {port: StateVector(np.array([1.0, sign], dtype=complex) / sqrt(2.0), ARMS)
          for port, sign in (("C", 1.0), ("D", -1.0))}
_ARM_O = StateVector(np.array([0.0, 1.0], dtype=complex), ARMS)

TABLE_TOL = 1e-12


@dataclass(frozen=True)
class HardyScenario:
    """Canonical states, ensemble and the eight occupation observables."""

    initial: StateVector
    preselected: StateVector
    postselected: StateVector
    observables: dict[str, Observable]
    ensemble: PrePostEnsemble

    def observable(self, name: str) -> Observable:
        if name not in self.observables:
            raise KeyError(
                f"unknown observable {name!r}; valid names: {', '.join(OBSERVABLE_ORDER)}")
        return self.observables[name]


@dataclass(frozen=True)
class WeakValueTable:
    """The eight named weak values; all imaginary parts vanish here."""

    entries: dict[str, complex]

    def __post_init__(self):
        for name, value in self.entries.items():
            if not abs(value.imag) <= TABLE_TOL:  # NaN fails too
                raise ValueError(f"{name}: unexpected imaginary part {value.imag}")

    def real_values(self) -> dict[str, float]:
        return {name: v.real for name, v in self.entries.items()}


def build() -> HardyScenario:
    """Construct the canonical scenario.

    The beam-splitter superposition signs are hard-coded: free propagation is
    arranged to add no relative phase between the arms, so each particle
    leaves its first beam splitter in the C port state.
    """
    initial = tensor(_PORTS["C"], _PORTS["C"])

    # pre-selection: project out the annihilated O·O branch and renormalize
    survived = np.array(initial.amplitudes)
    survived[initial.labels.index("O·O")] = 0.0
    preselected = StateVector(survived, initial.labels).normalized()

    # post-selection: both dark detectors fire
    postselected = tensor(_PORTS["D"], _PORTS["D"])

    # each observable is 1 exactly on the arm products its arms allow
    indicators = [np.diag([float(arm_p in (None, p) and arm_e in (None, e))
                           for p in ARMS for e in ARMS])
                  for arm_p, arm_e in _ARMS_OF.values()]
    observables = dict(zip(_ARMS_OF, Observable._from_matrices(indicators)))

    scenario = HardyScenario(
        initial=initial,
        preselected=preselected,
        postselected=postselected,
        observables=observables,
        ensemble=PrePostEnsemble(preselected, postselected),
    )
    _validate(scenario)
    return scenario


def _validate(s: HardyScenario) -> None:
    # NaN fails every comparison, so the checks read not (deviation <= tol)
    if not abs(s.preselected.amplitude("O·O")) <= TABLE_TOL:
        raise AssertionError("annihilated branch survived pre-selection")
    mat = {name: obs.matrix for name, obs in s.observables.items()}
    for p_arm in ARMS:
        for e_arm in ARMS:
            prod = mat[f"N_plus_{p_arm}"] @ mat[f"N_minus_{e_arm}"]
            if not np.max(np.abs(mat[f"N_pair_{p_arm}_{e_arm}"] - prod)) <= TABLE_TOL:
                raise AssertionError("pair operator is not the product of its one-particle ones")


def weak_value_table(s: HardyScenario) -> WeakValueTable:
    """All eight weak values straight from the defining ratio."""
    entries = {name: weak_value(s.observable(name), s.ensemble).value
               for name in OBSERVABLE_ORDER}
    return WeakValueTable(entries)


def postselection_variants() -> dict[str, StateVector]:
    """Alternative final conditions: detector coincidences plus the O·O branch.

    The O·O branch is orthogonal to the pre-selected state (it is exactly what
    annihilation removed), so selecting it yields a degenerate ensemble.
    """
    variants = {f"{p}_plus_{e}_minus": tensor(_PORTS[p], _PORTS[e])
                for p in _PORTS for e in _PORTS}
    variants["O_O"] = tensor(_ARM_O, _ARM_O)
    return variants


@dataclass(frozen=True)
class IdentityChainReport:
    """Operator identities plus the two logical re-derivations of the table."""

    identity_residuals: dict[str, float]
    anchors: dict[str, float]
    derived: dict[str, float]
    appendix_inputs: dict[str, float]
    appendix_pair_value: float
    max_table_deviation: float


def identity_chain(s: HardyScenario) -> IdentityChainReport:
    """Verify the operator identities, then rebuild the table by logic alone.

    Anchors are the three conditionally certain facts (electron in O,
    positron in O, no pair in O·O); additivity of weak values propagates them
    through the identities to all eight entries.  The pair completeness
    identity is also used on its own, appendix-style, to recover the NO·NO
    pair value from the seven certain ones.
    """
    ident = np.eye(4)
    mat = {name: o.matrix for name, o in s.observables.items()}
    identities = {
        "electron_arm_completeness": mat["N_minus_O"] + mat["N_minus_NO"] - ident,
        "positron_arm_completeness": mat["N_plus_O"] + mat["N_plus_NO"] - ident,
        "electron_O_pair_split": mat["N_minus_O"] - mat["N_pair_O_O"] - mat["N_pair_NO_O"],
        "positron_O_pair_split": mat["N_plus_O"] - mat["N_pair_O_O"] - mat["N_pair_O_NO"],
        "electron_NO_pair_split": mat["N_minus_NO"] - mat["N_pair_O_NO"] - mat["N_pair_NO_NO"],
        "positron_NO_pair_split": mat["N_plus_NO"] - mat["N_pair_NO_O"] - mat["N_pair_NO_NO"],
        "pair_completeness": (mat["N_pair_O_O"] + mat["N_pair_NO_O"]
                              + mat["N_pair_O_NO"] + mat["N_pair_NO_NO"] - ident),
    }
    residuals = {name: float(np.max(np.abs(m))) for name, m in identities.items()}
    bad = {name: r for name, r in residuals.items() if not r <= TABLE_TOL}
    if bad:
        raise AssertionError(f"operator identities violated: {bad}")

    appendix_inputs = {}
    for name in OBSERVABLE_ORDER:
        if name == "N_pair_NO_NO":
            continue
        eig = certainty_check(s.observables[name], s.ensemble)
        if eig is None:
            raise AssertionError(f"{name} expected to be conditionally certain")
        appendix_inputs[name] = eig

    anchors = {name: appendix_inputs[name] for name in ("N_minus_O", "N_plus_O", "N_pair_O_O")}
    derived = dict(anchors)
    derived["N_minus_NO"] = 1.0 - derived["N_minus_O"]
    derived["N_plus_NO"] = 1.0 - derived["N_plus_O"]
    derived["N_pair_NO_O"] = derived["N_minus_O"] - derived["N_pair_O_O"]
    derived["N_pair_O_NO"] = derived["N_plus_O"] - derived["N_pair_O_O"]
    derived["N_pair_NO_NO"] = (1.0 - derived["N_pair_O_O"]
                               - derived["N_pair_NO_O"] - derived["N_pair_O_NO"])
    appendix_pair_value = (1.0 - appendix_inputs["N_pair_O_O"]
                           - appendix_inputs["N_pair_NO_O"]
                           - appendix_inputs["N_pair_O_NO"])

    table = weak_value_table(s).real_values()
    # np.max, unlike the builtin max, keeps a NaN deviation
    deviation = float(np.max(np.abs(
        [derived[name] - table[name] for name in OBSERVABLE_ORDER]
        + [appendix_pair_value - table["N_pair_NO_NO"]])))
    if not deviation <= TABLE_TOL:
        raise AssertionError(f"derived table deviates from direct one by {deviation}")

    return IdentityChainReport(
        identity_residuals=residuals,
        anchors=anchors,
        derived={name: derived[name] for name in OBSERVABLE_ORDER},
        appendix_inputs=appendix_inputs,
        appendix_pair_value=appendix_pair_value,
        max_table_deviation=deviation,
    )


@dataclass(frozen=True)
class DetectorStatistics:
    """Unconditional outcome distribution of one run of the interferometers."""

    annihilation: float
    coincidences: dict[str, float]
    dark_pair_given_no_annihilation: float

    def distribution(self) -> dict[str, float]:
        return {"annihilation": self.annihilation, **self.coincidences}


def detector_statistics(s: HardyScenario, interaction: bool = True) -> DetectorStatistics:
    """Detector coincidence probabilities from the initial state.

    C detectors project each particle onto (|NO> + |O>)/sqrt(2), D detectors
    onto (|NO> - |O>)/sqrt(2).  With ``interaction`` the O·O branch is removed
    (annihilation) before the detectors; without it the particles never meet
    and the dark coincidence D+D- is forbidden by interference.
    """
    amps = np.array(s.initial.amplitudes)
    if interaction:
        annihilation = float(abs(s.initial.amplitude("O·O")) ** 2)
        amps[s.initial.labels.index("O·O")] = 0.0
    else:
        annihilation = 0.0
    survivor = StateVector(amps, s.initial.labels)

    coincidences = {key: float(abs(inner(state, survivor)) ** 2)
                    for key, state in sorted(postselection_variants().items())
                    if key != "O_O"}

    total = annihilation + sum(coincidences.values())
    if not abs(total - 1.0) <= TABLE_TOL:
        raise AssertionError(f"detector distribution sums to {total}")
    no_annihilation = 1.0 - annihilation
    conditional = coincidences["D_plus_D_minus"] / no_annihilation
    return DetectorStatistics(
        annihilation=annihilation,
        coincidences=coincidences,
        dark_pair_given_no_annihilation=conditional,
    )


@dataclass(frozen=True)
class IdealMeasurementReport:
    """Conditional statistics of separate ideal measurements of all eight."""

    distributions: dict[str, AblDistribution]
    certainties: dict[str, float | None]


def ideal_measurement_facts(s: HardyScenario) -> IdealMeasurementReport:
    """One ideal intermediate measurement per observable, post-selected.

    Seven of the eight outcomes are certain; the NO·NO pair is the lone
    exception with odds 4/5 : 1/5, which is why its weak value has to come
    from additivity rather than from certainty.
    """
    distributions = {}
    certainties = {}
    for name in OBSERVABLE_ORDER:
        obs = s.observable(name)
        distributions[name] = prepost.abl_probabilities(obs, s.ensemble)
        certainties[name] = certainty_check(obs, s.ensemble)
    for name in OBSERVABLE_ORDER:
        if name == "N_pair_NO_NO":
            if certainties[name] is not None:
                raise AssertionError("N_pair_NO_NO should not be certain")
            dist = distributions[name].as_dict()
            if not (abs(dist[0.0] - 0.8) <= TABLE_TOL and abs(dist[1.0] - 0.2) <= TABLE_TOL):
                raise AssertionError(f"N_pair_NO_NO odds {dist} differ from 4/5 : 1/5")
        elif certainties[name] is None:
            raise AssertionError(f"{name} expected to be conditionally certain")
    return IdealMeasurementReport(distributions=distributions, certainties=certainties)
