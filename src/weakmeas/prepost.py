"""Pre- and post-selected ensembles: weak values and conditional statistics.

An ensemble is a pair (pre, post) of normalized states with non-vanishing
overlap.  On top of it this module computes

* weak values  A_w = <post|A|pre> / <post|pre>,
* the post-selection probability |<post|pre>|^2,
* conditional outcome probabilities for a single ideal intermediate
  measurement followed by post-selection, and
* the certainty check: the eigenvalue an ideal intermediate measurement
  finds with conditional certainty, which exact certainty makes the weak
  value too.

Weak values are returned as full complex numbers; they may lie outside the
spectral range of the observable.  All operations are pure functions over
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllBranchesVanishError, DegenerateEnsembleError, DimensionMismatchError
from .qcore import Observable, StateVector, inner

EPS_DEGENERATE = 1e-10
CERTAINTY_TOL = 1e-10
EIGENVALUE_MATCH_TOL = 1e-9  # AblDistribution.probability's eigenvalue lookup


@dataclass(frozen=True)
class PrePostEnsemble:
    """A (pre, post) state pair with cached overlap <post|pre>."""

    pre: StateVector
    post: StateVector

    def __post_init__(self):
        if self.pre.dim != self.post.dim:
            raise DimensionMismatchError(
                f"pre ({self.pre.dim}) and post ({self.post.dim}) dimensions differ")
        for which, s in (("pre", self.pre), ("post", self.post)):
            if not s.is_normalized:
                raise ValueError(f"{which}-selected state is not normalized")
        ov = inner(self.post, self.pre)
        if abs(ov) <= EPS_DEGENERATE:
            raise DegenerateEnsembleError(
                f"|<post|pre>| = {abs(ov):.3e} <= {EPS_DEGENERATE:.1e}; "
                "weak values are undefined for (near-)orthogonal selections")
        object.__setattr__(self, "_overlap", ov)

    @property
    def overlap(self) -> complex:
        return self._overlap

    @property
    def dim(self) -> int:
        return self.pre.dim


@dataclass(frozen=True)
class WeakValue:
    """A complex weak value A_w."""

    value: complex

    @property
    def real(self) -> float:
        return self.value.real


@dataclass(frozen=True)
class AblDistribution:
    """Conditional probabilities (eigenvalue -> probability), ascending order."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.entries)
        # NaN fails every comparison, so the checks read not (x <= tol)
        if (any(not (p >= -1e-12) for _, p in self.entries)
                or not (abs(total - 1.0) <= 1e-12)):
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def probability(self, eigenvalue: float) -> float:
        for a, p in self.entries:
            if abs(a - eigenvalue) <= EIGENVALUE_MATCH_TOL:
                return p
        return 0.0

    def as_dict(self) -> dict[float, float]:
        return dict(self.entries)


def check_dimensions(a: Observable, ens: PrePostEnsemble) -> None:
    """The one rule for coupling an observable to an ensemble: same dimension."""
    if a.dim != ens.dim:
        raise DimensionMismatchError(f"observable dim {a.dim} != ensemble dim {ens.dim}")


def weak_value(a: Observable, ens: PrePostEnsemble) -> WeakValue:
    """<post|A|pre> / <post|pre>; generally complex, possibly outside the spectrum."""
    check_dimensions(a, ens)
    num = np.vdot(ens.post.amplitudes, a.matrix @ ens.pre.amplitudes)
    return WeakValue(complex(num / ens.overlap))


def postselection_probability(ens: PrePostEnsemble) -> float:
    return float(abs(ens.overlap) ** 2)


def branch_amplitudes(a: Observable, ens: PrePostEnsemble) -> tuple[complex, ...]:
    """Per-eigenvalue amplitudes <post|P_i|pre>; they sum to the overlap."""
    check_dimensions(a, ens)
    return tuple(complex(np.vdot(ens.post.amplitudes, p @ ens.pre.amplitudes))
                 for p in a.projectors)


def abl_probabilities(a: Observable, ens: PrePostEnsemble) -> AblDistribution:
    """Outcome distribution of one ideal intermediate measurement of ``a``.

    p_i = |<post|P_i|pre>|^2 / sum_j |<post|P_j|pre>|^2, the conditional
    probability of eigenvalue a_i given both selections.
    """
    amps = branch_amplitudes(a, ens)
    weights = np.array([abs(c) ** 2 for c in amps])
    total = weights.sum()
    if total == 0.0:
        raise AllBranchesVanishError("all intermediate branches vanish")
    probs = weights / total
    return AblDistribution(tuple(zip(a.eigenvalues, (float(p) for p in probs))))


def certainty_check(a: Observable, ens: PrePostEnsemble) -> float | None:
    """Return the eigenvalue found with conditional certainty, if any.

    Certainty is judged on the ABL probability alone: an outcome is certain
    when its probability is within ``CERTAINTY_TOL`` of 1.  Exact certainty
    pins the weak value to that eigenvalue, but within ``CERTAINTY_TOL`` on
    the probability the weak value may still differ from it by about
    sqrt(CERTAINTY_TOL).
    """
    for eig, p in abl_probabilities(a, ens).entries:
        if abs(p - 1.0) <= CERTAINTY_TOL:
            return eig
    return None
