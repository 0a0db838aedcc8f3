"""Exact von Neumann pointer dynamics for post-selected measurements.

An impulsive coupling exp(-i*g*P*A) between a system observable A and a
pointer prepared in the Gaussian profile exp(-Q^2/delta^2) shifts the pointer
by g times the measured value.  Conditioning on a post-selected system state
leaves the pointer in a weighted sum of shifted Gaussians,

    phi(Q) = sum_i  <post|P_i|pre> * exp(-(Q - g*a_i)^2 / delta^2),

one term per distinct eigenvalue a_i.  All read-out statistics (position and
momentum means, cumulative masses, variances) follow in closed form from
Gaussian overlap integrals; Monte Carlo read-out sampling is built on top.
Several pointers coupled at once, to any family of observables, commuting
or not, are the same closed form with one term per non-vanishing product
of projectors, at most MAX_JOINT_TERMS of them; a single pointer is the
one-observable case.

Conventions.  The Gaussian profile carries no normalization constant; the
overall normalization of |phi|^2 is tracked separately.  With this profile a
single-term mixture has position density of standard deviation delta/2.  The
weak regime means g * (spectral range of A) < delta.

Everything is immutable; sampling uses an explicit counter-based generator
keyed by (seed, chunk index), so concurrent runs with distinct seeds are
independent and reproducible regardless of how trials are partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllBranchesVanishError, QuadratureError, UnsupportedConfigurationError
from .prepost import PrePostEnsemble, branch_amplitudes, check_dimensions
from .qcore import Observable

# Mean pointer momentum after post-selection, weak limit:
#   <P> = MOMENTUM_SHIFT_FACTOR * g * Im(A_w) / delta^2
# for the exp(-Q^2/delta^2) profile.  Frozen against the Fourier-grid oracle
# in the test suite; it is convention-dependent, not universal.
MOMENTUM_SHIFT_FACTOR = 2.0

SAMPLE_GRID_POINTS = 4096
SAMPLE_GRID_PADDING = 10.0  # in units of delta
_SAMPLE_CHUNK = 1 << 16
MAX_TRIALS = 10**8  # 0.8 GB of float64 readings, held once: sample hands its buffer over
SAMPLE_CDF_TOL = 1e-6  # |trapezoid CDF total - 1| beyond this: the grid misses the density
MAX_JOINT_TERMS = 2**10  # branches of a simultaneous coupling, checked before each expansion


def check_finite_positive(**values: float) -> None:
    """Raise ValueError unless every named value is finite and positive."""
    for name, v in values.items():
        if not 0.0 < v < np.inf:  # NaN fails both comparisons
            raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class CouplingSpec:
    """One pointer: the observable, integrated coupling g, initial width delta."""

    observable: Observable
    g: float
    delta: float

    def __post_init__(self):
        check_finite_positive(g=self.g, delta=self.delta)

    @property
    def spectral_span(self) -> float:
        evs = self.observable.eigenvalues
        return max(evs) - min(evs)

    @property
    def is_weak(self) -> bool:
        """True when the largest pointer shift stays below the width delta."""
        return self.g * self.spectral_span < self.delta


def _overlap_weights(coeffs: np.ndarray, shifts, deltas) -> np.ndarray:
    """Pair weights Re(c_i* c_j)*K_ij of a Gaussian mixture over one or more pointers.

    K_ij = prod_m exp(-(s_mi - s_mj)^2 / (2 delta_m^2)) is the overlap kernel
    of terms i and j.
    """
    kernel = np.ones((coeffs.size, coeffs.size))
    for s, delta in zip(shifts, deltas):
        kernel *= np.exp(-np.subtract.outer(s, s) ** 2 / (2.0 * delta**2))
    return np.real(np.outer(coeffs.conj(), coeffs)) * kernel


@dataclass(frozen=True)
class PointerMixture:
    """Post-selected pointer wavefunction: coefficients, shifts and width.

    The pair weights and the pair midpoints (s_i + s_j)/2 are computed once,
    at construction; the closed forms below read them.
    """

    coefficients: np.ndarray
    shifts: np.ndarray
    delta: float

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex).reshape(-1)
        shifts = np.array(self.shifts, dtype=float).reshape(-1)
        if coeffs.size != shifts.size or coeffs.size == 0:
            raise ValueError("need matching, non-empty coefficient and shift arrays")
        check_finite_positive(delta=self.delta)
        if not np.any(np.abs(coeffs) > 0.0):
            raise AllBranchesVanishError("every mixture coefficient vanishes")
        coeffs.setflags(write=False)
        shifts.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "shifts", shifts)
        for name, arr in (("_weights", _overlap_weights(coeffs, [shifts], [self.delta])),
                          ("_mid", np.add.outer(shifts, shifts) / 2.0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def normalization(self) -> float:
        """Integral of |phi|^2 over the line, in closed form."""
        return float(self.delta * np.sqrt(np.pi / 2.0) * self._weights.sum())

    def wavefunction(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return (self.coefficients[:, None]
                * np.exp(-(q[None, :] - self.shifts[:, None]) ** 2 / self.delta**2)).sum(axis=0)


def mixture(ens: PrePostEnsemble, spec: CouplingSpec) -> PointerMixture:
    """Post-selected pointer state of a single coupling, one term per eigenvalue."""
    coeffs = branch_amplitudes(spec.observable, ens)
    shifts = [spec.g * a for a in spec.observable.eigenvalues]
    return PointerMixture(np.array(coeffs), np.array(shifts), spec.delta)


def position_pdf(m: PointerMixture, q_grid: np.ndarray) -> np.ndarray:
    """|phi(Q)|^2 / normalization evaluated on a strictly increasing grid."""
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size < 2 or np.any(np.diff(q) <= 0.0):
        raise ValueError("q_grid must be strictly increasing")
    return np.abs(m.wavefunction(q)) ** 2 / m.normalization


def position_mean(m: PointerMixture) -> float:
    """<Q> in closed form via Gaussian overlap integrals."""
    return float((m._weights * m._mid).sum() / m._weights.sum())


def position_variance(m: PointerMixture) -> float:
    w = m._weights
    second = (w * (m._mid**2 + m.delta**2 / 4.0)).sum() / w.sum()
    return float(second - position_mean(m) ** 2)


def position_cdf(m: PointerMixture, x: np.ndarray) -> np.ndarray:
    """P(Q <= x) in closed form (mixture of error functions)."""
    from scipy.special import erf  # deferred: scipy costs ~0.3 s at start-up

    x = np.atleast_1d(np.asarray(x, dtype=float))
    w, mid = m._weights, m._mid
    u = np.sqrt(2.0) * (x[:, None, None] - mid[None, :, :]) / m.delta
    vals = (w[None, :, :] * 0.5 * (1.0 + erf(u))).sum(axis=(1, 2)) / w.sum()
    return vals


def window_mass(m: PointerMixture, lo: float, hi: float) -> float:
    """Probability mass of the position density inside [lo, hi]."""
    lo_v, hi_v = position_cdf(m, np.array([lo, hi]))
    return float(hi_v - lo_v)


def momentum_mean(m: PointerMixture) -> float:
    """<P> under the momentum-space density of phi.

    The Fourier transform of a Gaussian mixture is again a Gaussian mixture
    with phase factors; the mean reduces to the same pairwise overlaps.  In
    the weak limit <P> -> MOMENTUM_SHIFT_FACTOR * g * Im(A_w) / delta^2, and
    it vanishes identically for real coefficients.
    """
    s = m.shifts
    cpair = np.outer(m.coefficients.conj(), m.coefficients)
    kernel = np.exp(-np.subtract.outer(s, s) ** 2 / (2.0 * m.delta**2))
    num = (np.imag(cpair) * (-np.subtract.outer(s, s)) * kernel).sum()
    return float(num / (m.delta**2 * m._weights.sum()))


@dataclass(frozen=True)
class ReadingSample:
    """Pointer readings drawn from the position density; reproducible by seed."""

    readings: np.ndarray
    seed: int
    trials: int

    def __post_init__(self):
        readings = np.array(self.readings, dtype=float).reshape(-1)
        if readings.size != self.trials:
            raise ValueError("readings length must equal trials")
        readings.setflags(write=False)
        object.__setattr__(self, "readings", readings)

    @classmethod
    def _adopt(cls, readings: np.ndarray, seed: int) -> "ReadingSample":
        """Wrap a fresh 1-D float64 buffer that no one else holds, without a copy."""
        readings.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "readings", readings)
        object.__setattr__(out, "seed", seed)
        object.__setattr__(out, "trials", readings.size)
        return out


@dataclass(frozen=True)
class WeakEstimate:
    estimate: float
    stderr: float
    trials: int


def _sampling_grid(m: PointerMixture, points: int = SAMPLE_GRID_POINTS) -> np.ndarray:
    span = float(np.max(np.abs(m.shifts))) + SAMPLE_GRID_PADDING * m.delta
    return np.linspace(-span, span, points)


def _inverse_cdf(grid: np.ndarray, cdf: np.ndarray):
    """The piecewise-linear inverse of a normalised CDF, as a function of u in [0, 1).

    Returns exactly ``np.interp(u, cdf, grid)``: the interval j is the last
    knot with cdf[j] <= u, and the reading is slopes[j]*(u - cdf[j]) + grid[j]
    with numpy's precomputed slopes.  j is found with a guide table (indexed
    search, Chen & Asau 1974): bucket k of B holds the last knot at or below
    k/B, one step up resolves almost every u, and the few left in crowded
    tail buckets fall back to a binary search.  B is a power of two, so u*B
    and k/B are exact and the table never starts above the answer.
    """
    with np.errstate(all="ignore"):  # tail plateaus give x/0
        slopes = np.diff(grid) / np.diff(cdf)
    buckets = 1 << (cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right") - 1

    def invert(u: np.ndarray) -> np.ndarray:
        j = guide[(u * buckets).astype(np.intp)]
        j += cdf[j + 1] <= u
        miss = np.flatnonzero(cdf[j + 1] <= u)
        j[miss] = np.searchsorted(cdf, u[miss], side="right") - 1
        with np.errstate(all="ignore"):
            x = slopes[j] * (u - cdf[j]) + grid[j]
        # an overflowed slope times u == cdf[j] is NaN; np.interp returns the knot
        knot = np.flatnonzero(np.isnan(x))
        x[knot] = grid[j[knot]]
        return x

    return invert


def sample(m: PointerMixture, trials: int, seed: int) -> ReadingSample:
    """Draw i.i.d. readings from the position density.

    Inverse-CDF sampling on an adaptive grid spanning +-(max|shift| + 10*delta)
    with 4096 points.  The trapezoid CDF is inverted by linear interpolation
    through a guide table; the readings are bit-identical to
    ``np.interp(u, cdf, grid)``.  Uniform variates come from a Philox
    counter-based generator keyed by (seed, chunk_index) in fixed chunks of
    2^16, so the stream is independent of any worker partitioning.  At most
    ``MAX_TRIALS`` readings.  The pdf is divided by its closed-form
    normalisation, so the trapezoid CDF total should be 1; a total further
    than ``SAMPLE_CDF_TOL`` from 1 (the grid cannot resolve the density, or
    it underflowed or overflowed) raises ``QuadratureError``.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if not 0 <= seed < 2**64:  # one Philox key word
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    grid = _sampling_grid(m)
    pdf = position_pdf(m, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2.0)])
    total = float(cdf[-1])
    if not abs(total - 1.0) <= SAMPLE_CDF_TOL:
        raise QuadratureError(
            f"sampling CDF total is {total!r}, not 1 within {SAMPLE_CDF_TOL:g}; "
            f"the density is not resolved on the {grid.size}-point grid")
    cdf /= total
    invert = _inverse_cdf(grid, cdf)
    out = np.empty(trials)
    filled = 0
    chunk_index = 0
    while filled < trials:
        n = min(_SAMPLE_CHUNK, trials - filled)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        u = rng.random(n)
        out[filled:filled + n] = invert(u)
        filled += n
        chunk_index += 1
    return ReadingSample._adopt(out, seed)


def estimate(s: ReadingSample, g: float) -> WeakEstimate:
    """Weak-value estimate mean(readings)/g with its standard error."""
    check_finite_positive(g=g)
    per_trial = s.readings / g
    n = s.trials
    # std(ddof=1) step by step as numpy computes it (same bits), but in place
    # on per_trial, so no second reading-sized temporary is made
    mean = per_trial.sum(keepdims=True)
    mean /= n
    est = float(mean[0])
    err = 0.0
    if n > 1:
        per_trial -= mean
        np.square(per_trial, out=per_trial)
        err = float(np.sqrt(per_trial.sum() / (n - 1)) / np.sqrt(n))
    return WeakEstimate(estimate=est, stderr=err, trials=n)


# ---------------------------------------------------------------------------
# Simultaneous measurements
# ---------------------------------------------------------------------------

def simultaneous(ens: PrePostEnsemble, specs: list[CouplingSpec]) -> list[float]:
    """Marginal position means of several pointers coupled at once.

    The couplings are impulsive, so after post-selection the n pointers are in

        sum_t  c_t * prod_m exp(-(Q_m - g_m*a_{m,t_m})^2 / delta_m^2),
        c_t = <post|P^{A_1}_{t_1} ... P^{A_n}_{t_n}|pre>,

    the last coupling in ``specs`` acting first.  One closed form serves every
    family, commuting or not: <post| is multiplied through each projector
    stack in turn, and a branch whose row vector is exactly zero is dropped
    (a commuting family keeps one branch per joint eigenspace).  Live
    branches times the next spectrum size may not exceed ``MAX_JOINT_TERMS``;
    beyond it ``UnsupportedConfigurationError`` is raised.  In the weak
    regime each mean/g_m approaches Re(A_m,w).
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    for spec in specs:
        check_dimensions(spec.observable, ens)
    rows = ens.post.amplitudes.conj()[None, :]
    branches = np.zeros((1, 0), dtype=np.intp)  # eigenvalue index t_m of each live branch
    for spec in specs:
        stack = np.array(spec.observable.projectors)
        k = len(stack)
        if len(rows) * k > MAX_JOINT_TERMS:
            raise UnsupportedConfigurationError(
                f"{len(rows)} live branches times {k} eigenvalues exceeds "
                f"MAX_JOINT_TERMS = {MAX_JOINT_TERMS}")
        rows = (rows[:, None, None, :] @ stack).reshape(-1, ens.dim)
        branches = np.column_stack([np.repeat(branches, k, axis=0),
                                    np.tile(np.arange(k), len(branches))])
        live = np.any(rows != 0.0, axis=1)
        rows, branches = rows[live], branches[live]
    shifts = [spec.g * np.array(spec.observable.eigenvalues)[branches[:, m]]
              for m, spec in enumerate(specs)]
    w = _overlap_weights(rows @ ens.pre.amplitudes, shifts, [s.delta for s in specs])
    total = w.sum()
    return [float((w * (np.add.outer(s, s) / 2.0)).sum() / total) for s in shifts]
