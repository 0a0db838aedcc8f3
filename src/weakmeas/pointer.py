"""Exact von Neumann pointer dynamics for post-selected measurements.

An impulsive coupling exp(-i*g*P*A) between a system observable A and a
pointer prepared in the Gaussian profile exp(-Q^2/delta^2) shifts the pointer
by g times the measured value.  Conditioning on a post-selected system state
leaves the pointer in a weighted sum of shifted Gaussians,

    phi(Q) = sum_i  <post|P_i|pre> * exp(-(Q - g*a_i)^2 / delta^2),

one term per distinct eigenvalue a_i.  The read-out statistics (position
mean, variance and cumulative mass) follow in closed form from Gaussian
overlap integrals; Monte Carlo read-out sampling is built on top.
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
independent and reproducible regardless of how trials are partitioned.  A
``ReadingSample`` is its readings alone; the seed stays with its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllBranchesVanishError, QuadratureError, UnsupportedConfigurationError
from .prepost import PrePostEnsemble, branch_amplitudes, check_dimensions
from .qcore import Observable

SAMPLE_GRID_POINTS = 4096
SAMPLE_GRID_PADDING = 10.0  # in units of delta
_SAMPLE_CHUNK = 1 << 16
MAX_TRIALS = 10**8  # 0.8 GB of float64 readings, held once: sample hands its buffer over
SAMPLE_CDF_TOL = 1e-6  # |trapezoid CDF total - 1| beyond this: the grid misses the density
MAX_JOINT_TERMS = 2**10  # branches of a simultaneous coupling, checked before each expansion
MIN_DELTA = 1e-150  # narrowest pointer: delta**2 stays a normal float
MAX_DELTA = 1e150  # widest pointer: delta**2, taken as a Python float, stays finite
# weakest coupling g/delta: a reading lies in the sampling window, so |reading/g| < max|a| +
# 10 delta/g, and estimate's MAX_TRIALS squares sum below 4e8 (1e141)^2 = 4e290 for |a| ~ 1
MIN_G_OVER_DELTA = 1e-140
MAX_PDF_POINTS = 10**5  # at the cap, weak-measure --format csv peaks near 66 MB RSS
_CDF_CHUNK = 4096  # points per pass of position_cdf: one (points, pairs) block stays in cache

# Cephes erf (Moshier, Methods and Programs for Mathematical Functions, 1989):
# x T(x^2)/U(x^2) for |x| <= 1, else sign(x) (1 - exp(-x^2) P(|x|)/Q(|x|)).
# Coefficients highest degree first.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(6) = 2.2e-17 is below 2**-54, so from 6 on 1 - erfc rounds to exactly 1:
# clipping there leaves Cephes' third branch (|x| >= 8) unreachable
_ERF_CLIP = 6.0


def check_finite_positive(**values: float) -> None:
    """Raise ValueError unless every named value is finite and positive."""
    for name, v in values.items():
        if not 0.0 < v < np.inf:  # NaN fails both comparisons
            raise ValueError(f"{name} must be finite and positive, got {v}")


def check_delta(delta: float) -> None:
    """Raise ValueError unless the pointer width is in [MIN_DELTA, MAX_DELTA]."""
    check_finite_positive(delta=delta)
    if not delta <= MAX_DELTA:
        raise ValueError(f"delta must be at most {MAX_DELTA:g}, got {delta}")
    if not delta >= MIN_DELTA:
        raise ValueError(f"delta must be at least {MIN_DELTA:g}, got {delta}")


def check_coupling(g: float, delta: float) -> None:
    """Raise ValueError unless g is finite and positive, delta passes
    ``check_delta`` and g is at least MIN_G_OVER_DELTA times delta."""
    check_finite_positive(g=g)
    check_delta(delta)
    if not g >= MIN_G_OVER_DELTA * delta:
        raise ValueError(f"g must be at least {MIN_G_OVER_DELTA:g} times delta = {delta}, got {g}")


def check_sampling(trials: int, seed: int) -> None:
    """Raise ValueError unless ``sample`` can draw ``trials`` readings from ``seed``."""
    # x % 1 == 0 fails on a fraction, NaN and inf
    if not (1 <= trials <= MAX_TRIALS and trials % 1 == 0):
        raise ValueError(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials}")
    if not (0 <= seed < 2**64 and seed % 1 == 0):  # one Philox key word
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class CouplingSpec:
    """One pointer: the observable, integrated coupling g, initial width delta."""

    observable: Observable
    g: float
    delta: float

    def __post_init__(self):
        check_coupling(self.g, self.delta)

    @property
    def spectral_span(self) -> float:
        evs = self.observable.eigenvalues
        return max(evs) - min(evs)

    @property
    def is_weak(self) -> bool:
        """True when the largest pointer shift stays below the width delta."""
        return self.g * self.spectral_span < self.delta


def _live_pairs(coeffs: np.ndarray, shifts, deltas) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights and midpoints of the pairs i <= j of a Gaussian mixture whose weight is not zero.

    Pair (i, j) weighs Re(c_i* c_j)*K_ij, doubled off the diagonal as the k x k
    weights are symmetric; K_ij = prod_m exp(-(s_mi - s_mj)^2 / (2 delta_m^2)) over
    the pointers m.  The midpoints (s_mi + s_mj)/2 come one array per pointer.
    """
    k = np.arange(coeffs.size)
    i, j = np.nonzero(k[:, None] <= k)  # row by row, the order of np.triu
    kernel = np.ones(i.size)
    for s, delta in zip(shifts, deltas):
        kernel *= np.exp(-(s[i] - s[j]) ** 2 / (2.0 * delta**2))
    w = np.real(coeffs[i].conj() * coeffs[j]) * kernel
    w[i != j] *= 2.0
    live = np.flatnonzero(w)
    i, j = i[live], j[live]
    return w[live], [(s[i] + s[j]) / 2.0 for s in shifts]


@dataclass(frozen=True)
class PointerMixture:
    """Post-selected pointer wavefunction: coefficients, shifts and width.

    The live pair weights and midpoints (``_live_pairs``) are computed once,
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
        if not (np.isfinite(coeffs).all() and np.isfinite(shifts).all()):
            raise ValueError("mixture coefficients and shifts must be finite")
        check_delta(self.delta)
        if not np.any(np.abs(coeffs) > 0.0):
            raise AllBranchesVanishError("every mixture coefficient vanishes")
        weights, (mid,) = _live_pairs(coeffs, [shifts], [self.delta])
        for name, arr in (("coefficients", coeffs), ("shifts", shifts),
                          ("_weights", weights), ("_mid", mid)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def mixture(ens: PrePostEnsemble, spec: CouplingSpec) -> PointerMixture:
    """Post-selected pointer state of a single coupling, one term per eigenvalue."""
    coeffs = branch_amplitudes(spec.observable, ens)
    shifts = [spec.g * a for a in spec.observable.eigenvalues]
    return PointerMixture(np.array(coeffs), np.array(shifts), spec.delta)


def position_pdf(m: PointerMixture, q_grid: np.ndarray) -> np.ndarray:
    """|phi(Q)|^2 over its closed-form integral, on a strictly increasing grid."""
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size < 2 or not np.all(np.diff(q) > 0.0):  # NaN fails too
        raise ValueError("q_grid must be strictly increasing")
    phi = (m.coefficients[:, None]
           * np.exp(-(q[None, :] - m.shifts[:, None]) ** 2 / m.delta**2)).sum(axis=0)
    return np.abs(phi) ** 2 / float(m.delta * np.sqrt(np.pi / 2.0) * m._weights.sum())


def position_mean(m: PointerMixture) -> float:
    """<Q> in closed form via Gaussian overlap integrals."""
    return float((m._weights * m._mid).sum() / m._weights.sum())


def position_variance(m: PointerMixture) -> float:
    w = m._weights
    second = (w * (m._mid**2 + m.delta**2 / 4.0)).sum() / w.sum()
    return float(second - position_mean(m) ** 2)


def _polevl(x: np.ndarray, coeffs: tuple) -> np.ndarray:
    """Cephes' polevl: Horner's rule, one rounding per step."""
    y = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, in place, by Cephes' rational approximations.

    The arithmetic of Cephes' erf, step for step, on arguments clipped to
    +-_ERF_CLIP; only numpy's exp differs from the C library's, so results
    are within 1 ulp of ``scipy.special.erf``.  NaN stays NaN.
    """
    np.clip(x, -_ERF_CLIP, _ERF_CLIP, out=x)
    a = np.abs(x)
    inner = a <= 1.0
    xi = x[inner]
    z = xi * xi
    x[inner] = xi * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    outer = ~inner  # NaN too
    a = a[outer]
    y = np.exp(-(a * a))
    y *= _polevl(a, _ERFC_P)
    y /= _polevl(a, _ERFC_Q)
    np.subtract(1.0, y, out=y)
    x[outer] = np.copysign(y, x[outer])
    return x


def position_cdf(m: PointerMixture, x: np.ndarray) -> np.ndarray:
    """P(Q <= x) in closed form, for x flattened to one dimension.

    Each live pair (weight v, midpoint c) adds v (1 + erf(sqrt(2)(x - c)/delta))/2,
    over the total weight.  erf is a numpy port of Cephes' (Moshier, Methods
    and Programs for Mathematical Functions, 1989) on arguments clipped to
    +-6, where it is already exactly +-1.  x is taken _CDF_CHUNK points at a
    time: each pass fills one (points, pairs) block in place and sums it
    with one matrix-vector product.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    scale = math.sqrt(2.0) / m.delta
    out = np.empty(x.size)
    for start in range(0, x.size, _CDF_CHUNK):
        block = np.subtract.outer(x[start:start + _CDF_CHUNK], m._mid)
        block *= scale
        _erf(block)
        block += 1.0
        out[start:start + _CDF_CHUNK] = block @ m._weights
    out *= 0.5 / m._weights.sum()
    return out


def window_mass(m: PointerMixture, lo: float, hi: float) -> float:
    """Probability mass of the position density inside [lo, hi]."""
    if not lo <= hi:  # NaN fails too
        raise ValueError(f"window must have lo <= hi, got [{lo}, {hi}]")
    lo_v, hi_v = position_cdf(m, np.array([lo, hi]))
    return float(hi_v - lo_v)


@dataclass(frozen=True)
class ReadingSample:
    """Pointer readings drawn from the position density, held as a read-only copy.

    There is at least one reading, and every reading is finite.
    """

    readings: np.ndarray

    def __post_init__(self):
        readings = np.array(self.readings, dtype=float).reshape(-1)
        if not (readings.size and np.isfinite(readings).all()):
            raise ValueError("readings must be a non-empty array of finite numbers")
        readings.setflags(write=False)
        object.__setattr__(self, "readings", readings)

    @classmethod
    def _adopt(cls, readings: np.ndarray) -> "ReadingSample":
        """Wrap a fresh 1-D float64 buffer that no one else holds, without a copy."""
        readings.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "readings", readings)
        return out


@dataclass(frozen=True)
class WeakEstimate:
    estimate: float
    stderr: float


def _sampling_grid(shifts: np.ndarray, delta: float, points: int) -> np.ndarray:
    """The window +-(max|shift| + SAMPLE_GRID_PADDING*delta); grid[-1] is exactly its span."""
    if not (2 <= points <= MAX_PDF_POINTS and points % 1 == 0):
        raise ValueError(f"points must be an integer in [2, {MAX_PDF_POINTS}], got {points}")
    span = float(np.max(np.abs(shifts))) + SAMPLE_GRID_PADDING * delta
    return np.linspace(-span, span, int(points))


def _inverse_cdf(grid: np.ndarray, cdf: np.ndarray):
    """The piecewise-linear inverse of a normalised CDF, as a function
    ``invert(u)`` that overwrites u in [0, 1) with its readings.

    Gives exactly ``np.interp(u, cdf, grid)``: the interval j is the last
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
    nxt = cdf[1:]  # nxt[j] is cdf[j + 1], without an index temporary

    def invert(u: np.ndarray) -> np.ndarray:
        j = guide[(u * buckets).astype(np.intp)]
        j += nxt[j] <= u
        miss = np.flatnonzero(nxt[j] <= u)
        j[miss] = np.searchsorted(cdf, u[miss], side="right") - 1
        with np.errstate(all="ignore"):
            u -= cdf[j]
            u *= slopes[j]
            u += grid[j]
        # an overflowed slope times u == cdf[j] is NaN; np.interp returns the knot
        knot = np.flatnonzero(np.isnan(u))
        u[knot] = grid[j[knot]]
        return u

    return invert


def sample(m: PointerMixture, trials: int, seed: int) -> ReadingSample:
    """Draw i.i.d. readings from the position density.

    Inverse-CDF sampling on an adaptive grid spanning +-(max|shift| + 10*delta)
    with 4096 points.  The trapezoid CDF is inverted by linear interpolation
    through a guide table; the readings are bit-identical to
    ``np.interp(u, cdf, grid)``.  Uniform variates come from a Philox
    counter-based generator keyed by (seed, chunk_index) in fixed chunks of
    2^16, so the stream is independent of any worker partitioning; each
    chunk is drawn into the readings and inverted there.  At most
    ``MAX_TRIALS`` readings.  The pdf is divided by its closed-form
    normalisation, so the trapezoid CDF total should be 1; a total further
    than ``SAMPLE_CDF_TOL`` from 1 (the grid cannot resolve the density, or
    it underflowed or overflowed) raises ``QuadratureError``.
    """
    check_sampling(trials, seed)
    trials, seed = int(trials), int(seed)
    grid = _sampling_grid(m.shifts, m.delta, SAMPLE_GRID_POINTS)
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
    for chunk_index, lo in enumerate(range(0, trials, _SAMPLE_CHUNK)):
        u = out[lo:lo + _SAMPLE_CHUNK]
        np.random.Generator(np.random.Philox(key=[seed, chunk_index])).random(out=u)
        invert(u)
    return ReadingSample._adopt(out)


def estimate(s: ReadingSample, g: float) -> WeakEstimate:
    """Weak-value estimate mean(readings)/g with its standard error: two readings at least."""
    check_finite_positive(g=g)
    n = s.readings.size
    if n < 2:  # one reading has no spread to give an error bar
        raise ValueError(f"trials must be at least 2 for a standard error, got {n}")
    per_trial = s.readings / g
    # std(ddof=1) step by step as numpy computes it (same bits), but in place
    # on per_trial, so no second reading-sized temporary is made
    mean = per_trial.sum(keepdims=True)
    mean /= n
    per_trial -= mean
    np.square(per_trial, out=per_trial)
    return WeakEstimate(float(mean[0]), float(np.sqrt(per_trial.sum() / (n - 1)) / np.sqrt(n)))


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
    shifts = np.zeros((1, 0))  # g_m * a_{m,t_m} of each live branch, one column per pointer
    for spec in specs:
        stack = spec.observable.projectors
        k = len(stack)
        if len(rows) * k > MAX_JOINT_TERMS:
            raise UnsupportedConfigurationError(
                f"{len(rows)} live branches times {k} eigenvalues exceeds "
                f"MAX_JOINT_TERMS = {MAX_JOINT_TERMS}")
        rows = (rows[:, None, None, :] @ stack).reshape(-1, ens.dim)
        shifts = np.column_stack([
            np.repeat(shifts, k, axis=0),
            np.tile(spec.g * np.array(spec.observable.eigenvalues), len(shifts))])
        live = np.any(rows != 0.0, axis=1)
        rows, shifts = rows[live], shifts[live]
    w, mids = _live_pairs(rows @ ens.pre.amplitudes, shifts.T, [s.delta for s in specs])
    total = w.sum()
    return [float((w * mid).sum() / total) for mid in mids]
