"""One pointer coupled to the total of an observable over N identical pairs.

Sending N independently pre/post-selected pairs through the interferometers
and coupling a single pointer to the sum of the per-pair observables gives a
post-selected pointer state that factorizes over pairs.  For a two-outcome
observable with branch amplitudes alpha_0, alpha_1 the mixture has N+1 terms,

    c_k = C(N, k) * alpha_1^k * alpha_0^(N-k),   shift_k = g*(k*a1 + (N-k)*a0),

so the 4^N product space is never constructed.  The pointer concentrates at
N times the single-pair weak value with spread O(sqrt(N)); for the Hardy
NO·NO pair observable that mean is -N*g even though every shift is >= 0.

Numerics.  In position space the moments are signed binomial sums that
cancel to roughly |<post|pre>|^(2N), about 0.95*N decimal digits for the
Hardy values.  In momentum space the pointer is a product instead,

    psi~(p) = exp(-p^2 delta^2/4) * exp(-i p g N a0) * (alpha_0 + alpha_1 exp(-i p b))^N,

with b = g*(a1 - a0), so N*log|alpha_0 + alpha_1 exp(-i p b)|^2 is evaluated
in float64 without cancellation.  The mean and variance of Q = i d/dp are
trapezoid sums of |psi~|^2 times Re L and |L - mean|^2, L = i d/dp log psi~,
on one uniform p-grid (the integrand is smooth and decays like a Gaussian,
so the rule converges exponentially).  The grid is checked by recomputing the
moments from every second point; an unresolved or oversized grid raises
QuadratureError.  The mode and the plotting density transform the same
psi~ back to position space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .pointer import SAMPLE_GRID_PADDING, check_finite_positive
from .prepost import PrePostEnsemble, branch_amplitudes, check_dimensions, weak_value
from .qcore import Observable

MODE_GRID_POINTS = 4096
MODE_TOL_FACTOR = 1e-6
EDGE_LOG_DECAY = 80.0  # grid edge weight below exp(-EDGE_LOG_DECAY) of the peak
MAX_GRID_POINTS = 2**16
GRID_CHECK_RTOL = 1e-9  # allowed step-halving change, in units of the spread
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CollectiveSpec:
    """N pairs, one two-outcome observable per pair, one shared pointer."""

    ensemble: PrePostEnsemble
    observable: Observable
    n_pairs: int
    g: float
    delta: float

    def __post_init__(self):
        if len(self.observable.eigenvalues) != 2:
            raise ValueError("collective coupling requires exactly two distinct eigenvalues")
        if self.n_pairs < 0 or int(self.n_pairs) != self.n_pairs:
            raise ValueError("n_pairs must be a non-negative integer")
        check_finite_positive(g=self.g, delta=self.delta)
        check_dimensions(self.observable, self.ensemble)

    @property
    def alphas(self) -> tuple[complex, complex]:
        """Branch amplitudes (alpha_0, alpha_1) of the single-pair ensemble."""
        return branch_amplitudes(self.observable, self.ensemble)

    @property
    def in_regime(self) -> bool:
        """Collective weak regime: delta at least g*sqrt(N)."""
        return self.delta >= self.g * math.sqrt(max(self.n_pairs, 1))


@dataclass(frozen=True)
class CollectiveStats:
    mean: float
    mode: float
    spread: float
    warnings: tuple[str, ...]


def collective_weak_value(spec: CollectiveSpec) -> complex:
    """N times the single-pair weak value (additivity, exact)."""
    return spec.n_pairs * weak_value(spec.observable, spec.ensemble).value


def success_probability(spec: CollectiveSpec) -> float:
    """Probability that all N pairs pass post-selection: |<post|pre>|^(2N)."""
    log_p = 2.0 * spec.n_pairs * math.log(abs(spec.ensemble.overlap))
    try:
        return math.exp(log_p)
    except OverflowError:  # pragma: no cover - |overlap| <= 1 keeps log_p <= 0
        return float("inf")


def _scan_span(spec: CollectiveSpec) -> float:
    """Half-width of the position window: largest |shift_k| plus the sampler padding."""
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    # the shifts are linear in k, so an endpoint attains the largest |shift_k|
    ends = spec.g * (spec.n_pairs * a0 + (a1 - a0) * np.array([0, spec.n_pairs]))
    return float(np.max(np.abs(ends))) + SAMPLE_GRID_PADDING * spec.delta


def _moments(weight: np.ndarray, lq: np.ndarray) -> tuple[float, float]:
    total = weight.sum()
    mean = float(np.dot(weight, lq.real) / total)
    var = float(np.dot(weight, np.abs(lq - mean) ** 2) / total)
    return mean, var


def _momentum_pointer(spec: CollectiveSpec):
    """psi~(p) on a uniform grid (peak |psi~| = 1), with the position mean and variance.

    The grid reaches where |psi~|^2 has fallen below exp(-EDGE_LOG_DECAY) of
    its peak and resolves the pointer width, the binomial envelope and the
    scan window.  The moments are recomputed from every second point; a
    disagreement means the step was too coarse and raises instead of
    returning an unconverged number.
    """
    alpha0, alpha1 = spec.alphas
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    n, delta = spec.n_pairs, spec.delta
    s0 = spec.g * n * a0
    b = spec.g * (a1 - a0)
    ratio = max((abs(alpha0) + abs(alpha1)) / abs(alpha0 + alpha1), 1.0)
    p_max = math.sqrt(2.0 * (2.0 * n * math.log(ratio) + EDGE_LOG_DECAY)) / delta
    step = min(math.pi / (2.0 * _scan_span(spec)),
               1.0 / (8.0 * abs(b) * math.sqrt(n)),
               1.0 / (2.0 * delta))
    half = 2 * math.ceil(p_max / (2.0 * step))
    if 2 * half + 1 > MAX_GRID_POINTS:
        raise QuadratureError(
            f"momentum grid needs {2 * half + 1} points, above the cap of "
            f"{MAX_GRID_POINTS}; reduce n_pairs or widen delta")
    p = step * np.arange(-half, half + 1)
    rot = np.exp(-1j * b * p)
    f = alpha0 + alpha1 * rot
    with np.errstate(divide="ignore", invalid="ignore"):
        log_weight = n * np.log(np.abs(f) ** 2) - 0.5 * (p * delta) ** 2
        weight = np.exp(log_weight - log_weight.max())
        # i d/dp log psi~ without the constant s0, which is added back exactly
        lq = np.where(weight > 0.0, n * b * alpha1 * rot / f - 0.5j * delta**2 * p, 0.0)
    mean, var = _moments(weight, lq)
    coarse_mean, coarse_var = _moments(weight[::2], lq[::2])
    tol = GRID_CHECK_RTOL * math.sqrt(var)
    if not (abs(mean - coarse_mean) <= tol
            and abs(math.sqrt(var) - math.sqrt(coarse_var)) <= tol):  # NaN fails too
        raise QuadratureError(
            f"momentum grid unresolved at step {step:g}: the mean or spread "
            "changes when every second point is dropped")
    psi = np.sqrt(weight) * np.exp(1j * (n * np.angle(f) - p * s0))
    return p, psi, s0 + mean, var


def _density_scan(p: np.ndarray, psi: np.ndarray, start: float, step: float,
                  count: int) -> np.ndarray:
    """Unnormalized position density |sum_j psi~_j exp(i p_j q)|^2 at q = start + step*i.

    Writing i = a*rows + c factors exp(i p q) into a (rows x m) matrix shared
    by every block of rows and one phase per block, so the scan is a single
    matrix product costing O(sqrt(count)*m) exponentials, not count*m.
    """
    rows = math.isqrt(count - 1) + 1
    blocks = -(-count // rows)
    within = np.exp(1j * np.outer(step * np.arange(rows), p))
    offsets = np.exp(1j * np.outer(p, start + step * rows * np.arange(blocks)))
    return (np.abs(within @ (offsets * psi[:, None])) ** 2).T.ravel()[:count]


def _mode_search(spec: CollectiveSpec, p: np.ndarray, psi: np.ndarray) -> float:
    """Global density mode: 4096-point scan, then golden-section refinement."""
    span = _scan_span(spec)
    grid = np.linspace(-span, span, MODE_GRID_POINTS)
    best = int(np.argmax(_density_scan(p, psi, -span, grid[1] - grid[0], grid.size)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]

    def density(q: float) -> float:
        return abs(np.dot(psi, np.exp(1j * p * q))) ** 2

    tol = MODE_TOL_FACTOR * spec.delta
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = density(x1), density(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = density(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = density(x1)
    return float((lo + hi) / 2.0)


def density_grid(spec: CollectiveSpec,
                 points: int = MODE_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Normalized collective position density on a plotting grid.

    The momentum-space pointer transformed back by the same quadrature the
    mode search uses, rescaled so the trapezoid integral over the grid is 1.
    """
    if spec.n_pairs < 1:
        raise ValueError("density_grid requires n_pairs >= 1")
    p, psi, _, _ = _momentum_pointer(spec)
    span = _scan_span(spec)
    grid = np.linspace(-span, span, points)
    pdf = _density_scan(p, psi, -span, grid[1] - grid[0], points)
    pdf /= np.trapezoid(pdf, grid)
    return grid, pdf


def collective_pointer_stats(spec: CollectiveSpec) -> CollectiveStats:
    """Mean, global mode and standard deviation of the collective density.

    One float64 momentum-space quadrature (see the module docstring).  A
    single-term mixture (one certain branch) short-circuits to the exact
    Gaussian answer.
    """
    if spec.n_pairs < 1:
        raise ValueError("collective_pointer_stats requires n_pairs >= 1")
    warnings: tuple[str, ...] = ()
    if not spec.in_regime:
        warnings = (
            f"delta={spec.delta:g} below collective weak-regime scale "
            f"g*sqrt(N)={spec.g * math.sqrt(spec.n_pairs):g}; "
            "results describe a strong measurement",
        )

    alpha0, alpha1 = spec.alphas
    if alpha0 == 0 or alpha1 == 0:
        a0, a1 = (float(e) for e in spec.observable.eigenvalues)
        eig = a1 if alpha0 == 0 else a0
        center = spec.g * spec.n_pairs * eig
        return CollectiveStats(mean=center, mode=center,
                               spread=spec.delta / 2.0, warnings=warnings)

    p, psi, mean, var = _momentum_pointer(spec)
    return CollectiveStats(mean=mean, mode=_mode_search(spec, p, psi),
                           spread=math.sqrt(var), warnings=warnings)
