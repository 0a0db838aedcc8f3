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
QuadratureError.  The plotting density transforms the same psi~ back to
position space by a chirp-z transform, one FFT convolution; the mode search
zooms that scan until a cell is at most MODE_TOL_FACTOR * delta wide.

``CollectiveSpec`` judges N (an integer >= 1) once.  The statistics are plain
(mean, mode, spread); ``spec.in_regime`` says whether the coupling is weak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .pointer import SAMPLE_GRID_PADDING, _sampling_grid, check_coupling
from .prepost import PrePostEnsemble, branch_amplitudes, check_dimensions, weak_value
from .qcore import Observable

MODE_GRID_POINTS = 4096
MODE_TOL_FACTOR = 1e-6
EDGE_LOG_DECAY = 80.0  # grid edge weight below exp(-EDGE_LOG_DECAY) of the peak
MAX_GRID_POINTS = 2**16
GRID_CHECK_RTOL = 1e-9  # allowed step-halving change, in units of the spread


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
        if not (self.n_pairs >= 1 and self.n_pairs % 1 == 0):  # NaN and inf fail too
            raise ValueError(f"n_pairs must be an integer >= 1, got {self.n_pairs}")
        check_coupling(self.g, self.delta)
        check_dimensions(self.observable, self.ensemble)

    @property
    def in_regime(self) -> bool:
        """Collective weak regime: delta at least g*sqrt(N)."""
        return self.delta >= self.g * math.sqrt(self.n_pairs)


@dataclass(frozen=True)
class CollectiveStats:
    mean: float
    mode: float
    spread: float


def collective_weak_value(spec: CollectiveSpec) -> complex:
    """N times the single-pair weak value (additivity, exact)."""
    return spec.n_pairs * weak_value(spec.observable, spec.ensemble).value


def success_probability(spec: CollectiveSpec) -> float:
    """Probability that all N pairs pass post-selection: |<post|pre>|^(2N)."""
    log_p = 2.0 * spec.n_pairs * math.log(abs(spec.ensemble.overlap))
    return math.exp(min(log_p, 0.0))  # |<post|pre>| may pass 1 by the norm tolerance


def _window_marks(spec: CollectiveSpec) -> tuple[float, float]:
    """Centre and half-range of the end shifts, which bound every shift_k, and of
    N*g*Re(A_w), near which the density lies even when it falls beyond them."""
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    ends = spec.g * (spec.n_pairs * a0 + (a1 - a0) * np.array([0, spec.n_pairs]))
    lo, hi = np.sort(np.append(ends, spec.g * collective_weak_value(spec).real))[[0, -1]]
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def _window(spec: CollectiveSpec, points: int = MODE_GRID_POINTS) -> np.ndarray:
    """The position window: the sampler's rule about the centre of the marks."""
    centre, half = _window_marks(spec)
    return centre + _sampling_grid(np.array([half]), spec.delta, points)


def _moments(weight: np.ndarray, lq: np.ndarray) -> tuple[float, float]:
    total = weight.sum()
    mean = float(np.dot(weight, lq.real) / total)
    var = float(np.dot(weight, np.abs(lq - mean) ** 2) / total)
    return mean, var


def _momentum_pointer(spec: CollectiveSpec):
    """psi~(p) on a uniform grid (peak |psi~| = 1), with the position mean and variance.

    The grid reaches where |psi~|^2 has fallen below exp(-EDGE_LOG_DECAY) of
    its peak and resolves the binomial envelope and the scan window; the
    window spans at least 10 delta, so its step also resolves the pointer
    width.  The moments are recomputed from every second point; a
    disagreement means the step was too coarse and raises instead of
    returning an unconverged number.
    """
    alpha0, alpha1 = branch_amplitudes(spec.observable, spec.ensemble)
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    n, delta = spec.n_pairs, spec.delta
    s0 = spec.g * n * a0
    b = spec.g * (a1 - a0)
    ratio = max((abs(alpha0) + abs(alpha1)) / abs(alpha0 + alpha1), 1.0)
    p_max = math.sqrt(2.0 * (2.0 * n * math.log(ratio) + EDGE_LOG_DECAY)) / delta
    span = _window_marks(spec)[1] + SAMPLE_GRID_PADDING * delta  # inf, not NaN, on overflow
    step = min(math.pi / (2.0 * span), 1.0 / (8.0 * abs(b) * math.sqrt(n)))
    quarter = p_max / (2.0 * step)  # inf when the window overflows
    if not quarter <= (MAX_GRID_POINTS - 1) // 4:  # NaN fails too
        raise QuadratureError(
            f"momentum grid needs {4 * quarter + 1:.3g} points, above the cap of "
            f"{MAX_GRID_POINTS}; reduce n_pairs or widen delta")
    half = 2 * math.ceil(quarter)
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


def _density_scan(p: np.ndarray, psi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unnormalized position density |sum_j psi~_j exp(i p_j q)|^2 on a uniform grid.

    A chirp-z scan (Bluestein 1970): with p_j = j*dp, q_i = q_0 + i*dq and
    theta = dp*dq, p_j q_i = p_j q_0 + theta*(j^2 + i^2 - (i-j)^2)/2, so the
    sum is a phase times one FFT convolution with exp(-i theta k^2/2).
    """
    m, count, h = p.size, grid.size, p.size // 2
    theta = (p[-1] - p[0]) / (m - 1) * (grid[-1] - grid[0]) / (count - 1)
    a = psi * np.exp(1j * (p * grid[0] + theta / 2 * np.arange(-h, h + 1) ** 2))
    chirp = np.exp(-1j * theta / 2 * np.arange(-h, count + h) ** 2)
    size = 1 << (count + m - 2).bit_length()  # a power of two >= count + m - 1
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(chirp, size))
    return np.abs(conv[m - 1:m - 1 + count]) ** 2


def _mode_search(spec: CollectiveSpec, p: np.ndarray, psi: np.ndarray) -> float:
    """Global density mode: the window scan, zoomed onto the two cells around each argmax."""
    grid = _window(spec)
    while True:
        best = int(np.argmax(_density_scan(p, psi, grid)))
        if grid[1] - grid[0] <= MODE_TOL_FACTOR * spec.delta:
            return float(grid[best])
        grid = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)], grid.size)


def density_grid(spec: CollectiveSpec,
                 points: int = MODE_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Normalized collective position density on a plotting grid.

    The momentum-space pointer transformed back by the same quadrature the
    mode search uses, rescaled so the trapezoid integral over the grid is 1.
    """
    grid = _window(spec, points)  # judges points before the quadrature
    p, psi, _, _ = _momentum_pointer(spec)
    pdf = _density_scan(p, psi, grid)
    pdf /= np.trapezoid(pdf, grid)
    return grid, pdf


def collective_pointer_stats(spec: CollectiveSpec) -> CollectiveStats:
    """Mean, global mode and standard deviation of the collective density.

    One float64 momentum-space quadrature (see the module docstring).  A
    single-term mixture (one certain branch) short-circuits to the exact
    Gaussian answer.
    """
    alpha0, alpha1 = branch_amplitudes(spec.observable, spec.ensemble)
    if alpha0 == 0 or alpha1 == 0:
        a0, a1 = (float(e) for e in spec.observable.eigenvalues)
        eig = a1 if alpha0 == 0 else a0
        center = spec.g * spec.n_pairs * eig
        return CollectiveStats(mean=center, mode=center, spread=spec.delta / 2.0)

    p, psi, mean, var = _momentum_pointer(spec)
    return CollectiveStats(mean=mean, mode=_mode_search(spec, p, psi), spread=math.sqrt(var))
