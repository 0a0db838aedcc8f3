"""The seed's arbitrary-precision collective pointer statistics, kept as a test oracle.

This is the position-space implementation that ``weakmeas.collective`` used
before it moved to a float64 momentum-space quadrature: the closed-form
Gaussian-overlap sums and the density are evaluated under mpmath at a
working precision derived from the ~0.95*N digits the signed binomial sums
cancel.  It is slow (about 20 s at N = 400) and independent of the fast path,
which is what makes it a useful reference.  Only the tests import it.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import trapezoid

from weakmeas.collective import (
    MODE_GRID_POINTS,
    MODE_TOL_FACTOR,
    CollectiveSpec,
    CollectiveStats,
    collective_mixture,
)
from weakmeas.pointer import SAMPLE_GRID_PADDING

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _required_dps(spec: CollectiveSpec) -> int:
    alpha0, alpha1 = spec.alphas
    ratio = (abs(alpha0) + abs(alpha1)) / abs(alpha0 + alpha1)
    lost = 2.0 * spec.n_pairs * math.log10(max(ratio, 1.0))
    return max(50, int(math.ceil(lost)) + 40)


def _mp_coefficients(spec: CollectiveSpec):
    """Exact-binomial coefficients at the current mpmath precision."""
    alpha0, alpha1 = spec.alphas
    real_case = alpha0.imag == 0.0 and alpha1.imag == 0.0
    if real_case:
        a0, a1 = mp.mpf(alpha0.real), mp.mpf(alpha1.real)
    else:
        a0, a1 = mp.mpc(alpha0), mp.mpc(alpha1)
    n = spec.n_pairs
    coeffs = []
    for k in range(n + 1):
        term = mp.binomial(n, k)
        term = term * a1**k if k else term
        term = term * a0**(n - k) if k < n else term
        coeffs.append(term)
    return coeffs, real_case


def _banded_moments(spec: CollectiveSpec):
    """W, T1, T2 of the pairwise Gaussian-overlap sums, plus the lost-digit count.

    With shifts linear in k the overlap kernel depends only on |i-j|, so the
    (N+1)^2 pair sum collapses to N+1 diagonal bands.
    """
    n = spec.n_pairs
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    b = mp.mpf(spec.g) * (a1 - a0)
    delta = mp.mpf(spec.delta)
    coeffs, real_case = _mp_coefficients(spec)
    w_tot = mp.mpf(0)
    t1_tot = mp.mpf(0)
    t2_tot = mp.mpf(0)
    max_abs = mp.mpf(0)
    for d in range(n + 1):
        kd = mp.e**(-(b * d) ** 2 / (2 * delta**2))
        band_w = mp.mpf(0)
        band_t1 = mp.mpf(0)
        band_t2 = mp.mpf(0)
        half_d = mp.mpf(d) / 2
        for i in range(n + 1 - d):
            if real_case:
                w = coeffs[i] * coeffs[i + d]
            else:
                w = (mp.conj(coeffs[i]) * coeffs[i + d]).real
            t = i + half_d
            band_w += w
            band_t1 += w * t
            band_t2 += w * t * t
            aw = abs(w)
            if aw > max_abs:
                max_abs = aw
        mult = 1 if d == 0 else 2
        w_tot += mult * band_w * kd
        t1_tot += mult * band_t1 * kd
        t2_tot += mult * band_t2 * kd
    if w_tot <= 0:
        raise ArithmeticError("normalization came out non-positive; precision exhausted")
    lost_digits = float(mp.log10(max_abs / w_tot)) if max_abs > 0 else 0.0
    return w_tot, t1_tot, t2_tot, lost_digits


def _log_density_fn(spec: CollectiveSpec):
    """log |phi(Q)|^2 up to a constant, as a Horner polynomial in exp(2BQ/d^2).

    Factoring the common Gaussian envelope off the k-th shifted term leaves a
    degree-N polynomial, so each evaluation costs one exp plus N multiply-adds
    at the working precision.
    """
    n = spec.n_pairs
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    coeffs, real_case = _mp_coefficients(spec)
    delta = mp.mpf(spec.delta)
    s0 = mp.mpf(spec.g) * n * a0
    b = mp.mpf(spec.g) * (a1 - a0)
    damp_rev = list(reversed(
        [coeffs[k] * mp.e**(-(b * k) ** 2 / delta**2) for k in range(n + 1)]))

    def log_density(q: float) -> mp.mpf:
        qq = mp.mpf(q)
        r = mp.e**(2 * b * (qq - s0) / delta**2)
        acc = mp.mpf(0) if real_case else mp.mpc(0)
        for dk in damp_rev:
            acc = acc * r + dk
        mag = abs(acc)
        if mag == 0:
            return mp.mpf("-inf")
        return -2 * (qq - s0) ** 2 / delta**2 + 2 * mp.log(mag)

    return log_density


def _mode_search(spec: CollectiveSpec) -> float:
    """Global density mode: 4096-point scan, then golden-section refinement."""
    n = spec.n_pairs
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    log_density = _log_density_fn(spec)
    shifts = spec.g * (n * a0 + (a1 - a0) * np.arange(n + 1))
    span = float(np.max(np.abs(shifts))) + SAMPLE_GRID_PADDING * spec.delta
    grid = np.linspace(-span, span, MODE_GRID_POINTS)
    values = [log_density(q) for q in grid]
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]

    tol = MODE_TOL_FACTOR * spec.delta
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = log_density(x1), log_density(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = log_density(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = log_density(x1)
    return float((lo + hi) / 2.0)


def density_grid(spec: CollectiveSpec,
                 points: int = MODE_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Normalized collective position density on a plotting grid.

    Evaluated through the same high-precision log-density as the mode search
    (double precision garbles the signed sums well before N = 25), then
    rescaled so the trapezoid integral over the grid is 1.
    """
    if spec.n_pairs < 1:
        raise ValueError("density_grid requires n_pairs >= 1")
    shifts = collective_mixture(spec).shifts
    span = float(np.max(np.abs(shifts))) + SAMPLE_GRID_PADDING * spec.delta
    grid = np.linspace(-span, span, points)
    with mp.workdps(_required_dps(spec)):
        logp = _log_density_fn(spec)
        values = [logp(q) for q in grid]
    peak = max(values)
    pdf = np.array([float(mp.e**(v - peak)) if mp.isfinite(v) else 0.0 for v in values])
    pdf /= trapezoid(pdf, grid)
    return grid, pdf


def collective_pointer_stats(spec: CollectiveSpec) -> CollectiveStats:
    """Mean, global mode and standard deviation of the collective density.

    Closed-form Gaussian overlap sums evaluated in arbitrary precision; the
    working precision is retried wider whenever the observed cancellation
    eats into the safety margin.  A single-term mixture (one certain branch)
    short-circuits to the exact Gaussian answer.
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
    a0, a1 = (float(e) for e in spec.observable.eigenvalues)
    if alpha0 == 0 or alpha1 == 0:
        eig = a1 if alpha0 == 0 else a0
        center = spec.g * spec.n_pairs * eig
        return CollectiveStats(mean=center, mode=center,
                               spread=spec.delta / 2.0, warnings=warnings)

    dps = _required_dps(spec)
    for _ in range(4):
        with mp.workdps(dps):
            try:
                w_tot, t1_tot, t2_tot, lost = _banded_moments(spec)
            except ArithmeticError:
                dps = 2 * dps
                continue
            if dps - lost < 25.0:
                dps = int(lost) + 60
                continue
            t1 = t1_tot / w_tot
            t2 = t2_tot / w_tot
            bshift = mp.mpf(spec.g) * (a1 - a0)
            mean = mp.mpf(spec.g) * spec.n_pairs * a0 + bshift * t1
            var = bshift**2 * (t2 - t1**2) + mp.mpf(spec.delta) ** 2 / 4
            mode = _mode_search(spec)
            return CollectiveStats(mean=float(mean), mode=mode,
                                   spread=float(mp.sqrt(var)), warnings=warnings)
    raise ArithmeticError("could not reach a stable working precision")
