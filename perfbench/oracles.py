"""The benchmark's own numerics, against which in-process outputs are checked.

Branch amplitudes come from numpy.linalg.eigh, moments and masses from a
fine quadrature of |psi|^2, two-pointer means from the exact Gaussian sums.
None of them calls the code under test.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from checks import PULL_LIMIT

# Closed forms against the benchmark's quadrature, in units of delta.
QUADRATURE_TOL = 1e-7
QUADRATURE_POINTS = 4001
# FFT-grid two-pointer means against the exact Gaussian sums, in units of g.
JOINT_TOL = 1e-6
# Kolmogorov-Smirnov limit on sqrt(n) * D; exceeded by chance with
# probability 2*exp(-2 * 3.3**2) ~ 7e-10.
KS_LIMIT = 3.3


def branch_terms(matrix: np.ndarray, pre: np.ndarray, post: np.ndarray,
                 g: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture coefficients <post|P_a|pre> and shifts g*a, ascending in a."""
    evals, vecs = np.linalg.eigh(matrix)
    coeffs, shifts = [], []
    k = 0
    while k < evals.size:
        j = k
        while j + 1 < evals.size and evals[j + 1] - evals[k] <= 1e-9:
            j += 1
        block = vecs[:, k:j + 1]
        coeffs.append(np.vdot(block.conj().T @ post, block.conj().T @ pre))
        shifts.append(g * float(np.mean(evals[k:j + 1])))
        k = j + 1
    return np.array(coeffs), np.array(shifts)


class Quadrature:
    """|sum_a c_a exp(-(q - s_a)^2/delta^2)|^2 tabulated on a fine grid."""

    def __init__(self, coeffs: np.ndarray, shifts: np.ndarray, delta: float):
        self.delta = delta
        self.q = np.linspace(shifts.min() - 8.0 * delta, shifts.max() + 8.0 * delta,
                             QUADRATURE_POINTS)
        psi = (coeffs[:, None]
               * np.exp(-(self.q[None, :] - shifts[:, None]) ** 2 / delta**2)).sum(axis=0)
        density = np.abs(psi) ** 2
        self.pdf = density / np.trapezoid(density, self.q)
        self.mean = float(np.trapezoid(self.q * self.pdf, self.q))
        self.variance = float(np.trapezoid((self.q - self.mean) ** 2 * self.pdf, self.q))
        steps = (self.pdf[1:] + self.pdf[:-1]) * np.diff(self.q) / 2.0
        self.cdf = np.concatenate([[0.0], np.cumsum(steps)])


def check_mixture(coeffs, shifts, m_coeffs, m_shifts) -> list[str]:
    if len(m_coeffs) != len(coeffs):
        return [f"mixture has {len(m_coeffs)} terms, expected {len(coeffs)}"]
    scale = max(1.0, float(np.max(np.abs(shifts))))
    if (np.max(np.abs(np.asarray(m_coeffs) - coeffs)) > 1e-9
            or np.max(np.abs(np.asarray(m_shifts) - shifts)) > 1e-12 * scale):
        return ["mixture coefficients or shifts differ from <post|P_a|pre> and g*a"]
    return []


def check_readings(quad: Quadrature, g: float, readings: np.ndarray, estimate: float,
                   stderr: float, sorted_sub: np.ndarray, cdf: np.ndarray) -> list[str]:
    """Sampled readings, their weak-value estimate and the CDF of a subsample."""
    n = readings.size
    problems = []
    per_trial = readings / g
    if not np.all(np.isfinite(readings)):
        return ["non-finite readings"]
    if (abs(estimate - per_trial.mean()) > 1e-9 * max(1.0, abs(estimate))
            or abs(stderr / (per_trial.std(ddof=1) / math.sqrt(n)) - 1.0) > 1e-9):
        problems.append(f"estimate {estimate!r} +- {stderr!r} is not mean/g +- std/(g sqrt n)")
    elif abs(estimate - quad.mean / g) > PULL_LIMIT * stderr:
        problems.append(f"estimate {estimate!r} is more than {PULL_LIMIT} stderr from "
                        f"the exact mean/g {quad.mean / g!r}")
    if not (np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0):
        problems.append("position_cdf is not a non-decreasing function into [0, 1]")
    exact = np.interp(sorted_sub, quad.q, quad.cdf)
    if np.max(np.abs(cdf - exact)) > 1e-5:
        problems.append(f"position_cdf differs from quadrature by {np.max(np.abs(cdf - exact)):.2e}")
    k = sorted_sub.size
    ks = max(np.max(np.arange(1, k + 1) / k - cdf), np.max(cdf - np.arange(k) / k))
    if ks * math.sqrt(k) > KS_LIMIT:
        problems.append(f"readings fail a Kolmogorov-Smirnov test against position_cdf: "
                        f"sqrt(n) D = {ks * math.sqrt(k):.2f}")
    return problems


def check_closed_forms(quad: Quadrature, mean: float, variance: float, window: tuple,
                       mass: float) -> list[str]:
    lo, hi = window
    expected_mass = float(np.interp(hi, quad.q, quad.cdf) - np.interp(lo, quad.q, quad.cdf))
    tol = QUADRATURE_TOL * quad.delta
    problems = []
    if abs(mean - quad.mean) > tol:
        problems.append(f"position_mean {mean!r}, quadrature {quad.mean!r}")
    if abs(variance - quad.variance) > tol * quad.delta:
        problems.append(f"position_variance {variance!r}, quadrature {quad.variance!r}")
    if abs(mass - expected_mass) > 1e-5:
        problems.append(f"window_mass {mass!r}, quadrature {expected_mass!r}")
    return problems


def check_weak_value_and_abl(matrix, pre, post, weak_value: complex,
                             abl_entries) -> list[str]:
    overlap = np.vdot(post, pre)
    expected = np.vdot(post, matrix @ pre) / overlap
    problems = []
    if abs(weak_value - expected) > 1e-9 * max(1.0, abs(expected)):
        problems.append(f"weak value {weak_value!r}, expected {expected!r}")
    coeffs, shifts = branch_terms(matrix, pre, post, 1.0)
    probs = np.abs(coeffs) ** 2 / np.sum(np.abs(coeffs) ** 2)
    got = np.array(abl_entries, dtype=float).reshape(-1, 2)
    if (got.shape[0] != shifts.size or np.max(np.abs(got[:, 0] - shifts)) > 1e-9
            or np.max(np.abs(got[:, 1] - probs)) > 1e-9):
        problems.append(f"ABL distribution {got.tolist()} differs from {list(zip(shifts, probs))}")
    return problems


def check_joint_means(pre, post, terms, means) -> list[str]:
    """Marginal pointer means of two pointers coupled to A then B.

    The post-selected two-pointer state is sum_ab <post|P_a Q_b|pre>
    phi(q1 - g1 a) phi(q2 - g2 b), B acting first; its marginal means follow
    from the Gaussian overlap integrals.  ``terms`` is ((matrix, g, delta), ...).
    """
    (ma, ga, da), (mb, gb, db) = terms
    ea, va = np.linalg.eigh(ma)
    eb, vb = np.linalg.eigh(mb)
    c = np.array([[np.vdot(post, va[:, i]) * np.vdot(va[:, i], vb[:, j]) * np.vdot(vb[:, j], pre)
                   for j in range(eb.size)] for i in range(ea.size)]).reshape(-1)
    sa = np.repeat(ga * ea, eb.size)
    sb = np.tile(gb * eb, ea.size)
    k = (np.exp(-np.subtract.outer(sa, sa) ** 2 / (2 * da**2))
         * np.exp(-np.subtract.outer(sb, sb) ** 2 / (2 * db**2)))
    w = np.real(np.outer(c.conj(), c)) * k
    exact = [float((w * np.add.outer(s, s) / 2.0).sum() / w.sum()) for s in (sa, sb)]
    if max(abs(a - b) for a, b in zip(means, exact)) > JOINT_TOL * min(ga, gb):
        return [f"simultaneous means {means} differ from the exact {exact}"]
    return []
