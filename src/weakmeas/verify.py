"""Self-contained checks behind the CLI ``verify`` command.

Each check re-derives one headline quantitative claim at its stated
tolerance and reports pass/fail with a short detail string.  The checks are
deterministic (fixed seeds) so a passing run is reproducible bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil, comb, pi, sqrt

import numpy as np

from . import collective, hardy, pointer, prepost
from .qcore import Observable, StateVector

EXPECTED_TABLE = {
    "N_minus_O": 1.0,
    "N_plus_O": 1.0,
    "N_minus_NO": 0.0,
    "N_plus_NO": 0.0,
    "N_pair_O_O": 0.0,
    "N_pair_O_NO": 1.0,
    "N_pair_NO_O": 1.0,
    "N_pair_NO_NO": -1.0,
}

MC_SEED = 20260810
ADDITIVITY_SEED = 1337
ADDITIVITY_TRIALS = 1000


def _worst(values, fold=np.max) -> float:
    """``fold`` (np.max or np.min) of ``values``: NaN if any value is NaN.

    The builtins keep a NaN only when it comes first, so a check reading
    ``max`` would pass on a NaN it never saw.  Every comparison below is
    written so that a NaN fails it.
    """
    return float(fold(list(values)))


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed_ms: float


def check_weak_value_table() -> tuple[bool, str]:
    table = hardy.weak_value_table(hardy.build())
    dev = _worst(abs(table.entries[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE)
    return dev <= 1e-12, f"max deviation from (1,1,0,0,0,1,1,-1): {dev:.2e}"


def check_postselection_probability() -> tuple[bool, str]:
    p = prepost.postselection_probability(hardy.build().ensemble)
    dev = abs(p - 1.0 / 12.0)
    return dev <= 1e-12, f"|p - 1/12| = {dev:.2e}"


def check_abl_and_certainty() -> tuple[bool, str]:
    sc = hardy.build()
    report = hardy.ideal_measurement_facts(sc)
    dist = report.distributions["N_pair_NO_NO"].as_dict()
    dev = _worst([abs(dist[0.0] - 0.8), abs(dist[1.0] - 0.2)])
    if not dev <= 1e-12:
        return False, f"N_pair_NO_NO odds off by {dev:.2e}"
    table = hardy.weak_value_table(sc).real_values()
    for name in hardy.OBSERVABLE_ORDER:
        if name == "N_pair_NO_NO":
            continue
        certain = report.certainties[name]
        if certain is None:
            return False, f"{name} not certain"
        top = _worst(p for _, p in report.distributions[name].entries)
        if not abs(top - 1.0) <= 1e-10:
            return False, f"{name} certainty probability off: {top}"
        if not abs(certain - table[name]) <= 1e-10:
            return False, f"{name}: certain value {certain} != weak value {table[name]}"
    return True, f"seven certainties, NO·NO odds within {dev:.2e} of 4/5 : 1/5"


def check_identity_chain() -> tuple[bool, str]:
    report = hardy.identity_chain(hardy.build())
    dev = _worst([*(abs(report.derived[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE),
                  abs(report.appendix_pair_value + 1.0)])
    worst_identity = _worst(report.identity_residuals.values())
    ok = dev <= 1e-12 and worst_identity <= 1e-12
    return ok, f"derived-table deviation {dev:.2e}, identity residual {worst_identity:.2e}"


def _random_ensemble(rng: np.random.Generator, dim: int) -> prepost.PrePostEnsemble:
    while True:
        pre = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        post = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pre = StateVector(pre / np.linalg.norm(pre))
        post = StateVector(post / np.linalg.norm(post))
        if abs(np.vdot(post.amplitudes, pre.amplitudes)) > 1e-3:
            return prepost.PrePostEnsemble(pre, post)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _additivity_triples() -> list[tuple[prepost.PrePostEnsemble, Observable, Observable,
                                         Observable]]:
    """Criterion 5's random (ensemble, A, B, A + B), in draw order.

    Every draw comes first; then the A and B of all triples of one dimension
    are built as one stack, and their A + B as another.  Each member is
    bit-identical to ``Observable.from_matrix`` of its matrix.
    """
    rng = np.random.default_rng(ADDITIVITY_SEED)
    draws = []
    for _ in range(ADDITIVITY_TRIALS):
        dim = int(rng.integers(2, 7))
        draws.append((_random_ensemble(rng, dim), _random_hermitian(rng, dim),
                      _random_hermitian(rng, dim)))
    triples: list = [None] * len(draws)
    for dim in {ens.dim for ens, _, _ in draws}:
        index = [t for t, (ens, _, _) in enumerate(draws) if ens.dim == dim]
        built = Observable._from_matrices(np.array([draws[t][1:] for t in index])
                                          .reshape(-1, dim, dim))
        a, b = built[::2], built[1::2]
        sums = Observable._from_matrices(np.array([x.matrix for x in a])
                                         + np.array([x.matrix for x in b]))
        for t, *obs in zip(index, a, b, sums):
            triples[t] = (draws[t][0], *obs)
    return triples


def check_additivity() -> tuple[bool, str]:
    errs = []
    for ens, a, b, ab in _additivity_triples():
        lhs = prepost.weak_value(ab, ens).value
        rhs = prepost.weak_value(a, ens).value + prepost.weak_value(b, ens).value
        errs.append(abs(lhs - rhs))
    worst = _worst(errs)
    return (worst < 1e-10,
            f"{ADDITIVITY_TRIALS} random triples, worst |(A+B)_w - A_w - B_w| = {worst:.2e}")


def check_weak_limit_convergence() -> tuple[bool, str]:
    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    couplings = (0.1, 0.05, 0.01)
    finals = []
    ratios = [1.0]
    for name in hardy.OBSERVABLE_ORDER:
        errs = []
        for g in couplings:
            spec = pointer.CouplingSpec(sc.observable(name), g=g, delta=1.0)
            m = pointer.mixture(sc.ensemble, spec)
            errs.append(abs(pointer.position_mean(m) / g - table[name]))
        finals.append(errs[-1])
        if _worst(errs) < 1e-12:
            continue  # rule-(a) observables: single-Gaussian mixture, exact shift
        consts = [e / g**2 for e, g in zip(errs, couplings)]
        ratios.append(_worst(consts) / _worst(consts, np.min))
    worst_final, worst_ratio = _worst(finals), _worst(ratios)
    ok = worst_final < 1e-3 and worst_ratio <= 2.0
    return ok, (f"error at g/delta=0.01: {worst_final:.2e}; "
                f"quadratic-constant spread: {worst_ratio:.3f}")


def check_strong_limit() -> tuple[bool, str]:
    sc = hardy.build()
    spec = pointer.CouplingSpec(sc.observable("N_pair_NO_NO"), g=20.0, delta=1.0)
    m = pointer.mixture(sc.ensemble, spec)
    mass0 = pointer.window_mass(m, -2.0, 2.0)
    mass1 = pointer.window_mass(m, 18.0, 22.0)
    dev = _worst([abs(mass0 - 0.8), abs(mass1 - 0.2)])
    return dev <= 1e-3, f"window masses ({mass0:.6f}, {mass1:.6f}) vs (4/5, 1/5), dev {dev:.2e}"


def _ks_statistic(cdfvals: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance max(D+, D-) of sorted CDF values.

    The arithmetic of ``scipy.stats.kstest``, so D is bit-identical to its
    statistic.
    """
    n = cdfvals.size
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def _ks_pvalue(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic, clipped to [0, 1].

    One minus the Pelz-Good (1976) large-n expansion of the CDF, term by term
    as ``scipy.stats.kstwo.sf`` evaluates it in the branch Simard & L'Ecuyer
    (2011) select for n d^2 < 2.2 when n > 10^5 or n d^1.5 > 1.4.  Criterion 8
    (n = 10^5, n d^2 about 1.3) lies there, and the two agree bit for bit.
    Above n d^2 = 2.2 scipy switches to 2 smirnov(n, d), which this misses by
    at most about 5e-8 at n = 10^5.
    """
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    z = sqrt(n) * d
    z2, z4, z6 = z**2, z**4, z**6  # as pow, like scipy: z * z can differ in the last bit
    if z2 < pi**2 / 8 / 708:  # q underflows: z below about 0.0417, where the CDF is 0
        return 1.0
    q = np.exp(-pi**2 / 8 / z2)
    sqrt2pi = sqrt(2.0 * pi)
    # K0..K3 as sums of c(m) q^(m^2) over odd m, one Horner pass for all four
    maxk = ceil(16 * z / pi)
    k = np.arange(maxk, 0, -1)
    m2 = (2 * k - 1) ** 2
    coeffs = np.array([
        np.ones(maxk),
        -z2 + pi**2 / 4 * m2,
        6 * z6 + 2 * z4 + (2 * z4 - 5 * z2) * pi**2 / 4 * m2 + pi**4 * (1 - 2 * z2) / 16 * m2**2,
        -30 * z6 - 90 * z**8 + pi**2 * (135 * z4 - 96 * z6) / 4 * m2
        + pi**4 * (-60 * z2 + 212 * z4) / 16 * m2**2 + pi**6 * (5 - 30 * z2) / 64 * m2**3,
    ])
    terms = np.zeros(4)
    for kk, c in zip(k, coeffs.T):
        terms *= q ** (8 * kk)
        terms += c
    terms *= q
    terms *= sqrt2pi
    terms /= [z, 6 * z4, 72 * z**7, 6480 * z**10]
    # the sums of K2 and K3 over all integers k
    q = np.exp(-pi**2 / 2 / z2)
    k2 = k**2
    qk2 = q**k2
    terms[2] += np.sum(k2 * qk2) * (pi**2 * sqrt2pi / (-36 * z**3))
    sqrt3z = sqrt(3.0) * z
    terms[3] += (np.sum((sqrt3z + pi * k) * (sqrt3z - pi * k) * k2 * qk2)
                 * (pi**2 * sqrt2pi / (216 * z6)))
    terms /= np.power(float(n), np.arange(4) / 2.0)
    return min(max(1.0 - float(sum(terms)), 0.0), 1.0)


def check_monte_carlo() -> tuple[bool, str]:
    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    g, delta, trials = 0.05, 1.0, 100_000
    pulls = []
    pvalues = [1.0]
    for name in hardy.OBSERVABLE_ORDER:
        spec = pointer.CouplingSpec(sc.observable(name), g=g, delta=delta)
        m = pointer.mixture(sc.ensemble, spec)
        reading = pointer.sample(m, trials, seed=MC_SEED)
        again = pointer.sample(m, trials, seed=MC_SEED)
        if reading.readings.tobytes() != again.readings.tobytes():
            return False, f"{name}: same seed produced different readings"
        est = pointer.estimate(reading, g)
        pulls.append(abs(est.estimate - table[name]) / est.stderr)
        cdfvals = pointer.position_cdf(m, np.sort(reading.readings))
        pvalues.append(_ks_pvalue(trials, _ks_statistic(cdfvals)))
    worst_pulls, worst_p = _worst(pulls), _worst(pvalues, np.min)
    ok = worst_pulls <= 3.0 and worst_p > 0.01
    return ok, f"worst |estimate - A_w|/stderr = {worst_pulls:.2f}; worst KS p-value = {worst_p:.3f}"


def check_simultaneous() -> tuple[bool, str]:
    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    g = 0.01
    specs = [pointer.CouplingSpec(sc.observable(n), g=g, delta=1.0)
             for n in hardy.OBSERVABLE_ORDER]
    means = pointer.simultaneous(sc.ensemble, specs)
    dev = _worst(abs(mean / g - table[name])
                 for mean, name in zip(means, hardy.OBSERVABLE_ORDER))
    if not dev <= 1e-2:
        return False, f"joint Hardy means off by {dev:.2e}"

    # two non-commuting qubit projectors against their separate weak values
    pre = StateVector(np.array([np.cos(0.3), np.sin(0.3)], dtype=complex))
    post = StateVector(np.array([np.cos(1.1), np.sin(1.1)], dtype=complex))
    ens = prepost.PrePostEnsemble(pre, post)
    a = Observable.from_matrix(np.diag([0.0, 1.0]).astype(complex))
    b = Observable.from_matrix(np.full((2, 2), 0.5, dtype=complex))
    specs2 = [pointer.CouplingSpec(a, g=g, delta=1.0),
              pointer.CouplingSpec(b, g=g, delta=1.0)]
    pair_means = pointer.simultaneous(ens, specs2)
    rel = _worst(
        abs(pair_means[k] / g - prepost.weak_value(o, ens).real)
        / abs(prepost.weak_value(o, ens).real)
        for k, o in enumerate((a, b)))
    ok = rel <= 0.01
    return ok, f"Hardy joint deviation {dev:.2e}; qubit-pair relative error {rel:.2e}"


def check_collective() -> tuple[bool, str]:
    sc = hardy.build()
    obs = sc.observable("N_pair_NO_NO")
    g = 1.0
    details = []
    for n in (25, 100, 400):
        spec = collective.CollectiveSpec(sc.ensemble, obs, n_pairs=n,
                                         g=g, delta=5.0 * g * sqrt(n))
        st = collective.collective_pointer_stats(spec)
        if not abs(st.mean / g + n) <= sqrt(n):
            return False, f"N={n}: mean/g = {st.mean / g:.2f} outside -N +- sqrt(N)"
        if not st.mode < 0.0:
            return False, f"N={n}: density mode {st.mode:.3f} not negative"
        details.append(f"N={n}: mean/g={st.mean / g:.2f}, mode={st.mode:.2f}")

    # brute-force tensor cross-check at N = 2, 3 against the binomial coefficients
    alpha0, alpha1 = prepost.branch_amplitudes(obs, sc.ensemble)
    for n in (2, 3):
        pre = sc.preselected.amplitudes
        post = sc.postselected.amplitudes
        big_pre, big_post = pre, post
        for _ in range(n - 1):
            big_pre = np.kron(big_pre, pre)
            big_post = np.kron(big_post, post)
        total = np.zeros((4**n, 4**n), dtype=complex)
        for k in range(n):
            factors = [np.eye(4, dtype=complex)] * n
            factors[k] = obs.matrix
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += term
        ens_n = prepost.PrePostEnsemble(StateVector(big_pre), StateVector(big_post))
        brute = pointer.mixture(
            ens_n, pointer.CouplingSpec(Observable.from_matrix(total), g=0.05, delta=1.0))
        dev = _worst(abs(brute.coefficients[k] - comb(n, k) * alpha1**k * alpha0**(n - k))
                     for k in range(n + 1))
        if not dev <= 1e-10:
            return False, f"N={n}: brute-force coefficients deviate by {dev:.2e}"
    return True, "; ".join(details) + "; tensor cross-check at N=2,3 within 1e-10"


def check_non_multiplicativity() -> tuple[bool, str]:
    sc = hardy.build()
    pair = prepost.weak_value(sc.observable("N_pair_NO_NO"), sc.ensemble).value
    product = (prepost.weak_value(sc.observable("N_plus_NO"), sc.ensemble).value
               * prepost.weak_value(sc.observable("N_minus_NO"), sc.ensemble).value)
    ok = (abs(pair + 1.0) <= 1e-12 and abs(product) <= 1e-12
          and abs(pair - product) > 0.5 and pair.real < 0.0)
    return ok, (f"pair weak value {pair.real:+.1f} (outside [0, 1]) != "
                f"product of singles {product.real:+.1f}")


CHECKS: tuple[tuple[int, str, object], ...] = (
    (1, "hardy_weak_value_table", check_weak_value_table),
    (2, "postselection_probability", check_postselection_probability),
    (3, "abl_distribution_and_certainty", check_abl_and_certainty),
    (4, "identity_chain_rederivation", check_identity_chain),
    (5, "weak_value_additivity", check_additivity),
    (6, "weak_limit_convergence", check_weak_limit_convergence),
    (7, "strong_limit_reduction", check_strong_limit),
    (8, "monte_carlo_estimation", check_monte_carlo),
    (9, "simultaneous_measurement", check_simultaneous),
    (10, "collective_experiment", check_collective),
    (11, "non_multiplicativity", check_non_multiplicativity),
)


def run_check(criterion: int) -> CheckResult:
    for num, name, fn in CHECKS:
        if num == criterion:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # one broken check must not abort the report
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = (time.perf_counter() - start) * 1e3
            return CheckResult(num, name, bool(passed), str(detail), elapsed)
    raise KeyError(f"no criterion {criterion}")


def run_all() -> list[CheckResult]:
    return [run_check(num) for num, _, _ in CHECKS]
