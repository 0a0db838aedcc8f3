"""Self-contained checks behind the CLI ``verify`` command.

Each check re-derives one headline quantitative claim at its stated
tolerance and reports pass/fail with a short detail string.  The checks are
deterministic (fixed seeds) so a passing run is reproducible bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import sqrt

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


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed_ms: float


def check_weak_value_table() -> tuple[bool, str]:
    table = hardy.weak_value_table(hardy.build())
    dev = max(abs(table.entries[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE)
    return dev <= 1e-12, f"max deviation from (1,1,0,0,0,1,1,-1): {dev:.2e}"


def check_postselection_probability() -> tuple[bool, str]:
    p = prepost.postselection_probability(hardy.build().ensemble)
    dev = abs(p - 1.0 / 12.0)
    return dev <= 1e-12, f"|p - 1/12| = {dev:.2e}"


def check_abl_and_certainty() -> tuple[bool, str]:
    sc = hardy.build()
    report = hardy.ideal_measurement_facts(sc)
    dist = report.distributions["N_pair_NO_NO"].as_dict()
    dev = max(abs(dist[0.0] - 0.8), abs(dist[1.0] - 0.2))
    if dev > 1e-12:
        return False, f"N_pair_NO_NO odds off by {dev:.2e}"
    table = hardy.weak_value_table(sc).real_values()
    for name in hardy.OBSERVABLE_ORDER:
        if name == "N_pair_NO_NO":
            continue
        certain = report.certainties[name]
        if certain is None:
            return False, f"{name} not certain"
        top = max(p for _, p in report.distributions[name].entries)
        if abs(top - 1.0) > 1e-10:
            return False, f"{name} certainty probability off: {top}"
        if abs(certain - table[name]) > 1e-10:
            return False, f"{name}: certain value {certain} != weak value {table[name]}"
    return True, f"seven certainties, NO·NO odds within {dev:.2e} of 4/5 : 1/5"


def check_identity_chain() -> tuple[bool, str]:
    report = hardy.identity_chain(hardy.build())
    dev = max(abs(report.derived[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE)
    dev = max(dev, abs(report.appendix_pair_value + 1.0))
    worst_identity = max(report.identity_residuals.values())
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


def _random_hermitian(rng: np.random.Generator, dim: int) -> Observable:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Observable.from_matrix((g + g.conj().T) / 2.0)


def check_additivity(trials: int = 1000) -> tuple[bool, str]:
    rng = np.random.default_rng(ADDITIVITY_SEED)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 7))
        ens = _random_ensemble(rng, dim)
        a = _random_hermitian(rng, dim)
        b = _random_hermitian(rng, dim)
        ab = Observable.from_matrix(a.matrix + b.matrix)
        lhs = prepost.weak_value(ab, ens).value
        rhs = prepost.weak_value(a, ens).value + prepost.weak_value(b, ens).value
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"{trials} random triples, worst |(A+B)_w - A_w - B_w| = {worst:.2e}"


def check_weak_limit_convergence() -> tuple[bool, str]:
    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    couplings = (0.1, 0.05, 0.01)
    worst_final = 0.0
    worst_ratio = 1.0
    for name in hardy.OBSERVABLE_ORDER:
        errs = []
        for g in couplings:
            spec = pointer.CouplingSpec(sc.observable(name), g=g, delta=1.0)
            m = pointer.mixture(sc.ensemble, spec)
            errs.append(abs(pointer.position_mean(m) / g - table[name]))
        worst_final = max(worst_final, errs[-1])
        if max(errs) < 1e-12:
            continue  # rule-(a) observables: single-Gaussian mixture, exact shift
        consts = [e / g**2 for e, g in zip(errs, couplings)]
        worst_ratio = max(worst_ratio, max(consts) / min(consts))
    ok = worst_final < 1e-3 and worst_ratio <= 2.0
    return ok, (f"error at g/delta=0.01: {worst_final:.2e}; "
                f"quadratic-constant spread: {worst_ratio:.3f}")


def check_strong_limit() -> tuple[bool, str]:
    sc = hardy.build()
    spec = pointer.CouplingSpec(sc.observable("N_pair_NO_NO"), g=20.0, delta=1.0)
    m = pointer.mixture(sc.ensemble, spec)
    mass0 = pointer.window_mass(m, -2.0, 2.0)
    mass1 = pointer.window_mass(m, 18.0, 22.0)
    dev = max(abs(mass0 - 0.8), abs(mass1 - 0.2))
    return dev <= 1e-3, f"window masses ({mass0:.6f}, {mass1:.6f}) vs (4/5, 1/5), dev {dev:.2e}"


def check_monte_carlo() -> tuple[bool, str]:
    from scipy import stats  # only this check needs it; keeps the CLI cold start lean

    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    g, delta, trials = 0.05, 1.0, 100_000
    worst_pulls = 0.0
    worst_p = 1.0
    for name in hardy.OBSERVABLE_ORDER:
        spec = pointer.CouplingSpec(sc.observable(name), g=g, delta=delta)
        m = pointer.mixture(sc.ensemble, spec)
        reading = pointer.sample(m, trials, seed=MC_SEED)
        again = pointer.sample(m, trials, seed=MC_SEED)
        if reading.readings.tobytes() != again.readings.tobytes():
            return False, f"{name}: same seed produced different readings"
        est = pointer.estimate(reading, g)
        pulls = abs(est.estimate - table[name]) / est.stderr
        worst_pulls = max(worst_pulls, pulls)
        ks = stats.kstest(reading.readings, lambda x, mm=m: pointer.position_cdf(mm, x))
        worst_p = min(worst_p, ks.pvalue)
    ok = worst_pulls <= 3.0 and worst_p > 0.01
    return ok, f"worst |estimate - A_w|/stderr = {worst_pulls:.2f}; worst KS p-value = {worst_p:.3f}"


def check_simultaneous() -> tuple[bool, str]:
    sc = hardy.build()
    table = hardy.weak_value_table(sc).real_values()
    g = 0.01
    specs = [pointer.CouplingSpec(sc.observable(n), g=g, delta=1.0)
             for n in hardy.OBSERVABLE_ORDER]
    means = pointer.simultaneous(sc.ensemble, specs)
    dev = max(abs(mean / g - table[name])
              for mean, name in zip(means, hardy.OBSERVABLE_ORDER))
    if dev > 1e-2:
        return False, f"joint Hardy means off by {dev:.2e}"

    # two non-commuting qubit projectors against their separate weak values
    pre = StateVector(np.array([np.cos(0.3), np.sin(0.3)], dtype=complex))
    post = StateVector(np.array([np.cos(1.1), np.sin(1.1)], dtype=complex))
    ens = prepost.PrePostEnsemble(pre, post)
    a = Observable.from_matrix(np.diag([0.0, 1.0]).astype(complex), name="excited")
    b = Observable.from_matrix(np.full((2, 2), 0.5, dtype=complex), name="plus")
    specs2 = [pointer.CouplingSpec(a, g=g, delta=1.0),
              pointer.CouplingSpec(b, g=g, delta=1.0)]
    grid_means = pointer.simultaneous(ens, specs2)
    rel = max(
        abs(grid_means[k] / g - prepost.weak_value(o, ens).real)
        / abs(prepost.weak_value(o, ens).real)
        for k, o in enumerate((a, b)))
    ok = rel <= 0.01
    return ok, f"Hardy joint deviation {dev:.2e}; grid-oracle relative error {rel:.2e}"


def check_collective() -> tuple[bool, str]:
    sc = hardy.build()
    obs = sc.observable("N_pair_NO_NO")
    g = 1.0
    details = []
    for n in (25, 100, 400):
        spec = collective.CollectiveSpec(sc.ensemble, obs, n_pairs=n,
                                         g=g, delta=5.0 * g * sqrt(n))
        st = collective.collective_pointer_stats(spec)
        if abs(st.mean / g + n) > sqrt(n):
            return False, f"N={n}: mean/g = {st.mean / g:.2f} outside -N +- sqrt(N)"
        if st.mode >= 0.0:
            return False, f"N={n}: density mode {st.mode:.3f} not negative"
        details.append(f"N={n}: mean/g={st.mean / g:.2f}, mode={st.mode:.2f}")

    # brute-force tensor cross-check at N = 2, 3
    for n in (2, 3):
        spec = collective.CollectiveSpec(sc.ensemble, obs, n_pairs=n, g=0.05, delta=1.0)
        cm = collective.collective_mixture(spec)
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
        dev = max(abs(brute.coefficients[k] - cm.coefficient(k)) for k in range(n + 1))
        if dev > 1e-10:
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
