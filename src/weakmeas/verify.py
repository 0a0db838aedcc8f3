"""Self-contained checks behind the CLI ``verify`` command.

Each check re-derives one headline quantitative claim at its stated
tolerance and reports pass/fail with a short detail string.  The checks are
deterministic (fixed seeds) so a passing run is reproducible bit-for-bit.
Every Hardy fact is judged here, once; ``hardy`` returns plain data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from math import comb, sqrt

import numpy as np

from . import collective, hardy, pointer, prepost
from .qcore import Observable, StateVector, inner

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

# the seven occupations an ideal intermediate measurement finds with certainty
CERTAIN_SEVEN = tuple(name for name in hardy.OBSERVABLE_ORDER if name != "N_pair_NO_NO")

MC_SEED = 20260810
MC_TRIALS = 100_000
KS_D_CRITICAL = 0.005145321961471824  # scipy.stats.kstwo.isf(0.01, MC_TRIALS)
ADDITIVITY_SEED = 1337
ADDITIVITY_TRIALS = 1000
ADDITIVITY_BATCH = 16  # criterion 5's trials per stacked build, at most


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
    dev = _worst(abs(table[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE)
    return dev <= 1e-12, f"max deviation from (1,1,0,0,0,1,1,-1): {dev:.2e}"


def check_postselection_probability() -> tuple[bool, str]:
    """O·O annihilated, detector total 1, and D+D- given no annihilation = p = 1/12."""
    sc = hardy.build()
    survived = abs(inner(hardy.postselection_variants()["O_O"], sc.ensemble.pre))
    if not survived <= 1e-12:
        return False, f"annihilated O·O amplitude {survived:.2e} survived pre-selection"
    stats = hardy.detector_statistics(sc)
    conditional = stats.pop("D_plus_D_minus_given_no_annihilation")
    total_dev = abs(sum(stats.values()) - 1.0)
    if not total_dev <= 1e-12:
        return False, f"detector distribution total off 1 by {total_dev:.2e}"
    p = prepost.postselection_probability(sc.ensemble)
    conditional_dev = abs(conditional - p)
    if not conditional_dev <= 1e-12:
        return False, f"D+D- given no annihilation off p by {conditional_dev:.2e}"
    dev = abs(p - 1.0 / 12.0)
    return dev <= 1e-12, f"|p - 1/12| = {dev:.2e}"


def check_abl_and_certainty() -> tuple[bool, str]:
    """One ideal intermediate measurement per observable, post-selected.

    Seven of the eight outcomes are certain, each at its weak value; the NO·NO
    pair is the lone exception with odds 4/5 : 1/5, which is why its weak value
    has to come from additivity rather than from certainty.
    """
    sc = hardy.build()
    pair = sc.observable("N_pair_NO_NO")
    if prepost.certainty_check(pair, sc.ensemble) is not None:
        return False, "N_pair_NO_NO certain"
    dist = dict(prepost.abl_probabilities(pair, sc.ensemble).entries)
    dev = _worst([abs(dist[0.0] - 0.8), abs(dist[1.0] - 0.2)])
    if not dev <= 1e-12:
        return False, f"N_pair_NO_NO odds off by {dev:.2e}"
    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
    for name in CERTAIN_SEVEN:
        obs = sc.observable(name)
        certain = prepost.certainty_check(obs, sc.ensemble)
        if certain is None:
            return False, f"{name} not certain"
        top = _worst(p for _, p in prepost.abl_probabilities(obs, sc.ensemble).entries)
        if not abs(top - 1.0) <= 1e-10:
            return False, f"{name} certainty probability off: {top}"
        if not abs(certain - table[name]) <= 1e-10:
            return False, f"{name}: certain value {certain} != weak value {table[name]}"
    return True, f"seven certainties, NO·NO odds within {dev:.2e} of 4/5 : 1/5"


def check_identity_chain() -> tuple[bool, str]:
    """Check the operator identities, then rebuild the table by logic alone.

    The identities are seven occupation sums and four pair products.  The
    anchors are the three conditionally certain facts (electron in O,
    positron in O, no pair in O·O); additivity of weak values carries them
    through the identities to all eight entries.  The pair completeness
    identity also gives the NO·NO pair value on its own, appendix-style, from
    the seven certain ones.
    """
    sc = hardy.build()
    ident = np.eye(4)
    mat = {name: o.matrix for name, o in sc.observables.items()}
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
    identities.update((f"pair_{x}_{y}_product",
                       mat[f"N_pair_{x}_{y}"] - mat[f"N_plus_{x}"] @ mat[f"N_minus_{y}"])
                      for x in hardy.ARMS for y in hardy.ARMS)
    worst_identity = _worst(float(np.max(np.abs(m))) for m in identities.values())

    # criterion 3 judges that the seven are certain; one that is not reads as
    # NaN here, and fails the deviations below
    inputs = {}
    for name in CERTAIN_SEVEN:
        eig = prepost.certainty_check(sc.observable(name), sc.ensemble)
        inputs[name] = np.nan if eig is None else eig
    derived = {name: inputs[name] for name in ("N_minus_O", "N_plus_O", "N_pair_O_O")}
    derived["N_minus_NO"] = 1.0 - derived["N_minus_O"]
    derived["N_plus_NO"] = 1.0 - derived["N_plus_O"]
    derived["N_pair_NO_O"] = derived["N_minus_O"] - derived["N_pair_O_O"]
    derived["N_pair_O_NO"] = derived["N_plus_O"] - derived["N_pair_O_O"]
    derived["N_pair_NO_NO"] = (1.0 - derived["N_pair_O_O"]
                               - derived["N_pair_NO_O"] - derived["N_pair_O_NO"])
    appendix = 1.0 - inputs["N_pair_O_O"] - inputs["N_pair_NO_O"] - inputs["N_pair_O_NO"]

    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
    table_dev = _worst([*(abs(derived[k] - table[k]) for k in hardy.OBSERVABLE_ORDER),
                        abs(appendix - table["N_pair_NO_NO"])])
    if not table_dev <= 1e-12:
        return False, f"derived table deviates from the direct one by {table_dev:.2e}"
    dev = _worst([*(abs(derived[k] - EXPECTED_TABLE[k]) for k in EXPECTED_TABLE),
                  abs(appendix + 1.0)])
    ok = dev <= 1e-12 and worst_identity <= 1e-12
    return ok, f"derived-table deviation {dev:.2e}, identity residual {worst_identity:.2e}"


def check_additivity() -> tuple[bool, str]:
    """(A+B)_w = A_w + B_w on random (pre, post, A, B) of dimension 2 to 6.  A
    dimension's trials are built ADDITIVITY_BATCH at a time, as soon as the draws
    fill a batch; the short batches left are built last.  Per batch, A and B are
    one stack, A + B another, and all weak values <post|M|pre> / <post|pre> one product."""
    rng = np.random.default_rng(ADDITIVITY_SEED)
    errs = np.empty(ADDITIVITY_TRIALS)
    open_batches = {}  # dimension -> its open batch: (trial, pre, post, overlap, normals) each

    def build(batch):
        index, pre, post, overlaps, drawn = map(np.array, zip(*batch))
        g = drawn[:, 0::2] + 1j * drawn[:, 1::2]  # each trial's (A, B) draws
        herms = ((g + g.conj().swapaxes(2, 3)) / 2.0).reshape(-1, *g.shape[2:])
        ab = np.array([x.matrix for x in Observable._from_matrices(herms)]).reshape(g.shape)
        sums = np.array([x.matrix for x in Observable._from_matrices(ab[:, 0] + ab[:, 1])])
        mats = np.concatenate([ab, sums[:, None]], axis=1)  # (trials, 3, dim, dim)
        wv = (post.conj()[:, None, None, :] @ (mats @ pre[:, None, :, None]))[..., 0, 0]
        wv /= overlaps[:, None]
        diff = wv[:, 2] - (wv[:, 0] + wv[:, 1])
        errs[index] = np.hypot(diff.real, diff.imag)  # bit for bit Python's abs of a complex

    for t in range(ADDITIVITY_TRIALS):
        dim = int(rng.integers(2, 7))
        while True:
            z = rng.standard_normal((4, dim))
            # np.linalg.norm's arithmetic for a complex vector, without its dispatch
            pre, post = (v / sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
                         for v in (z[0] + 1j * z[1], z[2] + 1j * z[3]))
            overlap = np.vdot(post, pre)
            if abs(overlap) > 1e-3:
                break
        batch = open_batches.setdefault(dim, [])
        batch.append((t, pre, post, overlap, rng.standard_normal((4, dim, dim))))
        if len(batch) == ADDITIVITY_BATCH:
            build(open_batches.pop(dim))
    for batch in open_batches.values():
        build(batch)
    worst = _worst(errs)
    return (worst < 1e-10,
            f"{ADDITIVITY_TRIALS} random triples, worst |(A+B)_w - A_w - B_w| = {worst:.2e}")


def check_weak_limit_convergence() -> tuple[bool, str]:
    sc = hardy.build()
    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
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
    # one sample-sized buffer at a time: (i + 1)/n - c_i, then c_i - i/n
    ramp = np.arange(1.0, n + 1)
    ramp /= n
    d_plus = np.subtract(ramp, cdfvals, out=ramp).max()
    del ramp
    ramp = np.arange(0.0, n)
    ramp /= n
    d_minus = np.subtract(cdfvals, ramp, out=ramp).max()
    return float(max(d_plus, d_minus))


def check_monte_carlo() -> tuple[bool, str]:
    """A pull and a KS distance per observable; observables whose mixtures are
    bit-identical (the eight Hardy ones are four) share one sample and test.
    D below the 1% critical value is a KS p-value above 0.01: P(D_n >= d) falls in d."""
    sc = hardy.build()
    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
    g, delta = 0.05, 1.0
    pulls, distances = [], []
    runs = {}  # (coefficients, shifts) bytes -> (estimate, KS distance)
    for name in hardy.OBSERVABLE_ORDER:
        m = pointer.mixture(sc.ensemble, pointer.CouplingSpec(sc.observable(name), g, delta))
        key = (m.coefficients.tobytes(), m.shifts.tobytes())
        if key not in runs:
            reading = pointer.sample(m, MC_TRIALS, seed=MC_SEED)
            # bytewise, as comparing tobytes() is, without two byte copies; the
            # resample is freed as soon as it is compared
            if not np.array_equal(reading.readings.view(np.uint64),
                                  pointer.sample(m, MC_TRIALS, seed=MC_SEED).readings.view(np.uint64)):
                return False, f"{name}: same seed produced different readings"
            # each sample-sized array is dropped once the next is made from it
            est = pointer.estimate(reading, g)
            ordered = np.sort(reading.readings)
            del reading
            cdfvals = pointer.position_cdf(m, ordered)
            del ordered
            runs[key] = est, _ks_statistic(cdfvals)
            del cdfvals
        est, d = runs[key]
        pulls.append(abs(est.estimate - table[name]) / est.stderr)
        distances.append(d)
    worst_pulls, worst_d = _worst(pulls), _worst(distances)
    ok = worst_pulls <= 3.0 and worst_d < KS_D_CRITICAL
    root_n = sqrt(MC_TRIALS)
    return ok, (f"worst |estimate - A_w|/stderr = {worst_pulls:.2f}; worst KS sqrt(n) D = "
                f"{root_n * worst_d:.3f} (1% critical value {root_n * KS_D_CRITICAL:.3f})")


def check_simultaneous() -> tuple[bool, str]:
    sc = hardy.build()
    table = {k: v.real for k, v in hardy.weak_value_table(sc).items()}
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
    weak = [prepost.weak_value(o, ens).value.real for o in (a, b)]
    rel = _worst(abs(mean / g - w) / abs(w) for mean, w in zip(pair_means, weak))
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

    # brute-force tensor cross-check at N = 2, 3 against the binomial coefficients:
    # the pair count is diagonal in the product basis, so c_k = <post|P_k|pre> is
    # the sum over the basis states holding k NO·NO pairs
    alpha0, alpha1 = prepost.branch_amplitudes(obs, sc.ensemble)
    per_pair = np.diag(obs.matrix).real
    for n in (2, 3):
        big_pre = reduce(np.kron, [sc.ensemble.pre.amplitudes] * n)
        big_post = reduce(np.kron, [sc.ensemble.post.amplitudes] * n)
        pairs = reduce(np.add.outer, [per_pair] * n).ravel()
        dev = _worst(abs(np.vdot(big_post[pairs == k], big_pre[pairs == k])
                         - comb(n, k) * alpha1**k * alpha0**(n - k))
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
