"""The benchmark's child process: in-process requests, traced replays, probe.

run.py starts this file as one child process at a time:

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run --workload pointer_mc --seed 1 --seconds 40 --trace 0

``probe`` imports the package, fills caches and prints the environment record
and the CLI result schema.  ``run`` runs one workload as a closed loop with
one client and prints one JSON object: request times, failures and, with
``--trace 1``, the per-layer metrics.  In a traced run the same requests are
first run untraced, so the difference is the tracing overhead; each of the
two passes gets half of ``--seconds``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
import oracles
from workloads import (CDF_STRIDE, CHAINS, HARDY_NAMES, JOINT_CALLS, MIN_OVERLAP, READINGS,
                       VERIFY_ARGV, WORKLOADS, closed_loop)

# ---------------------------------------------------------------------------
# requests: each one times only the calls into weakmeas, then checks outputs
# ---------------------------------------------------------------------------

def verify_replays(validator):
    """In-process replays of the verify argv through weakmeas.cli.run."""
    import weakmeas.cli as cli

    while True:
        def request(clock):
            out, err = io.StringIO(), io.StringIO()
            with clock(), redirect_stdout(out), redirect_stderr(err):
                code = cli.run(list(VERIFY_ARGV))
            doc = out.getvalue()
            return checks.check_verify(code, doc, err.getvalue(), validator), len(doc.encode())

        yield request


def _random_states(rng, dim: int, min_overlap: float) -> tuple[np.ndarray, np.ndarray]:
    while True:
        pre, post = (v / np.linalg.norm(v) for v in
                     rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim)))
        if abs(np.vdot(post, pre)) >= min_overlap:
            return pre, post


def _random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def pointer_mc_requests(seed: int, scenario):
    from weakmeas import pointer, prepost
    from weakmeas.prepost import PrePostEnsemble
    from weakmeas.qcore import Observable, StateVector

    rng = np.random.default_rng([seed, 4])
    pre = scenario.ensemble.pre.amplitudes
    post = scenario.ensemble.post.amplitudes

    def part_a(clock, g, sample_seeds):
        problems = []
        for name, sample_seed in zip(HARDY_NAMES, sample_seeds):
            obs = scenario.observable(name)
            spec = pointer.CouplingSpec(obs, g=g, delta=1.0)
            with clock("a"):
                m = pointer.mixture(scenario.ensemble, spec)
                reading = pointer.sample(m, READINGS, seed=sample_seed)
                est = pointer.estimate(reading, g)
            sub = np.sort(reading.readings[::CDF_STRIDE])
            with clock("a"):
                cdf = pointer.position_cdf(m, sub)
            coeffs, shifts = oracles.branch_terms(obs.matrix, pre, post, g)
            problems += oracles.check_mixture(coeffs, shifts, m.coefficients, m.shifts)
            quad = oracles.Quadrature(coeffs, shifts, 1.0)
            problems += [f"{name}: {p}" for p in oracles.check_readings(
                quad, g, reading.readings, est.estimate, est.stderr, sub, cdf)]
        return problems

    def part_b(clock, chains):
        problems = []
        for (pre_b, post_b), h, g, window in chains:
            with clock("b"):
                ens = PrePostEnsemble(StateVector(pre_b), StateVector(post_b))
                obs = Observable.from_matrix(h)
                wv = prepost.weak_value(obs, ens)
                abl = prepost.abl_probabilities(obs, ens)
                m = pointer.mixture(ens, pointer.CouplingSpec(obs, g=g, delta=1.0))
                mean = pointer.position_mean(m)
                var = pointer.position_variance(m)
                mass = pointer.window_mass(m, *window)
            problems += oracles.check_weak_value_and_abl(h, pre_b, post_b, wv.value, abl.entries)
            coeffs, shifts = oracles.branch_terms(h, pre_b, post_b, g)
            problems += oracles.check_mixture(coeffs, shifts, m.coefficients, m.shifts)
            quad = oracles.Quadrature(coeffs, shifts, 1.0)
            problems += oracles.check_closed_forms(quad, mean, var, window, mass)
        return problems

    def joint(clock, couplings):
        problems = []
        for (pre_j, post_j), mats, g in couplings:
            with clock("joint"):
                ens = PrePostEnsemble(StateVector(pre_j), StateVector(post_j))
                specs = [pointer.CouplingSpec(Observable.from_matrix(h), g=g, delta=1.0)
                         for h in mats]
                means = pointer.simultaneous(ens, specs)
            problems += oracles.check_joint_means(pre_j, post_j, [(h, g, 1.0) for h in mats],
                                                 means)
        return problems

    while True:
        g_a = float(rng.uniform(0.02, 0.08))
        sample_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(HARDY_NAMES))]
        chains = []
        for _ in range(CHAINS):
            dim = int(rng.integers(2, 7))
            states = _random_states(rng, dim, MIN_OVERLAP)
            h = _random_hermitian(rng, dim)
            lo = float(rng.uniform(-1.0, 0.0))
            chains.append((states, h, float(rng.uniform(0.01, 0.1)),
                           (lo, lo + float(rng.uniform(0.2, 1.5)))))
        couplings = [(_random_states(rng, 2, 0.5),
                      (_random_hermitian(rng, 2), _random_hermitian(rng, 2)), 0.01)
                     for _ in range(JOINT_CALLS)]

        def request(clock, g_a=g_a, seeds=sample_seeds, chains=chains, couplings=couplings):
            problems = part_a(clock, g_a, seeds) + part_b(clock, chains)
            return problems + joint(clock, couplings), 0

        yield request


def make_requests(workload: str, seed: int, ctx: dict):
    if workload == "verify":
        return verify_replays(ctx["validator"])
    return pointer_mc_requests(seed, ctx["scenario"])


def warm_up(workload: str, ctx: dict) -> None:
    """Fill caches and finish lazy set-up before anything is timed."""
    from weakmeas import pointer

    sc = ctx["scenario"]
    if workload == "pointer_mc":
        m = pointer.mixture(sc.ensemble, pointer.CouplingSpec(
            sc.observable("N_pair_NO_NO"), g=0.05, delta=1.0))
        pointer.position_cdf(m, np.sort(pointer.sample(m, 10_000, seed=0).readings))


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path: str | None) -> dict:
    import jsonschema
    import weakmeas.cli
    from weakmeas import hardy

    ctx = {"scenario": hardy.build(),
           "validator": jsonschema.Draft7Validator(weakmeas.cli.result_schema())}
    warm_up(workload, ctx)
    if not trace:
        return closed_loop(make_requests(workload, seed, ctx), workload, seconds)

    from tracing import Tracer

    # the untraced and the traced pass share the run's time
    plain = closed_loop(make_requests(workload, seed, ctx), workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(make_requests(workload, seed, ctx), workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if trace_path:
        tracer.write(trace_path)
    k = min(plain["attempted"], traced["attempted"])
    plain_s, traced_s = sum(plain["request_s"][:k]), sum(traced["request_s"][:k])
    traced["layer"] = tracer.layer_metrics(traced["attempted"])
    traced["layer"]["trace.overhead_s"] = (traced_s - plain_s) / k
    traced["layer"]["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    traced["layer"]["cli.doc_bytes"] = traced["doc_bytes"][0]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["problems"] = (plain["problems"] + traced["problems"])[:10]
    return traced


def probe() -> dict:
    """Environment record and the CLI result schema, from a fresh import."""
    import mpmath
    import scipy
    import weakmeas
    import weakmeas.cli

    return {
        "weakmeas_file": weakmeas.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "schema": weakmeas.cli.result_schema(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-path")
    args = parser.parse_args()
    if args.mode == "probe":
        result = probe()
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_path)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
