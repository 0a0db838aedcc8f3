"""Collective N-pair coupling: factorized mixtures and pointer statistics.

The N = 2, 3 cases are cross-checked against the literal tensor-power
construction (dim 16 / 64) built from the core modules; larger N is checked
against the arbitrary-precision position-space oracle in ``mpmath_oracle``.
Small N is also checked against the explicit N+1 term binomial mixture.
"""

import tracemalloc
from math import comb, sqrt
from unittest import mock

import mpmath_oracle
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from spectral_oracle import diagonal, from_projectors, identity

from weakmeas import collective, hardy, pointer
from weakmeas.collective import (
    MODE_TOL_FACTOR,
    CollectiveSpec,
    collective_pointer_stats,
    collective_weak_value,
    density_grid,
    success_probability,
)
from weakmeas.errors import DimensionMismatchError, QuadratureError
from weakmeas.pointer import MAX_PDF_POINTS
from weakmeas.prepost import PrePostEnsemble, branch_amplitudes, weak_value
from weakmeas.qcore import Observable, StateVector

SQRT3 = np.sqrt(3.0)
MODE_REFINED_TOL = 5e-8  # mode against the refined mpmath mode, in units of delta


def normalized(*amps):
    arr = np.array(amps, dtype=complex)
    return StateVector(arr / np.linalg.norm(arr))


def make_spec(scenario, name="N_pair_NO_NO", n=1, g=0.05, delta=1.0):
    return CollectiveSpec(scenario.ensemble, scenario.observable(name),
                          n_pairs=n, g=g, delta=delta)


def binomial_mixture(spec: CollectiveSpec) -> pointer.PointerMixture:
    """The N+1 term collective pointer mixture, written out.

    c_k = C(N, k) alpha_1^k alpha_0^(N-k) and shift_k = g (N a0 + k (a1 - a0));
    valid while the coefficients fit in doubles.
    """
    alpha0, alpha1 = branch_amplitudes(spec.observable, spec.ensemble)
    a0, a1 = spec.observable.eigenvalues
    n = spec.n_pairs
    k = np.arange(n + 1)
    coeffs = [comb(n, j) * alpha1**j * alpha0**(n - j) for j in range(n + 1)]
    return pointer.PointerMixture(np.array(coeffs), spec.g * (n * a0 + (a1 - a0) * k),
                                  spec.delta)


def tensor_power_mixture(scenario, name, n, g, delta):
    """Literal tensor-space construction of the collective pointer mixture."""
    obs = scenario.observable(name)
    pre = scenario.ensemble.pre.amplitudes
    post = scenario.ensemble.post.amplitudes
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
    ens = PrePostEnsemble(StateVector(big_pre), StateVector(big_post))
    return pointer.mixture(ens, pointer.CouplingSpec(
        Observable.from_matrix(total), g=g, delta=delta))


class TestSpec:
    def test_requires_two_eigenvalues(self, scenario):
        with pytest.raises(ValueError, match="two distinct"):
            CollectiveSpec(scenario.ensemble, identity(4),
                           n_pairs=2, g=1.0, delta=1.0)

    def test_rejects_negative_pairs(self, scenario):
        with pytest.raises(ValueError):
            make_spec(scenario, n=-1)

    @pytest.mark.parametrize("n", [0, -1, 2.5, float("nan"), float("inf")])
    def test_n_pairs_must_be_an_integer_at_least_one(self, scenario, n):
        with pytest.raises(ValueError, match=f"n_pairs must be an integer >= 1, got {n}"):
            make_spec(scenario, n=n)

    def test_regime_flag(self, scenario):
        assert make_spec(scenario, n=4, g=0.1, delta=1.0).in_regime
        assert not make_spec(scenario, n=400, g=0.1, delta=1.0).in_regime

    def test_dimension_mismatch_has_one_error_class(self, scenario):
        # a WeakMeasError (exit 3) from every entry point, not a plain ValueError from some
        two = diagonal([0, 1])
        message = "observable dim 2 != ensemble dim 4"
        with pytest.raises(DimensionMismatchError, match=message):
            CollectiveSpec(scenario.ensemble, two, n_pairs=2, g=0.05, delta=1.0)
        with pytest.raises(DimensionMismatchError, match=message):
            pointer.mixture(scenario.ensemble, pointer.CouplingSpec(two, g=0.05, delta=1.0))


class TestMixture:
    def test_single_pair_matches_pointer_module(self, scenario):
        spec = make_spec(scenario, n=1)
        cm = binomial_mixture(spec)
        direct = pointer.mixture(
            scenario.ensemble,
            pointer.CouplingSpec(spec.observable, g=spec.g, delta=spec.delta))
        np.testing.assert_allclose(cm.coefficients, direct.coefficients, atol=1e-15)
        np.testing.assert_allclose(cm.shifts, direct.shifts, atol=1e-15)

    def test_two_pairs_binomial_weights(self, scenario):
        spec = make_spec(scenario, n=2)
        a0, a1 = branch_amplitudes(spec.observable, spec.ensemble)
        cm = binomial_mixture(spec)
        np.testing.assert_allclose(
            cm.coefficients, [a0**2, 2 * a0 * a1, a1**2], atol=1e-15)

    def test_coefficients_sum_to_overlap_power(self, scenario):
        for n in (1, 2, 5, 9):
            spec = make_spec(scenario, n=n)
            total = binomial_mixture(spec).coefficients.sum()
            assert total == pytest.approx(scenario.ensemble.overlap**n, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_tensor_power_construction(self, scenario, n):
        cm = binomial_mixture(make_spec(scenario, n=n))
        brute = tensor_power_mixture(scenario, "N_pair_NO_NO", n, g=0.05, delta=1.0)
        np.testing.assert_allclose(brute.shifts, cm.shifts, atol=1e-12)
        for k in range(n + 1):
            assert brute.coefficients[k] == pytest.approx(cm.coefficients[k], abs=1e-10)

    def test_zero_pairs_rejected(self, scenario):
        # judged once, by the spec, before any statistic or density is asked for
        with pytest.raises(ValueError, match="n_pairs must be an integer >= 1"):
            make_spec(scenario, n=0)


class TestWeakValue:
    def test_total_is_n_times_single(self, scenario):
        assert collective_weak_value(make_spec(scenario, n=100)) == pytest.approx(
            -100.0, abs=1e-10)
        assert collective_weak_value(
            make_spec(scenario, name="N_minus_O", n=100)) == pytest.approx(100.0, abs=1e-10)

    def test_single_pair_reduces(self, scenario):
        single = weak_value(scenario.observable("N_pair_NO_NO"), scenario.ensemble).value
        assert collective_weak_value(make_spec(scenario, n=1)) == pytest.approx(single)


class TestSuccessProbability:
    def test_values(self, scenario):
        assert success_probability(make_spec(scenario, n=1)) == pytest.approx(
            1.0 / 12.0, abs=1e-12)
        assert success_probability(make_spec(scenario, n=2)) == pytest.approx(
            1.0 / 144.0, abs=1e-14)

    def test_exponentially_small(self, scenario):
        assert success_probability(make_spec(scenario, n=100)) < 1e-100

    @pytest.mark.parametrize("n", [1, 10**12, 10**15])
    def test_never_above_one(self, n):
        # |<post|pre>| = 1 + 5e-13 passes the normalisation tolerance; its 2N-th
        # power reached 1.000000000001, e, and inf at these N
        state = StateVector(np.array([1.0 + 2.5e-13, 0.0], dtype=complex))
        spec = CollectiveSpec(PrePostEnsemble(state, state), diagonal([0.0, 1.0]),
                              n_pairs=n, g=0.05, delta=1.0)
        assert success_probability(spec) == 1.0


class TestPointerStats:
    def test_certain_branch_is_exact_gaussian(self, scenario):
        # electron-in-O is conditionally certain: the a=0 branch is (numerically)
        # dead and the density is one Gaussian at N*g with stddev delta/2
        n, g = 6, 0.1
        spec = make_spec(scenario, name="N_minus_O", n=n, g=g, delta=2.0)
        stats = collective_pointer_stats(spec)
        assert stats.mean == pytest.approx(n * g, abs=1e-12)
        assert stats.mode == pytest.approx(n * g, abs=1e-6 * spec.delta)
        assert stats.spread == pytest.approx(2.0 / 2.0, abs=1e-12)

    def test_exact_zero_branch_short_circuits(self):
        # literal eigenstate selections make one branch exactly zero
        pre = StateVector(np.array([0, 1], dtype=complex))
        ens = PrePostEnsemble(pre, pre)
        spec = CollectiveSpec(ens, diagonal([0.0, 1.0]),
                              n_pairs=8, g=0.5, delta=3.0)
        stats = collective_pointer_stats(spec)
        assert stats.mean == pytest.approx(4.0, abs=1e-15)
        assert stats.mode == pytest.approx(4.0, abs=1e-15)
        assert stats.spread == pytest.approx(1.5, abs=1e-15)

    def test_single_pair_strong_regime_recovers_abl(self, scenario):
        spec = make_spec(scenario, n=1, g=20.0, delta=1.0)
        stats = collective_pointer_stats(spec)
        assert not spec.in_regime  # strong coupling flagged, computation still runs
        pm = binomial_mixture(spec)
        assert pointer.window_mass(pm, -2.0, 2.0) == pytest.approx(0.8, abs=1e-3)
        assert pointer.window_mass(pm, 18.0, 22.0) == pytest.approx(0.2, abs=1e-3)
        # taller branch dominates: global mode at the a=0 shift
        assert stats.mode == pytest.approx(0.0, abs=1e-3)

    def test_superoscillation_mode_negative(self, scenario):
        n = 100
        spec = make_spec(scenario, n=n, g=1.0, delta=5.0 * sqrt(n))
        stats = collective_pointer_stats(spec)
        assert np.all(binomial_mixture(spec).shifts >= 0.0)
        assert stats.mode < 0.0
        assert stats.mean / 1.0 == pytest.approx(-n, abs=sqrt(n))

    def test_mean_scaling_at_n_25(self, scenario):
        n = 25
        spec = make_spec(scenario, n=n, g=1.0, delta=5.0 * sqrt(n))
        stats = collective_pointer_stats(spec)
        assert abs(stats.mean + n) <= sqrt(n)
        assert spec.in_regime

    def test_small_n_matches_double_precision_pointer(self, scenario):
        # below the cancellation wall both routes are valid: they must agree
        spec = make_spec(scenario, n=3, g=0.05, delta=1.0)
        stats = collective_pointer_stats(spec)
        pm = binomial_mixture(spec)
        assert stats.mean == pytest.approx(pointer.position_mean(pm), abs=1e-10)
        assert stats.spread == pytest.approx(
            sqrt(pointer.position_variance(pm)), abs=1e-10)

    def test_shifted_eigenvalues(self):
        # nothing assumes a zero lower eigenvalue
        ens = PrePostEnsemble(normalized(1, 1), normalized(3, -1))
        spec = CollectiveSpec(ens, diagonal([2.0, 5.0]),
                              n_pairs=4, g=0.07, delta=1.3)
        stats = collective_pointer_stats(spec)
        pm = binomial_mixture(spec)
        assert stats.mean == pytest.approx(pointer.position_mean(pm), abs=1e-10)
        assert stats.spread == pytest.approx(
            sqrt(pointer.position_variance(pm)), abs=1e-10)
        grid = np.linspace(-3.0, 6.0, 400001)
        pdf = pointer.position_pdf(pm, grid)
        assert stats.mode == pytest.approx(grid[np.argmax(pdf)], abs=1e-4)

    def test_width_sweep_tracks_weak_value(self, scenario):
        # c = delta/(g sqrt(N)) from 2 to 10: mean stays within sqrt(N) of -N
        n = 25
        for c in (2.0, 5.0, 10.0):
            spec = make_spec(scenario, n=n, g=1.0, delta=c * sqrt(n))
            stats = collective_pointer_stats(spec)
            assert abs(stats.mean + n) <= sqrt(n), f"c={c}"


def direct_density(p, psi, grid):
    """|sum_j psi~_j exp(i p_j q)|^2 term by term, 64 values of q at a time."""
    parts = np.stack([psi.real, psi.imag], axis=1)
    rows = []
    for q in np.array_split(grid, -(-grid.size // 64)):
        phase = np.outer(q, p)
        (cr, ci), (sr, si) = (np.cos(phase) @ parts).T, (np.sin(phase) @ parts).T
        rows.append((cr - si) ** 2 + (ci + sr) ** 2)
    return np.concatenate(rows)


def scanned(run, *args):
    """run(*args), and the grids that ``collective._density_scan`` scanned meanwhile."""
    with mock.patch.object(collective, "_density_scan", wraps=collective._density_scan) as scan:
        result = run(*args)
    return result, [call.args[2] for call in scan.call_args_list]


class TestDensityGrid:
    def test_normalized_and_peaked_at_mode(self, scenario):
        n = 25
        spec = make_spec(scenario, n=n, g=1.0, delta=5.0 * sqrt(n))
        grid, pdf = density_grid(spec, points=2001)
        assert trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-9)
        stats = collective_pointer_stats(spec)
        assert grid[np.argmax(pdf)] == pytest.approx(stats.mode, abs=grid[1] - grid[0])

    @pytest.mark.parametrize("points", [0, 1, -3, 2.5, np.nan, np.inf, MAX_PDF_POINTS + 1])
    def test_points_outside_the_rule_raise_before_the_quadrature(self, scenario, monkeypatch,
                                                                 points):
        def refuse(spec):
            raise AssertionError("quadrature ran before points was judged")

        monkeypatch.setattr(collective, "_momentum_pointer", refuse)
        with pytest.raises(ValueError, match="points must be an integer in"):
            density_grid(make_spec(scenario, n=4), points)

    @pytest.mark.parametrize("points", [2, 3.0, MAX_PDF_POINTS])
    def test_points_at_the_rule_edges(self, scenario, points):
        grid, pdf = density_grid(make_spec(scenario, n=4), points)
        assert grid.size == pdf.size == points
        assert np.isfinite(pdf).all()

    @pytest.mark.parametrize("n", [25, 400, 10_000])
    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_scan_matches_the_direct_sum(self, scenario, n, c):
        spec = make_spec(scenario, n=n, g=1.0, delta=c * sqrt(n))
        p, psi, _, _ = collective._momentum_pointer(spec)
        windows = [collective._window(spec, points) for points in (2, 3, 256, 4096)]
        _, (_, *zooms) = scanned(collective._mode_search, spec, p, psi)
        # each zoom is checked at every 8th point, to bound the direct sum's cost
        strided = [(grid, 1) for grid in windows] + [(grid, 8) for grid in zooms]
        pairs = [(direct_density(p, psi, grid[::k]), collective._density_scan(p, psi, grid)[::k])
                 for grid, k in strided]
        peak = pairs[3][0].max()
        for ref, scan in pairs:
            np.testing.assert_allclose(scan, ref, rtol=0.0, atol=1e-10 * peak)
        # the windows only: on the last zoom both argmaxes are rounding noise
        for points, (ref, scan) in zip((2, 3, 256, 4096), pairs):
            if ref.max() > 1e-6 * peak:  # at 2 points both window edges are rounding noise
                assert np.argmax(scan) == np.argmax(ref), points

    @pytest.mark.parametrize("name, n, g, delta", [
        ("N_pair_NO_NO", 100_000, 0.05, 5.0 * 0.05 * sqrt(100_000)),
        ("N_minus_O", 1000, 1.0, 0.2464),  # the widest window the grid cap allows, 4,068 delta
        ("N_pair_NO_NO", 1, 1e-3, 1.0),  # the narrowest, 10 delta
    ])
    def test_mode_search_takes_three_scans(self, scenario, name, n, g, delta):
        # the window and two zooms: any window from 4.2 to 8,585 delta stops at the third
        _, grids = scanned(collective_pointer_stats, make_spec(scenario, name, n, g, delta))
        assert len(grids) == 3

    def test_working_set_at_the_limits(self, scenario):
        # N = 10^5 (a momentum grid near 6*10^4 points) at the most points;
        # near 940 MB with the scan as two sqrt(points) x m factor matrices
        spec = make_spec(scenario, n=100_000, g=0.05, delta=5.0 * 0.05 * sqrt(100_000))
        tracemalloc.start()
        try:
            density_grid(spec, MAX_PDF_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestWindowCoversTheDensity:
    """The scan window reaches N*g*Re(A_w), also where it lies beyond every shift."""

    # Re(A_w) = 2 for these pairs: the density sits near 2N*g, the shifts end at N*g
    @pytest.mark.parametrize("n", [5_000, 10_000, 40_000])
    @pytest.mark.parametrize("post, name", [("C_plus_D_minus", "N_minus_NO"),
                                            ("D_plus_C_minus", "N_plus_NO")])
    def test_mode_and_density_peak_at_the_mean(self, scenario, post, name, n):
        ens = PrePostEnsemble(scenario.ensemble.pre, hardy.postselection_variants()[post])
        spec = CollectiveSpec(ens, scenario.observable(name), n_pairs=n, g=1.0,
                              delta=5.0 * sqrt(n))
        assert weak_value(spec.observable, ens).value.real > 1.5
        stats = collective_pointer_stats(spec)
        assert abs(stats.mode - stats.mean) <= stats.spread
        grid, pdf = density_grid(spec, 4096)
        assert abs(grid[np.argmax(pdf)] - stats.mean) <= stats.spread

    def test_offset_eigenvalues(self, scenario):
        # 10^6 I + N_pair_NO_NO: the same branches, every shift and the mean moved by 5*10^7
        n, delta = 50, 5.0 * sqrt(50)
        plain = make_spec(scenario, n=n, g=1.0, delta=delta)
        base = plain.observable
        offset = CollectiveSpec(scenario.ensemble,
                                from_projectors([1e6 + a for a in base.eigenvalues],
                                                base.projectors),
                                n_pairs=n, g=1.0, delta=delta)
        want, got = collective_pointer_stats(plain), collective_pointer_stats(offset)
        assert got.mean - 5e7 == pytest.approx(want.mean, abs=4 * np.spacing(5e7))
        assert got.spread == pytest.approx(want.spread, rel=1e-9)


def assert_matches_oracle(spec):
    fast, grids = scanned(collective_pointer_stats, spec)
    slow = mpmath_oracle.collective_pointer_stats(spec)
    assert fast.mean == pytest.approx(slow.mean, abs=1e-9)
    assert fast.spread == pytest.approx(slow.spread, abs=1e-9)
    assert fast.mode == pytest.approx(slow.mode, abs=MODE_TOL_FACTOR * spec.delta)
    assert fast.mode == pytest.approx(mpmath_oracle.refine_mode(spec, slow.mode),
                                      abs=MODE_REFINED_TOL * spec.delta)
    assert len(grids) == 3  # the window and two zooms


class TestAgainstMpmathOracle:
    """The float64 momentum-space path against the seed's mpmath position-space sums."""

    @pytest.mark.parametrize("n", [25, 100])
    @pytest.mark.parametrize("c", [5.0, 2.0, 1.0, 0.25])
    def test_hardy_pair_width_sweep(self, scenario, c, n):
        assert_matches_oracle(make_spec(scenario, n=n, g=1.0, delta=c * sqrt(n)))

    def test_complex_amplitudes(self):
        ens = PrePostEnsemble(normalized(1, 0.4 + 0.7j), normalized(0.8 - 0.3j, -0.5 + 0.2j))
        spec = CollectiveSpec(ens, diagonal([0.0, 1.0]),
                              n_pairs=60, g=1.0, delta=5.0 * sqrt(60))
        assert branch_amplitudes(spec.observable, ens)[0].imag != 0.0
        assert_matches_oracle(spec)

    def test_shifted_eigenvalues(self):
        ens = PrePostEnsemble(normalized(1, 1), normalized(3, -1))
        assert_matches_oracle(CollectiveSpec(ens, diagonal([2.0, 5.0]),
                                             n_pairs=40, g=0.07, delta=1.3))

    def test_strong_single_pair_and_near_dead_branch(self, scenario):
        assert_matches_oracle(make_spec(scenario, n=1, g=20.0, delta=1.0))
        assert_matches_oracle(make_spec(scenario, name="N_minus_O", n=6, g=0.1, delta=2.0))

    @pytest.mark.parametrize("n", [25, 100])
    def test_density_grid(self, scenario, n):
        spec = make_spec(scenario, n=n, g=1.0, delta=1.0 * sqrt(n))
        grid, pdf = density_grid(spec, points=801)
        ref_grid, ref_pdf = mpmath_oracle.density_grid(spec, points=801)
        np.testing.assert_array_equal(grid, ref_grid)
        np.testing.assert_allclose(pdf, ref_pdf, rtol=0.0, atol=1e-9 * ref_pdf.max())

    @pytest.mark.parametrize("c, expected", [
        (5.0, (-399.8572699983801, -399.714859972851, 45.829573126932075)),
        (1.0, (13.729135860957678, 15.729593083815017, 15.239719854630914)),
    ])
    def test_n400_pinned_to_oracle_values(self, scenario, c, expected):
        # the oracle's own N = 400 mean and spread, and its mode refined by
        # mpmath_oracle.refine_mode; too slow to recompute in the suite
        spec = make_spec(scenario, n=400, g=1.0, delta=c * 20.0)
        stats = collective_pointer_stats(spec)
        mean, mode, spread = expected
        assert (stats.mean, stats.spread) == pytest.approx((mean, spread), abs=1e-9)
        assert stats.mode == pytest.approx(mode, abs=MODE_REFINED_TOL * spec.delta)


class TestQuadratureLimits:
    # the size cap is exercised through the CLI (exit 3) in test_cli.py
    def test_unresolved_grid_raises(self, scenario, monkeypatch):
        # an edge that cuts into the peak leaves the step-halving check unconverged
        monkeypatch.setattr(collective, "EDGE_LOG_DECAY", -2.0)
        spec = make_spec(scenario, n=1, g=1.0, delta=1.0)
        with pytest.raises(QuadratureError, match="unresolved"):
            collective_pointer_stats(spec)
        with pytest.raises(QuadratureError):
            density_grid(spec)

    def test_nan_coarse_mean_raises(self, scenario, monkeypatch):
        # a NaN mean from every second point must fail the step-halving check
        moments, seen = collective._moments, []

        def nan_coarse(weight, lq):
            mean, var = moments(weight, lq)
            if seen:  # the second call is the coarse one
                return float("nan"), var
            seen.append(mean)
            return mean, var

        monkeypatch.setattr(collective, "_moments", nan_coarse)
        with pytest.raises(QuadratureError, match="unresolved"):
            collective_pointer_stats(make_spec(scenario, n=25))


amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def two_level_specs(draw):
    pre = np.array([draw(amplitudes) for _ in range(2)])
    post = np.array([draw(amplitudes) for _ in range(2)])
    for vec in (pre, post):
        if np.linalg.norm(vec) < 0.1:
            vec[0] = 1.0
    pre, post = pre / np.linalg.norm(pre), post / np.linalg.norm(post)
    if abs(np.vdot(post, pre)) < 0.1:
        post = pre
    a0 = draw(st.floats(-3.0, 3.0))
    a1 = a0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))
    return CollectiveSpec(PrePostEnsemble(StateVector(pre), StateVector(post)),
                          diagonal([a0, a1]), n_pairs=1,
                          g=draw(st.floats(0.01, 2.0)), delta=draw(st.floats(0.1, 3.0)))


class TestProperties:
    @given(two_level_specs())
    def test_single_pair_equals_pointer_mixture(self, spec):
        stats = collective_pointer_stats(spec)
        pm = pointer.mixture(spec.ensemble, pointer.CouplingSpec(
            spec.observable, g=spec.g, delta=spec.delta))
        scale = max(stats.spread, abs(stats.mean))
        assert stats.mean == pytest.approx(pointer.position_mean(pm), abs=1e-9 * scale)
        assert stats.spread == pytest.approx(
            sqrt(pointer.position_variance(pm)), abs=1e-9 * scale)

    @given(n=st.integers(1, 60), c=st.floats(2.0, 6.0), lam=st.floats(1e-3, 1e3))
    def test_coupling_and_width_scale_together(self, scenario, n, c, lam):
        base = collective_pointer_stats(make_spec(scenario, n=n, g=1.0, delta=c * sqrt(n)))
        scaled = collective_pointer_stats(
            make_spec(scenario, n=n, g=lam, delta=lam * c * sqrt(n)))
        tol = 1e-9 * lam * base.spread
        assert scaled.mean == pytest.approx(lam * base.mean, abs=tol)
        assert scaled.spread == pytest.approx(lam * base.spread, abs=tol)
        assert scaled.mode == pytest.approx(
            lam * base.mode, abs=2 * MODE_TOL_FACTOR * lam * c * sqrt(n))
