"""Pointer dynamics: mixtures, read-out statistics, sampling, joint couplings.

Closed-form results are cross-checked against independent numerical oracles:
brute-force quadrature for position moments, an FFT momentum-space grid for
the momentum mean, a Kolmogorov-Smirnov test for the sampler, and for joint
couplings a two-pointer FFT grid evolution and the joint-eigenspace closed
form of commuting families.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import trapezoid
from spectral_oracle import diagonal

from weakmeas import hardy
from weakmeas.errors import (
    AllBranchesVanishError,
    QuadratureError,
    UnsupportedConfigurationError,
)
from weakmeas.pointer import (
    MAX_JOINT_TERMS,
    MAX_TRIALS,
    MOMENTUM_SHIFT_FACTOR,
    CouplingSpec,
    PointerMixture,
    ReadingSample,
    estimate,
    mixture,
    momentum_mean,
    position_cdf,
    position_mean,
    position_pdf,
    position_variance,
    sample,
    simultaneous,
    window_mass,
)
from weakmeas.pointer import _SAMPLE_CHUNK, _inverse_cdf, _sampling_grid
from weakmeas.prepost import PrePostEnsemble, certainty_check, weak_value
from weakmeas.qcore import EIG_GROUP_TOL, Observable, StateVector, inner

SQRT3 = np.sqrt(3.0)


def qubit_state(*amps) -> StateVector:
    arr = np.array(amps, dtype=complex)
    return StateVector(arr / np.linalg.norm(arr))


@pytest.fixture(scope="module")
def complex_ensemble():
    """Qubit pair with a genuinely complex weak value for the excited projector."""
    return PrePostEnsemble(qubit_state(1, 1), qubit_state(1, 1j))


@pytest.fixture(scope="module")
def pair_no_no_weak(scenario):
    return mixture(scenario.ensemble,
                   CouplingSpec(scenario.observable("N_pair_NO_NO"), g=0.05, delta=1.0))


def quadrature_mean(m: PointerMixture, moment: int = 1) -> float:
    span = float(np.max(np.abs(m.shifts))) + 12.0 * m.delta
    q = np.linspace(-span, span, 40001)
    pdf = position_pdf(m, q)
    return float(trapezoid(q**moment * pdf, q))


def fft_momentum_mean(m: PointerMixture, points: int = 2**15) -> float:
    span = float(np.max(np.abs(m.shifts))) + 14.0 * m.delta
    q = np.linspace(-span, span, points, endpoint=False)
    phi = m.wavefunction(q)
    ft = np.fft.fft(phi)
    p = 2.0 * np.pi * np.fft.fftfreq(points, d=q[1] - q[0])
    dens = np.abs(ft) ** 2
    return float((p * dens).sum() / dens.sum())


def interp_oracle(m: PointerMixture, trials: int, seed: int):
    """The sampler's grid, CDF and uniforms, inverted by ``np.interp``."""
    grid = _sampling_grid(m)
    pdf = position_pdf(m, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2.0)])
    cdf /= cdf[-1]
    u = np.concatenate([
        np.random.Generator(np.random.Philox(key=[seed, k])).random(
            min(_SAMPLE_CHUNK, trials - k * _SAMPLE_CHUNK))
        for k in range(-(-trials // _SAMPLE_CHUNK))])
    return grid, cdf, np.interp(u, cdf, grid)


def grid_oracle(ens: PrePostEnsemble, specs: list[CouplingSpec],
                points: int = 256) -> list[float]:
    """Brute-force two-pointer evolution on discretized grids.

    Applies exp(-i*g1*P1*A) * exp(-i*g2*P2*B) to system x pointer x pointer,
    post-selects, and reads the marginal means off the joint density.  Grids
    are periodic FFT grids padded far into the Gaussian tails.
    """
    spec1, spec2 = specs
    grids, freqs, gaussians = [], [], []
    for spec in (spec1, spec2):
        span = spec.g * max(abs(a) for a in spec.observable.eigenvalues) + 8.0 * spec.delta
        q = np.linspace(-span, span, points, endpoint=False)
        grids.append(q)
        freqs.append(2.0 * np.pi * np.fft.fftfreq(points, d=q[1] - q[0]))
        gaussians.append(np.exp(-(q**2) / spec.delta**2))
    state = (ens.pre.amplitudes[:, None, None]
             * gaussians[0][None, :, None] * gaussians[1][None, None, :])
    # rightmost factor acts first
    for axis, spec in ((2, spec2), (1, spec1)):
        ft = np.fft.fft(state, axis=axis)
        shaped = freqs[axis - 1][:, None] if axis == 1 else freqs[axis - 1][None, :]
        evolved = np.zeros_like(ft)
        for a, proj in zip(spec.observable.eigenvalues, spec.observable.projectors):
            comp = np.tensordot(proj, ft, axes=([1], [0]))
            evolved += comp * np.exp(-1j * spec.g * a * shaped)[None, :, :]
        state = np.fft.ifft(evolved, axis=axis)
    joint = np.tensordot(ens.post.amplitudes.conj(), state, axes=([0], [0]))
    density = np.abs(joint) ** 2
    means = []
    for axis, q in enumerate(grids):
        marginal = density.sum(axis=1 - axis)
        means.append(float((q * marginal).sum() / marginal.sum()))
    return means


def joint_blocks(observables: list[Observable], tol: float = EIG_GROUP_TOL):
    """Common eigenspaces of a commuting family.

    Refines the full space by eigendecomposing each observable restricted to
    the current blocks; eigenvalues within ``tol`` share a block.  Returns a
    list of (basis columns, eigenvalue tuple).
    """
    dim = observables[0].dim
    blocks: list[tuple[np.ndarray, tuple[float, ...]]] = [
        (np.eye(dim, dtype=complex), ())]
    for a in observables:
        refined = []
        for basis, eigs in blocks:
            sub = basis.conj().T @ a.matrix @ basis
            evals, vecs = np.linalg.eigh(sub)
            k = 0
            while k < evals.size:
                j = k
                while j + 1 < evals.size and evals[j + 1] - evals[k] <= tol:
                    j += 1
                cols = basis @ vecs[:, k:j + 1]
                refined.append((cols, eigs + (float(np.mean(evals[k:j + 1])),)))
                k = j + 1
        blocks = refined
    return blocks


def joint_block_oracle(ens: PrePostEnsemble, specs: list[CouplingSpec]) -> list[float]:
    """Marginal means of a commuting family from its joint eigenspaces."""
    blocks = joint_blocks([s.observable for s in specs])
    gammas = []
    eig_table = []
    for basis, eigs in blocks:
        gamma = (ens.post.amplitudes.conj() @ basis) @ (basis.conj().T @ ens.pre.amplitudes)
        gammas.append(gamma)
        eig_table.append(eigs)
    gammas = np.array(gammas)
    shifts = np.array([[spec.g * eigs[m] for eigs in eig_table]
                       for m, spec in enumerate(specs)])  # (n_pointers, n_blocks)
    kprod = np.ones((gammas.size, gammas.size))
    for m, spec in enumerate(specs):
        diff = np.subtract.outer(shifts[m], shifts[m])
        kprod *= np.exp(-(diff**2) / (2.0 * spec.delta**2))
    weights = np.real(np.outer(gammas.conj(), gammas)) * kprod
    total = weights.sum()
    means = []
    for m in range(len(specs)):
        mid = np.add.outer(shifts[m], shifts[m]) / 2.0
        means.append(float((weights * mid).sum() / total))
    return means


def random_qubit_pair(rng: np.random.Generator):
    """A random qubit ensemble and two random couplings, non-commuting almost surely."""
    def state():
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return StateVector(amps / np.linalg.norm(amps))

    while True:
        pre, post = state(), state()
        if abs(np.vdot(post.amplitudes, pre.amplitudes)) > 0.1:
            break
    specs = []
    for _ in range(2):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        specs.append(CouplingSpec(Observable.from_matrix((h + h.conj().T) / 2.0),
                                  g=float(rng.uniform(0.01, 1.0)),
                                  delta=float(rng.uniform(0.5, 2.0))))
    return PrePostEnsemble(pre, post), specs


def pauli(name: str) -> Observable:
    return Observable.from_matrix({
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.diag([1.0, -1.0]).astype(complex),
    }[name])


class TestMixture:
    def test_certain_observable_single_branch(self, scenario):
        spec = CouplingSpec(scenario.observable("N_minus_O"), g=0.05, delta=1.0)
        m = mixture(scenario.ensemble, spec)
        # the a=0 branch amplitude vanishes: the pointer shifts exactly by g
        assert m.coefficients[0] == pytest.approx(0.0, abs=1e-15)
        assert m.coefficients[1] == pytest.approx(-1.0 / (2.0 * SQRT3), abs=1e-15)
        np.testing.assert_allclose(m.shifts, [0.0, 0.05])

    def test_pair_no_no_coefficients(self, pair_no_no_weak):
        assert pair_no_no_weak.coefficients[0] == pytest.approx(-1.0 / SQRT3, abs=1e-15)
        assert pair_no_no_weak.coefficients[1] == pytest.approx(1.0 / (2.0 * SQRT3), abs=1e-15)

    def test_eigenstate_selection_single_term(self):
        ens = PrePostEnsemble(qubit_state(0, 1), qubit_state(0, 1))
        m = mixture(ens, CouplingSpec(diagonal([0.0, 1.0]), g=0.3, delta=1.0))
        assert m.coefficients[0] == pytest.approx(0.0, abs=1e-15)
        assert position_mean(m) == pytest.approx(0.3, abs=1e-15)

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(AllBranchesVanishError):
            PointerMixture(np.zeros(2, dtype=complex), np.array([0.0, 1.0]), 1.0)


class TestPositionDensity:
    def test_single_term_gaussian(self):
        m = PointerMixture(np.array([1.0 + 0j]), np.array([0.7]), 1.0)
        q = np.linspace(-5, 6, 2001)
        pdf = position_pdf(m, q)
        expected = np.exp(-2.0 * (q - 0.7) ** 2) * np.sqrt(2.0 / np.pi)
        np.testing.assert_allclose(pdf, expected, atol=1e-12)

    def test_normalization_on_prescribed_grid(self, scenario):
        for name in hardy.OBSERVABLE_ORDER:
            spec = CouplingSpec(scenario.observable(name), g=0.05, delta=1.0)
            m = mixture(scenario.ensemble, spec)
            span = float(np.max(np.abs(m.shifts))) + 8.0 * m.delta
            q = np.linspace(-span, span, 4096)
            assert trapezoid(position_pdf(m, q), q) == pytest.approx(1.0, abs=1e-6)

    def test_grid_must_increase(self, pair_no_no_weak):
        with pytest.raises(ValueError, match="increasing"):
            position_pdf(pair_no_no_weak, np.array([0.0, 0.0, 1.0]))

    def test_weak_regime_peak_near_minus_g(self, pair_no_no_weak):
        g = 0.05
        q = np.linspace(-4, 4, 160001)
        pdf = position_pdf(pair_no_no_weak, q)
        peak = q[np.argmax(pdf)]
        assert abs(peak - (-g)) <= 0.02 * g

    def test_strong_regime_two_peaks_with_abl_weights(self, scenario):
        spec = CouplingSpec(scenario.observable("N_pair_NO_NO"), g=5.0, delta=1.0)
        m = mixture(scenario.ensemble, spec)
        assert window_mass(m, -2.0, 2.0) == pytest.approx(0.8, abs=1e-3)
        assert window_mass(m, 3.0, 7.0) == pytest.approx(0.2, abs=1e-3)

    def test_cdf_limits(self, pair_no_no_weak):
        lo, hi = position_cdf(pair_no_no_weak, np.array([-50.0, 50.0]))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)


class TestPositionMean:
    def test_single_term_exact(self):
        m = PointerMixture(np.array([0.3 - 0.1j]), np.array([1.3]), 0.7)
        assert position_mean(m) == pytest.approx(1.3, abs=1e-15)
        assert position_variance(m) == pytest.approx(0.7**2 / 4.0, abs=1e-15)

    @pytest.mark.parametrize("name,target", [("N_minus_O", 1.0), ("N_pair_NO_NO", -1.0)])
    def test_weak_limit_tracks_weak_value(self, scenario, name, target):
        spec = CouplingSpec(scenario.observable(name), g=0.01, delta=1.0)
        m = mixture(scenario.ensemble, spec)
        assert position_mean(m) / 0.01 == pytest.approx(target, abs=1e-3)

    def test_quadratic_convergence(self, pair_no_no_weak, scenario):
        errs = []
        for g in (0.1, 0.05, 0.01):
            spec = CouplingSpec(scenario.observable("N_pair_NO_NO"), g=g, delta=1.0)
            m = mixture(scenario.ensemble, spec)
            errs.append(abs(position_mean(m) / g + 1.0))
        consts = [e / g**2 for e, g in zip(errs, (0.1, 0.05, 0.01))]
        assert max(consts) / min(consts) < 2.0

    def test_closed_form_matches_quadrature(self, scenario, complex_ensemble):
        cases = [
            mixture(scenario.ensemble,
                    CouplingSpec(scenario.observable("N_pair_NO_NO"), g=0.4, delta=1.0)),
            mixture(complex_ensemble,
                    CouplingSpec(diagonal([0.0, 1.0]), g=0.8, delta=0.6)),
        ]
        for m in cases:
            assert position_mean(m) == pytest.approx(quadrature_mean(m), abs=1e-8)
            second = quadrature_mean(m, moment=2)
            assert position_variance(m) == pytest.approx(
                second - quadrature_mean(m) ** 2, abs=1e-8)


class TestMomentumMean:
    def test_real_mixtures_have_zero_momentum_shift(self, scenario):
        for name in hardy.OBSERVABLE_ORDER:
            spec = CouplingSpec(scenario.observable(name), g=0.3, delta=1.0)
            m = mixture(scenario.ensemble, spec)
            assert abs(momentum_mean(m)) <= 1e-10, name

    def test_eigenstate_zero(self):
        ens = PrePostEnsemble(qubit_state(0, 1), qubit_state(0, 1))
        m = mixture(ens, CouplingSpec(diagonal([0.0, 1.0]), g=0.3, delta=1.0))
        assert momentum_mean(m) == pytest.approx(0.0, abs=1e-12)

    def test_matches_fourier_grid_oracle(self, complex_ensemble):
        for g, delta in ((0.01, 1.0), (0.3, 0.8)):
            m = mixture(complex_ensemble,
                        CouplingSpec(diagonal([0.0, 1.0]), g=g, delta=delta))
            assert momentum_mean(m) == pytest.approx(fft_momentum_mean(m), abs=1e-9)

    def test_weak_limit_proportionality_constant(self, complex_ensemble):
        # regression for the frozen constant: <P> -> 2 g Im(A_w) / delta^2
        obs = diagonal([0.0, 1.0])
        aw = weak_value(obs, complex_ensemble).value
        g, delta = 1e-4, 1.0
        m = mixture(complex_ensemble, CouplingSpec(obs, g=g, delta=delta))
        predicted = MOMENTUM_SHIFT_FACTOR * g * aw.imag / delta**2
        assert momentum_mean(m) == pytest.approx(predicted, rel=1e-6)
        assert np.sign(momentum_mean(m)) == np.sign(aw.imag)


class TestSampling:
    def test_same_seed_identical_readings(self, pair_no_no_weak):
        r1 = sample(pair_no_no_weak, 5000, seed=42)
        r2 = sample(pair_no_no_weak, 5000, seed=42)
        assert r1.readings.tobytes() == r2.readings.tobytes()

    def test_different_seed_differs(self, pair_no_no_weak):
        r1 = sample(pair_no_no_weak, 1000, seed=1)
        r2 = sample(pair_no_no_weak, 1000, seed=2)
        assert not np.array_equal(r1.readings, r2.readings)

    def test_chunking_invisible(self, pair_no_no_weak):
        # trials above one chunk must extend, not reshuffle, the stream
        short = sample(pair_no_no_weak, 100, seed=9).readings
        long = sample(pair_no_no_weak, (1 << 16) + 50, seed=9).readings
        np.testing.assert_array_equal(long[:100], short)

    def test_single_term_estimate_converges(self):
        m = PointerMixture(np.array([1.0 + 0j]), np.array([0.2]), 1.0)
        est = estimate(sample(m, 200_000, seed=3), g=0.1)
        # true mean is s1/g = 2 with stderr ~ (delta/2)/(g sqrt(n))
        assert est.estimate == pytest.approx(2.0, abs=3.0 * est.stderr)
        assert est.stderr == pytest.approx(0.5 / (0.1 * np.sqrt(200_000)), rel=0.05)

    def test_hardy_weak_value_recovered(self, scenario):
        spec = CouplingSpec(scenario.observable("N_minus_O"), g=0.05, delta=1.0)
        m = mixture(scenario.ensemble, spec)
        est = estimate(sample(m, 100_000, seed=12), g=0.05)
        assert abs(est.estimate - 1.0) <= 3.0 * est.stderr

    def test_kolmogorov_smirnov_against_closed_form(self, pair_no_no_weak):
        readings = sample(pair_no_no_weak, 100_000, seed=77).readings
        result = stats.kstest(readings, lambda x: position_cdf(pair_no_no_weak, x))
        assert result.pvalue > 0.01

    def test_estimator_fields(self, pair_no_no_weak):
        reading = sample(pair_no_no_weak, 1000, seed=5)
        est = estimate(reading, g=0.05)
        manual = reading.readings / 0.05
        assert est.estimate == pytest.approx(manual.mean())
        assert est.stderr == pytest.approx(manual.std(ddof=1) / np.sqrt(1000))
        assert est.trials == 1000

    @pytest.mark.parametrize("n", [2, 3, 1000, 65537, 10**6])
    @pytest.mark.parametrize("g", [0.05, 0.013, 1.0])
    def test_estimate_bits_match_mean_and_std(self, n, g):
        readings = np.random.default_rng(n).normal(0.03, 0.7, n)
        est = estimate(ReadingSample(readings, seed=1, trials=n), g)
        per_trial = readings / g
        assert est.estimate == float(per_trial.mean())
        assert est.stderr == float(per_trial.std(ddof=1) / np.sqrt(n))

    def test_estimate_keeps_one_reading_sized_temporary(self):
        reading = ReadingSample(np.random.default_rng(1).normal(0.0, 1.0, 10**6),
                                seed=1, trials=10**6)
        estimate(reading, 0.05)
        tracemalloc.start()
        try:
            estimate(reading, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # readings / g is 8 MB; std(ddof=1) would add 8 MB more

    @pytest.mark.parametrize("g", [0.0, -1.0, np.nan, np.inf])
    def test_estimate_rejects_non_finite_or_non_positive_g(self, g):
        # NaN used to slip past a bare g <= 0 check (estimate NaN), inf gave 0.0
        reading = ReadingSample(np.ones(4), seed=1, trials=4)
        with pytest.raises(ValueError, match=f"g must be finite and positive, got {g}"):
            estimate(reading, g)

    def test_invalid_args(self, pair_no_no_weak):
        with pytest.raises(ValueError):
            sample(pair_no_no_weak, 0, seed=1)
        with pytest.raises(ValueError):
            sample(pair_no_no_weak, 10, seed=-4)
        with pytest.raises(ValueError, match="trials"):
            sample(pair_no_no_weak, MAX_TRIALS + 1, seed=1)

    def test_unresolved_cdf_raises(self):
        # delta^2 underflows to 0, so the density and its CDF total are NaN;
        # the overlap weights, built with the mixture, already divide by 0
        with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="CDF total"):
            sample(PointerMixture([0.5, -0.3], [0.0, 1.0], 1e-300), 10, seed=1)

    @pytest.mark.parametrize("g", [3000.0, 1e300])
    def test_grid_too_coarse_for_the_pointer_raises(self, scenario, g):
        # the CDF total misses 1 by 0.15 at g = 3000 and overflows at g = 1e300
        # (already in the overlap weights, built with the mixture)
        spec = CouplingSpec(scenario.observable("N_pair_NO_NO"), g=g, delta=1.0)
        with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="CDF total"):
            sample(mixture(scenario.ensemble, spec), 10, seed=1)

    def test_readings_held_once(self, pair_no_no_weak):
        sample(pair_no_no_weak, 1000, seed=1)
        tracemalloc.start()
        try:
            readings = sample(pair_no_no_weak, 10**6, seed=1).readings
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert readings.size == 10**6
        assert not readings.flags.writeable
        assert peak < 12e6  # 8 MB of readings plus one chunk of work

    def test_caller_array_is_copied(self):
        own = np.array([0.5, -1.0, 2.0])
        reading = ReadingSample(own, seed=1, trials=3)
        own[0] = 99.0
        assert own.flags.writeable
        assert reading.readings.tolist() == [0.5, -1.0, 2.0]
        assert not reading.readings.flags.writeable


class TestSamplerAgainstInterp:
    """The guide-table inversion must reproduce ``np.interp`` bit for bit."""

    @pytest.mark.parametrize("g", [0.01, 0.05, 1.0, 20.0])
    @pytest.mark.parametrize("name", hardy.OBSERVABLE_ORDER)
    def test_hardy_observables(self, scenario, name, g):
        m = mixture(scenario.ensemble, CouplingSpec(scenario.observable(name), g=g, delta=1.0))
        grid, cdf, expected = interp_oracle(m, 5000, seed=31)
        assert sample(m, 5000, seed=31).readings.tobytes() == expected.tobytes()
        # every knot below 1 (u = 0 and the zero plateau of a far tail among
        # them) and its two neighbouring doubles
        knots = cdf[cdf < 1.0]
        u = np.unique(np.concatenate([knots, np.nextafter(knots, 0.0),
                                      np.nextafter(knots, 1.0)]))
        u = u[u < 1.0]
        assert _inverse_cdf(grid, cdf)(u).tobytes() == np.interp(u, cdf, grid).tobytes()

    def test_complex_coefficients(self, complex_ensemble):
        obs = diagonal([0.0, 1.0])
        m = mixture(complex_ensemble, CouplingSpec(obs, g=0.3, delta=0.7))
        _, _, expected = interp_oracle(m, 20_000, seed=4)
        assert sample(m, 20_000, seed=4).readings.tobytes() == expected.tobytes()

    def test_chunk_edge(self, pair_no_no_weak):
        trials = _SAMPLE_CHUNK + 3
        _, _, expected = interp_oracle(pair_no_no_weak, trials, seed=8)
        assert sample(pair_no_no_weak, trials, seed=8).readings.tobytes() == expected.tobytes()


class TestCouplingSpec:
    def test_weak_regime_flag(self, scenario):
        obs = scenario.observable("N_minus_O")
        assert CouplingSpec(obs, g=0.05, delta=1.0).is_weak
        assert not CouplingSpec(obs, g=2.0, delta=1.0).is_weak

    def test_rejects_bad_parameters(self, scenario):
        obs = scenario.observable("N_minus_O")
        with pytest.raises(ValueError):
            CouplingSpec(obs, g=-1.0, delta=1.0)
        with pytest.raises(ValueError):
            CouplingSpec(obs, g=1.0, delta=0.0)


class TestSimultaneous:
    def test_single_observable_matches_position_mean(self, scenario):
        spec = CouplingSpec(scenario.observable("N_pair_NO_NO"), g=0.3, delta=1.0)
        joint = simultaneous(scenario.ensemble, [spec])
        solo = position_mean(mixture(scenario.ensemble, spec))
        assert joint[0] == pytest.approx(solo, abs=1e-12)

    def test_all_eight_hardy_observables(self, scenario):
        g = 0.01
        specs = [CouplingSpec(scenario.observable(n), g=g, delta=1.0)
                 for n in hardy.OBSERVABLE_ORDER]
        means = simultaneous(scenario.ensemble, specs)
        table = hardy.weak_value_table(scenario).real_values()
        for name, mean in zip(hardy.OBSERVABLE_ORDER, means):
            assert mean / g == pytest.approx(table[name], abs=1e-2), name

    def test_two_noncommuting_match_separate_weak_values(self):
        ens = PrePostEnsemble(qubit_state(np.cos(0.3), np.sin(0.3)),
                              qubit_state(np.cos(1.1), np.sin(1.1)))
        a = Observable.from_matrix(np.diag([0.0, 1.0]).astype(complex))
        b = Observable.from_matrix(np.full((2, 2), 0.5, dtype=complex))
        g = 0.01
        means = simultaneous(ens, [CouplingSpec(a, g=g, delta=1.0),
                                   CouplingSpec(b, g=g, delta=1.0)])
        for mean, obs in zip(means, (a, b)):
            target = weak_value(obs, ens).real
            assert mean / g == pytest.approx(target, rel=0.01)

    def test_mixed_couplings_per_pointer(self, scenario):
        specs = [CouplingSpec(scenario.observable("N_minus_O"), g=0.01, delta=1.0),
                 CouplingSpec(scenario.observable("N_plus_O"), g=0.02, delta=2.0)]
        means = simultaneous(scenario.ensemble, specs)
        assert means[0] / 0.01 == pytest.approx(1.0, abs=1e-2)
        assert means[1] / 0.02 == pytest.approx(1.0, abs=1e-2)

    def test_two_noncommuting_match_grid_oracle(self):
        # criterion 9's qubit pair
        ens = PrePostEnsemble(qubit_state(np.cos(0.3), np.sin(0.3)),
                              qubit_state(np.cos(1.1), np.sin(1.1)))
        specs = [CouplingSpec(Observable.from_matrix(np.diag([0.0, 1.0]).astype(complex)),
                              g=0.01, delta=1.0),
                 CouplingSpec(Observable.from_matrix(np.full((2, 2), 0.5, dtype=complex)),
                              g=0.01, delta=1.0)]
        np.testing.assert_allclose(simultaneous(ens, specs), grid_oracle(ens, specs),
                                   rtol=0.0, atol=1e-12)

    def test_random_qubit_pairs_match_grid_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            ens, specs = random_qubit_pair(rng)
            np.testing.assert_allclose(simultaneous(ens, specs), grid_oracle(ens, specs),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("g,delta", [(0.01, 1.0), (0.05, 1.0), (1.0, 1.0), (3.0, 0.5)])
    @pytest.mark.parametrize("post", ["D_plus_D_minus", "C_plus_C_minus",
                                      "C_plus_D_minus", "D_plus_C_minus"])
    def test_hardy_family_bit_identical_to_joint_blocks(self, scenario, post, g, delta):
        ens = PrePostEnsemble(scenario.preselected,
                              hardy.postselection_variants()[post])
        specs = [CouplingSpec(scenario.observable(n), g=g, delta=delta)
                 for n in hardy.OBSERVABLE_ORDER]
        assert simultaneous(ens, specs) == joint_block_oracle(ens, specs)

    def test_three_noncommuting_match_projector_product_sum(self):
        ens = PrePostEnsemble(qubit_state(1, 1), qubit_state(1, 0.2))
        specs = [CouplingSpec(pauli("x"), g=0.3, delta=1.0),
                 CouplingSpec(pauli("y"), g=0.5, delta=0.8),
                 CouplingSpec(pauli("z"), g=0.7, delta=1.2)]
        # one term per eigenvalue choice t: <post|P^X_t1 P^Y_t2 P^Z_t3|pre>
        # times a Gaussian in each pointer centred at g_m a_{m,t_m}
        terms = []
        for t in itertools.product(*(range(len(s.observable.eigenvalues)) for s in specs)):
            c = np.linalg.multi_dot([ens.post.amplitudes.conj(),
                                     *(s.observable.projectors[k] for s, k in zip(specs, t)),
                                     ens.pre.amplitudes])
            terms.append((c, np.array([s.g * s.observable.eigenvalues[k]
                                       for s, k in zip(specs, t)])))
        num, den = np.zeros(len(specs)), 0.0
        for (ci, si), (cj, sj) in itertools.product(terms, repeat=2):
            overlap = np.prod([np.exp(-(a - b) ** 2 / (2.0 * s.delta**2))
                               for a, b, s in zip(si, sj, specs)])
            w = (np.conj(ci) * cj).real * overlap
            num += w * (si + sj) / 2.0
            den += w
        np.testing.assert_allclose(simultaneous(ens, specs), num / den, rtol=1e-12, atol=1e-15)

    def test_term_cap(self):
        # X and Y eigenbases are unbiased: every product of their projectors
        # survives, so n alternating couplings keep 2^n branches
        ens = PrePostEnsemble(qubit_state(1, 1), qubit_state(1, 0.2))
        specs = [CouplingSpec(pauli("xy"[k % 2]), g=0.01, delta=1.0) for k in range(11)]
        assert 2**10 == MAX_JOINT_TERMS
        assert len(simultaneous(ens, specs[:10])) == 10
        with pytest.raises(UnsupportedConfigurationError, match="MAX_JOINT_TERMS"):
            simultaneous(ens, specs)

    def test_empty_specs_rejected(self, scenario):
        with pytest.raises(ValueError):
            simultaneous(scenario.ensemble, [])


amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def couplings(draw):
    """(ensemble, diagonal observable, g, delta) with |<post|pre>| >= 0.2, dim 2 or 3."""
    dim = draw(st.integers(2, 3))
    pre = np.array(draw(st.lists(amplitude, min_size=dim, max_size=dim)))
    post = np.array(draw(st.lists(amplitude, min_size=dim, max_size=dim)))
    assume(min(np.linalg.norm(pre), np.linalg.norm(post)) >= 0.1)
    pre = StateVector(pre / np.linalg.norm(pre))
    post = StateVector(post / np.linalg.norm(post))
    assume(abs(inner(post, pre)) >= 0.2)
    obs = diagonal(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    return (PrePostEnsemble(pre, post), obs,
            draw(st.floats(0.01, 3.0)), draw(st.floats(0.2, 3.0)))


def reference_weights(m: PointerMixture):
    """Pair weights, kernel and midpoints computed inline from the public fields."""
    s = m.shifts
    kernel = np.ones((s.size, s.size))
    kernel *= np.exp(-np.subtract.outer(s, s) ** 2 / (2.0 * m.delta**2))
    cpair = np.outer(m.coefficients.conj(), m.coefficients)
    return cpair, np.real(cpair) * kernel, kernel, np.add.outer(s, s) / 2.0


def reference_momentum_mean(m: PointerMixture) -> float:
    cpair, w, kernel, _ = reference_weights(m)
    s = m.shifts
    num = (np.imag(cpair) * (-np.subtract.outer(s, s)) * kernel).sum()
    return float(num / (m.delta**2 * w.sum()))


def reference_position_variance(m: PointerMixture) -> float:
    _, w, _, mid = reference_weights(m)
    total = w.sum()
    mean = (w * mid).sum() / total
    second = (w * (mid**2 + m.delta**2 / 4.0)).sum() / total
    return float(second - mean**2)


class TestPointerProperties:
    # "to rounding": the mixtures are well conditioned (|<post|pre>| >= 0.2), so
    # 1e-10 of each quantity's natural scale is far above rounding and far below
    # any real fault
    @given(couplings(), st.floats(0.1, 10.0))
    def test_scaling_g_and_delta_together(self, case, lam):
        ens, obs, g, delta = case
        m = mixture(ens, CouplingSpec(obs, g=g, delta=delta))
        big = mixture(ens, CouplingSpec(obs, g=lam * g, delta=lam * delta))
        length = delta + g * max(abs(a) for a in obs.eigenvalues)
        assert position_mean(big) == pytest.approx(
            lam * position_mean(m), rel=1e-10, abs=1e-10 * lam * length)
        assert position_variance(big) == pytest.approx(
            lam**2 * position_variance(m), rel=1e-10, abs=1e-10 * (lam * length) ** 2)
        assert momentum_mean(big) == pytest.approx(
            momentum_mean(m) / lam, rel=1e-10, abs=1e-10 * length / (lam * delta**2))
        x = np.linspace(-length - 4.0 * delta, length + 4.0 * delta, 41)
        np.testing.assert_allclose(position_cdf(big, lam * x), position_cdf(m, x),
                                   rtol=0.0, atol=1e-10)

    @given(couplings())
    def test_cdf_non_decreasing_within_unit_interval(self, case):
        ens, obs, g, delta = case
        m = mixture(ens, CouplingSpec(obs, g=g, delta=delta))
        span = float(np.max(np.abs(m.shifts))) + 8.0 * delta
        cdf = position_cdf(m, np.linspace(-span, span, 401))
        assert np.diff(cdf).min() >= -1e-12
        assert cdf.min() >= -1e-12 and cdf.max() <= 1.0 + 1e-12

    @given(couplings(), st.data())
    def test_certain_outcome_gives_one_gaussian_at_g_a(self, case, data):
        # pre-selected in an eigenvector: that eigenvalue is certain, and only
        # its term survives; with post == pre its weight is exactly 1
        ens, obs, g, delta = case
        k = data.draw(st.integers(0, len(obs.eigenvalues) - 1))
        a = obs.eigenvalues[k]
        pre = StateVector(np.eye(obs.dim)[np.flatnonzero(np.diag(obs.projectors[k]).real)[0]])
        spec = CouplingSpec(obs, g=g, delta=delta)
        m = mixture(PrePostEnsemble(pre, pre), spec)
        assert position_mean(m) == g * a
        assert position_variance(m) == pytest.approx(
            delta**2 / 4.0, rel=0.0, abs=1e-12 * ((g * a) ** 2 + delta**2))
        assume(abs(inner(ens.post, pre)) >= 0.1)
        certain = PrePostEnsemble(pre, ens.post)
        assert certainty_check(obs, certain) == a
        assert position_mean(mixture(certain, spec)) == pytest.approx(g * a, rel=1e-15)

    @given(couplings())
    def test_simultaneous_of_one_spec_is_position_mean(self, case):
        # the branch coefficients are associated differently: equal to rounding
        ens, obs, g, delta = case
        spec = CouplingSpec(obs, g=g, delta=delta)
        length = delta + g * max(abs(a) for a in obs.eigenvalues)
        assert simultaneous(ens, [spec])[0] == pytest.approx(
            position_mean(mixture(ens, spec)), rel=1e-10, abs=1e-10 * length)


class TestClosedFormsPinned:
    """The closed forms equal inline copies of their arithmetic bit for bit."""

    @pytest.mark.parametrize("g, delta", [(0.05, 1.0), (0.4, 0.7), (3.0, 1.0)])
    def test_hardy_observables(self, scenario, g, delta):
        for name in hardy.OBSERVABLE_ORDER:
            m = mixture(scenario.ensemble,
                        CouplingSpec(scenario.observable(name), g=g, delta=delta))
            assert momentum_mean(m) == reference_momentum_mean(m), name
            assert position_variance(m) == reference_position_variance(m), name

    @given(couplings())
    def test_random_couplings(self, case):
        ens, obs, g, delta = case
        m = mixture(ens, CouplingSpec(obs, g=g, delta=delta))
        assert momentum_mean(m) == reference_momentum_mean(m)
        assert position_variance(m) == reference_position_variance(m)
