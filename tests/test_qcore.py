"""Core linear algebra: states, observables, products and invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakmeas import qcore, verify
from weakmeas.errors import DimensionMismatchError
from weakmeas.qcore import (
    ATOL,
    EIG_GROUP_TOL,
    Observable,
    StateVector,
    inner,
    op_tensor,
    projector,
    tensor,
)

SQRT3 = np.sqrt(3.0)

# computed by hand from the scenario amplitudes, frozen here as the oracle
HARDY_OVERLAP = -1.0 / (2.0 * SQRT3)


def hardy_pre():
    return StateVector(np.array([1, 1, 1, 0], dtype=complex) / SQRT3)


def hardy_post():
    return StateVector(np.array([1, -1, -1, 1], dtype=complex) / 2.0)


def apply(a: Observable, s: StateVector) -> StateVector:
    """A|s>, labels kept."""
    return StateVector(a.matrix @ s.amplitudes, s.labels)


def expectation(a: Observable, s: StateVector) -> float:
    """<s|A|s> for normalized s; real by Hermiticity."""
    return float(np.vdot(s.amplitudes, a.matrix @ s.amplitudes).real)


def amplitude_lists(dim):
    finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(finite, finite), min_size=dim, max_size=dim).map(
        lambda pairs: np.array([complex(re, im) for re, im in pairs]))


def nonzero_state(dim):
    return amplitude_lists(dim).filter(lambda a: np.linalg.norm(a) > 1e-3).map(
        lambda a: StateVector(a / np.linalg.norm(a)))


class TestStateVector:
    def test_normalized_flag(self):
        assert StateVector(np.array([1, 0], dtype=complex)).is_normalized
        assert not StateVector(np.array([1, 1], dtype=complex)).is_normalized

    def test_normalize(self):
        s = StateVector(np.array([3, 4], dtype=complex)).normalized()
        assert s.is_normalized
        np.testing.assert_allclose(s.amplitudes, [0.6, 0.8])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            StateVector(np.array([1, 0], dtype=complex), ("a", "a"))

    def test_immutable(self):
        s = StateVector(np.array([1, 0], dtype=complex))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 2.0


class TestTensor:
    def test_basis_product(self):
        a = StateVector(np.array([1, 0], dtype=complex))
        out = tensor(a, a)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_uniform_product(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        out = tensor(plus, plus)
        np.testing.assert_allclose(out.amplitudes, np.full(4, 0.25 * 2), atol=1e-15)

    def test_label_order_is_lexicographic(self):
        a = StateVector(np.array([1, 0], dtype=complex), ("x", "y"))
        b = StateVector(np.array([1, 0, 0], dtype=complex), ("0", "1", "2"))
        assert tensor(a, b).labels == ("x·0", "x·1", "x·2", "y·0", "y·1", "y·2")

    @given(nonzero_state(2), nonzero_state(3))
    def test_norm_multiplicative(self, a, b):
        raw_a = StateVector(2.0 * a.amplitudes)
        assert tensor(raw_a, b).norm == pytest.approx(raw_a.norm * b.norm, rel=1e-12)

    @given(nonzero_state(2), nonzero_state(2), nonzero_state(3))
    def test_associative_amplitudes(self, a, b, c):
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)


class TestInner:
    def test_hardy_overlap(self):
        ov = inner(hardy_post(), hardy_pre())
        assert ov == pytest.approx(HARDY_OVERLAP, abs=1e-15)
        assert abs(ov) ** 2 == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_self_inner_is_one(self):
        s = StateVector(np.array([1, 1j], dtype=complex) / np.sqrt(2))
        assert inner(s, s) == pytest.approx(1.0, abs=1e-15)

    @given(nonzero_state(3), nonzero_state(3))
    def test_conjugate_symmetry(self, a, b):
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(StateVector(np.ones(2, dtype=complex)),
                  StateVector(np.ones(3, dtype=complex)))


class TestProjector:
    def test_basis_state(self):
        p = projector(StateVector(np.array([1, 0], dtype=complex)))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]))
        assert p.eigenvalues == (0.0, 1.0)

    def test_uniform_state(self):
        p = projector(StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2)))
        np.testing.assert_allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-15)

    @given(nonzero_state(4))
    def test_idempotent(self, s):
        p = projector(s).matrix
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            projector(StateVector(np.array([1, 1], dtype=complex)))


class TestObservable:
    def test_identity_tensor_identity(self):
        out = op_tensor(Observable.identity(2), Observable.identity(2))
        np.testing.assert_allclose(out.matrix, np.eye(4))
        assert out.eigenvalues == (1.0,)

    def test_hardy_expectation(self):
        # electron-in-O occupation: one amplitude of the pre-selected state squared
        n_minus_o = Observable.diagonal([0, 1, 0, 1])
        assert expectation(n_minus_o, hardy_pre()) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_apply_then_inner_matches_branch_amplitude(self):
        obs = Observable.diagonal([0, 1, 0, 1])
        pre, post = hardy_pre(), hardy_post()
        via_ops = inner(post, apply(_eigproj(obs, 1.0), pre))
        direct = sum(np.conj(post.amplitudes[k]) * pre.amplitudes[k] for k in (1, 3))
        assert via_ops == pytest.approx(direct, abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_broken_projector_family(self):
        good = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            Observable(np.diag([1.0, 0.0]), (1.0, 0.0), (good, good))

    def test_spectral_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            obs = Observable.from_matrix((g + g.conj().T) / 2)
            recon = sum(a * p for a, p in zip(obs.eigenvalues, obs.projectors))
            np.testing.assert_allclose(recon, obs.matrix, atol=1e-12)
            np.testing.assert_allclose(sum(obs.projectors), np.eye(dim), atol=1e-12)

    def test_degenerate_grouping(self):
        obs = Observable.from_matrix(np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex))
        assert len(obs.eigenvalues) == 2

    @given(nonzero_state(3), nonzero_state(3))
    def test_hermitian_adjoint_identity(self, a, b):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obs = Observable.from_matrix((g + g.conj().T) / 2)
        lhs = inner(a, apply(obs, b))
        rhs = np.conj(inner(b, apply(obs, a)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _eigproj(obs: Observable, eigenvalue: float) -> Observable:
    """Projector onto one eigenspace of ``obs`` wrapped as an observable."""
    idx = obs.eigenvalues.index(eigenvalue)
    return projector_from_matrix(obs.projectors[idx])


def projector_from_matrix(p: np.ndarray) -> Observable:
    comp = np.eye(p.shape[0], dtype=complex) - p
    return Observable(p, (0.0, 1.0), (comp, p))


# ---------------------------------------------------------------------------
# The stacked spectral-family check against the pairwise loop it replaced
# ---------------------------------------------------------------------------

def pairwise_validate(matrix, eigenvalues, projectors) -> None:
    """The original ``Observable.__post_init__`` checks, one pair at a time."""
    mat = np.array(np.asarray(matrix), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("observable matrix must be square")
    if np.max(np.abs(mat - mat.conj().T)) > ATOL:
        raise ValueError("observable matrix is not Hermitian within 1e-12")
    projs = tuple(np.array(p, dtype=complex) for p in projectors)
    evals = tuple(float(a) for a in eigenvalues)
    if len(projs) != len(evals) or not projs:
        raise ValueError("need one projector per eigenvalue")
    if np.max(np.abs(sum(projs) - np.eye(mat.shape[0]))) > ATOL:
        raise ValueError("projectors do not sum to the identity")
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            expect = p if i == j else 0.0
            if np.max(np.abs(p @ q - expect)) > ATOL:
                raise ValueError("projector family is not orthogonal")
    recon = sum(a * p for a, p in zip(evals, projs))
    if np.max(np.abs(recon - mat)) > ATOL:
        raise ValueError("spectral reconstruction does not match matrix")


def pairwise_from_matrix(matrix):
    """The original ``Observable.from_matrix``: (matrix, eigenvalues, projectors)."""
    mat = np.asarray(matrix, dtype=complex)
    evals, vecs = np.linalg.eigh(mat)
    pairs = []
    k = 0
    while k < evals.size:
        j = k
        while j + 1 < evals.size and evals[j + 1] - evals[k] <= EIG_GROUP_TOL:
            j += 1
        block = vecs[:, k:j + 1]
        pairs.append((float(np.mean(evals[k:j + 1])), block @ block.conj().T))
        k = j + 1
    recon = sum(a * p for a, p in pairs)
    evs = tuple(a for a, _ in pairs)
    projs = tuple(p for _, p in pairs)
    pairwise_validate(recon, evs, projs)
    return recon, evs, projs


def outcome(validate, *args) -> str | None:
    """None when ``validate`` accepts, else its ValueError message."""
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_state(rng, dim):
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(a / np.linalg.norm(a))


def _collective_total(n: int = 3) -> np.ndarray:
    """Sum over n factors of the 4-dim pair observable, as in criterion 10."""
    obs = Observable.diagonal([0, 0, 0, 1])
    total = np.zeros((4**n, 4**n), dtype=complex)
    for k in range(n):
        factors = [np.eye(4, dtype=complex)] * n
        factors[k] = obs.matrix
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total


def _families():
    rng = np.random.default_rng(2026)
    out = []
    for dim in (2, 3, 4, 5, 6):
        out.append((f"from_matrix-{dim}", Observable.from_matrix(_random_hermitian(rng, dim))))
        vecs = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))[0]
        groups = np.array_split(np.arange(dim), (dim + 1) // 2)
        out.append((f"from_projectors-{dim}", Observable.from_projectors(
            rng.uniform(-2.0, 2.0, len(groups)),
            [vecs[:, g] @ vecs[:, g].conj().T for g in groups])))
        out.append((f"diagonal-{dim}", Observable.diagonal(rng.integers(-2, 3, dim))))
        left = Observable.identity(1) if dim in (2, 3, 5) else Observable.diagonal([0.5, -1.0])
        right = Observable.from_matrix(_random_hermitian(rng, dim // left.dim))
        out.append((f"op_tensor-{dim}", op_tensor(left, right)))
        out.append((f"projector-{dim}", projector(_random_state(rng, dim))))
    vecs = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))[0]
    groups = np.array_split(np.arange(64), 4)
    out += [
        ("from_matrix-64", Observable.from_matrix(_collective_total())),
        ("from_projectors-64", Observable.from_projectors(
            [-1.0, 0.0, 2.0, 3.5], [vecs[:, g] @ vecs[:, g].conj().T for g in groups])),
        ("diagonal-64", Observable.diagonal(np.arange(64) % 5)),
        ("op_tensor-64", op_tensor(Observable.diagonal([0, 1, 1, 2]),
                                   Observable.diagonal(np.arange(16) % 3))),
        ("projector-64", projector(_random_state(rng, 64))),
    ]
    return out


FAMILIES = _families()


def _perturbed(obs: Observable, eps: float):
    projs = [np.array(p) for p in obs.projectors]
    projs[-1][0, 0] += eps
    return obs.matrix, obs.eigenvalues, projs


@pytest.fixture(params=[None, 1], ids=["one-block", "row-blocks"])
def pair_block(request, monkeypatch):
    """Run each family in one block of pairs and again one row i at a time."""
    if request.param is not None:
        monkeypatch.setattr(qcore, "_PAIR_BLOCK", request.param)


class TestStackedValidation:
    @pytest.mark.parametrize("name, obs", FAMILIES, ids=[n for n, _ in FAMILIES])
    def test_same_verdicts_as_pairwise(self, name, obs, pair_block):
        family = (obs.matrix, obs.eigenvalues, obs.projectors)
        assert outcome(pairwise_validate, *family) is None
        assert outcome(Observable, *family) is None
        for eps, expected in ((1e-14, None), (1e-9, "projectors do not sum to the identity")):
            perturbed = _perturbed(obs, eps)
            assert outcome(pairwise_validate, *perturbed) == expected
            assert outcome(Observable, *perturbed) == expected

    @pytest.mark.parametrize("args, message", [
        ((np.ones((2, 3)), (1.0,), (np.eye(2),)), "observable matrix must be square"),
        ((np.array([[0, 1], [0, 0]]), (0.0, 1.0), (np.eye(2), np.eye(2))),
         "observable matrix is not Hermitian within 1e-12"),
        ((np.eye(2), (1.0, 2.0), (np.eye(2),)), "need one projector per eigenvalue"),
        ((np.eye(2), (), ()), "need one projector per eigenvalue"),
        ((np.eye(2), (1.0, 0.0), (np.eye(2), np.eye(2))),
         "projectors do not sum to the identity"),
        # 0.5 I twice sums to I and rebuilds 0.5 I, but (0.5 I)(0.5 I) != 0
        ((0.5 * np.eye(2), (0.0, 1.0), (0.5 * np.eye(2), 0.5 * np.eye(2))),
         "projector family is not orthogonal"),
        ((np.diag([2.0, 0.0]), (1.0, 0.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
         "spectral reconstruction does not match matrix"),
    ], ids=["square", "hermitian", "count", "empty", "complete", "orthogonal", "reconstruction"])
    def test_rejection_messages(self, args, message, pair_block):
        assert outcome(pairwise_validate, *args) == message
        assert outcome(Observable, *args) == message

    @pytest.mark.parametrize("projectors", [
        (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 1.0])),
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    ], ids=["both-3x3", "ragged", "vectors"])
    def test_projector_shapes_must_match_matrix(self, projectors):
        with pytest.raises(ValueError, match=r"every projector must have the matrix shape \(2, 2\)"):
            Observable(np.diag([1.0, 0.0]), (1.0, 0.0), projectors)

    def test_projectors_are_read_only(self):
        obs = Observable.from_matrix(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(ValueError):
            obs.projectors[0][0, 0] = 5.0

    def test_pairwise_products_stay_in_bounded_blocks(self):
        # 32 one-dim projectors of dim 32: all 1024 products at once peak near 27 MB
        Observable.diagonal(np.arange(32.0))
        tracemalloc.start()
        try:
            Observable.diagonal(np.arange(32.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    @staticmethod
    def assert_bit_identical(h):
        obs = Observable.from_matrix(h)
        matrix, evals, projs = pairwise_from_matrix(h)
        assert obs.matrix.tobytes() == matrix.tobytes()
        assert np.array(obs.eigenvalues).tobytes() == np.array(evals).tobytes()
        assert len(obs.projectors) == len(projs)
        for new, old in zip(obs.projectors, projs):
            assert new.tobytes() == old.tobytes()

    def test_from_matrix_bit_identical_on_additivity_stream(self):
        # the first 300 draws of verify criterion 5
        rng = np.random.default_rng(verify.ADDITIVITY_SEED)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            verify._random_ensemble(rng, dim)
            a, b = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
            ab = Observable.from_matrix(a).matrix + Observable.from_matrix(b).matrix
            for h in (a, b, ab):
                self.assert_bit_identical(h)

    def test_from_matrix_bit_identical_with_grouped_eigenvalues(self):
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        near = u @ np.diag([1.0, 1.0 + 3e-11, 3.0]) @ u.conj().T
        for h in (near, _collective_total()):
            self.assert_bit_identical(h)


class TestNonFinite:
    # every check is a max compared with a tolerance, and a NaN max compares False
    P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_constructor_rejects_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="observable matrix is not finite"):
            Observable(np.full((2, 2), bad), (0.0, 1.0), (self.P0, self.P1))
        with pytest.raises(ValueError, match="observable matrix is not finite"):
            Observable(np.diag([1.0, bad]), (0.0, 1.0), (self.P0, self.P1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_matrix_rejects_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="matrix is not finite"):
            Observable.from_matrix(np.diag([1.0, bad]))

    def test_nan_eigenvalue_with_finite_projectors(self):
        with pytest.raises(ValueError, match="spectral reconstruction does not match matrix"):
            Observable(np.diag([1.0, 0.0]), (1.0, np.nan), (self.P0, self.P1))

    def test_nan_projector(self):
        with pytest.raises(ValueError, match="projectors do not sum to the identity"):
            Observable(np.diag([1.0, 0.0]), (1.0, 0.0), (np.diag([1.0, np.nan]), self.P1))
