"""Core linear algebra: states, observables, products and invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from spectral_oracle import (
    diagonal,
    from_projectors,
    identity,
    op_tensor,
    pairwise_from_matrix,
    pairwise_validate,
    projector,
)

from weakmeas import qcore, verify
from weakmeas.errors import DimensionMismatchError
from weakmeas.qcore import Observable, StateVector, inner, tensor

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

    @pytest.mark.parametrize("amps, norm", [
        ([np.nan, 1.0], "nan"), ([np.inf, 0.0], "inf"), ([0.0, 0.0], "0.0")])
    def test_normalize_rejects_zero_and_non_finite_norm(self, amps, norm):
        with pytest.raises(ValueError, match=f"^cannot normalize a vector of norm {norm}$"):
            StateVector(np.array(amps, dtype=complex)).normalized()

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
        out = op_tensor(identity(2), identity(2))
        np.testing.assert_allclose(out.matrix, np.eye(4))
        assert out.eigenvalues == (1.0,)

    def test_hardy_expectation(self):
        # electron-in-O occupation: one amplitude of the pre-selected state squared
        n_minus_o = diagonal([0, 1, 0, 1])
        assert expectation(n_minus_o, hardy_pre()) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_apply_then_inner_matches_branch_amplitude(self):
        obs = diagonal([0, 1, 0, 1])
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

    @pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(3)], ids=["2x3", "vector"])
    def test_from_matrix_rejects_non_square_matrix(self, matrix):
        with pytest.raises(ValueError, match="observable matrix must be square"):
            Observable.from_matrix(matrix)

    def test_rejects_zero_dimension(self):
        message = "^observable matrix must have positive dimension$"
        with pytest.raises(ValueError, match=message):
            Observable.from_matrix(np.zeros((0, 0)))
        with pytest.raises(ValueError, match=message):
            Observable(np.zeros((0, 0)), (), ())

    def test_degenerate_grouping(self):
        obs = Observable.from_matrix(np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex))
        assert len(obs.eigenvalues) == 2

    @pytest.mark.parametrize("entries, groups", [
        ([0.0, 5e-11, 1.0], [(0.0, [1, 1, 0]), (1.0, [0, 0, 1])]),
        ([0.0, 8e-11, 1.6e-10], [(0.0, [1, 1, 0]), (1.6e-10, [0, 0, 1])]),
    ])
    def test_diagonal_groups_near_degenerate_entries(self, entries, groups):
        # grouped as from_projectors groups them; these used to fail the
        # reconstruction and completeness checks
        obs = diagonal(entries)
        ref = from_projectors(entries, [np.diag(row) for row in np.eye(3)])
        assert obs.eigenvalues == tuple(a for a, _ in groups) == ref.eigenvalues
        for p, (_, diag) in zip(obs.projectors, groups):
            np.testing.assert_array_equal(p, np.diag(diag))
        np.testing.assert_array_equal(obs.matrix, ref.matrix)
        # the eigensolver route groups the same members, and the group's mean
        # stands for it where the constructive route keeps the first value
        solved = Observable.from_matrix(np.diag(entries))
        means = {5e-11: (2.5e-11, 1.0), 8e-11: (4e-11, 1.6e-10)}[entries[1]]
        assert solved.eigenvalues == means
        for p, (_, diag) in zip(solved.projectors, groups):
            np.testing.assert_array_equal(p, np.diag(diag))

    def test_exact_tie_diagonals_match_the_constructive_route(self):
        # exact ties have one value per group, so the group's mean is its
        # first value and both routes build the same bytes; the eigenvalues
        # compare equal, though a tied group of -0.0 has the mean +0.0
        rng = np.random.default_rng(12)
        values = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
        for _ in range(300):
            entries = rng.choice(values, int(rng.integers(1, 9)))
            want = from_projectors(entries, [np.diag(row) for row in np.eye(entries.size)])
            got = Observable.from_matrix(np.diag(entries))
            assert got.matrix.tobytes() == want.matrix.tobytes(), entries
            assert got.eigenvalues == want.eigenvalues, entries
            assert len(got.projectors) == len(want.projectors), entries
            for p, q in zip(got.projectors, want.projectors):
                assert p.tobytes() == q.tobytes(), entries

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

def outcome(validate, *args) -> str | None:
    """None when ``validate`` accepts, else its ValueError message."""
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    return None


def batch_validate(matrix, eigenvalues, projectors) -> None:
    """The stacked check on the batch [valid, family, valid].

    The valid member is a diagonal family of the same shapes.  A family with
    a shape fault has no valid neighbour, so it is checked as [family] * 3.
    """
    family = (np.asarray(matrix, dtype=complex), np.asarray(eigenvalues, dtype=float),
              np.asarray(projectors, dtype=complex))
    members = [family] * 3
    mat, evals, stack = family
    dim, k = mat.shape[0], evals.size
    if mat.shape == (dim, dim) and stack.shape == (k, dim, dim) and 1 <= k <= dim:
        projs = np.array([np.diag(np.isin(np.arange(dim), g)) for g in
                          np.array_split(np.arange(dim), k)], dtype=complex)
        vals = np.arange(k, dtype=float)
        valid = ((vals[:, None, None] * projs).sum(axis=0), vals, projs)
        members = [valid, family, valid]
    qcore._check_families(*(np.array(part) for part in zip(*members)))


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_state(rng, dim):
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(a / np.linalg.norm(a))


def _collective_total(n: int = 3) -> np.ndarray:
    """Sum over n factors of the 4-dim pair observable, as in criterion 10."""
    obs = diagonal([0, 0, 0, 1])
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
        out.append((f"from_projectors-{dim}", from_projectors(
            rng.uniform(-2.0, 2.0, len(groups)),
            [vecs[:, g] @ vecs[:, g].conj().T for g in groups])))
        out.append((f"diagonal-{dim}", diagonal(rng.integers(-2, 3, dim))))
        left = identity(1) if dim in (2, 3, 5) else diagonal([0.5, -1.0])
        right = Observable.from_matrix(_random_hermitian(rng, dim // left.dim))
        out.append((f"op_tensor-{dim}", op_tensor(left, right)))
        out.append((f"projector-{dim}", projector(_random_state(rng, dim))))
    vecs = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))[0]
    groups = np.array_split(np.arange(64), 4)
    out += [
        ("from_matrix-64", Observable.from_matrix(_collective_total())),
        ("from_projectors-64", from_projectors(
            [-1.0, 0.0, 2.0, 3.5], [vecs[:, g] @ vecs[:, g].conj().T for g in groups])),
        ("diagonal-64", diagonal(np.arange(64) % 5)),
        ("op_tensor-64", op_tensor(diagonal([0, 1, 1, 2]),
                                   diagonal(np.arange(16) % 3))),
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
        for validate in (pairwise_validate, Observable, batch_validate):
            assert outcome(validate, *family) is None
            for eps, expected in ((1e-14, None),
                                  (1e-9, "projectors do not sum to the identity")):
                assert outcome(validate, *_perturbed(obs, eps)) == expected

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
        # only P_1 P_1 != P_1 is wrong, so a check that stops after row i = 0 passes it
        ((np.diag([0.0, 1.0]), (0.0, 1.0, 1.0),
          (np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5]))),
         "projector family is not orthogonal"),
        ((np.diag([2.0, 0.0]), (1.0, 0.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
         "spectral reconstruction does not match matrix"),
    ], ids=["square", "hermitian", "count", "empty", "complete", "orthogonal", "orthogonal-row-1",
            "reconstruction"])
    def test_rejection_messages(self, args, message, pair_block):
        # the batch check names the one bad member's fault as the single check does
        for validate in (pairwise_validate, Observable, batch_validate):
            assert outcome(validate, *args) == message

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
        diagonal(np.arange(32.0))
        tracemalloc.start()
        try:
            diagonal(np.arange(32.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_batch_products_stay_in_bounded_blocks(self):
        # 600 dim-6 families: all 777,600 pair products at once peak near 21 MB
        rng = np.random.default_rng(6)
        built = Observable._from_matrices(np.array([_random_hermitian(rng, 6)
                                                    for _ in range(600)]))
        batch = tuple(np.array(part) for part in zip(
            *((o.matrix, o.eigenvalues, o.projectors) for o in built)))
        tracemalloc.start()
        try:
            qcore._check_families(*batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @staticmethod
    def assert_bit_identical(obs, h):
        matrix, evals, projs = pairwise_from_matrix(h)
        assert obs.matrix.tobytes() == matrix.tobytes()
        assert np.array(obs.eigenvalues).tobytes() == np.array(evals).tobytes()
        assert len(obs.projectors) == len(projs)
        for new, old in zip(obs.projectors, projs):
            assert new.tobytes() == old.tobytes()

    def test_from_matrix_bit_identical_on_additivity_stream(self):
        # all draws of verify criterion 5, from its batches and one matrix at a time
        rng = np.random.default_rng(verify.ADDITIVITY_SEED)
        for _, a, b, ab in verify._additivity_triples():
            dim = int(rng.integers(2, 7))
            verify._random_ensemble(rng, dim)
            ha, hb = verify._random_hermitian(rng, dim), verify._random_hermitian(rng, dim)
            hab = pairwise_from_matrix(ha)[0] + pairwise_from_matrix(hb)[0]
            for obs, h in ((a, ha), (b, hb), (ab, hab)):
                self.assert_bit_identical(obs, h)
                self.assert_bit_identical(Observable.from_matrix(h), h)

    @staticmethod
    def near_degenerate() -> np.ndarray:
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        return u @ np.diag([1.0, 1.0 + 3e-11, 3.0]) @ u.conj().T

    def test_from_matrix_bit_identical_with_grouped_eigenvalues(self):
        for h in (self.near_degenerate(), _collective_total()):
            self.assert_bit_identical(Observable.from_matrix(h), h)

    def test_batch_with_one_near_degenerate_member(self):
        rng = np.random.default_rng(9)
        batch = np.array([_random_hermitian(rng, 3), self.near_degenerate(),
                          _random_hermitian(rng, 3)])
        built = Observable._from_matrices(batch)
        assert [len(obs.eigenvalues) for obs in built] == [3, 2, 3]
        for obs, h in zip(built, batch):
            self.assert_bit_identical(obs, h)
            single = Observable.from_matrix(h)
            assert obs.matrix.tobytes() == single.matrix.tobytes()
            assert obs.eigenvalues == single.eigenvalues
            assert all(p.tobytes() == q.tobytes()
                       for p, q in zip(obs.projectors, single.projectors, strict=True))

    def test_batch_is_checked_once_per_grouping(self, monkeypatch):
        calls = []
        real = qcore._check_families
        monkeypatch.setattr(qcore, "_check_families", lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(10)
        batch = np.array([_random_hermitian(rng, 3), self.near_degenerate(),
                          _random_hermitian(rng, 3), _random_hermitian(rng, 3)])
        Observable._from_matrices(batch)
        assert [len(mat) for mat, _, _ in calls] == [3, 1]
        calls.clear()
        verify._additivity_triples()
        assert len(calls) == 10  # A and B, then A + B, for each dimension 2-6

    def test_batch_members_are_read_only(self):
        for obs in Observable._from_matrices(np.array([np.eye(2), np.diag([1.0, 2.0])])):
            for arr in (obs.matrix, *obs.projectors):
                with pytest.raises(ValueError):
                    arr[0, 0] = 5.0


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
        with pytest.raises(ValueError, match="^observable matrix is not finite$"):
            Observable.from_matrix(np.diag([1.0, bad]))

    def test_nan_eigenvalue_with_finite_projectors(self):
        with pytest.raises(ValueError, match="spectral reconstruction does not match matrix"):
            Observable(np.diag([1.0, 0.0]), (1.0, np.nan), (self.P0, self.P1))

    def test_nan_projector(self):
        with pytest.raises(ValueError, match="projectors do not sum to the identity"):
            Observable(np.diag([1.0, 0.0]), (1.0, 0.0), (np.diag([1.0, np.nan]), self.P1))
