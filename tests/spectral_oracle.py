"""The original per-matrix ``Observable`` construction, kept as a test oracle.

``pairwise_validate`` is the spectral-family check one projector pair at a
time (square and Hermitian matrix, one projector per eigenvalue,
completeness, orthogonality, reconstruction, all at 1e-12), and
``pairwise_from_matrix`` the eigensolver route one matrix at a time.  The
library keeps no family check of its own: every family it builds comes from
an eigensolve, and the batched build in ``qcore`` must agree with these
routes: same accepted families, bit-identical arrays.

``stacked_validate`` is the same check on a batch of families at once, in
bounded blocks of pair products: the validator the library ran on every
build before it trusted its eigensolve, kept here and held to the pairwise
verdicts.  ``observable`` builds an ``Observable`` from a given spectral
family, as its removed dataclass constructor did, after ``stacked_validate``
has judged the family as a batch of one: its verdicts and messages are
``pairwise_validate``'s, and a NaN, which compares False with ``>``, is
refused as well.
``from_projectors``, ``diagonal``, ``identity``, ``projector`` and
``op_tensor`` build observables the constructive way (from an
eigenvalue/projector family, a diagonal, the identity, a rank-1 projector,
a tensor product of spectral families); the tests use them as independent
routes to known operators.  ``from_projectors`` groups eigenvalues within
EIG_GROUP_TOL of their group's first and keeps that first value, where the
eigensolver route keeps the group's mean: the two agree on exact ties.
"""

import numpy as np

from weakmeas.qcore import ATOL, EIG_GROUP_TOL, Observable, StateVector

PAIR_BLOCK = 1 << 16  # complex entries of P_i P_j products held at once (1 MB)


def observable(matrix, eigenvalues, projectors) -> Observable:
    """A read-only ``Observable`` of the family, checked as a batch of one."""
    mat = np.array(np.asarray(matrix), dtype=complex)
    evals = tuple(map(float, eigenvalues))
    stack = np.array(projectors, dtype=complex)
    stacked_validate(mat[None], np.array([evals]), stack[None])
    mat.setflags(write=False)
    stack.setflags(write=False)
    obs = object.__new__(Observable)
    vars(obs).update(matrix=mat, eigenvalues=evals, projectors=stack)
    return obs


def from_projectors(eigenvalues, projectors) -> Observable:
    """Build constructively from an eigenvalue/projector family."""
    order = np.argsort(np.asarray(eigenvalues, dtype=float))
    values = [float(eigenvalues[i]) for i in order]
    projs = [np.asarray(projectors[i], dtype=complex) for i in order]
    pairs = []
    k = 0
    while k < len(values):
        j = k
        while j + 1 < len(values) and values[j + 1] - values[k] <= EIG_GROUP_TOL:
            j += 1
        pairs.append((values[k], sum(projs[k + 1:j + 1], projs[k])))
        k = j + 1
    mat = sum(a * p for a, p in pairs)
    return observable(mat, [a for a, _ in pairs], [p for _, p in pairs])


def diagonal(entries) -> Observable:
    """Observable diagonal in the computational basis, each entry contributing
    its basis projector to ``from_projectors``."""
    entries = np.asarray(entries, dtype=float).reshape(-1)
    return from_projectors(entries, [np.diag(row) for row in np.eye(entries.size)])


def identity(dim: int) -> Observable:
    return observable(np.eye(dim), (1.0,), (np.eye(dim),))


def projector(s: StateVector) -> Observable:
    """Rank-1 projector |s><s| as an observable with eigenvalues {0, 1}."""
    if not s.is_normalized:
        raise ValueError("projector requires a normalized state")
    p = np.outer(s.amplitudes, s.amplitudes.conj())
    if s.dim == 1:
        return observable(p, (1.0,), (p,))
    comp = np.eye(s.dim, dtype=complex) - p
    return observable(p, (0.0, 1.0), (comp, p))


def op_tensor(a: Observable, b: Observable) -> Observable:
    """Tensor product of observables; eigenvalue products may merge."""
    pairs = []
    for av, ap in zip(a.eigenvalues, a.projectors):
        for bv, bp in zip(b.eigenvalues, b.projectors):
            pairs.append((av * bv, np.kron(ap, bp)))
    return from_projectors([v for v, _ in pairs], [p for _, p in pairs])


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


def stacked_validate(mat, evals, stack) -> None:
    """Check a batch of spectral families, member m being (mat[m], evals[m],
    stack[m]) of shapes (d, d), (k,) and (k, d, d).

    Raises the ValueError of the first check that some member fails, so a
    batch with one bad member fails as that member would alone.  The shapes
    of the eigenvalues and projectors are not checked.  Every check reads
    not (deviation <= tol), so a NaN fails it.
    """
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ValueError("observable matrix must be square")
    if not mat.shape[1]:
        raise ValueError("observable matrix must have positive dimension")
    if not np.isfinite(mat).all():
        raise ValueError("observable matrix is not finite")
    if not np.abs(mat - mat.conj().transpose(0, 2, 1)).max(initial=0.0) <= ATOL:
        raise ValueError("observable matrix is not Hermitian within 1e-12")
    n, k = evals.shape
    dim = mat.shape[1]
    if not np.abs(stack.sum(axis=1) - np.eye(dim)).max() <= ATOL:
        raise ValueError("projectors do not sum to the identity")
    # P_i P_j for every pair from one matrix product per member, rows (i, a)
    # by columns (j, c); at most PAIR_BLOCK products are held at once: whole
    # members together when one fits, else a few rows i of one member
    row = k * dim * dim
    rows = min(k, max(1, PAIR_BLOCK // row))
    members = max(1, PAIR_BLOCK // (k * row))
    right = stack.transpose(0, 2, 1, 3).reshape(n, dim, k * dim)
    for m in range(0, n, members):
        for lo in range(0, k, rows):
            block = stack[m:m + members, lo:lo + rows]
            b, r = block.shape[:2]
            prods = (block.reshape(b, r * dim, dim) @ right[m:m + b]).reshape(b, r, dim, k, dim)
            same = np.einsum("miaic->miac", prods[:, :, :, lo:lo + r])  # view of the i == j pairs
            same -= block
            if not np.abs(prods).max() <= ATOL:
                raise ValueError("projector family is not orthogonal")
    recon = (evals[:, :, None, None] * stack).sum(axis=1)
    if not np.abs(recon - mat).max() <= ATOL:
        raise ValueError("spectral reconstruction does not match matrix")


def pairwise_from_matrix(matrix):
    """The original ``Observable.from_matrix``: (matrix, eigenvalues, projectors).

    Each projector is averaged with its adjoint, as in the library's grouped
    branch: that makes a projector over two or more columns exactly Hermitian
    and keeps the values of a one-column product, which already is."""
    mat = np.asarray(matrix, dtype=complex)
    evals, vecs = np.linalg.eigh(mat)
    pairs = []
    k = 0
    while k < evals.size:
        j = k
        while j + 1 < evals.size and evals[j + 1] - evals[k] <= EIG_GROUP_TOL:
            j += 1
        block = vecs[:, k:j + 1]
        proj = block @ block.conj().T
        pairs.append((float(np.mean(evals[k:j + 1])), (proj + proj.conj().T) / 2))
        k = j + 1
    recon = sum(a * p for a, p in pairs)
    evs = tuple(a for a, _ in pairs)
    projs = tuple(p for _, p in pairs)
    pairwise_validate(recon, evs, projs)
    return recon, evs, projs
