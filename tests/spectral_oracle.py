"""The original per-matrix ``Observable`` construction, kept as a test oracle.

``pairwise_validate`` is the spectral-family check one projector pair at a
time, and ``pairwise_from_matrix`` the eigensolver route one matrix at a
time.  The stacked checks and the batched build in ``qcore`` must agree
with them: same verdicts, same messages, bit-identical arrays.

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
    return Observable(mat, tuple(a for a, _ in pairs), tuple(p for _, p in pairs))


def diagonal(entries) -> Observable:
    """Observable diagonal in the computational basis, each entry contributing
    its basis projector to ``from_projectors``."""
    entries = np.asarray(entries, dtype=float).reshape(-1)
    return from_projectors(entries, [np.diag(row) for row in np.eye(entries.size)])


def identity(dim: int) -> Observable:
    return Observable(np.eye(dim, dtype=complex), (1.0,), (np.eye(dim, dtype=complex),))


def projector(s: StateVector) -> Observable:
    """Rank-1 projector |s><s| as an observable with eigenvalues {0, 1}."""
    if not s.is_normalized:
        raise ValueError("projector requires a normalized state")
    p = np.outer(s.amplitudes, s.amplitudes.conj())
    if s.dim == 1:
        return Observable(p, (1.0,), (p,))
    comp = np.eye(s.dim, dtype=complex) - p
    return Observable(p, (0.0, 1.0), (comp, p))


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
