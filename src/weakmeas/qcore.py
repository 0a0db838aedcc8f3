"""Dense complex linear algebra over small labeled Hilbert spaces.

States are amplitude vectors over a labeled computational basis, observables
are Hermitian matrices carrying their spectral decomposition (eigenvalues and
orthogonal projectors).  Every observable the package builds comes from one
route, the stacked Hermitian eigensolve of ``Observable._from_matrices``
(``from_matrix`` is its stack of one).  Everything is immutable after
construction and all spaces in scope are tiny (dim <= 16), so plain dense
numpy arrays are used throughout.

Tolerances: Hermiticity and spectral identities are enforced at 1e-12
absolute; degenerate eigenvalues are grouped at 1e-10, and a group's mean
stands for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionMismatchError

ATOL = 1e-12
EIG_GROUP_TOL = 1e-10
_PAIR_BLOCK = 1 << 16  # complex entries of P_i P_j products held at once (1 MB)


def _frozen(arr: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@cache
def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(dim))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a labeled basis.

    ``labels`` names the basis states; labels within one space are unique,
    and tensor products concatenate them lexicographically in factor order.
    """

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.size == 0:
            raise ValueError("state vector must have positive dimension")
        object.__setattr__(self, "amplitudes", amps)
        labels = tuple(self.labels) if self.labels else _default_labels(amps.size)
        if len(labels) != amps.size:
            raise ValueError(f"{len(labels)} labels for dimension {amps.size}")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) <= ATOL

    def normalized(self) -> "StateVector":
        n = self.norm
        if not 0.0 < n < np.inf:  # a zero, infinite or NaN norm
            raise ValueError(f"cannot normalize a vector of norm {n}")
        return StateVector(self.amplitudes / n, self.labels)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.labels.index(label)])


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with its spectral decomposition.

    ``eigenvalues[i]`` pairs with ``projectors[i]``; the projector family is
    orthogonal, complete and reconstructs ``matrix``.  Eigenvalues are stored
    in ascending order with degeneracies merged into one projector.
    """

    matrix: np.ndarray
    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        evals = tuple(map(float, self.eigenvalues))
        try:
            stack = _frozen(self.projectors)
        except ValueError:  # a ragged family: its (k, 0) stand-in fails the shape check
            stack = np.empty((len(self.projectors), 0))
        _check_families(mat[None], np.array([evals]), stack[None])
        self._set(mat, evals, tuple(stack))

    def _set(self, matrix, eigenvalues, projectors) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "projectors", projectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Build via a general Hermitian eigensolver; eigenvalues within 1e-10
        of their group's first share one projector, and the group's mean
        stands for them."""
        return cls._from_matrices(np.asarray(matrix, dtype=complex)[None])[0]

    @classmethod
    def _from_matrices(cls, matrices) -> list["Observable"]:
        """``from_matrix`` of each matrix of an (n, d, d) stack, in order.

        One stacked eigensolve; the members that group their eigenvalues alike
        (all of them, unless some are near-degenerate) are built and checked
        as one batch, with the per-matrix arithmetic of ``from_matrix``.
        """
        mats = np.asarray(matrices, dtype=complex)
        _check_matrices(mats)
        evals, vecs = np.linalg.eigh(mats)
        if (evals[:, 1:] - evals[:, :-1]).min(initial=np.inf) > EIG_GROUP_TOL:
            return cls._from_eigh(mats, evals, vecs, None)
        # two adjacent eigenvalues within the tolerance: group every member on
        # its own, and build the members that group alike together
        out: list = [None] * len(mats)
        batches: dict[tuple, list[int]] = {}
        for m, values in enumerate(evals.tolist()):
            batches.setdefault(_groups(values), []).append(m)
        for groups, members in batches.items():
            built = cls._from_eigh(mats[members], evals[members], vecs[members], groups)
            for m, obs in zip(members, built):
                out[m] = obs
        return out

    @classmethod
    def _from_eigh(cls, mats, evals, vecs, groups) -> list["Observable"]:
        """The observables of one stacked eigensolve whose members all group
        their eigenvalues as ``groups`` ([lo, hi) ranges; None: one projector
        per eigenvalue), with the per-matrix arithmetic of ``from_matrix``."""
        if groups is None:
            # every (d, 1) @ (1, d) column product in one call; one product per
            # eigenvalue, as below, costs a single from_matrix 20-30% more
            cols = vecs.transpose(0, 2, 1)[:, :, :, None]
            stack = cols @ cols.conj().transpose(0, 1, 3, 2)
        else:
            blocks = [vecs[:, :, lo:hi] for lo, hi in groups]
            stack = np.stack([c @ c.conj().transpose(0, 2, 1) for c in blocks], axis=1)
            evals = np.stack([evals[:, lo] if hi - lo == 1 else evals[:, lo:hi].mean(axis=1)
                              for lo, hi in groups], axis=1)
        # summed in the order of sum(a * p for a, p in pairs), 0 + ... included
        terms = evals[:, :, None, None] * stack
        recon = 0
        for i in range(evals.shape[1]):
            recon = recon + terms[:, i]
        # the matrix rebuilt from the grouped decomposition is stored, so the
        # spectral identities hold at 1e-12 even when grouping snapped
        # nearly-degenerate eigenvalues together
        if not np.abs(recon - mats).max() <= 1e-9:
            raise ValueError("eigenvalue grouping lost too much accuracy")
        recon.setflags(write=False)
        stack.setflags(write=False)
        _check_families(recon, evals, stack)
        out = [object.__new__(cls) for _ in range(len(mats))]
        for obs, mat, row, family in zip(out, recon, evals.tolist(), stack):
            obs._set(mat, tuple(row), tuple(family))
        return out


def _check_matrices(mat: np.ndarray) -> None:
    """Check an (n, d, d) stack of observable matrices: square, d >= 1,
    finite and Hermitian."""
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ValueError("observable matrix must be square")
    if not mat.shape[1]:
        raise ValueError("observable matrix must have positive dimension")
    # NaN fails every comparison, so the checks here and in _check_families
    # read not (deviation <= tol): a NaN eigenvalue or projector fails them too
    if not np.isfinite(mat).all():
        raise ValueError("observable matrix is not finite")
    if not np.abs(mat - mat.conj().transpose(0, 2, 1)).max() <= ATOL:
        raise ValueError("observable matrix is not Hermitian within 1e-12")


def _check_families(mat: np.ndarray, evals: np.ndarray, stack: np.ndarray) -> None:
    """Check a batch of spectral families, member m being (mat[m], evals[m],
    stack[m]) of shapes (d, d), (k,) and (k, d, d).

    Raises the ValueError of the first check that some member fails, so a
    batch with one bad member fails as that member would alone.  A shape
    fault is one of the whole batch, since the batch is one array.
    """
    _check_matrices(mat)
    n, k = evals.shape
    if stack.shape[1] != k or not k:
        raise ValueError("need one projector per eigenvalue")
    if stack.shape[2:] != mat.shape[1:]:
        raise ValueError(f"every projector must have the matrix shape {mat.shape[1:]}")
    dim = mat.shape[1]
    if not np.abs(stack.sum(axis=1) - np.eye(dim)).max() <= ATOL:
        raise ValueError("projectors do not sum to the identity")
    # P_i P_j for every pair from one matrix product per member, rows (i, a)
    # by columns (j, c); at most _PAIR_BLOCK products are held at once: whole
    # members together when one fits, else a few rows i of one member
    row = k * dim * dim
    rows = min(k, max(1, _PAIR_BLOCK // row))
    members = max(1, _PAIR_BLOCK // (k * row))
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


def _groups(values: list[float]) -> tuple[tuple[int, int], ...]:
    """Index ranges [lo, hi) of ascending eigenvalues that share one
    projector: those within EIG_GROUP_TOL of their range's first."""
    out = []
    k = 0
    while k < len(values):
        j = k
        while j + 1 < len(values) and values[j + 1] - values[k] <= EIG_GROUP_TOL:
            j += 1
        out.append((k, j + 1))
        k = j + 1
    return tuple(out)


def _check_same_dim(a_dim: int, b_dim: int, what: str) -> None:
    if a_dim != b_dim:
        raise DimensionMismatchError(f"{what}: dimensions {a_dim} and {b_dim} differ")


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; labels concatenate lexicographically in factor order."""
    amps = np.kron(a.amplitudes, b.amplitudes)
    labels = tuple(f"{la}·{lb}" for la in a.labels for lb in b.labels)
    return StateVector(amps, labels)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_same_dim(a.dim, b.dim, "inner")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
