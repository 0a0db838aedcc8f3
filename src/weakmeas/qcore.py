"""Dense complex linear algebra over small Hilbert spaces.

States are amplitude vectors over the computational basis (a tensor product
orders its basis with the first factor more significant), observables are
Hermitian matrices carrying their spectral decomposition (eigenvalues and one
(k, d, d) stack of orthogonal projectors).  An observable has one constructor,
``Observable.from_matrix``: the stacked Hermitian eigensolve of
``Observable._from_matrices`` on a stack of one.  Everything is read-only
after construction and all spaces in scope are tiny (dim <= 16), so plain
dense numpy arrays are used throughout.

Tolerances: an input matrix must be square, of positive dimension, finite
and Hermitian at 1e-12 absolute; degenerate eigenvalues are grouped at 1e-10,
and a group's mean stands for it; the matrix rebuilt from the grouped family
is stored, and must lie within 1e-9 * max(1, largest |entry|) of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

ATOL = 1e-12
EIG_GROUP_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(np.asarray(self.amplitudes).reshape(-1), dtype=complex)
        if amps.size == 0:
            raise ValueError("state vector must have positive dimension")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

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
        return StateVector(self.amplitudes / n)


@dataclass(frozen=True, init=False)
class Observable:
    """Hermitian operator with its spectral decomposition.

    ``eigenvalues[i]`` pairs with ``projectors[i]`` of the (k, d, d) stack;
    the projector family is orthogonal, complete and reconstructs ``matrix``.
    Eigenvalues are stored in ascending order with degeneracies merged into
    one projector.  Built only by ``from_matrix``.
    """

    matrix: np.ndarray
    eigenvalues: tuple[float, ...]
    projectors: np.ndarray

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

        One stacked eigensolve; unless some member is near-degenerate, the
        members are built and checked as one batch, with the per-matrix
        arithmetic of ``from_matrix``.
        """
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("observable matrix must be square")
        if not mats.shape[1]:
            raise ValueError("observable matrix must have positive dimension")
        if not np.isfinite(mats).all():
            raise ValueError("observable matrix is not finite")
        # a finite input near the float64 limit can overflow in the Hermitian
        # check or the eigensolve; every check here fails on the NaN or inf
        # that results, so it raises its ValueError without a warning first
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.abs(mats - mats.conj().transpose(0, 2, 1)).max(initial=0.0) <= ATOL:
                raise ValueError("observable matrix is not Hermitian within 1e-12")
            if not len(mats):
                return []
            evals, vecs = np.linalg.eigh(mats)
            if (evals[:, 1:] - evals[:, :-1]).min(initial=np.inf) > EIG_GROUP_TOL:
                return cls._from_eigh(mats, evals, vecs, None)
            # two adjacent eigenvalues within the tolerance: each member is
            # grouped and built on its own, as a stack of one
            return [cls._from_eigh(mats[m:m + 1], evals[m:m + 1], vecs[m:m + 1], _groups(row))[0]
                    for m, row in enumerate(evals.tolist())]

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
            # a product over two or more columns is Hermitian only to rounding,
            # which the eigenvalues scale up; averaging with its adjoint makes
            # it exact and keeps the values of a product that already is
            stack = (stack + stack.conj().transpose(0, 1, 3, 2)) / 2
            evals = np.stack([evals[:, lo] if hi - lo == 1 else evals[:, lo:hi].mean(axis=1)
                              for lo, hi in groups], axis=1)
        # summed in the order of sum(a * p for a, p in pairs), 0 + ... included;
        # one term at a time, so no (n, k, d, d) stack of terms is held
        recon = 0
        for i in range(evals.shape[1]):
            recon = recon + evals[:, i, None, None] * stack[:, i]
        # eigh's eigenvectors are orthonormal, so the projectors are complete
        # and orthogonal, and the stored matrix, rebuilt from them, is exactly
        # Hermitian; left to judge is its distance from the input, relative to
        # the input's largest entry (an overflowed eigensolve gives NaN)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        if not (np.abs(recon - mats).max(axis=(1, 2)) <= 1e-9 * scale).all():
            raise ValueError("eigensolve lost too much accuracy (more than 1e-9 "
                             "of the matrix scale)")
        recon.setflags(write=False)
        stack.setflags(write=False)
        out = []
        for mat, row, family in zip(recon, evals.tolist(), stack):
            obs = object.__new__(cls)
            vars(obs).update(matrix=mat, eigenvalues=tuple(row), projectors=family)
            out.append(obs)
        return out


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


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; basis index i*b.dim + j is a's state i with b's state j."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"inner: dimensions {a.dim} and {b.dim} differ")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
