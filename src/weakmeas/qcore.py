"""Dense complex linear algebra over small labeled Hilbert spaces.

States are amplitude vectors over a labeled computational basis, observables
are Hermitian matrices carrying their spectral decomposition (eigenvalues and
orthogonal projectors).  Everything is immutable after construction and all
spaces in scope are tiny (dim <= 16), so plain dense numpy arrays are used
throughout.

Tolerances: Hermiticity and spectral identities are enforced at 1e-12
absolute; degenerate eigenvalues are grouped at 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

ATOL = 1e-12
EIG_GROUP_TOL = 1e-10
_PAIR_BLOCK = 1 << 18  # complex entries of P_i P_j products held at once (4 MB)


def _frozen(arr: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


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
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
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
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable matrix must be square")
        # NaN fails every comparison, so the checks below read
        # not (deviation <= tol): a NaN eigenvalue or projector fails them too
        if not np.isfinite(mat).all():
            raise ValueError("observable matrix is not finite")
        if not np.abs(mat - mat.conj().T).max() <= ATOL:
            raise ValueError("observable matrix is not Hermitian within 1e-12")
        evals = tuple(float(a) for a in self.eigenvalues)
        if len(self.projectors) != len(evals) or not evals:
            raise ValueError("need one projector per eigenvalue")
        if any(np.shape(p) != mat.shape for p in self.projectors):
            raise ValueError(f"every projector must have the matrix shape {mat.shape}")
        # the family is checked as one (k, d, d) stack, one array pass per identity
        stack = _frozen(self.projectors)
        k, dim = stack.shape[:2]
        if not np.abs(stack.sum(axis=0) - np.eye(dim)).max() <= ATOL:
            raise ValueError("projectors do not sum to the identity")
        # P_i P_j for every pair from one matrix product, rows (i, a) by
        # columns (j, c); a family too large for one block goes a few i at a time
        right = stack.transpose(1, 0, 2).reshape(dim, k * dim)
        rows = max(1, _PAIR_BLOCK // (k * dim * dim))
        for lo in range(0, k, rows):
            block = stack[lo:lo + rows]
            n = len(block)
            prods = (block.reshape(n * dim, dim) @ right).reshape(n, dim, k, dim)
            same = np.einsum("iaic->iac", prods[:, :, lo:lo + n])  # view of the i == j pairs
            same -= block
            if not np.abs(prods).max() <= ATOL:
                raise ValueError("projector family is not orthogonal")
        recon = (np.array(evals)[:, None, None] * stack).sum(axis=0)
        if not np.abs(recon - mat).max() <= ATOL:
            raise ValueError("spectral reconstruction does not match matrix")
        projs = tuple(stack)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_projectors(cls, eigenvalues, projectors, name: str | None = None) -> "Observable":
        """Build constructively from an eigenvalue/projector family."""
        pairs = _group_eigenpairs(eigenvalues, [np.asarray(p, dtype=complex) for p in projectors])
        evals = tuple(a for a, _ in pairs)
        projs = tuple(p for _, p in pairs)
        mat = sum(a * p for a, p in pairs)
        return cls(mat, evals, projs, name=name)

    @classmethod
    def diagonal(cls, entries, name: str | None = None) -> "Observable":
        """Observable diagonal in the computational basis."""
        entries = np.asarray(entries, dtype=float)
        dim = entries.size
        pairs = []
        for a in sorted(set(_snap(entries))):
            mask = np.abs(entries - a) <= EIG_GROUP_TOL
            pairs.append((a, np.diag(mask.astype(complex))))
        return cls(np.diag(entries).astype(complex),
                   tuple(a for a, _ in pairs), tuple(p for _, p in pairs), name=name)

    @classmethod
    def from_matrix(cls, matrix, name: str | None = None) -> "Observable":
        """Build via a general Hermitian eigensolver.

        Only needed off the constructive paths (random observables, the
        simultaneous-measurement verification route); eigenvalues within
        1e-10 of each other share one projector.
        """
        mat = np.asarray(matrix, dtype=complex)
        if not np.isfinite(mat).all():
            raise ValueError("matrix is not finite")
        if not np.abs(mat - mat.conj().T).max() <= ATOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        evals, vecs = np.linalg.eigh(mat)
        values = evals.tolist()
        pairs = []
        k = 0
        while k < len(values):
            j = k
            while j + 1 < len(values) and values[j + 1] - values[k] <= EIG_GROUP_TOL:
                j += 1
            block = vecs[:, k:j + 1]
            a = values[k] if j == k else float(np.mean(evals[k:j + 1]))
            pairs.append((a, block @ block.conj().T))
            k = j + 1
        evs = tuple(a for a, _ in pairs)
        projs = tuple(p for _, p in pairs)
        # store the matrix rebuilt from the grouped decomposition so the
        # spectral identities hold at 1e-12 even when grouping snapped
        # nearly-degenerate eigenvalues together
        recon = sum(a * p for a, p in pairs)
        if not np.abs(recon - mat).max() <= 1e-9:
            raise ValueError("eigenvalue grouping lost too much accuracy")
        return cls(recon, evs, projs, name=name)

    @classmethod
    def identity(cls, dim: int, name: str | None = None) -> "Observable":
        return cls(np.eye(dim, dtype=complex), (1.0,), (np.eye(dim, dtype=complex),), name=name)


def _snap(values) -> list[float]:
    """Collapse values that agree within EIG_GROUP_TOL to one representative."""
    reps: list[float] = []
    for v in sorted(float(x) for x in np.asarray(values).reshape(-1)):
        if not reps or v - reps[-1] > EIG_GROUP_TOL:
            reps.append(v)
    return reps


def _group_eigenpairs(eigenvalues, projectors):
    groups: list[tuple[float, np.ndarray]] = []
    order = np.argsort(np.asarray(eigenvalues, dtype=float))
    for idx in order:
        a = float(eigenvalues[idx])
        p = projectors[idx]
        if groups and a - groups[-1][0] <= EIG_GROUP_TOL:
            groups[-1] = (groups[-1][0], groups[-1][1] + p)
        else:
            groups.append((a, p.copy()))
    return groups


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
    return Observable.from_projectors([v for v, _ in pairs], [p for _, p in pairs])
