"""Truncated composite Hilbert space: atom (x) mode-a (x) mode-b.

Basis ordering is fixed: the atomic index is slowest, mode b fastest, so the
flat index of |level, n_a, n_b> is  (level * dim_a + n_a) * dim_b + n_b, and
``HilbertSpace.shape`` = (atom_levels, dim_a, dim_b) is the shape the flat
amplitudes reshape to.  Atomic levels are ordered (g, e, i); the tomography
probe's auxiliary level f is tracked by ``tomography.probe_protocol`` without
a space of its own.

Each elementary operator is one band of the flat basis, built straight from
its index arrays: a photon of mode b is a step of 1, a photon of mode a a
step of dim_b, and |k><l| moves a whole field block.  All operators are
sparse complex matrices tagged with their space; operators on different
spaces never combine.  Only exact zeros are dropped from a matrix, so a
coupling keeps its entries at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as _sparse_norm

# Truncations whose total dimension exceeds this cap are rejected outright.
DIM_CAP = 2_000_000

# An operator is Hermitian when ||M - M^dag||_F <= HERMITIAN_RTOL * max(||M||_F, 1).
HERMITIAN_RTOL = 1e-12

_LEVELS = ("g", "e", "i")


class SpaceMismatchError(ValueError):
    """Raised when operators or states from different spaces are combined."""


@dataclass(frozen=True)
class HilbertSpace:
    """Dimensions and index maps of the truncated composite space.

    ``atom_levels == 1`` denotes a pure two-mode field space (no atomic
    factor); such spaces come from :func:`field_space`, never from
    :func:`make_space`.
    """

    atom_levels: int
    n_max_a: int
    n_max_b: int

    @property
    def dim_a(self) -> int:
        return self.n_max_a + 1

    @property
    def dim_b(self) -> int:
        return self.n_max_b + 1

    @property
    def field_dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def total_dim(self) -> int:
        return self.atom_levels * self.dim_a * self.dim_b

    @property
    def shape(self) -> tuple[int, int, int]:
        """(atom_levels, dim_a, dim_b): the axes of the flat basis, mode b fastest."""
        return (self.atom_levels, self.dim_a, self.dim_b)

    @property
    def level_labels(self) -> tuple[str, ...]:
        return ("",) if self.atom_levels == 1 else _LEVELS

    def level_index(self, level: int | str) -> int:
        """Resolve a level label ('g', 'e', 'i') or index to an index."""
        if isinstance(level, str):
            try:
                return self.level_labels.index(level)
            except ValueError:
                raise ValueError(
                    f"unknown atomic level {level!r}; valid: {self.level_labels}"
                ) from None
        if not 0 <= level < self.atom_levels:
            raise ValueError(f"atomic level index {level} out of range")
        return int(level)

    def flatten(self, level: int, n_a: int, n_b: int) -> int:
        if not (0 <= level < self.atom_levels
                and 0 <= n_a <= self.n_max_a
                and 0 <= n_b <= self.n_max_b):
            raise ValueError(f"index ({level}, {n_a}, {n_b}) outside space")
        return (level * self.dim_a + n_a) * self.dim_b + n_b

    def unflatten(self, k: int) -> tuple[int, int, int]:
        if not 0 <= k < self.total_dim:
            raise ValueError(f"flat index {k} outside space")
        k, n_b = divmod(k, self.dim_b)
        level, n_a = divmod(k, self.dim_a)
        return level, n_a, n_b

    def fock_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-basis-index photon numbers (n_a[k], n_b[k]) as int arrays."""
        _, n_a, n_b = np.indices(self.shape).reshape(3, -1)
        return n_a, n_b

    def field_subspace(self) -> "HilbertSpace":
        """The two-mode space obtained by dropping the atomic factor."""
        return HilbertSpace(1, self.n_max_a, self.n_max_b)


def _checked(space: HilbertSpace) -> HilbertSpace:
    if space.n_max_a < 0 or space.n_max_b < 0:
        raise ValueError("Fock truncations must be non-negative")
    if space.total_dim > DIM_CAP:
        raise ValueError(
            f"total dimension {space.total_dim} exceeds cap {DIM_CAP}"
        )
    return space


def make_space(atom_levels: int, n_max_a: int, n_max_b: int) -> HilbertSpace:
    """Build the composite atom (x) mode-a (x) mode-b space.

    atom_levels must be 3 (g, e, i).
    """
    if atom_levels != 3:
        raise ValueError(f"atom_levels must be 3, got {atom_levels}")
    return _checked(HilbertSpace(atom_levels, n_max_a, n_max_b))


def field_space(n_max_a: int, n_max_b: int) -> HilbertSpace:
    """Two-mode space without an atomic factor."""
    return _checked(HilbertSpace(1, n_max_a, n_max_b))


class Operator:
    """Sparse complex matrix tagged with its HilbertSpace.

    Immutable after construction, so the Hermiticity check runs at most once;
    arithmetic raises SpaceMismatchError when the operand spaces differ.
    """

    __slots__ = ("space", "matrix", "_hermitian")

    def __init__(self, space: HilbertSpace, matrix):
        matrix = sp.csr_matrix(matrix, dtype=np.complex128)
        if not matrix.data.all():  # drop exact zeros, and only those, from a copy
            matrix = matrix.copy()
            matrix.eliminate_zeros()
        if matrix.shape != (space.total_dim, space.total_dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match dim {space.total_dim}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_hermitian", None)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    def _check(self, other: "Operator") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def apply(self, state: "StateVector") -> "StateVector":
        if self.space != state.space:
            raise SpaceMismatchError("operator and state live on different spaces")
        return StateVector(self.space, self.matrix @ state.amplitudes, copy=False)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def frobenius_norm(self) -> float:
        return float(_sparse_norm(self.matrix)) if self.matrix.nnz else 0.0

    def is_hermitian(self) -> bool:
        if self._hermitian is None:
            diff = self.matrix - self.matrix.conj().T
            scale = self.frobenius_norm()
            dev = float(_sparse_norm(diff)) if diff.nnz else 0.0
            object.__setattr__(self, "_hermitian", dev <= HERMITIAN_RTOL * max(scale, 1.0))
        return self._hermitian

    def __repr__(self) -> str:
        return (f"Operator(dim={self.space.total_dim}, nnz={self.matrix.nnz})")


class StateVector:
    """Complex amplitude vector over a HilbertSpace (read-only storage)."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: HilbertSpace, amplitudes, copy: bool = True):
        amps = np.array(amplitudes, dtype=np.complex128, copy=copy).ravel()
        if amps.size != space.total_dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match dim {space.total_dim}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n, copy=False)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.space != other.space:
            raise SpaceMismatchError("states live on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.space.total_dim}, norm={self.norm():.6f})"


# --- elementary operators ---------------------------------------------------

def _mode_numbers(space: HilbertSpace, mode: str) -> tuple[np.ndarray, int]:
    """Photon number of the mode at every flat index, and the flat step of
    one of its photons."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    n_a, n_b = space.fock_numbers()
    return (n_a, space.dim_b) if mode == "a" else (n_b, 1)


def annihilation(space: HilbertSpace, mode: str) -> Operator:
    """Bosonic annihilation operator on the designated mode.

    <n-1| a |n> = sqrt(n): the band at the mode's photon step, whose factor
    sqrt(n) is 0 exactly where a step would leave the mode's block.
    """
    n, step = _mode_numbers(space, mode)
    dim = space.total_dim
    return Operator(space, sp.diags(np.sqrt(n[step:]), step, shape=(dim, dim)))


def creation(space: HilbertSpace, mode: str) -> Operator:
    return annihilation(space, mode).dag()


def number_operator(space: HilbertSpace, mode: str) -> Operator:
    """diag(n) of the designated mode."""
    n, _ = _mode_numbers(space, mode)
    return Operator(space, sp.diags(n.astype(float)))


def identity_operator(space: HilbertSpace) -> Operator:
    return Operator(space, sp.identity(space.total_dim, format="csr"))


def atomic_sigma(space: HilbertSpace, k: int | str, l: int | str) -> Operator:
    """Atomic transition operator |k><l|, identity on both modes: the field
    block of level l moved, entry for entry, to the block of level k."""
    if space.atom_levels == 1:
        raise ValueError("space has no atomic factor")
    block = np.arange(space.field_dim)
    rows = space.level_index(k) * space.field_dim + block
    cols = space.level_index(l) * space.field_dim + block
    dim = space.total_dim
    return Operator(space, sp.csr_matrix((np.ones(block.size), (rows, cols)), shape=(dim, dim)))


# --- states -----------------------------------------------------------------

def basis_state(space: HilbertSpace, level: int | str, n_a: int, n_b: int) -> StateVector:
    """Product basis state |level, n_a, n_b>."""
    li = space.level_index(level) if space.atom_levels > 1 else 0
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.flatten(li, n_a, n_b)] = 1.0
    return StateVector(space, amps, copy=False)


def fock_state(space: HilbertSpace, n_a: int, n_b: int) -> StateVector:
    """Two-mode Fock state |n_a, n_b> on a field space."""
    if space.atom_levels != 1:
        raise ValueError("fock_state needs a field space; use basis_state")
    return basis_state(space, 0, n_a, n_b)


def vacuum_state(space: HilbertSpace) -> StateVector:
    return fock_state(space, 0, 0)


def project_atom(state: StateVector, level: int | str) -> StateVector:
    """Two-mode amplitude vector conditioned on the atomic level.

    Returned unnormalized: its squared norm is the population of the level.
    """
    space = state.space
    if space.atom_levels == 1:
        raise ValueError("state has no atomic factor to project")
    li = space.level_index(level)
    block = state.amplitudes[li * space.field_dim:(li + 1) * space.field_dim]
    return StateVector(space.field_subspace(), block)


def embed_atom(field_state: StateVector, space: HilbertSpace, level: int | str) -> StateVector:
    """Tensor a two-mode state with a definite atomic level: |level> (x) |psi>."""
    if field_state.space.atom_levels != 1:
        raise ValueError("embed_atom expects a field-space state")
    if (field_state.space.n_max_a, field_state.space.n_max_b) != (space.n_max_a, space.n_max_b):
        raise SpaceMismatchError("field truncations do not match the target space")
    li = space.level_index(level)
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[li * space.field_dim:(li + 1) * space.field_dim] = field_state.amplitudes
    return StateVector(space, amps, copy=False)


def expectation(op: Operator, state: StateVector) -> complex:
    """<psi| O |psi>."""
    if op.space != state.space:
        raise SpaceMismatchError("operator and state live on different spaces")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def atom_block(op: Operator, level: int | str) -> Operator:
    """Restriction of an operator to one atomic level, as a field-space operator."""
    space = op.space
    if space.atom_levels == 1:
        raise ValueError("operator has no atomic factor")
    li = space.level_index(level)
    lo = li * space.field_dim
    hi = lo + space.field_dim
    block = op.matrix[lo:hi, lo:hi]
    return Operator(space.field_subspace(), block)
