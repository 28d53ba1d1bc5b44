"""Truncated composite Hilbert space: atom (x) mode-a (x) mode-b.

Basis ordering is fixed: the atomic index is slowest, mode b fastest, so the
flat index of |level, n_a, n_b> is  (level * dim_a + n_a) * dim_b + n_b, and
``HilbertSpace.shape`` = (atom_levels, dim_a, dim_b) is the shape the flat
amplitudes reshape to.  Atomic levels are ordered (g, e, i); the tomography
probe's auxiliary level f is tracked by ``tomography.probe_protocol`` without
a space of its own.

Every Hamiltonian sums bands |k><l| (x) a^d_a (x) b^d_b of the flat basis
from one primitive: a photon of mode b is a step of 1, of mode a a step of
dim_b, and |k><l| moves a whole field block; a band may carry a weight per
field state (the Stark terms).  A Hermitian coupling is stored as one band
half; its adjoint, the conjugate entries at the negated offset, is added only
where bands are summed.  Operators are sparse complex matrices tagged with
their space and have no arithmetic: the library sums bands instead, into
(row, col, val) entries (``_band_entries``) that the time-dependent and
full-model evolutions take as they are and ``_band_operator`` stores as one
Operator.  Only
exact zeros are dropped from a matrix, so a coupling keeps its entries at
any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _frobenius_norm(matrix: sp.csr_matrix) -> float:
    """The Frobenius norm of a CSR matrix from its stored values: exact when no
    position is stored twice, as in every CSR sum or difference and every
    Operator built here."""
    return float(np.linalg.norm(matrix.data))


class Operator:
    """Sparse complex matrix tagged with its HilbertSpace.

    Immutable after construction, so the Hermiticity check runs at most once.
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

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self) -> bool:
        if self._hermitian is None:
            dev = _frobenius_norm(self.matrix - self.matrix.conj().T)
            scale = _frobenius_norm(self.matrix)
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

    def __repr__(self) -> str:
        return f"StateVector(dim={self.space.total_dim}, norm={self.norm():.6f})"


def _support(state) -> tuple:
    """A support (space, keep, amps) as given, or a StateVector's nonzero entries."""
    if not isinstance(state, StateVector):
        return state
    keep = np.flatnonzero(state.amplitudes)
    return state.space, keep, state.amplitudes[keep]


# --- elementary operators ---------------------------------------------------

def _mode_axis(mode: str) -> int:
    """The mode's axis of ``HilbertSpace.shape``."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return 1 if mode == "a" else 2


def _ladder_factor(n: np.ndarray, power: int, n_max: int) -> np.ndarray:
    """<n - power| a^power |n> at each n, a negative power raising: the sqrt
    factors in the order the steps take them, 0 where a step leaves 0..n_max."""
    factor = np.ones(n.shape)
    for j in range(power):
        factor = factor * np.sqrt(np.maximum(n - j, 0))
    for j in range(1, 1 - power):
        factor = factor * np.sqrt(n + j)
    return factor * (n - power <= n_max)


def _band(space: HilbertSpace, k, l, d_a: int, d_b: int,
          weight=1.0) -> tuple[int, np.ndarray]:
    """Offset (column minus row) and ``sp.diags`` entries of |k><l| (x) a^d_a
    (x) b^d_b, a negative power meaning the creation operator and k = l = None
    the identity on the atom: at each source state the operator product's
    entry, times weight[n_a, n_b] of its field state (a scalar, or an array
    that broadcasts to (dim_a, dim_b)), 0 exactly where a step leaves a mode's
    truncation."""
    atom, offset = np.ones(space.atom_levels), d_a * space.dim_b + d_b
    if k is not None:
        k, l = space.level_index(k), space.level_index(l)
        atom, offset = np.arange(space.atom_levels) == l, offset + (l - k) * space.field_dim
    entries = np.multiply.outer(atom, weight * np.outer(
        _ladder_factor(np.arange(space.dim_a), d_a, space.n_max_a),
        _ladder_factor(np.arange(space.dim_b), d_b, space.n_max_b))).ravel()
    # entry j of the band sits in column j + offset above the diagonal, column j below it
    return offset, entries[max(offset, 0):][:max(space.total_dim - abs(offset), 0)]


def _band_entries(space: HilbertSpace, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, val) of the sum of coefficient * band over (coefficient, band)
    terms: bands at one offset add up (from 0, as a sparse sum does, so no zero
    part keeps a minus sign), a band that fits no diagonal drops out, and only
    exact zeros are dropped.  Each position appears at most once."""
    diagonals: dict[int, np.ndarray] = {}
    for coefficient, (offset, entries) in terms:
        if entries.size:
            diagonals[offset] = diagonals.get(offset, 0.0) + coefficient * entries
    row, col, val = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    # entry j of a band sits in row j - offset below the diagonal, column j + offset above it
    for offset, entries in diagonals.items():
        j = np.flatnonzero(entries)
        row.append(j + max(-offset, 0))
        col.append(j + max(offset, 0))
        val.append(entries[j])
    return np.concatenate(row), np.concatenate(col), np.concatenate(val)


def _band_operator(space: HilbertSpace, terms) -> Operator:
    """The ``_band_entries`` of terms as one Operator; no band at all is the
    zero operator."""
    row, col, val = _band_entries(space, terms)
    return Operator(space, sp.csr_matrix((val, (row, col)), shape=(space.total_dim,) * 2))


def _mode_numbers(space: HilbertSpace, keep: np.ndarray, mode: str) -> tuple[np.ndarray, int]:
    """Photon numbers of one mode at the flat indices keep, and its flat step."""
    axis = _mode_axis(mode)
    stride = space.dim_b if axis == 1 else 1
    return keep // stride % space.shape[axis], stride


def _ladder(space: HilbertSpace, keep: np.ndarray, mode: str):
    """a and a^dag of one mode on the basis states keep, with no operator built:
    a|k> = sqrt(n)|k - stride> and a^dag|k> = sqrt(n + 1)|k + stride>, n the
    mode's photon number at k.  Each is (target, factor) over all of keep; a
    step out of 0..n_max has factor 0, as the truncated a and a^dag send it to
    0 exactly, and its target may lie up to dim_b outside 0..total_dim - 1."""
    n, stride = _mode_numbers(space, keep, mode)
    top = space.shape[_mode_axis(mode)] - 1
    return (keep - stride, np.sqrt(n)), (keep + stride, np.sqrt((n + 1) * (n < top)))


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
