"""Operator arithmetic and the ladder, number and transition operators,
which the library no longer has, for the product forms; sparse full-space
operators that the library no longer builds, kept as independent oracles
for the support-based observables and tomography and for the band-built
Hamiltonians, and the Operator of (row, col, val) band entries, which the
evolutions take without one; oscillating Hamiltonians as sums of sparse
parts, with the element-wise rotating frame solved from their nonzeros;
full-space state maps (ladder shifts of the
amplitude array, operator action and expectation, atom embedding, diagonal
frame changes, index unflattening) that the library no longer needs; the
random states they are compared on; the whole-graph labelling of the
sectors a state reaches and scipy's breadth-first walk of them, which the
library's walk reproduces; and the Wigner readout's loop over the scan's
eta_a rows, which batched contractions replaced."""

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from cavityconv.hamiltonians import (
    FRAME_RTOL,
    PhysicalParams,
    ProcessKind,
    effective_xi,
    two_photon_coupling,
)
from cavityconv.hilbert import (
    HilbertSpace,
    Operator,
    SpaceMismatchError,
    StateVector,
    _band,
    _band_operator,
    _mode_axis,
)
from cavityconv.propagate import PropagationError, _evolve_entries
from cavityconv.tomography import _checked_displacements


class ProductOperator(Operator):
    """An Operator with the sum, scalar and operator products and adjoint
    that product forms multiply out; operands on different spaces raise
    SpaceMismatchError.  A library Operator may stand on either side."""

    __slots__ = ()

    def _check(self, other: Operator) -> None:
        if self.space != other.space:
            raise SpaceMismatchError("operators live on different spaces")

    def __add__(self, other: Operator) -> "ProductOperator":
        self._check(other)
        return ProductOperator(self.space, self.matrix + other.matrix)

    __radd__ = __add__

    def __sub__(self, other: Operator) -> "ProductOperator":
        self._check(other)
        return ProductOperator(self.space, self.matrix - other.matrix)

    def __rsub__(self, other: Operator) -> "ProductOperator":
        self._check(other)
        return ProductOperator(self.space, other.matrix - self.matrix)

    def __neg__(self) -> "ProductOperator":
        return ProductOperator(self.space, -self.matrix)

    def __mul__(self, scalar) -> "ProductOperator":
        return ProductOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: Operator) -> "ProductOperator":
        self._check(other)
        return ProductOperator(self.space, self.matrix @ other.matrix)

    def __rmatmul__(self, other: Operator) -> "ProductOperator":
        self._check(other)
        return ProductOperator(self.space, other.matrix @ self.matrix)

    def dag(self) -> "ProductOperator":
        return ProductOperator(self.space, self.matrix.conj().T)


def annihilation(space: HilbertSpace, mode: str) -> ProductOperator:
    """Bosonic annihilation operator on the designated mode: <n-1| a |n> = sqrt(n)."""
    powers = (1, 0) if _mode_axis(mode) == 1 else (0, 1)
    band = _band(space, None, None, *powers)
    return ProductOperator(space, _band_operator(space, [(1.0, band)]).matrix)


def number_operator(space: HilbertSpace, mode: str) -> ProductOperator:
    """diag(n) of the designated mode."""
    n = space.fock_numbers()[_mode_axis(mode) - 1]
    return ProductOperator(space, sp.diags(n.astype(float)))


def atomic_sigma(space: HilbertSpace, k: int | str, l: int | str) -> ProductOperator:
    """Atomic transition operator |k><l|, identity on both modes."""
    if space.atom_levels == 1:
        raise ValueError("space has no atomic factor")
    return ProductOperator(space, _band_operator(space, [(1.0, _band(space, k, l, 0, 0))]).matrix)


def assert_identical(got: Operator, reference) -> None:
    """got's CSR matrix holds the entries of the sparse reference, zeros
    dropped, at the same positions and equal bit for bit."""
    want = sp.csr_matrix(reference, dtype=np.complex128, copy=True)
    want.eliminate_zeros()
    want.sort_indices()
    assert np.array_equal(got.matrix.indptr, want.indptr)
    assert np.array_equal(got.matrix.indices, want.indices)
    assert np.array_equal(got.matrix.data.view(np.uint64), want.data.view(np.uint64))


def entries_operator(space: HilbertSpace, entries) -> Operator:
    """The Operator of (row, col, val) entries, such as ``_band_entries`` and
    ``TimeDependentOperator.frame`` return."""
    row, col, val = entries
    return Operator(space, sp.csr_matrix((val, (row, col)), shape=(space.total_dim,) * 2))


def evolve_sectors(G: Operator, amps, times, path="times", grid=(0.0, 0)):
    """``propagate._evolve_entries`` on G's CSR read as COO, as ``evolve_static`` calls it."""
    M = G.matrix.tocoo()
    return _evolve_entries(G.space.total_dim, M.row, M.col, M.data, amps, times, path, grid)


def atom_block(op: Operator, level: int | str) -> Operator:
    """Restriction of an operator to one atomic level, as a field-space operator."""
    lo = op.space.level_index(level) * op.space.field_dim
    hi = lo + op.space.field_dim
    return Operator(op.space.field_subspace(), op.matrix[lo:hi, lo:hi])


def identity_operator(space: HilbertSpace) -> ProductOperator:
    return ProductOperator(space, sp.identity(space.total_dim, format="csr"))


def unflatten(space: HilbertSpace, k: int) -> tuple[int, int, int]:
    """(level, n_a, n_b) of the flat index k, by division."""
    k, n_b = divmod(k, space.dim_b)
    level, n_a = divmod(k, space.dim_a)
    return level, n_a, n_b


def apply(op: Operator, state: StateVector) -> StateVector:
    if op.space != state.space:
        raise SpaceMismatchError("operator and state live on different spaces")
    return StateVector(op.space, op.matrix @ state.amplitudes, copy=False)


def expectation(op: Operator, state: StateVector) -> complex:
    """<psi| O |psi>."""
    if op.space != state.space:
        raise SpaceMismatchError("operator and state live on different spaces")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def embed_atom(field_state: StateVector, space: HilbertSpace, level) -> StateVector:
    """|level> (x) |psi> of a two-mode state with the same truncations."""
    assert field_state.space == space.field_subspace()
    li = space.level_index(level)
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[li * space.field_dim:(li + 1) * space.field_dim] = field_state.amplitudes
    return StateVector(space, amps, copy=False)


def frame_transform(state: StateVector, chi_a: float, chi_b: float, t: float,
                    sign: int = +1) -> StateVector:
    """Diagonal frame change exp(-i sign t (chi_a n_a + chi_b n_b))."""
    n_a, n_b = state.space.fock_numbers()
    phases = np.exp(-1j * sign * t * (chi_a * n_a + chi_b * n_b))
    return StateVector(state.space, phases * state.amplitudes, copy=False)


def conditional_phase_expectation(state: StateVector, phi: float) -> complex:
    """<e^{i phi (n_a + n_b)}> on a field state (the probe's closed form)."""
    n_a, n_b = state.space.fock_numbers()
    phases = np.exp(1j * phi * (n_a + n_b))
    return complex(np.vdot(state.amplitudes, phases * state.amplitudes))


def ladder(state: StateVector, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Flat a|psi> and a^dag|psi> of one mode over the whole space: shifts by
    one along the mode's axis of the amplitude array, weighted by sqrt(n),
    that drop the top level exactly as the truncated a and a^dag do."""
    psi = state.amplitudes.reshape(state.space.shape)
    lowered, raised = np.zeros_like(psi), np.zeros_like(psi)
    src, low, up = (np.moveaxis(x, _mode_axis(mode), -1) for x in (psi, lowered, raised))
    root = np.sqrt(np.arange(1, src.shape[-1]))
    low[..., :-1] = root * src[..., 1:]
    up[..., 1:] = root * src[..., :-1]
    return lowered.ravel(), raised.ravel()


def random_state(space: HilbertSpace, seed: int) -> StateVector:
    """Normalized state with independent complex Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def quadrature_operator(space: HilbertSpace, mode: str, kind: str) -> Operator:
    """Hermitian quadrature x or p of one mode (vacuum variance 1/4)."""
    a = annihilation(space, mode)
    if kind == "x":
        return 0.5 * (a + a.dag())
    if kind == "p":
        return -0.5j * (a - a.dag())
    raise ValueError(f"kind must be 'x' or 'p', got {kind!r}")


def parity_operator(space: HilbertSpace) -> Operator:
    """Total photon-number parity exp(i pi (n_a + n_b))."""
    n_a, n_b = space.fock_numbers()
    return Operator(space, sp.diags(((-1.0) ** (n_a + n_b)).astype(complex)))


def bilinear_generator_product_form(space: HilbertSpace, params: PhysicalParams) -> Operator:
    """xi a b^dag + h.c. (PUC), xi a b + h.c. (PDC) or xi a^2 + h.c.
    (degenerate), multiplied out from the sparse ladder operators."""
    xi = effective_xi(params)
    a = annihilation(space, "a")
    if params.process is ProcessKind.PUC:
        half = xi * (a @ annihilation(space, "b").dag())
    elif params.process is ProcessKind.PDC:
        half = xi * (a @ annihilation(space, "b"))
    else:
        half = xi * (a @ a)
    return half + half.dag()


@dataclass(frozen=True)
class SparseTimeDependent:
    """H(t) = static + sum_j (O_j e^{i nu_j t} + O_j^dag e^{-i nu_j t}) from
    sparse Operators, with no band labels."""

    static_part: Operator
    oscillating_parts: tuple[tuple[Operator, float], ...] = ()

    @property
    def space(self) -> HilbertSpace:
        return self.static_part.space

    def at(self, t: float) -> Operator:
        """H(t), the parts' matrices summed."""
        matrix = self.static_part.matrix
        for op, nu in self.oscillating_parts:
            phase = cmath.exp(1j * nu * t)
            matrix = matrix + phase * op.matrix + phase.conjugate() * op.matrix.conj().T
        return Operator(self.space, matrix)

    def max_frequency(self) -> float:
        return max((abs(nu) for _, nu in self.oscillating_parts), default=0.0)


def rotating_frame_elementwise(H) -> np.ndarray:
    """The diagonal frame D of an oscillating H(t), one equation
    d_m - d_n = -nu per nonzero element (m, n) of every part (the static
    part at nu = 0), the distinct equations solved by least squares; raises
    PropagationError when they miss by more than FRAME_RTOL * max(max|nu|, 1)."""
    space = H.space
    level, n_a, n_b = np.indices(space.shape).reshape(3, -1)
    coords = np.column_stack([np.eye(space.atom_levels)[level], n_a, n_b])
    equations = []
    for op, nu in [(H.static_part, 0.0), *H.oscillating_parts]:
        m, n = op.matrix.nonzero()
        equations.append(
            np.column_stack([coords[m] - coords[n], np.full(m.size, -np.real(nu))])
        )
    system = np.unique(np.vstack(equations), axis=0)
    a_mat, b_vec = system[:, :-1], system[:, -1]
    if not b_vec.any():
        return np.zeros(space.total_dim)
    x = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
    residual = float(np.max(np.abs(a_mat @ x - b_vec)))
    if residual > FRAME_RTOL * max(H.max_frequency(), 1.0):
        raise PropagationError(
            f"H(t) has no static rotating frame: frame equations miss by {residual:.3e}"
        )
    return coords @ x


def full_puc_product_form(space: HilbertSpace, params: PhysicalParams) -> SparseTimeDependent:
    """lambda_a a sig_ig + lambda_b b sig_ie + h.c. - Delta (sig_ee + sig_gg),
    drive omega_cl sig_ge at -delta, multiplied out from the sparse operators."""
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    sig_ig = atomic_sigma(space, "i", "g")
    sig_ie = atomic_sigma(space, "i", "e")
    coupling = params.lambda_a * (a @ sig_ig) + params.lambda_b * (b @ sig_ie)
    static = coupling + coupling.dag() - params.delta_big * (
        atomic_sigma(space, "e", "e") + atomic_sigma(space, "g", "g")
    )
    drive = params.omega_cl * atomic_sigma(space, "g", "e")
    return SparseTimeDependent(static, [(drive, -params.delta_small)])


def full_pdc_product_form(space: HilbertSpace, params: PhysicalParams) -> SparseTimeDependent:
    """lambda_a a sig_ig at -Delta, lambda_b b sig_ei at +Delta and omega_cl
    sig_ge at -delta on a zero static part, from the sparse operators."""
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    zero = Operator(space, 0.0 * identity_operator(space).matrix)
    parts = [
        (params.lambda_a * (a @ atomic_sigma(space, "i", "g")), -params.delta_big),
        (params.lambda_b * (b @ atomic_sigma(space, "e", "i")), +params.delta_big),
        (params.omega_cl * atomic_sigma(space, "g", "e"), -params.delta_small),
    ]
    return SparseTimeDependent(zero, parts)


def _stark_operators(space: HilbertSpace, params: PhysicalParams):
    """Shared pieces of the effective product forms."""
    n_a = number_operator(space, "a")
    n_b = number_operator(space, "b")
    la2 = abs(params.lambda_a) ** 2
    lb2 = abs(params.lambda_b) ** 2
    weighted = la2 * n_a + lb2 * n_b
    return n_a, n_b, la2, lb2, weighted


def effective_puc_product_form(space: HilbertSpace, params: PhysicalParams) -> SparseTimeDependent:
    """The second-order up-conversion Hamiltonian multiplied out from the
    sparse operators: level shifts, Stark terms, the exchange a b^dag sig_eg
    + h.c., and the drive part at -delta."""
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    sgg = atomic_sigma(space, "g", "g")
    see = atomic_sigma(space, "e", "e")
    sii = atomic_sigma(space, "i", "i")
    sge = atomic_sigma(space, "g", "e")
    seg = atomic_sigma(space, "e", "g")
    n_a, n_b, la2, lb2, weighted = _stark_operators(space, params)
    delta_b = params.delta_big
    lam_ab = params.lambda_a * params.lambda_b.conjugate()

    static = (
        -(delta_b + lb2 / delta_b) * see
        - (delta_b + la2 / delta_b) * sgg
        + ((la2 + lb2) / delta_b) * sii
        + (1.0 / delta_b) * (weighted @ sii - la2 * (n_a @ sgg) - lb2 * (n_b @ see))
    )
    exchange = -(1.0 / delta_b) * (lam_ab * (a @ b.dag() @ seg))
    static = static + exchange + exchange.dag()

    dressed = params.omega_cl * (1.0 - (la2 + lb2) / (2.0 * delta_b**2))
    osc = (
        dressed * sge
        - (params.omega_cl / delta_b**2) * (weighted @ sge)
        + (params.omega_cl / delta_b**2) * lam_ab * (a @ b.dag() @ (sii - sgg - see))
    )
    return SparseTimeDependent(static, [(osc, -params.delta_small)])


def effective_pdc_product_form(space: HilbertSpace, params: PhysicalParams) -> SparseTimeDependent:
    """The second-order down-conversion Hamiltonian multiplied out from the
    sparse operators: flipped shifts, the pair a b sig_eg + h.c., and the
    drive part at -delta."""
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    sgg = atomic_sigma(space, "g", "g")
    see = atomic_sigma(space, "e", "e")
    sii = atomic_sigma(space, "i", "i")
    sge = atomic_sigma(space, "g", "e")
    seg = atomic_sigma(space, "e", "g")
    n_a, n_b, la2, lb2, weighted = _stark_operators(space, params)
    delta_b = params.delta_big
    lam_ab = params.lambda_a * params.lambda_b

    static = (
        (delta_b + la2 / delta_b) * sgg
        + (delta_b + lb2 / delta_b) * see
        - ((la2 + lb2) / delta_b) * sii
        + (1.0 / delta_b) * (la2 * (n_a @ sgg) + lb2 * (n_b @ see) - weighted @ sii)
    )
    pair = (1.0 / delta_b) * (lam_ab * (a @ b @ seg))
    static = static + pair + pair.dag()

    dressed = params.omega_cl * (1.0 - (la2 + lb2) / (2.0 * delta_b**2))
    osc = (
        dressed * sge
        - (params.omega_cl / delta_b**2) * (weighted @ sge)
        - (params.omega_cl / delta_b**2) * lam_ab * (a @ b @ (see - sii + sgg))
    )
    return SparseTimeDependent(static, [(osc, -params.delta_small)])


def two_photon_product_form(space: HilbertSpace, params: PhysicalParams, kind: str) -> Operator:
    """zeta a b^dag sig_eg + h.c. ('BS') or kappa a b sig_eg + h.c. ('TMS'),
    multiplied out from the sparse operators."""
    coupling = two_photon_coupling(params, kind)
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    seg = atomic_sigma(space, "e", "g")
    if kind == "BS":
        half = coupling * (a @ b.dag() @ seg)
    else:
        half = coupling * (a @ b @ seg)
    return half + half.dag()


def reached_components(matrix: sp.spmatrix, support: np.ndarray) -> np.ndarray:
    """Sorted union of the undirected connected components of the sparsity
    graph of matrix that meet support, labelled over the whole space."""
    _, label = connected_components(matrix != 0, directed=False)
    return np.flatnonzero(np.isin(label, label[support]))


def walk_order(dim: int, row, col, starts) -> tuple[list[int], list[int]]:
    """(order, sizes) as ``propagate._walk`` returns them for the entries
    (row, col): scipy's breadth_first_order over a CSR pattern of both
    orientations, one walk from each start, in the order given, that no
    earlier walk reached, concatenated, and the size of each walk."""
    ends = np.concatenate((row, col)), np.concatenate((col, row))
    pattern = sp.csr_matrix((np.ones(ends[0].size), ends), shape=(dim, dim))
    order, sizes, reached = [], [], np.zeros(dim, dtype=bool)
    for start in starts:
        if not reached[start]:
            walk = breadth_first_order(pattern, start, return_predecessors=False)
            reached[walk] = True
            order += walk.tolist()
            sizes.append(walk.size)
    return order, sizes


def separable_readout_by_rows(state: StateVector, points, weights) -> np.ndarray:
    """``tomography._separable_readout`` one eta_a row at a time: per row and
    weight one C = A^T diag(w) A^* and one product with the E's of the
    distinct eta_b that row needs."""
    psi, (d_a, row), (d_b, col) = _checked_displacements(state, points)
    levels, dim_a, dim_b = psi.shape
    w_a = [np.tile(w(np.arange(dim_a)), levels) for w in weights]
    forms = [
        ((np.swapaxes(d_b, 1, 2) * w(np.arange(dim_b))) @ d_b.conj()).reshape(len(d_b), -1)
        for w in weights
    ]
    out = np.empty((len(weights), len(row)), dtype=complex)
    rows = np.split(np.argsort(row, kind="stable"), np.cumsum(np.bincount(row))[:-1])
    for d, at in zip(d_a, rows):
        amps = (d @ psi).reshape(levels * dim_a, dim_b)
        needed, back = np.unique(col[at], return_inverse=True)
        for f, (w, form) in enumerate(zip(w_a, forms)):
            c = (amps.T * w) @ amps.conj()
            out[f, at] = (form[needed] @ c.ravel())[back]
    return out
