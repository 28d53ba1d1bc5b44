"""Sparse full-space operators that the library no longer builds, kept as
independent oracles for the array-based observables and tomography and for
the band-built Hamiltonians; the random states they are compared on; and
the whole-graph labelling of the sectors a state reaches."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    TimeDependentOperator,
    effective_xi,
    two_photon_coupling,
)
from cavityconv.hilbert import (
    HilbertSpace,
    Operator,
    StateVector,
    annihilation,
    atomic_sigma,
)


def assert_identical(got: Operator, reference) -> None:
    """got's CSR matrix holds the entries of the sparse reference, zeros
    dropped, at the same positions and equal bit for bit."""
    want = sp.csr_matrix(reference, dtype=np.complex128, copy=True)
    want.eliminate_zeros()
    want.sort_indices()
    assert np.array_equal(got.matrix.indptr, want.indptr)
    assert np.array_equal(got.matrix.indices, want.indices)
    assert np.array_equal(got.matrix.data.view(np.uint64), want.data.view(np.uint64))


def atom_block(op: Operator, level: int | str) -> Operator:
    """Restriction of an operator to one atomic level, as a field-space operator."""
    lo = op.space.level_index(level) * op.space.field_dim
    hi = lo + op.space.field_dim
    return Operator(op.space.field_subspace(), op.matrix[lo:hi, lo:hi])


def identity_operator(space: HilbertSpace) -> Operator:
    return Operator(space, sp.identity(space.total_dim, format="csr"))


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


def full_puc_product_form(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
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
    return TimeDependentOperator(static, [(drive, -params.delta_small)])


def full_pdc_product_form(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
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
    return TimeDependentOperator(zero, parts)


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
