"""Sparse full-space operators that the library no longer builds, kept as
independent oracles for the array-based observables, tomography and reduced
generator, the random states they are compared on, and the whole-graph
labelling of the sectors a state reaches."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from cavityconv.hamiltonians import PhysicalParams, ProcessKind, effective_xi
from cavityconv.hilbert import HilbertSpace, Operator, StateVector, annihilation


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


def reached_components(matrix: sp.spmatrix, support: np.ndarray) -> np.ndarray:
    """Sorted union of the undirected connected components of the sparsity
    graph of matrix that meet support, labelled over the whole space."""
    _, label = connected_components(matrix != 0, directed=False)
    return np.flatnonzero(np.isin(label, label[support]))
