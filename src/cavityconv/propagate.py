"""Norm-preserving time evolution under static and oscillating Hamiltonians.

A static generator is evolved only on the connected components of its
sparsity graph that the initial state reaches (nothing couples them to the
rest); they are found by walking the graph out from the state's support, so
the cost follows the reached states, not the whole space.  A component
whose off-diagonal graph is a path, such as every conserved sector of the
bilinear generators and of the full models, is ordered from one end; the
diagonal gauge u_{k+1} = u_k conj(h_k) / |h_k| makes its hops h_k real, and
one real tridiagonal eigensolve gives G = (UV) E (UV)^dag.  Any other
component of at most DENSE_SECTOR_LIMIT states is diagonalized by one dense
eigh.  Either way every requested time is one product
UV (e^{-iEt} * (UV)^dag psi0) whatever |G| t; a component above its limit
takes one matrix-exponential action per time.  Every oscillating Hamiltonian
built here is static in a diagonal rotating frame
D = omega_level + nu_a n_a + nu_b n_b: phi = e^{iDt} psi evolves under
H(0) - D (no substeps, no step-size control).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import expm_multiply

from .hamiltonians import TimeDependentOperator
from .hilbert import Operator, StateVector

# Largest norm change a static evolution accepts in any returned state.
STATIC_NORM_DRIFT_LIMIT = 1e-9

# Largest path component diagonalized by one real tridiagonal eigensolve; a
# larger one takes one expm_multiply per time (single-time crossover:
# ~1000 states, see CHANGES.md).
CHAIN_SECTOR_LIMIT = 1000

# Largest other component diagonalized by one dense eigh; a larger one takes
# one expm_multiply per time (single-time crossover: ~300 states, see CHANGES.md).
DENSE_SECTOR_LIMIT = 300

# Largest frame-equation residual, relative to max(max|nu|, 1), for which the
# solved diagonal frame is accepted as making H(t) static.
FRAME_RTOL = 1e-9


class PropagationError(RuntimeError):
    """Evolution failed to meet its norm contract or has no exact frame."""


@dataclass
class Trajectory:
    """Recorded samples of one propagation run.

    ``ok`` flips to False (with ``failure`` explaining why) when any recorded
    norm drifts outside 1 +/- 1e-7; norms are measured, never hidden by
    renormalization.
    """

    times: np.ndarray
    states: list[StateVector]
    norms: np.ndarray
    ok: bool = True
    failure: str | None = None


NORM_DRIFT_LIMIT = 1e-7


def _walk(pattern: sp.csr_matrix, starts: np.ndarray, label: np.ndarray,
          sectors: list[np.ndarray]) -> None:
    """Append to sectors the states of one directed breadth-first walk from
    each start no walk has reached, in walk order; label[state] is the index
    of its sector, -1 while unreached.  A walk that runs into earlier sectors
    (through an entry stored on one side only) absorbs them.
    """
    starts = starts[label[starts] < 0]
    while starts.size:
        order = breadth_first_order(pattern, starts[0], return_predecessors=False)
        met = label[order]
        if met.max() >= 0:
            met = np.unique(met[met >= 0])
            order = np.concatenate([*(sectors[k] for k in met), order[label[order] < 0]])
            for k in met:
                sectors[k] = order[:0]
        label[order] = len(sectors)
        sectors.append(order)
        starts = starts[label[starts] < 0]


def _reached_sectors(M: sp.csr_matrix, pattern: sp.csr_matrix,
                     support: np.ndarray) -> list[np.ndarray]:
    """The connected components of M's sparsity graph that meet support,
    each as its states in walk order over pattern, M's entries set to 1.

    The walks follow stored entries row-wise.  Their union K is the exact
    reached set once no stored entry leads into K from a row outside it,
    i.e. when the entries whose column is in K are exactly those of K's
    rows; otherwise the walk goes on from those rows.
    """
    n = M.shape[0]
    label = np.full(n, -1)
    sectors: list[np.ndarray] = []
    _walk(pattern, support, label, sectors)
    while sectors:  # else the zero state, which reaches nothing
        reached = label >= 0
        into = np.take(reached, M.indices)
        rows = np.concatenate(sectors)
        if np.count_nonzero(into) == np.sum(M.indptr[rows + 1] - M.indptr[rows]):
            break
        entry_row = np.repeat(np.arange(n), np.diff(M.indptr))
        _walk(pattern, np.unique(entry_row[into & ~reached[entry_row]]), label, sectors)
    return [s for s in sectors if s.size]


def _entries(M: sp.csr_matrix, order: np.ndarray, rank: np.ndarray):
    """(row, col, value) of every entry of M[order][:, order], rows ascending;
    rank[order] = arange(order.size) and order is closed under M's rows."""
    start = M.indptr[order]
    count = M.indptr[order + 1] - start
    entry = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    return np.repeat(np.arange(order.size), count), rank[M.indices[entry]], M.data[entry]


def _evolve_sectors(G: Operator, amps: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """(keep, states): the sorted indices of the components of G's sparsity
    graph that amps reaches, and states[k] = (exp(-i G times[k]) amps)[keep];
    every other amplitude is exactly 0 and a time of 0 returns amps[keep].
    The components are walked out from the support of amps and sliced from
    G once, in walk order, so no step labels or slices the whole space.
    Raises ValueError for a non-Hermitian G, PropagationError on norm drift.
    """
    if not G.is_hermitian():
        raise ValueError("static evolution requires a Hermitian generator")
    times = np.asarray(times, dtype=float)
    M = G.matrix
    # a float pattern: csgraph would drop the imaginary part of G
    pattern = sp.csr_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)
    sectors = _reached_sectors(M, pattern, np.flatnonzero(amps != 0))
    if not sectors:  # the zero state
        return np.empty(0, dtype=np.intp), np.empty((times.size, 0), dtype=np.complex128)
    size = np.array([s.size for s in sectors])
    bounds = np.concatenate(([0], np.cumsum(size)))
    sector = np.repeat(np.arange(size.size), size)  # of every position
    order = np.concatenate(sectors)
    rank = np.empty(M.shape[0], dtype=np.intp)
    rank[order] = np.arange(order.size)
    row, col, val = _entries(M, order, rank)
    first = np.searchsorted(row, bounds)  # entries of each sector, contiguous

    def beyond(width):  # sectors holding an entry more than width off the diagonal
        flags = np.zeros(size.size, dtype=bool)
        flags[sector[row[np.abs(row - col) > width]]] = True
        return flags

    # a sector is a path, ordered from one end, when no entry lies more than
    # one place off the diagonal; a walk begun inside a path keeps every
    # entry within two places and ends at a path end, so walk again from there
    inside = np.flatnonzero(beyond(1) & ~beyond(2))
    if inside.size:
        position = np.arange(order.size)
        for k in inside:
            walk = breadth_first_order(pattern, order[bounds[k + 1] - 1],
                                       return_predecessors=False)
            if walk.size == size[k]:  # else an entry stored on one side only cuts it
                position[rank[walk]] = np.arange(bounds[k], bounds[k + 1])
        row, col = position[row], position[col]
        order[position] = order.copy()
    far = beyond(1)
    diagonal = np.zeros(order.size)
    on = row == col
    np.add.at(diagonal, row[on], val[on].real)
    hop = np.zeros(order.size, dtype=np.complex128)
    up = col == row + 1
    np.add.at(hop, row[up], val[up])
    psi = amps[order]
    states = np.empty((times.size, order.size), dtype=np.complex128)
    for k in range(size.size):
        pos = slice(bounds[k], bounds[k + 1])
        if not far[k] and size[k] <= CHAIN_SECTOR_LIMIT:
            h = hop[bounds[k]:bounds[k + 1] - 1]
            energies, basis = eigh_tridiagonal(diagonal[pos], np.abs(h))
            gauge = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(h)))))
            basis = gauge[:, None] * basis
        else:
            e = slice(first[k], first[k + 1])
            r, c = row[e] - bounds[k], col[e] - bounds[k]
            if far[k] and size[k] <= DENSE_SECTOR_LIMIT:
                block = np.zeros((size[k], size[k]), dtype=np.complex128)
                np.add.at(block, (r, c), val[e])
                energies, basis = np.linalg.eigh(block)
            else:
                block = sp.csr_matrix((val[e], (r, c)), shape=(size[k], size[k]))
                for i, t in enumerate(times):
                    states[i, pos] = expm_multiply((-1j * t) * block, psi[pos]) if t else psi[pos]
                continue
        phases = np.exp(np.outer(times, -1j * energies))
        phases *= basis.conj().T @ psi[pos]
        states[:, pos] = phases @ basis.T
    states[times == 0.0] = psi
    drift = np.max(np.abs(np.linalg.norm(states, axis=1) - np.linalg.norm(psi)), initial=0.0)
    if drift > STATIC_NORM_DRIFT_LIMIT:
        raise PropagationError(f"static evolution drifted the norm by {drift:.3e}")
    sort = np.argsort(order)
    return order[sort], states[:, sort]


def evolve_static(H: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi0>, evolved only on the components of H's sparsity graph
    that meet the support of psi0 (for the bilinear generators, the conserved
    photon-number sectors it occupies); every other amplitude stays exactly 0.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    keep, states = _evolve_sectors(H, psi0.amplitudes, [t])
    amps = np.zeros_like(psi0.amplitudes)
    amps[keep] = states[0]
    return StateVector(psi0.space, amps, copy=False)


def frame_transform(
    state: StateVector,
    chi_a: float,
    chi_b: float,
    t: float,
    sign: int = +1,
) -> StateVector:
    """Diagonal frame change exp(-i sign t (chi_a n_a + chi_b n_b))."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n_a, n_b = state.space.fock_numbers()
    phases = np.exp(-1j * sign * t * (chi_a * n_a + chi_b * n_b))
    return StateVector(state.space, phases * state.amplitudes, copy=False)


def _rotating_frame(H: TimeDependentOperator) -> np.ndarray:
    """Diagonal d_k = omega_level + nu_a n_a + nu_b n_b with
    e^{iDt} H(t) e^{-iDt} = H(0) for all t.

    Every nonzero element (m, n) of a part oscillating at nu (or of the
    static part, nu = 0) needs d_m - d_n = -nu.  The unknowns (one energy per
    atomic level, nu_a, nu_b) are solved by least squares over the distinct
    (level, n_a, n_b) changes of those elements; a residual above
    FRAME_RTOL * max(max|nu|, 1) means no static frame exists.
    """
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


def evolve_td(H: TimeDependentOperator, psi0: StateVector, t_grid) -> Trajectory:
    """Propagate an oscillating Hamiltonian along a strictly increasing grid.

    H(t) is moved into its static rotating frame (see ``_rotating_frame``),
    where phi = e^{iDt} psi evolves under the static H(0) - D: every grid
    point is exact, however far apart.  The state and its norm are recorded
    at every grid point.  Raises PropagationError when H(t) has no static
    frame.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array of times")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")

    d = _rotating_frame(H)
    generator = Operator(H.space, H.at(0.0).matrix - sp.diags(d))
    phi0 = np.exp(1j * d * t_grid[0]) * psi0.amplitudes
    keep, phi = _evolve_sectors(generator, phi0, t_grid - t_grid[0])
    states = []
    for t, phi_t in zip(t_grid, phi):
        amps = np.zeros_like(phi0)
        amps[keep] = np.exp(-1j * d[keep] * t) * phi_t
        states.append(StateVector(psi0.space, amps, copy=False))
    traj = Trajectory(
        times=t_grid.copy(),
        states=states,
        norms=np.array([s.norm() for s in states]),
    )
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    if drift > NORM_DRIFT_LIMIT:
        traj.ok = False
        traj.failure = f"norm drifted by {drift:.3e} (limit {NORM_DRIFT_LIMIT})"
    return traj
