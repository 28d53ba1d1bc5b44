"""Norm-preserving time evolution under static and oscillating Hamiltonians.

A static generator is evolved only on the connected components of its
sparsity graph that the initial state reaches (nothing couples them to the
rest).  A component whose off-diagonal graph is a path (states - 1 edges, no
state with more than two neighbours), such as every conserved sector of the
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
from scipy.sparse.csgraph import connected_components, dijkstra
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


def _paths(sub: sp.csr_matrix, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, hop) of every state of sub, whose connected components
    carry the labels.  On a component whose off-diagonal graph is a path
    (states - 1 edges, no state of degree above 2), position counts the
    steps from one end and hop is <state|sub|next state>, 0 at the far end;
    on any other component position is -1 and hop 0.
    """
    n = labels.size
    coo = sub.tocoo()
    off = coo.row != coo.col
    row, col, val = coo.row[off], coo.col[off], coo.data[off]
    # each edge once, whichever triangle stores it
    lo, hi = np.divmod(np.unique(np.minimum(row, col).astype(np.int64) * n
                                 + np.maximum(row, col)), n)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    _, comp = np.unique(labels, return_inverse=True)
    path = np.bincount(comp[lo], minlength=comp.max() + 1) == np.bincount(comp) - 1
    path[comp[degree > 2]] = False
    ends = np.flatnonzero(path[comp] & (degree <= 1))
    _, first = np.unique(comp[ends], return_index=True)
    position = np.full(n, -1.0)
    if first.size:
        edges = sp.csr_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
        steps = dijkstra(edges, directed=False, indices=ends[first],
                         unweighted=True, min_only=True)
        position[path[comp]] = steps[path[comp]]
    hop = np.zeros(n, dtype=np.complex128)
    forward = position[col] - position[row] == 1.0
    hop[row[forward]] = val[forward]
    return position, hop


def _evolve_sectors(G: Operator, amps: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """(keep, states): the sorted indices of the components of G's sparsity
    graph that amps reaches, and states[k] = (exp(-i G times[k]) amps)[keep];
    every other amplitude is exactly 0 and a time of 0 returns amps[keep].
    Raises ValueError for a non-Hermitian G, PropagationError on norm drift.
    """
    if not G.is_hermitian():
        raise ValueError("static evolution requires a Hermitian generator")
    times = np.asarray(times, dtype=float)
    # graph from the pattern: csgraph would drop the imaginary part of G
    _, component = connected_components(G.matrix != 0, directed=False)
    keep = np.flatnonzero(np.isin(component, component[amps != 0]))
    if not keep.size:  # the zero state
        return keep, np.empty((times.size, 0), dtype=np.complex128)
    labels = component[keep]
    sub = G.matrix[keep][:, keep]
    position, hop = _paths(sub, labels)
    diagonal = sub.diagonal().real
    order = np.lexsort((position, labels))  # each path from its end
    psi = amps[keep]
    states = np.empty((times.size, keep.size), dtype=np.complex128)
    for pos in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        if position[pos[0]] == 0.0 and pos.size <= CHAIN_SECTOR_LIMIT:
            h = hop[pos[:-1]]
            energies, basis = eigh_tridiagonal(diagonal[pos], np.abs(h))
            gauge = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(h)))))
            basis = gauge[:, None] * basis
        elif position[pos[0]] < 0.0 and pos.size <= DENSE_SECTOR_LIMIT:
            energies, basis = np.linalg.eigh(sub[pos][:, pos].toarray())
        else:
            block = sub[pos][:, pos]
            for k, t in enumerate(times):
                states[k, pos] = expm_multiply((-1j * t) * block, psi[pos]) if t else psi[pos]
            continue
        phases = np.exp(np.outer(times, -1j * energies))
        phases *= basis.conj().T @ psi[pos]
        states[:, pos] = phases @ basis.T
    states[times == 0.0] = psi
    drift = np.max(np.abs(np.linalg.norm(states, axis=1) - np.linalg.norm(psi)), initial=0.0)
    if drift > STATIC_NORM_DRIFT_LIMIT:
        raise PropagationError(f"static evolution drifted the norm by {drift:.3e}")
    return keep, states


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
