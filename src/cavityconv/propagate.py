"""Norm-preserving time evolution under static and oscillating Hamiltonians.

Static generators are exponentiated by matrix-exponential action on the
connected components of their sparsity graph that the initial state reaches;
no element couples those components to the rest, so this is exact.  Every
oscillating Hamiltonian built here becomes static in a diagonal rotating
frame D = omega_level + nu_a n_a + nu_b n_b: with phi = e^{iDt} psi the
generator is H(0) - D at all times, so each grid interval is one exact
exponential action (no substeps, no step-size control).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from .hamiltonians import TimeDependentOperator
from .hilbert import Operator, StateVector

# Largest norm change evolve_static accepts from one exponential action.
STATIC_NORM_DRIFT_LIMIT = 1e-9

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
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    ok: bool = True
    failure: str | None = None

    def final_state(self) -> StateVector:
        return self.states[-1]


NORM_DRIFT_LIMIT = 1e-7


def evolve_static(H: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi0> by matrix-exponential action.

    The action runs only on the components of H's sparsity graph that meet
    the support of psi0 (for the bilinear generators, the conserved
    photon-number sectors it occupies); every other amplitude stays exactly 0.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    if not H.is_hermitian():
        raise ValueError("evolve_static requires a Hermitian generator")
    if t == 0.0 or not psi0.amplitudes.any():
        return psi0
    # graph from the pattern: csgraph would drop the imaginary part of H
    _, component = connected_components(H.matrix != 0, directed=False)
    keep = np.flatnonzero(np.isin(component, component[psi0.amplitudes != 0]))
    block = H.matrix[keep][:, keep]
    amps = np.zeros_like(psi0.amplitudes)
    amps[keep] = expm_multiply((-1j * t) * block.tocsc(), psi0.amplitudes[keep])
    out = StateVector(psi0.space, amps, copy=False)
    drift = abs(out.norm() - psi0.norm())
    if drift > STATIC_NORM_DRIFT_LIMIT:
        raise PropagationError(
            f"matrix-exponential action drifted the norm by {drift:.3e}"
        )
    return out


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
    n_a, n_b = space.fock_numbers()
    level = np.repeat(np.arange(space.atom_levels), space.field_dim)
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


def evolve_td(
    H: TimeDependentOperator,
    psi0: StateVector,
    t_grid,
    observables: dict[str, Operator] | None = None,
) -> Trajectory:
    """Propagate an oscillating Hamiltonian along a strictly increasing grid.

    H(t) is moved into its static rotating frame (see ``_rotating_frame``);
    each grid interval is then one exponential action of -i dt (H(0) - D) on
    phi = e^{iDt} psi, which is exact for any interval length.  The state,
    its norm and any requested observable expectations are recorded at every
    grid point.  Raises PropagationError when H(t) has no static frame.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array of times")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    observables = observables or {}
    for op in observables.values():
        if op.space != psi0.space:
            raise ValueError("observable lives on a different space")

    d = _rotating_frame(H)
    generator = (H.at(0.0).matrix - sp.diags(d)).tocsc()

    rec_states: list[StateVector] = []
    rec_expect: dict[str, list[complex]] = {name: [] for name in observables}

    phi = np.exp(1j * d * t_grid[0]) * psi0.amplitudes
    for k, t in enumerate(t_grid):
        if k:
            phi = expm_multiply((-1j * (t - t_grid[k - 1])) * generator, phi)
        amps = np.exp(-1j * d * t) * phi
        rec_states.append(StateVector(psi0.space, amps, copy=False))
        for name, op in observables.items():
            rec_expect[name].append(complex(np.vdot(amps, op.matrix @ amps)))

    traj = Trajectory(
        times=t_grid.copy(),
        states=rec_states,
        norms=np.array([s.norm() for s in rec_states]),
        expectations={name: np.array(vals) for name, vals in rec_expect.items()},
    )
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    if drift > NORM_DRIFT_LIMIT:
        traj.ok = False
        traj.failure = f"norm drifted by {drift:.3e} (limit {NORM_DRIFT_LIMIT})"
    return traj
