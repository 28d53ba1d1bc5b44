"""Dispersive-probe phase-space tomography.

The measurement sequence per grid point:

  1. displace both modes with exp(-eta l^dag + eta^* l)  (l = a, b),
  2. send a probe atom prepared in (|i> + |f>)/sqrt2, where f is an
     auxiliary level that does not couple to either mode; the dispersive
     interaction imprints the conditional phase exp[i phi (n_a + n_b)] on
     the |i> branch only,
  3. apply a pi/2 Ramsey pulse (|i> -> (|i>+|f>)/sqrt2, |f> -> (|i>-|f>)/sqrt2),
  4. read out the atomic populations P_i, P_f.

The populations obey P_{i,f} = (1 +/- Re<e^{i phi N}>)/2 exactly; at phi = pi
the conditional phase is the photon-number parity and the displaced-parity
expectation is the two-mode Wigner function W = (4/pi^2) <Pi>.  With mode b
in vacuum, the single-mode Wigner function of mode a is (2/pi) / (4/pi^2) =
pi/2 times the two-mode value at eta_b = 0.  The raw atomic signal
P_f - P_i = -<Pi> is reported alongside; the two differ by the sign fixed
by the Ramsey phase choice above.

A scan reads a state as the observables do, as a support (space, keep, amps)
(``hilbert._support``; a StateVector's nonzero entries, or a band run's
chain as the scenarios hand it over), so no full-space state is made for it.
It costs per distinct eta of each mode and per Fock column the state
occupies, not per grid point and not per Fock level of the truncation.  Each
mode's truncated displacement comes from one real tridiagonal eigensystem of
l + l^dag, and only the columns that meet the support's occupied Fock
numbers (on any atomic level) are formed: a Fock state's scan displaces one
column per mode.  When both modes have the same truncation, the same
distinct etas and the same occupied numbers, as in a symmetric scan of the
vacuum or the pair state, mode b is displaced by mode a's columns.  Every
readout above is a separable form sum_jk w(j) w(k) |Phi_jk|^2 of the
displaced amplitudes Phi = D_a psi D_b^T: parity weights (-1)^n for the
Wigner value, weights 1 and e^{i phi n} for the probe populations.  It is
read out by batched contractions with no loop over the grid: per weight one
product per mode over all its distinct etas, and one batched matrix-vector
product for the table over all pairs of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, _support
from .propagate import _chain_eigh

# Displaced probability allowed in the top Fock level of either mode before
# the truncated displacement is declared unfaithful.
TAIL_LIMIT = 1e-8

TWO_MODE_NORM = 4.0 / math.pi**2


class TruncationError(RuntimeError):
    """Displacement pushed significant probability into the truncation edge."""


@dataclass(frozen=True)
class ProbeOutcome:
    """Atomic detection probabilities after one probe sequence."""

    p_i: float
    p_f: float

    @property
    def signal(self) -> float:
        return self.p_f - self.p_i


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Displacement points (eta_a, eta_b)."""

    points: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("grid must contain at least one point")
        pts = tuple((complex(pa), complex(pb)) for pa, pb in self.points)
        if not np.isfinite(np.array(pts)).all():
            raise ValueError("grid points must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def two_mode_real(cls, values_a, values_b) -> "PhaseSpaceGrid":
        """Cartesian real-axis scan: eta_a = x_a, eta_b = x_b."""
        pts = [(complex(xa), complex(xb)) for xa in values_a for xb in values_b]
        return cls(tuple(pts))


def _mode_displacements(n_max: int, etas: np.ndarray, mode: str,
                        columns: np.ndarray | slice = slice(None)) -> np.ndarray:
    """The given columns of exp(eta^* l - eta l^dag) of one mode's truncated
    ladder l, one (n_max + 1) x len(columns) block per eta; every column by
    default.

    With X = l + l^dag = V diag(x) V^T, one ``propagate._chain_eigh`` per
    mode (its hops sqrt n are real, so V is), and u_n = (i eta/|eta|)^n, the
    generator is |eta| diag(u) (iX) diag(u)^*, so

        D(eta)[:, columns] = diag(u) V diag(e^{i |eta| x}) V[columns]^T diag(u[columns])^*:

    one GEMM per eta, exact for the truncated generator, and the identity
    exactly at eta = 0.
    """
    dim = n_max + 1
    out = np.tile(np.eye(dim, dtype=complex)[:, columns], (etas.size, 1, 1))
    moved = np.flatnonzero(etas != 0.0)
    if moved.size == 0:
        return out
    if n_max == 0:
        raise TruncationError(
            f"mode {mode} holds a single Fock level; it cannot be displaced"
        )
    x, vectors = _chain_eigh(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
    eta = etas[moved]
    # powers by repeated products, so a real or imaginary eta keeps exact phases
    u = np.ones((eta.size, dim), dtype=complex)
    u[:, 1:] = 1j * eta[:, None] / np.abs(eta)[:, None]
    u = np.cumprod(u, axis=1)
    spectral = (vectors * np.exp(1j * np.outer(np.abs(eta), x))[:, None, :]) @ vectors[columns].T
    out[moved] = u[:, :, None] * spectral * u.conj()[:, None, columns]
    return out


def _checked_displacements(state, points) -> tuple:
    """The amplitudes on the state's support, the support's columns of each
    mode's displacements of the distinct etas, and each point's index into
    them.

    The state is a StateVector or a support (space, keep, amps)
    (``hilbert._support``), keep in any order.  Its support is the mode-a
    Fock rows its nonzero amplitudes occupy on any atomic level and the
    mode-b Fock columns they occupy: D_a psi D_b^T needs only those columns
    of D_a and D_b, since every other column meets a zero of psi.  Mode b
    reuses mode a's displacements when both modes have the same truncation,
    distinct etas and support, as in a symmetric scan of a symmetric state.

    Raises TruncationError for the first point, in the given order, whose
    displacement leaves more than TAIL_LIMIT in the top Fock level of a
    displaced mode.  By unitarity each mode's edge population after both
    displacements is the one its own displacement leaves: the mode-a tail is
    ||D_a[n_max_a, :] psi||^2 and the mode-b tail ||psi D_b[n_max_b, :]^T||^2.
    """
    space, keep, amps = _support(state)
    nonzero = amps != 0.0  # an exact zero, as a band run at t = 0 keeps, occupies nothing
    level, n_a, n_b = np.unravel_index(keep[nonzero], space.shape)
    (rows, i), (cols, j) = (np.unique(n, return_inverse=True) for n in (n_a, n_b))
    psi = np.zeros((space.atom_levels, rows.size, cols.size), dtype=np.complex128)
    psi[level, i, j] = amps[nonzero]
    etas = np.array(points, dtype=complex).reshape(-1, 2)
    (distinct_a, row), (distinct_b, col) = (np.unique(etas[:, axis], return_inverse=True)
                                            for axis in (0, 1))
    d_a = _mode_displacements(space.n_max_a, distinct_a, "a", rows)
    if (space.n_max_b == space.n_max_a and np.array_equal(distinct_b, distinct_a)
            and np.array_equal(rows, cols)):
        d_b = d_a
    else:
        d_b = _mode_displacements(space.n_max_b, distinct_b, "b", cols)
    tail = np.zeros(len(etas))
    for axis, (d, distinct, index) in enumerate(((d_a, distinct_a, row), (d_b, distinct_b, col))):
        edge = d[:, -1, :] @ psi if axis == 0 else psi @ d[:, -1, :].T
        # (levels, distinct, support_b) on mode a, (levels, support_a, distinct) on mode b
        mode_tail = np.sum(np.abs(edge) ** 2, axis=(0, 2 - axis))
        tail += np.where(distinct != 0.0, mode_tail, 0.0)[index]
    over = np.flatnonzero(tail > TAIL_LIMIT)
    if over.size:
        raise TruncationError(
            f"displacement left {tail[over[0]]:.3e} probability at the truncation edge "
            f"(limit {TAIL_LIMIT}); enlarge n_max or shrink |eta|"
        )
    return psi, (d_a, row), (d_b, col)


def _separable_readout(state, points, weights) -> np.ndarray:
    """sum_jk w(j) w(k) |Phi_jk|^2 of the displaced amplitudes Phi = D_a psi D_b^T
    at every point, for every weight w of the Fock number (summed over atomic
    levels); shape (len(weights), points).

    The sum is sum_{nn'} C_{nn'} E_{nn'} with C = sum_l A_l^T diag(w) A_l^*,
    A = D_a psi, and E = D_b^T diag(w) D_b^*, which does not depend on psi;
    n and n' run over the state's mode-b support only.  Every A is one
    batched product, and per weight every C and every E one more; one batched
    matrix-vector product then gives the table of sums over all pairs of
    distinct etas, and each point reads its entry.
    """
    psi, (d_a, row), (d_b, col) = _checked_displacements(state, points)
    levels, dim_a, dim_b = psi.shape[0], d_a.shape[1], d_b.shape[1]
    amps = np.matmul(d_a[:, None], psi).reshape(len(d_a), levels * dim_a, -1)
    out = np.empty((len(weights), len(row)), dtype=complex)
    for f, w in enumerate(weights):
        c = (np.swapaxes(amps, 1, 2) * np.tile(w(np.arange(dim_a)), levels)) @ amps.conj()
        c = c.reshape(len(d_a), -1, 1)
        form = ((np.swapaxes(d_b, 1, 2) * w(np.arange(dim_b))) @ d_b.conj()).reshape(len(d_b), -1)
        out[f] = np.matmul(form, c)[row, col, 0]
    return out


def displace(state: StateVector, eta_a: complex, eta_b: complex) -> StateVector:
    """Apply exp(-eta_a a^dag + eta_a^* a) exp(-eta_b b^dag + eta_b^* b).

    Raises TruncationError when the displaced state leaves more than 1e-8
    probability in the top Fock level of a displaced mode.
    """
    psi, (d_a, _), (d_b, _) = _checked_displacements(state, ((eta_a, eta_b),))
    return StateVector(state.space, d_a[0] @ psi @ d_b[0].T, copy=False)


def probe_protocol(state: StateVector, phi: float) -> ProbeOutcome:
    """Simulate the probe sequence step by step and return (P_i, P_f).

    The i and f branches of the probe atom are tracked explicitly (f couples
    to nothing, so the composite state never leaves those two blocks): the
    conditional phase acts on the |i> branch, the Ramsey pulse mixes the
    branches, and the populations are read out.  Agrees with the closed form
    (1 +/- Re<e^{i phi N}>)/2 to machine precision.
    """
    if state.space.atom_levels != 1:
        raise ValueError("probe_protocol expects a two-mode field state")
    psi = state.amplitudes
    # probe atom (|i> + |f>)/sqrt2, field in |psi>
    branch_i = psi / math.sqrt(2.0)
    branch_f = psi / math.sqrt(2.0)
    # dispersive conditional phase on the coupling branch only
    n_a, n_b = state.space.fock_numbers()
    branch_i = np.exp(1j * phi * (n_a + n_b)) * branch_i
    # Ramsey pi/2 pulse
    after_i = (branch_i + branch_f) / math.sqrt(2.0)
    after_f = (branch_i - branch_f) / math.sqrt(2.0)
    p_i = float(np.vdot(after_i, after_i).real)
    p_f = float(np.vdot(after_f, after_f).real)
    return ProbeOutcome(p_i=p_i, p_f=p_f)


def parity_pulse_time(coupling_abs: float, delta_big: float) -> float:
    """Dispersive interaction time realizing phi = pi: t = pi Delta / |lambda|^2."""
    t = math.pi * abs(delta_big) / coupling_abs**2 if coupling_abs**2 > 0.0 else math.inf
    if coupling_abs <= 0.0 or math.isinf(t):
        raise ValueError(f"coupling_abs = {coupling_abs!r} gives no finite parity pulse time")
    return t


def _probe_wigner(norm: np.ndarray, conditional: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, raw_signal) from the readouts ||Phi||^2 and Re<Phi|e^{i phi N}|Phi>:
    raw_signal = P_f - P_i with P_{i,f} = (||Phi||^2 +/- Re<...>)/2."""
    signal = (norm - conditional) / 2.0 - (norm + conditional) / 2.0
    return -TWO_MODE_NORM * signal, signal


def _parity(n: np.ndarray) -> np.ndarray:
    return (-1.0) ** n


def _wigner(state, points) -> np.ndarray:
    """Displaced-parity Wigner values at points: the separable readout with
    parity weights (-1)^n on both modes.  Each weight is read out on its own,
    so this is bit for bit the first of :func:`_scan`'s values."""
    return TWO_MODE_NORM * _separable_readout(state, points, [_parity])[0].real


def wigner_direct(state: StateVector, grid: PhaseSpaceGrid) -> np.ndarray:
    """Displaced-parity Wigner values, one per grid point."""
    return _wigner(state, grid.points)


def wigner_via_protocol(
    state: StateVector,
    grid: PhaseSpaceGrid,
    phi: float = math.pi,
) -> tuple[np.ndarray, np.ndarray]:
    """Wigner values from the probe's Ramsey readout at every grid point.

    For the displaced state Phi the probe sequence of :func:`probe_protocol`
    detects P_{i,f} = ||Phi||^2/2 +/- Re<Phi|e^{i phi (n_a + n_b)}|Phi>/2;
    both terms are separable readouts, with weights 1 and e^{i phi n}.
    Returns (w, raw_signal): w follows the parity-form convention and equals
    :func:`wigner_direct` at phi = pi; raw_signal is the atomic P_f - P_i.
    """
    if state.space.atom_levels != 1:
        raise ValueError("wigner_via_protocol expects a two-mode field state")
    weights = [np.ones_like, lambda n: np.exp(1j * phi * n)]
    return _probe_wigner(*_separable_readout(state, grid.points, weights).real)


def _scan(state, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(:func:`wigner_direct`, :func:`wigner_via_protocol` at phi = pi) of a
    field state at every point, from one separable readout: one set of
    displacements for the weights (-1)^n, 1 and e^{i pi n}."""
    weights = [_parity, np.ones_like, lambda n: np.exp(1j * math.pi * n)]
    parity, *probe = _separable_readout(state, points, weights).real
    return (TWO_MODE_NORM * parity, *_probe_wigner(*probe))
