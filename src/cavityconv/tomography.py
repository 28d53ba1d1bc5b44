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
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .hilbert import HilbertSpace, Operator, StateVector

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
        for pa, pb in pts:
            if not (np.isfinite(pa) and np.isfinite(pb)):
                raise ValueError("grid points must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def two_mode_real(cls, values_a, values_b) -> "PhaseSpaceGrid":
        """Cartesian real-axis scan: eta_a = x_a, eta_b = x_b."""
        pts = [(complex(xa), complex(xb)) for xa in values_a for xb in values_b]
        return cls(tuple(pts))


def _displaced(
    state: StateVector, points: Iterable[tuple[complex, complex]]
) -> Iterator[StateVector]:
    """Yield exp(-eta_a a^dag + eta_a^* a) exp(-eta_b b^dag + eta_b^* b) |state>
    for each point (eta_a, eta_b).

    Each mode's truncated displacement is one dense (n_max+1)^2 exponential of
    its own generator, built once per distinct eta and contracted on that
    mode's axis of the (atom_levels, dim_a, dim_b) amplitudes: exact for the
    truncated generator, and 2n exponentials for an n x n Cartesian grid.
    """
    space = state.space
    shaped = state.amplitudes.reshape(space.shape)

    @functools.cache  # lives for this call only
    def matrix(mode: str, eta: complex) -> np.ndarray:
        n_max = space.n_max_a if mode == "a" else space.n_max_b
        if n_max == 0:
            raise TruncationError(
                f"mode {mode} holds a single Fock level; it cannot be displaced"
            )
        low = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        # anti-Hermitian generator: its exponential is unitary
        return expm(eta.conjugate() * low - eta * low.T)

    for eta_a, eta_b in points:
        eta_a, eta_b = complex(eta_a), complex(eta_b)
        if eta_a == 0.0 and eta_b == 0.0:
            yield state
            continue
        amps, tail = shaped, 0.0
        if eta_a != 0.0:
            amps = matrix("a", eta_a) @ amps
        if eta_b != 0.0:
            amps = amps @ matrix("b", eta_b).T
        probs = np.abs(amps) ** 2
        if eta_a != 0.0:
            tail += probs[:, space.n_max_a, :].sum()
        if eta_b != 0.0:
            tail += probs[:, :, space.n_max_b].sum()
        if tail > TAIL_LIMIT:
            raise TruncationError(
                f"displacement left {tail:.3e} probability at the truncation edge "
                f"(limit {TAIL_LIMIT}); enlarge n_max or shrink |eta|"
            )
        yield StateVector(space, amps, copy=False)


def displace(state: StateVector, eta_a: complex, eta_b: complex) -> StateVector:
    """Apply exp(-eta_a a^dag + eta_a^* a) exp(-eta_b b^dag + eta_b^* b).

    Raises TruncationError when the displaced state leaves more than 1e-8
    probability in the top Fock level of a displaced mode.
    """
    return next(_displaced(state, ((eta_a, eta_b),)))


def parity_operator(space: HilbertSpace) -> Operator:
    """Total photon-number parity exp(i pi (n_a + n_b))."""
    n_a, n_b = space.fock_numbers()
    return Operator(space, sp.diags(((-1.0) ** (n_a + n_b)).astype(complex)))


def conditional_phase_expectation(state: StateVector, phi: float) -> complex:
    """<e^{i phi (n_a + n_b)}> on a field state (the probe's closed form)."""
    n_a, n_b = state.space.fock_numbers()
    phases = np.exp(1j * phi * (n_a + n_b))
    return complex(np.vdot(state.amplitudes, phases * state.amplitudes))


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


def wigner_direct(state: StateVector, grid: PhaseSpaceGrid) -> np.ndarray:
    """Displaced-parity Wigner values, one per grid point."""
    n_a, n_b = state.space.fock_numbers()
    parity = (-1.0) ** (n_a + n_b)
    return np.array([
        TWO_MODE_NORM * float(np.vdot(d.amplitudes, parity * d.amplitudes).real)
        for d in _displaced(state, grid.points)
    ])


def wigner_via_protocol(
    state: StateVector,
    grid: PhaseSpaceGrid,
    phi: float = math.pi,
) -> tuple[np.ndarray, np.ndarray]:
    """Wigner values obtained by running the probe sequence per grid point.

    Returns (w, raw_signal): w follows the parity-form convention and equals
    :func:`wigner_direct`; raw_signal is the atomic P_f - P_i = -<Pi>.
    """
    w = np.empty(len(grid.points))
    signal = np.empty(len(grid.points))
    for k, displaced in enumerate(_displaced(state, grid.points)):
        outcome = probe_protocol(displaced, phi)
        signal[k] = outcome.signal
        w[k] = -TWO_MODE_NORM * outcome.signal
    return w, signal
