"""Field observables: quadratures, EPR correlations, squeezed-vacuum states,
photon statistics, and state overlaps.

Quadratures use the half convention x = (a + a^dag)/2, p = -i(a - a^dag)/2,
so the vacuum variance is 1/4 and the ideal pair-correlated state built by
the down-conversion generator satisfies <(x_a - x_b)^2> = <(p_a + p_b)^2> =
e^{-2r}/2 with r the squeeze parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HilbertSpace,
    Operator,
    StateVector,
    annihilation,
    expectation,
)


def quadrature_operator(space: HilbertSpace, mode: str, kind: str) -> Operator:
    """Hermitian quadrature x or p of one mode (vacuum variance 1/4)."""
    a = annihilation(space, mode)
    if kind == "x":
        return 0.5 * (a + a.dag())
    if kind == "p":
        return -0.5j * (a - a.dag())
    raise ValueError(f"kind must be 'x' or 'p', got {kind!r}")


@dataclass(frozen=True)
class EprMetrics:
    """Pair-correlation variances and the derived quality 1 - (sum)."""

    var_x_minus: float
    var_p_plus: float
    quality: float


def epr_metrics(state: StateVector) -> EprMetrics:
    """<(x_a - x_b)^2>, <(p_a + p_b)^2> and quality on a two-mode state.

    A separable double vacuum gives variance sum 1 and quality 0.
    """
    space = state.space
    if space.atom_levels != 1:
        raise ValueError("epr_metrics expects a two-mode field state; project the atom first")
    x_minus = quadrature_operator(space, "a", "x") - quadrature_operator(space, "b", "x")
    p_plus = quadrature_operator(space, "a", "p") + quadrature_operator(space, "b", "p")
    var_x = expectation(x_minus @ x_minus, state).real
    var_p = expectation(p_plus @ p_plus, state).real
    return EprMetrics(var_x, var_p, 1.0 - (var_x + var_p))


def tmsv_quality(squeeze_param: float) -> float:
    """Ideal-state quality 1 - e^{-2 r}: 0 when separable, -> 1 as r grows."""
    return 1.0 - math.exp(-2.0 * squeeze_param)


@dataclass(frozen=True)
class TmsvSpec:
    """Two-mode squeezed vacuum: squeeze parameter r = |xi| tau and the
    coupling phase arg(xi)."""

    squeeze_param: float
    phase: float = -math.pi / 2

    def __post_init__(self):
        if self.squeeze_param < 0.0:
            raise ValueError("squeeze_param must be non-negative")


def tmsv_tail_mass(spec: TmsvSpec, n_max: int) -> float:
    """Probability beyond the truncation: tanh^{2 (n_max + 1)}(r)."""
    return math.tanh(spec.squeeze_param) ** (2 * (n_max + 1))


def tmsv_analytic(spec: TmsvSpec, space: HilbertSpace) -> StateVector:
    """Diagonal expansion sum_n c_n |n, n> cut at the smaller mode
    truncation, renormalized.

    Propagating vacuum with exp(-i t (xi ab + xi^* a^dag b^dag)) yields
    c_n = (e^{-i (arg xi + pi/2)} tanh r)^n / cosh r;  the default phase
    arg xi = -pi/2 makes every coefficient real positive.  The 1/cosh r
    factor is left to the renormalization, so any finite r is accepted.  Use
    :func:`tmsv_tail_mass` for the discarded probability.
    """
    if space.atom_levels != 1:
        raise ValueError("tmsv_analytic expects a two-mode field space")
    r = spec.squeeze_param
    n = np.arange(min(space.n_max_a, space.n_max_b) + 1)
    unit = np.exp(-1j * (spec.phase + math.pi / 2.0))
    coeffs = (unit * math.tanh(r)) ** n
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps.reshape(space.shape)[0, n, n] = coeffs
    amps /= np.linalg.norm(amps)
    return StateVector(space, amps, copy=False)


def squeezed_variance(r: float) -> float:
    """Variance of the squeezed quadrature, e^{-2r}/4 (1/4 at r = 0)."""
    return math.exp(-2.0 * r) / 4.0


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2 (global-phase insensitive)."""
    return abs(s1.inner(s2)) ** 2


def photon_number_distribution(state: StateVector, mode: str) -> np.ndarray:
    """Marginal Fock distribution of one mode (sums to the squared norm)."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    probs = np.abs(state.amplitudes.reshape(state.space.shape)) ** 2
    return probs.sum(axis=(0, 2) if mode == "a" else (0, 1))


_BELL_COMPONENTS = {
    "psi+": (((1, 0), 1.0), ((0, 1), 1.0)),
    "psi-": (((1, 0), 1.0), ((0, 1), -1.0)),
    "phi+": (((1, 1), 1.0), ((0, 0), 1.0)),
    "phi-": (((1, 1), 1.0), ((0, 0), -1.0)),
}


def bell_state(space: HilbertSpace, which: str) -> StateVector:
    """One of the photonic Bell pairs (|10> +/- |01>)/sqrt2, (|11> +/- |00>)/sqrt2."""
    try:
        components = _BELL_COMPONENTS[which]
    except KeyError:
        raise ValueError(
            f"unknown Bell label {which!r}; valid: {sorted(_BELL_COMPONENTS)}"
        ) from None
    if space.atom_levels != 1:
        raise ValueError("bell_state expects a two-mode field space")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    for (n_a, n_b), sign in components:
        amps[space.flatten(0, n_a, n_b)] = sign / math.sqrt(2.0)
    return StateVector(space, amps, copy=False)


def bell_state_fidelity(state: StateVector, which: str) -> float:
    """Overlap with the named Bell state, maximized over a global phase only
    (local mode phases are physically meaningful and are NOT optimized)."""
    return fidelity(bell_state(state.space, which), state)


def mean_photon_number(state: StateVector, mode: str) -> float:
    dist = photon_number_distribution(state, mode)
    return float(np.arange(dist.size) @ dist)


def vacuum_probability(state: StateVector) -> float:
    """Probability of the lowest basis state (both modes empty)."""
    return float(np.abs(state.amplitudes[0]) ** 2)
