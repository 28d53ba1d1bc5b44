"""Field observables: quadrature variances, EPR correlations, squeezed-vacuum
states, photon statistics, and state overlaps.

Quadratures use the half convention x = (a + a^dag)/2, p = -i(a - a^dag)/2,
so the vacuum variance is 1/4 and the ideal pair-correlated state built by
the down-conversion generator satisfies <(x_a - x_b)^2> = <(p_a + p_b)^2> =
e^{-2r}/2 with r the squeeze parameter.

Each observable reads a state as a support (space, keep, amps), the flat
indices and amplitudes of all its nonzeros, in the order given (which the
bincount sums of ``photon_number_distribution`` follow): a StateVector's,
ascending, or a band evolution's reached chain, in evolution order, so no
observable reads the rest of the space.
Each variance is ||X psi||^2 (X Hermitian in the truncated space), its ladder
terms moving each kept index k to k -/+ stride of one zeroed flat vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (HilbertSpace, SpaceMismatchError, StateVector, _ladder, _mode_axis,
                      _mode_numbers)


def _support(state) -> tuple:
    """A support (space, keep, amps) as given, or a StateVector's nonzero entries."""
    if not isinstance(state, StateVector):
        return state
    keep = np.flatnonzero(state.amplitudes)
    return state.space, keep, state.amplitudes[keep]


def _variances(support, modes: str, signs) -> list[float]:
    """||sum_j s_j L_j psi||^2 / 4 for each row s of signs (s_j = +/-1), the L_j
    being a and a^dag of each of the modes in turn.  Each term is one indexed
    update by flat index (its targets are distinct), the first an assignment,
    in order, as full-space shifts add them, so the doubled vector is theirs
    bit for bit.  dim_b slots past the end take the zero-factor steps that
    leave the space, a negative target wrapping round into them."""
    space, keep, amps = support
    (to, value), *terms = [(to, factor * amps) for mode in modes
                           for to, factor in _ladder(space, keep, mode)]
    out = []
    for first, *row in signs:
        doubled = np.zeros(space.total_dim + space.dim_b, dtype=np.complex128)
        doubled[to] = value if first > 0 else -value
        for sign, (to_j, value_j) in zip(row, terms):
            if sign > 0:
                doubled[to_j] += value_j
            else:
                doubled[to_j] -= value_j
        doubled = doubled[:space.total_dim]
        out.append(0.25 * float(np.vdot(doubled, doubled).real))
    return out


def quadrature_variances(state, mode: str) -> tuple[float, float]:
    """<x^2> and <p^2> of one mode (each 1/4 on the vacuum)."""
    return tuple(_variances(_support(state), mode, [(1, 1), (1, -1)]))  # 2x psi, 2i p psi


@dataclass(frozen=True)
class EprMetrics:
    """Pair-correlation variances and the derived quality 1 - (sum)."""

    var_x_minus: float
    var_p_plus: float
    quality: float


def epr_metrics(state) -> EprMetrics:
    """<(x_a - x_b)^2>, <(p_a + p_b)^2> and quality on a two-mode state.

    A separable double vacuum gives variance sum 1 and quality 0.
    """
    support = _support(state)
    if support[0].atom_levels != 1:
        raise ValueError("epr_metrics expects a two-mode field state; project the atom first")
    # 2 (x_a - x_b) psi and 2i (p_a + p_b) psi from a, a^dag, b, b^dag
    var_x, var_p = _variances(support, "ab", [(1, 1, -1, -1), (1, -1, 1, -1)])
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
        if not self.squeeze_param >= 0.0:  # inf passes: tanh r = 1 is left to the caller
            raise ValueError(f"squeeze_param must be non-negative, got {self.squeeze_param}")


def tmsv_tail_mass(spec: TmsvSpec, n_max: int) -> float:
    """Probability beyond the truncation: tanh^{2 (n_max + 1)}(r)."""
    return math.tanh(spec.squeeze_param) ** (2 * (n_max + 1))


def _tmsv_support(spec: TmsvSpec, space: HilbertSpace) -> tuple:
    """The support of :func:`tmsv_analytic`: the diagonal |n, n>."""
    if space.atom_levels != 1:
        raise ValueError("tmsv_analytic expects a two-mode field space")
    n = np.arange(min(space.n_max_a, space.n_max_b) + 1)
    unit = np.exp(-1j * (spec.phase + math.pi / 2.0))
    coeffs = (unit * math.tanh(spec.squeeze_param)) ** n
    return space, n * (space.dim_b + 1), coeffs / np.linalg.norm(coeffs)


def tmsv_analytic(spec: TmsvSpec, space: HilbertSpace) -> StateVector:
    """Diagonal expansion sum_n c_n |n, n> cut at the smaller mode
    truncation, renormalized.

    Propagating vacuum with exp(-i t (xi ab + xi^* a^dag b^dag)) yields
    c_n = (e^{-i (arg xi + pi/2)} tanh r)^n / cosh r;  the default phase
    arg xi = -pi/2 makes every coefficient real positive.  The 1/cosh r
    factor is left to the renormalization, so any finite r is accepted.  Use
    :func:`tmsv_tail_mass` for the discarded probability.
    """
    _, keep, coeffs = _tmsv_support(spec, space)
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[keep] = coeffs
    return StateVector(space, amps, copy=False)


def squeezed_variance(r: float) -> float:
    """Variance of the squeezed quadrature, e^{-2r}/4 (1/4 at r = 0)."""
    return math.exp(-2.0 * r) / 4.0


def fidelity(s1, s2) -> float:
    """|<s1|s2>|^2 (global-phase insensitive)."""
    (space, keep, amps), (space_2, keep_2, amps_2) = _support(s1), _support(s2)
    if space != space_2:
        raise SpaceMismatchError("states live on different spaces")
    _, at, at_2 = np.intersect1d(keep, keep_2, assume_unique=True, return_indices=True)
    return abs(complex(np.vdot(amps[at], amps_2[at_2]))) ** 2


def photon_number_distribution(state, mode: str) -> np.ndarray:
    """Marginal Fock distribution of one mode (sums to the squared norm)."""
    space, keep, amps = _support(state)
    n, _ = _mode_numbers(space, keep, mode)
    return np.bincount(n, np.abs(amps) ** 2, minlength=space.shape[_mode_axis(mode)])


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


def mean_photon_number(state, mode: str) -> float:
    dist = photon_number_distribution(state, mode)
    return float(np.arange(dist.size) @ dist)


def vacuum_probability(state) -> float:
    """Probability of the lowest basis state (both modes empty)."""
    _, keep, amps = _support(state)
    return float(np.sum(np.abs(amps[keep == 0]) ** 2))
