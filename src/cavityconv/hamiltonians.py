"""Interaction Hamiltonians for drive-assisted two-mode frequency conversion.

Conventions (hbar = 1 throughout, all energies in angular s^-1):
  * exp(-i H t) is the propagator, so every builder returns the generator
    that goes inside that exponential.
  * A time-dependent Hamiltonian is  H(t) = static + sum_j (O_j e^{i nu_j t}
    + O_j^dag e^{-i nu_j t});  the classical drive enters at nu = -delta.
  * Lambda configuration (up-conversion, PUC): modes a, b couple g<->i and
    e<->i with strengths lambda_a, lambda_b, both detuned by Delta; a
    classical field of amplitude omega_cl drives g<->e at detuning delta.
  * Ladder configuration (down-conversion, PDC): mode a couples g<->i, mode
    b couples i<->e; in the interaction picture the mode terms oscillate at
    -Delta and +Delta respectively.

Second-order (adiabatic) builders keep every term: level shifts, dressed
drive, intensity-dependent Stark shifts, the atom-correlated exchange, and
the drive-assisted bilinear exchange.  Restricted to the atomic level i the
up-conversion generator reduces to

    chi_a n_a + chi_b n_b + (xi e^{-i delta t} a b^dag + h.c.) + shift * 1

with chi_m = |lambda_m|^2 / Delta, xi = omega_cl lambda_a lambda_b^* /
Delta^2 and shift = (|lambda_a|^2 + |lambda_b|^2) / Delta; the
down-conversion counterpart flips the chi signs, the shift sign, and pairs
a with b instead of b^dag (xi = omega_cl lambda_a lambda_b / Delta^2).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .hilbert import (
    HilbertSpace,
    Operator,
    annihilation,
    atomic_sigma,
    identity_operator,
    number_operator,
)


class ProcessKind(str, Enum):
    PUC = "PUC"
    PDC = "PDC"
    DEGENERATE_PDC = "DEGENERATE_PDC"
    TWO_PHOTON_BS = "TWO_PHOTON_BS"
    TWO_PHOTON_TMS = "TWO_PHOTON_TMS"


@dataclass(frozen=True)
class PhysicalParams:
    """Couplings and detunings of one conversion process.

    lambda_a, lambda_b: mode couplings (complex, s^-1)
    omega_cl:           classical drive amplitude (complex, s^-1)
    delta_big:          one-photon detuning Delta (s^-1), nonzero
    delta_small:        classical-drive detuning delta (s^-1)
    """

    lambda_a: complex
    lambda_b: complex
    omega_cl: complex
    delta_big: float
    delta_small: float = 0.0
    process: ProcessKind = ProcessKind.PUC

    def __post_init__(self):
        for name in ("lambda_a", "lambda_b", "omega_cl"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if not math.isfinite(self.delta_big) or self.delta_big == 0.0:
            raise ValueError("delta_big must be finite and nonzero")
        if not math.isfinite(self.delta_small):
            raise ValueError("delta_small must be finite")
        object.__setattr__(self, "process", ProcessKind(self.process))

    @property
    def dispersive(self) -> bool:
        """True when |Delta| dominates every coupling by at least 10x."""
        strongest = max(abs(self.lambda_a), abs(self.lambda_b), abs(self.omega_cl))
        return abs(self.delta_big) >= 10.0 * strongest


@dataclass
class TimeDependentOperator:
    """H(t) = static + sum_j (O_j e^{i nu_j t} + O_j^dag e^{-i nu_j t}).

    Each oscillating pair is Hermitian at every t, so H(t) is Hermitian for
    all t exactly when the static part is.
    """

    static_part: Operator
    oscillating_parts: list[tuple[Operator, complex]] = field(default_factory=list)

    def __post_init__(self):
        for op, _ in self.oscillating_parts:
            if op.space != self.static_part.space:
                raise ValueError("oscillating part lives on a different space")
        if not self.static_part.is_hermitian():
            raise ValueError("the static part of H(t) is not Hermitian")

    @property
    def space(self) -> HilbertSpace:
        return self.static_part.space

    def at(self, t: float) -> Operator:
        h = self.static_part
        for op, nu in self.oscillating_parts:
            phase = cmath.exp(1j * nu * t)
            h = h + phase * op + phase.conjugate() * op.dag()
        return h

    def max_frequency(self) -> float:
        if not self.oscillating_parts:
            return 0.0
        return max(abs(nu) for _, nu in self.oscillating_parts)


def _require(params: PhysicalParams, *kinds: ProcessKind) -> None:
    if params.process not in kinds:
        names = ", ".join(k.value for k in kinds)
        raise ValueError(f"process must be one of ({names}), got {params.process.value}")


def _warn_if_not_dispersive(params: PhysicalParams, what: str) -> None:
    if not params.dispersive:
        warnings.warn(
            f"{what} assumes the dispersive regime (|delta_big| >= 10x every "
            "coupling); these parameters violate it and the second-order "
            "expansion may be inaccurate",
            stacklevel=3,
        )


def full_puc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Lambda-configuration Hamiltonian in the interaction picture.

    static:   lambda_a a sig_ig + lambda_b b sig_ie + h.c. - Delta (sig_ee + sig_gg)
    drive:    omega_cl sig_ge at frequency -delta (plus h.c.)
    """
    _require(params, ProcessKind.PUC)
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


def full_pdc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Ladder-configuration Hamiltonian in the interaction picture of the
    free Hamiltonian; the optical frequencies drop out and the three
    couplings oscillate at -Delta, +Delta and -delta respectively."""
    _require(params, ProcessKind.PDC)
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    zero = Operator(space, 0.0 * identity_operator(space).matrix)
    parts = [
        (params.lambda_a * (a @ atomic_sigma(space, "i", "g")), -params.delta_big),
        (params.lambda_b * (b @ atomic_sigma(space, "e", "i")), +params.delta_big),
        (params.omega_cl * atomic_sigma(space, "g", "e"), -params.delta_small),
    ]
    return TimeDependentOperator(zero, parts)


def _stark_operators(space: HilbertSpace, params: PhysicalParams):
    """Shared pieces of the second-order builders."""
    n_a = number_operator(space, "a")
    n_b = number_operator(space, "b")
    la2 = abs(params.lambda_a) ** 2
    lb2 = abs(params.lambda_b) ** 2
    weighted = la2 * n_a + lb2 * n_b
    return n_a, n_b, la2, lb2, weighted


def effective_puc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Second-order up-conversion Hamiltonian after adiabatic elimination of
    the detuned one-photon transitions.  Emits a warning (but still builds)
    outside the dispersive regime.
    """
    _require(params, ProcessKind.PUC)
    _warn_if_not_dispersive(params, "the effective up-conversion Hamiltonian")
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

    # level shifts + intensity-dependent Stark terms
    static = (
        -(delta_b + lb2 / delta_b) * see
        - (delta_b + la2 / delta_b) * sgg
        + ((la2 + lb2) / delta_b) * sii
        + (1.0 / delta_b) * (weighted @ sii - la2 * (n_a @ sgg) - lb2 * (n_b @ see))
    )
    # atom-correlated exchange a b^dag sig_eg + h.c.
    exchange = -(1.0 / delta_b) * (lam_ab * (a @ b.dag() @ seg))
    static = static + exchange + exchange.dag()

    # everything multiplying e^{-i delta t}: dressed drive, drive Stark
    # correction, and the drive-assisted bilinear exchange
    dressed = params.omega_cl * (1.0 - (la2 + lb2) / (2.0 * delta_b**2))
    osc = (
        dressed * sge
        - (params.omega_cl / delta_b**2) * (weighted @ sge)
        + (params.omega_cl / delta_b**2) * lam_ab * (a @ b.dag() @ (sii - sgg - see))
    )
    return TimeDependentOperator(static, [(osc, -params.delta_small)])


def effective_pdc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Second-order down-conversion Hamiltonian (ladder configuration).

    Mirrors the up-conversion builder with flipped shift signs, the pair
    operator a b in place of a b^dag, and xi = omega_cl lambda_a lambda_b /
    Delta^2 on the i-level block.  The g-level shift uses the first-order
    Stark form |lambda_a|^2 / Delta, matching its three companions.
    """
    _require(params, ProcessKind.PDC)
    _warn_if_not_dispersive(params, "the effective down-conversion Hamiltonian")
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
    return TimeDependentOperator(static, [(osc, -params.delta_small)])


def resonance_delta(params: PhysicalParams) -> float:
    """Drive detuning that makes the rotating-frame bilinear generator static.

    Up-conversion: (|lambda_b|^2 - |lambda_a|^2) / Delta (cancels chi_a-chi_b).
    Down-conversion: (|lambda_a|^2 + |lambda_b|^2) / Delta; the degenerate
    process uses the same form with lambda_b = lambda_a.
    """
    la2 = abs(params.lambda_a) ** 2
    lb2 = abs(params.lambda_b) ** 2
    if params.process is ProcessKind.PUC:
        return (lb2 - la2) / params.delta_big
    if params.process is ProcessKind.PDC:
        return (la2 + lb2) / params.delta_big
    if params.process is ProcessKind.DEGENERATE_PDC:
        return 2.0 * la2 / params.delta_big
    raise ValueError(f"no drive resonance for process {params.process.value}")


def effective_xi(params: PhysicalParams) -> complex:
    """Drive-assisted two-mode coupling xi.

    omega_cl lambda_a lambda_b^* / Delta^2 for up-conversion,
    omega_cl lambda_a lambda_b / Delta^2 for (degenerate) down-conversion.
    """
    if params.process is ProcessKind.PUC:
        product = params.lambda_a * params.lambda_b.conjugate()
    elif params.process in (ProcessKind.PDC, ProcessKind.DEGENERATE_PDC):
        product = params.lambda_a * params.lambda_b
    else:
        raise ValueError(
            "two-photon processes have no drive-assisted coupling; "
            "use two_photon_coupling"
        )
    return params.omega_cl * product / params.delta_big**2


def two_photon_coupling(params: PhysicalParams, kind: str) -> complex:
    """Atom-correlated exchange strengths with the drive off:
    'BS' -> lambda_a lambda_b^* / Delta, 'TMS' -> lambda_a lambda_b / Delta."""
    if kind == "BS":
        return params.lambda_a * params.lambda_b.conjugate() / params.delta_big
    if kind == "TMS":
        return params.lambda_a * params.lambda_b / params.delta_big
    raise ValueError(f"kind must be 'BS' or 'TMS', got {kind!r}")


def reduced_bilinear_generator(space: HilbertSpace, params: PhysicalParams) -> Operator:
    """Static two-mode generator in the rotating frame at drive resonance.

    PUC -> xi a b^dag + h.c. (beam splitter)
    PDC -> xi a b + h.c. (two-mode squeezer)
    DEGENERATE_PDC -> xi a^2 + h.c. (single-mode squeezer)

    The constant i-level energy shift is dropped here; it is a global phase
    on that subspace and is kept only by the effective builders.
    """
    delta_res = resonance_delta(params)
    scale = max(
        abs(delta_res),
        (abs(params.lambda_a) ** 2 + abs(params.lambda_b) ** 2) / abs(params.delta_big),
    )
    if abs(params.delta_small - delta_res) > 1e-9 * max(scale, 1e-300):
        raise ValueError(
            f"drive detuning {params.delta_small} is off resonance; "
            f"the static generator requires delta_small = {delta_res!r}"
        )
    xi = effective_xi(params)
    a = annihilation(space, "a")
    if params.process is ProcessKind.PUC:
        b = annihilation(space, "b")
        half = xi * (a @ b.dag())
    elif params.process is ProcessKind.PDC:
        b = annihilation(space, "b")
        half = xi * (a @ b)
    else:
        half = xi * (a @ a)
    return half + half.dag()


def two_photon_hamiltonian(space: HilbertSpace, params: PhysicalParams, kind: str) -> Operator:
    """Atom-correlated exchange Hamiltonians with the classical drive off.

    'BS':  zeta a b^dag sig_eg + h.c.,  zeta = lambda_a lambda_b^* / Delta
    'TMS': kappa a b sig_eg + h.c.,     kappa = lambda_a lambda_b / Delta

    The diagonal Stark terms are deliberately omitted; they are available
    through the effective builders.
    """
    coupling = two_photon_coupling(params, kind)
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    seg = atomic_sigma(space, "e", "g")
    if kind == "BS":
        half = coupling * (a @ b.dag() @ seg)
    else:
        half = coupling * (a @ b @ seg)
    return half + half.dag()


# --- transverse Gaussian mode profile ----------------------------------------

@dataclass(frozen=True)
class TraversalSpec:
    """Atom crossing through the Gaussian cavity waist.

    waist_w: mode waist (cm); alpha: path length over waist, L = alpha * w;
    tau: total crossing time (s).  The crossing is symmetric:
    x(t) = v (t - tau/2) with v = alpha * w / tau, and the atom sees the
    mode amplitude f(x) = exp(-x^2 / w^2).
    """

    waist_w: float
    alpha: float
    tau: float

    def __post_init__(self):
        if self.waist_w <= 0.0:
            raise ValueError("waist_w must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


def profile_squeezing_factor(
    params: PhysicalParams,
    traversal: TraversalSpec | None = None,
    *,
    tau: float | None = None,
) -> float:
    """Squeezing factor r = 2 |xi| * integral_0^tau f(x(t))^2 dt.

    With traversal=None the profile is flat (f == 1) over the duration tau,
    reducing to r = 2 |xi| tau.
    """
    xi_abs = abs(effective_xi(params))
    if traversal is None:
        if tau is None or tau <= 0.0:
            raise ValueError("flat profile needs an explicit positive tau")
        return 2.0 * xi_abs * tau
    # integral_0^tau exp(-2 alpha^2 (t/tau - 1/2)^2) dt in closed form
    alpha = traversal.alpha
    integral = traversal.tau * math.sqrt(math.pi / 2.0) * math.erf(alpha / math.sqrt(2.0)) / alpha
    return 2.0 * xi_abs * integral


def fit_traversal_alpha(
    params: PhysicalParams,
    waist_w: float,
    tau: float,
    target_r: float,
) -> float:
    """Root-find the path-to-waist ratio alpha so that the profile-averaged
    squeezing factor at crossing time tau equals target_r.

    r(alpha) decreases monotonically from the flat-profile value 2|xi|tau;
    target_r must lie strictly below it.
    """
    from scipy.optimize import brentq

    flat = profile_squeezing_factor(params, tau=tau)
    if not 0.0 < target_r < flat:
        raise ValueError(
            f"target_r must lie in (0, {flat}) for these parameters, got {target_r}"
        )

    def gap(alpha: float) -> float:
        spec = TraversalSpec(waist_w=waist_w, alpha=alpha, tau=tau)
        return profile_squeezing_factor(params, spec) - target_r

    # alpha from a nearly flat crossing (1e-3) to one 50 waists long
    return float(brentq(gap, 1e-3, 50.0, xtol=1e-13, rtol=1e-14))
