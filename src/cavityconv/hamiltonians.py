"""Interaction Hamiltonians for drive-assisted two-mode frequency conversion.

Conventions (hbar = 1 throughout, all energies in angular s^-1):
  * exp(-i H t) is the propagator, so every builder returns the generator
    that goes inside that exponential.
  * A time-dependent Hamiltonian is  H(t) = static + sum_j (O_j e^{i nu_j t}
    + O_j^dag e^{-i nu_j t});  the classical drive enters at nu = -delta.
  * Every "+ h.c." is implicit: a builder stores each coupling once, as a
    band half, and its adjoint is added only where the bands are summed.
  * Lambda configuration (up-conversion, PUC): modes a, b couple g<->i and
    e<->i with strengths lambda_a, lambda_b, both detuned by Delta; a
    classical field of amplitude omega_cl drives g<->e at detuning delta.
  * Ladder configuration (down-conversion, PDC): mode a couples g<->i, mode
    b couples i<->e; in the interaction picture the mode terms oscillate at
    -Delta and +Delta respectively.
  * Every oscillating Hamiltonian built here is static in a diagonal rotating
    frame D = omega_level + nu_a n_a + nu_b n_b, solved from its labelled
    terms: phi = e^{iDt} psi evolves under H(0) - D, no substeps, straight
    from the entries ``TimeDependentOperator.frame`` sums, with no Operator.

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hilbert import HilbertSpace, Operator, _band, _band_entries, _band_operator
from .propagate import PropagationError

# Largest frame-equation residual, relative to max(max|nu|, 1), for which the
# solved diagonal frame is accepted as making H(t) static.
FRAME_RTOL = 1e-9


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


@dataclass(frozen=True, init=False, eq=False)
class TimeDependentOperator:
    """H(t) = static + sum_j (O_j e^{i nu_j t} + O_j^dag e^{-i nu_j t}) from
    labelled band halves: a term (coefficient, k, l, d_a, d_b[, weight]) is
    coefficient |k><l| (x) a^d_a (x) b^d_b as ``hilbert._band`` takes it.

    ``terms`` keeps (nu, ((coefficient, (k, l, d_a, d_b), band), ...)) per
    part, the static part first at nu = 0, each band made once.  Every term
    is stored once; its adjoint (conj(coefficient), (-offset, conj(entries)))
    is added only where the bands are summed.  A static term on the main
    diagonal (one level, d_a = d_b = 0) is its own adjoint, gets none, and
    must be real.  So H(t) is Hermitian by construction: no matrix is built
    or checked here.  The layout of ``terms`` is private to this module:
    others read ``at``, ``static_part``, ``oscillating_parts`` and ``frame``."""

    space: HilbertSpace
    terms: tuple

    def __init__(self, space: HilbertSpace, static=(), oscillating=()):
        terms = tuple((float(nu), tuple((c, (k, l, d_a, d_b), _band(space, k, l, d_a, d_b, *w))
                                        for c, k, l, d_a, d_b, *w in part))
                      for part, nu in [(static, 0.0), *oscillating])
        for c, label, (offset, entries) in terms[0][1]:
            if offset == 0 and np.imag(c * entries).any():
                raise ValueError(f"the diagonal static term {label} is not real, "
                                 "so H(t) would not be Hermitian")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", terms)

    def _bands(self, t: float, parts: int | None = None) -> list:
        """(coefficient, band) of every term of H(t), or of its first parts
        parts, the static part being the first: each term at its phase
        e^{i nu t}, a static one at none, then its adjoint, except a static
        term on the main diagonal, which is its own."""
        bands = []
        for j, (nu, part) in enumerate(self.terms[:parts]):
            for c, _, band in part:
                if j:
                    c = cmath.exp(1j * nu * t) * c
                bands.append((c, band))
                if j or band[0]:  # the adjoint: conj(c) and band^dag
                    bands.append((c.conjugate(), (-band[0], band[1].conj())))
        return bands

    def at(self, t: float) -> Operator:
        """H(t), its bands summed into one Operator."""
        return _band_operator(self.space, self._bands(t))

    @property
    def static_part(self) -> Operator:
        """The static terms and their adjoints, summed on request."""
        return _band_operator(self.space, self._bands(0.0, 1))

    @property
    def oscillating_parts(self) -> tuple[tuple[Operator, float], ...]:
        """(O_j, nu_j) per oscillating part, O_j its terms without their
        adjoints, summed on request."""
        return tuple((_band_operator(self.space, [(c, band) for c, _, band in part]), nu)
                     for nu, part in self.terms[1:])

    def frame(self) -> tuple[np.ndarray, tuple]:
        """(d, (row, col, val)): the diagonal d_k = omega_level + nu_a n_a + nu_b n_b
        with e^{iDt} H(t) e^{-iDt} = H(0) for all t, and the entries of H(0) - D,
        H(0)'s bands and -D summed per offset by ``_band_entries``.

        Each term c |k><l| a^d_a b^d_b at nu (the static part at 0) whose
        c * entries holds a nonzero gives d_m - d_n = -nu at its elements (m, n),
        one equation [e_k - e_l, -d_a, -d_b | -nu] in the unknowns (one energy
        per level, nu_a, nu_b); its adjoint's equation is the same one negated,
        so only the stored halves write one.  The distinct ones, rows ascending,
        are solved by least squares, and a residual above
        FRAME_RTOL * max(max|nu|, 1) raises PropagationError: no frame."""
        space = self.space
        atom = np.eye(space.atom_levels)
        equations = {(*(0.0 * atom[0] if k is None  # the identity on the atom
                        else atom[space.level_index(k)] - atom[space.level_index(l)]), -d_a, -d_b, -nu)
                     for nu, part in self.terms for c, (k, l, d_a, d_b), (_, entries) in part
                     if (c * entries).any()}
        system = np.reshape(sorted(equations), (-1, space.atom_levels + 3))  # a fixed row order
        a_mat, b_vec = system[:, :-1], system[:, -1]
        d = np.zeros(space.total_dim)
        if b_vec.any():
            x = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
            residual = float(np.max(np.abs(a_mat @ x - b_vec)))
            if residual > FRAME_RTOL * max(self.max_frequency(), 1.0):
                raise PropagationError(
                    f"H(t) has no static rotating frame: frame equations miss by {residual:.3e}"
                )
            level, n_a, n_b = np.indices(space.shape).reshape(3, -1)
            d = np.column_stack([atom[level], n_a, n_b]) @ x
        return d, _band_entries(space, [*self._bands(0.0), (-1.0, (0, d))])

    def max_frequency(self) -> float:
        return max((abs(nu) for nu, _ in self.terms[1:]), default=0.0)


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
    static = [(params.lambda_a, "i", "g", 1, 0), (params.lambda_b, "i", "e", 0, 1),
              (-params.delta_big, "e", "e", 0, 0), (-params.delta_big, "g", "g", 0, 0)]
    return TimeDependentOperator(space, static,
                                 [([(params.omega_cl, "g", "e", 0, 0)], -params.delta_small)])


def full_pdc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Ladder-configuration Hamiltonian in the interaction picture of the
    free Hamiltonian; the optical frequencies drop out and the three
    couplings oscillate at -Delta, +Delta and -delta respectively."""
    _require(params, ProcessKind.PDC)
    parts = [((params.lambda_a, "i", "g", 1, 0), -params.delta_big),
             ((params.lambda_b, "e", "i", 0, 1), +params.delta_big),
             ((params.omega_cl, "g", "e", 0, 0), -params.delta_small)]
    return TimeDependentOperator(space, [], [([term], nu) for term, nu in parts])


def _effective_hamiltonian(space: HilbertSpace, params: PhysicalParams, d_b: int,
                           lam_ab: complex, sign: float) -> TimeDependentOperator:
    """The second-order generator of both processes, summed from bands: sign
    times the up-conversion static part, whose exchange is a b^d_b sig_eg
    (d_b = -1: b^dag) plus h.c., and one drive part for both."""
    delta = params.delta_big
    la2, lb2 = abs(params.lambda_a) ** 2, abs(params.lambda_b) ** 2
    n_a, n_b = np.ogrid[:space.dim_a, :space.dim_b]
    stark = la2 * n_a + lb2 * n_b  # intensity-dependent Stark weight of each field state
    # level shifts + Stark terms, then the atom-correlated exchange
    static = [(-sign, "e", "e", 0, 0, (delta + lb2 / delta) + lb2 * n_b / delta),
              (-sign, "g", "g", 0, 0, (delta + la2 / delta) + la2 * n_a / delta),
              (sign, "i", "i", 0, 0, (la2 + lb2) / delta + stark / delta),
              (-sign * lam_ab / delta, "e", "g", 1, d_b)]
    # everything multiplying e^{-i delta t}: dressed drive, drive Stark
    # correction, and the drive-assisted bilinear exchange on each level
    drive = params.omega_cl / delta**2
    dressed = params.omega_cl * (1.0 - (la2 + lb2) / (2.0 * delta**2))
    osc = [(1.0, "g", "e", 0, 0, dressed - drive * stark),
           *((level_sign * drive * lam_ab, level, level, 1, d_b)
             for level, level_sign in (("i", 1.0), ("g", -1.0), ("e", -1.0)))]
    return TimeDependentOperator(space, static, [(osc, -params.delta_small)])


def effective_puc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Second-order up-conversion Hamiltonian after adiabatic elimination of
    the detuned one-photon transitions.  Emits a warning (but still builds)
    outside the dispersive regime.
    """
    _require(params, ProcessKind.PUC)
    _warn_if_not_dispersive(params, "the effective up-conversion Hamiltonian")
    return _effective_hamiltonian(space, params, -1,
                                  params.lambda_a * params.lambda_b.conjugate(), 1.0)


def effective_pdc_hamiltonian(space: HilbertSpace, params: PhysicalParams) -> TimeDependentOperator:
    """Second-order down-conversion Hamiltonian (ladder configuration).

    Mirrors the up-conversion builder with flipped shift signs, the pair
    operator a b in place of a b^dag, and xi = omega_cl lambda_a lambda_b /
    Delta^2 on the i-level block.  The g-level shift uses the first-order
    Stark form |lambda_a|^2 / Delta, matching its three companions.
    """
    _require(params, ProcessKind.PDC)
    _warn_if_not_dispersive(params, "the effective down-conversion Hamiltonian")
    return _effective_hamiltonian(space, params, 1, params.lambda_a * params.lambda_b, -1.0)


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


def _reduced_band(space: HilbertSpace, params: PhysicalParams):
    """(offset, upper): the xi half of ``reduced_bilinear_generator``, its
    entries upper[j] at (j, j + offset), offset >= 0, stored as that builder
    stores them.  Raises ValueError off drive resonance."""
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
    d_a, d_b = {ProcessKind.PUC: (1, -1), ProcessKind.PDC: (1, 1)}.get(params.process, (2, 0))
    offset, entries = _band(space, None, None, d_a, d_b)
    return offset, 0.0 + effective_xi(params) * entries


def reduced_bilinear_generator(space: HilbertSpace, params: PhysicalParams) -> Operator:
    """Static two-mode generator in the rotating frame at drive resonance.

    PUC -> xi a b^dag + h.c. (beam splitter)
    PDC -> xi a b + h.c. (two-mode squeezer)
    DEGENERATE_PDC -> xi a^2 + h.c. (single-mode squeezer)

    The constant i-level energy shift is dropped here; it is a global phase
    on that subspace and is kept only by the effective builders.

    The xi half and its conjugate are one band each.  The scenarios evolve a
    Fock state under it straight from the xi half (``_reduced_band`` and
    ``propagate._evolve_band``), with no full-space operator built.
    """
    offset, upper = _reduced_band(space, params)
    return _band_operator(space, [(1.0, (offset, upper)), (1.0, (-offset, upper.conj()))])


def _two_photon_band(space: HilbertSpace, params: PhysicalParams, kind: str):
    """(offset, upper): the h.c. half of ``two_photon_hamiltonian``, stored as
    ``hilbert._band`` stores it, which ``propagate._evolve_band`` reads at
    either sign of the offset."""
    coupling = two_photon_coupling(params, kind)
    offset, entries = _band(space, "g", "e", -1, 1 if kind == "BS" else -1)
    return offset, 0.0 + coupling.conjugate() * entries


def two_photon_hamiltonian(space: HilbertSpace, params: PhysicalParams, kind: str) -> Operator:
    """Atom-correlated exchange Hamiltonians with the classical drive off.

    'BS':  zeta a b^dag sig_eg + h.c.,  zeta = lambda_a lambda_b^* / Delta
    'TMS': kappa a b sig_eg + h.c.,     kappa = lambda_a lambda_b / Delta

    The diagonal Stark terms are deliberately omitted; they are available
    through the effective builders.  ``bell_prep`` evolves straight from the
    h.c. band (``_two_photon_band``); the evolution writes its rows in place.
    """
    offset, upper = _two_photon_band(space, params, kind)
    return _band_operator(space, [(1.0, (-offset, upper.conj())), (1.0, (offset, upper))])


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
        for name in ("waist_w", "alpha", "tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


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
        if tau is None or not 0.0 < tau < math.inf:
            raise ValueError(f"flat profile needs an explicit positive, finite tau, got {tau}")
        return 2.0 * xi_abs * tau
    return 2.0 * xi_abs * _crossing_integral(traversal.alpha, traversal.tau)


def _crossing_integral(alpha: float, tau: float) -> float:
    """integral_0^tau exp(-2 alpha^2 (t/tau - 1/2)^2) dt in closed form: tau
    times a factor of at most 1, formed first so that the product stays finite."""
    return tau * (math.sqrt(math.pi / 2.0) * math.erf(alpha / math.sqrt(2.0)) / alpha)


def fit_traversal_alpha(
    params: PhysicalParams,
    waist_w: float,
    tau: float,
    target_r: float,
) -> float:
    """The path-to-waist ratio alpha in [1e-3, 50] at which the
    profile-averaged squeezing factor at crossing time tau equals target_r.

    r(alpha) = 2 |xi| tau sqrt(pi/2) erf(alpha / sqrt 2) / alpha, the closed
    form ``profile_squeezing_factor`` evaluates, decreases from the flat value
    2 |xi| tau; it is bisected on floats until the bracket ends are adjacent,
    and the end whose r is nearer target_r is returned.  target_r must lie in
    (0, flat), and within [r(50), r(1e-3)], about (0.0251, 1 - 1.7e-7) x flat,
    to be reached; waist_w must be positive and finite but does not enter r.
    """
    flat = profile_squeezing_factor(params, tau=tau)
    if not 0.0 < target_r < flat:
        raise ValueError(
            f"target_r must lie in (0, {flat}) for these parameters, got {target_r}"
        )
    if not 0.0 < waist_w < math.inf:
        raise ValueError(f"waist_w must be positive and finite, got {waist_w}")
    scale = 2.0 * abs(effective_xi(params))  # rounded as profile_squeezing_factor rounds it

    def r(alpha: float) -> float:
        return scale * _crossing_integral(alpha, tau)

    lo, hi = 1e-3, 50.0  # from a nearly flat crossing to one 50 waists long
    r_lo, r_hi = r(lo), r(hi)
    if not r_hi <= target_r <= r_lo:
        raise ValueError(
            f"target_r must lie in [{r_hi}, {r_lo}], the r of alpha in "
            f"[{lo}, {hi}], for these parameters, got {target_r}"
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        r_mid = r(mid)
        if r_mid > target_r:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
        mid = 0.5 * (lo + hi)
    return lo if abs(r_lo - target_r) <= abs(r_hi - target_r) else hi
