import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import erf

from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    TimeDependentOperator,
    TraversalSpec,
    _two_photon_band,
    effective_pdc_hamiltonian,
    effective_puc_hamiltonian,
    effective_xi,
    fit_traversal_alpha,
    full_pdc_hamiltonian,
    full_puc_hamiltonian,
    profile_squeezing_factor,
    reduced_bilinear_generator,
    resonance_delta,
    two_photon_coupling,
    two_photon_hamiltonian,
)
from cavityconv.hilbert import (
    Operator,
    basis_state,
    field_space,
    fock_state,
    make_space,
)

from oracles import (
    annihilation,
    apply,
    assert_identical,
    atom_block,
    atomic_sigma,
    bilinear_generator_product_form,
    effective_pdc_product_form,
    effective_puc_product_form,
    entries_operator,
    full_pdc_product_form,
    full_puc_product_form,
    identity_operator,
    number_operator,
    rotating_frame_elementwise,
    two_photon_product_form,
)

LAM = 7e5
OMEGA = 7e5
DELTA = 1e7


def puc_params(**kw):
    base = dict(lambda_a=LAM, lambda_b=LAM, omega_cl=OMEGA, delta_big=DELTA,
                delta_small=0.0, process=ProcessKind.PUC)
    base.update(kw)
    return PhysicalParams(**base)


def pdc_params(**kw):
    base = dict(lambda_a=LAM, lambda_b=LAM, omega_cl=OMEGA, delta_big=DELTA,
                delta_small=0.0, process=ProcessKind.PDC)
    base.update(kw)
    return PhysicalParams(**base)


# --- parameter plumbing -------------------------------------------------------

def test_dispersive_flag():
    assert puc_params().dispersive                       # 14.3x
    assert not puc_params(delta_big=6e6).dispersive      # 8.6x
    assert puc_params(omega_cl=2e6, delta_big=2e7).dispersive


def test_params_require_finite():
    with pytest.raises(ValueError):
        puc_params(lambda_a=float("nan"))
    with pytest.raises(ValueError):
        puc_params(delta_big=float("inf"))


def test_time_dependent_operator_rejects_non_hermitian():
    space = field_space(2, 2)
    with pytest.raises(ValueError, match="not real"):
        TimeDependentOperator(space, [(1j, None, None, 0, 0)])  # i 1 is anti-Hermitian


def test_a_static_half_gets_its_adjoint():
    space = field_space(3, 2)
    a = annihilation(space, "a")
    assert_identical(TimeDependentOperator(space, [(1.0, None, None, 1, 0)]).at(0.0),
                     (a + a.dag()).matrix)


@pytest.mark.parametrize("n_max", [(4, 3), (6, 6)], ids=str)
def test_builders_make_no_operator_and_check_nothing(monkeypatch, n_max):
    # every term is a band half and H(t) is Hermitian by construction
    made = []
    for name in ("__init__", "is_hermitian"):
        real = getattr(Operator, name)
        monkeypatch.setattr(Operator, name, lambda self, *args, _real=real, _name=name:
                            made.append(_name) or _real(self, *args))
    space = make_space(3, *n_max)
    for build, params in ((full_puc_hamiltonian, puc_params), (full_pdc_hamiltonian, pdc_params),
                          (effective_puc_hamiltonian, puc_params),
                          (effective_pdc_hamiltonian, pdc_params)):
        build(space, params(delta_small=1.2e5))
    assert made == []


def test_time_dependent_operator_is_frozen():
    # H(t) is Hermitian by construction from its terms: nothing can be swapped in later
    h = full_puc_hamiltonian(make_space(3, 1, 1), puc_params(delta_small=3e4))
    assert isinstance(h.oscillating_parts, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.static_part = annihilation(h.space, "a")
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.oscillating_parts = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.terms = ()


# --- full Lambda (up-conversion) Hamiltonian -----------------------------------

def test_full_puc_jaynes_cummings_block():
    space = make_space(3, 3, 1)
    params = puc_params(omega_cl=0.0, lambda_b=0.0)
    h = full_puc_hamiltonian(space, params).at(0.0).to_dense()
    for n in range(1, 4):
        up = space.flatten(space.level_index("i"), n - 1, 0)
        down = space.flatten(space.level_index("g"), n, 0)
        assert abs(h[up, down] - LAM * math.sqrt(n)) < 1e-9
        assert abs(h[down, up] - LAM * math.sqrt(n)) < 1e-9
        assert abs(h[up, up]) < 1e-9
        assert abs(h[down, down] + DELTA) < 1e-9


def test_full_puc_hermitian_at_sample_times():
    space = make_space(3, 2, 2)
    params = puc_params(delta_small=5e4, lambda_a=LAM * 1j)
    h = full_puc_hamiltonian(space, params)
    for t in (0.0, 0.37 / 5e4):
        assert h.at(t).is_hermitian()


def test_full_puc_oscillates_at_minus_delta():
    h = full_puc_hamiltonian(make_space(3, 1, 1), puc_params(delta_small=3e4))
    assert len(h.oscillating_parts) == 1
    _, nu = h.oscillating_parts[0]
    assert nu == -3e4


def test_full_puc_conserves_total_excitation():
    # oracle: the commutator matrix [H, n_a + n_b + sigma_ii] must vanish
    space = make_space(3, 3, 3)
    params = puc_params(omega_cl=0.0)
    h = full_puc_hamiltonian(space, params).at(0.0)
    n_exc = (number_operator(space, "a") + number_operator(space, "b")
             + atomic_sigma(space, "i", "i"))
    comm = (h @ n_exc - n_exc @ h).to_dense()
    assert np.abs(comm).max() < 1e-9


def test_full_puc_wrong_process_rejected():
    with pytest.raises(ValueError):
        full_puc_hamiltonian(make_space(3, 1, 1), pdc_params())


# --- full ladder (down-conversion) Hamiltonian ---------------------------------

def test_full_pdc_hermitian_at_sample_times():
    space = make_space(3, 2, 2)
    h = full_pdc_hamiltonian(space, pdc_params(delta_small=9.8e4))
    for t in (0.0, 1.3e-7, 0.37 / 9.8e4):
        assert h.at(t).is_hermitian()


def test_full_pdc_oscillation_frequencies():
    h = full_pdc_hamiltonian(make_space(3, 1, 1), pdc_params(delta_small=9.8e4))
    freqs = sorted(nu for _, nu in h.oscillating_parts)
    assert freqs == [-DELTA, -9.8e4, DELTA]


def test_full_pdc_jaynes_cummings_block_flipped_detuning():
    # absorbing the e^{-i Delta t} phase into the g/e levels turns the ladder
    # coupling into a static block with the detuning sign flipped vs PUC
    space = make_space(3, 3, 1)
    params = pdc_params(omega_cl=0.0, lambda_b=0.0)
    h0 = full_pdc_hamiltonian(space, params).at(0.0)
    shifted = h0 + DELTA * (atomic_sigma(space, "g", "g") + atomic_sigma(space, "e", "e"))
    h = shifted.to_dense()
    for n in range(1, 4):
        up = space.flatten(space.level_index("i"), n - 1, 0)
        down = space.flatten(space.level_index("g"), n, 0)
        assert abs(h[up, down] - LAM * math.sqrt(n)) < 1e-9
        assert abs(h[up, up]) < 1e-9
        assert abs(h[down, down] - DELTA) < 1e-9


def test_full_pdc_ground_vacuum_invariant_without_drive():
    space = make_space(3, 2, 2)
    h = full_pdc_hamiltonian(space, pdc_params(omega_cl=0.0))
    psi = basis_state(space, "g", 0, 0)
    for t in (0.0, 2.7e-7):
        assert apply(h.at(t), psi).norm() < 1e-12


# --- effective (second-order) Hamiltonians -------------------------------------

def expected_i_block_puc(space, params):
    xi = effective_xi(params)
    chi_a = abs(params.lambda_a) ** 2 / params.delta_big
    chi_b = abs(params.lambda_b) ** 2 / params.delta_big
    shift = (abs(params.lambda_a) ** 2 + abs(params.lambda_b) ** 2) / params.delta_big
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    return (chi_a * number_operator(space, "a") + chi_b * number_operator(space, "b")
            + xi * (a @ b.dag()) + xi.conjugate() * (a.dag() @ b)
            + shift * identity_operator(space))


def test_effective_puc_i_restriction_matches_formula():
    space = make_space(3, 3, 3)
    params = puc_params(lambda_a=LAM * np.exp(0.3j), lambda_b=LAM * np.exp(-0.1j))
    block = atom_block(effective_puc_hamiltonian(space, params).at(0.0), "i")
    expected = expected_i_block_puc(field_space(3, 3), params)
    assert np.abs((block - expected).to_dense()).max() < 1e-9 * abs(params.delta_big)


def test_effective_puc_no_exchange_without_drive():
    space = make_space(3, 2, 2)
    block = atom_block(
        effective_puc_hamiltonian(space, puc_params(omega_cl=0.0)).at(0.0), "i"
    ).to_dense()
    assert np.abs(block - np.diag(np.diag(block))).max() == 0.0


def test_effective_puc_hermitian_at_sample_times():
    space = make_space(3, 2, 2)
    h = effective_puc_hamiltonian(space, puc_params(delta_small=4.9e4))
    for t in (0.0, 0.61 / 4.9e4):
        assert h.at(t).is_hermitian()


def test_effective_builders_warn_outside_dispersive_regime():
    space = make_space(3, 1, 1)
    weak = puc_params(delta_big=3e6)  # only ~4x the couplings
    with pytest.warns(UserWarning):
        effective_puc_hamiltonian(space, weak)
    with pytest.warns(UserWarning):
        effective_pdc_hamiltonian(space, pdc_params(delta_big=3e6))


def expected_i_block_pdc(space, params):
    xi = effective_xi(params)
    chi_a = abs(params.lambda_a) ** 2 / params.delta_big
    chi_b = abs(params.lambda_b) ** 2 / params.delta_big
    shift = -(abs(params.lambda_a) ** 2 + abs(params.lambda_b) ** 2) / params.delta_big
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    return (-chi_a * number_operator(space, "a") - chi_b * number_operator(space, "b")
            + xi * (a @ b) + xi.conjugate() * (a.dag() @ b.dag())
            + shift * identity_operator(space))


def test_effective_pdc_i_restriction_matches_formula():
    space = make_space(3, 3, 3)
    params = pdc_params(lambda_a=LAM * np.exp(1.1j), lambda_b=LAM * np.exp(0.4j))
    block = atom_block(effective_pdc_hamiltonian(space, params).at(0.0), "i")
    expected = expected_i_block_pdc(field_space(3, 3), params)
    assert np.abs((block - expected).to_dense()).max() < 1e-9 * abs(params.delta_big)


def test_effective_pdc_diagonal_without_drive():
    space = make_space(3, 2, 2)
    block = atom_block(
        effective_pdc_hamiltonian(space, pdc_params(omega_cl=0.0)).at(0.0), "i"
    ).to_dense()
    assert np.abs(block - np.diag(np.diag(block))).max() == 0.0


def test_effective_pdc_hermitian_at_sample_times():
    space = make_space(3, 2, 2)
    h = effective_pdc_hamiltonian(space, pdc_params(delta_small=9.8e4))
    for t in (0.0, 0.23 / 9.8e4):
        assert h.at(t).is_hermitian()


def test_frame_cancellation_at_resonance():
    # conjugating the i-level block by the frame phases at the resonant drive
    # detuning freezes the time dependence: any two sampled times agree
    rng = np.random.default_rng(1234)
    for builder, make_params, sign in (
        (effective_puc_hamiltonian, puc_params, +1),
        (effective_pdc_hamiltonian, pdc_params, -1),
    ):
        params0 = make_params(lambda_a=4e5, lambda_b=6e5)
        params = make_params(
            lambda_a=4e5, lambda_b=6e5, delta_small=resonance_delta(params0)
        )
        space = make_space(3, 4, 4)
        h = builder(space, params)
        fld = field_space(4, 4)
        chi_a = abs(params.lambda_a) ** 2 / params.delta_big
        chi_b = abs(params.lambda_b) ** 2 / params.delta_big
        n_a, n_b = fld.fock_numbers()
        samples = []
        for t in rng.uniform(0.0, 2e-4, size=5):
            block = atom_block(h.at(t), "i").to_dense()
            u = np.exp(-1j * sign * t * (chi_a * n_a + chi_b * n_b))
            samples.append(np.conj(u)[:, None] * block * u[None, :])
        for m in samples[1:]:
            assert np.abs(m - samples[0]).max() < 1e-10


def test_effective_xi_scales_linearly_in_drive():
    base = puc_params()
    for s in (2.0, 0.25, 8.0):
        scaled = puc_params(omega_cl=s * OMEGA)
        assert effective_xi(scaled) == s * effective_xi(base)


# --- resonance and couplings ----------------------------------------------------

def test_resonance_delta_values():
    assert resonance_delta(puc_params()) == 0.0
    assert abs(resonance_delta(pdc_params()) - 9.8e4) < 1e-9
    assert abs(resonance_delta(puc_params(lambda_b=0.0)) + 4.9e4) < 1e-9
    degenerate = PhysicalParams(LAM, LAM, OMEGA, DELTA, 0.0, ProcessKind.DEGENERATE_PDC)
    assert abs(resonance_delta(degenerate) - 9.8e4) < 1e-9


def test_resonance_delta_rejects_zero_detuning():
    with pytest.raises(ValueError):
        resonance_delta(puc_params(delta_big=0.0))


def test_effective_xi_paper_scale_value():
    xi = effective_xi(puc_params())
    assert abs(xi) == pytest.approx(3.43e3, rel=1e-12)
    assert effective_xi(puc_params(omega_cl=0.0)) == 0.0
    assert abs(effective_xi(pdc_params())) == abs(effective_xi(puc_params()))


def test_effective_xi_rejects_two_photon_process():
    params = PhysicalParams(LAM, LAM, 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS)
    with pytest.raises(ValueError):
        effective_xi(params)


def test_two_photon_matrix_elements():
    space = make_space(3, 1, 1)
    params = PhysicalParams(LAM, LAM, 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS)
    zeta = two_photon_coupling(params, "BS")
    kappa = two_photon_coupling(params, "TMS")
    assert abs(zeta) == pytest.approx(4.9e4)
    assert abs(kappa) == pytest.approx(4.9e4)

    h_bs = two_photon_hamiltonian(space, params, "BS").to_dense()
    row = space.flatten(space.level_index("e"), 0, 1)
    col = space.flatten(space.level_index("g"), 1, 0)
    assert h_bs[row, col] == pytest.approx(zeta)

    h_tms = two_photon_hamiltonian(space, params, "TMS").to_dense()
    row = space.flatten(space.level_index("g"), 1, 1)
    col = space.flatten(space.level_index("e"), 0, 0)
    assert h_tms[row, col] == pytest.approx(kappa.conjugate())
    # with no photon room in mode a the TMS band is stored below the diagonal
    assert _two_photon_band(make_space(3, 0, 3), params, "TMS")[0] == -1

    with pytest.raises(ValueError):
        two_photon_hamiltonian(space, params, "XY")


# --- reduced bilinear generators -------------------------------------------------

def test_reduced_puc_is_beam_splitter():
    params = puc_params(lambda_a=LAM * 1j)  # xi = i |xi|
    space = field_space(2, 2)
    gen = reduced_bilinear_generator(space, params)
    out = apply(gen, fock_state(space, 1, 0))
    xi = effective_xi(params)
    assert abs(out.amplitudes[space.flatten(0, 0, 1)] - xi) < 1e-9
    assert abs(out.norm() - abs(xi)) < 1e-9


def test_reduced_pdc_creates_one_pair_from_vacuum():
    params = pdc_params(delta_small=resonance_delta(pdc_params()))
    space = field_space(2, 2)
    out = apply(reduced_bilinear_generator(space, params), fock_state(space, 0, 0))
    xi = effective_xi(params)
    assert abs(out.amplitudes[space.flatten(0, 1, 1)] - xi.conjugate()) < 1e-9
    assert abs(out.norm() - abs(xi)) < 1e-9


def test_reduced_degenerate_creates_photon_pairs():
    base = PhysicalParams(LAM, LAM, OMEGA, DELTA, 0.0, ProcessKind.DEGENERATE_PDC)
    params = PhysicalParams(LAM, LAM, OMEGA, DELTA, resonance_delta(base),
                            ProcessKind.DEGENERATE_PDC)
    space = field_space(4, 0)
    gen = reduced_bilinear_generator(space, params)
    out = apply(gen, fock_state(space, 0, 0))
    xi = effective_xi(params)
    assert abs(out.amplitudes[space.flatten(0, 2, 0)] - math.sqrt(2) * xi.conjugate()) < 1e-9


@pytest.mark.parametrize("n_max", [(0, 0), (3, 0), (0, 3), (1, 0), (7, 5), (6, 9)])
@pytest.mark.parametrize("process", [ProcessKind.PUC, ProcessKind.PDC,
                                     ProcessKind.DEGENERATE_PDC])
def test_reduced_generator_band_equals_the_operator_product(process, n_max):
    # complex couplings give the band a phase; [n, 0] puts the PUC band at offset 0
    couplings = (LAM * np.exp(0.3j), LAM * np.exp(-1.1j), OMEGA * 1j, DELTA)
    params = PhysicalParams(*couplings, resonance_delta(PhysicalParams(*couplings, 0.0, process)),
                            process)
    space = field_space(*n_max)
    assert_identical(reduced_bilinear_generator(space, params),
                     bilinear_generator_product_form(space, params).matrix)


# one-level modes, the smallest spaces, and a lopsided one
BAND_TRUNCATIONS = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 5), (6, 3)]
# complex, asymmetric couplings with drives of either sign of phase
BAND_COUPLINGS = [(LAM, LAM, OMEGA), (LAM * np.exp(0.3j), -0.4 * LAM, OMEGA * np.exp(-2.0j)),
                  (-1j * LAM, 0.6 * LAM * np.exp(2.5j), -OMEGA)]


@pytest.mark.parametrize("couplings", BAND_COUPLINGS, ids=str)
@pytest.mark.parametrize("n_max", BAND_TRUNCATIONS, ids=str)
def test_band_builders_equal_their_operator_products_bit_for_bit(n_max, couplings):
    space = make_space(3, *n_max)
    fields = dict(zip(("lambda_a", "lambda_b", "omega_cl"), couplings), delta_small=3e3)
    for build, oracle, params in ((full_puc_hamiltonian, full_puc_product_form, puc_params(**fields)),
                                  (full_pdc_hamiltonian, full_pdc_product_form, pdc_params(**fields))):
        built, want = build(space, params), oracle(space, params)
        assert_identical(built.static_part, want.static_part.matrix)
        assert [nu for _, nu in built.oscillating_parts] == [nu for _, nu in want.oscillating_parts]
        for (op, _), (ref, _) in zip(built.oscillating_parts, want.oscillating_parts):
            assert_identical(op, ref.matrix)
    two_photon = PhysicalParams(*couplings[:2], 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS)
    for kind in ("BS", "TMS"):
        assert_identical(two_photon_hamiltonian(space, two_photon, kind),
                         two_photon_product_form(space, two_photon, kind).matrix)


def assert_close_to_product(got: Operator, want: Operator) -> None:
    """Equal nnz and every entry within 4 eps of the product form's largest."""
    assert got.matrix.nnz == want.matrix.nnz
    scale = np.abs(want.matrix.data).max(initial=0.0)
    assert np.abs(got.to_dense() - want.to_dense()).max() <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("delta_big", [DELTA, -1.3e7])
@pytest.mark.parametrize("couplings", [*BAND_COUPLINGS, (LAM * np.exp(0.3j), -0.4 * LAM, 0.0)],
                         ids=str)  # the last one has the drive off
@pytest.mark.parametrize("n_max", BAND_TRUNCATIONS, ids=str)
def test_effective_builders_match_their_operator_products(n_max, couplings, delta_big):
    # a complex omega_cl makes the drive band's Stark weight complex: H(t) and
    # the frame generator need the adjoint of its entries, not only of its coefficient
    space = make_space(3, *n_max)
    fields = dict(zip(("lambda_a", "lambda_b", "omega_cl"), couplings),
                  delta_big=delta_big, delta_small=3e3)
    for build, oracle, params in (
            (effective_puc_hamiltonian, effective_puc_product_form, puc_params(**fields)),
            (effective_pdc_hamiltonian, effective_pdc_product_form, pdc_params(**fields))):
        built, want = build(space, params), oracle(space, params)
        assert_close_to_product(built.static_part, want.static_part)
        assert [nu for _, nu in built.oscillating_parts] == [nu for _, nu in want.oscillating_parts]
        for (op, _), (ref, _) in zip(built.oscillating_parts, want.oscillating_parts):
            assert_close_to_product(op, ref)
        for t in (0.0, 1.7e-4):
            assert_close_to_product(built.at(t), want.at(t))
        d = rotating_frame_elementwise(want)
        assert_close_to_product(entries_operator(space, built.frame()[1]),
                                Operator(space, want.at(0.0).matrix - sp.diags(d)))


def test_reduced_generator_rejects_off_resonance():
    params = pdc_params(delta_small=0.0)  # resonance is 9.8e4
    with pytest.raises(ValueError) as err:
        reduced_bilinear_generator(field_space(2, 2), params)
    assert "98000" in str(err.value)


def test_every_builder_is_hermitian():
    space = make_space(3, 2, 2)
    rng = np.random.default_rng(7)
    cases = [
        full_puc_hamiltonian(space, puc_params(delta_small=1e4)),
        full_pdc_hamiltonian(space, pdc_params(delta_small=1e4)),
        effective_puc_hamiltonian(space, puc_params(delta_small=1e4)),
        effective_pdc_hamiltonian(space, pdc_params(delta_small=1e4)),
    ]
    for h in cases:
        for t in rng.uniform(0.0, 1e-4, size=3):
            assert h.at(float(t)).is_hermitian()
    statics = [
        reduced_bilinear_generator(field_space(3, 3), puc_params()),
        two_photon_hamiltonian(
            space, PhysicalParams(LAM, LAM, 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS), "BS"
        ),
    ]
    for op in statics:
        assert op.is_hermitian()


# --- Gaussian transverse profile --------------------------------------------------

def test_traversal_spec_validation():
    with pytest.raises(ValueError):
        TraversalSpec(waist_w=0.0, alpha=1.0, tau=1.0)
    with pytest.raises(ValueError):
        TraversalSpec(waist_w=0.6, alpha=1.0, tau=-1.0)
    with pytest.raises(ValueError):
        TraversalSpec(waist_w=0.6, alpha=0.0, tau=1.0)


@pytest.mark.parametrize("field", ["waist_w", "alpha", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_traversal_spec_refuses_values_that_are_not_finite(field, value):
    # nan, inf and -inf would give r = nan, 0 or inf
    fields = {"waist_w": 0.6, "alpha": 1.0, "tau": 2e-4, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        TraversalSpec(**fields)


@pytest.mark.parametrize("tau", [math.nan, math.inf], ids=str)
def test_flat_profile_and_fit_refuse_a_tau_that_is_not_finite(tau):
    # the fit blames tau, not target_r, whose interval tau sets
    with pytest.raises(ValueError, match="explicit positive, finite tau"):
        profile_squeezing_factor(degenerate_params(), tau=tau)
    with pytest.raises(ValueError, match="explicit positive, finite tau"):
        fit_traversal_alpha(degenerate_params(), 0.6, tau, 0.5)


@pytest.mark.parametrize("waist_w", [math.nan, math.inf], ids=str)
def test_fit_refuses_a_waist_that_is_not_finite(waist_w):
    with pytest.raises(ValueError, match="^waist_w must be positive and finite"):
        fit_traversal_alpha(degenerate_params(), waist_w, 2e-4, 0.5)


def degenerate_params():
    return PhysicalParams(LAM, LAM, OMEGA, DELTA, 0.0, ProcessKind.DEGENERATE_PDC)


def test_flat_profile_squeezing_factor():
    r = profile_squeezing_factor(degenerate_params(), tau=2e-4)
    assert r == pytest.approx(1.372, abs=1e-12)


def closed_form_r(alpha, tau):
    # independent oracle: the profile integral has the closed form
    # 2 |xi| tau * sqrt(pi) erf(alpha / sqrt 2) / (sqrt 2 alpha)
    xi_abs = OMEGA * LAM * LAM / DELTA**2
    return 2.0 * xi_abs * tau * math.sqrt(math.pi) * erf(alpha / math.sqrt(2)) / (math.sqrt(2) * alpha)


def bisect_alpha(target, tau):
    lo, hi = 1e-3, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if closed_form_r(mid, tau) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# targets across the bracket, the first and last at alpha just inside its ends
FIT_TARGETS = [closed_form_r(1.001e-3, 2e-4), 1.3, 1.0, 0.51, 0.1, closed_form_r(49.99, 2e-4)]


@pytest.mark.parametrize("target", FIT_TARGETS,
                         ids=["alpha_1.001e-3", "1.3", "1.0", "0.51", "0.1", "alpha_49.99"])
def test_fitted_alpha_against_closed_form_oracle(target):
    params = degenerate_params()
    alpha = fit_traversal_alpha(params, 0.6, 2e-4, target)
    oracle = bisect_alpha(target, 2e-4)
    assert alpha == pytest.approx(oracle, abs=1e-11)
    spec = TraversalSpec(waist_w=0.6, alpha=alpha, tau=2e-4)
    # the fit bisects the closed form the library evaluates: it gives the
    # target back to within its rounding (brentq left 0.51 at 0.5100000000000008)
    assert abs(profile_squeezing_factor(params, spec) - target) <= 2 * math.ulp(target)


def test_default_fit_scale():
    alpha = fit_traversal_alpha(degenerate_params(), 0.6, 2e-4, 0.51)
    assert alpha == pytest.approx(3.4, abs=0.05)   # expected scale of the fit


@pytest.mark.parametrize("target", [0.01, 1.3719999], ids=["below_reach", "above_reach"])
def test_target_out_of_the_brackets_reach_names_the_reachable_interval(target):
    # inside (0, flat) = (0, 1.372) but outside [r(50), r(1e-3)]
    with pytest.raises(ValueError, match=r"must lie in \[0\.0343\d*, 1\.3719997\d*\]"):
        fit_traversal_alpha(degenerate_params(), 0.6, 2e-4, target)


def test_profile_consistency_at_longer_crossing():
    params = degenerate_params()
    alpha = fit_traversal_alpha(params, 0.6, 2e-4, 0.51)
    spec = TraversalSpec(waist_w=0.6, alpha=alpha, tau=5.32e-4)
    r = profile_squeezing_factor(params, spec)
    assert r == pytest.approx(1.36, abs=0.01)
    assert r == pytest.approx(closed_form_r(alpha, 5.32e-4), abs=1e-9)


def test_quadrature_matches_closed_form_across_alphas():
    params = degenerate_params()
    for alpha in (0.5, 2.0, 3.37, 10.0):
        spec = TraversalSpec(waist_w=0.6, alpha=alpha, tau=2e-4)
        assert profile_squeezing_factor(params, spec) == pytest.approx(
            closed_form_r(alpha, 2e-4), abs=1e-9
        )
