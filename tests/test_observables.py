import math

import numpy as np
import pytest

from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    effective_xi,
    reduced_bilinear_generator,
    resonance_delta,
)
from cavityconv.hilbert import (
    expectation,
    field_space,
    fock_state,
    make_space,
    number_operator,
    vacuum_state,
)
from cavityconv.observables import (
    TmsvSpec,
    bell_state,
    bell_state_fidelity,
    epr_metrics,
    fidelity,
    photon_number_distribution,
    quadrature_operator,
    squeezed_variance,
    squeezing_fraction,
    tmsv_analytic,
    tmsv_quality,
    tmsv_tail_mass,
)
from cavityconv.propagate import evolve_static, evolve_td
from cavityconv.hamiltonians import TimeDependentOperator

LAM = 7e5


def pair_params():
    base = PhysicalParams(-1j * LAM, LAM, LAM, 1e7, 0.0, ProcessKind.PDC)
    return PhysicalParams(-1j * LAM, LAM, LAM, 1e7, resonance_delta(base), ProcessKind.PDC)


def evolved_pair_state(r, n_max=40):
    params = pair_params()
    space = field_space(n_max, n_max)
    tau = r / abs(effective_xi(params))
    gen = reduced_bilinear_generator(space, params)
    return evolve_static(gen, vacuum_state(space), tau), space


# --- quadratures ----------------------------------------------------------------

def test_vacuum_quadrature_variance_is_quarter():
    space = field_space(5, 5)
    for mode in ("a", "b"):
        for kind in ("x", "p"):
            q = quadrature_operator(space, mode, kind)
            assert expectation(q @ q, vacuum_state(space)).real == pytest.approx(0.25)


def test_quadrature_commutator_on_untruncated_rows():
    space = field_space(6, 3)
    x = quadrature_operator(space, "a", "x")
    p = quadrature_operator(space, "a", "p")
    comm = (x @ p - p @ x).to_dense()
    n_a, _ = space.fock_numbers()
    rows = n_a < space.n_max_a
    target = 0.5j * np.eye(space.total_dim)
    assert np.allclose(comm[rows], target[rows], atol=1e-14)


def test_quadrature_mean_vanishes_on_fock_states():
    space = field_space(4, 4)
    for n in range(5):
        psi = fock_state(space, n, 0)
        assert abs(expectation(quadrature_operator(space, "a", "x"), psi)) < 1e-14
        assert abs(expectation(quadrature_operator(space, "a", "p"), psi)) < 1e-14


# --- EPR metrics -----------------------------------------------------------------

def test_epr_metrics_on_separable_vacuum():
    m = epr_metrics(vacuum_state(field_space(4, 4)))
    assert m.var_x_minus + m.var_p_plus == pytest.approx(1.0)
    assert m.quality == pytest.approx(0.0)


def test_epr_metrics_rejects_atomic_state():
    from cavityconv.hilbert import basis_state

    with pytest.raises(ValueError):
        epr_metrics(basis_state(make_space(3, 1, 1), "g", 0, 0))


def test_quality_values_at_paper_interaction_strengths():
    assert tmsv_quality(0.68) == pytest.approx(0.74, abs=0.01)
    assert tmsv_quality(2.0) == pytest.approx(0.98, abs=0.01)


def test_quality_duality_on_ideal_pair_state():
    space = field_space(40, 40)
    for r in (0.3, 0.686, 1.1):
        state = tmsv_analytic(TmsvSpec(squeeze_param=r), space)
        operational = epr_metrics(state).quality
        assert operational == pytest.approx(tmsv_quality(r), abs=1e-7)


# --- analytic pair state -----------------------------------------------------------

def test_tmsv_zero_squeezing_is_vacuum():
    space = field_space(5, 5)
    state = tmsv_analytic(TmsvSpec(squeeze_param=0.0), space)
    assert fidelity(state, vacuum_state(space)) == pytest.approx(1.0)


def test_tmsv_vacuum_amplitude_closed_form():
    space = field_space(40, 40)
    state = tmsv_analytic(TmsvSpec(squeeze_param=0.68), space)
    p00 = abs(vacuum_state(space).inner(state)) ** 2
    assert p00 == pytest.approx(1.0 / math.cosh(0.68) ** 2, abs=1e-12)


def test_tmsv_is_diagonal_in_pair_basis():
    space = field_space(6, 6)
    state = tmsv_analytic(TmsvSpec(squeeze_param=0.9), space)
    for n in range(7):
        for m in range(7):
            amp = state.amplitudes[space.flatten(0, n, m)]
            if n != m:
                assert amp == 0.0


def test_tmsv_large_squeezing_stays_finite():
    # cosh r overflows a float near r = 710; the renormalization sets the scale
    space = field_space(6, 6)
    state = tmsv_analytic(TmsvSpec(squeeze_param=800.0), space)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    diag = np.array([state.amplitudes[space.flatten(0, n, n)] for n in range(7)])
    assert np.all(diag.imag == 0.0)
    assert np.all(diag.real >= 0.0)
    assert np.all(np.diff(diag.real) <= 0.0)


def test_tmsv_tail_mass_closed_form():
    spec = TmsvSpec(squeeze_param=0.68, n_max=20)
    assert tmsv_tail_mass(spec) == pytest.approx(math.tanh(0.68) ** 42)
    assert tmsv_tail_mass(spec) < 1e-8


def test_tmsv_truncation_exceeding_space_rejected():
    with pytest.raises(ValueError):
        tmsv_analytic(TmsvSpec(squeeze_param=0.5, n_max=10), field_space(5, 5))
    with pytest.raises(ValueError):
        tmsv_tail_mass(TmsvSpec(squeeze_param=0.5))


def test_tmsv_evolution_oracle():
    # the module's central consistency check: propagating vacuum with the
    # pair generator reproduces the analytic expansion
    state, space = evolved_pair_state(0.686)
    spec = TmsvSpec(squeeze_param=0.686, phase=-math.pi / 2)
    assert tmsv_tail_mass(spec, 40) < 1e-10
    analytic = tmsv_analytic(spec, space)
    assert fidelity(analytic, state) >= 1.0 - 1e-8


def test_tmsv_phase_convention_matches_evolution():
    # a different coupling phase shows up in the |n,n> coefficients
    base = PhysicalParams(LAM, LAM, LAM, 1e7, 0.0, ProcessKind.PDC)
    params = PhysicalParams(LAM, LAM, LAM, 1e7, resonance_delta(base), ProcessKind.PDC)
    space = field_space(25, 25)
    r = 0.5
    tau = r / abs(effective_xi(params))
    evolved = evolve_static(reduced_bilinear_generator(space, params), vacuum_state(space), tau)
    spec = TmsvSpec(squeeze_param=r, phase=0.0)  # arg xi = 0 here
    assert fidelity(tmsv_analytic(spec, space), evolved) >= 1.0 - 1e-8
    wrong = TmsvSpec(squeeze_param=r, phase=-math.pi / 2)
    assert fidelity(tmsv_analytic(wrong, space), evolved) < 0.9


def test_variance_identity_on_evolved_state():
    state, _ = evolved_pair_state(0.686)
    m = epr_metrics(state)
    expected = math.exp(-2 * 0.686) / 2.0
    tail = tmsv_tail_mass(TmsvSpec(squeeze_param=0.686), 40)
    assert abs(m.var_x_minus - expected) < 1e-7 + tail
    assert abs(m.var_p_plus - expected) < 1e-7 + tail


# --- squeezing numbers --------------------------------------------------------------

def test_squeezed_variance_values():
    assert squeezed_variance(1.36) == pytest.approx(1.64e-2, abs=2e-4)
    assert squeezing_fraction(1.36) >= 0.93
    assert squeezed_variance(0.0) == pytest.approx(0.25)
    assert squeezed_variance(0.51) == pytest.approx(9.0e-2, abs=2e-3)


# --- fidelity -----------------------------------------------------------------------

def test_fidelity_limits():
    space = field_space(10, 10)
    psi = tmsv_analytic(TmsvSpec(squeeze_param=0.4), space)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(fock_state(space, 1, 0), fock_state(space, 0, 1)) == 0.0


def test_fidelity_tmsv_vs_vacuum_closed_form():
    space = field_space(40, 40)
    psi = tmsv_analytic(TmsvSpec(squeeze_param=0.68), space)
    assert fidelity(psi, vacuum_state(space)) == pytest.approx(
        1.0 / math.cosh(0.68) ** 2, abs=1e-12
    )


# --- photon statistics ----------------------------------------------------------------

def test_photon_distribution_vacuum():
    dist = photon_number_distribution(vacuum_state(field_space(4, 4)), "a")
    assert dist[0] == pytest.approx(1.0)
    assert np.all(dist[1:] == 0.0)


def test_photon_distribution_tmsv_geometric():
    space = field_space(30, 30)
    r = 0.8
    state = tmsv_analytic(TmsvSpec(squeeze_param=r), space)
    dist_a = photon_number_distribution(state, "a")
    dist_b = photon_number_distribution(state, "b")
    assert abs(dist_a.sum() - 1.0) < 1e-9
    assert np.allclose(dist_a, dist_b, atol=1e-14)
    expected = np.tanh(r) ** (2 * np.arange(31)) / np.cosh(r) ** 2
    # renormalized truncation: compare shape on the first levels
    assert np.allclose(dist_a[:10], expected[:10] / (1 - math.tanh(r) ** 62), atol=1e-10)


# --- Bell states -----------------------------------------------------------------------

def test_bell_state_fidelities():
    space = field_space(2, 2)
    psi_plus = bell_state(space, "psi+")
    assert bell_state_fidelity(psi_plus, "psi+") == pytest.approx(1.0)
    assert bell_state_fidelity(fock_state(space, 1, 0), "psi+") == pytest.approx(0.5)
    assert bell_state_fidelity(bell_state(space, "phi+"), "psi+") == 0.0
    with pytest.raises(ValueError):
        bell_state(space, "omega+")


# --- conservation laws under the bilinear generators -------------------------------------

def test_beam_splitter_conserves_total_photon_number():
    params = PhysicalParams(LAM, LAM, LAM, 1e7, 0.0, ProcessKind.PUC)
    space = field_space(6, 6)
    gen = reduced_bilinear_generator(space, params)
    n_total = number_operator(space, "a") + number_operator(space, "b")
    traj = evolve_td(
        TimeDependentOperator(gen),
        fock_state(space, 2, 1),
        np.linspace(0.0, 5e-4, 11),
        observables={"n": n_total},
    )
    values = traj.expectations["n"].real
    assert np.max(np.abs(values - values[0])) < 1e-9 * abs(values[0])


def test_pair_generator_conserves_photon_number_difference():
    params = pair_params()
    space = field_space(30, 30)
    gen = reduced_bilinear_generator(space, params)
    diff = number_operator(space, "a") - number_operator(space, "b")
    traj = evolve_td(
        TimeDependentOperator(gen),
        vacuum_state(space),
        np.linspace(0.0, 2e-4, 9),
        observables={"d": diff},
    )
    assert np.max(np.abs(traj.expectations["d"].real)) < 1e-9
