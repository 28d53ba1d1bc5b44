import cmath
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
    Operator,
    SpaceMismatchError,
    StateVector,
    field_space,
    fock_state,
    make_space,
    vacuum_state,
)
from cavityconv.observables import (
    TmsvSpec,
    _tmsv_support,
    bell_state,
    bell_state_fidelity,
    epr_metrics,
    fidelity,
    mean_photon_number,
    photon_number_distribution,
    quadrature_variances,
    squeezed_variance,
    tmsv_analytic,
    tmsv_quality,
    tmsv_tail_mass,
    vacuum_probability,
)
from cavityconv.propagate import evolve_static
from cavityconv.scenarios import _evolved_vacuum, resolve_config
from oracles import (
    expectation,
    identity_operator,
    ladder,
    number_operator,
    quadrature_operator,
    random_state,
)

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


ORACLE_SPACES = [field_space(0, 0), field_space(0, 3), field_space(3, 0), field_space(6, 4)]


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=str)
def test_epr_metrics_match_sparse_quadrature_oracle(space):
    x_minus = quadrature_operator(space, "a", "x") - quadrature_operator(space, "b", "x")
    p_plus = quadrature_operator(space, "a", "p") + quadrature_operator(space, "b", "p")
    for seed in range(3):
        psi = random_state(space, seed)
        m = epr_metrics(psi)
        assert m.var_x_minus == pytest.approx(expectation(x_minus @ x_minus, psi).real, abs=1e-13)
        assert m.var_p_plus == pytest.approx(expectation(p_plus @ p_plus, psi).real, abs=1e-13)
        assert m.quality == 1.0 - (m.var_x_minus + m.var_p_plus)


@pytest.mark.parametrize("space", ORACLE_SPACES + [make_space(3, 0, 3), make_space(3, 3, 0),
                                                   make_space(3, 5, 2)], ids=str)
def test_quadrature_variances_match_sparse_oracle(space):
    for seed, mode in enumerate("ab"):
        psi = random_state(space, seed)
        x, p = (quadrature_operator(space, mode, kind) for kind in "xp")
        var_x, var_p = quadrature_variances(psi, mode)
        assert var_x == pytest.approx(expectation(x @ x, psi).real, abs=1e-13)
        assert var_p == pytest.approx(expectation(p @ p, psi).real, abs=1e-13)


def test_variances_build_no_full_space_operator(monkeypatch):
    psi = random_state(field_space(8, 8), 0)
    built = []
    real_init = Operator.__init__
    monkeypatch.setattr(Operator, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    epr_metrics(psi)
    quadrature_variances(psi, "a")
    assert built == []
    identity_operator(psi.space)  # the counter sees an operator that is built
    assert len(built) == 1


# --- support observables against the full-space oracle ------------------------------

# lopsided truncations, a one-level mode b and a one-level mode a
SUPPORT_SPACES = [field_space(6, 4), field_space(2, 9), field_space(7, 0), field_space(0, 5),
                  field_space(1, 1)]


def random_support(space, seed):
    """A sorted random support (space, keep, amps) holding half the space and
    every other state at the top truncation edge of either mode."""
    rng = np.random.default_rng(seed)
    n_a, n_b = space.fock_numbers()
    edge = np.flatnonzero((n_a == space.n_max_a) | (n_b == space.n_max_b))[::2]
    keep = np.union1d(rng.choice(space.total_dim, (space.total_dim + 1) // 2, replace=False), edge)
    amps = rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size)
    return space, keep, amps / np.linalg.norm(amps)


def full_state(support):
    space, keep, amps = support
    psi = np.zeros(space.total_dim, dtype=np.complex128)
    psi[keep] = amps
    return StateVector(space, psi)


def oracle_variances(state, modes, signs):
    """||sum_j s_j L_j psi||^2 / 4 from full-space shifts of the amplitude array."""
    shifts = [shift for mode in modes for shift in ladder(state, mode)]
    doubled = [sum(s * shift for s, shift in zip(row, shifts)) for row in signs]
    return np.array([0.25 * float(np.vdot(d, d).real) for d in doubled])


EPR_SIGNS = [(1, 1, -1, -1), (1, -1, 1, -1)]


def assert_matches(got, want):
    # the indexed updates rebuild the full-space vector, bit for bit
    np.testing.assert_array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float))


@pytest.mark.parametrize("space", SUPPORT_SPACES + [make_space(3, 3, 2)], ids=str)
def test_support_variances_match_the_full_space_oracle(space):
    for seed in range(4):
        support = random_support(space, seed)
        state = full_state(support)
        for mode in "ab":
            want = oracle_variances(state, mode, [(1, 1), (1, -1)])
            assert_matches(quadrature_variances(support, mode), want)
            assert_matches(quadrature_variances(state, mode), want)
        if space.atom_levels == 1:
            want = oracle_variances(state, "ab", EPR_SIGNS)
            for m in (epr_metrics(support), epr_metrics(state)):
                assert_matches((m.var_x_minus, m.var_p_plus), want)


@pytest.mark.parametrize("space", SUPPORT_SPACES + [make_space(3, 3, 2)], ids=str)
def test_support_photon_statistics_and_overlaps_match_the_full_space_oracle(space):
    for seed in range(4):
        support, other = random_support(space, seed), random_support(space, seed + 10)
        state = full_state(support)
        probs = np.abs(state.amplitudes.reshape(space.shape)) ** 2
        for axis, mode in ((1, "a"), (2, "b")):
            want = probs.sum(axis=(0, 3 - axis))
            for given in (support, state):
                dist = photon_number_distribution(given, mode)
                assert dist.shape == want.shape
                assert np.all(np.abs(dist - want) <= 1e-15 * want)
                assert mean_photon_number(given, mode) == pytest.approx(
                    float(np.arange(want.size) @ want), rel=1e-15, abs=0.0)
        assert vacuum_probability(support) == vacuum_probability(state) == probs.flat[0]
        want = abs(np.vdot(state.amplitudes, full_state(other).amplitudes)) ** 2
        for pair in ((support, other), (state, full_state(other)), (support, full_state(other))):
            assert fidelity(*pair) == pytest.approx(want, rel=0.0, abs=1e-15)
    with pytest.raises(SpaceMismatchError):
        fidelity(support, vacuum_state(field_space(space.n_max_a + 1, space.n_max_b)))
    for observable in (quadrature_variances, photon_number_distribution):
        with pytest.raises(ValueError, match="mode"):
            observable(support, "c")


def test_pair_chain_at_800_matches_the_full_space_oracle():
    cfg = resolve_config({"scenario": "pdc_epr", "truncation": [800, 800]})
    support = _evolved_vacuum(cfg)
    space, keep, _ = support
    assert keep.size == 801
    state = full_state(support)
    m = epr_metrics(support)
    assert_matches((m.var_x_minus, m.var_p_plus), oracle_variances(state, "ab", EPR_SIGNS))
    xi = effective_xi(cfg.params)
    spec = TmsvSpec(squeeze_param=abs(xi) * cfg.times[-1], phase=cmath.phase(xi))
    want = abs(np.vdot(tmsv_analytic(spec, space).amplitudes, state.amplitudes)) ** 2
    assert fidelity(_tmsv_support(spec, space), support) == pytest.approx(want, rel=0.0, abs=1e-15)
    # one nonzero per photon number: the marginals are the full-space sums exactly
    probs = np.abs(state.amplitudes.reshape(space.shape)) ** 2
    for axis, mode in ((1, "a"), (2, "b")):
        want = probs.sum(axis=(0, 3 - axis))
        np.testing.assert_array_equal(photon_number_distribution(support, mode), want)
        assert mean_photon_number(support, mode) == float(np.arange(want.size) @ want)
    assert vacuum_probability(support) == probs.flat[0]


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
    p00 = abs(state.amplitudes[space.flatten(0, 0, 0)]) ** 2
    assert p00 == pytest.approx(1.0 / math.cosh(0.68) ** 2, abs=1e-12)


def test_tmsv_is_diagonal_in_pair_basis():
    space = field_space(6, 6)
    state = tmsv_analytic(TmsvSpec(squeeze_param=0.9), space)
    for n in range(7):
        for m in range(7):
            amp = state.amplitudes[space.flatten(0, n, m)]
            if n != m:
                assert amp == 0.0


def test_tmsv_spec_refuses_a_nan_squeeze_param():
    # inf is kept: the epr_quality scenario builds it and refuses tanh r = 1 itself
    with pytest.raises(ValueError, match="^squeeze_param must be non-negative, got nan"):
        TmsvSpec(squeeze_param=math.nan)
    with pytest.raises(ValueError, match="^squeeze_param must be non-negative"):
        TmsvSpec(squeeze_param=-0.1)
    assert tmsv_tail_mass(TmsvSpec(squeeze_param=math.inf), 4) == 1.0


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
    spec = TmsvSpec(squeeze_param=0.68)
    assert tmsv_tail_mass(spec, 20) == pytest.approx(math.tanh(0.68) ** 42)
    assert tmsv_tail_mass(spec, 20) < 1e-8


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
    assert tmsv_quality(1.36) >= 0.93  # the noise reduction below vacuum, 1 - e^{-2r}
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
    states = [evolve_static(gen, fock_state(space, 2, 1), t) for t in np.linspace(0.0, 5e-4, 11)]
    values = np.array([expectation(n_total, s).real for s in states])
    assert np.max(np.abs(values - values[0])) < 1e-9 * abs(values[0])


def test_pair_generator_conserves_photon_number_difference():
    params = pair_params()
    space = field_space(30, 30)
    gen = reduced_bilinear_generator(space, params)
    diff = number_operator(space, "a") - number_operator(space, "b")
    states = [evolve_static(gen, vacuum_state(space), t) for t in np.linspace(0.0, 2e-4, 9)]
    assert max(abs(expectation(diff, s).real) for s in states) < 1e-9
