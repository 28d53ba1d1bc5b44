import math

import numpy as np
import pytest
import scipy.linalg

from cavityconv import tomography
from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    effective_xi,
    reduced_bilinear_generator,
    resonance_delta,
)
from cavityconv.hilbert import (
    StateVector,
    field_space,
    fock_state,
    make_space,
    vacuum_state,
)
from cavityconv.observables import (
    TmsvSpec,
    fidelity,
    photon_number_distribution,
    tmsv_analytic,
)
from cavityconv.propagate import evolve_static
from cavityconv.scenarios import run_scenario
from cavityconv.tomography import (
    TAIL_LIMIT,
    PhaseSpaceGrid,
    TruncationError,
    _mode_displacements,
    _scan,
    _separable_readout,
    displace,
    parity_pulse_time,
    probe_protocol,
    wigner_direct,
    wigner_via_protocol,
)
from oracles import (
    annihilation,
    conditional_phase_expectation,
    expectation,
    parity_operator,
    quadrature_operator,
    separable_readout_by_rows,
    separable_readout_full,
)

TWO_MODE_NORM = 4.0 / math.pi**2


def random_field_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def tmsv_068(n_max=30):
    space = field_space(n_max, n_max)
    return tmsv_analytic(TmsvSpec(squeeze_param=0.68), space), space


# --- displacement ------------------------------------------------------------------

def test_zero_displacement_is_identity():
    space = field_space(5, 5)
    psi = random_field_state(space, 0)
    out = displace(psi, 0.0, 0.0)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_displaced_vacuum_is_poissonian():
    from scipy.special import gammaln

    space = field_space(25, 0)
    eta = 0.9 - 0.4j
    out = displace(vacuum_state(space), eta, 0.0)
    dist = photon_number_distribution(out, "a")
    mean = abs(eta) ** 2
    n = np.arange(dist.size)
    expected = np.exp(-mean + n * math.log(mean) - gammaln(n + 1))
    assert np.allclose(dist, expected, atol=1e-10)


def test_displace_then_inverse_recovers_state():
    space = field_space(25, 25)
    psi, _ = tmsv_068(25)
    eta_a, eta_b = 0.5 + 0.2j, -0.3 + 0.4j
    back = displace(displace(psi, eta_a, eta_b), -eta_a, -eta_b)
    assert fidelity(back, psi) >= 1.0 - 1e-9


def test_displacement_preserves_norm():
    space = field_space(20, 20)
    psi = tmsv_analytic(TmsvSpec(squeeze_param=0.4), space)
    out = displace(psi, 0.4, 0.3j)
    assert abs(out.norm() - 1.0) < 1e-12


def test_displacing_single_level_mode_rejected():
    space = field_space(10, 0)
    with pytest.raises(TruncationError):
        displace(vacuum_state(space), 0.0, 0.5)


def test_displacement_truncation_overflow():
    space = field_space(6, 6)
    with pytest.raises(TruncationError):
        displace(vacuum_state(space), 3.0, 0.0)


def damped_random_state(space, seed):
    # random amplitudes damped by 0.02^(n_a + n_b) on every atomic level, so
    # small displacements leave less than TAIL_LIMIT at the truncation edge
    rng = np.random.default_rng(seed)
    n_a, n_b = space.fock_numbers()
    amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    amps *= 0.02 ** (n_a + n_b)
    return StateVector(space, amps / np.linalg.norm(amps))


def full_space_displacement(space, eta_a, eta_b):
    # independent oracle: dense exponential of the full-space generator
    generator = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for mode, eta in (("a", eta_a), ("b", eta_b)):
        low = annihilation(space, mode).to_dense()
        generator += np.conj(eta) * low - eta * low.conj().T
    return scipy.linalg.expm(generator)


@pytest.mark.parametrize("space", [field_space(6, 5), make_space(3, 4, 3)],
                         ids=["field", "three_level"])
@pytest.mark.parametrize("eta_a, eta_b", [
    (0.05 - 0.03j, 0.0),
    (0.0, -0.024 + 0.018j),
    (0.04 + 0.02j, 0.018 - 0.024j),
])
def test_displace_matches_dense_full_space_oracle(space, eta_a, eta_b):
    psi = damped_random_state(space, 3)
    expected = full_space_displacement(space, eta_a, eta_b) @ psi.amplitudes
    out = displace(psi, eta_a, eta_b)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


QUADRANT_ETAS = [0.7 + 0.4j, -0.5 + 0.9j, -0.8 - 0.3j, 0.2 - 1.1j, 0.6, -0.6, 0.6j, -0.6j]


@pytest.mark.parametrize("n_max", [1, 6, 30])
def test_mode_displacement_matches_dense_exponential(n_max):
    low = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    etas = np.array([0.0, *QUADRANT_ETAS])
    matrices = _mode_displacements(n_max, etas, "a")
    assert np.array_equal(matrices[0], np.eye(n_max + 1))
    for eta, matrix in zip(etas[1:], matrices[1:]):
        expected = scipy.linalg.expm(np.conj(eta) * low - eta * low.T)
        assert np.max(np.abs(matrix - expected)) < 1e-12


def test_mode_displacement_of_single_level_mode():
    assert np.array_equal(_mode_displacements(0, np.array([0.0]), "b"), np.ones((1, 1, 1)))
    with pytest.raises(TruncationError, match="mode b holds a single Fock level"):
        _mode_displacements(0, np.array([0.0, 0.3j]), "b")


def test_displacing_single_level_mode_rejected_with_atom():
    space = make_space(3, 4, 0)
    psi = damped_random_state(space, 5)
    with pytest.raises(TruncationError, match="single Fock level"):
        displace(psi, 0.0, 0.1)
    # the other mode of the same space still displaces
    displace(psi, 0.1, 0.0)


# --- probe sequence -----------------------------------------------------------------

def test_probe_closed_form_equivalence_on_random_states():
    space = field_space(6, 5)
    rng = np.random.default_rng(21)
    for seed in range(6):
        psi = random_field_state(space, seed)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        outcome = probe_protocol(psi, phi)
        chi = conditional_phase_expectation(psi, phi)
        assert outcome.p_i == pytest.approx((1.0 + chi.real) / 2.0, abs=1e-12)
        assert outcome.p_f == pytest.approx((1.0 - chi.real) / 2.0, abs=1e-12)
        assert outcome.p_i + outcome.p_f == pytest.approx(1.0, abs=1e-12)
        assert abs(outcome.signal) <= 1.0 + 1e-12


def test_probe_at_zero_phase_always_detects_i():
    psi = random_field_state(field_space(4, 4), 9)
    outcome = probe_protocol(psi, 0.0)
    assert outcome.p_i == pytest.approx(1.0)
    assert outcome.p_f == pytest.approx(0.0)


def test_probe_parity_signals():
    space = field_space(3, 3)
    vac = probe_protocol(vacuum_state(space), math.pi)
    assert vac.signal == pytest.approx(-1.0)
    one = probe_protocol(fock_state(space, 1, 0), math.pi)
    assert one.signal == pytest.approx(+1.0)


def test_signal_is_minus_parity_at_pi():
    space = field_space(5, 4)
    parity = parity_operator(space)
    for seed in range(4):
        psi = random_field_state(space, 40 + seed)
        outcome = probe_protocol(psi, math.pi)
        assert outcome.signal == pytest.approx(
            -expectation(parity, psi).real, abs=1e-12
        )


def test_parity_pulse_time_value():
    assert parity_pulse_time(7e5, 1e7) == pytest.approx(math.pi * 1e7 / 4.9e11)


# --- Wigner values -------------------------------------------------------------------

def test_wigner_vacuum_at_origin():
    space = field_space(8, 8)
    w = wigner_direct(vacuum_state(space), PhaseSpaceGrid(((0.0, 0.0),)))
    assert w[0] == pytest.approx(TWO_MODE_NORM, abs=1e-12)


def test_wigner_single_mode_fock_negativity():
    # |1> in mode a, b in vacuum: the two-mode value at the origin is -4/pi^2
    # (pi/2 of it is the single-mode value -2/pi)
    space = field_space(8, 0)
    w = wigner_direct(fock_state(space, 1, 0), PhaseSpaceGrid(((0.0, 0.0),)))
    assert w[0] == pytest.approx(-TWO_MODE_NORM, abs=1e-12)


def test_wigner_tmsv_origin_matches_gaussian_oracle():
    # independent oracle: for a pure Gaussian state W(0) = 1/(4 pi^2 sqrt(det S))
    # with S the 4x4 quadrature covariance matrix
    psi, space = tmsv_068(30)
    ops = [
        quadrature_operator(space, "a", "x"),
        quadrature_operator(space, "a", "p"),
        quadrature_operator(space, "b", "x"),
        quadrature_operator(space, "b", "p"),
    ]
    cov = np.empty((4, 4))
    for i, qi in enumerate(ops):
        for j, qj in enumerate(ops):
            sym = 0.5 * (qi @ qj + qj @ qi)
            cov[i, j] = expectation(sym, psi).real
    oracle = 1.0 / (4.0 * math.pi**2 * math.sqrt(np.linalg.det(cov)))
    w = wigner_direct(psi, PhaseSpaceGrid(((0.0, 0.0),)))
    assert w[0] == pytest.approx(oracle, abs=1e-9)
    assert w[0] == pytest.approx(TWO_MODE_NORM, abs=1e-9)


def test_protocol_equals_direct_on_grid():
    axis = np.linspace(-1.0, 1.0, 5)
    grid = PhaseSpaceGrid.two_mode_real(axis, axis)
    space = field_space(30, 30)
    states = [
        vacuum_state(space),
        fock_state(space, 1, 0),
        tmsv_analytic(TmsvSpec(squeeze_param=0.68), space),
    ]
    for psi in states:
        w_direct = wigner_direct(psi, grid)
        w_proto, signal = wigner_via_protocol(psi, grid)
        assert np.max(np.abs(w_proto - w_direct)) < 1e-9
        assert np.allclose(signal, -w_direct / TWO_MODE_NORM, atol=1e-9)


@pytest.mark.parametrize("grid_points", [5, 4])
def test_one_scan_readout_gives_both_scans_bit_for_bit(grid_points):
    axis = np.linspace(-0.8, 0.8, grid_points)
    space = field_space(30, 30)
    for psi in (vacuum_state(space), tmsv_analytic(TmsvSpec(squeeze_param=0.68), space),
                damped_random_state(field_space(24, 20), 3)):
        grid = PhaseSpaceGrid((*PhaseSpaceGrid.two_mode_real(axis, axis).points, (0.0, 0.0)))
        direct, w, signal = _scan(psi, grid.points)
        np.testing.assert_array_equal(direct, wigner_direct(psi, grid))
        w_proto, signal_proto = wigner_via_protocol(psi, grid)
        np.testing.assert_array_equal(w, w_proto)
        np.testing.assert_array_equal(signal, signal_proto)
        # the origin read off the scan and on its own differ in the summation order only
        origin = wigner_direct(psi, PhaseSpaceGrid(((0.0, 0.0),)))[0]
        assert direct[-1] == pytest.approx(origin, rel=0.0, abs=1e-15)


SCAN_WEIGHTS = [lambda n: (-1.0) ** n, np.ones_like, lambda n: np.exp(1j * math.pi * n)]


def scan_states(space):
    return (vacuum_state(space), fock_state(space, 1, 0),
            tmsv_analytic(TmsvSpec(squeeze_param=0.68), space))


@pytest.mark.parametrize("truncation", [(30, 30), (34, 34), (30, 26)])
@pytest.mark.parametrize("grid_points", [4, 5, 8, 9])
def test_batched_readout_equals_the_row_loop_bit_for_bit_on_cartesian_grids(truncation,
                                                                            grid_points):
    axis = np.linspace(-1.0, 1.0, grid_points)
    points = PhaseSpaceGrid.two_mode_real(axis, axis).points
    for psi in scan_states(field_space(*truncation)):
        got = _separable_readout(psi, points, SCAN_WEIGHTS)
        want = separable_readout_by_rows(psi, points, SCAN_WEIGHTS)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_SCATTERED = np.random.default_rng(23).uniform(-0.6, 0.6, (2, 30, 2)) @ [1.0, 1j]
NON_PRODUCT_POINTS = {
    "diagonal": tuple((x, 0.7 * x) for x in np.linspace(-0.9, 0.9, 41)),
    "complex": tuple(zip(*_SCATTERED)),
    "repeated": ((0.3, 0.3), (0.3, 0.3), (-0.2j, 0.3), (0.0, 0.0), (0.3, -0.2j), (0.3, 0.3)),
    "origin": ((0.0, 0.0),),
}


@pytest.mark.parametrize("points", list(NON_PRODUCT_POINTS.values()), ids=list(NON_PRODUCT_POINTS))
def test_batched_readout_equals_the_row_loop_on_non_product_points(points):
    # a row of the loop multiplies only the E's it needs, the table all of
    # them; with another matrix shape BLAS may sum an entry's (n_max_b+1)^2
    # terms in another order, a few ulp of the readout (<= 1) apart
    for psi in scan_states(field_space(30, 30)):
        got = _separable_readout(psi, points, SCAN_WEIGHTS)
        want = separable_readout_by_rows(psi, points, SCAN_WEIGHTS)
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps


def support_state(space, cells, seed=7):
    # random amplitudes on the given (level, n_a, n_b) cells alone
    rng = np.random.default_rng(seed)
    amps = np.zeros(space.shape, dtype=complex)
    for cell in cells:
        amps[cell] = rng.normal() + 1j * rng.normal()
    norm = np.linalg.norm(amps)
    return StateVector(space, amps / norm if norm else amps)


SUPPORT_CASES = {
    "fock_3_2": (field_space(20, 20), [(0, 3, 2)]),
    "fock_0_5": (field_space(16, 16), [(0, 0, 5)]),
    "gapped": (field_space(24, 24), [(0, 0, 0), (0, 2, 5), (0, 7, 1), (0, 3, 5), (0, 7, 9)]),
    "gapped_swapped_support": (field_space(20, 20), [(0, 1, 0), (0, 3, 2), (0, 3, 4)]),
    "lopsided": (field_space(16, 26), [(0, 1, 0), (0, 4, 3), (0, 0, 6)]),
    "three_level": (make_space(3, 16, 18), [(0, 0, 1), (1, 2, 0), (2, 5, 4), (1, 0, 3)]),
    "level_two_only": (make_space(3, 18, 14), [(2, 1, 0), (2, 4, 2)]),
    "zero": (field_space(12, 12), []),
}
SUPPORT_AXIS = np.linspace(-0.5, 0.5, 5)
SUPPORT_POINTS = {
    # the same etas on both modes, so mode b may reuse mode a's displacements
    "grid": PhaseSpaceGrid.two_mode_real(SUPPORT_AXIS, SUPPORT_AXIS).points,
    "scattered": ((0.3 - 0.2j, -0.1 + 0.4j), (-0.25j, 0.0), (0.0, 0.35 + 0.1j)),
}


@pytest.mark.parametrize("space, cells", list(SUPPORT_CASES.values()), ids=list(SUPPORT_CASES))
def test_readout_on_the_support_matches_whole_displacement_matrices(space, cells):
    psi = support_state(space, cells)
    for points in SUPPORT_POINTS.values():
        got = _separable_readout(psi, points, SCAN_WEIGHTS)
        want = separable_readout_full(psi, points, SCAN_WEIGHTS)
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps
    for eta_a, eta_b in SUPPORT_POINTS["scattered"]:
        d_a, d_b = (_mode_displacements(n_max, np.array([eta]), mode)[0] for n_max, eta, mode
                    in ((space.n_max_a, eta_a, "a"), (space.n_max_b, eta_b, "b")))
        want = d_a @ psi.amplitudes.reshape(space.shape) @ d_b.T
        got = displace(psi, eta_a, eta_b).amplitudes.reshape(space.shape)
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps
    if not cells:
        assert not got.any() and not _scan(psi, SUPPORT_POINTS["grid"])[0].any()


@pytest.mark.parametrize("truncation", [(30, 26), (26, 30)])
def test_pair_state_on_a_lopsided_truncation_matches_whole_displacement_matrices(truncation):
    # the pair state's support is the diagonal: every Fock level of the
    # smaller mode and as many of the larger one
    psi = tmsv_analytic(TmsvSpec(squeeze_param=0.68), field_space(*truncation))
    axis = np.linspace(-1.0, 1.0, 5)
    points = PhaseSpaceGrid.two_mode_real(axis, axis).points
    got = _separable_readout(psi, points, SCAN_WEIGHTS)
    want = separable_readout_full(psi, points, SCAN_WEIGHTS)
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps


def test_mode_displacement_columns_are_the_whole_matrix_columns():
    etas = np.array([0.0, *QUADRANT_ETAS])
    whole = _mode_displacements(12, etas, "a")
    for columns in (np.array([0]), np.array([3]), np.array([1, 4, 12]), np.arange(13),
                    np.array([], dtype=int)):
        part = _mode_displacements(12, etas, "a", columns)
        assert part.shape == (etas.size, 13, columns.size)
        assert np.array_equal(part[0], np.eye(13)[:, columns])
        assert np.max(np.abs(part - whole[:, :, columns]), initial=0.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("truncation", [(30, 30), (34, 34), (30, 26)])
def test_the_origin_read_by_parity_alone_is_the_scans_value_bit_for_bit(truncation):
    for psi in scan_states(field_space(*truncation)):
        alone = tomography._wigner(psi, ((0.0, 0.0),))
        np.testing.assert_array_equal(alone.view(np.uint64),
                                      _scan(psi, ((0.0, 0.0),))[0].view(np.uint64))


def count_displacement_sets(monkeypatch):
    made, real = [], tomography._mode_displacements
    monkeypatch.setattr(tomography, "_mode_displacements",
                        lambda n_max, etas, mode, columns: made.append(mode)
                        or real(n_max, etas, mode, columns))
    return made


@pytest.mark.parametrize("truncation, axis_b, state, modes", [
    ((30, 30), np.linspace(-1.0, 1.0, 5), "tmsv", ["a"]),
    ((30, 26), np.linspace(-1.0, 1.0, 5), "tmsv", ["a", "b"]),
    ((30, 30), np.linspace(-0.8, 0.8, 5), "tmsv", ["a", "b"]),
    ((30, 30), np.linspace(-1.0, 1.0, 4), "tmsv", ["a", "b"]),
    ((30, 30), np.linspace(-1.0, 1.0, 5), "vacuum", ["a"]),
    ((30, 30), np.linspace(-1.0, 1.0, 5), "one_photon", ["a", "b"]),
], ids=["symmetric", "lopsided_truncation", "other_eta_b", "fewer_eta_b", "same_support",
        "other_support"])
def test_mode_b_reuses_mode_a_displacements_only_when_all_match(monkeypatch, truncation,
                                                                axis_b, state, modes):
    made = count_displacement_sets(monkeypatch)
    psi = dict(zip(("vacuum", "one_photon", "tmsv"), scan_states(field_space(*truncation))))
    grid = PhaseSpaceGrid.two_mode_real(np.linspace(-1.0, 1.0, 5), axis_b)
    _scan(psi[state], grid.points)
    assert made == modes


@pytest.mark.parametrize("truncation, per_scan", [([30, 30], ["a"]), ([30, 26], ["a", "b"])])
def test_wigner_scan_and_its_gate_rerun_make_one_displacement_set_when_symmetric(
        monkeypatch, truncation, per_scan):
    made = count_displacement_sets(monkeypatch)
    reads, real_read = [], tomography._separable_readout
    monkeypatch.setattr(tomography, "_separable_readout",
                        lambda *args: reads.append(1) or real_read(*args))
    run_scenario({"scenario": "wigner_scan", "truncation": truncation}, check_convergence=True)
    assert len(reads) == 3  # the origin, the scan and the gate's rerun of the origin
    assert made == per_scan * len(reads)


def test_lopsided_single_level_mode_b_is_still_refused():
    # the same distinct etas on both modes, but mode b cannot be displaced
    psi = vacuum_state(field_space(5, 0))
    for points in (((0.1, 0.1),), ((0.1, 0.0), (0.0, 0.2))):
        with pytest.raises(TruncationError, match="mode b holds a single Fock level"):
            _scan(psi, points)


def per_point_wigner(state, grid):
    # reference: one displace call and one parity expectation per point
    parity = parity_operator(state.space)
    return np.array([
        TWO_MODE_NORM * expectation(parity, displace(state, eta_a, eta_b)).real
        for eta_a, eta_b in grid.points
    ])


def test_grid_with_repeated_and_zero_etas_matches_per_point_displacement():
    space = field_space(12, 10)
    psi = damped_random_state(space, 11)
    eta_a = (0.2 - 0.1j, 0.0, -0.15 + 0.2j)
    eta_b = (0.0, 0.1 + 0.1j, -0.2j)
    points = [(pa, pb) for pa in eta_a for pb in eta_b]
    # repeated points, and one eta shared by both modes of different dims
    points += [(0.2 - 0.1j, -0.2j), (0.0, 0.0), (0.2 - 0.1j, 0.0), (0.1 + 0.1j, 0.1 + 0.1j)]
    grid = PhaseSpaceGrid(tuple(points))
    expected = per_point_wigner(psi, grid)
    w_direct = wigner_direct(psi, grid)
    w_proto, signal = wigner_via_protocol(psi, grid)
    assert np.max(np.abs(w_direct - expected)) < 1e-12
    assert np.max(np.abs(w_proto - expected)) < 1e-12
    assert np.allclose(signal, -expected / TWO_MODE_NORM, atol=1e-12)


def oracle_displaced(state, eta_a, eta_b):
    amps = full_space_displacement(state.space, eta_a, eta_b) @ state.amplitudes
    return StateVector(state.space, amps)


ORACLE_POINTS = [
    # a diagonal with complex etas, then repeated points and points with one
    # mode undisplaced
    *((0.02 * k * (1 - 0.5j), 0.015 * k * (-0.3 + 1j)) for k in range(-2, 3)),
    (0.04 - 0.02j, -0.01 + 0.03j), (0.04 - 0.02j, -0.01 + 0.03j),
    (0.0, -0.02j), (0.03 + 0.01j, 0.0), (0.0, 0.0), (0.0, -0.02j),
]


@pytest.mark.parametrize("space", [field_space(7, 6), make_space(3, 4, 3)],
                         ids=["field", "three_level"])
def test_wigner_direct_matches_per_point_dense_oracle(space):
    psi = damped_random_state(space, 17)
    parity = parity_operator(space)
    expected = [TWO_MODE_NORM * expectation(parity, oracle_displaced(psi, *pt)).real
                for pt in ORACLE_POINTS]
    w = wigner_direct(psi, PhaseSpaceGrid(tuple(ORACLE_POINTS)))
    assert np.max(np.abs(w - expected)) < 1e-12


@pytest.mark.parametrize("phi", [math.pi, 1.3])
def test_wigner_via_protocol_matches_per_point_probe_oracle(phi):
    psi = damped_random_state(field_space(7, 6), 19)
    outcomes = [probe_protocol(oracle_displaced(psi, *pt), phi) for pt in ORACLE_POINTS]
    signal_expected = np.array([o.signal for o in outcomes])
    w, signal = wigner_via_protocol(psi, PhaseSpaceGrid(tuple(ORACLE_POINTS)), phi)
    assert np.max(np.abs(signal - signal_expected)) < 1e-12
    assert np.max(np.abs(w + TWO_MODE_NORM * signal_expected)) < 1e-12


def test_wigner_via_protocol_rejects_atom_state():
    psi = damped_random_state(make_space(3, 4, 3), 2)
    with pytest.raises(ValueError):
        wigner_via_protocol(psi, PhaseSpaceGrid(((0.0, 0.0),)))


def test_truncation_error_names_the_first_point_over_the_limit_with_both_tails():
    space = field_space(6, 6)
    vacuum = vacuum_state(space)
    # the last point overflows most and sorts first among the distinct etas;
    # the middle one is the first over the limit in grid order
    points = ((0.1, 0.1), (0.9, 0.8), (-3.0, 0.0))
    probs = np.abs(oracle_displaced(vacuum, *points[1]).amplitudes.reshape(7, 7)) ** 2
    tail_a, tail_b = probs[6, :].sum(), probs[:, 6].sum()
    assert tail_a > TAIL_LIMIT and tail_b > TAIL_LIMIT
    shown = f"{tail_a + tail_b:.3e}"
    assert shown not in (f"{tail_a:.3e}", f"{tail_b:.3e}")
    for scan in (wigner_direct, wigner_via_protocol):
        with pytest.raises(TruncationError, match=f"displacement left {shown} probability"):
            scan(vacuum, PhaseSpaceGrid(points))
    with pytest.raises(TruncationError, match=f"displacement left {shown} probability"):
        displace(vacuum, *points[1])


def test_grid_point_past_truncation_edge_raises():
    space = field_space(6, 6)
    grid = PhaseSpaceGrid(((0.1, 0.0), (0.1, 3.0)))
    with pytest.raises(TruncationError):
        wigner_direct(vacuum_state(space), grid)
    with pytest.raises(TruncationError):
        wigner_via_protocol(vacuum_state(space), grid)


def test_displacement_covariance():
    # displacing the state shifts its Wigner function rigidly
    space = field_space(25, 25)
    beta = 0.35 - 0.15j
    points = [0.0 + 0.0j, 0.4 + 0.1j, -0.2 + 0.3j]
    for base in (vacuum_state(space), fock_state(space, 1, 0)):
        shifted = displace(base, -beta, 0.0)  # displaces mode a by +beta
        w_shifted = wigner_direct(shifted, PhaseSpaceGrid(tuple((p, 0.0) for p in points)))
        w_base = wigner_direct(base, PhaseSpaceGrid(tuple((p - beta, 0.0) for p in points)))
        assert np.allclose(w_shifted, w_base, atol=1e-9)


def test_squeezed_axis_variance_from_wigner_fit():
    # degenerate squeezer at r = 2 |xi| tau ~ 1.37: Gaussian fit of the scan
    # along the squeezed axis recovers the variance e^{-2r}/4 ~ 1.6e-2
    base = PhysicalParams(-1j * 7e5, 7e5, 7e5, 1e7, 0.0, ProcessKind.DEGENERATE_PDC)
    params = PhysicalParams(-1j * 7e5, 7e5, 7e5, 1e7, resonance_delta(base),
                            ProcessKind.DEGENERATE_PDC)
    tau = 2e-4
    r = 2.0 * abs(effective_xi(params)) * tau
    space = field_space(140, 0)
    state = evolve_static(
        reduced_bilinear_generator(space, params), vacuum_state(space), tau
    )
    # identify the squeezed axis from the quadrature variances
    var_x = expectation(
        quadrature_operator(space, "a", "x") @ quadrature_operator(space, "a", "x"), state
    ).real
    var_p = expectation(
        quadrature_operator(space, "a", "p") @ quadrature_operator(space, "a", "p"), state
    ).real
    axis_is_p = var_p < var_x
    ys = np.linspace(0.0, 0.25, 6)
    etas = [1j * y if axis_is_p else y + 0j for y in ys]
    w = wigner_direct(state, PhaseSpaceGrid(tuple((eta, 0.0) for eta in etas)))
    # ln W = ln W(0) - y^2 / (2 sigma^2)
    slope = np.polyfit(ys**2, np.log(w), 1)[0]
    sigma_sq = -1.0 / (2.0 * slope)
    assert sigma_sq == pytest.approx(math.exp(-2 * r) / 4.0, rel=0.02)
    assert sigma_sq == pytest.approx(1.6e-2, rel=0.05)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(())
    for bad in (float("nan"), complex(0.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError, match="^grid points must be finite$"):
            PhaseSpaceGrid(((0.1, 0.2), (0.0, bad)))
