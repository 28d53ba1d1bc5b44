import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    TimeDependentOperator,
    effective_pdc_hamiltonian,
    effective_puc_hamiltonian,
    effective_xi,
    full_pdc_hamiltonian,
    full_puc_hamiltonian,
    reduced_bilinear_generator,
    resonance_delta,
    two_photon_hamiltonian,
)
from cavityconv.hilbert import (
    Operator,
    StateVector,
    annihilation,
    basis_state,
    embed_atom,
    expectation,
    field_space,
    fock_state,
    make_space,
    number_operator,
    project_atom,
    vacuum_state,
)
from cavityconv import propagate
from cavityconv.observables import fidelity
from cavityconv.propagate import (
    PropagationError,
    _evolve_sectors,
    evolve_static,
    evolve_td,
    frame_transform,
)
from cavityconv.scenarios import SCENARIOS, run_scenario

from oracles import identity_operator, random_state, reached_components

LAM = 7e5
OMEGA = 7e5
DELTA = 1e7


def puc(**kw):
    base = dict(lambda_a=LAM, lambda_b=LAM, omega_cl=OMEGA, delta_big=DELTA,
                delta_small=0.0, process=ProcessKind.PUC)
    base.update(kw)
    return PhysicalParams(**base)


def pdc(**kw):
    base = dict(lambda_a=-1j * LAM, lambda_b=LAM, omega_cl=OMEGA, delta_big=DELTA,
                delta_small=0.0, process=ProcessKind.PDC)
    base.update(kw)
    params = PhysicalParams(**base)
    if kw.get("delta_small") is None or "delta_small" not in kw:
        params = PhysicalParams(**{**base, "delta_small": resonance_delta(params)})
    return params


def test_zero_hamiltonian_is_identity():
    space = field_space(3, 3)
    h = 0.0 * identity_operator(space)
    psi = fock_state(space, 2, 1)
    out = evolve_static(h, psi, 1.0)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_beam_splitter_full_swap():
    space = field_space(3, 3)
    gen = reduced_bilinear_generator(space, puc())
    xi_abs = abs(effective_xi(puc()))
    out = evolve_static(gen, fock_state(space, 1, 0), (math.pi / 2) / xi_abs)
    p = abs(fock_state(space, 0, 1).inner(out)) ** 2
    assert abs(p - 1.0) < 1e-9


def test_beam_splitter_matches_rabi_closed_form():
    # single-excitation sector: populations follow cos^2 / sin^2 exactly
    space = field_space(2, 2)
    params = puc()
    gen = reduced_bilinear_generator(space, params)
    xi_abs = abs(effective_xi(params))
    psi0 = fock_state(space, 1, 0)
    for frac in (0.1, 0.35, 0.8, 1.3):
        t = frac / xi_abs
        out = evolve_static(gen, psi0, t)
        amp_10 = fock_state(space, 1, 0).inner(out)
        amp_01 = fock_state(space, 0, 1).inner(out)
        assert abs(abs(amp_10) - abs(math.cos(frac))) < 1e-8
        assert abs(abs(amp_01) - abs(math.sin(frac))) < 1e-8


def test_pair_generator_vacuum_probability():
    # closed form: P(0,0) = 1/cosh^2(|xi| tau)
    space = field_space(40, 40)
    params = pdc()
    gen = reduced_bilinear_generator(space, params)
    xi_abs = abs(effective_xi(params))
    tau = 0.68 / xi_abs
    out = evolve_static(gen, vacuum_state(space), tau)
    p_vac = abs(vacuum_state(space).inner(out)) ** 2
    assert abs(p_vac - 1.0 / math.cosh(0.68) ** 2) < 1e-9


@pytest.mark.parametrize("params", [puc(), pdc()], ids=["PUC", "PDC"])
def test_static_evolution_does_not_depend_on_the_scale_of_the_generator(params):
    # exp(-i (s G) (t / s)) = exp(-i G t): no entry of s G is dropped for being small
    space = field_space(6, 6)
    gen = reduced_bilinear_generator(space, params)
    rng = np.random.default_rng(5)
    psi = StateVector(space, rng.normal(size=space.total_dim)
                      + 1j * rng.normal(size=space.total_dim)).normalized()
    t = 0.7 / abs(effective_xi(params))
    expected = evolve_static(gen, psi, t)
    scaled = evolve_static(1e-20 * gen, psi, t / 1e-20)
    assert np.max(np.abs(scaled.amplitudes - expected.amplitudes)) < 1e-10


def test_evolve_static_rejects_non_hermitian():
    space = field_space(2, 2)
    with pytest.raises(ValueError):
        evolve_static(annihilation(space, "a"), vacuum_state(space), 1.0)


def test_static_evolution_acts_only_on_reached_sectors():
    # the beam splitter conserves n_a + n_b and the pair generator n_a - n_b;
    # restricting the action to the components psi0 occupies is exact
    rng = np.random.default_rng(3)
    puc_space, pdc_space = field_space(4, 3), field_space(6, 6)
    two_sectors = StateVector(puc_space, (fock_state(puc_space, 1, 0).amplitudes
                                          + fock_state(puc_space, 2, 2).amplitudes) / math.sqrt(2))
    full_support = [1.0, 1j] @ rng.normal(size=(2, pdc_space.total_dim))
    full_support = StateVector(pdc_space, full_support / np.linalg.norm(full_support))
    assert effective_xi(pdc()).real == 0.0
    cases = [
        (puc(), two_sectors, lambda n_a, n_b: np.isin(n_a + n_b, (1, 4))),
        (pdc(), vacuum_state(pdc_space), lambda n_a, n_b: n_a == n_b),
        (pdc(), full_support, lambda n_a, n_b: np.ones_like(n_a, dtype=bool)),
    ]
    for params, psi0, sector in cases:
        gen = reduced_bilinear_generator(psi0.space, params)
        t = 0.7 / abs(effective_xi(params))
        out = evolve_static(gen, psi0, t).amplitudes
        dense = scipy.linalg.expm(-1j * t * gen.to_dense()) @ psi0.amplitudes
        assert np.max(np.abs(out - dense)) < 1e-12
        reached = sector(*psi0.space.fock_numbers())
        assert np.all(out[~reached] == 0.0)
        assert np.count_nonzero(out) == np.count_nonzero(reached)
    zero = StateVector(pdc_space, np.zeros(pdc_space.total_dim))
    assert not evolve_static(gen, zero, 1e-4).amplitudes.any()


def test_hermiticity_is_checked_outside_the_reached_sector():
    space = field_space(4, 3)
    gen = reduced_bilinear_generator(space, puc())
    # one-sided element inside n_a + n_b = 4; psi0 lives in n_a + n_b = 1
    stray = sp.csr_matrix(([1e3], ([space.flatten(0, 2, 2)], [space.flatten(0, 3, 1)])),
                          shape=(space.total_dim, space.total_dim))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_static(gen + Operator(space, stray), fock_state(space, 1, 0), 1e-4)


def sector_cases():
    """(generator, psi0, times): a two-sector PUC start and a full-support
    PDC state, each with t = 0 among several times."""
    rng = np.random.default_rng(11)
    puc_space, pdc_space = field_space(5, 4), field_space(5, 5)
    two_sectors = (fock_state(puc_space, 1, 0).amplitudes + fock_state(puc_space, 3, 2).amplitudes)
    amps = [1.0, 1j] @ rng.normal(size=(2, pdc_space.total_dim))
    xi_abs = abs(effective_xi(puc()))
    times = np.array([0.0, 0.3, 1.1, 2.5]) / xi_abs
    return [
        (reduced_bilinear_generator(puc_space, puc()),
         StateVector(puc_space, two_sectors / math.sqrt(2)), times),
        (reduced_bilinear_generator(pdc_space, pdc()),
         StateVector(pdc_space, amps / np.linalg.norm(amps)), times),
    ]


def assert_matches_dense_expm(gen, psi0, times, keep, states):
    assert np.array_equal(keep, reached_components(gen.matrix, np.flatnonzero(psi0.amplitudes)))
    dense = gen.to_dense()
    for t, state in zip(times, states):
        exact = scipy.linalg.expm(-1j * t * dense) @ psi0.amplitudes
        assert np.max(np.abs(state - exact[keep])) < 1e-12
        outside = np.delete(exact, keep)
        assert np.max(np.abs(outside), initial=0.0) < 1e-12


def set_sector_limits(monkeypatch, limit):
    """Send every component of more than limit states to expm_multiply."""
    monkeypatch.setattr(propagate, "CHAIN_SECTOR_LIMIT", limit)
    monkeypatch.setattr(propagate, "DENSE_SECTOR_LIMIT", limit)


def counted_solvers(monkeypatch) -> dict:
    """Live counts of the eigensolver and exponential-action calls."""
    calls = dict.fromkeys(("tridiagonal", "eigh", "expm"), 0)

    def counted(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(propagate, "eigh_tridiagonal",
                        counted("tridiagonal", propagate.eigh_tridiagonal))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(propagate, "expm_multiply", counted("expm", propagate.expm_multiply))
    return calls


@pytest.mark.parametrize("limit", [propagate.DENSE_SECTOR_LIMIT, 2])
def test_sector_evolution_matches_dense_expm_on_both_sides_of_the_limit(monkeypatch, limit):
    set_sector_limits(monkeypatch, limit)
    for gen, psi0, times in sector_cases():
        keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
        assert_matches_dense_expm(gen, psi0, times, keep, states)
        assert np.array_equal(states[0], psi0.amplitudes[keep])  # t = 0 is returned as is


@pytest.mark.parametrize("params", [pdc(), puc(lambda_b=LAM * np.exp(0.9j))],
                         ids=["PDC-imaginary-xi", "PUC-complex-lambda_b"])
def test_chain_branch_makes_hops_of_any_phase_real(monkeypatch, params):
    xi = effective_xi(params)
    assert xi.real == 0.0 if params.process is ProcessKind.PDC else xi.imag != 0.0
    space = field_space(6, 5)
    gen = reduced_bilinear_generator(space, params)
    psi0 = random_state(space, 2)
    times = np.array([0.0, 0.3, 1.1, 2.5]) / abs(xi)
    calls = counted_solvers(monkeypatch)
    keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
    assert calls["tridiagonal"] > 0 and calls["eigh"] == calls["expm"] == 0
    assert_matches_dense_expm(gen, psi0, times, keep, states)


def frame_generator(h_td):
    """H(0) - D in the solved static rotating frame of an oscillating H(t)."""
    return Operator(h_td.space, h_td.at(0.0).matrix - sp.diags(propagate._rotating_frame(h_td)))


@pytest.mark.parametrize("builder, params, dense_calls", [
    (full_puc_hamiltonian, puc(delta_small=1e4), 0),
    (full_pdc_hamiltonian, pdc(delta_small=1e4), 0),
    # five g/e components have states of degree 3 and cycles
    (effective_puc_hamiltonian, puc(delta_small=1e4), 5),
    (effective_pdc_hamiltonian, pdc(delta_small=5e4), 5),
], ids=["full_puc", "full_pdc", "effective_puc", "effective_pdc"])
def test_frame_generators_take_the_chain_branch_exactly_on_paths(monkeypatch, builder, params,
                                                                  dense_calls):
    space = make_space(3, 3, 3)
    gen = frame_generator(builder(space, params))
    psi0 = random_state(space, 8)  # reaches every component
    times = np.array([0.0, 1e-7, 2e-6, 3e-5])
    calls = counted_solvers(monkeypatch)
    keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
    assert keep.size == space.total_dim
    assert calls["eigh"] == dense_calls and calls["expm"] == 0 and calls["tridiagonal"] > 0
    assert_matches_dense_expm(gen, psi0, times, keep, states)


def test_a_branched_tree_takes_the_dense_branch(monkeypatch):
    # one state hopping to three others: states - 1 edges, but not a path
    space = field_space(3, 0)
    star = sp.csr_matrix(([1e3, 2e3j, -3e3], ([0, 0, 0], [1, 2, 3])), shape=(4, 4))
    gen = Operator(space, star + star.conj().T)
    psi0 = random_state(space, 6)
    times = np.array([0.0, 1e-4, 2e-3])
    calls = counted_solvers(monkeypatch)
    keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
    assert calls == {"tridiagonal": 0, "eigh": 1, "expm": 0}
    assert_matches_dense_expm(gen, psi0, times, keep, states)


def test_chain_branch_on_one_state_components(monkeypatch):
    # a diagonal generator makes every state a one-state path; the beam
    # splitter's n_a + n_b = 0 and = 7 sectors are one state each
    space = field_space(4, 3)
    psi0 = random_state(space, 4)
    times = np.array([0.0, 0.3, 1.1, 2.5]) / abs(effective_xi(puc()))
    diagonal = 1e3 * number_operator(space, "a") - 3e3 * number_operator(space, "b")
    beam_splitter = reduced_bilinear_generator(space, puc())
    calls = counted_solvers(monkeypatch)
    for gen, components in ((diagonal, 20), (beam_splitter, 8), (diagonal + beam_splitter, 8)):
        calls.update(dict.fromkeys(calls, 0))
        keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
        assert calls == {"tridiagonal": components, "eigh": 0, "expm": 0}
        assert_matches_dense_expm(gen, psi0, times, keep, states)
        assert np.array_equal(states[0], psi0.amplitudes[keep])


# local edges of the components of scattered_generator
SHAPES = {
    "path": [(k, k + 1) for k in range(6)],
    "tree": [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],  # state 0 has three neighbours
    "cycle": [(k, (k + 1) % 5) for k in range(5)],
    "pair": [(0, 1)],
    "isolated": [],  # two states with a diagonal entry, one with no entry at all
}
SIZES = {"path": 7, "tree": 6, "cycle": 5, "pair": 2, "isolated": 3}


def scattered_generator(seed):
    """(generator, states): a random Hermitian generator whose components
    have the SHAPES, their states scattered over the basis by a seeded
    permutation; states[name] lists a component's states in local order."""
    rng = np.random.default_rng(seed)
    dim = sum(SIZES.values())
    place = rng.permutation(dim)
    states, rows, cols, vals, offset = {}, [], [], [], 0
    for name, edges in SHAPES.items():
        states[name] = place[offset:offset + SIZES[name]]
        for i, j in edges:
            rows.append(states[name][i])
            cols.append(states[name][j])
            vals.append(1e3 * (rng.normal() + 1j * rng.normal()))
        offset += SIZES[name]
    half = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    diagonal = 1e3 * rng.normal(size=dim)
    diagonal[states["isolated"][2]] = 0.0
    gen = Operator(field_space(dim - 1, 0), half + half.conj().T + sp.diags(diagonal))
    return gen, states


def amplitudes_on(space, support, seed):
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[support] = random_state(space, seed).amplitudes[support]
    return amps / np.linalg.norm(amps)


def counted_walks(monkeypatch) -> list:
    """The pattern of every propagate._walk call, live."""
    patterns = []
    walk = propagate._walk
    monkeypatch.setattr(propagate, "_walk",
                        lambda pattern, starts: patterns.append(pattern) or walk(pattern, starts))
    return patterns


def with_one_sided_entry(gen, row, col):
    """gen plus one entry stored on one side only, inside the Hermitian tolerance."""
    stray = sp.csr_matrix(([1e-20], ([row], [col])), shape=gen.matrix.shape)
    gen = Operator(gen.space, gen.matrix + stray)
    assert gen.is_hermitian()
    return gen


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["mid-path", "two-seeds", "tree", "cycle", "isolated",
                                  "one-sided", "walks-meet", "full-support"])
def test_reached_sectors_match_whole_graph_labelling(monkeypatch, seed, case):
    gen, states = scattered_generator(seed)
    space = gen.space
    support = {
        "mid-path": states["path"][[3]],
        "two-seeds": states["cycle"][[0, 2]],
        "tree": states["tree"][[4]],
        "cycle": states["cycle"][[3]],
        "isolated": states["isolated"][[1, 2]],
        "one-sided": states["pair"][[0]],
        "walks-meet": np.sort([states["pair"][0], states["path"][0]]),
        "full-support": np.arange(space.total_dim),
    }[case]
    if case == "one-sided":
        # its row, outside the walked pair, leads into the pair
        gen = with_one_sided_entry(gen, states["path"][5], states["pair"][1])
    if case == "walks-meet":
        # the walk from the later start runs into the first walk's component
        if support[0] == states["pair"][0]:
            gen = with_one_sided_entry(gen, states["path"][5], states["pair"][1])
        else:
            gen = with_one_sided_entry(gen, states["pair"][1], states["path"][5])
    amps = amplitudes_on(space, support, seed)
    psi0 = StateVector(space, amps)
    times = np.array([0.0, 2e-4, 1e-3])
    calls = counted_solvers(monkeypatch)
    walks = counted_walks(monkeypatch)
    keep, states_out = _evolve_sectors(gen, amps, times)
    assert_matches_dense_expm(gen, psi0, times, keep, states_out)
    if case == "mid-path":  # walked again from an end: still one tridiagonal
        assert calls == {"tridiagonal": 1, "eigh": 0, "expm": 0}
    if case in ("one-sided", "walks-meet"):
        assert set(states["path"]) | set(states["pair"]) == set(keep)
        # exactly one more walk, over the symmetrized pattern
        assert len(walks) == 2
        assert (walks[1] != walks[0] + walks[0].T).nnz == 0
    else:
        assert len(walks) == 1


def test_program_paths_walk_once_per_evolution(monkeypatch):
    # every default scenario, gate on and off: one walk per evolution over
    # the pattern it was given, so no transposed pattern is ever built
    walks, evolutions = counted_walks(monkeypatch), []
    reached_sectors = propagate._reached_sectors

    def checked(M, pattern, support):
        before = len(walks)
        sectors, walked = reached_sectors(M, pattern, support)
        evolutions.append((len(walks) - before, walked is pattern))
        return sectors, walked

    monkeypatch.setattr(propagate, "_reached_sectors", checked)
    for name in SCENARIOS:
        for gated in (True, False):
            run_scenario({"scenario": name}, check_convergence=gated)
    assert len(evolutions) > len(SCENARIOS) and set(evolutions) == {(1, True)}


def test_pair_sector_walk_visits_only_the_reached_states(monkeypatch):
    # [300, 300] has 90 601 states; the vacuum reaches the 301 of n_a = n_b
    visited = []
    walk = propagate.breadth_first_order

    def counted(*args, **kwargs):
        order = walk(*args, **kwargs)
        visited.append(order.size)
        return order

    monkeypatch.setattr(propagate, "breadth_first_order", counted)
    run_scenario({"scenario": "pdc_epr", "truncation": [300, 300]}, check_convergence=False)
    assert 301 <= sum(visited) <= 3 * 301


def test_default_pair_and_squeezer_scenarios_diagonalize_only_tridiagonals(monkeypatch):
    calls = counted_solvers(monkeypatch)
    for name in ("pdc_epr", "epr_variances", "degenerate_squeeze", "puc_swap"):
        run_scenario({"scenario": name})
    assert calls["tridiagonal"] > 0 and calls["eigh"] == calls["expm"] == 0
    built = []
    real_init = Operator.__init__
    monkeypatch.setattr(Operator, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    degenerate = PhysicalParams(LAM, LAM, OMEGA, DELTA, 2 * LAM**2 / DELTA,
                                ProcessKind.DEGENERATE_PDC)
    for params in (puc(), pdc(), degenerate):
        built.clear()
        reduced_bilinear_generator(field_space(8, 8), params)
        assert len(built) == 1
    two_photon = PhysicalParams(LAM, LAM, 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS)
    for kind in ("BS", "TMS"):
        built.clear()
        two_photon_hamiltonian(make_space(3, 2, 2), two_photon, kind)
        assert len(built) == 1


def test_multi_time_evolution_equals_per_time_evolve_static():
    for gen, psi0, times in sector_cases():
        keep, states = _evolve_sectors(gen, psi0.amplitudes, times)
        for t, state in zip(times, states):
            single = evolve_static(gen, psi0, t).amplitudes
            assert np.max(np.abs(single[keep] - state)) < 1e-13
            assert not np.delete(single, keep).any()  # exact zeros outside


def test_sector_evolution_of_zero_state_and_zero_time():
    gen, psi0, times = sector_cases()[0]
    keep, states = _evolve_sectors(gen, np.zeros(gen.space.total_dim, complex), times)
    assert keep.size == 0 and states.shape == (times.size, 0)
    assert np.array_equal(evolve_static(gen, psi0, 0.0).amplitudes, psi0.amplitudes)


def test_sector_evolution_rejects_a_non_hermitian_element():
    gen, psi0, times = sector_cases()[0]
    space = gen.space
    stray = sp.csr_matrix(([1e3], ([space.flatten(0, 0, 2)], [space.flatten(0, 1, 1)])),
                          shape=(space.total_dim, space.total_dim))
    with pytest.raises(ValueError, match="Hermitian"):
        _evolve_sectors(gen + Operator(space, stray), psi0.amplitudes, times)


@pytest.mark.parametrize("limit", [propagate.DENSE_SECTOR_LIMIT, 2])
def test_forced_norm_drift_raises(monkeypatch, limit):
    # the beam splitter's sectors are paths; the effective model's g/e
    # components are not, so it also reaches the dense eigh below the limit
    set_sector_limits(monkeypatch, limit)
    eigh, eigh_tridiagonal = np.linalg.eigh, propagate.eigh_tridiagonal
    expm_multiply = propagate.expm_multiply

    def inflated(solver):
        def solve(*args):
            energies, basis = solver(*args)
            return energies, (1.0 + 1e-6) * basis
        return solve

    monkeypatch.setattr(np.linalg, "eigh", inflated(eigh))
    monkeypatch.setattr(propagate, "eigh_tridiagonal", inflated(eigh_tridiagonal))
    monkeypatch.setattr(propagate, "expm_multiply", lambda a, v: (1.0 + 1e-6) * expm_multiply(a, v))
    gen, psi0, times = sector_cases()[0]
    with pytest.raises(PropagationError, match="norm"):
        evolve_static(gen, psi0, times[-1])
    space = make_space(3, 3, 3)
    effective = frame_generator(effective_puc_hamiltonian(space, puc(delta_small=1e4)))
    with pytest.raises(PropagationError, match="norm"):
        evolve_static(effective, basis_state(space, "g", 0, 3), 3e-5)


def test_full_vs_effective_matches_per_time_dense_expm(monkeypatch):
    # every comparison row and the dense leakage scan from scratch: one
    # dense expm of the whole three-level and field spaces per time
    monkeypatch.setattr("cavityconv.scenarios.DENSE_SCAN_POINTS", 401)
    doc = run_scenario({"scenario": "full_vs_effective", "truncation": [2, 2]},
                       check_convergence=False)
    params = puc(delta_small=resonance_delta(puc()))
    space, fld = make_space(3, 2, 2), field_space(2, 2)
    h_full = full_puc_hamiltonian(space, params).at(0.0).to_dense()
    gen = reduced_bilinear_generator(fld, params).to_dense()
    psi_fld = fock_state(fld, 1, 0)
    psi0 = embed_atom(psi_fld, space, "i").amplitudes
    chi = LAM**2 / DELTA

    def conditioned(t):
        full = StateVector(space, scipy.linalg.expm(-1j * t * h_full) @ psi0)
        return project_atom(full, "i")

    rows = doc["tables"]["comparison"]["rows"]
    assert len(rows) == 101
    for t, _, fid, leak in rows:
        cond = conditioned(t)
        reduced = StateVector(fld, scipy.linalg.expm(-1j * t * gen) @ psi_fld.amplitudes)
        reduced = frame_transform(reduced, chi, chi, t, sign=+1)
        assert abs(leak - (1.0 - cond.norm() ** 2)) < 1e-12
        assert abs(fid - fidelity(cond.normalized(), reduced)) < 1e-12
    dense_leak = max(1.0 - conditioned(t).norm() ** 2
                     for t in np.linspace(0.0, rows[-1][0], 401)[1:])
    assert abs(doc["metrics"]["max_leakage_dense"] - dense_leak) < 1e-12


def test_constant_td_reproduces_static():
    space = field_space(4, 4)
    gen = reduced_bilinear_generator(space, puc())
    h_td = TimeDependentOperator(gen)
    psi0 = fock_state(space, 1, 0)
    t_end = 3e-4
    traj = evolve_td(h_td, psi0, np.linspace(0.0, t_end, 7))
    direct = evolve_static(gen, psi0, t_end)
    dist = np.linalg.norm(traj.states[-1].amplitudes - direct.amplitudes)
    assert dist < 1e-8
    assert traj.ok


def test_time_reversal_returns_initial_state():
    space = field_space(4, 4)
    gen = reduced_bilinear_generator(space, pdc())
    psi0 = vacuum_state(space)
    t = 1.2e-4
    forward = evolve_static(gen, psi0, t)
    back = evolve_static(-1.0 * gen, forward, t)
    assert np.linalg.norm(back.amplitudes - psi0.amplitudes) < 1e-7


def pdc_frame_oracle(h_td, psi0, times, delta):
    # effective PDC is static in the frame D = -delta n_b - delta sig_ee,
    # solved by hand: psi(t) = e^{-iDt} expm(-i t (H(0) - D)) psi0 on dense
    # matrices
    space = h_td.space
    _, n_b = space.fock_numbers()
    level = np.repeat(np.arange(space.atom_levels), space.field_dim)
    d_diag = -delta * n_b + np.where(level == space.level_index("e"), -delta, 0.0)
    generator = h_td.at(0.0).to_dense() - np.diag(d_diag)
    return [np.exp(-1j * d_diag * t)
            * (scipy.linalg.expm(-1j * t * generator) @ psi0.amplitudes)
            for t in times]


def test_oscillating_evolution_norm_and_cross_method_agreement():
    # drive detuning off resonance so the oscillating parts really oscillate
    space = make_space(3, 3, 3)
    params = pdc(delta_small=5e4)
    h = effective_pdc_hamiltonian(space, params)
    assert h.max_frequency() > 0
    psi0 = embed_atom(vacuum_state(field_space(3, 3)), space, "i")
    grid = np.linspace(0.0, 1e-4, 5)
    traj = evolve_td(h, psi0, grid)
    assert traj.ok
    assert np.all(np.abs(traj.norms - 1.0) < 1e-7)
    exact = pdc_frame_oracle(h, psi0, grid, params.delta_small)
    for state, oracle in zip(traj.states, exact):
        assert np.linalg.norm(state.amplitudes - oracle) < 1e-6


def test_energy_conserved_for_static_hamiltonian():
    space = field_space(6, 6)
    gen = reduced_bilinear_generator(space, pdc())
    h_td = TimeDependentOperator(gen)
    psi0 = fock_state(space, 2, 1)
    traj = evolve_td(h_td, psi0, np.linspace(0.0, 2e-4, 9))
    energies = np.array([expectation(gen, s).real for s in traj.states])
    scale = max(abs(energies[0]), 1.0)
    assert np.max(np.abs(energies - energies[0])) < 1e-8 * scale


def test_full_model_population_stays_in_auxiliary_level():
    # leakage out of |i> bounded by 10 (lambda/Delta)^2 at the recorded samples
    # of the canonical comparison trajectory (101 points to xi t = pi/2); the
    # continuous-time envelope peaks slightly higher, see the scenario's
    # max_leakage_dense diagnostic
    params = puc()
    space = make_space(3, 6, 6)
    h = full_puc_hamiltonian(space, params)
    psi0 = embed_atom(fock_state(field_space(6, 6), 1, 0), space, "i")
    xi_abs = abs(effective_xi(params))
    grid = np.linspace(0.0, (math.pi / 2) / xi_abs, 101)
    traj = evolve_td(h, psi0, grid)
    bound = 10.0 * (LAM / DELTA) ** 2
    for t, state in zip(traj.times, traj.states):
        if xi_abs * t > 1.0:
            continue
        population = project_atom(state, "i").norm() ** 2
        assert population > 1.0 - bound
    assert traj.ok


def ladder_frame_pieces(space, params):
    # the ladder model is static in the frame generated by
    # D = -Delta n_a + (Delta - delta) n_b - delta sig_ee:
    # H_phi = H(0) - D and psi(t) = e^{-i D t} phi(t).  Exact oracle.
    from cavityconv.hilbert import atomic_sigma, number_operator

    delta = params.delta_small
    d_op = ((-DELTA) * number_operator(space, "a")
            + (DELTA - delta) * number_operator(space, "b")
            + (-delta) * atomic_sigma(space, "e", "e"))
    n_a, n_b = space.fock_numbers()
    level = np.repeat(np.arange(space.atom_levels), space.field_dim)
    d_diag = (-DELTA * n_a + (DELTA - delta) * n_b
              + np.where(level == space.level_index("e"), -delta, 0.0))
    return d_op, d_diag


def test_stiff_ladder_evolution_matches_static_frame_oracle():
    params = pdc()
    space = make_space(3, 2, 2)
    h_td = full_pdc_hamiltonian(space, params)
    d_op, d_diag = ladder_frame_pieces(space, params)
    psi0 = embed_atom(vacuum_state(field_space(2, 2)), space, "i")
    t_end = 2e-7  # ~320 periods of the +/-Delta oscillations
    traj = evolve_td(h_td, psi0, np.array([0.0, t_end]))
    exact = np.exp(-1j * d_diag * t_end) * evolve_static(
        h_td.at(0.0) - d_op, psi0, t_end
    ).amplitudes
    dist = np.linalg.norm(traj.states[-1].amplitudes - exact)
    assert dist < 1e-6
    assert traj.ok


def test_full_ladder_matches_reduced_squeezer():
    # regression bounds from the dispersive expansion: the deficit grows with
    # the pair population, ~0.02 eps^2 at xi t = 0.2 and ~6.6 eps^2 at 0.686
    params = pdc()
    xi_abs = abs(effective_xi(params))
    space = make_space(3, 8, 8)
    fld = field_space(8, 8)
    h_phi = full_pdc_hamiltonian(space, params).at(0.0)
    d_op, d_diag = ladder_frame_pieces(space, params)
    h_phi = h_phi - d_op
    psi0 = embed_atom(vacuum_state(fld), space, "i")
    gen = reduced_bilinear_generator(fld, params)
    chi = LAM**2 / DELTA
    eps_sq = (LAM / DELTA) ** 2
    for xi_t, deficit_bound in ((0.2, 1.0), (0.686, 10.0)):
        t = xi_t / xi_abs
        full = evolve_static(h_phi, psi0, t)
        full = StateVector(space, np.exp(-1j * d_diag * t) * full.amplitudes)
        conditioned = project_atom(full, "i")
        assert 1.0 - conditioned.norm() ** 2 < 10.0 * eps_sq
        reduced = frame_transform(evolve_static(gen, vacuum_state(fld), t),
                                  chi, chi, t, sign=-1)
        fid = fidelity(conditioned.normalized(), reduced)
        assert fid > 1.0 - deficit_bound * eps_sq


def test_effective_ge_sector_tracks_full_lambda_model():
    # drive + Stark + exchange terms of the second-order model reproduce the
    # three-level dynamics from |g,1,1> up to the virtual i-population,
    # measured deficit ~1.5 eps^2 at Omega t ~ 5.6 and ~7.5 eps^2 at ~14
    params = puc()
    space = make_space(3, 4, 4)
    h_full = full_puc_hamiltonian(space, params)
    h_eff = effective_puc_hamiltonian(space, params)
    psi0 = basis_state(space, "g", 1, 1)
    eps_sq = (LAM / DELTA) ** 2
    for t, bound in ((8e-6, 5.0), (2e-5, 15.0)):
        full = evolve_td(h_full, psi0, np.array([0.0, t])).states[-1]
        eff = evolve_td(h_eff, psi0, np.array([0.0, t])).states[-1]
        assert fidelity(full, eff) > 1.0 - bound * eps_sq


def test_effective_ge_sector_tracks_full_ladder_model():
    params = pdc()
    space = make_space(3, 4, 4)
    h_td = full_pdc_hamiltonian(space, params)
    d_op, d_diag = ladder_frame_pieces(space, params)
    h_phi = h_td.at(0.0) - d_op
    h_eff = effective_pdc_hamiltonian(space, params)
    psi0 = basis_state(space, "g", 1, 1)
    eps_sq = (LAM / DELTA) ** 2
    t = 8e-6
    full = StateVector(
        space, np.exp(-1j * d_diag * t) * evolve_static(h_phi, psi0, t).amplitudes
    )
    eff = evolve_td(h_eff, psi0, np.array([0.0, t])).states[-1]
    assert fidelity(full, eff) > 1.0 - 6.0 * eps_sq


def test_single_interval_spans_many_drive_periods():
    # the frame makes one interval exact however many periods it spans
    space = make_space(3, 2, 2)
    params = pdc(delta_small=2e5)
    h = effective_pdc_hamiltonian(space, params)
    psi0 = embed_atom(vacuum_state(field_space(2, 2)), space, "i")
    t_end = 2e-4  # 40 periods of the 2e5 rad/s drive phase
    coarse = evolve_td(h, psi0, np.array([0.0, t_end]))
    exact = pdc_frame_oracle(h, psi0, [t_end], params.delta_small)[0]
    assert np.linalg.norm(coarse.states[-1].amplitudes - exact) < 1e-6


def test_element_oscillating_at_two_frequencies_has_no_frame():
    space = field_space(1, 1)
    a = annihilation(space, "a")
    b = annihilation(space, "b")
    exchange = 1e4 * (a @ b.dag())
    h = TimeDependentOperator(0.0 * identity_operator(space),
                              [(exchange, 1e5), (exchange, 2e5)])
    with pytest.raises(PropagationError, match="no static rotating frame"):
        evolve_td(h, fock_state(space, 1, 0), np.array([0.0, 1e-5]))


def test_times_whose_phases_carry_no_precision_are_refused_before_any_solve(monkeypatch):
    # |E| is bounded by the largest absolute row sum over the reached states
    # (Gershgorin); a time t is refused when the phase rounding, that bound
    # * t * eps, exceeds a radian, and accepted just below it
    gen, psi0, _ = sector_cases()[0]
    keep, _ = _evolve_sectors(gen, psi0.amplitudes, [0.0])
    bound = np.max(np.abs(gen.matrix[keep]).sum(axis=1))
    edge = 1.0 / np.finfo(float).eps / bound
    calls = counted_solvers(monkeypatch)
    for t in (1.001 * edge, 1e300):
        with pytest.raises(PropagationError, match=r"^times: phases reach"):
            _evolve_sectors(gen, psi0.amplitudes, [0.0, 1e-6, t])
    assert calls == {"tridiagonal": 0, "eigh": 0, "expm": 0}
    _, states = _evolve_sectors(gen, psi0.amplitudes, [0.0, 0.999 * edge])
    assert abs(np.linalg.norm(states[1]) - 1.0) < 1e-9


def test_frame_phases_that_carry_no_precision_are_refused():
    # a short span late in time: the evolution in the frame is fine, but the
    # frame phases D t are not (|D| is at most 1.5e5 on the reached states,
    # 1.75e5 on the whole space); at t = 100 they still keep about 9 digits
    space = make_space(3, 3, 3)
    h = effective_pdc_hamiltonian(space, pdc(delta_small=5e4))
    psi0 = embed_atom(vacuum_state(field_space(3, 3)), space, "i")
    assert evolve_td(h, psi0, np.array([100.0, 100.0 + 1e-4])).ok
    with pytest.raises(PropagationError, match=r"^times: phases reach 1\.500e\+16 rad"):
        evolve_td(h, psi0, np.array([1e11, 1e11 + 1e-4]))


def test_recorded_grid_states_are_the_frame_phases_times_the_evolved_amplitudes():
    space = make_space(3, 3, 3)
    h = effective_pdc_hamiltonian(space, pdc(delta_small=5e4))
    psi0 = embed_atom(vacuum_state(field_space(3, 3)), space, "i")
    grid = np.linspace(0.0, 1e-4, 5)
    traj = evolve_td(h, psi0, grid)
    d = propagate._rotating_frame(h)
    generator = Operator(space, h.at(0.0).matrix - sp.diags(d))
    keep, phi = _evolve_sectors(generator, psi0.amplitudes, grid)
    for t, phi_t, state, norm in zip(grid, phi, traj.states, traj.norms):
        amps = np.zeros(space.total_dim, dtype=np.complex128)
        amps[keep] = np.exp(-1j * d[keep] * t) * phi_t
        assert np.array_equal(state.amplitudes, amps)
        assert abs(norm - np.linalg.norm(amps)) <= 4 * np.finfo(float).eps


def test_time_grid_must_increase():
    space = field_space(1, 1)
    h = TimeDependentOperator(0.0 * identity_operator(space))
    with pytest.raises(ValueError):
        evolve_td(h, vacuum_state(space), np.array([0.0, 1e-5, 1e-5]))


def test_frame_transform_identity_and_phases():
    space = field_space(2, 2)
    psi = fock_state(space, 1, 1)
    assert np.allclose(
        frame_transform(psi, 1e4, 2e4, 0.0).amplitudes, psi.amplitudes
    )
    t, chi_a, chi_b = 3e-5, 1e4, 2e4
    plus = frame_transform(psi, chi_a, chi_b, t, sign=+1)
    idx = space.flatten(0, 1, 1)
    assert plus.amplitudes[idx] == pytest.approx(np.exp(-1j * t * (chi_a + chi_b)))
    minus = frame_transform(psi, chi_a, chi_b, t, sign=-1)
    assert minus.amplitudes[idx] == pytest.approx(np.exp(+1j * t * (chi_a + chi_b)))


def test_frame_transform_preserves_norm():
    rng = np.random.default_rng(5)
    space = field_space(3, 3)
    for seed in range(4):
        amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
        psi = StateVector(space, amps / np.linalg.norm(amps))
        out = frame_transform(psi, 3e4, 7e4, 1.7e-4, sign=-1)
        assert abs(out.norm() - 1.0) < 1e-12


def test_records_every_grid_point_with_observables():
    space = field_space(3, 3)
    gen = reduced_bilinear_generator(space, puc())
    h = TimeDependentOperator(gen)
    n_a = number_operator(space, "a")
    traj = evolve_td(h, fock_state(space, 1, 0), np.linspace(0.0, 4e-4, 6))
    assert traj.times.size == 6
    assert len(traj.states) == traj.norms.size == 6
    xi_abs = abs(effective_xi(puc()))
    expected = np.cos(xi_abs * traj.times) ** 2
    n_a_values = [expectation(n_a, s).real for s in traj.states]
    assert np.allclose(n_a_values, expected, atol=1e-8)
