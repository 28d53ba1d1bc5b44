"""Random labelled-term models against a dense oracle, the band path
against the sector path, and the Operator adapter of the sector evolution
and its packed chain solves against per-sector ones.

A drawn model is a space of 1-3 levels with n_max 0-6 per mode (at most 147
states) and 1-4 terms c |k><l| a^d_a b^d_b, d_a and d_b in -2..2, k = l =
None the identity on the atom.  Each term oscillates at the frequency a
drawn diagonal frame D = omega_level + nu_a n_a + nu_b n_b gives it, so an
exact frame exists, and e^{-iDt} expm(-i (t - t0) (H(0) - D)) e^{iDt0} psi0,
with H(0) and D built densely here, is the exact solution that ``evolve_td``
must reproduce.  A drawn one-band model is a random band stored at either
sign of its offset or on the diagonal, a reduced generator's or a
two-photon one, at most 150 states; the fixed band cases pin runs entered
at an end, the expm limit and the two-photon bands from every start.  A
drawn walked Operator is a model's H(0) - D with one-sided round-off
entries and duplicated positions, whose every walk must be scipy's
breadth-first walk.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from cavityconv import propagate
from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    TimeDependentOperator,
    _reduced_band,
    _two_photon_band,
    effective_pdc_hamiltonian,
    effective_puc_hamiltonian,
    full_pdc_hamiltonian,
    full_puc_hamiltonian,
    reduced_bilinear_generator,
    resonance_delta,
    two_photon_hamiltonian,
)
from cavityconv.hilbert import (
    HilbertSpace,
    Operator,
    StateVector,
    _band_entries,
    field_space,
    make_space,
)
from cavityconv.propagate import (
    PACK_BUDGET,
    PropagationError,
    _evolve_band,
    _evolve_entries,
    _evolve_path,
    evolve_td,
)

from oracles import evolve_sectors, reached_components, walk_order

COEFFICIENTS = st.floats(-1.0, 1.0, allow_subnormal=False)
FREQUENCIES = st.integers(-3, 3).map(float)


@st.composite
def models(draw):
    """(space, terms, D): terms (c, k, l, d_a, d_b, nu) of a model whose
    frame D, one value per basis state, makes it static."""
    levels = draw(st.integers(1, 3))
    space = HilbertSpace(levels, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    omega = draw(st.lists(FREQUENCIES, min_size=levels, max_size=levels))
    nu_a, nu_b = draw(FREQUENCIES), draw(FREQUENCIES)
    level, n_a, n_b = np.indices(space.shape).reshape(3, -1)
    frame = np.array(omega)[level] + nu_a * n_a + nu_b * n_b
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        k, l = draw(st.one_of(st.just((None, None)),
                              st.tuples(st.integers(0, levels - 1), st.integers(0, levels - 1))))
        d_a, d_b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        c = complex(draw(COEFFICIENTS), draw(COEFFICIENTS))
        if k == l and d_a == d_b == 0:  # a diagonal term is static and real
            c = c.real
        # e^{iDt} |k><l| a^d_a b^d_b e^{-iDt} turns at omega_k - omega_l - d_a nu_a - d_b nu_b,
        # which the term's own e^{i nu t} must cancel
        shift = 0.0 if k is None else omega[k] - omega[l]
        terms.append((c, k, l, d_a, d_b, -shift + d_a * nu_a + d_b * nu_b))
    return space, terms, frame


def build(space, terms) -> TimeDependentOperator:
    """The model as the library stores it: a term at nu = 0 is static."""
    return TimeDependentOperator(space, [term[:5] for term in terms if term[5] == 0.0],
                                 [([term[:5]], term[5]) for term in terms if term[5] != 0.0])


def dense_term(space, k, l, d_a, d_b) -> np.ndarray:
    """|k><l| (x) a^d_a (x) b^d_b on the dense space, a negative power the creation operator."""
    atom = np.eye(space.atom_levels)
    sigma = atom if k is None else np.outer(atom[k], atom[l])
    powers = []
    for dim, d in ((space.dim_a, d_a), (space.dim_b, d_b)):
        lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        powers.append(np.linalg.matrix_power(lower if d >= 0 else lower.T, abs(d)))
    return np.kron(np.kron(sigma, powers[0]), powers[1])


def dense_h(space, terms, t=0.0) -> np.ndarray:
    """H(t): every term at its phase plus its adjoint, but a static diagonal
    term alone."""
    h = np.zeros((space.total_dim,) * 2, dtype=complex)
    for c, k, l, d_a, d_b, nu in terms:
        op = c * np.exp(1j * nu * t) * dense_term(space, k, l, d_a, d_b)
        h += op if nu == 0.0 and k == l and d_a == d_b == 0 else op + op.conj().T
    return h


def frame_row(space, k, l, d_a, d_b) -> np.ndarray:
    """A term's frame equation in the unknowns (one energy per level, nu_a,
    nu_b): d_m - d_n = -nu at its elements (m, n)."""
    atom = np.eye(space.atom_levels)
    return np.concatenate((0.0 * atom[0] if k is None else atom[k] - atom[l], [-d_a, -d_b]))


def dense_evolution(generator, psi, times) -> np.ndarray:
    """The rows expm(-i generator t) psi, one per time, from one dense eigh."""
    energies, basis = scipy.linalg.eigh(generator)
    return (np.exp(-1j * np.outer(times, energies)) * (basis.conj().T @ psi)) @ basis.T


def starts(space):
    """A basis state or random amplitudes on a random support."""
    basis = st.integers(0, space.total_dim - 1).map(lambda k: np.eye(space.total_dim)[k])

    def scattered(seed):
        rng = np.random.default_rng(seed)
        amps = (rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim))
        amps *= rng.random(space.total_dim) < rng.uniform(0.05, 0.5)
        amps[rng.integers(space.total_dim)] += 1.0
        return amps / np.linalg.norm(amps)

    return st.one_of(basis, st.integers(0, 2**32 - 1).map(scattered))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_evolve_td_matches_the_dense_frame_solution(data):
    space, terms, frame = data.draw(models())
    psi0 = data.draw(starts(space))
    t0 = data.draw(st.sampled_from([0.0, 0.37]))
    steps = data.draw(st.lists(st.floats(0.05, 0.8), min_size=1, max_size=3))
    grid = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    walked = []

    def spy(*args):
        keep, states = _evolve_entries(*args)
        walked.append((args[:4], keep))
        return keep, states

    with pytest.MonkeyPatch.context() as m:
        m.setattr(propagate, "_evolve_entries", spy)
        traj = evolve_td(build(space, terms), StateVector(space, psi0), grid)
    generator = dense_h(space, terms) - np.diag(frame)
    phi0 = np.exp(1j * frame * t0) * psi0
    for t, state in zip(grid, traj.states):
        exact = np.exp(-1j * frame * t) * (scipy.linalg.expm(-1j * (t - t0) * generator) @ phi0)
        assert np.max(np.abs(state.amplitudes - exact)) <= 1e-10
    assert traj.ok and np.all(np.abs(traj.norms - 1.0) <= 1e-10)
    # the reached set: the components of H(0) - D's graph that psi0 meets
    ((dim, row, col, val), keep), = walked
    reached = reached_components(sp.csr_matrix((val, (row, col)), shape=(dim, dim)),
                                 np.flatnonzero(psi0))
    assert np.array_equal(np.sort(keep), reached)
    outside = np.setdiff1d(np.arange(dim), reached)
    assert not np.any([state.amplitudes[outside] for state in traj.states])
    # the same generator with a uniform grid appended, rows x reached^2 drawn
    # on either side of PACK_BUDGET: every time row and grid row
    side = data.draw(st.sampled_from([0.25, 4.0]))
    count = int(np.clip(round(side * PACK_BUDGET / reached.size**2) - grid.size, 1, 3000))
    step = data.draw(st.floats(0.05, 2.0)) / count
    row, col = np.nonzero(generator)
    keep, states = _evolve_entries(dim, row, col, generator[row, col], phi0, grid - t0,
                                   grid=(step, count))
    every = np.concatenate((grid - t0, np.arange(1, count + 1) * step))
    exact = dense_evolution(generator[np.ix_(keep, keep)], phi0[keep], every)
    assert states.shape == exact.shape and np.max(np.abs(states - exact)) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_term_at_two_frequencies_has_no_frame(data):
    # the same nonzero term at nu and at nu + 1 asks d_m - d_n for two values
    space, terms, _ = data.draw(models())
    c, k, l, d_a, d_b, nu = terms[0]
    assume(not (k == l and d_a == d_b == 0) and np.any(c * dense_term(space, k, l, d_a, d_b)))
    h = build(space, [*terms, (c, k, l, d_a, d_b, nu + 1.0)])
    with pytest.raises(PropagationError, match="no static rotating frame"):
        evolve_td(h, StateVector(space, np.eye(space.total_dim)[0]), [0.0, 0.1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_shifted_frequency_breaks_the_frame_exactly_when_its_equation_is_spanned(data):
    # shifting one nonzero term's nu changes one right-hand side: a system
    # whose other rows span that term's row has no solution left, any other
    # one a frame D' that absorbs the shift
    space, terms, _ = data.draw(models())
    j = data.draw(st.integers(0, len(terms) - 1))
    live = [i for i, (c, *label, _) in enumerate(terms)
            if np.any(c * dense_term(space, *label))]
    assume(j in live)
    c, k, l, d_a, d_b, nu = terms[j]
    terms[j] = (c, k, l, d_a, d_b, nu + data.draw(st.sampled_from([-2.0, -0.5, 1.0, 2.5])))
    system = np.array([frame_row(space, *terms[i][1:5]) for i in live])
    others = np.delete(system, live.index(j), axis=0)
    spanned = np.linalg.matrix_rank(system) == np.linalg.matrix_rank(others)
    psi0 = data.draw(starts(space))
    grid = np.array([0.0, 0.3, 0.9])
    if spanned:
        with pytest.raises(PropagationError, match="no static rotating frame"):
            evolve_td(build(space, terms), StateVector(space, psi0), grid)
        return
    rhs = -np.array([terms[i][5] for i in live])
    x = np.linalg.lstsq(system, rhs, rcond=None)[0]
    assert np.max(np.abs(system @ x - rhs)) <= 1e-9
    level, n_a, n_b = np.indices(space.shape).reshape(3, -1)
    frame = np.column_stack([np.eye(space.atom_levels)[level], n_a, n_b]) @ x
    static = dense_h(space, terms)  # e^{iD't} H(t) e^{-iD't} = H(0) at a generic t
    turned = np.exp(1j * np.subtract.outer(frame, frame) * 0.61) * dense_h(space, terms, 0.61)
    assert np.max(np.abs(turned - static)) <= 1e-9 * max(np.abs(static).max(), 1.0)
    traj = evolve_td(build(space, terms), StateVector(space, psi0), grid)
    exact = dense_evolution(static - np.diag(frame), psi0, grid)
    exact *= np.exp(-1j * np.outer(grid, frame))
    assert np.max(np.abs(np.array([state.amplitudes for state in traj.states]) - exact)) <= 1e-10


@st.composite
def walked_operators(draw):
    """(space, Operator, amps): a drawn model's H(0) - D, plus up to three
    one-sided 1e-20 entries where the model has none on either side (they
    may join its components, or sit on the diagonal), some entries split in
    two halves at one position, which the Operator's CSR keeps apart; and a
    basis, random-support or full-support start."""
    space, terms, frame = draw(models())
    dim, dense = space.total_dim, dense_h(space, terms) - np.diag(frame)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row, col = np.nonzero(dense)
    val = dense[row, col]
    empty = np.argwhere((dense == 0) & (dense.T == 0))
    stray = empty[rng.permutation(len(empty))[:draw(st.integers(0, 3))]]
    row, col = np.concatenate((row, stray[:, 0])), np.concatenate((col, stray[:, 1]))
    val = np.concatenate((val, np.full(len(stray), 1e-20)))
    twice = rng.random(row.size) < draw(st.sampled_from([0.0, 0.3]))
    val = np.where(twice, val / 2, val)
    row, col = np.concatenate((row, row[twice])), np.concatenate((col, col[twice]))
    val = np.concatenate((val, val[twice]))
    by_row = np.argsort(row, kind="stable")  # a CSR given its indices is not summed
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=dim))))
    operator = Operator(space, sp.csr_matrix((val[by_row], col[by_row], indptr), shape=(dim, dim)))
    assert operator.matrix.nnz == row.size

    def full(seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return amps / np.linalg.norm(amps)

    return space, operator, draw(st.one_of(starts(space), st.integers(0, 2**32 - 1).map(full)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_sector_walk_is_scipys_breadth_first_walk(data):
    # the walk over the reached states and the re-walk of each path entered
    # inside: starts ascending, states in queue order, neighbours ascending
    space, operator, amps = data.draw(walked_operators())
    walks, walk = [], propagate._walk

    def spy(keys, dim, starts):
        walks.append((list(starts), walk(keys, dim, starts)))
        return walks[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(propagate, "_walk", spy)
        evolve_sectors(operator, amps, [0.0, 0.3])
    entries = operator.matrix.tocoo()
    assert walks[0][0] == np.flatnonzero(amps).tolist()
    for starts, got in walks:
        assert got == walk_order(space.total_dim, entries.row, entries.col, starts)


LAM, DELTA = 7e5, 1e7
COMPLEX = dict(lambda_a=4.2e5 - 5.6e5j, lambda_b=3e5 + 5e5j, omega_cl=6e5 * np.exp(0.7j))


@st.composite
def one_band_models(draw):
    """(space, offset, upper): G = band + band^dag with the band stored as
    ``hilbert._band`` stores it, upper[j] at (j, j + offset) or, below the
    diagonal, at (j - offset, j): a random band with some exact zeros at
    either sign of its offset or on the diagonal, a reduced generator's or a
    two-photon exchange's, at most 150 states."""
    kind = draw(st.sampled_from(["random", "reduced", "two_photon"]))
    if kind == "random":
        dim = draw(st.integers(1, 150))
        offset = draw(st.integers(0, dim - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = (rng.normal(size=dim - offset) + 1j * rng.normal(size=dim - offset))
        upper *= rng.random(dim - offset) > rng.uniform(0.0, 0.5)
        return field_space(dim - 1, 0), draw(st.sampled_from([1, -1])) * offset, upper
    if kind == "reduced":
        n_a = draw(st.integers(0, 11))
        space = field_space(n_a, draw(st.integers(0, 150 // (n_a + 1) - 1)))
        process = draw(st.sampled_from(["PUC", "PDC", "DEGENERATE_PDC"]))
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, process=process)
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, delta_small=resonance_delta(params),
                                process=process)
        return space, *_reduced_band(space, params)
    # with no photon room in a mode, TMS is stored at offset -1 or 0
    space = make_space(3, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return space, *two_photon_band(space, draw(st.sampled_from(["BS", "TMS"])))


def two_photon_band(space, kind):
    params = PhysicalParams(LAM, 0.6 * LAM * np.exp(0.4j), 0.0, DELTA, 0.0,
                            ProcessKind(f"TWO_PHOTON_{kind}"))
    return _two_photon_band(space, params, kind)


def assert_band_path_is_the_walk(space, offset, upper, times, starts=None,
                                 limit=propagate.CHAIN_SECTOR_LIMIT):
    """From each start, every basis state by default, ``_evolve_band`` returns
    ``_evolve_entries``' keep and states byte for byte, a path of more than
    limit states taking the exponential action.  Given starts lie at an end
    of their run, from which both order it."""
    entries = _band_entries(space, [(1.0, (offset, upper)), (1.0, (-offset, upper.conj()))])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(propagate, "CHAIN_SECTOR_LIMIT", limit)
        for start in range(space.total_dim) if starts is None else starts:
            band_keep, band_states = _evolve_band(offset, upper, start, times)
            keep, states = _evolve_entries(space.total_dim, *entries,
                                           np.eye(space.total_dim)[start], times)
            assert np.array_equal(band_keep, keep), start
            assert band_states.shape == states.shape, start
            assert band_states.tobytes() == states.tobytes(), start
            assert starts is None or keep[0] == start, start


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_band_path_equals_the_sector_path_bit_for_bit(data):
    # a run entered at an end is ordered from it, one entered inside from
    # the end the walk reaches last: the farther one, the top one on a tie
    space, offset, upper = data.draw(one_band_models())
    scale = np.abs(upper).max(initial=0.0) or 1.0
    times = np.array([0.0, *sorted(data.draw(st.lists(st.floats(0.05, 3.0), min_size=1,
                                                        max_size=3)))]) / scale
    assert_band_path_is_the_walk(space, offset, upper, times)


OMEGA = 7e5


def resonant(process, lambda_a=LAM, lambda_b=LAM, omega_cl=OMEGA):
    """PhysicalParams at drive resonance, where the reduced generators exist."""
    params = PhysicalParams(lambda_a, lambda_b, omega_cl, DELTA, 0.0, process)
    return PhysicalParams(lambda_a, lambda_b, omega_cl, DELTA, resonance_delta(params), process)


PUC, PDC, DEGENERATE = ProcessKind.PUC, ProcessKind.PDC, ProcessKind.DEGENERATE_PDC
# (params, truncation, the Fock state (n_a, n_b) at one end of its run)
RUN_ENDS = {
    "PUC-top": (resonant(PUC), (4, 4), (1, 0)),
    "PUC-bottom": (resonant(PUC), (4, 4), (0, 3)),
    "PUC-complex-lopsided-top": (resonant(PUC, 3e5 - 4e5j, 6e5 + 2e5j), (1, 7), (1, 0)),
    "PUC-negative-lopsided-top": (resonant(PUC, omega_cl=-OMEGA), (7, 2), (5, 0)),
    "PUC-no_room_in_b": (resonant(PUC), (6, 0), (1, 0)),  # offset 0: no hops
    "PDC-vacuum-lopsided": (resonant(PDC, -1j * LAM, 5e5 + 2e5j, 6e5 + 1e5j), (30, 44), (0, 0)),
    "PDC-bottom": (resonant(PDC, -1j * LAM), (9, 12), (0, 3)),
    "PDC-xi_zero": (resonant(PDC, -1j * LAM, omega_cl=0.0), (6, 6), (0, 0)),
    "degenerate-vacuum": (resonant(DEGENERATE), (90, 0), (0, 0)),
    "degenerate-odd-lopsided": (resonant(DEGENERATE), (9, 2), (1, 2)),
    # long runs entered at their top end: ordered from there, as the walk orders them
    "PDC-top_corner": (resonant(PDC, -1j * LAM), (30, 30), (30, 30)),
    "PDC-small-top_corner": (resonant(PDC, -1j * LAM), (4, 4), (4, 4)),
    "degenerate-top": (resonant(DEGENERATE), (85, 0), (85, 0)),
    "PUC-long-top": (resonant(PUC), (9, 9), (9, 0)),
}

TWO_PHOTON = {
    "real": PhysicalParams(LAM, LAM, 0.0, DELTA, 0.0, ProcessKind.TWO_PHOTON_BS),
    "complex": PhysicalParams(4.2e5 - 5.6e5j, 3e5 + 5e5j, 0.0, -1.3e7, 0.0,
                              ProcessKind.TWO_PHOTON_TMS),
}


def fixed_bands():
    """(models, starts, time lists, chain limit) of each fixed case, a model
    (space, (offset, upper)): a reduced generator's run entered at one end,
    at the chain and the expm limit, for a product of many rows and of one;
    and the two-photon bands from every start, whose runs hold at most two
    states, with no photon room in mode a too, where TMS is stored at offset
    -1 (n_max_a = 0) or 0 ([1, 0])."""
    chain = propagate.CHAIN_SECTOR_LIMIT
    for name, (params, truncation, fock) in RUN_ENDS.items():
        space = field_space(*truncation)
        for limit, tag in ((chain, "chain"), (2, "expm")):
            yield pytest.param([(space, _reduced_band(space, params))], [space.flatten(0, *fock)],
                               [[0.0, 1e-4, 0.0, 3e-4], [3e-4]], limit, id=f"{name}-{tag}")
    times = [[0.0, 2e-6, 1e-5]]
    for coupling, params in TWO_PHOTON.items():
        for kind in ("BS", "TMS"):
            for truncation in ((1, 1), (2, 2), (3, 4)):
                space = make_space(3, *truncation)
                yield pytest.param([(space, _two_photon_band(space, params, kind))], None, times,
                                   chain, id=f"two_photon-{coupling}-{kind}-{truncation}")
    for kind in ("BS", "TMS"):
        spaces = [make_space(3, n_max_a, n_max_b) for n_max_b in range(7) for n_max_a in (0, 1)]
        yield pytest.param([(space, two_photon_band(space, kind)) for space in spaces], None,
                           times, chain, id=f"two_photon-no_room_in_a-{kind}")


@pytest.mark.parametrize("models, starts, times, limit", fixed_bands())
def test_fixed_band_paths_reproduce_the_sector_walk_bit_for_bit(models, starts, times, limit):
    # below the chain limit the tridiagonal eigensolve, above it the exponential action
    for space, (offset, upper) in models:
        for each in times:
            assert_band_path_is_the_walk(space, offset, upper, each, starts, limit)


def frame_cases(truncation):
    """(name, space, Operator, (row, col, val)) of H(0) - D for every builder:
    the Operator from sparse arithmetic on H(0), the entries from the bands."""
    space = make_space(3, *truncation)
    for build_h, process in ((full_puc_hamiltonian, "PUC"), (full_pdc_hamiltonian, "PDC"),
                             (effective_puc_hamiltonian, "PUC"),
                             (effective_pdc_hamiltonian, "PDC")):
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, delta_small=1.2e5, process=process)
        h = build_h(space, params)
        d, entries = h.frame()
        yield build_h.__name__, space, Operator(space, h.at(0.0).matrix - sp.diags(d)), entries


def band_cases(truncation):
    """The reduced generators and both two-photon kinds, as built and as
    the entries of their band and its adjoint."""
    fields = field_space(*truncation)
    for process in ("PUC", "PDC", "DEGENERATE_PDC"):
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, process=process)
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, delta_small=resonance_delta(params),
                                process=process)
        offset, upper = _reduced_band(fields, params)
        yield (process, fields, reduced_bilinear_generator(fields, params),
               _band_entries(fields, [(1.0, (offset, upper)), (1.0, (-offset, upper.conj()))]))
    space = make_space(3, *truncation)
    for kind in ("BS", "TMS"):
        params = PhysicalParams(LAM, 0.6 * LAM * np.exp(0.4j), 0.0, DELTA, 0.0,
                                ProcessKind(f"TWO_PHOTON_{kind}"))
        offset, upper = _two_photon_band(space, params, kind)
        yield (kind, space, two_photon_hamiltonian(space, params, kind),
               _band_entries(space, [(1.0, (-offset, upper.conj())), (1.0, (offset, upper))]))


def per_sector_solves(dim, entries, amps, times, keep, grid=(0.0, 0)):
    """The states ``_evolve_entries`` returns with columns in keep's order,
    each reached component evolved by its own ``_evolve_path`` call; None
    when one is not a path in that order."""
    row, col, val = entries
    block = sp.csr_matrix((val, (row, col)), shape=(dim, dim))[keep][:, keep].toarray()
    r, c = np.nonzero(block)
    if np.any(np.abs(r - c) > 1):
        return None
    diagonal, hops = 0.0 + block.diagonal().real, 0.0 + np.diagonal(block, 1)  # as summed from 0
    cuts = np.flatnonzero(np.diff(connected_components(block != 0, directed=False)[1])) + 1
    psi, times = amps[keep], np.asarray(times, dtype=float)
    states = np.empty((times.size + grid[1], keep.size), dtype=np.complex128)
    for low, high in zip([0, *cuts], [*cuts, keep.size]):
        _evolve_path(diagonal[low:high], hops[low:high - 1], psi[low:high], times,
                     states[:, low:high], grid)
    states[np.concatenate((times, np.arange(1, grid[1] + 1) * grid[0])) == 0.0] = psi
    return states


@pytest.mark.parametrize("truncation", [(1, 2), (3, 3), (4, 1)], ids=str)
@pytest.mark.parametrize("cases", [frame_cases, band_cases])
def test_the_operator_adapter_equals_the_band_entries_bit_for_bit(cases, truncation):
    # and a basis start, which reaches one component, is that component's
    # own chain solve where it is a path
    times = [0.0, 3e-7, 2e-6, 1.5e-5]
    for name, space, operator, entries in cases(truncation):
        rng = np.random.default_rng(len(name))
        amps = [np.eye(space.total_dim)[k] for k in range(space.total_dim)]
        for _ in range(3):  # random supports
            scattered = rng.normal(size=space.total_dim) * (rng.random(space.total_dim) < 0.3)
            amps.append(scattered + 1j * rng.normal(size=space.total_dim) * (scattered != 0))
        for k, psi in enumerate(amps):
            keep, states = evolve_sectors(operator, psi, times)
            same, direct = _evolve_entries(space.total_dim, *entries, psi, times)
            assert np.array_equal(keep, same), name
            assert states.tobytes() == direct.tobytes(), name
            if k < space.total_dim:  # None: one of the effective builders' dense components
                reference = per_sector_solves(space.total_dim, entries, psi, times, keep)
                assert reference is None or direct.tobytes() == reference.tobytes(), name


def test_a_call_over_the_budget_solves_each_sector_apart_bit_for_bit():
    # 3005 rows of any two states exceed PACK_BUDGET: every one of the full
    # frames' path components, reached from a full support, is solved alone
    times, grid = [0.0, 3e-7, 2e-6, 1.5e-5], (1e-9, 3000)
    assert (len(times) + grid[1]) * 2**2 > PACK_BUDGET
    for name, space, operator, entries in frame_cases((3, 3)):
        if name.startswith("full"):
            amps = [1.0, 1j] @ np.random.default_rng(7).normal(size=(2, space.total_dim))
            keep, states = _evolve_entries(space.total_dim, *entries, amps, times, grid=grid)
            assert connected_components(operator.matrix != 0)[0] > 1 and keep.size == amps.size
            reference = per_sector_solves(space.total_dim, entries, amps, times, keep, grid)
            assert states.tobytes() == reference.tobytes(), name
