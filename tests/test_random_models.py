"""Random labelled-term models against a dense oracle, and the Operator
adapter of the sector evolution against its band-entries path.

A drawn model is a space of 1-3 levels with n_max 0-6 per mode (at most 147
states) and 1-4 terms c |k><l| a^d_a b^d_b, d_a and d_b in -2..2, k = l =
None the identity on the atom.  Each term oscillates at the frequency a
drawn diagonal frame D = omega_level + nu_a n_a + nu_b n_b gives it, so an
exact frame exists, and e^{-iDt} expm(-i (t - t0) (H(0) - D)) e^{iDt0} psi0,
with H(0) and D built densely here, is the exact solution that ``evolve_td``
must reproduce.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
from cavityconv.propagate import PropagationError, _evolve_entries, _evolve_sectors, evolve_td

from oracles import reached_components

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


def dense_h0(space, terms) -> np.ndarray:
    """H(0): every term plus its adjoint, but a static diagonal term alone."""
    h = np.zeros((space.total_dim,) * 2, dtype=complex)
    for c, k, l, d_a, d_b, nu in terms:
        op = c * dense_term(space, k, l, d_a, d_b)
        h += op if nu == 0.0 and k == l and d_a == d_b == 0 else op + op.conj().T
    return h


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
    generator = dense_h0(space, terms) - np.diag(frame)
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


LAM, DELTA = 7e5, 1e7
COMPLEX = dict(lambda_a=4.2e5 - 5.6e5j, lambda_b=3e5 + 5e5j, omega_cl=6e5 * np.exp(0.7j))


def frame_cases(truncation):
    """(name, space, Operator, (row, col, val)) of H(0) - D for every builder:
    the Operator from sparse arithmetic on H(0), the entries from the bands."""
    space = make_space(3, *truncation)
    for build_h, process in ((full_puc_hamiltonian, "PUC"), (full_pdc_hamiltonian, "PDC"),
                             (effective_puc_hamiltonian, "PUC"),
                             (effective_pdc_hamiltonian, "PDC")):
        params = PhysicalParams(**COMPLEX, delta_big=DELTA, delta_small=1.2e5, process=process)
        h = build_h(space, params)
        d, entries = propagate._rotating_frame(h)
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


@pytest.mark.parametrize("truncation", [(1, 2), (3, 3), (4, 1)], ids=str)
@pytest.mark.parametrize("cases", [frame_cases, band_cases])
def test_the_operator_adapter_equals_the_band_entries_bit_for_bit(cases, truncation):
    times = [0.0, 3e-7, 2e-6, 1.5e-5]
    for name, space, operator, entries in cases(truncation):
        rng = np.random.default_rng(len(name))
        amps = [np.eye(space.total_dim)[k] for k in range(space.total_dim)]
        for _ in range(3):  # random supports
            scattered = rng.normal(size=space.total_dim) * (rng.random(space.total_dim) < 0.3)
            amps.append(scattered + 1j * rng.normal(size=space.total_dim) * (scattered != 0))
        for psi in amps:
            keep, states = _evolve_sectors(operator, psi, times)
            same, direct = _evolve_entries(space.total_dim, *entries, psi, times)
            assert np.array_equal(keep, same), name
            assert states.tobytes() == direct.tobytes(), name
