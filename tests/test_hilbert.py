import math

import numpy as np
import pytest
import scipy.sparse as sp

from cavityconv.hilbert import (
    DIM_CAP,
    HilbertSpace,
    Operator,
    SpaceMismatchError,
    annihilation,
    atomic_sigma,
    basis_state,
    creation,
    embed_atom,
    expectation,
    field_space,
    fock_state,
    make_space,
    number_operator,
    project_atom,
    vacuum_state,
)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    amps /= np.linalg.norm(amps)
    from cavityconv.hilbert import StateVector

    return StateVector(space, amps)


def test_make_space_dimensions():
    assert make_space(3, 0, 0).total_dim == 3
    assert make_space(3, 5, 5).total_dim == 108
    assert make_space(3, 10, 10).total_dim == 363


def test_make_space_rejects_bad_levels():
    for bad in (0, 1, 2, 4, 5):
        with pytest.raises(ValueError):
            make_space(bad, 3, 3)


def test_make_space_rejects_oversized():
    with pytest.raises(ValueError):
        make_space(3, 999, 999)
    assert 3 * 1000 * 1000 > DIM_CAP


def test_index_maps_bijective():
    space = make_space(3, 3, 5)
    seen = set()
    for k in range(space.total_dim):
        level, n_a, n_b = space.unflatten(k)
        assert space.flatten(level, n_a, n_b) == k
        seen.add((level, n_a, n_b))
    assert len(seen) == space.total_dim


def test_fock_numbers_match_unflatten():
    space = make_space(3, 2, 4)
    assert space.shape == (3, 3, 5)
    n_a, n_b = space.fock_numbers()
    for k in range(space.total_dim):
        level, na, nb = space.unflatten(k)
        assert n_a[k] == na and n_b[k] == nb
        assert np.unravel_index(k, space.shape) == (level, na, nb)


ORACLE_SPACES = [field_space(0, 0), field_space(0, 3), field_space(3, 0), field_space(4, 2),
                 make_space(3, 0, 0), make_space(3, 0, 3), make_space(3, 3, 0), make_space(3, 2, 4)]


def kron_annihilation(space, mode):
    """Reference a: identities on every other factor, joined by Kronecker products."""
    dims = (space.atom_levels, space.dim_a, space.dim_b)
    eye = [sp.identity(d) for d in dims]
    axis = 1 if mode == "a" else 2
    eye[axis] = sp.diags(np.sqrt(np.arange(1.0, dims[axis])), 1, shape=(dims[axis],) * 2)
    return sp.kron(sp.kron(eye[0], eye[1]), eye[2]).tocsr()


def assert_same_entries(op, reference):
    reference = sp.csr_matrix(reference)
    reference.eliminate_zeros()
    assert op.matrix.nnz == reference.nnz
    assert (op.matrix != reference).nnz == 0


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=str)
def test_elementary_operators_match_kronecker_products(space):
    for mode in ("a", "b"):
        lower = kron_annihilation(space, mode)
        assert_same_entries(annihilation(space, mode), lower)
        assert_same_entries(creation(space, mode), lower.T)
    if space.atom_levels == 1:
        return
    for k in range(space.atom_levels):
        for l in range(space.atom_levels):
            atom = sp.csr_matrix(([1.0], ([k], [l])), shape=(space.atom_levels,) * 2)
            assert_same_entries(atomic_sigma(space, k, l),
                                sp.kron(atom, sp.identity(space.field_dim)))


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=str)
def test_number_operator_is_the_diagonal_of_n(space):
    for mode, n in zip("ab", space.fock_numbers()):
        assert_same_entries(number_operator(space, mode), sp.diags(n.astype(float)))


def test_operator_keeps_every_nonzero_entry_at_any_scale():
    space = make_space(3, 2, 2)
    tiny = Operator(space, 1e-300 * sp.identity(space.total_dim))
    assert tiny.matrix.nnz == space.total_dim
    assert np.all(tiny.matrix.diagonal() == 1e-300)
    # exact zeros, and only those, are dropped, from a copy of the input
    zero = Operator(space, 0.0 * sp.identity(space.total_dim))
    assert zero.matrix.nnz == 0
    stored = sp.csr_matrix(([1.0, 0.0], ([0, 1], [0, 1])), shape=(space.total_dim,) * 2)
    assert Operator(space, stored).matrix.nnz == 1
    assert stored.nnz == 2 and np.array_equal(stored.data, [1.0, 0.0])


def test_annihilation_ladder_elements():
    space = field_space(5, 5)
    a = annihilation(space, "a")
    # a|1,0> = |0,0>
    out = a.apply(fock_state(space, 1, 0))
    assert abs(out.inner(fock_state(space, 0, 0)) - 1.0) < 1e-14
    # a|0,0> = 0
    assert a.apply(vacuum_state(space)).norm() == 0.0
    # <2| a |3> = sqrt(3)
    amp = fock_state(space, 2, 0).inner(a.apply(fock_state(space, 3, 0)))
    assert abs(amp - math.sqrt(3)) < 1e-14


def test_creation_is_adjoint_of_annihilation():
    space = make_space(3, 4, 3)
    for mode in ("a", "b"):
        a = annihilation(space, mode)
        diff = (creation(space, mode).matrix - a.matrix.conj().T)
        assert abs(diff).max() == 0.0


def test_commutator_below_truncation():
    # [a, a^dag] = 1 on every row with n < n_max; only the top row deviates
    space = field_space(6, 4)
    for mode, n_max in (("a", 6), ("b", 4)):
        a = annihilation(space, mode)
        comm = (a @ a.dag() - a.dag() @ a).to_dense()
        n_a, n_b = space.fock_numbers()
        n = n_a if mode == "a" else n_b
        eye = np.eye(space.total_dim)
        rows = n < n_max
        assert np.allclose(comm[rows], eye[rows], atol=1e-14)
        top = n == n_max
        assert not np.allclose(comm[top], eye[top])


def test_atomic_sigma_completeness_and_algebra():
    space = make_space(3, 2, 2)
    total = None
    for label in space.level_labels:
        proj = atomic_sigma(space, label, label)
        total = proj if total is None else total + proj
    assert np.allclose(total.to_dense(), np.eye(space.total_dim))
    # sigma_kl sigma_mn = delta_lm sigma_kn, exactly
    for k in space.level_labels:
        for l in space.level_labels:
            for m in space.level_labels:
                for n in space.level_labels:
                    prod = (atomic_sigma(space, k, l) @ atomic_sigma(space, m, n)).to_dense()
                    expected = atomic_sigma(space, k, n).to_dense() if l == m else 0.0
                    assert np.array_equal(prod, expected if l == m else np.zeros_like(prod))


def test_atomic_sigma_annihilates_empty_level():
    space = make_space(3, 1, 1)
    state = basis_state(space, "g", 0, 0)
    assert atomic_sigma(space, "g", "e").apply(state).norm() == 0.0


def test_atomic_sigma_rejects_bad_level():
    space = make_space(3, 1, 1)
    with pytest.raises(ValueError):
        atomic_sigma(space, "f", "g")
    with pytest.raises(ValueError):
        atomic_sigma(space, "q", "g")


def test_project_atom_examples():
    space = make_space(3, 1, 1)
    psi = basis_state(space, "i", 0, 0)
    on_i = project_atom(psi, "i")
    assert abs(on_i.norm() - 1.0) < 1e-14
    assert abs(on_i.inner(fock_state(on_i.space, 0, 0)) - 1.0) < 1e-14
    assert project_atom(psi, "g").norm() == 0.0

    mixed = (basis_state(space, "i", 1, 0).amplitudes
             + basis_state(space, "g", 0, 1).amplitudes) / math.sqrt(2)
    from cavityconv.hilbert import StateVector

    mixed = StateVector(space, mixed)
    part = project_atom(mixed, "i")
    assert abs(part.norm() ** 2 - 0.5) < 1e-14
    assert abs(part.inner(fock_state(part.space, 1, 0)) - 1 / math.sqrt(2)) < 1e-14


def test_project_atom_populations_sum_to_one():
    for seed in range(5):
        space = make_space(3, 3, 2)
        psi = random_state(space, seed)
        total = sum(project_atom(psi, lbl).norm() ** 2 for lbl in space.level_labels)
        assert abs(total - 1.0) < 1e-12


def test_embed_project_roundtrip():
    space = make_space(3, 2, 2)
    phi = random_state(field_space(2, 2), 7)
    psi = embed_atom(phi, space, "e")
    back = project_atom(psi, "e")
    assert np.allclose(back.amplitudes, phi.amplitudes)
    assert project_atom(psi, "g").norm() == 0.0


def test_expectation_number_and_identity():
    space = field_space(5, 5)
    n_op = number_operator(space, "a")
    assert expectation(n_op, vacuum_state(space)) == 0.0
    for n in range(1, 6):
        val = expectation(n_op, fock_state(space, n, 0))
        assert abs(val - n) < 1e-12
    from cavityconv.hilbert import identity_operator

    psi = random_state(space, 3)
    assert abs(expectation(identity_operator(space), psi) - 1.0) < 1e-12


def test_expectation_hermitian_is_real():
    space = field_space(4, 4)
    a = annihilation(space, "a")
    herm = a + a.dag()
    psi = random_state(space, 11)
    val = expectation(herm, psi)
    assert abs(val.imag) < 1e-12


def test_space_mismatch_rejected():
    s1 = field_space(3, 3)
    s2 = field_space(4, 3)
    with pytest.raises(SpaceMismatchError):
        annihilation(s1, "a") + annihilation(s2, "a")
    with pytest.raises(SpaceMismatchError):
        annihilation(s1, "a").apply(vacuum_state(s2))
    with pytest.raises(SpaceMismatchError):
        expectation(annihilation(s1, "a"), vacuum_state(s2))


def test_hermiticity_computed_once_per_operator(monkeypatch):
    from cavityconv import hilbert

    norms = []
    real_norm = hilbert._sparse_norm
    monkeypatch.setattr(hilbert, "_sparse_norm", lambda m: norms.append(m) or real_norm(m))
    a = annihilation(field_space(3, 3), "a")
    for op, expected in ((a + a.dag(), True), (a, False)):
        assert op.is_hermitian() is expected
        computed = len(norms)
        assert computed > 0
        assert op.is_hermitian() is expected
        assert len(norms) == computed
        norms.clear()


def test_operator_and_state_immutable():
    space = field_space(2, 2)
    op = annihilation(space, "a")
    with pytest.raises(AttributeError):
        op.space = space
    psi = vacuum_state(space)
    with pytest.raises(AttributeError):
        psi.amplitudes = None
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0
