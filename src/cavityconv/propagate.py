"""Norm-preserving time evolution under static and oscillating Hamiltonians.

A static generator, given by its entries (row, col, val), is evolved only on
the connected components of its sparsity graph that the initial state reaches
(nothing couples them to the rest), found by one breadth-first walk per
reached component, in plain Python, over one sorted adjacency per call: the
keys row dim + col of both orientations of the entries, sorted once, in which
each reached state's neighbours are bisected (``_adjacency``, ``_walk``), so
only the reached states are visited, in scipy's breadth_first_order order;
the entries of the reached rows are relabelled by walk rank, so every later
step follows the reached states, not the whole space (``_evolve_entries``).  An
``Operator`` enters it directly, its CSR read as COO (``evolve_static``).
The reduced bilinear generators and the two-photon exchange skip even that: a
Fock state is evolved straight from one of their bands (``_evolve_band``),
index arithmetic finding its run, so no whole-space matrix or walk is made,
yet it returns the walk's order and bytes, from every start and at either sign
of the band's offset.  Every path, a band's run or a component whose
off-diagonal graph is one, such as every conserved sector of the bilinear
generators and of the full models, is ordered by one rule: from the start when
it is an end, else from the end the walk reaches last, the farther one (the
top one on a tie).  It is evolved by ``_evolve_path``: the diagonal gauge
u_{k+1} = u_k conj(h_k) / |h_k| makes its hops h_k real, and one real
tridiagonal eigensolve, which also gives ``tomography`` its displacements,
gives G = (UV) E (UV)^dag.  Consecutive path components of one call share that
solve while rows x states^2 of the pack stays within PACK_BUDGET: no entry
joins two components, so the packed tridiagonal holds an exact 0 hop at each
seam, where the solver splits it into their blocks.
Any other component of at most DENSE_SECTOR_LIMIT states is diagonalized by
one dense eigh.  Either way every requested time is one product
UV (e^{-iEt} * (UV)^dag psi0); an appended uniform scan t = k step,
k = 1..count, takes its phases from two tables of about sqrt(count) rows, so
it costs about 2 sqrt(count) exponentials per eigenvalue, not count, and is
written block by block straight into the result, the coarse table folded
into the eigenbasis, so no phase buffer of the scan exists.  A component
above its limit takes one matrix-exponential action per nonzero time, on a
fixed seed.  Every branch writes its columns into the one result array, in
the walk order of the reached states, which is returned with it unsorted.
Each row's norm, scan rows included, is checked in one real pass, which also
writes psi0 at every time of 0.
Times whose phases carry no precision, their rounding |E| t eps exceeding a
radian (|E| bounded by the largest absolute row sum), are refused, as is
any time that is not finite, before any arithmetic uses it.  An oscillating
Hamiltonian is evolved in the rotating frame its model solves
(``hamiltonians.TimeDependentOperator.frame``), straight from the entries of
H(0) - D that the frame returns.

Every builder stores each coupling once, as a band half, and its adjoint is
added only where the bands are summed, so every generator it builds is
Hermitian by construction and neither evolution checks it; only
``evolve_static``, the one entry that takes an operator from outside, checks
its whole matrix.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import expm_multiply

from .hilbert import Operator, StateVector

# LAPACK's real tridiagonal divide and conquer, the solver eigh_tridiagonal
# runs for select='a' after its Python-side checks: (E, V, info) = _stevd(d, e)
_stevd, = get_lapack_funcs(("stevd",), (np.zeros(1),))

# Largest norm change a static evolution accepts in any returned state.
STATIC_NORM_DRIFT_LIMIT = 1e-9

# Largest path component diagonalized by one real tridiagonal eigensolve; a
# larger one takes one expm_multiply per time (single-time crossover:
# ~1000 states, see CHANGES.md).
CHAIN_SECTOR_LIMIT = 1000

# Largest rows x states^2 of consecutive path components evolved by one chain
# solve, rows the times plus grid times (at least 1): two equal paths that
# just fit ran 1-21 % faster packed than solved apart at 2**13 but up to 7 %
# slower at 2**15, and time_dependent gained 14 % at either (see CHANGES.md).
PACK_BUDGET = 2**13

# Largest other component diagonalized by one dense eigh; a larger one takes
# one expm_multiply per time (single-time crossover: ~300 states, see CHANGES.md).
DENSE_SECTOR_LIMIT = 300


class PropagationError(RuntimeError):
    """Evolution failed to meet its norm contract or has no exact frame, or
    refused its times; a refusal's ``path`` names the config fields at fault
    (comma-separated, before the ``message``), else it is None."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.message, self.path = message, path


@dataclass
class Trajectory:
    """Recorded samples of one propagation run.

    ``ok`` flips to False (with ``failure`` explaining why) when any recorded
    norm differs from the first recorded one, the initial state's, by more
    than NORM_DRIFT_LIMIT (1e-7): a start of norm 2 that keeps it is ok.
    Norms are measured, never hidden by renormalization.
    """

    times: np.ndarray
    states: list[StateVector]
    norms: np.ndarray
    ok: bool = True
    failure: str | None = None


NORM_DRIFT_LIMIT = 1e-7


def _adjacency(dim: int, row: np.ndarray, col: np.ndarray) -> memoryview:
    """The keys s dim + j of the sparsity graph, ascending: one per entry
    stored at (s, j) and one per entry at (j, s), so the neighbours j of state
    s, a duplicate kept, are the run of keys in [s dim, (s + 1) dim).  One
    sort by timsort, which merges ascending runs: each band of entries is one
    in either orientation, so the sort is near linear for band entries."""
    keys = np.concatenate((row, col), dtype=np.int64)
    keys *= dim
    keys += np.concatenate((col, row))
    return memoryview(np.sort(keys, kind="stable"))


def _walk(keys: memoryview, dim: int, starts) -> tuple[list[int], list[int]]:
    """(order, sizes): the states of one breadth-first walk over the adjacency
    from each start that no earlier walk reached, concatenated in walk order,
    and the size of each walk.  A walk takes its states in queue order and
    each state's neighbours ascending, as scipy's breadth_first_order does;
    it bisects the keys for each state it reaches and marks only those, so
    only they become Python ints."""
    order, sizes, seen = [], [], set()
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        walk = [start]
        for state in walk:  # the list grows under the loop: a queue
            base = state * dim
            low = bisect_left(keys, base)
            for near in keys[low:bisect_left(keys, base + dim, low)].tolist():
                near -= base
                if near not in seen:
                    seen.add(near)
                    walk.append(near)
        order += walk
        sizes.append(len(walk))
    return order, sizes


def _check_finite(times: np.ndarray, path: str) -> None:
    """Refuse, naming path, a time that is not finite: no phase of it exists."""
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise PropagationError(f"time {bad[0]} is not finite", path)


def _check_phase_precision(scale: float, times, path: str) -> None:
    """Refuse times at which phases up to scale * |t| carry no precision: their
    rounding, scale * eps * max|t|, exceeds a radian.  path names the times.
    Decided on Python floats, eps taken first, so an overflowing phase is
    inf, not a numpy warning; the message bounds it by the largest float and
    names the largest |t| that keeps the rounding within a radian.
    A non-finite scale is refused first, naming no field: it comes from a
    non-finite generator, which no config builds."""
    scale = float(scale)
    if not math.isfinite(scale):
        raise PropagationError(f"the generator has a non-finite entry on the reached "
                               f"states (largest row sum {scale})")
    eps = sys.float_info.epsilon
    rounding = scale * eps * float(np.max(np.abs(times), initial=0.0))
    if not rounding <= 1.0:
        phase = rounding / eps  # exact: eps is a power of 2
        reach = f"{phase:.3e}" if math.isfinite(phase) else f"over {sys.float_info.max:.3e}"
        raise PropagationError(f"phases reach {reach} rad, whose rounding alone ({rounding:.1e} "
                               f"rad) exceeds a radian; it stays within one for |t| up to "
                               f"{1.0 / (scale * eps):.3e}", path)


def _chain_eigh(diagonal: np.ndarray, hops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, UV) with G = (UV) E (UV)^dag for the chain G with real diagonal and
    hops G[k, k + 1] = hops[k]: the gauge u_{k+1} = u_k conj(h_k) / |h_k|
    makes the hops real, and one real tridiagonal eigensolve gives E and V.
    The inputs are not checked for finiteness: every evolution has refused a
    non-finite chain in ``_check_phase_precision`` already, and the
    displacements' X = l + l^dag (zeros and sqrt n) is finite by construction."""
    # ?stevd takes max(n - 1, 1) off-diagonal entries: a one-state chain has none
    energies, basis, info = _stevd(diagonal, np.abs(hops) if hops.size else np.zeros(1))
    if info:
        raise PropagationError(f"the tridiagonal eigensolve failed (LAPACK ?stevd info {info})")
    gauge = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(hops)))))
    return energies, gauge[:, None] * basis


def _eigen_states(energies: np.ndarray, basis: np.ndarray, psi: np.ndarray, times,
                  out: np.ndarray, grid: tuple[float, int] = (0.0, 0)) -> None:
    """Write into out the rows basis (e^{-i energies t} * basis^dag psi), one per
    time and then one per grid time k step, k = 1..count for grid = (step, count).

    A grid row is fine[r] @ weighted[q] with k - 1 = q m + r: fine[r] holds the
    phases at (r + 1) step and weighted[q] = coarse[q] basis^T the phases at
    q m step times basis^dag psi, two tables of about sqrt(count) exponentials.
    Each block of m rows is written straight into out, all whole blocks by one
    batched product and a partial last block by one more, so the grid rows
    have no phase buffer.  For n eigenvalues, m = max(ceil(sqrt(count)), 4 n)
    keeps fine (m n entries) and weighted (ceil(count / m) n^2) each within
    about a quarter of the count n grid entries whenever n <= count / 16."""
    step, count = grid
    rate, coeff = -1j * energies, basis.conj().T @ psi
    head = np.outer(times, rate)
    np.exp(head, out=head)
    head *= coeff
    np.matmul(head, basis.T, out=out[:len(times)])
    if count:
        m = max(math.isqrt(count - 1) + 1, 4 * energies.size)
        blocks, rest = divmod(count, m)
        fine = np.exp(np.outer(np.arange(1, m + 1) * step, rate))
        coarse = np.exp(np.outer(np.arange(blocks + (rest > 0)) * m * step, rate))
        coarse *= coeff
        weighted = coarse[:, :, None] * basis.T
        tail = out[len(times):]
        np.matmul(fine, weighted[:blocks], out=tail[:blocks * m].reshape(blocks, m, energies.size))
        if rest:
            np.matmul(fine[:rest], weighted[blocks], out=tail[blocks * m:])


def _expm_states(block: sp.csr_matrix, psi: np.ndarray, times, out: np.ndarray) -> None:
    """Write into out the rows exp(-i block t) psi, one per nonzero time, each a
    seeded exponential action; a row at a time of 0 is left to
    ``_norm_checked``, which writes psi there for every branch."""
    caller = np.random.get_state()
    try:  # its norm estimates draw from NumPy's global generator: fix their draws
        for i in np.flatnonzero(times):
            np.random.seed(0)
            out[i] = expm_multiply((-1j * times[i]) * block, psi)
    finally:
        np.random.set_state(caller)


def _evolve_path(diagonal: np.ndarray, hops: np.ndarray, psi: np.ndarray, times,
                 out: np.ndarray, grid: tuple[float, int] = (0.0, 0)) -> None:
    """Write into out the rows of ``_eigen_states`` for the path G with real
    diagonal and hops G[k, k + 1] = hops[k]: up to CHAIN_SECTOR_LIMIT states
    from one ``_chain_eigh``, above it one seeded exponential action per
    time, grid times included, on G as ``sp.diags`` stores it (no zero entry,
    as in the stored pattern).  G may be several paths packed end to end,
    an exact 0 hop at each seam: the solver splits there, so each path's
    rows equal its own solve's to round-off."""
    if psi.size <= CHAIN_SECTOR_LIMIT:
        _eigen_states(*_chain_eigh(diagonal, hops), psi, times, out, grid)
        return
    step, count = grid
    block = sp.diags([0.0 + hops.conj(), diagonal, hops], [-1, 0, 1], format="csr")
    _expm_states(block, psi, np.concatenate((times, np.arange(1, count + 1) * step)), out)


def _norm_checked(states: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """states with psi at every time of 0; raises PropagationError when any
    other row's norm differs from psi's by more than STATIC_NORM_DRIFT_LIMIT
    or is not a number."""
    states[times == 0.0] = psi
    v = states.view(np.float64)  # every row's norm in one real pass
    drift = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", v, v)) - np.linalg.norm(psi)), initial=0.0)
    if not drift <= STATIC_NORM_DRIFT_LIMIT:  # NaN fails every comparison
        raise PropagationError(f"static evolution drifted the norm by {drift:.3e}")
    return states


def _evolve_entries(dim: int, row: np.ndarray, col: np.ndarray, val: np.ndarray,
                    amps: np.ndarray, times, path: str = "times",
                    grid: tuple[float, int] = (0.0, 0)) -> tuple[np.ndarray, np.ndarray]:
    """(keep, states) for the generator G of dimension dim with G[row, col] = val:
    the indices of the components of G's sparsity graph that amps reaches, in
    the walk order their columns were computed in (not sorted), and
    states[k, j] = (exp(-i G times[k]) amps)[keep[j]]; every other amplitude is
    exactly 0 and a time of 0 returns amps[keep].
    grid = (step, count) appends the rows at k step, k = 1..count, after the
    times rows, their phases factored (see ``_eigen_states``).  states is the
    one array of (rows x reached) size the call makes: every branch writes its
    sector's columns straight into it.
    The components are found by one ``_walk`` per reached component over
    the ``_adjacency`` of the entries, built once per call; the entries of
    the reached rows are then relabelled by walk rank, in the order given,
    so every later step follows the reached states.  A path component is
    ordered from its start when that is an end, else walked again from the
    end its walk reached last, as ``_evolve_band`` orders a run; that walk
    marks only its own component.
    Consecutive path components, in walk order, are evolved by one
    ``_evolve_path`` call on their concatenated diagonal and hops while rows
    x their states^2 stays within PACK_BUDGET (rows: times plus grid times,
    at least 1); a pack of one component, as a basis start has, is exactly
    that component's own solve.  Any other component takes the entries of
    its rows, in the order given, into a dense eigh or one exponential
    action per nonzero time.  An ``Operator`` enters with its CSR read as
    COO, as ``evolve_static`` passes it.
    G is trusted to be Hermitian, as every builder makes it.  Raises
    PropagationError on norm drift or, naming path, on a time that is not
    finite, before the walk, or on times whose phases carry no precision,
    grid rows included.
    """
    times = np.asarray(times, dtype=float)
    step, count = grid
    every = np.concatenate((times, np.arange(1, count + 1) * step)) if count else times
    _check_finite(every, path)
    keys = _adjacency(dim, row, col)
    order, size = _walk(keys, dim, np.flatnonzero(amps != 0).tolist())
    if not order:  # the zero state
        return np.empty(0, dtype=np.intp), np.empty((every.size, 0), dtype=np.complex128)
    order, size = np.array(order, dtype=np.intp), np.array(size)
    bounds = np.concatenate(([0], np.cumsum(size)))
    sector = np.repeat(np.arange(size.size), size)  # of every position
    rank = np.full(dim, -1)
    rank[order] = np.arange(order.size)
    take = np.flatnonzero(rank[row] >= 0)  # a reached entry's column is reached too
    row, col, val = rank[row[take]], rank[col[take]], val[take]
    _check_phase_precision(np.bincount(row, np.abs(val)).max(initial=0.0), every, path)  # max|E|

    def beyond(width):  # sectors holding an entry more than width off the diagonal
        flags = np.zeros(size.size, dtype=bool)
        flags[sector[row[np.abs(row - col) > width]]] = True
        return flags

    # a sector is a path, ordered from one end, when no entry lies more than
    # one place off the diagonal; a walk begun inside a path keeps every
    # entry within two places and ends at a path end, so walk again from there
    inside = np.flatnonzero(beyond(1) & ~beyond(2))
    if inside.size:
        position = np.arange(order.size)
        for k in inside:
            walk = _walk(keys, dim, [int(order[bounds[k + 1] - 1])])[0]
            position[rank[walk]] = np.arange(bounds[k], bounds[k + 1])
        row, col = position[row], position[col]
        order[position] = order.copy()
    far = beyond(1)
    diagonal = np.zeros(order.size)
    on = row == col
    np.add.at(diagonal, row[on], val[on].real)
    hop = np.zeros(order.size, dtype=np.complex128)
    up = col == row + 1
    np.add.at(hop, row[up], val[up])
    psi = amps[order]
    states = np.empty((every.size, order.size), dtype=np.complex128)
    # a pack starts at a dense sector, after one, or where the budget ends;
    # hop holds an exact 0 at each seam, as no entry joins two sectors
    packs, rows = [0], max(every.size, 1)
    for k in range(1, size.size):
        joined = rows * (bounds[k + 1] - bounds[packs[-1]]) ** 2 <= PACK_BUDGET
        if far[k] or far[packs[-1]] or not joined:
            packs.append(k)
    for k, end in zip(packs, [*packs[1:], size.size]):
        pos = slice(bounds[k], bounds[end])
        if not far[k]:
            _evolve_path(diagonal[pos], hop[bounds[k]:bounds[end] - 1], psi[pos], times,
                         states[:, pos], grid)
            continue
        e = sector[row] == k
        r, c = row[e] - bounds[k], col[e] - bounds[k]
        if size[k] <= DENSE_SECTOR_LIMIT:
            block = np.zeros((size[k], size[k]), dtype=np.complex128)
            np.add.at(block, (r, c), val[e])
            _eigen_states(*np.linalg.eigh(block), psi[pos], times, states[:, pos], grid)
        else:
            block = sp.csr_matrix((val[e], (r, c)), shape=(size[k], size[k]))
            _expm_states(block, psi[pos], every, states[:, pos])
    return order, _norm_checked(states, psi, every)


def _evolve_band(offset: int, upper: np.ndarray, start: int,
                 times) -> tuple[np.ndarray, np.ndarray]:
    """(keep, states) as ``_evolve_entries`` returns them, bit for bit, for
    G = band + band^dag and the Fock state |start>: the band holds upper[j]
    at (j, j + offset) for an offset >= 0 and at (j - offset, j) below the
    diagonal, as ``hilbert._band`` stores it.  A band at offset -k is read as
    its adjoint, conj(upper) at offset k, the same G.

    |start> reaches the run start + j offset between the nearest zero hops
    upper[m] (from m to m + offset) on either side, found by index arithmetic;
    at an offset of 0 the band is diagonal, G = 2 Re upper, with no hops.
    The run is ordered by the walk's rule: from |start> when it is an end,
    else from the farther end, the top one on a tie, which the walk reaches
    last.  keep is returned in that order: a run ordered from its top end is
    descending, each hop conjugated.  It is evolved by ``_evolve_path``.
    Only the band is stored and G = band + band^dag by construction, so no
    Hermitian check, whole-space matrix or walk is needed.  Raises
    PropagationError as ``_evolve_entries`` does.
    """
    times = np.asarray(times, dtype=float)
    _check_finite(times, "times")
    if offset < 0:  # 0.0 + clears the sign conj gives a zero imaginary part
        offset, upper = -offset, 0.0 + upper.conj()
    if offset:
        hops, here = upper[start % offset::offset], start // offset
        zero = np.flatnonzero(hops == 0)
        low = zero[zero < here].max(initial=-1) + 1
        high = zero[zero >= here].min(initial=hops.size)
        keep, hops = start + offset * np.arange(low - here, high - here + 1), hops[low:high]
        below, above = here - low, high - here  # hops to the bottom and the top end
    else:
        keep, hops, below, above = np.array([start]), upper[:0], 0, 0
    diagonal = np.zeros(keep.size)
    if not offset:  # from 0, as the bands are summed, so no zero keeps a minus sign
        diagonal += 2 * upper[start].real
    strength = np.abs(hops)  # max|E| <= the largest row sum |d_k| + |h_{k-1}| + |h_k|
    row_sums = (np.abs(diagonal) + np.concatenate(([0.0], strength))
                + np.concatenate((strength, [0.0])))
    _check_phase_precision(row_sums.max(), times, "times")
    if above == 0 or 0 < below <= above:  # ordered from the top end
        keep, hops = keep[::-1], 0.0 + hops[::-1].conj()
    psi = (keep == start).astype(np.complex128)
    states = np.empty((len(times), keep.size), dtype=np.complex128)
    _evolve_path(diagonal, hops, psi, times, states)
    return keep, _norm_checked(states, psi, times)


def evolve_static(H: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi0>, evolved only on the components of H's sparsity graph
    that meet the support of psi0 (for the bilinear generators, the conserved
    photon-number sectors it occupies); every other amplitude stays exactly 0.
    H's CSR, read as COO, enters ``_evolve_entries`` directly.  Raises
    ValueError for a non-Hermitian H, checked over the whole space.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    if not H.is_hermitian():
        raise ValueError("static evolution requires a Hermitian generator")
    M = H.matrix.tocoo()
    keep, states = _evolve_entries(H.space.total_dim, M.row, M.col, M.data, psi0.amplitudes, [t])
    amps = np.zeros_like(psi0.amplitudes)
    amps[keep] = states[0]
    return StateVector(psi0.space, amps, copy=False)


def evolve_td(H, psi0: StateVector, t_grid) -> Trajectory:
    """Propagate a ``TimeDependentOperator`` along a strictly increasing grid.

    H(t) is moved into its static rotating frame (``H.frame()``), where
    phi = e^{iDt} psi evolves under the static H(0) - D, straight from its
    band entries (``_evolve_entries``), so no Operator is built: every grid
    point is exact, however far apart.  The state and its norm are recorded
    at every grid point.  Raises PropagationError on a time that is not
    finite, before any arithmetic; when H(t) has no static frame; or, after
    the solve that finds the reached states, when the frame phases D t on
    them carry no precision.
    """
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array of times")
    _check_finite(t_grid, "times")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")

    d, generator = H.frame()
    phi0 = np.exp(1j * d * t_grid[0]) * psi0.amplitudes
    keep, phi = _evolve_entries(d.size, *generator, phi0, t_grid - t_grid[0])
    _check_phase_precision(np.abs(d[keep]).max(initial=0.0), t_grid, "times")
    amps = np.zeros((t_grid.size, phi0.size), dtype=np.complex128)
    amps[:, keep] = np.exp(-1j * np.outer(t_grid, d[keep])) * phi
    traj = Trajectory(times=t_grid.copy(), norms=np.linalg.norm(amps, axis=1),
                      states=[StateVector(psi0.space, a, copy=False) for a in amps])
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    if drift > NORM_DRIFT_LIMIT:
        traj.ok = False
        traj.failure = f"norm drifted by {drift:.3e} (limit {NORM_DRIFT_LIMIT})"
    return traj
