"""Seeded workload inputs, the operations that run them, and their checks.

Every operation goes through an entry point the library keeps:
``cavityconv.cli.main(["run", cfg, "--out", ...])`` for the scenario
workloads and ``evolve_td(H, psi0, grid)`` with default options for
``time_dependent``.  Functions are looked up on their module at call time,
so the traced run sees the wrapped versions.

Sizes and times are drawn per pass from fixed strata with a small seeded
jitter: the inputs change with the seed while the work in one pass stays
close to constant, which keeps the pass time comparable across seeds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import cavityconv
from cavityconv import cli, propagate

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Scenario defaults shared with the registry: couplings and detuning in s^-1.
COUPLING = 7e5
DETUNING = 1e7
XI_ABS = COUPLING**3 / DETUNING**2  # |xi| of the default PUC and PDC params

# Golden comparison: relative tolerance, plus an absolute floor for entries
# that are round-off (leakage at t = 0, protocol deviations, residuals).
GOLDEN_RTOL = 1e-10
GOLDEN_ATOL = 1e-13
# Physics oracles for seeded inputs.
ORACLE_TOL = 1e-9
SQUEEZE_TOL = 1e-8
TD_ORACLE_TOL = 1e-6
FRAME_RTOL = 1e-9
W_TWO_MODE = 4.0 / math.pi**2

WORKLOADS = ("defaults", "large_fock", "phase_space", "time_dependent")


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` receives what ``run`` returned and gives a failure reason or
    None.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass, made from the seed alone."""
    rng = np.random.default_rng(seed)
    if workload == "time_dependent":
        return _time_dependent(rng)
    makers = {
        "defaults": _defaults,
        "large_fock": _large_fock,
        "phase_space": _phase_space,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [
        _cli_op(workdir, k, config, flags, check)
        for k, (config, flags, check) in enumerate(makers[workload](rng))
    ]


# --- scenario workloads through the CLI ----------------------------------------

def _cli_op(workdir: Path, k: int, config: dict, flags: list[str], check) -> Op:
    cfg_path = workdir / f"op{k:02d}.json"
    out_path = workdir / f"op{k:02d}_out.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["run", str(cfg_path), "--out", str(out_path), *flags]

    def run():
        return cli.main(argv)

    def checked(code):
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(out_path.read_text())
            tables = {
                name: _read_csv(out_path.with_name(fname))
                for name, fname in doc.get("files", {}).items()
            }
        finally:
            # the next pass must write its own output, never find this one
            for written in workdir.glob(f"op{k:02d}_out*"):
                written.unlink()
        return check(config, flags, doc, tables)

    inputs = {key: value for key, value in config.items() if key != "scenario"}
    label = " ".join([config["scenario"], *flags, json.dumps(inputs, separators=(",", ":"))])
    return Op(label, run, checked)


def _read_csv(path: Path) -> list[list[float]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return [[float(cell) for cell in row] for row in rows[1:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b)) + GOLDEN_ATOL


def _golden(config, flags, doc, tables) -> str | None:
    ref = json.loads((GOLDEN_DIR / f"{config['scenario']}.json").read_text())
    gate_expected = ref["convergence_gate"]["checked"] and not flags
    if doc["convergence_gate"]["checked"] != gate_expected:
        return f"convergence gate ran: {not gate_expected}, expected {gate_expected}"
    if set(doc["metrics"]) != set(ref["metrics"]):
        return "metric names differ from the reference"
    for name, want in ref["metrics"].items():
        got = doc["metrics"][name]
        if isinstance(want, (bool, str)) or isinstance(got, (bool, str)):
            same = got == want
        else:
            same = _close(float(got), float(want))
        if not same:
            return f"metric {name} = {got!r}, reference {want!r}"
    if set(tables) != set(ref["tables"]):
        return "table names differ from the reference"
    for name, table in ref["tables"].items():
        rows = table["rows"]
        if len(tables[name]) != len(rows):
            return f"table {name} has {len(tables[name])} rows, reference {len(rows)}"
        for got_row, want_row in zip(tables[name], rows):
            if not all(_close(g, float(w)) for g, w in zip(got_row, want_row)):
                return f"table {name} row {want_row!r} differs: {got_row!r}"
    return None


def reference_scenarios() -> list[str]:
    """Scenarios with a stored reference document: the defaults workload."""
    return sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


def _defaults(rng):
    ops = [
        ({"scenario": name}, flags, _golden)
        for name in reference_scenarios()
        for flags in ([], ["--no-converge-check"])
    ]
    return [ops[k] for k in rng.permutation(len(ops))]


def _jitter(rng, centre: int, half_width: int) -> int:
    return int(centre + rng.integers(-half_width, half_width + 1))


def _gated(check):
    """Seeded scenario ops run with the CLI's default gate; it must have run."""
    def checked(config, flags, doc, tables):
        if not doc["convergence_gate"]["checked"]:
            return "convergence gate did not run"
        return check(config, doc["metrics"], tables)
    return checked


@_gated
def _check_pair_fidelity(config, m, tables):
    if abs(1.0 - m["fidelity_vs_analytic"]) > ORACLE_TOL:
        return f"fidelity_vs_analytic = {m['fidelity_vs_analytic']!r}"
    return None


@_gated
def _check_pair_variances(config, m, tables):
    if max(m["dev_x"], m["dev_p"]) > ORACLE_TOL + m["tail_bound"]:
        return f"dev_x = {m['dev_x']!r}, dev_p = {m['dev_p']!r}"
    return None


@_gated
def _check_squeeze(config, m, tables):
    dev = m["variance_deviation"]
    return None if dev <= SQUEEZE_TOL else f"variance_deviation = {dev!r}"


@_gated
def _check_swap(config, m, tables):
    p = m["p_swapped"]
    if abs(1.0 - p) > ORACLE_TOL:
        return f"p_swapped = {p!r}"
    rows = tables["populations"]
    if len(rows) != config["times"]["num"]:
        return f"populations table has {len(rows)} rows"
    for _, xi_t, p_10, p_01 in rows:
        if abs(p_10 - math.cos(xi_t) ** 2) > ORACLE_TOL or abs(p_01 - math.sin(xi_t) ** 2) > ORACLE_TOL:
            return f"populations at xi t = {xi_t} are ({p_10}, {p_01})"
    return None


def _large_fock(rng):
    ops = []
    for scenario, check, centres in (("pdc_epr", _check_pair_fidelity, (85, 105)),
                                     ("epr_variances", _check_pair_variances, (95, 115))):
        for centre in centres:
            n = _jitter(rng, centre, 1)
            tau = rng.uniform(0.95, 1.0) / XI_ABS
            ops.append(({"scenario": scenario, "truncation": [n, n], "times": [tau]}, [], check))
    for centre in (225, 275):
        n = _jitter(rng, centre, 2)
        tau = rng.uniform(1.9e-4, 2.0e-4)
        ops.append(({"scenario": "degenerate_squeeze", "truncation": [n, 0], "times": [tau]},
                    [], _check_squeeze))
    stop = rng.uniform(0.95, 1.05) * (math.pi / 2.0) / XI_ABS
    ops.append(({"scenario": "puc_swap", "truncation": [60, 60],
                 "times": {"start": 0.0, "stop": stop, "num": 41}}, [], _check_swap))
    return [ops[k] for k in rng.permutation(len(ops))]


_PARITY_AT_ORIGIN = {"tmsv": 1.0, "vacuum": 1.0, "one_photon": -1.0}


@_gated
def _check_wigner(config, m, tables):
    state = config["options"]["state"]
    if m["max_protocol_deviation"] > ORACLE_TOL:
        return f"max_protocol_deviation = {m['max_protocol_deviation']!r}"
    want = _PARITY_AT_ORIGIN[state] * W_TWO_MODE
    if abs(m["w_origin"] - want) > ORACLE_TOL * W_TWO_MODE:
        return f"w_origin = {m['w_origin']!r} for {state}, expected {want!r}"
    rows = tables["wigner"]
    if len(rows) != config["options"]["grid_points"] ** 2:
        return f"wigner table has {len(rows)} rows"
    if max(abs(row[4]) for row in rows) > W_TWO_MODE * (1.0 + ORACLE_TOL):
        return "a Wigner value exceeds the parity bound 4/pi^2"
    return None


def _phase_space(rng):
    states = list(_PARITY_AT_ORIGIN)
    grids = [7, 8, 9]
    rng.shuffle(grids)
    ops = []
    for state, grid_points in zip(states, grids):
        options = {"state": state, "grid_points": grid_points,
                   "grid_extent": float(rng.uniform(0.95, 1.05))}
        ops.append(({"scenario": "wigner_scan", "options": options}, [], _check_wigner))
    return [ops[k] for k in rng.permutation(len(ops))]


# --- time_dependent: evolve_td against a rotating-frame oracle ---------------

def _frame_diagonal(builder: str, space, delta: float) -> np.ndarray:
    """Diagonal D for which H(t) = e^{-iDt} H(0) e^{iDt}, solved by hand.

    Each nonzero element <m|H(t)|n> oscillating as e^{i nu t} needs
    d_m - d_n = -nu; D = omega_level + nu_a n_a + nu_b n_b meets every such
    condition of the builder.
    """
    n_a, n_b = space.fock_numbers()
    level = np.repeat(np.arange(space.atom_levels), space.field_dim)
    excited = (level == space.level_index("e")).astype(float)
    if builder == "full_pdc":
        return -DETUNING * n_a + (DETUNING - delta) * n_b - delta * excited
    if builder == "effective_pdc":
        return -delta * n_b - delta * excited
    return delta * n_b - delta * excited  # full_puc and effective_puc


_TD_BUILDERS = {
    # builder: (process, span range in s); the spans give every call about
    # the same cost, so the median call is not a jump between two clusters
    "full_pdc": ("PDC", (5.0e-8, 5.2e-8)),
    "full_puc": ("PUC", (5.0e-7, 5.2e-7)),
    "effective_pdc": ("PDC", (4.7e-7, 4.9e-7)),
    "effective_puc": ("PUC", (4.7e-7, 4.9e-7)),
}
TD_CALLS_PER_BUILDER = 3
TD_GRID_POINTS = 5


def _time_dependent(rng) -> list[Op]:
    ops = []
    for builder, (process, span_range) in _TD_BUILDERS.items():
        for _ in range(TD_CALLS_PER_BUILDER):
            params = cavityconv.PhysicalParams(
                lambda_a=COUPLING * rng.uniform(0.95, 1.05),
                lambda_b=COUPLING * rng.uniform(0.7, 0.75) * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                omega_cl=COUPLING * rng.uniform(0.8, 0.85),
                delta_big=DETUNING,
                delta_small=float(rng.choice([-1.0, 1.0]) * rng.uniform(1.1e5, 1.3e5)),
                process=process,
            )
            space = cavityconv.make_space(3, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            H = getattr(cavityconv, f"{builder}_hamiltonian")(space, params)
            amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
            psi0 = cavityconv.StateVector(space, amps / np.linalg.norm(amps))
            grid = np.linspace(0.0, rng.uniform(*span_range), TD_GRID_POINTS)
            ops.append(_td_op(builder, H, psi0, grid, params.delta_small))
    return [ops[k] for k in rng.permutation(len(ops))]


def _td_op(builder: str, H, psi0, grid, delta: float) -> Op:
    label = f"{builder} {H.space.n_max_a},{H.space.n_max_b}"

    def run():
        return propagate.evolve_td(H, psi0, grid)

    oracle = []  # computed on the first check, off the clock

    def check(traj):
        if not traj.ok:
            return f"trajectory failed: {traj.failure}"
        if not oracle:
            oracle.append(_td_oracle(builder, H, psi0, grid, delta))
        exact = oracle[0]
        if isinstance(exact, str):
            return exact
        if len(traj.states) != len(exact):
            return f"{len(traj.states)} recorded states for {len(exact)} grid points"
        dist = max(np.linalg.norm(s.amplitudes - e) for s, e in zip(traj.states, exact))
        return None if dist <= TD_ORACLE_TOL else f"distance to the frame oracle {dist:.3e}"

    return Op(label, run, check)


def _td_oracle(builder, H, psi0, grid, delta):
    """States e^{-iDt} expm(-i t (H(0) - D)) psi0 on the grid, or a reason
    why the hand-solved frame does not make H static."""
    d = _frame_diagonal(builder, H.space, delta)
    h0 = H.at(0.0).to_dense()
    t = grid[-1] / 3.0
    rotated = np.exp(1j * d * t)[:, None] * H.at(t).to_dense() * np.exp(-1j * d * t)[None, :]
    scale = np.abs(h0).max()
    if np.abs(rotated - h0).max() > FRAME_RTOL * scale:
        return "the hand-solved frame does not make H(t) static"
    generator = h0 - np.diag(d)
    return [
        np.exp(-1j * d * t) * (scipy.linalg.expm(-1j * t * generator) @ psi0.amplitudes)
        for t in grid
    ]
