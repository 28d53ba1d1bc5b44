"""Config-driven experiment runner.

Each registered scenario reproduces one headline quantity of the two-mode
conversion scheme (beam-splitter swap, pair-state quality and variances,
full-vs-effective model agreement, Gaussian-profile squeezing, Bell-pair
preparation, phase-space scans) from a single JSON config.  Runs are
deterministic: the same config on the same build yields byte-identical
output text.

Unless disabled, every run passes a convergence gate: the scenario's
headline metric is recomputed with both Fock truncations raised by 4 and
must move by less than 1e-6, and a reported ``tail_bound`` (the pair-state
probability beyond the truncation) must not exceed ``tomography.TAIL_LIMIT``.
The rerun is metric-only (``gate_only``): it computes the gate metric by the
same arithmetic as the full run and skips the rest, so two checks of the
configured run are not repeated at the raised truncation: the Wigner grid's
displaced-tail check in ``wigner_scan`` and the norm check on the dense-scan
rows in ``full_vs_effective``.  Every refusal before the metric still runs,
its size caps counting what the rerun builds (one scan point, no dense scan).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import observables as obs
from . import tomography as tomo
from .hamiltonians import (
    PhysicalParams,
    ProcessKind,
    TraversalSpec,
    _reduced_band,
    _two_photon_band,
    effective_xi,
    fit_traversal_alpha,
    full_puc_hamiltonian,
    profile_squeezing_factor,
    resonance_delta,
    two_photon_coupling,
)
from .hilbert import DIM_CAP, StateVector, basis_state, field_space, make_space
from .propagate import PropagationError, _evolve_band, _evolve_entries

# Typical microwave-cavity Rydberg numbers used as scenario defaults.
DEFAULT_COUPLING = 7e5   # s^-1
DEFAULT_DETUNING = 1e7   # s^-1
DEFAULT_TAU = 2e-4       # s

# Regression constant for the full-vs-effective fidelity bound
# 1 - C (lambda/Delta)^2, frozen after the initial convergence study
# (measured worst-case C = 0.79 at the default grid and truncation).
FULL_VS_EFFECTIVE_C = 2.0

# Leakage bound 10 (lambda/Delta)^2 holds at the documented default sampling
# (101 points); a dense scan of DENSE_SCAN_POINTS uniform times from 0 to the
# last time, appended as _evolve_entries grid rows, is reported alongside as
# max_leakage_dense because the continuous-time peak is slightly higher.
# leakage_bound is a reported reference, not a gate: off the default detuning
# the sampled leakage can exceed it and the run still exits 0 (delta_big 1e8
# gives max_leakage 5.30e-4 against a bound of 4.90e-4).
LEAKAGE_BOUND_FACTOR = 10.0
DENSE_SCAN_POINTS = 20001

GATE_TOLERANCE = 1e-6
GATE_STEP = 4


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration; ``path`` names the config
    fields at fault (comma-separated, before the ``message``), else it is None."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.message, self.path = message, path


class ConvergenceGateError(RuntimeError):
    """The configured truncation does not resolve the scenario's result:
    the headline metric still moves when the truncation is raised, or a
    reported tail bound exceeds its limit (``value_plus`` is then None)."""

    def __init__(self, reason: str, metric: str, value: float, value_plus: float | None = None):
        self.metric = metric
        self.value = value
        self.value_plus = value_plus
        super().__init__(f"convergence gate failed: {reason}")


# --- config schema --------------------------------------------------------------
# A scenario's registry ``defaults`` alone states which keys its config and its
# sections accept and what each field defaults to (when absent or null); a
# scenario lists only the fields its body or its gate reads.
# ``_FIELDS`` maps each field path to its parser; other paths are sections.  The
# config echo holds the parsed values, and the serializer renders them as JSON.

@dataclass(frozen=True)
class ResolvedConfig:
    scenario: str
    outputs: tuple[str, ...]
    params: PhysicalParams | None = None
    truncation: tuple[int, int] | None = None
    times: tuple[float, ...] | None = None
    traversal: dict | None = None
    options: dict = field(default_factory=dict)


def _number(value, above: float = -math.inf) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not above < value < math.inf):
        raise ValueError(f"expected a number in ({above}, inf), got {value!r}")
    return float(value)


_positive = partial(_number, above=0.0)


def _count(value, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
    return value


def _complex(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = _number(value[0]), _number(value[1])
        if math.isinf(math.hypot(re, im)):
            raise ValueError(f"expected a complex number of finite modulus, got {value!r}")
        return complex(re, im)
    return complex(_number(value))


def _detuning(value) -> float:
    if not 0.0 < _number(value) * value < math.inf:  # couplings divide by delta_big^2
        raise ValueError(f"expected a detuning whose square is finite and nonzero, got {value!r}")
    return float(value)


def _truncation(value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected [n_max_a, n_max_b], got {value!r}")
    n_max = (_count(value[0]), _count(value[1]))
    make_space(3, *n_max)  # the largest space any scenario builds must fit the dimension cap
    return n_max


def _times(value) -> tuple[float, ...] | None:
    if value is None:
        return None
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "num"}:
            raise ValueError(f"a range needs exactly start, stop and num, got {sorted(value)}")
        num = _count(value["num"], 1)
        if num > DIM_CAP:
            raise ValueError(f"{num} points exceed cap {DIM_CAP}")
        grid = np.linspace(_number(value["start"]), _number(value["stop"]), num)
        times = tuple(float(t) for t in grid)
    elif isinstance(value, (list, tuple)) and value:
        times = tuple(_number(t) for t in value)
    else:
        raise ValueError(f"expected a non-empty list or a start/stop/num range, got {value!r}")
    if times[0] < 0.0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError(f"expected non-negative, strictly increasing times, got {value!r}")
    return times


def _outputs(value) -> tuple[str, ...]:
    if not isinstance(value, list) or any(not isinstance(o, str) for o in value):
        raise ValueError(f"expected a list of metric names, got {value!r}")
    return tuple(value)


def _wigner_state(value) -> str:
    if value not in ("vacuum", "one_photon", "tmsv"):
        raise ValueError(f"expected vacuum, one_photon or tmsv, got {value!r}")
    return value


def _sweep_target(value) -> str:
    entry = SCENARIOS.get(value) if isinstance(value, str) else None
    if entry is None or entry.gate_metric is None:
        raise ValueError(f"{value!r} is no scenario with a truncation-dependent metric")
    return value


def _n_max_list(value) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of truncations, got {value!r}")
    n_max_list = [_count(n) for n in value]
    if len(n_max_list) < 2 or any(n2 <= n1 for n1, n2 in zip(n_max_list, n_max_list[1:])):
        raise ValueError(f"expected at least two strictly increasing truncations, got {value!r}")
    return n_max_list


def _target_config(value) -> dict:
    if not isinstance(value, dict) or {"scenario", "truncation"} & set(value):
        raise ValueError(f"expected an object without scenario or truncation, got {value!r}")
    return dict(value)


_FIELDS: dict[str, Callable] = {
    "truncation": _truncation,
    "times": _times,
    "outputs": _outputs,
    "params.lambda_a": _complex,
    "params.lambda_b": _complex,
    "params.omega_cl": _complex,
    "params.delta_big": _detuning,
    "params.process": ProcessKind,
    "traversal.waist_w": _positive,
    "traversal.alpha": lambda alpha: None if alpha is None else _positive(alpha),
    "options.grid_points": lambda n: _count(n, 1),
    "options.grid_extent": _number,
    "options.state": _wigner_state,
    "options.fit_tau": _positive,
    "options.fit_target_r": _positive,
    "options.target": _sweep_target,
    "options.n_max_list": _n_max_list,
    "options.target_config": _target_config,
}


def _parse(path: str, parse: Callable, value):
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc), path) from None


def _resolve(defaults: dict, raw, prefix: str = "", within: str = "") -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}", prefix[:-1] or "config")
    unknown = sorted(f"{prefix}{key}" for key in set(raw) - set(defaults))
    if unknown:  # within + prefix spells the container as the outer config does
        raise ConfigError(f"unknown in {(within + prefix)[:-1] or 'config'} "
                          f"(allowed: {sorted(defaults)})", ", ".join(unknown))
    values = {}
    for key, default in defaults.items():
        path = prefix + key
        if path in _FIELDS:
            value = raw.get(key)
            values[key] = _parse(path, _FIELDS[path], default if value is None else value)
        else:
            values[key] = _resolve(default, raw.get(key, {}), path + ".", within)
    return values


def resolve_config(raw: dict, within: str = "") -> ResolvedConfig:
    """Validate a raw config dict against its scenario's registry defaults;
    within is the dotted prefix of a config nested in another."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(SCENARIOS))}"
        )
    defaults = SCENARIOS[name].defaults
    values = _resolve(defaults, {k: v for k, v in raw.items() if k != "scenario"}, within=within)
    if "params" in values:
        process, modelled = values["params"]["process"].value, defaults["params"]["process"]
        if process != modelled:
            raise ConfigError(f"{name} models {modelled} only, not {process}", "params.process")
        values["params"] = _physical_params(values["params"])
    return ResolvedConfig(scenario=name, **values)


_DRIVEN = (ProcessKind.PUC, ProcessKind.PDC, ProcessKind.DEGENERATE_PDC)


def _physical_params(fields: dict) -> PhysicalParams:
    # a field the scenario does not list plays no part in it and is fixed at 0
    params = PhysicalParams(**{"omega_cl": 0.0, **fields})
    if not params.dispersive:
        strongest = max(abs(params.lambda_a), abs(params.lambda_b), abs(params.omega_cl))
        raise ConfigError(
            "every model here assumes the dispersive regime |delta_big| >= 10x every coupling, "
            f"got |delta_big| = {abs(params.delta_big):.6g} and a coupling of {strongest:.6g}",
            "params.lambda_a, params.lambda_b, params.omega_cl, params.delta_big")
    # conversion needs the drive on resonance; the two-photon processes leave it off
    if params.process in _DRIVEN:
        if not cmath.isfinite(effective_xi(params)):
            raise ConfigError(
                "omega_cl lambda_a lambda_b overflows the coupling xi",
                "params.omega_cl, params.lambda_a, params.lambda_b, params.delta_big")
        return replace(params, delta_small=resonance_delta(params))
    return params


def _echo_config(cfg: ResolvedConfig) -> dict:
    """The resolved value of every field the scenario lists."""
    echo = {"scenario": cfg.scenario}
    for key, default in SCENARIOS[cfg.scenario].defaults.items():
        value = getattr(cfg, key)
        # params is a PhysicalParams; traversal and options hold only listed keys
        echo[key] = {name: getattr(value, name) for name in default} if key == "params" else value
    return echo


# --- bell preparation ---------------------------------------------------------

_BELL_TARGETS = ("psi+", "psi-", "phi+", "phi-")


def prepare_bell(target: str, params: PhysicalParams, n_max: tuple[int, int] = (2, 2)):
    """Single-atom Bell-pair preparation and post-selection.

    Quarter-period evolution under the drive-off two-photon Hamiltonian
    (photon exchange for psi targets, pair creation for phi targets), atomic
    projection onto (|g> +/- |e>)/sqrt2 matching the target sign, then a
    recorded mode-b phase rotation bringing the pair into the standard Bell
    convention.  Returns (post-selected field state, protocol transcript).
    """
    if target not in _BELL_TARGETS:
        raise ValueError(f"unknown Bell target {target!r}; valid: {_BELL_TARGETS}")
    if params.process not in (ProcessKind.TWO_PHOTON_BS, ProcessKind.TWO_PHOTON_TMS):
        raise ValueError("prepare_bell needs two-photon process params")
    kind = "BS" if target.startswith("psi") else "TMS"
    coupling = two_photon_coupling(params, kind)
    t_quarter = (math.pi / 4.0) / abs(coupling) if coupling else math.inf
    if math.isinf(t_quarter):
        raise ValueError(f"two-photon coupling {coupling!r} gives no finite interaction time")

    if min(n_max) < 1:
        raise ValueError(f"the Bell pairs need n_max >= 1 in both modes, got {n_max}")
    space = make_space(3, *n_max)
    level, n_a, initial_label = ("g", 1, "|g;1,0>") if kind == "BS" else ("e", 0, "|e;0,0>")
    start = space.flatten(space.level_index(level), n_a, 0)
    keep, states = _evolve_band(*_two_photon_band(space, params, kind), start, [t_quarter])

    sign = +1.0 if target.endswith("+") else -1.0
    # the run holds g and e states alone (levels 0 and 1): one field block each
    g_e = np.zeros((2, space.field_dim), dtype=np.complex128)
    g_e[np.divmod(keep, space.field_dim)] = states[0]
    post = StateVector(space.field_subspace(), (g_e[0] + sign * g_e[1]) / math.sqrt(2.0),
                       copy=False)
    success = post.norm() ** 2
    post = post.normalized()

    # standardizing single-mode phase rotation exp(i phase_b n_b)
    if kind == "BS":
        phase_b = math.pi / 2.0 - cmath.phase(coupling)
    else:
        phase_b = math.pi / 2.0 + cmath.phase(coupling)
    _, n_b = post.space.fock_numbers()
    mapped = StateVector(post.space, np.exp(1j * phase_b * n_b) * post.amplitudes, copy=False)
    fid = obs.bell_state_fidelity(mapped, target)

    components = {}
    for (n_a_val, n_b_val) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        amp = mapped.amplitudes[mapped.space.flatten(0, n_a_val, n_b_val)]
        if abs(amp) > 1e-12:
            components[f"|{n_a_val},{n_b_val}>"] = [amp.real, amp.imag]
    transcript = {
        "target": target,
        "interaction": kind,
        "coupling": coupling,
        "interaction_time": t_quarter,
        "initial_state": initial_label,
        "atomic_projection": f"(|g> {'+' if sign > 0 else '-'} |e>)/sqrt2",
        "success_probability": success,
        "mode_b_phase": phase_b,
        "post_selected_components": components,
        "bell_fidelity": fid,
    }
    return mapped, transcript


# --- scenario implementations ---------------------------------------------------

def _swap_setup(cfg: ResolvedConfig):
    """|xi| and the field space of the scenarios that start in |1,0>, watch
    |0,1> and measure time in units of 1/|xi|."""
    xi_abs = abs(effective_xi(cfg.params))
    if xi_abs == 0.0 or math.isinf((math.pi / 2.0) / xi_abs):
        raise ConfigError(
            f"the effective coupling |xi| = {xi_abs!r} gives no finite conversion time scale",
            "params.omega_cl, params.lambda_a, params.lambda_b")
    if min(cfg.truncation) < 1:
        raise ConfigError("the swap |1,0> -> |0,1> needs n_max >= 1 in both modes", "truncation")
    return xi_abs, field_space(*cfg.truncation)


def _evolved_vacuum(cfg: ResolvedConfig) -> tuple:
    """The vacuum evolved under the reduced generator for the last configured
    time, as the observables' support (space, keep, amps) of its chain; keep
    is ascending, the vacuum being the bottom end of its run."""
    space = field_space(*cfg.truncation)
    keep, states = _evolve_band(*_reduced_band(space, cfg.params), 0, [cfg.times[-1]])
    return space, keep, states[0]


def _scenario_puc_swap(cfg: ResolvedConfig, gate_only: bool = False):
    xi_abs, space = _swap_setup(cfg)
    t_swap = (math.pi / 2.0) / xi_abs
    times = (t_swap, *(cfg.times or ()))
    keep, states = _evolve_band(*_reduced_band(space, cfg.params), space.flatten(0, 1, 0), times)
    p_10, p_01 = (np.sum(np.abs(states[:, keep == space.flatten(0, *n)]) ** 2, axis=1)
                  for n in ((1, 0), (0, 1)))
    n_a, n_b = space.fock_numbers()
    photon_sum = float(np.sum(np.abs(states[0]) ** 2 * (n_a + n_b)[keep]))
    metrics = {
        "xi_abs": xi_abs,
        "swap_time": t_swap,
        "p_swapped": float(p_01[0]),
        "p_residual": float(p_10[0]),
        "photon_sum_drift": abs(photon_sum - 1.0),
    }
    tables = {}
    if cfg.times:
        tables["populations"] = {
            "columns": ["t", "xi_t", "p_10", "p_01"],
            "rows": [[t, xi_abs * t, float(p_10[k]), float(p_01[k])]
                     for k, t in enumerate(cfg.times, start=1)],
        }
    return metrics, tables, {}


def _scenario_pdc_epr(cfg: ResolvedConfig, gate_only: bool = False):
    tau = cfg.times[-1]
    state = _evolved_vacuum(cfg)
    xi = effective_xi(cfg.params)
    xi_abs = abs(xi)
    r = xi_abs * tau
    spec = obs.TmsvSpec(squeeze_param=r, phase=cmath.phase(xi))
    analytic = obs._tmsv_support(spec, state[0])
    metrics_obj = obs.epr_metrics(state)
    metrics = {
        "xi_abs": xi_abs,
        "tau": tau,
        "squeeze_param": r,
        "fidelity_vs_analytic": obs.fidelity(analytic, state),
        "vacuum_probability": obs.vacuum_probability(state),
        "mean_n_a": obs.mean_photon_number(state, "a"),
        "mean_n_b": obs.mean_photon_number(state, "b"),
        "var_x_minus": metrics_obj.var_x_minus,
        "var_p_plus": metrics_obj.var_p_plus,
        "quality_operational": metrics_obj.quality,
        "quality_analytic": obs.tmsv_quality(r),
        "tail_bound": obs.tmsv_tail_mass(spec, min(cfg.truncation)),
    }
    return metrics, {}, {}


def _scenario_epr_quality(cfg: ResolvedConfig, gate_only: bool = False):
    xi = effective_xi(cfg.params)
    xi_abs = abs(xi)
    space = field_space(*cfg.truncation)
    rows = []
    for tau in cfg.times:
        r = xi_abs * tau
        spec = obs.TmsvSpec(squeeze_param=r, phase=cmath.phase(xi))
        if math.tanh(r) == 1.0:
            raise ConfigError(
                f"the squeeze parameter r = |xi| t = {r:.6g} at t = {tau!r} "
                f"(|xi| = {xi_abs:.6g}) has tanh r = 1 in double precision, so the "
                "truncated pair state holds none of its probability; shorten times or "
                "reduce the effective coupling", "times, params")
        numeric = obs.epr_metrics(obs._tmsv_support(spec, space)).quality
        rows.append([
            tau,
            r,
            obs.tmsv_quality(r),
            numeric,
            obs.tmsv_tail_mass(spec, min(cfg.truncation)),
        ])
    tau, r, analytic, numeric, tail = rows[-1]
    metrics = {
        "xi_abs": xi_abs,
        "tau": tau,
        "squeeze_param": r,
        "quality_analytic": analytic,
        "quality_operational_numeric": numeric,
        "quality_deviation": abs(numeric - analytic),
        "tail_bound": tail,
    }
    tables = {}
    if len(rows) > 1:
        tables["quality_vs_time"] = {
            "columns": ["tau", "squeeze_param", "quality_analytic",
                        "quality_operational_numeric", "tail_bound"],
            "rows": rows,
        }
    return metrics, tables, {}


def _scenario_epr_variances(cfg: ResolvedConfig, gate_only: bool = False):
    tau = cfg.times[-1]
    xi_abs = abs(effective_xi(cfg.params))
    r = xi_abs * tau
    expected = math.exp(-2.0 * r) / 2.0
    m = obs.epr_metrics(_evolved_vacuum(cfg))
    spec = obs.TmsvSpec(squeeze_param=r)
    metrics = {
        "xi_abs": xi_abs,
        "tau": tau,
        "squeeze_param": r,
        "var_x_minus": m.var_x_minus,
        "var_p_plus": m.var_p_plus,
        "expected_variance": expected,
        "dev_x": abs(m.var_x_minus - expected),
        "dev_p": abs(m.var_p_plus - expected),
        "tail_bound": obs.tmsv_tail_mass(spec, min(cfg.truncation)),
    }
    return metrics, {}, {}


def _scenario_full_vs_effective(cfg: ResolvedConfig, gate_only: bool = False):
    params = cfg.params
    xi_abs, _ = _swap_setup(cfg)
    eps_sq = (max(abs(params.lambda_a), abs(params.lambda_b)) / abs(params.delta_big)) ** 2
    n_points = len(cfg.times) if cfg.times else cfg.options["grid_points"]
    # |i;1,0> reaches |i;1,0>, |i;0,1> and the g and e states with n_a + n_b = 2
    reached = 2 + 2 * sum(2 - cfg.truncation[1] <= n_a <= cfg.truncation[0] for n_a in range(3))
    # the gate's rerun builds no dense-scan rows: on at most twice the reached
    # states (4 at least, 8 at most) its rows fit whenever the run's do
    count = 0 if gate_only else DENSE_SCAN_POINTS - 1
    if (n_points + count) * reached > DIM_CAP:
        raise ConfigError(f"{n_points} points plus the {count}-point dense scan, "
                          f"times {reached} reached states, exceed cap {DIM_CAP}",
                          "times" if cfg.times else "options.grid_points")
    t_end = (math.pi / 2.0) / xi_abs
    times = np.array(cfg.times) if cfg.times else np.linspace(0.0, t_end, n_points)

    atom_space = make_space(3, *cfg.truncation)
    h_full = full_puc_hamiltonian(atom_space, params)
    if h_full.max_frequency() != 0.0:
        raise ConfigError("full_vs_effective requires symmetric couplings (static full model)",
                          "params.lambda_a, params.lambda_b")

    # the full model on its reached sector, also at the dense diagnostic sweep
    # that gives the continuous-time leakage envelope: its grid rows, after the
    # comparison times, at k step for k = 1..count; with no oscillation its
    # frame D is 0, and the entries are those of H(0)
    n_rows = times.size
    entries = h_full.frame()[1]
    keep, full = _evolve_entries(atom_space.total_dim, *entries,
                                 basis_state(atom_space, "i", 1, 0).amplitudes,
                                 times, "times" if cfg.times else "params.omega_cl, "
                                 "params.lambda_a, params.lambda_b, params.delta_big",
                                 (float(times[-1]) / (DENSE_SCAN_POINTS - 1), count))
    # the i-level amplitudes: |i;1,0> and |i;0,1> are the only i states reached
    i_10, i_01 = (np.sum(full[:, keep == atom_space.flatten(atom_space.level_index("i"), *n)],
                         axis=1) for n in ((1, 0), (0, 1)))
    population = np.abs(i_10) ** 2 + np.abs(i_01) ** 2
    leak = 1.0 - population
    # the reduced swap's Rabi solution cos(|xi| t)|1,0> - i (xi/|xi|) sin(|xi| t)|0,1>; the i-level
    # Stark shifts |lambda|^2 n / delta_big are a global phase on it, as |lambda_a| = |lambda_b|
    xi_t = xi_abs * times
    overlap = (i_10[:n_rows].conj() * np.cos(xi_t)
               - 1j * (effective_xi(params) / xi_abs) * i_01[:n_rows].conj() * np.sin(xi_t))
    fid = np.abs(overlap) ** 2 / np.where(population[:n_rows] > 0.0, population[:n_rows], 1.0)
    if gate_only:
        return {"fidelity_end": float(fid[-1])}, {}, {}
    rows = [[t, xi_abs * t, f, l]
            for t, f, l in zip(times.tolist(), fid.tolist(), leak[:n_rows].tolist())]

    metrics = {
        "xi_abs": xi_abs,
        "lambda_over_delta_sq": eps_sq,
        "t_end": float(times[-1]),
        "fidelity_end": rows[-1][2],
        "min_fidelity": float(np.min(fid[times > 0.0], initial=1.0)),
        "fidelity_bound": 1.0 - FULL_VS_EFFECTIVE_C * eps_sq,
        "regression_constant_c": FULL_VS_EFFECTIVE_C,
        "max_leakage": float(np.max(leak[:n_rows], initial=0.0)),
        "max_leakage_dense": float(np.max(leak[n_rows:], initial=0.0)),
        "leakage_bound": LEAKAGE_BOUND_FACTOR * eps_sq,
    }
    tables = {
        "comparison": {
            "columns": ["t", "xi_t", "fidelity", "leakage"],
            "rows": rows,
        }
    }
    return metrics, tables, {}


def _scenario_gaussian_profile(cfg: ResolvedConfig, gate_only: bool = False):
    params = cfg.params
    waist, alpha = cfg.traversal["waist_w"], cfg.traversal["alpha"]
    fit_tau = cfg.options["fit_tau"]
    if cfg.times[0] <= 0.0:
        raise ConfigError("a crossing takes a positive time", "times")
    for tau, path in ((max(cfg.times), "times"), (fit_tau, "options.fit_tau")):
        if not math.isfinite(profile_squeezing_factor(params, tau=tau)):
            raise ConfigError(f"the flat squeezing factor 2 |xi| tau overflows at tau = {tau!r}",
                              path)
    fitted = alpha is None
    if fitted:
        try:
            alpha = fit_traversal_alpha(params, waist, fit_tau, cfg.options["fit_target_r"])
        except ValueError as exc:
            raise ConfigError(str(exc), "options.fit_target_r") from None
    rows = []
    for tau in cfg.times:
        spec = TraversalSpec(waist_w=waist, alpha=alpha, tau=tau)
        rows.append([
            tau,
            profile_squeezing_factor(params, spec),
            profile_squeezing_factor(params, tau=tau),
        ])
    tau, r_profile, r_flat = rows[-1]
    spec_fit = TraversalSpec(waist_w=waist, alpha=alpha, tau=fit_tau)
    metrics = {
        "xi_abs": abs(effective_xi(params)),
        "waist_w": waist,
        "alpha": alpha,
        "alpha_fitted": fitted,
        "fit_tau": fit_tau,
        "r_at_fit_tau": profile_squeezing_factor(params, spec_fit),
        "tau": tau,
        "r": r_profile,
        "r_flat": r_flat,
    }
    tables = {}
    if len(rows) > 1:
        tables["squeezing_vs_time"] = {
            "columns": ["tau", "r_profile", "r_flat"],
            "rows": rows,
        }
    return metrics, tables, {}


def _scenario_degenerate_squeeze(cfg: ResolvedConfig, gate_only: bool = False):
    params = cfg.params
    tau = cfg.times[-1]
    xi_abs = abs(effective_xi(params))
    r = 2.0 * xi_abs * tau

    var_x, var_p = obs.quadrature_variances(_evolved_vacuum(cfg), "a")
    numeric = min(var_x, var_p)
    metrics = {
        "xi_abs": xi_abs,
        "tau": tau,
        "r": r,
        "variance_analytic": obs.squeezed_variance(r),
        "squeezing_percent_analytic": 100.0 * obs.tmsv_quality(r),
        "variance_numeric": numeric,
        "anti_variance_numeric": max(var_x, var_p),
        "variance_deviation": abs(numeric - obs.squeezed_variance(r)),
    }
    return metrics, {}, {}


def _scenario_bell_prep(cfg: ResolvedConfig, gate_only: bool = False):
    if min(cfg.truncation) < 1:
        raise ConfigError("the Bell pairs need n_max >= 1 in both modes", "truncation")
    metrics = {}
    transcripts = {}
    slug = {"psi+": "psi_plus", "psi-": "psi_minus", "phi+": "phi_plus", "phi-": "phi_minus"}
    for target in _BELL_TARGETS:
        try:
            _, transcript = prepare_bell(target, cfg.params, cfg.truncation)
        except ValueError as exc:
            raise ConfigError(str(exc), "params.lambda_a, params.lambda_b") from None
        metrics[f"fidelity_{slug[target]}"] = transcript["bell_fidelity"]
        metrics[f"success_prob_{slug[target]}"] = transcript["success_probability"]
        transcripts[target] = transcript
    metrics["min_fidelity"] = min(
        metrics[f"fidelity_{slug[t]}"] for t in _BELL_TARGETS
    )
    return metrics, {}, {"transcripts": transcripts}


def _scenario_wigner_scan(cfg: ResolvedConfig, gate_only: bool = False):
    dim_a, dim_b = (n + 1 for n in cfg.truncation)
    # the scan holds its points, and per axis value one displaced field and
    # each mode's (n_max + 1)^2 eigenvector matrix of l + l^dag; the gate's
    # rerun reads the origin alone, one point, at its raised truncation
    n_points = 1 if gate_only else cfg.options["grid_points"]
    sizes = {"field amplitudes": dim_a * dim_b,
             "mode-a matrix entries": dim_a * dim_a, "mode-b matrix entries": dim_b * dim_b}
    over = [f"{n_points} x {size} {what}" for what, size in {"points": n_points, **sizes}.items()
            if n_points * size > DIM_CAP]
    if over:  # a size over the cap at a single point is the truncation's fault
        truncation = "truncation (raised by the convergence gate)" if gate_only else "truncation"
        raise ConfigError(f"{n_points} per axis exceeds cap {DIM_CAP} with {', '.join(over)}",
                          truncation if max(sizes.values()) > DIM_CAP else "options.grid_points")
    try:
        pulse_time = tomo.parity_pulse_time(abs(cfg.params.lambda_a), cfg.params.delta_big)
    except ValueError as exc:
        raise ConfigError(str(exc), "params.lambda_a") from None
    choice = cfg.options["state"]
    if choice == "one_photon" and cfg.truncation[0] < 1:
        raise ConfigError("the one_photon state |1,0> needs n_max_a >= 1",
                          "truncation, options.state")
    if choice == "tmsv":
        state = _evolved_vacuum(cfg)
    else:  # the one-entry support of |0,0>, or of |1,0> at flat index dim_b
        state = (field_space(*cfg.truncation), np.array([0 if choice == "vacuum" else dim_b]),
                 np.ones(1))
    extent = cfg.options["grid_extent"]
    if not math.isfinite(2.0 * abs(extent)):
        raise ConfigError(f"the grid's span 2 |extent| overflows at extent = {extent!r}",
                          "options.grid_extent")
    # the origin is read alone, by its parity weight only, so the gate's rerun
    # reads it by the same arithmetic
    w_origin = float(tomo._wigner(state, ((0.0, 0.0),))[0])
    if gate_only:
        return {"w_origin": w_origin}, {}, {}
    axis = np.linspace(-extent, extent, n_points)
    grid = tomo.PhaseSpaceGrid.two_mode_real(axis, axis)
    try:  # one readout for the direct and protocol values
        w_direct, w_proto, signal = tomo._scan(state, grid.points)
    except tomo.TruncationError as exc:
        raise ConfigError(str(exc), "truncation, options.grid_extent") from None
    metrics = {
        "w_origin": w_origin,
        "max_protocol_deviation": float(np.max(np.abs(w_proto - w_direct))),
        "grid_points": n_points * n_points,
        "parity_pulse_time": pulse_time,
    }
    rows = [
        [pt[0].real, pt[0].imag, pt[1].real, pt[1].imag, w_proto[k], signal[k]]
        for k, pt in enumerate(grid.points)
    ]
    tables = {
        "wigner": {
            "columns": ["re_eta_a", "im_eta_a", "re_eta_b", "im_eta_b", "w", "signal"],
            "rows": rows,
        }
    }
    return metrics, tables, {}


def _scenario_convergence(cfg: ResolvedConfig, gate_only: bool = False):
    target, within = cfg.options["target"], "options.target_config."
    try:
        target_cfg = resolve_config({"scenario": target, **cfg.options["target_config"]}, within)
        sweep = _sweep(target_cfg, cfg.options["n_max_list"], "truncation")
    except (ConfigError, PropagationError) as exc:
        if exc.path is None:  # no field is at fault
            raise
        # name the target's fields as this config spells them: n_max_list sets its truncation
        raise type(exc)(exc.message, ", ".join(
            "options.n_max_list" if name == "truncation" else within + name
            for name in exc.path.split(", "))) from None
    metrics = {
        "final_value": sweep["rows"][-1][1],
        "last_increment": sweep["last_increment"],
        "converged": sweep["converged"],
    }
    tables = {
        "sweep": {
            "columns": ["n_max", sweep["metric"]],
            "rows": sweep["rows"],
        }
    }
    return metrics, tables, {"target": target}


# --- registry and runner --------------------------------------------------------

@dataclass(frozen=True)
class ScenarioDef:
    """A registered scenario.  run(cfg, gate_only=False) returns (metrics,
    tables, notes); with gate_only it may return the gate metric alone,
    computed by the same arithmetic as the full run."""

    run: Callable[..., tuple]
    defaults: dict
    gate_metric: str | None
    description: str


_RYDBERG_PUC = {
    "lambda_a": DEFAULT_COUPLING,
    "lambda_b": DEFAULT_COUPLING,
    "omega_cl": DEFAULT_COUPLING,
    "delta_big": DEFAULT_DETUNING,
    "process": "PUC",
}

# lambda_a carries a -pi/2 phase so the pair coupling xi is -i|xi|: the
# propagated pair state then has real positive |n,n> coefficients and the
# squeezed combinations are x_a - x_b and p_a + p_b.
_RYDBERG_PDC = {**_RYDBERG_PUC, "lambda_a": [0.0, -DEFAULT_COUPLING], "process": "PDC"}
_RYDBERG_DEGENERATE = {**_RYDBERG_PDC, "process": "DEGENERATE_PDC"}
# the drive off: only the two-photon couplings lambda lambda / Delta act
_TWO_PHOTON = {"lambda_a": DEFAULT_COUPLING, "lambda_b": DEFAULT_COUPLING,
               "delta_big": DEFAULT_DETUNING, "process": "TWO_PHOTON_BS"}


def _defaults(**fields) -> dict:
    return {**fields, "outputs": []}


SCENARIOS: dict[str, ScenarioDef] = {
    "puc_swap": ScenarioDef(
        _scenario_puc_swap,
        _defaults(params=_RYDBERG_PUC, truncation=[4, 4], times=None),
        gate_metric="p_swapped",
        description="Beam-splitter swap |1,0> -> |0,1> at xi*t = pi/2",
    ),
    "pdc_epr": ScenarioDef(
        _scenario_pdc_epr,
        _defaults(params=_RYDBERG_PDC, truncation=[40, 40], times=[DEFAULT_TAU]),
        gate_metric="fidelity_vs_analytic",
        description="Pair state from vacuum under the down-conversion generator",
    ),
    "epr_quality": ScenarioDef(
        _scenario_epr_quality,
        _defaults(params=_RYDBERG_PDC, truncation=[40, 40], times=[DEFAULT_TAU]),
        gate_metric="quality_operational_numeric",
        description="Pair-state quality 1 - e^{-2 xi tau}, closed form and variance-based",
    ),
    "epr_variances": ScenarioDef(
        _scenario_epr_variances,
        _defaults(params=_RYDBERG_PDC, truncation=[40, 40], times=[DEFAULT_TAU]),
        gate_metric="var_x_minus",
        description="Correlated-quadrature variances of the evolved pair state",
    ),
    "full_vs_effective": ScenarioDef(
        _scenario_full_vs_effective,
        _defaults(params=_RYDBERG_PUC, truncation=[6, 6], times=None,
                  options={"grid_points": 101}),
        gate_metric="fidelity_end",
        description="Three-level model vs reduced beam-splitter generator",
    ),
    "gaussian_profile": ScenarioDef(
        _scenario_gaussian_profile,
        _defaults(
            params=_RYDBERG_DEGENERATE, times=[5.32e-4],
            traversal={"waist_w": 0.6, "alpha": None},  # waist in cm
            options={"fit_tau": DEFAULT_TAU, "fit_target_r": 0.51},
        ),
        gate_metric=None,
        description="Squeezing factor with the transverse Gaussian mode profile",
    ),
    "degenerate_squeeze": ScenarioDef(
        _scenario_degenerate_squeeze,
        _defaults(params=_RYDBERG_DEGENERATE, truncation=[140, 0], times=[DEFAULT_TAU]),
        gate_metric="variance_numeric",
        description="Single-mode squeezer: r = 2 xi tau and the squeezed variance",
    ),
    "bell_prep": ScenarioDef(
        _scenario_bell_prep,
        _defaults(params=_TWO_PHOTON, truncation=[2, 2]),
        gate_metric="min_fidelity",
        description="Single-atom preparation of the four photonic Bell states",
    ),
    "wigner_scan": ScenarioDef(
        _scenario_wigner_scan,
        _defaults(
            params=_RYDBERG_PDC, truncation=[30, 30], times=[DEFAULT_TAU],
            options={"state": "tmsv", "grid_points": 5, "grid_extent": 1.0},
        ),
        gate_metric="w_origin",
        description="Dispersive-probe phase-space scan vs direct displaced parity",
    ),
    "convergence": ScenarioDef(
        _scenario_convergence,
        # the target runs from its own defaults plus options.target_config
        _defaults(options={"target": "pdc_epr", "n_max_list": [8, 16, 24], "target_config": {}}),
        gate_metric=None,
        description="Truncation sweep of another scenario's headline metric",
    ),
}


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, SCENARIOS[name].description) for name in sorted(SCENARIOS)]


def run_scenario(config: dict, check_convergence: bool = True) -> dict:
    """Run one registered scenario and return its result document."""
    cfg = resolve_config(config)
    entry = SCENARIOS[cfg.scenario]
    gated = check_convergence and entry.gate_metric is not None
    if gated:  # the rerun's truncation must fit the cap before any work starts
        raised = _retruncated(cfg, [n + GATE_STEP for n in cfg.truncation],
                              "truncation (raised by the convergence gate)")
    metrics, tables, notes = entry.run(cfg)
    shown = metrics
    if cfg.outputs:
        unknown = set(cfg.outputs) - set(metrics)
        if unknown:
            raise ConfigError(
                f"unknown metrics {sorted(unknown)} (available: {sorted(metrics)})", "outputs")
        shown = {k: v for k, v in metrics.items() if k in cfg.outputs}
    doc = {
        "scenario": cfg.scenario,
        "config": _echo_config(cfg),
        "metrics": shown,
        "tables": tables,
    }
    if notes:
        doc["notes"] = notes

    gate_metric = entry.gate_metric
    gate: dict = {"checked": False}
    if gated:
        value = metrics[gate_metric]
        value_plus = entry.run(raised, gate_only=True)[0][gate_metric]
        gate = {
            "checked": True,
            "metric": gate_metric,
            "value": value,
            "value_plus_4": value_plus,
            "increment": abs(value_plus - value),
        }
        if abs(value_plus - value) > GATE_TOLERANCE:
            raise ConvergenceGateError(
                f"{gate_metric} = {value!r} at the configured truncation but {value_plus!r} "
                f"with both n_max raised by {GATE_STEP} (|delta| = {abs(value_plus - value):.3e} "
                f"> {GATE_TOLERANCE})",
                gate_metric, value, value_plus,
            )
        # a metric that does not depend on the truncation cannot show what it
        # fails to hold; the reported tail bound can
        tail = metrics.get("tail_bound")
        if tail is not None and tail > tomo.TAIL_LIMIT:
            raise ConvergenceGateError(
                f"tail_bound = {tail!r} exceeds the truncation tail limit {tomo.TAIL_LIMIT}: "
                "the truncation holds too little of the state; raise truncation",
                "tail_bound", tail,
            )
    doc["convergence_gate"] = gate
    return doc


def _retruncated(cfg: ResolvedConfig, truncation: list[int], path: str) -> ResolvedConfig:
    """cfg at another truncation, validated as the config field at path."""
    return replace(cfg, truncation=_parse(path, _truncation, truncation))


def convergence_sweep(config: dict, n_max_list) -> dict:
    """Headline metric of a scenario across Fock truncations.

    Each entry n of n_max_list raises both mode truncations to n (a mode
    pinned at 0 in the base config stays at 0).  Reports the increments and
    flags non-convergence when the last one exceeds 1e-6.
    """
    n_max_list = _parse("n_max_list", _n_max_list, list(n_max_list))
    cfg = resolve_config(config)
    _parse("scenario", _sweep_target, cfg.scenario)
    return _sweep(cfg, n_max_list, "n_max_list")


def _sweep(cfg: ResolvedConfig, n_max_list: list[int], path: str) -> dict:
    """convergence_sweep on a resolved config of a scenario with a gate metric
    and a parsed n_max_list, whose truncations are checked as the field at path."""
    entry = SCENARIOS[cfg.scenario]
    metric, keep_b = entry.gate_metric, cfg.truncation[1] == 0
    retruncated = [_retruncated(cfg, [n, 0 if keep_b else n], path) for n in n_max_list]
    rows = [[n, entry.run(c)[0][metric]] for n, c in zip(n_max_list, retruncated)]
    last_increment = abs(rows[-1][1] - rows[-2][1])
    return {
        "scenario": cfg.scenario,
        "metric": metric,
        "rows": rows,
        "last_increment": last_increment,
        "converged": last_increment <= GATE_TOLERANCE,
    }
