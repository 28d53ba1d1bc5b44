import argparse
import copy
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityconv
from cavityconv import cli, propagate, scenarios, tomography
from cavityconv.cli import main as cli_main
from cavityconv.hamiltonians import (
    PhysicalParams,
    ProcessKind,
    full_puc_hamiltonian,
    resonance_delta,
)
from cavityconv.hilbert import DIM_CAP, StateVector, basis_state, make_space
from cavityconv.scenarios import (
    _FIELDS,
    GATE_TOLERANCE,
    SCENARIOS,
    ConfigError,
    ConvergenceGateError,
    _echo_config,
    convergence_sweep,
    list_scenarios,
    prepare_bell,
    resolve_config,
    run_scenario,
)
from cavityconv.serialize import _csv_cell, result_to_json, round_sig, table_to_csv
from cavityconv.tomography import TAIL_LIMIT
from make_golden_corpus import CONFIGS
from oracles import evolve_sectors

REGISTERED = {
    "puc_swap", "pdc_epr", "epr_quality", "epr_variances", "full_vs_effective",
    "gaussian_profile", "degenerate_squeeze", "bell_prep", "wigner_scan",
    "convergence",
}


# omega_cl lambda_a lambda_b overflows, though xi itself is about 1e144
XI_OVERFLOW = {"delta_big": 1e150, "lambda_a": 1e148, "lambda_b": 1e148, "omega_cl": 1e148}
# full_vs_effective without times runs to t_end = (pi/2) / |xi|, set by these
FAR_DETUNED = {"scenario": "full_vs_effective", "params": {"delta_big": 1e8}}
T_END_FIELDS = "params.omega_cl, params.lambda_a, params.lambda_b, params.delta_big"
CONVERGENCE_SUBNORMAL = {"target": "puc_swap", "target_config": {"params": {"omega_cl": 1e-320}}}
CONVERGENCE_SUBNORMAL_FIELDS = ", ".join(f"options.target_config.params.{name}"
                                         for name in ("omega_cl", "lambda_a", "lambda_b"))
CONVERGENCE_ONE_PHOTON = {"target": "wigner_scan", "n_max_list": [0, 2],
                          "target_config": {"options": {"state": "one_photon"}}}


def two_photon_params():
    return PhysicalParams(7e5, 7e5, 0.0, 1e7, 0.0, ProcessKind.TWO_PHOTON_BS)


# --- registry -------------------------------------------------------------------

def test_registry_names_are_fixed():
    assert set(SCENARIOS) == REGISTERED
    listed = list_scenarios()
    assert [name for name, _ in listed] == sorted(REGISTERED)
    assert all(desc for _, desc in listed)


# --- config validation ------------------------------------------------------------

def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "does_not_exist"})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "wat": 1})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "params": {"lambda_c": 1.0}})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "options": {"bogus": True}})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "gaussian_profile", "traversal": {"speed": 2}})


def test_bad_field_values_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "truncation": [4]})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "truncation": [-1, 4]})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "times": [2e-4, 1e-4]})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "seed": "zero"})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "params": {"lambda_a": "big"}})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "puc_swap", "params": {"process": "NOPE"}})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)


def config_paths(defaults):
    """Every top-level key of a default config and every key of its sections."""
    for key, value in defaults.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_field_value_resolves_or_raises_config_error(data):
    for name in sorted(SCENARIOS):
        config = {"scenario": name, **copy.deepcopy(SCENARIOS[name].defaults)}
        path = data.draw(st.sampled_from(sorted(config_paths(config))))
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = data.draw(JSON_VALUES)
        try:
            resolve_config(config)
        except ConfigError:
            pass


def schema_leaves(defaults, prefix=""):
    """Field paths of a registry ``defaults``, walked the way the resolver walks it."""
    for key, value in defaults.items():
        path = prefix + key
        if path in _FIELDS:
            yield path
        else:
            assert isinstance(value, dict) and value, f"{path} is neither a field nor a section"
            yield from schema_leaves(value, path + ".")


def test_schema_fields_are_exactly_the_registry_leaves():
    # a field no scenario lists is a knob nothing reads
    leaves = {path for entry in SCENARIOS.values() for path in schema_leaves(entry.defaults)}
    assert leaves == set(_FIELDS)


ECHO_CONFIGS = [pytest.param({"scenario": name}, id=name) for name in sorted(REGISTERED)] + [
    pytest.param({"scenario": "puc_swap", "params": {
        "lambda_a": [0.0, 7e5], "lambda_b": [4.2e5, -5.6e5], "omega_cl": [3e5, 5e5]}},
        id="complex_couplings"),
    pytest.param({"scenario": "puc_swap", "times": {"start": 0.0, "stop": 3e-4, "num": 4}},
                 id="times_range"),
    pytest.param({"scenario": "convergence", "options": {
        "target": "puc_swap", "n_max_list": [2, 4],
        "target_config": {"params": {"lambda_a": [0.0, 6e5]}, "times": [1e-4]}}},
        id="convergence-target_config"),
    pytest.param({"scenario": "bell_prep", "params": {"lambda_a": [3e5, 4e5]}},
                 id="bell_prep-complex"),
]


@pytest.mark.parametrize("config", ECHO_CONFIGS)
def test_config_echo_resolves_to_itself(config):
    # the echo as the result document renders it is the contract
    name = config["scenario"]
    echo = json.loads(result_to_json(run_scenario(config, check_convergence=False)))["config"]
    assert set(echo) == {"scenario", *SCENARIOS[name].defaults}
    if len(config) == 1 and "options" in echo:
        assert echo["options"] == SCENARIOS[name].defaults["options"]
    assert (result_to_json({"config": _echo_config(resolve_config(echo))})
            == result_to_json({"config": echo}))


def test_complex_and_resonance_parsing():
    cfg = resolve_config({"scenario": "pdc_epr", "params": {"lambda_a": [0.0, -6e5]}})
    assert cfg.params.lambda_a == -6e5j
    # the drive detuning follows the couplings: (|lambda_a|^2 + |lambda_b|^2) / Delta
    assert cfg.params.delta_small == pytest.approx(8.5e4)


WITH_PARAMS = sorted(name for name in REGISTERED if "params" in SCENARIOS[name].defaults)


@pytest.mark.parametrize("name", WITH_PARAMS)
def test_drive_detuning_is_the_computed_resonance(name):
    params = resolve_config({"scenario": name}).params
    if params.process.value in ("PUC", "PDC", "DEGENERATE_PDC"):
        assert params.delta_small == resonance_delta(params)
    else:  # the two-photon processes run with the drive off
        assert params.delta_small == 0.0


@pytest.mark.parametrize("name", WITH_PARAMS)
def test_drive_detuning_is_no_config_field(name):
    with pytest.raises(ConfigError, match=r"^params\.delta_small: unknown in params"):
        resolve_config({"scenario": name, "params": {"delta_small": 123}})


def test_times_range_object():
    cfg = resolve_config({
        "scenario": "puc_swap",
        "times": {"start": 0.0, "stop": 1e-4, "num": 5},
    })
    assert cfg.times == tuple(np.linspace(0.0, 1e-4, 5))


def test_outputs_filter_and_validation():
    doc = run_scenario(
        {"scenario": "puc_swap", "outputs": ["p_swapped"]},
        check_convergence=False,
    )
    assert set(doc["metrics"]) == {"p_swapped"}
    with pytest.raises(ConfigError):
        run_scenario(
            {"scenario": "puc_swap", "outputs": ["nonexistent_metric"]},
            check_convergence=False,
        )


# --- convergence gate ----------------------------------------------------------------

def test_gate_passes_and_reports_for_default_configs():
    doc = run_scenario({"scenario": "puc_swap"})
    gate = doc["convergence_gate"]
    assert gate["checked"]
    assert gate["metric"] == "p_swapped"
    assert gate["increment"] <= 1e-6


def test_gate_failure_raises_with_both_values():
    config = {"scenario": "pdc_epr", "truncation": [6, 6], "times": [6e-4]}
    with pytest.raises(ConvergenceGateError) as err:
        run_scenario(config)
    assert err.value.value != err.value.value_plus
    doc = run_scenario(config, check_convergence=False)
    assert doc["convergence_gate"] == {"checked": False}


def test_gate_refuses_a_truncation_that_drops_the_pair_state(tmp_path, capsys):
    # r = 5.1: [40, 40] holds under 1 % of the pair state, while the gate
    # metric quality_operational_numeric moves by only 9e-9 at +4
    cfg = write_config(tmp_path, {"scenario": "epr_quality", "times": [0.0015]})
    assert cli_main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "tail_bound" in err and str(TAIL_LIMIT) in err
    assert cli_main(["run", cfg, "--no-converge-check"]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"]["tail_bound"] > 0.99


def test_epr_quality_gate_follows_the_truncated_state(tmp_path, capsys):
    # at r = 0.686 the variance-based quality on [10, 10] moves by 5.5e-5 at +4;
    # a closed-form gate metric would not move, leaving only the tail bound (1.1e-5)
    cfg = write_config(tmp_path, {"scenario": "epr_quality", "truncation": [10, 10]})
    assert cli_main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: convergence gate failed: quality_operational_numeric")


@pytest.mark.parametrize("scenario", ["epr_quality", "pdc_epr"])
def test_gate_refuses_a_raised_truncation_beyond_the_cap(tmp_path, capsys, scenario):
    # [500000, 0] fits the three-level cap; the gate's [500004, 4] does not
    cfg = write_config(tmp_path, {"scenario": scenario, "truncation": [500000, 0]})
    for flags, code, message in (([], 2, "error: truncation"), (["--no-converge-check"], 0, "")):
        start = time.perf_counter()
        assert cli_main(["run", cfg, *flags]) == code
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err


GATE_ONLY_CASES = [
    *({"scenario": name} for name, entry in SCENARIOS.items() if entry.gate_metric),
    *(config for config in CONFIGS.values() if SCENARIOS[config["scenario"]].gate_metric),
]


@pytest.mark.parametrize("config", GATE_ONLY_CASES,
                         ids=[json.dumps(c, separators=(",", ":")) for c in GATE_ONLY_CASES])
def test_gate_only_run_gives_the_full_runs_gate_metric_exactly(config):
    cfg = resolve_config(config)
    entry = SCENARIOS[cfg.scenario]
    for step in (0, scenarios.GATE_STEP):
        at = replace(cfg, truncation=tuple(n + step for n in cfg.truncation))
        metric = entry.run(at, gate_only=True)[0][entry.gate_metric]
        assert metric == entry.run(at)[0][entry.gate_metric]


def test_gated_wigner_scan_reruns_only_the_origin(monkeypatch):
    # the origin is read by the parity weight alone, the scan by all three
    reads = []
    real = tomography._separable_readout
    monkeypatch.setattr(tomography, "_separable_readout",
                        lambda state, points, weights: reads.append(
                            (state[0].n_max_a, points, len(weights)))
                        or real(state, points, weights))
    doc = run_scenario({"scenario": "wigner_scan"})
    assert doc["convergence_gate"]["checked"]
    assert [(len(points), count) for n, points, count in reads if n == 30] == [(1, 1), (25, 3)]
    assert [(points, count) for n, points, count in reads
            if n == 30 + scenarios.GATE_STEP] == [(((0.0, 0.0),), 1)]


def test_full_vs_effective_rerun_asks_for_no_grid_rows(monkeypatch):
    grids = []
    real = scenarios._evolve_entries
    monkeypatch.setattr(scenarios, "_evolve_entries",
                        lambda *args: grids.append(args[7]) or real(*args))
    doc = run_scenario({"scenario": "full_vs_effective"})
    assert doc["convergence_gate"]["checked"]
    assert [count for _, count in grids] == [scenarios.DENSE_SCAN_POINTS - 1, 0]


def test_gate_rerun_caps_count_what_the_rerun_builds(monkeypatch):
    # at [1, 1] the comparison reaches 4 states, at the rerun's [5, 5] 8: the
    # rerun's 101 rows fit, its unbuilt 20 000-row dense scan would not
    monkeypatch.setattr(scenarios, "DIM_CAP", 100_000)
    doc = run_scenario(FAR_DETUNED | {"truncation": [1, 1]})
    assert doc["convergence_gate"]["checked"]
    # 20 points of 5^2 fit, 20 of 9^2 would not: the rerun reads one point
    monkeypatch.setattr(scenarios, "DIM_CAP", 1_000)
    scan = {"scenario": "wigner_scan", "truncation": [4, 4],
            "options": {"grid_points": 20, "state": "vacuum", "grid_extent": 0.1}}
    doc = run_scenario(scan)
    assert doc["convergence_gate"]["checked"] and doc["metrics"]["grid_points"] == 400
    # its one field and displacement matrix per mode are still capped: 29^2
    # entries fit, 33^2 do not
    scan["truncation"], scan["options"]["grid_points"] = [28, 28], 1
    assert run_scenario(scan, check_convergence=False)["metrics"]["grid_points"] == 1
    with pytest.raises(ConfigError, match=r"^truncation \(raised by the convergence gate\): "
                                          r"1 per axis exceeds cap 1000 with 1 x 1089 field "
                                          r"amplitudes, 1 x 1089 mode-a matrix entries"):
        run_scenario(scan)


def test_convergence_sweep_rows_and_flag():
    sweep = convergence_sweep(
        {"scenario": "pdc_epr"}, [12, 16, 20, 24]
    )
    values = [row[1] for row in sweep["rows"]]
    assert sweep["metric"] == "fidelity_vs_analytic"
    assert sweep["converged"]
    assert values[-1] == pytest.approx(1.0, abs=1e-8)
    # increments shrink monotonically toward convergence
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    assert increments[-1] < increments[0]


def test_convergence_sweep_detects_underresolved_truncation():
    # mean pair number sinh^2(2.06) ~ 13 photons: small truncations cannot converge
    assert math.sinh(2.0) ** 2 == pytest.approx(13.2, abs=0.1)
    sweep = convergence_sweep(
        {"scenario": "pdc_epr", "times": [6e-4]}, [8, 12]
    )
    assert not sweep["converged"]


def test_convergence_sweep_needs_gate_metric():
    with pytest.raises(ConfigError):
        convergence_sweep({"scenario": "gaussian_profile"}, [4, 8])


def test_convergence_scenario_wraps_sweep():
    doc = run_scenario({
        "scenario": "convergence",
        "options": {"target": "puc_swap", "n_max_list": [2, 4, 6]},
    })
    assert doc["metrics"]["converged"] is True
    assert doc["tables"]["sweep"]["rows"][-1][0] == 6
    # the target runs with its own defaults, not the wrapper's
    assert doc["tables"]["sweep"]["rows"][-1][1] == pytest.approx(1.0, abs=1e-9)


def test_convergence_scenario_forwards_target_config():
    doc = run_scenario({
        "scenario": "convergence",
        "options": {
            "target": "pdc_epr",
            "n_max_list": [8, 12],
            "target_config": {"times": [6e-4]},
        },
    })
    assert doc["metrics"]["converged"] is False
    with pytest.raises(ConfigError):
        run_scenario({
            "scenario": "convergence",
            "options": {"target": "pdc_epr", "n_max_list": [8, 12],
                        "target_config": {"truncation": [4, 4]}},
        })


# --- scenario content -------------------------------------------------------------------

def test_vacuum_scenarios_truncation_independent():
    doc_small = run_scenario({"scenario": "puc_swap", "truncation": [2, 2]},
                             check_convergence=False)
    doc_large = run_scenario({"scenario": "puc_swap", "truncation": [8, 8]},
                             check_convergence=False)
    assert doc_small["metrics"]["p_swapped"] == pytest.approx(
        doc_large["metrics"]["p_swapped"], abs=1e-12
    )


def test_pdc_epr_reports_consistent_metrics():
    doc = run_scenario({"scenario": "pdc_epr"}, check_convergence=False)
    m = doc["metrics"]
    assert m["fidelity_vs_analytic"] >= 1.0 - 1e-8
    assert m["mean_n_a"] == pytest.approx(m["mean_n_b"], abs=1e-9)
    assert m["mean_n_a"] == pytest.approx(math.sinh(m["squeeze_param"]) ** 2, abs=1e-6)
    assert m["quality_operational"] == pytest.approx(m["quality_analytic"], abs=1e-6)


def test_multi_time_runs_emit_tables():
    doc = run_scenario(
        {"scenario": "epr_quality", "times": [1e-4, 2e-4, 3e-4]},
        check_convergence=False,
    )
    table = doc["tables"]["quality_vs_time"]
    assert len(table["rows"]) == 3
    assert doc["metrics"]["tau"] == 3e-4

    doc = run_scenario(
        {"scenario": "puc_swap", "times": [1e-4, 2e-4]}, check_convergence=False
    )
    assert len(doc["tables"]["populations"]["rows"]) == 2


def test_bell_prep_doc_carries_transcripts():
    doc = run_scenario({"scenario": "bell_prep"}, check_convergence=False)
    transcripts = doc["notes"]["transcripts"]
    assert set(transcripts) == {"psi+", "psi-", "phi+", "phi-"}
    for t in transcripts.values():
        assert {"coupling", "interaction_time", "mode_b_phase",
                "atomic_projection"} <= set(t)


def test_wigner_scan_emits_grid_table():
    doc = run_scenario(
        {"scenario": "wigner_scan", "truncation": [12, 12],
         "options": {"state": "vacuum", "grid_points": 3, "grid_extent": 0.5}},
        check_convergence=False,
    )
    table = doc["tables"]["wigner"]
    assert table["columns"] == ["re_eta_a", "im_eta_a", "re_eta_b", "im_eta_b", "w", "signal"]
    assert len(table["rows"]) == 9
    assert doc["metrics"]["max_protocol_deviation"] < 1e-9
    # vacuum: every w positive, peak at the origin
    center = [r for r in table["rows"] if r[0] == 0.0 and r[2] == 0.0][0]
    assert center[4] == pytest.approx(4.0 / math.pi**2, abs=1e-9)


def test_wigner_scan_displaces_once_per_run(monkeypatch):
    # the direct and protocol scans share one readout; the origin is read
    # alone, as the gate's rerun reads it
    calls = []
    real = tomography._checked_displacements
    monkeypatch.setattr(tomography, "_checked_displacements",
                        lambda *args: calls.append(args) or real(*args))
    for grid_points in (5, 4):  # the origin on the grid and off it
        calls.clear()
        doc = run_scenario({"scenario": "wigner_scan", "options": {"grid_points": grid_points}},
                           check_convergence=False)
        assert [len(args[1]) for args in calls] == [1, grid_points**2]
        assert len(doc["tables"]["wigner"]["rows"]) == grid_points**2


def test_pair_scenarios_read_their_chain_without_a_full_space_state(monkeypatch):
    built = []
    real_init = StateVector.__init__
    monkeypatch.setattr(StateVector, "__init__",
                        lambda self, *args, **kwargs: built.append(args)
                        or real_init(self, *args, **kwargs))
    for name in ("pdc_epr", "epr_variances", "epr_quality", "degenerate_squeeze", "wigner_scan"):
        run_scenario({"scenario": name})
    run_scenario({"scenario": "pdc_epr", "truncation": [800, 800]}, check_convergence=False)
    assert built == []


def test_wigner_scan_over_the_cap_is_refused_before_any_grid_or_state(monkeypatch):
    # 10^10 point tuples would be built by the grid; the check comes first
    def never(*args, **kwargs):
        raise AssertionError("the scan must be refused before this is built")

    monkeypatch.setattr(tomography.PhaseSpaceGrid, "two_mode_real", classmethod(never))
    monkeypatch.setattr(scenarios, "_evolved_vacuum", never)  # the default tmsv state
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="options.grid_points: 100000 per axis exceeds cap "
                                          "2000000 with 100000 x 100000 points"):
        run_scenario({"scenario": "wigner_scan", "options": {"grid_points": 100000}})
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("truncation, grid_points, field_path", [
    ([3000, 4], 1, "truncation"),  # 3001^2 mode-a entries at a single point
    ([3000, 4], 5, "truncation"),
    ([1000, 4], 3, "options.grid_points"),  # 1001^2 entries fit once, not three times
])
def test_wigner_scan_cap_names_the_truncation_when_one_point_is_over(tmp_path, capsys, truncation,
                                                                     grid_points, field_path):
    # no grid_points can bring a mode's (n_max + 1)^2 eigenvector matrix within the cap
    config = {"scenario": "wigner_scan", "truncation": truncation,
              "options": {"state": "vacuum", "grid_points": grid_points}}
    assert cli_main(["run", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field_path}: {grid_points} per axis exceeds cap {DIM_CAP} with ")
    assert f"{grid_points} x {(truncation[0] + 1) ** 2} mode-a matrix entries" in err


@pytest.mark.parametrize("n_max, reached", [((6, 6), 8), ((1, 1), 4), ((1, 5), 6), ((40, 3), 8)])
def test_full_vs_effective_over_the_cap_is_refused_before_any_evolution(monkeypatch, n_max,
                                                                         reached):
    # the count the cap uses is the sector |i;1,0> reaches under the full model
    space = make_space(3, *n_max)
    params = resolve_config({"scenario": "full_vs_effective"}).params
    keep, _ = evolve_sectors(full_puc_hamiltonian(space, params).at(0.0),
                             basis_state(space, "i", 1, 0).amplitudes, [0.0])
    assert keep.size == reached

    def never(*args, **kwargs):
        raise AssertionError("the comparison must be refused before this is built")

    monkeypatch.setattr(scenarios, "full_puc_hamiltonian", never)
    monkeypatch.setattr(scenarios, "_evolve_entries", never)
    points = DIM_CAP // reached - scenarios.DENSE_SCAN_POINTS + 2  # the fewest over the cap
    with pytest.raises(ConfigError, match=f"options.grid_points: {points} points .* times "
                                          f"{reached} reached states, exceed cap {DIM_CAP}"):
        run_scenario({"scenario": "full_vs_effective", "truncation": list(n_max),
                      "options": {"grid_points": points}})
    with pytest.raises(ConfigError, match="options.grid_points: 300000 points"):
        run_scenario({"scenario": "full_vs_effective", "options": {"grid_points": 300_000}})


# a coupling so weak that the run's end time makes its phases overflow a float
PHASE_OVERFLOW = {"scenario": "full_vs_effective", "params": {"omega_cl": 1e-300}}


@pytest.mark.parametrize("config, field_path", [
    ({"scenario": "pdc_epr", "params": XI_OVERFLOW},
     "params.omega_cl, params.lambda_a, params.lambda_b, params.delta_big"),
    ({"scenario": "wigner_scan", "options": {"state": "one_photon"}, "truncation": [0, 3]},
     "truncation, options.state"),
    ({"scenario": "full_vs_effective", "options": {"grid_points": 300_000}},
     "options.grid_points"),
    ({"scenario": "puc_swap", "times": [1e300]}, "times"),
    ({"scenario": "puc_swap", "times": [1e13]}, "times"),
    ({"scenario": "full_vs_effective", "times": [0, 1e300]}, "times"),
    (FAR_DETUNED | {"params": {"delta_big": 1e12}}, T_END_FIELDS),
    ({"scenario": "convergence", "options": CONVERGENCE_SUBNORMAL}, CONVERGENCE_SUBNORMAL_FIELDS),
    ({"scenario": "convergence", "options": CONVERGENCE_ONE_PHOTON},
     "options.n_max_list, options.target_config.options.state"),
    ({"scenario": "convergence", "options": {"target": "puc_swap", "n_max_list": [0, 2]}},
     "options.n_max_list"),
    ({"scenario": "pdc_epr", "truncation": [-1, 0]}, "truncation"),
    ({"scenario": "gaussian_profile", "options": {"fit_target_r": 0.01}}, "options.fit_target_r"),
    ({"scenario": "gaussian_profile", "times": [1e308]}, "times"),
    ({"scenario": "wigner_scan", "options": {"grid_extent": 1.7e308}}, "options.grid_extent"),
    (PHASE_OVERFLOW, "params.omega_cl, params.lambda_a, params.lambda_b, params.delta_big"),
], ids=["xi-overflow", "one_photon-one_mode", "full_vs_effective-reached_cap",
        "puc_swap-times-no_precision", "puc_swap-times-1e13",
        "full_vs_effective-times-no_precision", "full_vs_effective-t_end-no_precision",
        "convergence-target_config-subnormal", "convergence-one_photon-one_mode",
        "convergence-puc_swap-one_mode", "pdc_epr-truncation-negative",
        "gaussian_profile-fit_target_r-out_of_reach", "gaussian_profile-times-overflow",
        "wigner_scan-grid_extent-overflow", "full_vs_effective-phase-overflow"])
def test_inputs_that_once_raised_or_overran_exit_2_with_the_gate_on(tmp_path, capsys, config,
                                                                    field_path):
    # VALIDATION_CASES runs each with the gate off
    assert cli_main(["run", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field_path}: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--no-converge-check"]], ids=["gate_on", "gate_off"])
def test_an_overflowing_phase_is_refused_before_any_warning(tmp_path, flags):
    # in a fresh interpreter, where no test's warning capture hides a numpy
    # overflow warning: the first line on stderr is the refusal, and it
    # states finite numbers
    done = subprocess.run([sys.executable, "-m", "cavityconv.cli", "run",
                           write_config(tmp_path, PHASE_OVERFLOW), *flags],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    first = done.stderr.splitlines()[0]
    assert first.startswith("error: params.omega_cl, params.lambda_a, params.lambda_b, "
                            "params.delta_big: phases reach over 1.798e+308 rad")
    assert "inf" not in first and "nan" not in first


def test_far_detuned_full_vs_effective_phases_keep_their_precision(tmp_path):
    # |E| t_end ~ 4.6e6 rad rounds by ~1e-9 rad: the run is not refused, and the
    # far-detuned regime is where the effective model holds best
    out = tmp_path / "out.json"
    for flags in ([], ["--no-converge-check"]):
        assert cli_main(["run", write_config(tmp_path, FAR_DETUNED), "--out", str(out), *flags]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["fidelity_end"] >= metrics["fidelity_bound"]
        assert metrics["max_leakage_dense"] >= metrics["max_leakage"] - 1e-12


def wigner_origin(sign):
    """w_origin = sign 4 / pi^2 and a probe protocol that matches the direct readout."""
    return lambda doc: (abs(doc["metrics"]["w_origin"] - sign * 4 / math.pi**2) <= 1e-9
                        and doc["metrics"]["max_protocol_deviation"] <= 1e-9)


def gate_checked(doc):
    return doc["convergence_gate"]["checked"] is True and doc["convergence_gate"]["increment"] <= 1e-6


@pytest.mark.parametrize("config, flags, holds", [
    pytest.param({"scenario": "pdc_epr", "truncation": [800, 800]}, ["--no-converge-check"],
                 lambda doc: abs(doc["metrics"]["fidelity_vs_analytic"] - 1.0) <= 1e-9,
                 id="pdc_epr-800"),
    # the dense scan's 20 000 rows end in a partial block
    pytest.param({"scenario": "full_vs_effective", "params": {"delta_big": -3e7}}, [],
                 lambda doc: doc["metrics"]["max_leakage_dense"]
                 >= doc["metrics"]["max_leakage"] - 1e-12, id="full_vs_effective-negative_detuning"),
    # each mode displaced by its own matrices, and by one shared set
    pytest.param({"scenario": "wigner_scan", "truncation": [30, 26],
                  "options": {"state": "one_photon", "grid_points": 8}}, [], wigner_origin(-1),
                 id="wigner_scan-lopsided"),
    pytest.param({"scenario": "wigner_scan", "options": {"grid_points": 9}}, [], wigner_origin(1),
                 id="wigner_scan-symmetric"),
    pytest.param({"scenario": "wigner_scan"}, [],
                 lambda doc: gate_checked(doc) and doc["convergence_gate"]["metric"] == "w_origin",
                 id="wigner_scan-default"),
    # the gate's rerun caps count what the rerun builds: no dense scan
    # (4 reached states at [1, 1], 8 at the rerun's [5, 5]) and one scan point
    pytest.param(FAR_DETUNED | {"truncation": [1, 1], "options": {"grid_points": 250_000}}, [],
                 gate_checked, id="full_vs_effective-rerun_rows"),
    pytest.param({"scenario": "wigner_scan", "truncation": [100, 100],
                  "options": {"grid_points": 190, "state": "vacuum"}}, [], gate_checked,
                 id="wigner_scan-rerun_point"),
])
def test_cli_runs_write_the_documents_they_promise(tmp_path, config, flags, holds):
    out = tmp_path / "out.json"
    assert cli_main(["run", write_config(tmp_path, config), "--out", str(out), *flags]) == 0
    doc = json.loads(out.read_text())
    assert holds(doc), doc


def test_gaussian_profile_at_a_crossing_time_near_the_float_limit(tmp_path, capsys):
    # 2 |xi| tau is finite for this weak drive while tau sqrt(pi/2) overflows:
    # the profile factor, at most 1, is formed before it multiplies tau
    cfg = write_config(tmp_path, {"scenario": "gaussian_profile", "params": {"omega_cl": 1e-3},
                                  "traversal": {"alpha": 0.01}, "times": [1.5e308]})
    assert cli_main(["run", cfg]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert math.isfinite(metrics["r"]) and 0.0 < metrics["r"] <= metrics["r_flat"]


def counted(monkeypatch, owner, name, counts):
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_wigner_scan_cost_does_not_grow_per_point(monkeypatch):
    # no dense exponential anywhere in the default scan, gate rerun included
    counts = {}
    package = [importlib.import_module(f"cavityconv.{info.name}")
               for info in pkgutil.iter_modules(cavityconv.__path__)]
    for module in (scipy.linalg, *package):
        if hasattr(module, "expm"):
            counted(monkeypatch, module, "expm", counts)
    counted(monkeypatch, StateVector, "__init__", counts)
    counted(monkeypatch, tomography, "probe_protocol", counts)
    run_scenario({"scenario": "wigner_scan"})
    assert counts.get("expm", 0) == 0
    per_grid = {}
    for grid_points in (3, 9):
        counts.clear()
        run_scenario({"scenario": "wigner_scan", "options": {"grid_points": grid_points}},
                     check_convergence=False)
        per_grid[grid_points] = dict(counts)
    assert per_grid[3] == per_grid[9]
    assert "__init__" not in per_grid[3]  # every state the scan reads is a support


# --- bell preparation ---------------------------------------------------------------------

def test_prepare_bell_pre_measurement_amplitudes():
    # two-level Rabi closed form: at kappa t = pi/4 the pair branch holds
    # amplitude -i sin(pi/4) and the initial branch cos(pi/4)
    from cavityconv.hamiltonians import two_photon_coupling, two_photon_hamiltonian
    from cavityconv.hilbert import basis_state, make_space
    from cavityconv.propagate import evolve_static

    params = two_photon_params()
    space = make_space(3, 2, 2)
    kappa = two_photon_coupling(params, "TMS")
    h = two_photon_hamiltonian(space, params, "TMS")
    t = (math.pi / 4.0) / abs(kappa)
    psi = evolve_static(h, basis_state(space, "e", 0, 0), t)
    amp_e00 = psi.amplitudes[space.flatten(space.level_index("e"), 0, 0)]
    amp_g11 = psi.amplitudes[space.flatten(space.level_index("g"), 1, 1)]
    assert amp_e00 == pytest.approx(math.cos(math.pi / 4), abs=1e-9)
    assert amp_g11 == pytest.approx(-1j * math.sin(math.pi / 4), abs=1e-9)


def test_prepare_bell_all_targets():
    for target in ("psi+", "psi-", "phi+", "phi-"):
        state, transcript = prepare_bell(target, two_photon_params())
        assert transcript["bell_fidelity"] >= 0.99
        assert transcript["success_probability"] == pytest.approx(0.5, abs=1e-9)
        assert transcript["target"] == target
        assert "mode_b_phase" in transcript


def test_prepare_bell_with_complex_couplings():
    params = PhysicalParams(
        7e5 * np.exp(0.7j), 7e5 * np.exp(-0.2j), 0.0, 1e7, 0.0,
        ProcessKind.TWO_PHOTON_TMS,
    )
    for target in ("psi+", "phi-"):
        _, transcript = prepare_bell(target, params)
        assert transcript["bell_fidelity"] >= 0.99


# results depend on the couplings times the time, not on their scale in s^-1

def test_bell_prep_with_weak_couplings():
    bell = run_scenario({"scenario": "bell_prep", "params": {"lambda_a": 1e-5, "lambda_b": 1e-5}})
    assert bell["metrics"]["min_fidelity"] >= 1.0 - 1e-9


def test_puc_swap_with_a_weak_drive():
    swap = run_scenario({"scenario": "puc_swap", "params": {"omega_cl": 1e-13}})
    assert swap["metrics"]["xi_abs"] < 1e-15
    assert abs(swap["metrics"]["p_swapped"] - 1.0) <= 1e-9
    assert swap["metrics"]["p_residual"] <= 1e-9


def test_prepare_bell_validation():
    with pytest.raises(ValueError):
        prepare_bell("sigma+", two_photon_params())
    with pytest.raises(ValueError):
        prepare_bell("psi+", PhysicalParams(7e5, 7e5, 7e5, 1e7, 0.0, ProcessKind.PUC))
    for n_max in ((0, 2), (2, 0)):  # refused before the band path sees a one-level mode
        with pytest.raises(ValueError, match="n_max >= 1 in both modes"):
            prepare_bell("phi+", two_photon_params(), n_max)


# --- determinism and serialization -----------------------------------------------------------

def test_results_are_byte_identical_across_runs():
    for name in ("puc_swap", "gaussian_profile"):
        doc1 = run_scenario({"scenario": name}, check_convergence=False)
        doc2 = run_scenario({"scenario": name}, check_convergence=False)
        assert result_to_json(doc1) == result_to_json(doc2)


def test_round_sig_and_json_formatting():
    assert round_sig(math.pi, 12) == 3.14159265359
    doc = {"metrics": {"value": math.pi, "complexish": 1 + 2j}, "flag": True}
    text = result_to_json(doc)
    parsed = json.loads(text)
    assert parsed["metrics"]["value"] == 3.14159265359
    assert parsed["metrics"]["complexish"] == [1.0, 2.0]
    assert text.endswith("\n")


def test_table_to_csv_layout():
    text = table_to_csv(["a", "b"], [[1.0, 2.5e-7], [3, "x"]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5e-07"
    assert lines[2] == "3,x"


def csv_by_cells(columns, rows):
    return "\n".join([",".join(columns), *(",".join(_csv_cell(v) for v in row)
                                           for row in rows)]) + "\n"


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16, 123456789012.0,
               1.0 / 3.0, 2.5e-7, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.floats() | st.sampled_from(EDGE_FLOATS), st.booleans())
                         .map(lambda cell: np.float64(cell[0]) if cell[1] else cell[0]),
                         max_size=7), max_size=5))
def test_a_float_row_is_written_as_its_cells_would_be(rows):
    assert table_to_csv(["a", "b"], rows) == csv_by_cells(["a", "b"], rows)


def test_float_rows_keep_the_cell_text_of_edge_values_and_mixed_rows():
    rows = [EDGE_FLOATS, [np.float64(v) for v in EDGE_FLOATS], [np.float32(0.1), 2.0],
            [123456789012345, 0.5], [True, 0.5], [np.int64(7), np.float64(1e-300)],
            [1 + 2j, 0.5], ["x", 0.5], []]
    assert table_to_csv(["a"], rows) == csv_by_cells(["a"], rows)
    # the convergence table: an int n_max beside each float value
    table = run_scenario({"scenario": "convergence"})["tables"]["sweep"]
    assert all(type(row[0]) is int for row in table["rows"])
    assert (table_to_csv(table["columns"], table["rows"])
            == csv_by_cells(table["columns"], table["rows"]))


# --- CLI ------------------------------------------------------------------------------------

def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_run_json_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "epr_quality"})
    assert cli_main(["run", cfg]) == 0
    first = capsys.readouterr().out
    assert cli_main(["run", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["scenario"] == "epr_quality"
    assert doc["metrics"]["quality_analytic"] == pytest.approx(0.7464, abs=1e-3)


def test_cli_run_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "puc_swap"})
    assert cli_main(["run", cfg, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "metric,value"
    assert any(line.startswith("p_swapped,") for line in out.splitlines())


def test_cli_run_csv_prefers_primary_table(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "wigner_scan",
        "truncation": [10, 10],
        "options": {"state": "vacuum", "grid_points": 3, "grid_extent": 0.4},
    })
    assert cli_main(["run", cfg, "--format", "csv", "--no-converge-check"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("re_eta_a,")
    assert len(out.splitlines()) == 10


def test_cli_run_out_files_and_table_externalization(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "wigner_scan",
        "truncation": [10, 10],
        "options": {"state": "vacuum", "grid_points": 3, "grid_extent": 0.4},
    })
    out = tmp_path / "result.json"
    assert cli_main(["run", cfg, "--out", str(out), "--no-converge-check"]) == 0
    doc = json.loads(out.read_text())
    assert "tables" not in doc
    csv_name = doc["files"]["wigner"]
    csv_path = tmp_path / csv_name
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("re_eta_a,")
    assert len(lines) == 10


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {"scenario": "nope"})
    assert cli_main(["run", bad]) == 2
    invalid = write_config(tmp_path, {"scenario": "puc_swap", "junk": 1}, "b.json")
    assert cli_main(["run", invalid]) == 2
    missing = str(tmp_path / "missing.json")
    assert cli_main(["run", missing]) == 2
    gate = write_config(
        tmp_path, {"scenario": "pdc_epr", "truncation": [6, 6], "times": [6e-4]}, "c.json"
    )
    assert cli_main(["run", gate]) == 3
    assert cli_main(["run", gate, "--no-converge-check"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("content, out, named", [
    pytest.param(b'{"scenario": "pdc_epr\xff"}', None, "cannot read config", id="not_utf8"),
    pytest.param(b"[" * 100000, None, "not valid JSON", id="nested_too_deep"),
    pytest.param(b'{"scenario": "puc_swap"}', "missing/out.json", "--out", id="unwritable_out"),
])
def test_cli_input_and_output_errors_exit_2(tmp_path, capsys, content, out, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    flags = ["--out", str(tmp_path / out)] if out else []
    assert cli_main(["run", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_cli_maps_truncation_overflow_to_validation_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "wigner_scan",
        "truncation": [6, 6],
        "options": {"state": "vacuum", "grid_points": 3, "grid_extent": 3.0},
    })
    for flags in (["--no-converge-check"], []):  # the gate's metric-only rerun skips the grid
        assert cli_main(["run", cfg, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: truncation, options.grid_extent: ")


def bad_config(test_id, field_path, scenario, **fields):
    return pytest.param({"scenario": scenario, **fields}, field_path, id=test_id)


DISPERSIVE_FIELDS = "params.lambda_a, params.lambda_b, params.omega_cl, params.delta_big"

# (config, the field path its error must name)
VALIDATION_CASES = [
    # a coupling xi without a finite conversion time scale
    bad_config("puc_swap", "params.omega_cl", "puc_swap", params={"omega_cl": 0}),
    bad_config("full_vs_effective", "params.omega_cl", "full_vs_effective",
               params={"omega_cl": 0}),
    bad_config("puc_swap-subnormal", "params.omega_cl", "puc_swap", params={"omega_cl": 1e-320}),
    bad_config("full_vs_effective-subnormal", "params.omega_cl", "full_vs_effective",
               params={"omega_cl": 1e-320}),
    # a scenario accepts only the process it models
    bad_config("pdc_epr-process", "params.process", "pdc_epr", params={"process": "PUC"}),
    bad_config("puc_swap-process", "params.process", "puc_swap", params={"process": "PDC"}),
    bad_config("full_vs_effective-process", "params.process", "full_vs_effective",
               params={"process": "PDC"}),
    # preconditions of the scenario bodies
    bad_config("fit_target_r", "options.fit_target_r", "gaussian_profile",
               options={"fit_target_r": 5}),
    # below r(alpha = 50) = 0.0344 and above r(alpha = 1e-3) = 1.37199977, yet
    # inside (0, 2 |xi| tau) = (0, 1.372): no crossing in the bracket reaches them
    bad_config("fit_target_r-below_reach", "options.fit_target_r", "gaussian_profile",
               options={"fit_target_r": 0.01}),
    bad_config("fit_target_r-above_reach", "options.fit_target_r", "gaussian_profile",
               options={"fit_target_r": 1.3719999}),
    bad_config("alpha", "traversal.alpha", "gaussian_profile", traversal={"alpha": -1}),
    bad_config("wigner_scan-grid_points", "options.grid_points", "wigner_scan",
               options={"grid_points": 0}),
    bad_config("wigner_scan-grid_points-cap", "options.grid_points", "wigner_scan",
               options={"grid_points": 100000}),
    bad_config("wigner_scan-grid_points-field_cap", "options.grid_points", "wigner_scan",
               truncation=[300, 300], options={"grid_points": 30}),
    bad_config("wigner_scan-truncation-mode_cap", "truncation", "wigner_scan",
               truncation=[100000, 1]),
    bad_config("full_vs_effective-grid_points", "options.grid_points", "full_vs_effective",
               options={"grid_points": 0}),
    bad_config("full_vs_effective-grid_points-cap", "options.grid_points", "full_vs_effective",
               options={"grid_points": 1_000_000_000_000}),
    bad_config("full_vs_effective-grid_points-reached_cap", "options.grid_points",
               "full_vs_effective", options={"grid_points": 300_000}),
    bad_config("full_vs_effective-times-reached_cap", "times", "full_vs_effective",
               times={"start": 0.0, "stop": 1e-3, "num": 300_000}),
    bad_config("n_max_list", "options.n_max_list", "convergence",
               options={"n_max_list": ["a", "b"]}),
    bad_config("n_max_list-cap", "options.n_max_list", "convergence",
               options={"n_max_list": [8, 2000]}),
    bad_config("bell_prep-lambda_a", "params.lambda_a", "bell_prep", params={"lambda_a": 0}),
    bad_config("bell_prep-subnormal", "params.lambda_a", "bell_prep",
               params={"lambda_a": 1e-320}),
    bad_config("truncation-cap", "truncation", "puc_swap", truncation=[2000, 2000]),
    bad_config("puc_swap-one_mode", "truncation", "puc_swap", truncation=[4, 0]),
    bad_config("full_vs_effective-one_mode", "truncation", "full_vs_effective", truncation=[0, 4]),
    bad_config("bell_prep-one_mode", "truncation", "bell_prep", truncation=[0, 3]),
    bad_config("wigner_scan-one_mode", "truncation, options.grid_extent", "wigner_scan",
               truncation=[0, 3]),
    bad_config("wigner_scan-one_photon-one_mode", "truncation, options.state", "wigner_scan",
               truncation=[0, 3], options={"state": "one_photon"}),
    bad_config("off_resonance", "params.delta_small", "puc_swap", params={"delta_small": 5}),
    bad_config("wigner_scan-lambda_a", "params.lambda_a", "wigner_scan", params={"lambda_a": 0}),
    bad_config("wigner_scan-subnormal", "params.lambda_a", "wigner_scan",
               params={"lambda_a": 1e-320}),
    bad_config("wigner_scan-weak", "params.lambda_a", "wigner_scan", params={"lambda_a": 1e-160}),
    bad_config("delta_big", "params.delta_big", "puc_swap", params={"delta_big": 0}),
    bad_config("delta_big-subnormal", "params.delta_big", "puc_swap", params={"delta_big": 1e-320}),
    bad_config("delta_big-overflow", "params.delta_big", "pdc_epr", params={"delta_big": 1e308}),
    bad_config("xi-overflow", "params.omega_cl, params.lambda_a, params.lambda_b, params.delta_big",
               "pdc_epr", params=XI_OVERFLOW),
    bad_config("negative_time", "times", "pdc_epr", times=[-1e-4]),
    # times at which the evolution's phases carry no precision
    bad_config("puc_swap-times-no_precision", "times", "puc_swap", times=[1e300]),
    bad_config("puc_swap-times-1e13", "times", "puc_swap", times=[1e13]),
    bad_config("full_vs_effective-times-no_precision", "times", "full_vs_effective",
               times=[0, 1e300]),
    bad_config("full_vs_effective-t_end-no_precision", T_END_FIELDS, "full_vs_effective",
               params={"delta_big": 1e12}),
    bad_config("crossing_time", "times", "gaussian_profile", times=[0.0]),
    # values whose results overflow a float
    bad_config("gaussian_profile-times-overflow", "times", "gaussian_profile", times=[1e308]),
    bad_config("gaussian_profile-fit_tau-overflow", "options.fit_tau", "gaussian_profile",
               traversal={"alpha": 1.0}, options={"fit_tau": 1e308}),
    bad_config("wigner_scan-grid_extent-overflow", "options.grid_extent", "wigner_scan",
               options={"grid_extent": 1.7e308}),
    # a pair state squeezed past what the closed form can represent
    bad_config("epr_quality-long_time", "times", "epr_quality", times=[0.0, 1.0]),
    bad_config("epr_quality-strong_coupling", "params", "epr_quality",
               params={"omega_cl": -1, "delta_big": 2}),
    # shapes
    bad_config("params-null", "params", "puc_swap", params=None),
    bad_config("traversal-number", "traversal", "gaussian_profile", traversal=5),
    bad_config("delta_big-string", "params.delta_big", "puc_swap", params={"delta_big": "abc"}),
    bad_config("lambda_a-pair", "params.lambda_a", "puc_swap", params={"lambda_a": [1, "x"]}),
    bad_config("lambda_a-modulus", "params.lambda_a", "pdc_epr",
               params={"lambda_a": [1.5e308, 1.5e308]}),
    bad_config("grid_points-string", "options.grid_points", "wigner_scan",
               options={"grid_points": "x"}),
    bad_config("times-stop", "times", "puc_swap", times={"start": 0.0, "stop": "x", "num": 3}),
    bad_config("times-num-cap", "times", "puc_swap",
               times={"start": 0, "stop": 1e-3, "num": 1_000_000_000_000}),
    # knobs that no scenario reads
    bad_config("seed", "seed", "puc_swap", seed=5),
    bad_config("traversal-outside-profile", "traversal", "puc_swap", traversal={"waist_w": 1}),
    bad_config("traversal-tau", "tau", "gaussian_profile", traversal={"tau": 2e-4}),
    bad_config("convergence-params", "params", "convergence", params={"lambda_a": 1e5}),
    bad_config("convergence-truncation", "truncation", "convergence", truncation=[8, 8]),
    bad_config("convergence-times", "times", "convergence", times=[2e-4]),
    bad_config("convergence-target_config", "options.target_config.times", "convergence",
               options={"target": "pdc_epr", "n_max_list": [8, 12],
                        "target_config": {"times": [-1]}}),
    # a refusal inside the target's runs names the field as this config spells it
    bad_config("convergence-target_config-no_precision", "options.target_config.times",
               "convergence", options={"target": "puc_swap", "target_config": {"times": [1e13]}}),
    bad_config("convergence-target_config-t_end-no_precision",
               ", ".join(f"options.target_config.{name}" for name in T_END_FIELDS.split(", ")),
               "convergence", options={"target": "full_vs_effective",
                                       "target_config": {"params": {"delta_big": 1e13}}}),
    # a refusal in the target's body names its fields as this config spells them,
    # its truncation as the n_max_list that sets it
    bad_config("convergence-target_config-subnormal", CONVERGENCE_SUBNORMAL_FIELDS, "convergence",
               options=CONVERGENCE_SUBNORMAL),
    bad_config("convergence-one_photon-one_mode",
               "options.n_max_list, options.target_config.options.state", "convergence",
               options=CONVERGENCE_ONE_PHOTON),
    bad_config("convergence-puc_swap-one_mode", "options.n_max_list", "convergence",
               options={"target": "puc_swap", "n_max_list": [0, 2]}),
    bad_config("convergence-target_config-dispersive",
               ", ".join(f"options.target_config.{name}" for name in DISPERSIVE_FIELDS.split(", ")),
               "convergence", options={"target": "pdc_epr",
                                       "target_config": {"params": {"lambda_a": [0, -5e6]}}}),
    # an unknown field of the target, its container named as its path names it
    bad_config("convergence-target_config-unknown",
               "options.target_config.foo: unknown in options.target_config (allowed", "convergence",
               options={"target": "pdc_epr", "target_config": {"foo": 1}}),
    bad_config("convergence-target_config-params-unknown",
               "options.target_config.params.foo: unknown in options.target_config.params (allowed",
               "convergence", options={"target": "pdc_epr", "target_config": {"params": {"foo": 1}}}),
    bad_config("bell_prep-times", "times", "bell_prep", times=[2e-4]),
    bad_config("bell_prep-omega_cl", "params.omega_cl", "bell_prep", params={"omega_cl": 0}),
    bad_config("bell_prep-delta_small", "params.delta_small", "bell_prep",
               params={"delta_small": 0}),
    bad_config("gaussian_profile-truncation", "truncation", "gaussian_profile",
               truncation=[0, 0]),
    bad_config("gaussian_profile-delta_small", "params.delta_small", "gaussian_profile",
               params={"delta_small": "resonance"}),
    bad_config("epr_quality-delta_small", "params.delta_small", "epr_quality",
               params={"delta_small": "resonance"}),
    # outside the dispersive regime that every model assumes
    bad_config("dispersive", DISPERSIVE_FIELDS, "pdc_epr", params={"lambda_a": [0, -5e6]}),
    bad_config("dispersive-strong_coupling", DISPERSIVE_FIELDS, "epr_variances",
               params={"lambda_a": 1e12}),
]


@pytest.mark.parametrize("config, field_path", VALIDATION_CASES)
def test_cli_maps_vanishing_xi_to_validation_exit(tmp_path, capsys, config, field_path):
    cfg = write_config(tmp_path, config)
    assert cli_main(["run", cfg, "--no-converge-check"]) == 2
    err = capsys.readouterr().err
    assert field_path in err
    assert "Traceback" not in err


def test_convergence_passes_a_refusal_naming_no_field_through_unchanged(monkeypatch):
    solve = propagate._stevd

    def inflated(*args):
        energies, basis, info = solve(*args)
        return energies, (1.0 + 1e-6) * basis, info

    monkeypatch.setattr(propagate, "_stevd", inflated)
    with pytest.raises(propagate.PropagationError) as drifted:
        run_scenario({"scenario": "convergence"})
    assert drifted.value.path is None
    assert str(drifted.value).startswith("static evolution drifted the norm by ")


def test_detuning_whose_square_overflows_says_so():
    with pytest.raises(ConfigError, match="params.delta_big: expected a detuning whose square "
                                          "is finite and nonzero, got 1e"):
        resolve_config({"scenario": "pdc_epr", "params": {"delta_big": 1e308}})


@pytest.mark.parametrize("scenario", ["pdc_epr", "epr_variances", "degenerate_squeeze"])
def test_long_duration_fails_the_gate_quickly(tmp_path, capsys, scenario):
    # r = |xi| t ~ 3e3: no truncation holds the state, and the evolution
    # costs the same as at the default duration
    cfg = write_config(tmp_path, {"scenario": scenario, "times": [0, 1]})
    start = time.perf_counter()
    assert cli_main(["run", cfg]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "convergence gate failed" in err and "Traceback" not in err


def fuzz_values(default):
    """Zero, a negative, ten times a numeric default, null, a string, a one-element list."""
    values = [0, -1, None, "x", [1]]
    if isinstance(default, (int, float)) and not isinstance(default, bool):
        values.append(10 * default)
    return values


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_run_of_a_mutated_default_config_ends_in_0_2_or_3(data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    config = {"scenario": name, **copy.deepcopy(SCENARIOS[name].defaults)}
    leaves = sorted(schema_leaves(SCENARIOS[name].defaults))
    for path in data.draw(st.permutations(leaves))[:data.draw(st.integers(1, 2))]:
        *sections, key = path.split(".")
        section = config
        for part in sections:
            section = section[part]
        section[key] = data.draw(st.sampled_from(fuzz_values(section[key])))
    flags = data.draw(st.sampled_from([[], ["--no-converge-check"]]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["run", str(cfg), *flags])
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < 5.0, config
    if code == 0 and not flags:
        tail = json.loads(out.getvalue())["metrics"].get("tail_bound")
        assert tail is None or tail <= TAIL_LIMIT, config


def test_sector_above_the_dense_limit_takes_the_exponential_action(monkeypatch):
    # [2000, 0] reaches the 1001 even Fock levels of mode a (1003 with the
    # gate's [2004, 4]), just above CHAIN_SECTOR_LIMIT: the expm_multiply branch
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return expm_multiply(*args, **kwargs)

    expm_multiply = propagate.expm_multiply
    monkeypatch.setattr(propagate, "expm_multiply", counted)
    doc = run_scenario({"scenario": "degenerate_squeeze", "truncation": [2000, 0]})
    assert calls and min(calls) > propagate.CHAIN_SECTOR_LIMIT
    assert doc["convergence_gate"]["checked"]
    default = run_scenario({"scenario": "degenerate_squeeze"}, check_convergence=False)
    assert abs(doc["metrics"]["variance_numeric"]
               - default["metrics"]["variance_numeric"]) < GATE_TOLERANCE


def test_cli_list_scenarios(capsys):
    assert cli_main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in REGISTERED:
        assert name in out


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    assert cli_main(["list-scenarios"]) == 0  # the first call may build it
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for _ in range(3):
        assert cli_main(["list-scenarios"]) == 0
    assert not built
    assert isinstance(cli.build_parser(), argparse.ArgumentParser) and built


# run in a fresh interpreter, so that no other test's imports count
DEFAULT_RUNS_IMPORTS = """
import json, sys
from pathlib import Path
from cavityconv import cli, scenarios
out = Path(sys.argv[1])
for name in sorted(scenarios.SCENARIOS):
    cfg = out / f"{name}.json"
    cfg.write_text(json.dumps({"scenario": name}))
    for flags in ([], ["--no-converge-check"]):
        assert cli.main(["run", str(cfg), "--out", str(out / f"{name}.out.json"), *flags]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.optimize", "scipy.sparse.csgraph")))))
"""


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(cavityconv.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_default_runs_never_import_scipy_optimize_or_csgraph(tmp_path):
    # the crossing fit bisects its closed form, and scipy.optimize's import
    # alone costs a cold gaussian_profile run ~0.16 s and ~15 MB; the sector
    # walk follows a sorted adjacency in Python, so no run needs csgraph
    done = subprocess.run([sys.executable, "-c", DEFAULT_RUNS_IMPORTS, str(tmp_path)],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_cli_convergence_sweep_csv(tmp_path, capsys):
    config = {"scenario": "convergence",
              "options": {"target": "pdc_epr", "n_max_list": [12, 16, 20]}}
    cfg = write_config(tmp_path, config)
    assert cli_main(["run", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_max,fidelity_vs_analytic"
    assert len(lines) == 4
    config["options"]["n_max_list"] = [12]  # needs two truncations
    assert cli_main(["run", write_config(tmp_path, config, "one.json")]) == 2
    assert "options.n_max_list" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        cli_main(["sweep", cfg, "--nmax", "12,16,20"])
    assert exited.value.code == 2
    assert "sweep" in capsys.readouterr().err
