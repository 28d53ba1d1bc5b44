import json
import math

import numpy as np
import pytest

from cavityconv.cli import main as cli_main
from cavityconv.hamiltonians import PhysicalParams, ProcessKind
from cavityconv.scenarios import (
    SCENARIOS,
    ConfigError,
    ConvergenceGateError,
    convergence_sweep,
    list_scenarios,
    prepare_bell,
    resolve_config,
    run_scenario,
)
from cavityconv.serialize import result_to_json, round_sig, table_to_csv

REGISTERED = {
    "puc_swap", "pdc_epr", "epr_quality", "epr_variances", "full_vs_effective",
    "gaussian_profile", "degenerate_squeeze", "bell_prep", "wigner_scan",
    "convergence",
}


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


def test_complex_and_resonance_parsing():
    cfg = resolve_config({
        "scenario": "pdc_epr",
        "params": {"lambda_a": [0.0, -7e5], "delta_small": "resonance"},
    })
    assert cfg.params.lambda_a == -7e5j
    assert cfg.params.delta_small == pytest.approx(9.8e4)


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
    amp_e00 = basis_state(space, "e", 0, 0).inner(psi)
    amp_g11 = basis_state(space, "g", 1, 1).inner(psi)
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


def test_prepare_bell_validation():
    with pytest.raises(ValueError):
        prepare_bell("sigma+", two_photon_params())
    with pytest.raises(ValueError):
        prepare_bell("psi+", PhysicalParams(7e5, 7e5, 7e5, 1e7, 0.0, ProcessKind.PUC))


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


def test_cli_maps_truncation_overflow_to_validation_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "wigner_scan",
        "truncation": [6, 6],
        "options": {"state": "vacuum", "grid_points": 3, "grid_extent": 3.0},
    })
    assert cli_main(["run", cfg, "--no-converge-check"]) == 2
    assert "truncation" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["puc_swap", "full_vs_effective"])
def test_cli_maps_vanishing_xi_to_validation_exit(tmp_path, capsys, scenario):
    cfg = write_config(tmp_path, {"scenario": scenario, "params": {"omega_cl": 0}})
    assert cli_main(["run", cfg, "--no-converge-check"]) == 2
    err = capsys.readouterr().err
    assert "params.omega_cl" in err
    assert "Traceback" not in err


def test_cli_list_scenarios(capsys):
    assert cli_main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in REGISTERED:
        assert name in out


def test_cli_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "pdc_epr"})
    assert cli_main(["sweep", cfg, "--nmax", "12,16,20", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "n_max,fidelity_vs_analytic"
    assert len(lines) == 4
    assert cli_main(["sweep", cfg, "--nmax", "12"]) == 2  # needs two truncations
