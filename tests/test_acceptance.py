"""Acceptance suite: one test per headline criterion, each computed through
the shipping scenario layer at its stated tolerance.  Run with ``pytest -s``
to see one line per criterion.
"""

import math

import numpy as np
import pytest

from cavityconv.hamiltonians import PhysicalParams, ProcessKind, effective_xi
from cavityconv.scenarios import SCENARIOS, run_scenario
from cavityconv.serialize import result_to_json

XI_TARGET = 3.43e3


def report(number: int, label: str, detail: str) -> None:
    print(f"criterion {number:02d} [{label}]: PASS ({detail})")


@pytest.fixture(scope="module")
def epr_quality_doc():
    return run_scenario({"scenario": "epr_quality"})


@pytest.fixture(scope="module")
def full_vs_effective_doc():
    return run_scenario({"scenario": "full_vs_effective"})


def test_criterion_01_effective_coupling(epr_quality_doc):
    params = PhysicalParams(7e5, 7e5, 7e5, 1e7, 0.0, ProcessKind.PUC)
    xi_abs = abs(effective_xi(params))
    assert f"{xi_abs:.2g}" == "3.4e+03"
    assert xi_abs == pytest.approx(XI_TARGET, rel=1e-12)
    assert epr_quality_doc["metrics"]["xi_abs"] == pytest.approx(XI_TARGET, rel=1e-12)
    report(1, "effective coupling", f"|xi| = {xi_abs:.4g} s^-1")


def test_criterion_02_epr_quality(epr_quality_doc):
    short = epr_quality_doc["metrics"]
    assert short["squeeze_param"] == pytest.approx(0.686, abs=1e-12)
    assert short["quality_analytic"] == pytest.approx(0.746, abs=0.01)
    assert short["quality_deviation"] <= short["tail_bound"] + 1e-6

    # at r = 2.058 the pair-state tail tanh^{2(n+1)} r falls below the gate's
    # 1e-8 limit only from n_max = 283 on
    long = run_scenario(
        {"scenario": "epr_quality", "times": [6e-4], "truncation": [300, 300]}
    )["metrics"]
    assert long["squeeze_param"] == pytest.approx(2.058, abs=1e-12)
    assert long["quality_analytic"] == pytest.approx(0.984, abs=0.01)
    assert long["quality_deviation"] <= long["tail_bound"] + 1e-6
    report(
        2, "EPR quality",
        f"q(0.686) = {short['quality_analytic']:.4f}, "
        f"q(2.058) = {long['quality_analytic']:.4f}, "
        f"numeric deviations {short['quality_deviation']:.2e} / "
        f"{long['quality_deviation']:.2e} within tail bounds",
    )


def test_criterion_03_pair_state_oracle():
    tau = 0.68 / XI_TARGET
    doc = run_scenario({"scenario": "pdc_epr", "times": [tau]})
    m = doc["metrics"]
    assert m["squeeze_param"] == pytest.approx(0.68, abs=1e-12)
    assert m["fidelity_vs_analytic"] >= 1.0 - 1e-8
    report(3, "pair-state evolution oracle",
           f"fidelity = {m['fidelity_vs_analytic']:.12f} at n_max = 40")


def test_criterion_04_variance_identities():
    doc = run_scenario({"scenario": "epr_variances"})
    m = doc["metrics"]
    tolerance = 1e-6 + m["tail_bound"]
    assert m["dev_x"] < tolerance
    assert m["dev_p"] < tolerance
    assert m["expected_variance"] == pytest.approx(
        math.exp(-2 * m["squeeze_param"]) / 2.0
    )
    report(4, "variance identities",
           f"dev_x = {m['dev_x']:.2e}, dev_p = {m['dev_p']:.2e} < {tolerance:.2e}")


def test_criterion_05_full_vs_effective(full_vs_effective_doc):
    m = full_vs_effective_doc["metrics"]
    ratio = 1.0 / math.sqrt(m["lambda_over_delta_sq"])
    assert f"{ratio:.3g}" == "14.3"
    assert m["fidelity_end"] >= m["fidelity_bound"]
    assert m["max_leakage"] < m["leakage_bound"]
    rows = full_vs_effective_doc["tables"]["comparison"]["rows"]
    assert all(leak < m["leakage_bound"] for _, _, _, leak in rows)
    report(
        5, "full vs effective",
        f"fidelity(pi/2) = {m['fidelity_end']:.6f} >= {m['fidelity_bound']:.6f} "
        f"(C = {m['regression_constant_c']}), max leakage {m['max_leakage']:.4f} "
        f"< {m['leakage_bound']:.4f} at the recorded sampling "
        f"(dense envelope {m['max_leakage_dense']:.4f}, see ledger)",
    )


def test_criterion_06_beam_splitter_swap():
    doc = run_scenario({"scenario": "puc_swap"})
    m = doc["metrics"]
    assert abs(m["p_swapped"] - 1.0) < 1e-9
    report(6, "beam-splitter swap", f"P(|0,1>) = {m['p_swapped']:.12f}")


def test_criterion_07_degenerate_squeezer():
    doc = run_scenario({"scenario": "degenerate_squeeze"})
    m = doc["metrics"]
    assert m["r"] == pytest.approx(1.372, abs=1e-12)
    assert f"{m['r']:.3g}" == "1.37"
    assert m["variance_analytic"] == pytest.approx(1.6e-2, rel=0.05)
    assert m["variance_numeric"] == pytest.approx(1.6e-2, rel=0.05)
    assert m["squeezing_percent_analytic"] >= 93.0
    report(
        7, "degenerate squeezer",
        f"r = {m['r']:.4g}, variance {m['variance_numeric']:.4e} "
        f"(closed form {m['variance_analytic']:.4e}), "
        f"squeezing {m['squeezing_percent_analytic']:.1f}%",
    )


def test_criterion_08_gaussian_profile_consistency():
    doc = run_scenario({"scenario": "gaussian_profile"})
    m = doc["metrics"]
    assert m["alpha_fitted"] is True
    assert m["waist_w"] == 0.6
    assert m["r_at_fit_tau"] == pytest.approx(0.51, abs=1e-9)
    assert m["r"] == pytest.approx(1.36, abs=0.01)
    report(
        8, "Gaussian profile",
        f"alpha = {m['alpha']:.4f} fitted once; r(5.32e-4 s) = {m['r']:.4f}",
    )


def test_criterion_09_wigner_protocol_equivalence():
    worst = 0.0
    for state in ("vacuum", "one_photon", "tmsv"):
        doc = run_scenario({
            "scenario": "wigner_scan",
            "times": [0.68 / XI_TARGET],
            "options": {"state": state, "grid_points": 5, "grid_extent": 1.0},
        })
        m = doc["metrics"]
        assert m["max_protocol_deviation"] < 1e-9
        worst = max(worst, m["max_protocol_deviation"])
        if state == "vacuum":
            assert m["w_origin"] == pytest.approx(4.0 / math.pi**2, abs=1e-9)
    report(9, "Wigner protocol equivalence",
           f"worst per-point deviation {worst:.2e} over 3 states x 25 points")


def test_criterion_10_bell_preparation():
    doc = run_scenario({"scenario": "bell_prep"})
    m = doc["metrics"]
    for slug in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        assert m[f"fidelity_{slug}"] >= 0.99
        assert m[f"success_prob_{slug}"] == pytest.approx(0.5, abs=1e-6)
    report(10, "Bell preparation",
           f"min fidelity {m['min_fidelity']:.6f}, success 0.5 each")


def test_criterion_11_determinism():
    for name in sorted(SCENARIOS):
        config = {"scenario": name}
        first = result_to_json(run_scenario(config, check_convergence=False))
        second = result_to_json(run_scenario(config, check_convergence=False))
        assert first == second, f"scenario {name} output is not reproducible"
    report(11, "determinism", f"{len(SCENARIOS)} scenarios byte-identical on rerun")


def test_every_criterion_maps_onto_the_registry():
    # criteria 1-10 each run through one registered scenario; 11 spans them all
    coverage = {
        1: "epr_quality",
        2: "epr_quality",
        3: "pdc_epr",
        4: "epr_variances",
        5: "full_vs_effective",
        6: "puc_swap",
        7: "degenerate_squeeze",
        8: "gaussian_profile",
        9: "wigner_scan",
        10: "bell_prep",
    }
    assert set(coverage.values()) <= set(SCENARIOS)
    # the only scenario not pinned to a single criterion is the truncation
    # sweep, which backs the convergence gate used by every run
    assert set(SCENARIOS) - set(coverage.values()) == {"convergence"}
