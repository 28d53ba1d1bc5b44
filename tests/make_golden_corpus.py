"""Write the reference documents of the tier-1 golden corpus.

    PYTHONPATH=src python tests/make_golden_corpus.py [--check]

Runs every config in ``CONFIGS`` with the convergence gate on and off and
stores each result document, as ``result_to_json`` renders it, in
``tests/golden/<name>.gate_on.json`` and ``<name>.gate_off.json``.  With
``--check`` it writes nothing: it prints the name of each stored document
whose text differs from the regenerated one, under it one line per value
that differs (its JSON path, the stored value and the regenerated one), and
exits 1 if any differ.  The
documents keep round-off entries at 12 significant digits, so a byte check
holds on one platform and is no cross-platform gate; ``test_golden_corpus``
compares with a tolerance.  The
configs go beyond the defaults that ``perfbench/golden`` pins: complex and
asymmetric couplings, lopsided truncations, ``times`` ranges and lists,
``outputs`` filters, a chain above ``propagate.CHAIN_SECTOR_LIMIT``, and the
non-default scan states and sweep targets.  The references pin the outputs
of the commit that wrote them; rerun this only when a change is meant to
alter a result, and name the entries that moved when it does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GATES = {"gate_on": True, "gate_off": False}

# a complex coupling of modulus 7e5, the default strength
_TILTED = [4.2e5, -5.6e5]

CONFIGS: dict[str, dict] = {
    # two_photon_hamiltonian, both kinds, at a lopsided and the smallest truncation
    "bell_prep-3_4": {"scenario": "bell_prep", "truncation": [3, 4]},
    "bell_prep-1_1-complex": {"scenario": "bell_prep", "truncation": [1, 1],
                              "params": {"lambda_b": [3e5, 5e5]}},
    "bell_prep-negative_detuning": {"scenario": "bell_prep",
                                    "params": {"lambda_a": _TILTED, "delta_big": -1.3e7}},
    # full_puc_hamiltonian on its reached sector, with a complex hop
    "full_vs_effective-3_5": {"scenario": "full_vs_effective", "truncation": [3, 5],
                              "options": {"grid_points": 7}},
    "full_vs_effective-times": {"scenario": "full_vs_effective", "truncation": [2, 3],
                                "params": {"lambda_b": _TILTED},
                                "times": [0.0, 1e-4, 7e-4, 2e-3]},
    # the reduced beam splitter with complex, asymmetric couplings
    "puc_swap-complex-range": {"scenario": "puc_swap",
                               "params": {"lambda_a": [3e5, -4e5], "lambda_b": [6e5, 2e5]},
                               "times": {"start": 0.0, "stop": 2e-3, "num": 9}},
    "puc_swap-lopsided": {"scenario": "puc_swap", "truncation": [1, 7],
                          "params": {"omega_cl": [0.0, 5e5]}, "times": [1e-3]},
    # the reduced two-mode squeezer on lopsided truncations
    "pdc_epr-lopsided": {"scenario": "pdc_epr", "truncation": [30, 44],
                         "params": {"lambda_b": [5e5, 2e5], "omega_cl": [6e5, 1e5]}},
    "pdc_epr-times-range": {"scenario": "pdc_epr", "truncation": [24, 24],
                            "times": {"start": 0.0, "stop": 1e-4, "num": 5}},
    "epr_variances-lopsided": {"scenario": "epr_variances", "truncation": [44, 32],
                               "params": {"delta_big": -1.1e7}},
    "epr_quality-complex": {"scenario": "epr_quality", "truncation": [36, 36],
                            "params": {"lambda_a": _TILTED, "omega_cl": [0.0, 7e5]}},
    # the single-mode squeezer: a sector above CHAIN_SECTOR_LIMIT and a small one
    "degenerate_squeeze-2100_0": {"scenario": "degenerate_squeeze", "truncation": [2100, 0]},
    "degenerate_squeeze-times": {"scenario": "degenerate_squeeze", "truncation": [90, 0],
                                 "params": {"lambda_a": _TILTED},
                                 "times": [5e-5, 1e-4, 1.5e-4]},
    # the phase-space scan on the two states the defaults do not use
    "wigner_scan-one_photon": {"scenario": "wigner_scan", "truncation": [16, 12],
                               "options": {"state": "one_photon", "grid_points": 3}},
    "wigner_scan-vacuum": {"scenario": "wigner_scan", "truncation": [12, 16],
                           "options": {"state": "vacuum", "grid_points": 4,
                                       "grid_extent": 0.7}},
    "wigner_scan-tmsv-lopsided": {"scenario": "wigner_scan", "truncation": [36, 30],
                                  "options": {"grid_points": 3}},
    # the pair state's chain at t = 0: the vacuum, then exact zeros along its run
    "wigner_scan-time_zero": {"scenario": "wigner_scan", "times": [0.0]},
    # sweeps through a target_config
    "convergence-puc_swap": {"scenario": "convergence",
                             "options": {"target": "puc_swap", "n_max_list": [1, 2, 4],
                                         "target_config": {"params": {"lambda_b": _TILTED}}}},
    "convergence-degenerate": {"scenario": "convergence",
                               "options": {"target": "degenerate_squeeze",
                                           "n_max_list": [40, 60, 80],
                                           "target_config": {"times": [1e-4]}}},
    # outputs filters
    "pdc_epr-outputs": {"scenario": "pdc_epr", "truncation": [20, 20],
                        "outputs": ["fidelity_vs_analytic"]},
    "puc_swap-outputs": {"scenario": "puc_swap", "outputs": ["p_swapped", "swap_time"],
                         "times": [2e-4, 9e-4]},
    # the closed forms, with and without a fitted crossing
    "gaussian_profile-alpha": {"scenario": "gaussian_profile",
                               "traversal": {"waist_w": 0.4, "alpha": 1.7}},
    "gaussian_profile-complex": {"scenario": "gaussian_profile",
                                 "params": {"lambda_a": _TILTED},
                                 "options": {"fit_target_r": 0.3}},
    "epr_quality-negative_detuning": {"scenario": "epr_quality", "truncation": [30, 30],
                                      "params": {"delta_big": -1e7}},
    "epr_variances-outputs": {"scenario": "epr_variances", "truncation": [30, 30],
                              "outputs": ["var_x_minus"]},
}


def document(config: dict, check_convergence: bool) -> str:
    from cavityconv.scenarios import run_scenario
    from cavityconv.serialize import result_to_json

    return result_to_json(run_scenario(config, check_convergence=check_convergence))


def drift(stored, made, path: str = "$") -> list[str]:
    """One line "path: stored -> made" per value of two parsed documents that
    differs, a key only one of them has shown as missing on the other side."""
    if isinstance(stored, dict) and isinstance(made, dict):
        return [line for key in sorted(stored.keys() | made.keys())
                for line in drift(stored.get(key, "<missing>"), made.get(key, "<missing>"),
                                  f"{path}.{key}")]
    if isinstance(stored, list) and isinstance(made, list) and len(stored) == len(made):
        return [line for k, (a, b) in enumerate(zip(stored, made))
                for line in drift(a, b, f"{path}[{k}]")]
    return [] if stored == made else [f"{path}: {stored!r} -> {made!r}"]


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(f"usage: {Path(__file__).name} [--check]", file=sys.stderr)
        return 2
    if not check:
        GOLDEN_DIR.mkdir(exist_ok=True)
    differ = False
    for name, config in CONFIGS.items():
        for suffix, gated in GATES.items():
            path, text = GOLDEN_DIR / f"{name}.{suffix}.json", document(config, gated)
            if not check:
                path.write_text(text)
            elif not path.is_file() or path.read_text() != text:
                print(path.name)
                if path.is_file():
                    for line in drift(json.loads(path.read_text()), json.loads(text)):
                        print(f"  {line}")
                differ = True
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
