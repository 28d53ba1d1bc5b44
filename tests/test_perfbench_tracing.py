"""The benchmark must still find every library name it uses.

``perfbench/tracing.py`` raises when one of its targets is missing, and
``perfbench/workloads.py`` calls builders and reads trajectory fields by
name, so a refactor that renames or removes one (``tomography.displace``,
``propagate.expm_multiply``, ``Trajectory.failure``, ...) fails here instead
of only in a benchmark run.  Both files are loaded read-only.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import cavityconv
import cavityconv.cli  # a traced target the package does not import itself
from cavityconv.hilbert import field_space, vacuum_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls(monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracing")
    tracer = tracing.Tracer(cavityconv)
    originals = {(path, attr): getattr(tracer._owner(path), attr)
                 for path, attr, _, _ in tracing.TARGETS}
    tracer.install()
    try:
        for (path, attr), original in originals.items():
            assert getattr(tracer._owner(path), attr) is not original, f"{path}.{attr}"
        grid = cavityconv.tomography.PhaseSpaceGrid(((0.0, 0.0), (0.1, 0.2j)))
        cavityconv.tomography.wigner_direct(vacuum_state(field_space(6, 6)), grid)
    finally:
        tracer.uninstall()
    for (path, attr), original in originals.items():
        assert getattr(tracer._owner(path), attr) is original, f"{path}.{attr}"
    assert tracing.layer_metrics(tracer.spans)["tomography.points"] == 2


@pytest.mark.parametrize("workload", ["time_dependent", "phase_space"])
def test_workload_pass_runs_and_checks(monkeypatch, tmp_path, workload):
    workloads = load_perfbench(monkeypatch, "workloads")
    ops = workloads.build(workload, 1, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run()) is None, op.label
