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

import numpy as np
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


@pytest.mark.parametrize("workload", ["defaults", "large_fock", "time_dependent", "phase_space"])
def test_workload_pass_runs_and_checks(monkeypatch, tmp_path, workload):
    workloads = load_perfbench(monkeypatch, "workloads")
    ops = workloads.build(workload, 1, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run()) is None, op.label


@pytest.mark.parametrize("builder", ["full_puc", "full_pdc", "effective_puc", "effective_pdc"])
def test_built_hamiltonians_keep_the_shape_the_benchmark_reads(monkeypatch, builder):
    # tracing._nnz reads static_part.matrix and (op, nu) pairs of
    # oscillating_parts; workloads._td_oracle reads H.space and H.at(t).to_dense()
    tracing = load_perfbench(monkeypatch, "tracing")
    process = builder.rsplit("_", 1)[1].upper()
    params = cavityconv.PhysicalParams(7e5, 5e5j, 6e5, 1e7, 1.2e5, process)
    H = getattr(cavityconv, f"{builder}_hamiltonian")(cavityconv.make_space(3, 2, 3), params)
    parts = [H.static_part, *(op for op, _ in H.oscillating_parts)]
    assert tracing._nnz((), H) == sum(op.matrix.nnz for op in parts) > 0
    dim = H.space.total_dim
    for t in (0.0, 2e-6):
        dense = H.at(t).to_dense()
        assert dense.shape == (dim, dim) and np.allclose(dense, dense.conj().T, rtol=0, atol=1e-9)
