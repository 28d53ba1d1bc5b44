"""The benchmark's outside-in tracer must still find every function it wraps.

``perfbench/tracing.py`` raises when one of its targets is missing, so a
refactor that renames or removes a traced function (``tomography.displace``,
``propagate.expm_multiply``, ...) fails here instead of only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import cavityconv
import cavityconv.cli  # a traced target the package does not import itself
from cavityconv.hilbert import field_space, vacuum_state

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls(monkeypatch):
    tracing = load_tracing(monkeypatch)
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
