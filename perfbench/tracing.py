"""Outside-in tracing of cavityconv for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each layer with spans
(name, start, end, parent) kept in memory; ``Tracer.uninstall`` puts the
originals back, so untraced passes run the library untouched.  A wrapped
function is also replaced wherever another module bound it by name
(``scenarios.evolve_static``, ``cli.result_to_json``, ...).  A target that
does not exist is an error, never a silent zero.

``layer_metrics`` turns the spans of one pass into the per-layer split.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from pathlib import Path

# (owner, attribute, span name, size of the work). The owner is a module
# of the package or "module.Class".
_BUILDERS = ("full_puc_hamiltonian", "full_pdc_hamiltonian", "effective_puc_hamiltonian",
             "effective_pdc_hamiltonian", "reduced_bilinear_generator", "two_photon_hamiltonian")


def _nnz(args, out):
    parts = [out] if hasattr(out, "matrix") else [out.static_part, *(op for op, _ in out.oscillating_parts)]
    return sum(op.matrix.nnz for op in parts)


TARGETS = [
    ("cli", "main", "cli.main", None),
    ("scenarios", "run_scenario", "scenarios.run", None),
    ("scenarios", "resolve_config", "scenarios.resolve", None),
    ("scenarios", "convergence_sweep", "scenarios.sweep", None),
    ("scenarios", "prepare_bell", "scenarios.bell", None),
    ("serialize", "result_to_json", "serialize.json", lambda args, out: len(out.encode())),
    ("serialize", "table_to_csv", "serialize.csv", lambda args, out: len(out.encode())),
    ("propagate", "evolve_static", "propagate.static", None),
    ("propagate", "evolve_td", "propagate.td", None),
    ("propagate", "expm_multiply", "propagate.expm", lambda args, out: args[0].shape[0]),
    ("hilbert.Operator", "is_hermitian", "propagate.hermitian_check", None),
    ("hilbert.Operator", "__init__", "hilbert.operator", lambda args, out: args[1].total_dim),
    *(("hamiltonians", name, "hamiltonians.build", _nnz) for name in _BUILDERS),
    ("hamiltonians", "profile_squeezing_factor", "hamiltonians.profile", None),
    ("hamiltonians", "fit_traversal_alpha", "hamiltonians.profile", None),
    ("tomography", "displace", "tomography.displace", None),
    ("tomography", "wigner_direct", "tomography.wigner", lambda args, out: len(args[1].points)),
    ("tomography", "wigner_via_protocol", "tomography.wigner", lambda args, out: len(args[1].points)),
    ("tomography", "probe_protocol", "tomography.probe", None),
]


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size is not None:
                span.size = size(args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]

    def _owner(self, path: str):
        module_name, _, class_name = path.partition(".")
        owner = getattr(self.package, module_name)
        return getattr(owner, class_name) if class_name else owner

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        obs = self.package.observables
        public_obs = [name for name, fn in vars(obs).items()
                      if inspect.isfunction(fn) and fn.__module__ == obs.__name__
                      and not name.startswith("_")]
        if not public_obs:
            raise RuntimeError("cavityconv.observables has no public functions to trace")
        targets = TARGETS + [("observables", name, "observables.call", None) for name in public_obs]
        modules = self._modules()
        for path, attr, name, size in targets:
            owner = self._owner(path)
            original = getattr(owner, attr)  # a missing target raises here
            wrapped = self._wrap(original, name, size)
            self._set(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        # registry entries: the first run under run_scenario is the scenario,
        # any later one is the convergence-gate rerun
        registry = self.package.scenarios.SCENARIOS
        for key, entry in list(registry.items()):
            self._undo.append((registry, key, entry))
            registry[key] = dataclasses.replace(entry, run=self._wrap(entry.run, "scenarios.scenario", None))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent.id if s.parent else None,
                    "start": s.start - t0, "end": s.end - t0, "error": s.error, "size": s.size,
                }) + "\n")


def _ancestor_named(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one pass."""
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent.id] = child_time.get(s.parent.id, 0.0) + s.duration

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        # time covered by the named spans, counting nested repeats once
        return sum(s.duration for n in names for s in by_name.get(n, ())
                   if not _ancestor_named(s, names))

    def self_time(layer):
        return sum(s.duration - child_time.get(s.id, 0.0)
                   for s in spans if s.name.split(".")[0] == layer)

    def sizes(name):
        return [s.size for s in by_name.get(name, ()) if s.size is not None]

    def errors(name, kind=None):
        return sum(1 for s in by_name.get(name, ()) if s.error and (kind is None or s.error == kind))

    gate_s, seen = 0.0, set()
    for s in by_name.get("scenarios.scenario", ()):
        if s.parent is not None and s.parent.name == "scenarios.run":
            if s.parent.id in seen:
                gate_s += s.duration
            seen.add(s.parent.id)
    run_s = total("scenarios.run")

    return {
        "propagate.static_calls": count("propagate.static"),
        "propagate.static_s": total("propagate.static"),
        "propagate.expm_actions": count("propagate.expm"),
        "propagate.expm_s": total("propagate.expm"),
        "propagate.expm_max_dim": max(sizes("propagate.expm"), default=0),
        "propagate.hermitian_checks": count("propagate.hermitian_check"),
        "propagate.td_calls": count("propagate.td"),
        "propagate.td_s": total("propagate.td"),
        "propagate.td_expm_actions": sum(1 for s in by_name.get("propagate.expm", ())
                                         if _ancestor_named(s, ("propagate.td",))),
        "propagate.errors": errors("propagate.static") + errors("propagate.td"),
        "tomography.displace_calls": count("tomography.displace"),
        "tomography.displace_s": total("tomography.displace"),
        "tomography.points": sum(sizes("tomography.wigner")),
        "tomography.self_s": self_time("tomography"),
        "tomography.truncation_errors": errors("tomography.displace", "TruncationError"),
        "scenarios.self_s": self_time("scenarios"),
        "scenarios.resolve_s": total("scenarios.resolve"),
        "scenarios.gate_s": gate_s,
        "scenarios.gate_share": gate_s / run_s if run_s > 0.0 else 0.0,
        "scenarios.gate_failures": errors("scenarios.run", "ConvergenceGateError"),
        "hamiltonians.build_calls": count("hamiltonians.build"),
        "hamiltonians.build_s": total("hamiltonians.build"),
        "hamiltonians.max_nnz": max(sizes("hamiltonians.build"), default=0),
        "hamiltonians.profile_s": total("hamiltonians.profile"),
        "hilbert.operator_new": count("hilbert.operator"),
        "hilbert.operator_s": total("hilbert.operator"),
        "hilbert.max_dim": max(sizes("hilbert.operator"), default=0),
        "observables.calls": count("observables.call"),
        "observables.s": total("observables.call"),
        "serialize.s": total("serialize.json", "serialize.csv"),
        "serialize.bytes": sum(sizes("serialize.json")) + sum(sizes("serialize.csv")),
        "cli.self_s": self_time("cli"),
    }
