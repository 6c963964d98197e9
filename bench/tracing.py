"""Per-layer timers and counters for a traced benchmark run.

The program is not edited: the tracer replaces module attributes that the
layers' callers look up at call time (for example
``chpdispatch.engine.evaluate_batch``) with wrappers that time each call and
update counters. Each wrapper records inclusive time and self time, which is
its inclusive time minus the inclusive time of wrapped calls made inside it.
A name that no longer exists is listed in ``missing`` and skipped.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

FEASIBLE_VIOLATION = 1e-9
FIXED_POINT_WARNING = "power balance fixed point"


def _rows(args, index):
    return len(args[index])


# (module, attribute, span key, counters)
# counters: [(counter name, fn(args, result) -> increment)]
WRAPS = [
    ("chpdispatch.engine", "_env_select", "engine.select", []),
    ("chpdispatch.engine", "_indicator_fitness", "engine.indicator", []),
    ("chpdispatch.engine", "_crowding_truncate", "engine.crowding", []),
    ("chpdispatch.engine", "_fast_nds", "engine.nds", []),
    ("chpdispatch.engine", "_spawn_children", "engine.variation",
     [("engine.generations", lambda a, r: 1)]),
    ("chpdispatch.engine", "evaluate_batch", "constraints.evaluate",
     [("constraints.rows", lambda a, r: _rows(a, 0)),
      ("constraints.feasible_rows",
       lambda a, r: int((r.violation <= FEASIBLE_VIOLATION).sum()))]),
    ("chpdispatch.constraints", "repair_batch", "constraints.repair", []),
    ("chpdispatch.constraints", "_close_power_balance",
     "constraints.power_balance", []),
    ("chpdispatch.constraints", "_close_heat_balance",
     "constraints.heat_balance", []),
    ("chpdispatch.constraints", "loss_batch", "model.loss",
     [("constraints.loss_calls", lambda a, r: 1)]),
    ("chpdispatch.cli", "loss_batch", "model.loss", []),
    ("chpdispatch.constraints", "cost_batch", "model.objectives", []),
    ("chpdispatch.constraints", "emission_batch", "model.objectives", []),
    ("chpdispatch.constraints", "capacity_violation_batch",
     "model.objectives", []),
    ("chpdispatch.geometry.ForPolygon", "project_many", "geometry.project",
     [("geometry.project_rows", lambda a, r: _rows(a, 1))]),
    ("chpdispatch.cli", "_write_front_csv", "cli.write", []),
    ("chpdispatch.cli", "_read_front_csv", "cli.read",
     [("cli.front_reads", lambda a, r: 1)]),
    ("chpdispatch.cli", "hv_metric", "metrics.hv", []),
    ("chpdispatch.cli", "spread_delta", "metrics.spread", []),
    ("chpdispatch.cli", "eaf_surfaces", "metrics.eaf", []),
    ("chpdispatch.cli", "wilcoxon_signed_rank", "metrics.wilcoxon", []),
    ("chpdispatch.cli", "emit_reports", "cli.report", []),
]


def _resolve(path):
    """Module or class named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Wraps the names in WRAPS while installed; see the module docstring."""

    def __init__(self):
        self.buckets: dict[str, tuple[defaultdict, Counter]] = {}
        self.missing: list[str] = []
        self.sources: set[str] = set()   # span keys and counters installed
        self._child = [0.0]
        self._installed = []
        self.sources.add("constraints.fixed_point_warnings")
        self.phase("default")

    def phase(self, name):
        """Send the following spans and counts to the bucket of this name:
        a (self seconds by span key, counts by counter name) pair."""
        self._bucket = self.buckets.setdefault(
            name, (defaultdict(float), Counter()))

    def install(self):
        for owner_path, attr, key, counters in WRAPS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, key, counters))
            self.sources.add(key)
            self.sources.update(name for name, _ in counters)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, key, counters):
        child = self._child
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self_s, counts = tracer._bucket
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[key] += dur - child.pop()
                child[-1] += dur
            for name, inc in counters:
                counts[name] += inc(args, result)
            return result
        return wrapper

    def record_warnings(self, caught):
        self._bucket[1]["constraints.fixed_point_warnings"] += sum(
            1 for w in caught if str(w.message).startswith(FIXED_POINT_WARNING))
