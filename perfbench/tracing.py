"""Span tracing of rwalk from outside the program.

The tracer swaps the public functions listed in TRACED for timing
wrappers, wherever an rwalk module has bound them (`from .x import f`
copies the function into the importing module, so every such binding is
replaced), and restores the originals afterwards.  Each call records a
span [name, start, end, parent, command id, counts] in memory.  Work
counts come only from a call's arguments and its returned value, never
from program internals, so they repeat exactly from run to run.

No traced function runs inside the Monte Carlo worker threads, so one
span stack suffices and the child spans of a span never overlap: a
span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _convolve(args, kwargs, law):
    return {"laws.convolve.pairs": len(args[0].atoms) * len(args[1].atoms),
            "laws.mass_leak": law.mass_leak}


def _tabulate(args, kwargs, table):
    # classmethod: args[0] is the class, then (group, fn, window=None)
    window = _arg(args, kwargs, 3, "window")
    group = args[1]
    return {"tables.window_cells": window.size() if window is not None else group.order}


def _find_exponential(args, kwargs, result):
    return {"spectral.find_exponential.calls": 1,
            "spectral.newton_iterations": result[1].iterations}


def _stencil(args, kwargs, result):
    """Region points times atoms for one pointwise identity check."""
    law = args[0]
    order = getattr(law.group, "order", None)
    if order is not None:
        points = order
    else:
        window = _arg(args, kwargs, 3, "window") or sys.modules["rwalk.laws"].default_window(law)
        r = law.support_radius()
        points = math.prod(max(0, hi - lo + 1 - 2 * r) for lo, hi in zip(window.lo, window.hi))
    return {"tilting.stencil_terms": points * len(law.atoms)}


def _hitting_dp(args, kwargs, table):
    cells = table.window.size() if table.window is not None else args[0].group.order
    return {"recurrence.hitting_dp.cells": cells * (table.horizon + 1)}


def _simulate(args, kwargs, result):
    return {"recurrence.mc_steps": result.trajectories * result.horizon}


def _series(args, kwargs, series):
    """Cells of the n-step law's bounding box, summed over n = 1..horizon
    (on a finite group: horizon times the group order)."""
    law = args[0]
    order = getattr(law.group, "order", None)
    if order is not None:
        return {"recurrence.series_cells": series.horizon * order}
    spans = [max(c) - min(c) for c in zip(*law.atoms)]
    cells = sum(math.prod(n * s + 1 for s in spans) for n in range(1, series.horizon + 1))
    return {"recurrence.series_cells": cells}


def _calls(key):
    return lambda args, kwargs, result: {key: 1}


# (module, attribute, counter): the public entry points of each layer.
TRACED = [
    ("specfile", "parse_walk_spec", None),
    ("specfile", "format_walk_spec", None),
    ("laws", "Law.convolve", _convolve),
    ("laws", "check_irreducible", _calls("laws.check_irreducible.calls")),
    ("tables", "FunctionTable.tabulate", _tabulate),
    ("spectral", "find_exponential", _find_exponential),
    ("spectral", "check_dual_spectral_radius", None),
    ("spectral", "verify_r_invariance", _stencil),
    ("tilting", "tilt", None),
    ("tilting", "check_tilted_powers", None),
    ("tilting", "check_dual_invariance", _stencil),
    ("tilting", "check_measure_invariance", _stencil),
    ("tilting", "check_symmetric_degeneracy", None),
    ("recurrence", "hitting_dp", _hitting_dp),
    ("recurrence", "check_translation_invariance", None),
    ("recurrence", "simulate_harris", _simulate),
    ("recurrence", "build_recurrence_report", None),
    ("recurrence", "return_series", _series),
    ("recurrence", "estimate_rho", None),
    ("recurrence", "r_recurrence_test", None),
]

MODULES = ("cli", "specfile", "laws", "tables", "spectral", "tilting", "recurrence")
MAX_COUNTS = {"laws.mass_leak"}  # worst value, not a sum
PER_COMMAND = ("spectral.find_exponential.calls", "laws.check_irreducible.calls")


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a root span (one CLI command)."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        modules = {k: m for k, m in sys.modules.items()
                   if k == "rwalk" or k.startswith("rwalk.")}
        for module, attr, counter in TRACED:
            mod = modules[f"rwalk.{module}"]
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counter)
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "command": c,
                 **({"counts": k} if k else {})}
                for n, s, e, p, c, k in self.spans]


def pass_profile(spans, commands: set) -> dict:
    """Inclusive and self seconds per span name, and work counts, summed
    over the spans of one pass (the given command ids)."""
    child_time = {}
    for i, (n, s, e, parent, c, _) in enumerate(spans):
        if c in commands and parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (e - s)
    incl, self_s, counts = {}, {}, {"trace.spans": 0}
    for i, (n, s, e, parent, c, k) in enumerate(spans):
        if c not in commands:
            continue
        counts["trace.spans"] += 1
        incl[n] = incl.get(n, 0.0) + (e - s)
        self_s[n] = self_s.get(n, 0.0) + (e - s) - child_time.get(i, 0.0)
        for key, v in (k or {}).items():
            counts[key] = max(counts.get(key, 0), v) if key in MAX_COUNTS \
                else counts.get(key, 0) + v
    return {"incl": incl, "self": self_s, "counts": counts}


TIME_METRICS = [
    "recurrence.hitting_dp", "tables.tabulate", "spectral.verify_r_invariance",
    "tilting.check_dual_invariance", "tilting.check_measure_invariance",
    "laws.convolve", "tilting.check_tilted_powers", "spectral.find_exponential",
    "spectral.check_dual_spectral_radius", "laws.check_irreducible",
    "specfile.parse_walk_spec", "specfile.format_walk_spec", "tilting.tilt",
    "recurrence.simulate_harris", "recurrence.return_series",
    "recurrence.estimate_rho", "recurrence.r_recurrence_test",
]
COUNT_METRICS = [
    "recurrence.hitting_dp.cells", "tables.window_cells", "tilting.stencil_terms",
    "laws.convolve.pairs", "spectral.newton_iterations", "recurrence.mc_steps",
    "recurrence.series_cells",
]


def layer_metrics(profiles, commands_per_pass, traced_walls, untraced_walls,
                  t_one_worker, nproc):
    """Per-layer metrics {name: (value, unit)} from the traced passes, and
    whether the work counts were equal in every traced pass.  Times are
    medians over passes; counts are those of one pass."""
    med = statistics.median
    m = {}
    for name in TIME_METRICS:
        m[f"{name}_s"] = (med([p["incl"].get(name, 0.0) for p in profiles]), "s")
    m["recurrence.check_translation_invariance.self_s"] = (
        med([p["self"].get("recurrence.check_translation_invariance", 0.0)
             for p in profiles]), "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (med([sum(v for k, v in p["self"].items()
                                          if k.split(".")[0] == module)
                                      for p in profiles]), "s")
    counts = profiles[0]["counts"]
    repeat = all(p["counts"] == counts for p in profiles)
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0), "count")
    m["laws.mass_leak"] = (counts.get("laws.mass_leak", 0.0), "prob")
    for name in PER_COMMAND:
        m[name] = (counts.get(name, 0) / commands_per_pass, "calls/cmd")

    steps = counts.get("recurrence.mc_steps", 0)
    t_default = m["recurrence.simulate_harris_s"][0]
    m["recurrence.mc_ns_per_step"] = (1e9 * t_default / steps if steps else 0.0, "ns")
    m["recurrence.simulate_harris_1worker_s"] = (t_one_worker, "s")
    m["recurrence.mc_parallel_efficiency"] = (
        t_one_worker / (nproc * t_default) if t_default else 0.0, "ratio")

    traced, untraced = med(traced_walls), med(untraced_walls)
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.self_coverage"] = (med([sum(p["self"].values()) / w
                                     for p, w in zip(profiles, traced_walls)]), "ratio")
    m["trace.spans"] = (counts["trace.spans"], "count")
    return m, repeat
