"""Spans around netmatch's public functions, recorded from outside the package.

Names are imported by value across the package (``capacity_profile`` into
``regions`` and ``cli``, ``prepare_profiles`` into ``transmissibility``,
``estimate_error`` into ``cli``), so a function is wrapped at every module
attribute that binds it.  Only module-level public functions are wrapped:
per-element methods such as ``SetFunction.__call__`` run millions of times
per axiom scan and would swamp the numbers.  A span holds a name, start,
end and parent id; spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import math
import sys
from time import perf_counter

PACKAGE = "netmatch"
#: Modules that do measurable work.  scalars, errors and fixtures do none.
LAYERS = ("cli", "graph", "mincut", "entropy", "setfunc", "simplex", "regions",
          "transmissibility", "simulator")


def _rows(args, kwargs, result):
    return len(kwargs["constraints"] if "constraints" in kwargs else args[1])


def _core(args, kwargs, result):
    return len(result)


def _table_entries(args, kwargs, result):
    return sum(int(table.size) for table in result.tables.values())


def _candidates(args, kwargs, result):
    net, model, n = args[0], args[1], args[2]
    return math.prod(model.alphabet_sizes) ** n * len(net.sinks)


#: Counts computed from a call's arguments and return value, by span name.
HOOKS = {
    "simplex.solve_feasibility": _rows,
    "simplex.irreducible_infeasible_subset": _core,
    "simulator.build_code": _table_entries,
    "simulator.estimate_error": _candidates,
}


class Tracer:
    """Installs and removes span-recording wrappers; collects the spans.

    A span is ``[id, parent id or -1, name, start, end, computed count]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self.names: set[str] = set()

    def install(self) -> None:
        """Find every public function of every layer and each place it is bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    self.names.add(name)
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((module, attr, obj, hit[1]))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span with no parent around one benchmark operation."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        hook = HOOKS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                try:
                    span[5] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the signature moved; the count is reported as missing
            return result

        return wrapper


# --------------------------------------------------------------------------
# Per-layer metrics.  Each entry: (metric, unit, how it is obtained,
# function).  "span" numbers are times read from spans; "computed" numbers
# are counts from call arguments, return values and call counts.

def _stat(span_name, kind):
    return lambda stats, rounds: stats.get(span_name, {}).get(kind, 0.0) / (
        rounds if kind in ("calls", "s", "self_s") else 1)


def _mean_rows(stats, rounds):
    s = stats.get("simplex.solve_feasibility", {})
    return s["computed"] / s["counted"] if s.get("counted") else 0.0


def _iis_solves(stats, rounds):
    s = stats.get("simplex.irreducible_infeasible_subset", {})
    return s["child_solves"] / s["calls"] if s.get("calls") else 0.0


def _iis_kept(stats, rounds):
    s = stats.get("simplex.irreducible_infeasible_subset", {})
    return s["computed"] / s["child_solves"] if s.get("child_solves") else 0.0


def _per_call(span_name):
    def value(stats, rounds):
        s = stats.get(span_name, {})
        return s["computed"] / s["counted"] if s.get("counted") else 0.0
    return value


PER_LAYER = [
    ("mincut.capacity_profile.s", "s", "span", _stat("mincut.capacity_profile", "s")),
    ("mincut.max_flow.calls", "count", "computed", _stat("mincut.max_flow", "calls")),
    ("mincut.max_flow.self_s", "s", "span", _stat("mincut.max_flow", "self_s")),
    ("mincut.max_flow.mean_us", "us", "span", _stat("mincut.max_flow", "mean_us")),
    ("entropy.entropy_profile.s", "s", "span", _stat("entropy.entropy_profile", "s")),
    ("entropy.joint_entropy.calls", "count", "computed", _stat("entropy.joint_entropy", "calls")),
    ("entropy.joint_entropy.s", "s", "span", _stat("entropy.joint_entropy", "s")),
    ("setfunc.is_polymatroid.s", "s", "span", _stat("setfunc.is_polymatroid", "s")),
    ("setfunc.is_copolymatroid.s", "s", "span", _stat("setfunc.is_copolymatroid", "s")),
    ("setfunc.iter_nonempty_subsets.calls", "count", "computed",
     _stat("setfunc.iter_nonempty_subsets", "calls")),
    ("setfunc.iter_nonempty_subsets.s", "s", "span", _stat("setfunc.iter_nonempty_subsets", "s")),
    ("simplex.solve_feasibility.calls", "count", "computed",
     _stat("simplex.solve_feasibility", "calls")),
    ("simplex.solve_feasibility.self_s", "s", "span", _stat("simplex.solve_feasibility", "self_s")),
    ("simplex.solve_feasibility.rows_mean", "count", "computed", _mean_rows),
    ("simplex.irreducible_infeasible_subset.s", "s", "span",
     _stat("simplex.irreducible_infeasible_subset", "s")),
    ("simplex.iis.solves", "count", "computed", _iis_solves),
    ("simplex.iis.kept_ratio", "ratio", "computed", _iis_kept),
    ("regions.prepare_profiles.s", "s", "span", _stat("regions.prepare_profiles", "s")),
    ("regions.feasible.calls", "count", "computed", _stat("regions.feasible", "calls")),
    ("regions.feasible.s", "s", "span", _stat("regions.feasible", "s")),
    ("regions.equivalence_check.self_s", "s", "span", _stat("regions.equivalence_check", "self_s")),
    ("regions.separation_check.self_s", "s", "span", _stat("regions.separation_check", "self_s")),
    ("transmissibility.check.self_s", "s", "span", _stat("transmissibility.check", "self_s")),
    ("graph.parse_network.s", "s", "span", _stat("graph.parse_network", "s")),
    ("entropy.parse_source_model.s", "s", "span", _stat("entropy.parse_source_model", "s")),
    ("graph.validate_acyclic.calls", "count", "computed", _stat("graph.validate_acyclic", "calls")),
    ("graph.validate_acyclic.s", "s", "span", _stat("graph.validate_acyclic", "s")),
    ("cli.run.self_s", "s", "span", _stat("cli.run", "self_s")),
    ("simulator.build_code.calls", "count", "computed", _stat("simulator.build_code", "calls")),
    ("simulator.build_code.self_s", "s", "span", _stat("simulator.build_code", "self_s")),
    ("simulator.scan.self_s", "s", "span", _stat("simulator.estimate_error", "self_s")),
    ("simulator.table_entries_per_code", "count", "computed", _per_call("simulator.build_code")),
    ("simulator.candidates_per_trial", "count", "computed", _per_call("simulator.estimate_error")),
]

#: Span names each metric reads, for reporting names absent from the program.
_SOURCES = {
    "simplex.iis.solves": "simplex.irreducible_infeasible_subset",
    "simplex.iis.kept_ratio": "simplex.irreducible_infeasible_subset",
    "simulator.scan.self_s": "simulator.estimate_error",
    "simulator.table_entries_per_code": "simulator.build_code",
    "simulator.candidates_per_trial": "simulator.estimate_error",
}


def span_name_of(metric: str) -> str:
    return _SOURCES.get(metric, metric.rsplit(".", 1)[0])


def span_stats(spans: list[list]) -> dict:
    """Per span name: calls, inclusive s (outermost only), self_s, mean_us,
    computed-count totals, and solves made directly inside an IIS.  A span's
    id is its index in ``spans``."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
    stats: dict[str, dict] = collections.defaultdict(lambda: {
        "calls": 0, "s": 0.0, "all_s": 0.0, "self_s": 0.0,
        "computed": 0, "counted": 0, "child_solves": 0})
    for span in spans:
        sid, parent, name, start, end, computed = span
        s = stats[name]
        duration = end - start
        s["calls"] += 1
        s["all_s"] += duration
        s["self_s"] += duration - child_time.get(sid, 0.0)
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][2] == name:
                nested = True
                break
            ancestor = spans[ancestor][1]
        if not nested:
            s["s"] += duration
        if computed is not None:
            s["computed"] += computed
            s["counted"] += 1
        if name == "simplex.solve_feasibility" and parent >= 0 \
                and spans[parent][2] == "simplex.irreducible_infeasible_subset":
            stats[spans[parent][2]]["child_solves"] += 1
    for s in stats.values():
        s["mean_us"] = s["all_s"] / s["calls"] * 1e6 if s["calls"] else 0.0
    return stats


def layer_metrics(spans: list[list], names: set[str], rounds: int, overhead_s: float):
    """The per-layer metrics, per traced round, and the metric names whose
    functions the program no longer has."""
    stats = span_stats(spans)
    metrics, absent = {}, []
    for metric, unit, source, fn in PER_LAYER:
        if span_name_of(metric) not in names:
            absent.append(metric)
        metrics[metric] = {"value": fn(stats, rounds), "unit": unit, "source": source}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s", "source": "span"}
    return metrics, absent
