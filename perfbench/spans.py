"""Spans around torusfill's public functions, installed from outside.

``Tracer`` wraps each public function named in ``LAYERS`` and rebinds the
wrapper everywhere the original is bound: in its home module, in the
package namespace, and in the modules that import it by name (for example
``torusfill.filling.check_truncated``), so nested calls such as the
membership check inside ``adapted_basis`` get spans of their own.  Nothing
in the library changes; ``remove`` restores the originals.

Spans live in flat arrays (name, start, end, parent) and are reduced to the
per-layer table when the run ends.  Counters that need a result (rejections,
points, samples) are taken by small observers at the same boundaries.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

LAYERS = {
    "diophantine": ("check_truncated", "best_gamma", "resonance_search",
                    "complement_measure_estimate"),
    "lattice": ("lattice_points_in", "successive_minima", "extract_zbasis", "duality_check"),
    "filling": ("adapted_basis", "hitting_time"),
    "simulator": ("empirical_fill_time",),
    "cli": ("run_command",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_check(counts, args, kwargs, result):
    counts["rejects"] += result is not None


def _observe_points(counts, args, kwargs, result):
    counts["points"] += int(result.shape[0])


def _observe_extract(counts, args, kwargs, result):
    minima = _arg(args, kwargs, 1, "minima")
    counts["passthrough"] += tuple(result.columns) == tuple(minima.witnesses)


def _observe_hit(counts, args, kwargs, result):
    counts["within_delta"] += result.endpoint_distance < _arg(args, kwargs, 2, "delta")


def _observe_fill(counts, args, kwargs, result):
    dt = _arg(args, kwargs, 3, "dt")
    if result.fill_time is None:
        counts["samples"] += int(_arg(args, kwargs, 4, "max_time") // dt) + 1
    else:
        counts["samples"] += round(result.fill_time / dt) + 1
        counts["filled"] += 1


OBSERVERS = {
    "diophantine.check_truncated": _observe_check,
    "lattice.lattice_points_in": _observe_points,
    "lattice.extract_zbasis": _observe_extract,
    "filling.hitting_time": _observe_hit,
    "simulator.empirical_fill_time": _observe_fill,
}


class Tracer:
    """Records a span per wrapped call while installed."""

    def __init__(self, package: str = "torusfill"):
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts = {k: 0 for k in ("rejects", "points", "passthrough", "within_delta",
                                      "samples", "filled")}
        self._stack: list[int] = []
        self._sites = []
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._sites.append((mod, attr, original, wrapper))

    def _wrap(self, name, original):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    def table(self) -> dict:
        """Per-span-name calls, busy seconds, self seconds and durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        rows = {name: {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [],
                       "nested_check": 0.0} for name in self.names}
        for i in range(n):
            row = rows[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["busy"] += dur[i]
            row["self"] += dur[i] - child[i]
            row["durations"].append(dur[i])
            p = self.parent[i]
            if p >= 0 and self.names[self.name_id[i]] == "diophantine.check_truncated":
                rows[self.names[self.name_id[p]]]["nested_check"] += dur[i]
        return rows


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float) -> dict:
    """Metric name -> (value, unit), as per-op figures over ``ops`` traced ops.

    Counts and busy times are divided by the number of traced ops so they
    compare across versions whatever the number of rounds a run completes.
    Ratios and medians whose base is empty read 0.
    """
    rows = tracer.table()
    c = tracer.counts

    def per_op(count):
        return _ratio(count, ops), "1/op"

    def busy_ms(name, key="busy"):
        return _ratio(rows[name][key] * 1e3, ops), "ms/op"

    def p50(name, scale, unit):
        d = rows[name]["durations"]
        return (statistics.median(d) * scale if d else 0.0), unit

    def ratio(num, den):
        return _ratio(num, den), "ratio"

    check = "diophantine.check_truncated"
    basis = "filling.adapted_basis"
    points = "lattice.lattice_points_in"
    minima = "lattice.successive_minima"
    extract = "lattice.extract_zbasis"
    hit = "filling.hitting_time"
    fill = "simulator.empirical_fill_time"
    cli = "cli.run_command"
    return {
        f"{check}.calls": per_op(rows[check]["calls"]),
        f"{check}.ms": busy_ms(check),
        f"{check}.ms_p50": p50(check, 1e3, "ms"),
        "diophantine.reject_ratio": ratio(c["rejects"], rows[check]["calls"]),
        f"{basis}.calls": per_op(rows[basis]["calls"]),
        f"{basis}.self_ms": busy_ms(basis, "self"),
        f"{basis}.recheck_share": ratio(rows[basis]["nested_check"], rows[basis]["busy"]),
        f"{points}.ms": busy_ms(points),
        f"{points}.points": per_op(c["points"]),
        f"{minima}.calls": per_op(rows[minima]["calls"]),
        f"{minima}.ms": busy_ms(minima),
        f"{extract}.ms": busy_ms(extract),
        f"{extract}.passthrough_ratio": ratio(c["passthrough"], rows[extract]["calls"]),
        "lattice.duality_check.ms": busy_ms("lattice.duality_check"),
        f"{hit}.calls": per_op(rows[hit]["calls"]),
        f"{hit}.us_p50": p50(hit, 1e6, "us"),
        f"{hit}.ms": busy_ms(hit),
        "filling.within_delta_ratio": ratio(c["within_delta"], rows[hit]["calls"]),
        f"{fill}.calls": per_op(rows[fill]["calls"]),
        f"{fill}.ms": busy_ms(fill),
        "simulator.samples": per_op(c["samples"]),
        "simulator.us_per_sample": (_ratio(rows[fill]["busy"] * 1e6, c["samples"]), "us"),
        "simulator.filled_ratio": ratio(c["filled"], rows[fill]["calls"]),
        "diophantine.best_gamma.ms": busy_ms("diophantine.best_gamma"),
        "diophantine.resonance_search.ms": busy_ms("diophantine.resonance_search"),
        "diophantine.complement_measure_estimate.ms":
            busy_ms("diophantine.complement_measure_estimate"),
        f"{cli}.calls": per_op(rows[cli]["calls"]),
        "cli.self_ms": busy_ms(cli, "self"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
