"""Spans and counters around the calls into each nielsenkit layer.

The wrappers are installed from outside the program: module attributes and
methods are replaced for the duration of a traced pass and restored after it.
Each span keeps its name, start, end, parent span and the instance it belongs
to; per-layer totals, self times and counts are folded in as spans close.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics, as (name, unit, better).  Times are seconds per traced
# pass over the workload's instances; counts are per pass and repeat exactly.
# `_targets` lists the functions behind each layer name.
METRICS = (
    ("rtt.nielsen_paths_brute.s", "s", "lower"),
    ("rtt.nielsen_paths_brute.self_s", "s", "lower"),
    ("rtt.nielsen_paths_brute.calls", "count", "lower"),
    ("rtt.nielsen_paths_brute.paths", "count", "higher"),
    ("rtt.oracle.s", "s", "lower"),
    ("rtt.oracle.calls", "count", "lower"),
    ("rtt.oracle.discarded_calls", "count", "lower"),
    ("rtt.classify.s", "s", "lower"),
    ("rtt.classify.calls", "count", "lower"),
    ("rtt.classify.unclassifiable", "count", "lower"),
    ("rtt.pf_metric.s", "s", "lower"),
    ("rtt.pf_metric.calls", "count", "lower"),
    ("rtt.pf_metric.iterative_calls", "count", "lower"),
    ("rtt.find_inp.s", "s", "lower"),
    ("rtt.find_inp.calls", "count", "lower"),
    ("rtt.find_inp.found", "count", "higher"),
    ("rtt.find_inp.capped", "count", "lower"),
    ("rtt.derive_filtration.s", "s", "lower"),
    ("graphs.subdivided_fixed_map.s", "s", "lower"),
    ("graphs.any_route_endo.s", "s", "lower"),
    ("words.is_injective.s", "s", "lower"),
    ("words.is_injective.calls", "count", "lower"),
    ("invariants.analyze.s", "s", "lower"),
    ("invariants.analyze.self_s", "s", "lower"),
    ("invariants.local_index.s", "s", "lower"),
    ("invariants.lefschetz_number.s", "s", "lower"),
    ("io.report_to_json.s", "s", "lower"),
    ("io.dump_report.s", "s", "lower"),
    ("invariants.analyze_route.s", "s", "lower"),
    ("words.fixed_subgroup_basis.s", "s", "lower"),
    ("words.fixed_subgroup_basis.gens", "count", "higher"),
    ("words.fold_words.s", "s", "lower"),
    ("words.route_equivalent.s", "s", "lower"),
    ("words.route_equivalent.found_frac", "ratio", "higher"),
    ("boundary.attraction_check.s", "s", "lower"),
    ("boundary.attraction_check.calls", "count", "lower"),
    ("boundary.attraction_check.decided_frac", "ratio", "higher"),
    ("boundary.ray_prefix.s", "s", "lower"),
    ("boundary.ray_prefix.calls", "count", "lower"),
    ("boundary.equivalent_under.s", "s", "lower"),
    ("rtt.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_inst_per_s", "1/s", "higher"),
)


def _targets(nk):
    """(layer, owner, attribute) for every place a hooked callable is looked
    up at call time.  `invariants` binds several rtt/graphs/words/boundary
    functions into its own namespace, so those are hooked there as well."""
    inv, rtt, graphs, words, boundary, io = (
        nk.invariants, nk.rtt, nk.graphs, nk.words, nk.boundary, nk.io)
    return [
        ("invariants.analyze", inv, "analyze"),
        ("graphs.any_route_endo", graphs, "any_route_endo"),
        ("words.is_injective", words.Endomorphism, "is_injective"),
        ("words.fold_words", words, "fold_words"),
        ("words.fold_words", inv, "fold_words"),
        ("graphs.subdivided_fixed_map", inv, "subdivided_fixed_map"),
        ("rtt.derive_filtration", inv, "derive_filtration"),
        ("rtt.classify", inv, "classify_stratum"),
        ("rtt.classify", rtt, "classify_stratum"),
        ("rtt.pf_metric", rtt, "pf_metric"),
        ("rtt.find_inp", inv, "find_inp"),
        ("rtt.find_inp", rtt, "find_inp"),
        ("rtt.oracle", inv, "nielsen_partition_oracle"),
        ("rtt.oracle", rtt, "nielsen_partition_oracle"),
        ("rtt.nielsen_paths_brute", rtt, "nielsen_paths_brute"),
        ("invariants.local_index", inv, "local_index"),
        ("invariants.lefschetz_number", inv, "lefschetz_number"),
        ("io.report_to_json", io, "report_to_json"),
        ("io.dump_report", io, "dump_report"),
        ("invariants.analyze_route", inv, "analyze_route"),
        ("words.fixed_subgroup_basis", inv, "fixed_subgroup_basis"),
        ("words.route_equivalent", inv, "route_equivalent"),
        ("words.route_equivalent", words, "route_equivalent"),
        ("boundary.attraction_check", inv, "attraction_check"),
        ("boundary.attraction_check", boundary, "attraction_check"),
        ("boundary.equivalent_under", inv, "equivalent_under"),
        ("boundary.equivalent_under", boundary, "equivalent_under"),
        ("boundary.ray_prefix", boundary.MorphicRay, "prefix"),
    ]


class Tracer:
    """Records spans while installed; `pass_totals` folds one pass."""

    def __init__(self, nk, layers=None, keep_spans: int = 100_000):
        self._targets = [t for t in _targets(nk) if layers is None or t[0] in layers]
        self._saved: list = []
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []      # (id, parent, name, start, end, instance)
        self.dropped = 0
        self.instance = -1
        self._next_id = 0
        # open spans: [id, layer, start, child time, oracle calls at start]
        self._stack: list[list] = []
        self._open: Counter = Counter()   # open spans per name, for recursion
        self._reset_pass()

    def _reset_pass(self) -> None:
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.count: Counter = Counter()
        self.n_spans = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer, owner, attr in self._targets:
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(layer, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        on_result = getattr(self, "_on_" + layer.replace(".", "_"), None)
        stack, opened, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            frame = [self._next_id, layer, 0.0, 0.0,
                     self.count["rtt.oracle.calls"]]
            self._next_id += 1
            opened[layer] += 1
            stack.append(frame)
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[layer] -= 1
                self._close(frame, end)
            self.count[layer + ".calls"] += 1
            if on_result is not None:
                on_result(result, frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, end: float) -> None:
        sid, layer, start, child, _ = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        parent = self._stack[-1][0] if self._stack else -1
        if not self._open[layer]:            # outermost span of this layer
            self.total[layer] += dur
        self.self_time[layer] += dur - child
        self.n_spans += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append((sid, parent, layer, start, end, self.instance))
        else:
            self.dropped += 1

    # -- counters read off results -----------------------------------------

    def _on_rtt_nielsen_paths_brute(self, paths, frame) -> None:
        self.count["rtt.nielsen_paths_brute.paths"] += len(paths)

    def _on_rtt_classify(self, info, frame) -> None:
        if info.stype == "unclassifiable":
            self.count["rtt.classify.unclassifiable"] += 1

    def _on_rtt_pf_metric(self, exp, frame) -> None:
        if not exp.exact:
            self.count["rtt.pf_metric.iterative_calls"] += 1

    def _on_rtt_find_inp(self, info, frame) -> None:
        if info.inp_status in ("found", "multiple"):
            self.count["rtt.find_inp.found"] += 1
        elif info.inp_status == "none-within-bound":
            self.count["rtt.find_inp.capped"] += 1

    def _on_invariants_analyze(self, report, frame) -> None:
        # An incomplete classification takes its partition from the first
        # oracle call; the cross-check call after it is ignored.
        calls = self.count["rtt.oracle.calls"] - frame[4]
        if not report.classification_complete and calls >= 2:
            self.count["rtt.oracle.discarded_calls"] += calls - 1

    def _on_words_fixed_subgroup_basis(self, gens, frame) -> None:
        self.count["words.fixed_subgroup_basis.gens"] += len(gens)

    def _on_words_route_equivalent(self, search, frame) -> None:
        if search.found:
            self.count["words.route_equivalent.found"] += 1

    def _on_boundary_attraction_check(self, verdict, frame) -> None:
        if verdict.status != "inconclusive":
            self.count["boundary.attraction_check.decided"] += 1

    # -- per-pass results ---------------------------------------------------

    def run_pass(self, fn):
        """fn() with the wrappers installed."""
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()

    def pass_totals(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the pass just run, times multiplied by
        `scale`; resets the accumulators."""
        out: dict[str, float] = {}
        for name, unit, _ in METRICS:
            layer, _, field = name.rpartition(".")
            if unit == "s":
                src = self.self_time if field == "self_s" else self.total
                out[name] = src[layer] * scale
            elif field == "calls":
                out[name] = self.count[name]
            elif name in self.count:
                out[name] = self.count[name]
        out["rtt.s"] = scale * sum(
            v for k, v in self.total.items() if k.startswith("rtt.")
            and k not in ("rtt.pf_metric", "rtt.nielsen_paths_brute"))
        out["words.route_equivalent.found_frac"] = _ratio(
            self.count["words.route_equivalent.found"],
            self.count["words.route_equivalent.calls"])
        out["boundary.attraction_check.decided_frac"] = _ratio(
            self.count["boundary.attraction_check.decided"],
            self.count["boundary.attraction_check.calls"])
        out["trace.spans"] = self.n_spans
        for name, unit, _ in METRICS:
            out.setdefault(name, 0)
        self._reset_pass()
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start",
                                            "end", "instance"],
                                 "kept": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
