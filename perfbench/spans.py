"""Spans around the calls into each ``repro`` layer, recorded from outside.

:func:`install` wraps the public functions listed in :data:`TARGETS`
wherever callers look them up: a module-level function is replaced in
every loaded ``repro`` module (and benchmark module) whose globals hold it
— ``repro.pipeline`` imports ``dependency_graph``, ``rcycl`` and
``extract`` by name, so patching the defining module alone would miss
those calls — and a method is replaced on its class. :func:`uninstall`
restores every original.

While a job is active (:attr:`Tracer.job` is not ``None``) each wrapped
call opens a span. Self time is a span's duration minus the time its
direct child spans cover; a layer's busy time counts only its outermost
spans, so a layer that re-enters itself is not counted twice. Spans of
the coarse layers are kept in memory with their parent and job id and
written out at the end; the hot per-fact layers (``relational``,
``relational.instance``, ``core.execution``, ``fol.parse``) are
aggregated per job and function instead, which keeps memory flat on
multi-million-call jobs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute path, keep individual spans)``.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("pipeline", "repro.pipeline", "verify", True),
    ("analysis", "repro.analysis.dependency_graph", "dependency_graph",
     True),
    ("analysis", "repro.analysis.dependency_graph",
     "DependencyGraph.is_weakly_acyclic", True),
    ("analysis", "repro.analysis.dependency_graph", "is_weakly_acyclic",
     True),
    ("analysis", "repro.analysis.dataflow_graph", "dataflow_graph", True),
    ("analysis", "repro.analysis.dataflow_graph",
     "DataflowGraph.is_gr_acyclic", True),
    ("analysis", "repro.analysis.dataflow_graph",
     "DataflowGraph.is_gr_plus_acyclic", True),
    ("analysis", "repro.analysis.dataflow_graph", "is_gr_acyclic", True),
    ("analysis", "repro.analysis.dataflow_graph", "is_gr_plus_acyclic",
     True),
    ("reductions", "repro.reductions.det_to_nondet", "det_to_nondet", True),
    ("semantics", "repro.semantics.abstract_det", "build_det_abstraction",
     True),
    ("semantics", "repro.semantics.rcycl", "rcycl", True),
    ("engine.checkpoint", "repro.engine.checkpoint",
     "CheckpointWriter.write_chunk", True),
    ("mucalc", "repro.mucalc.checker", "ModelChecker.models", True),
    ("mucalc.witness", "repro.mucalc.witness", "extract", True),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.do_action_instance", False),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.legal_substitution_items", False),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.ground_effect", False),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.evaluate_calls", False),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.warm_legal_substitutions", False),
    ("relational", "repro.relational.kernel",
     "RelationalKernel.warm_ground_effects", False),
    ("relational.instance", "repro.relational.instance",
     "Instance.service_calls", False),
    ("relational.instance", "repro.relational.instance",
     "Instance.active_domain", False),
    ("relational.instance", "repro.relational.instance",
     "Instance.validate", False),
    ("core.execution", "repro.core.execution", "_legal_subs_cached", False),
    ("core.execution", "repro.core.execution", "ground_effect", False),
    ("core.execution", "repro.core.execution", "_ground_effect_cached",
     False),
    ("fol.parse", "repro.mucalc.parser", "parse_mu", False),
    ("fol.parse", "repro.fol.parser", "parse_formula", False),
    ("fol.parse", "repro.fol.parser", "parse_head_atom", False),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        #: Current job id; ``None`` pauses recording.
        self.job: Optional[str] = None
        self.spans: List[Tuple[Any, ...]] = []
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.busy: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.by_function: Dict[Tuple[str, str], List[float]] = {}
        self._frames: List[List[float]] = []
        self._open_spans: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable,
             keep: bool) -> Callable:
        tracer = self
        frames, open_spans, depth = self._frames, self._open_spans, \
            self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            frames.append(frame)
            level = depth[layer]
            depth[layer] = level + 1
            if keep:
                span_id = len(tracer.spans)
                parent = open_spans[-1] if open_spans else None
                tracer.spans.append(None)
                open_spans.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                if frames:
                    frames[-1][1] += duration
                depth[layer] = level
                key = (job, layer)
                tracer.calls[key] += 1
                tracer.self_time[key] += duration - frame[1]
                if level == 0:
                    tracer.busy[key] += duration
                if keep:
                    open_spans.pop()
                    tracer.spans[span_id] = (job, span_id, parent, name,
                                             layer, frame[0], end)
                else:
                    row = tracer.by_function.setdefault((job, name),
                                                        [0, 0.0])
                    row[0] += 1
                    row[1] += duration

        for attribute in ("cache_clear", "cache_info"):
            if hasattr(fn, attribute):
                setattr(traced, attribute, getattr(fn, attribute))
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path, keep in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._set(owner, attribute,
                          self.wrap(layer, path, original, keep))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(layer, f"{module_name}.{path}", original,
                                keep)
            for holder in list(sys.modules.values()):
                if not _scanned(holder):
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, name, wrapper)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)
                              if not isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ---------------------------------------------------------

    def layer_totals(self, jobs) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy and self seconds summed over ``jobs``."""
        wanted = set(jobs)
        totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for layer in LAYERS}
        for (job, layer), calls in self.calls.items():
            if job in wanted:
                totals[layer]["calls"] += calls
                totals[layer]["busy_s"] += self.busy[(job, layer)]
                totals[layer]["self_s"] += self.self_time[(job, layer)]
        return totals

    def write(self, path: str) -> None:
        """Coarse spans one JSON line each, then the per-function rows."""
        with open(path, "w") as handle:
            for job, span_id, parent, name, layer, start, end in \
                    self.spans:
                handle.write(json.dumps({
                    "job": job, "id": span_id, "parent": parent,
                    "name": name, "layer": layer, "start": start,
                    "end": end}) + "\n")
            for (job, name), (calls, total) in sorted(
                    self.by_function.items()):
                handle.write(json.dumps({
                    "job": job, "name": name, "calls": calls,
                    "total_s": total}) + "\n")


def _scanned(module: Any) -> bool:
    name = getattr(module, "__name__", "") or ""
    return name.split(".")[0] in ("repro", "perfbench") \
        or name == "__main__"
