"""Reference verdicts for seeded random jobs, computed in a separate process.

Run as ``python3 perfbench/oracle.py`` with ``REPRO_NO_KERNEL=1``: reads a
JSON list of ``[spec, formula, max_states]`` triples on stdin and writes
one outcome per triple on stdout. The route follows Table 1 directly (weak
acyclicity then the deterministic abstraction, GR(+)-acyclicity then
RCYCL) instead of going through ``repro.pipeline``; the relational layer
runs without its integer kernel and checking uses the recursive reference
evaluator (``ModelChecker(compiled=False)``). Each distinct spec is built
and explored once and then checked against all of its formulas.

An outcome is ``{"error": <exception class name>}`` or
``{"holds": bool, "states": int, "edges": int}``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def _explore(spec, max_states: int):
    """``(dcds, ts)`` of the spec's Table 1 route, or the typed error."""
    from repro.analysis.dataflow_graph import dataflow_graph
    from repro.analysis.dependency_graph import dependency_graph
    from repro.core.dcds import ServiceSemantics
    from repro.errors import AbstractionDiverged
    from repro.semantics.abstract_det import build_det_abstraction
    from repro.semantics.rcycl import rcycl
    from perfbench.jobs import make_dcds

    dcds = make_dcds(tuple(spec))
    deterministic = dcds.semantics is ServiceSemantics.DETERMINISTIC
    if deterministic:
        if not dependency_graph(dcds).is_weakly_acyclic():
            return dcds, "UndecidableFragment"
    else:
        graph = dataflow_graph(dcds)
        if not (graph.is_gr_acyclic() or graph.is_gr_plus_acyclic()):
            return dcds, "UndecidableFragment"
    try:
        if deterministic:
            return dcds, build_det_abstraction(dcds, max_states=max_states)
        return dcds, rcycl(dcds, max_states=max_states)
    except AbstractionDiverged:
        return dcds, "AbstractionDiverged"


def reference(triples: List[List[Any]]) -> List[Dict[str, Any]]:
    from repro.core.dcds import ServiceSemantics
    from repro.mucalc import ModelChecker, parse_mu
    from repro.mucalc.syntax import Fragment, classify

    explored: Dict[str, Any] = {}
    outcomes = []
    for spec, formula_text, max_states in triples:
        key = json.dumps([spec, max_states])
        if key not in explored:
            explored[key] = _explore(spec, max_states)
        dcds, ts = explored[key]
        formula = parse_mu(formula_text)
        if dcds.semantics is ServiceSemantics.NONDETERMINISTIC \
                and classify(formula) is not Fragment.MU_LP:
            outcomes.append({"error": "UndecidableFragment"})
        elif isinstance(ts, str):
            outcomes.append({"error": ts})
        else:
            checker = ModelChecker(ts, extra_domain=dcds.known_constants(),
                                   compiled=False)
            outcomes.append({"holds": checker.models(formula),
                             "states": len(ts),
                             "edges": ts.edge_count()})
    return outcomes


def main() -> int:
    root = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), root]
    if not os.environ.get("REPRO_NO_KERNEL"):
        print("oracle: REPRO_NO_KERNEL=1 must be set", file=sys.stderr)
        return 2
    json.dump(reference(json.load(sys.stdin)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
