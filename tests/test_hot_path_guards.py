"""Guards on the deterministic route's object-layer hot path.

The deterministic abstraction (Thm 4.3, Sec. 4.1) branches only on equality
commitments over *fresh* service calls, so a ``verify`` whose moves are
call-free should never read a state's known-value history, and none of its
layers should need a state's ``repr``:

* an AG-true ``verify`` renders no instance and no ``DetState`` — in the
  default mode and under every kill switch that swaps a tier for its
  reference twin;
* :func:`enumerate_commitments` never touches the known values of a
  call-free move, and :meth:`DetState.known_values` is never called on a
  call-free spec;
* :meth:`Instance.service_calls` skips concrete facts yet still finds every
  (nested) call a brute-force term scan finds;
* the compiled checker numbers states in discovery order, and verdicts and
  certificates do not depend on that numbering across worker counts and
  store modes;
* the checker's query leaves read ``ans(Q, db(s))`` tables: checking
  library[3,2]/returnable calls ``holds`` zero times and ``iter_answers``
  at most once per state per distinct leaf query;
* an EF ``verify`` that extracts a witness renders no instance either.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

import repro.mucalc.engine.evaluator as evaluator

from repro.core.execution import clear_subproblem_caches
from repro.engine.generators import DetState
from repro.engine.store import RamStore, StoredTransitionSystem
from repro.gallery.library import library_system, property_loans_returnable
from repro.mucalc.certify import replay
from repro.mucalc.checker import ModelChecker
from repro.mucalc.engine.compiler import compile_formula
from repro.mucalc.engine.evaluator import CompiledChecker
from repro.mucalc.parser import parse_mu
from repro.mucalc.witness import extract
from repro.pipeline import verify
from repro.relational import Instance, fact
from repro.relational.values import ServiceCall
from repro.semantics import (
    TransitionSystem, build_det_abstraction, enumerate_commitments)
from repro.workloads import (
    chain_dcds, commitment_blowup_dcds, conveyor_dcds, lattice_dcds,
    warehouse_dcds)

AG_TRUE = "nu X. (true & [-] X)"

CALL_FREE_SPECS = {
    "conveyor[1]": lambda: conveyor_dcds(1),
    "warehouse[1]": lambda: warehouse_dcds(1),
    "lattice[3]": lambda: lattice_dcds(3),
}

SWITCHES = (None, "REPRO_NO_BATCH", "REPRO_NO_KERNEL", "REPRO_NO_VECTOR")


@pytest.fixture
def render_counts(monkeypatch):
    """Count every ``Instance``/``DetState`` rendering for the test."""
    counts = {"Instance": 0, "DetState": 0}
    for cls in (Instance, DetState):
        original = cls.__repr__

        def counting(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__repr__", counting)
    return counts


# ---------------------------------------------------------------------------
# No rendering on the AG-true route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("switch", SWITCHES)
@pytest.mark.parametrize("spec", sorted(CALL_FREE_SPECS))
def test_ag_true_verify_renders_nothing(monkeypatch, render_counts, spec,
                                        switch):
    if switch:
        monkeypatch.setenv(switch, "1")
    clear_subproblem_caches()
    report = verify(CALL_FREE_SPECS[spec](), parse_mu(AG_TRUE))
    clear_subproblem_caches()
    assert report.holds
    assert render_counts == {"Instance": 0, "DetState": 0}


def test_render_counter_sees_renders(render_counts):
    """Control: the patched ``__repr__``s do count."""
    repr(DetState(Instance.of(fact("R", "a")), ()))
    assert render_counts == {"Instance": 1, "DetState": 1}


# ---------------------------------------------------------------------------
# Known values are read only for fresh calls
# ---------------------------------------------------------------------------

class _Untouchable:
    def __iter__(self):
        raise AssertionError("known values read for a call-free move")


def test_call_free_commitment_skips_known_values():
    assert list(enumerate_commitments([], _Untouchable())) == [{}]


@pytest.mark.parametrize("spec", sorted(CALL_FREE_SPECS))
def test_known_values_never_read_on_call_free_spec(monkeypatch, spec):
    def forbidden(self):
        raise AssertionError("known_values read on a call-free spec")

    monkeypatch.setattr(DetState, "known_values", forbidden)
    clear_subproblem_caches()
    assert verify(CALL_FREE_SPECS[spec](), parse_mu(AG_TRUE)).holds
    clear_subproblem_caches()


def test_known_values_read_when_calls_are_fresh(monkeypatch):
    """Control: a spec with fresh calls does read the history."""
    reads = []
    original = DetState.known_values

    def counting(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(DetState, "known_values", counting)
    clear_subproblem_caches()
    build_det_abstraction(chain_dcds(2))
    clear_subproblem_caches()
    assert reads


# ---------------------------------------------------------------------------
# CALLS(I) skips concrete facts, keeps nested calls
# ---------------------------------------------------------------------------

def _brute_force_calls(instance):
    found = set()

    def walk(term):
        if isinstance(term, ServiceCall):
            found.add(term)
            for arg in term.args:
                walk(arg)

    for current in instance:
        for term in current.terms:
            walk(term)
    return frozenset(found)


def test_service_calls_match_brute_force_scan():
    g_a = ServiceCall("g", ("a",))
    f_g_a = ServiceCall("f", (g_a,))
    h_b = ServiceCall("h", ("b", 2))
    shared = fact("R", "a", "b")
    mixed = fact("S", "a", f_g_a)
    instances = [
        Instance.of(shared),
        Instance.of(shared, mixed),
        Instance.of(shared, mixed, fact("T", h_b, ServiceCall("k", (h_b,)))),
        Instance.of(fact("U", ServiceCall("f", (ServiceCall(
            "g", (ServiceCall("h", ("c",)),)),)))),
        Instance.empty(),
    ]
    # Warm the cached concreteness flags first: kernel-interned facts
    # carry theirs across every pending instance they occur in.
    assert shared.is_concrete() and not mixed.is_concrete()
    for instance in instances:
        assert instance.service_calls() == _brute_force_calls(instance)
    assert {g_a, f_g_a} <= instances[1].service_calls()


# ---------------------------------------------------------------------------
# Mask numbering: discovery order, invisible in every output
# ---------------------------------------------------------------------------

CERTIFIED = [
    ("chain[3]/EF", lambda: chain_dcds(3),
     "mu Z. ((E x. live(x) & L3(x)) | <-> Z)", True),
    ("blowup[3]/AG", lambda: commitment_blowup_dcds(3),
     "nu Z. (~(E x. live(x) & Out0(x) & Out1(x)) & [-] Z)", False),
]


def test_bitset_numbers_states_in_discovery_order():
    ts = build_det_abstraction(chain_dcds(3))
    order = ts.discovery_order()
    assert order[0] == ts.initial and set(order) == set(ts.states)
    seen = {ts.initial}
    for state in order[1:]:
        # Exploration order: every later state hangs off an earlier one.
        assert ts.predecessors(state) & seen
        seen.add(state)
    formula = parse_mu("mu Z. ((E x. live(x) & L3(x)) | <-> Z)")
    engine = CompiledChecker(ts, compile_formula(formula), ts.values())
    assert engine._order == list(order)
    assert engine.evaluate() == ModelChecker(
        ts, compiled=False).evaluate(formula)


@pytest.mark.parametrize("make,formula,holds",
                         [case[1:] for case in CERTIFIED],
                         ids=[case[0] for case in CERTIFIED])
def test_bitset_numbering_affects_no_output(make, formula, holds):
    """The same system with states added in reverse: a different
    numbering, the same extensions, cells and certificate."""
    ts = build_det_abstraction(make())
    reordered = TransitionSystem(ts.schema, ts.initial)
    for state in reversed(ts.discovery_order()):
        reordered.add_state(state, ts.db(state))
    for source, label, target in ts.edges():
        reordered.add_edge(source, target, label)
    phi = parse_mu(formula)
    sides = []
    for system in (ts, reordered):
        engine = CompiledChecker(system, compile_formula(phi), system.values())
        extension = engine.evaluate()
        verdict = system.initial in extension
        sides.append((verdict, extension, engine.fixpoint_extension(0),
                      extract(system, phi, verdict, engine).certificate))
    assert sides[0][0] is holds and sides[0][3] is not None
    assert sides[0] == sides[1]


def test_stored_discovery_order_is_store_order():
    base = build_det_abstraction(chain_dcds(2))
    stored = StoredTransitionSystem(base.schema, base.initial, RamStore())
    for state in base.discovery_order():
        stored.intern_state(state, base.db(state))
    assert stored.discovery_order() == base.discovery_order() == tuple(
        stored.fetch(sid) for sid in range(len(stored)))


@pytest.mark.parametrize("make,formula,holds",
                         [case[1:] for case in CERTIFIED],
                         ids=[case[0] for case in CERTIFIED])
def test_verdicts_and_certificates_independent_of_numbering(
        make, formula, holds):
    phi = parse_mu(formula)
    runs = []
    for options in ({}, {"workers": 2}, {"memory_budget": 96 * 1024}):
        clear_subproblem_caches()
        report = verify(make(), phi, **options)
        certificate = report.witness or report.violation
        if not os.environ.get("REPRO_NO_WITNESS"):
            assert certificate is not None
            assert replay(report.transition_system, certificate).ok
        runs.append((report.holds, report.abstraction_stats["states"],
                     report.abstraction_stats["edges"], certificate))
    clear_subproblem_caches()
    assert runs[0][0] is holds
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# Query leaves: one answer table per leaf query, no per-valuation holds
# ---------------------------------------------------------------------------

def _leaf_queries(plan):
    found = {plan.query} if plan.kind == "query" else set()
    for child in plan.children:
        found |= _leaf_queries(child)
    return found


def test_returnable_check_reads_answer_tables(monkeypatch):
    holds_calls = []
    answer_calls = Counter()
    original_answers = evaluator.iter_answers

    def counting_answers(query, instance, *args, **kwargs):
        answer_calls[(query, instance)] += 1
        return original_answers(query, instance, *args, **kwargs)

    monkeypatch.setattr(evaluator, "holds",
                        lambda *args, **kwargs: holds_calls.append(args))
    monkeypatch.setattr(evaluator, "iter_answers", counting_answers)
    formula = property_loans_returnable()
    clear_subproblem_caches()
    report = verify(library_system(3, 2), formula)
    clear_subproblem_caches()
    assert report.holds
    assert holds_calls == []
    ts = report.transition_system
    queries = _leaf_queries(compile_formula(formula).root)
    allowed = Counter((query, ts.db(state))
                      for query in queries for state in ts.states)
    assert answer_calls and not answer_calls - allowed


def test_ef_witness_renders_nothing(render_counts):
    clear_subproblem_caches()
    report = verify(lattice_dcds(3), parse_mu("mu Z. (Tri('n0_0') | <-> Z)"))
    clear_subproblem_caches()
    assert report.holds
    if not os.environ.get("REPRO_NO_WITNESS"):
        assert report.witness is not None
    assert render_counts == {"Instance": 0, "DetState": 0}
