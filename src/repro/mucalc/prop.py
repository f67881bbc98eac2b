"""Propositionalization: the PROP() translation of Theorem 4.4.

Over a *finite* transition system, a µLA formula can be translated into a
propositional µ-calculus formula by expanding every quantifier into a
disjunction/conjunction over the finite value set and turning the resulting
ground FO queries and ground LIVE facts into propositions. Model checking
the propositional formula over the labeled transition system then agrees
with the direct first-order evaluation — which is exactly how the paper
reduces DCDS verification to conventional µ-calculus model checking.

This module provides both the translation and a standalone propositional
µ-calculus model checker, so tests can confirm
``check(ts, phi) == prop_check(ts, *propositionalize(phi, ts))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.errors import VerificationError
from repro.fol.evaluation import holds
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, MuFormula,
    Nu, PredVar, QF)
from repro.relational.values import Var, is_value
from repro.semantics.transition_system import State, TransitionSystem
from repro.utils import sorted_values


# ---------------------------------------------------------------------------
# Propositional µ-calculus
# ---------------------------------------------------------------------------

class PropFormula:
    """Base class for propositional µ-calculus formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class PAtom(PropFormula):
    key: str

    def __repr__(self) -> str:
        return self.key


@dataclass(frozen=True)
class PTrue(PropFormula):
    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class PNot(PropFormula):
    sub: PropFormula

    def __repr__(self) -> str:
        return f"~({self.sub!r})"


@dataclass(frozen=True)
class PAnd(PropFormula):
    subs: Tuple[PropFormula, ...]

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.subs)) + ")"


@dataclass(frozen=True)
class POr(PropFormula):
    subs: Tuple[PropFormula, ...]

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.subs)) + ")"


@dataclass(frozen=True)
class PDiamond(PropFormula):
    sub: PropFormula

    def __repr__(self) -> str:
        return f"<->({self.sub!r})"


@dataclass(frozen=True)
class PBox(PropFormula):
    sub: PropFormula

    def __repr__(self) -> str:
        return f"[-]({self.sub!r})"


@dataclass(frozen=True)
class PVar(PropFormula):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PMu(PropFormula):
    var: str
    sub: PropFormula

    def __repr__(self) -> str:
        return f"mu {self.var}. ({self.sub!r})"


@dataclass(frozen=True)
class PNu(PropFormula):
    var: str
    sub: PropFormula

    def __repr__(self) -> str:
        return f"nu {self.var}. ({self.sub!r})"


Labeling = Dict[str, FrozenSet[State]]


def diamond_states(ts: TransitionSystem,
                   target: Iterable[State]) -> FrozenSet[State]:
    """``<->target``: union of the predecessors of the target states."""
    result: set = set()
    for state in target:
        result |= ts.predecessors(state)
    return frozenset(result)


def box_states(ts: TransitionSystem, target: Iterable[State],
               deadlocks: FrozenSet[State]) -> FrozenSet[State]:
    """``[-]target`` by successor counting along the predecessor index.

    A state satisfies ``[-]Phi`` iff the number of its distinct successors
    inside the target equals its out-degree; deadlock states satisfy it
    vacuously (pass :func:`deadlock_states` as ``deadlocks``)."""
    counts: Dict[State, int] = {}
    for state in target:
        for pred in ts.predecessors(state):
            counts[pred] = counts.get(pred, 0) + 1
    satisfied = frozenset(
        state for state, count in counts.items()
        if count == ts.out_degree(state))
    return satisfied | deadlocks


def deadlock_states(ts: TransitionSystem) -> FrozenSet[State]:
    """States without successors (``[-]Phi`` holds vacuously there)."""
    return frozenset(
        state for state in ts.states if not ts.successors(state))


def prop_check(ts: TransitionSystem, formula: PropFormula,
               labeling: Labeling) -> FrozenSet[State]:
    """Standard propositional µ-calculus model checking (Emerson [22]).

    Modalities propagate backward along the transition system's
    predecessor index (:func:`diamond_states`, :func:`box_states`)
    instead of scanning every state."""
    states = ts.states
    deadlocks = deadlock_states(ts)

    def evaluate(node: PropFormula,
                 env: Dict[str, FrozenSet[State]]) -> FrozenSet[State]:
        if isinstance(node, PTrue):
            return states
        if isinstance(node, PAtom):
            if node.key not in labeling:
                raise VerificationError(f"unlabeled atom {node.key}")
            return labeling[node.key]
        if isinstance(node, PNot):
            return states - evaluate(node.sub, env)
        if isinstance(node, PAnd):
            result = states
            for sub in node.subs:
                result &= evaluate(sub, env)
            return result
        if isinstance(node, POr):
            result: FrozenSet[State] = frozenset()
            for sub in node.subs:
                result |= evaluate(sub, env)
            return result
        if isinstance(node, PDiamond):
            target = evaluate(node.sub, env)
            return diamond_states(ts, target)
        if isinstance(node, PBox):
            target = evaluate(node.sub, env)
            return box_states(ts, target, deadlocks)
        if isinstance(node, PVar):
            return env[node.name]
        if isinstance(node, (PMu, PNu)):
            current = frozenset() if isinstance(node, PMu) else states
            while True:
                extended = dict(env)
                extended[node.var] = current
                updated = evaluate(node.sub, extended)
                if updated == current:
                    return current
                current = updated
        raise VerificationError(f"cannot evaluate {node!r}")

    return evaluate(formula, {})


# ---------------------------------------------------------------------------
# PROP() translation
# ---------------------------------------------------------------------------

def propositionalize(
    formula: MuFormula, ts: TransitionSystem,
    extra_domain: Iterable[Any] = ()
) -> Tuple[PropFormula, Labeling]:
    """Translate a closed µL formula into propositional form over ``ts``.

    Quantifiers expand over ``ADOM(Theta)`` (the TS's value set plus formula
    constants), ground queries and ground LIVE facts become labeled atoms —
    the inductive definition of PROP() in Theorem 4.4.
    """
    domain = set(ts.values()) | set(extra_domain)
    for node in formula.walk():
        if isinstance(node, QF):
            domain.update(node.query.constants())
        elif isinstance(node, Live):
            domain.update(t for t in node.terms if is_value(t))
    ordered_domain = sorted_values(domain)

    labeling: Labeling = {}

    def label_query(query) -> str:
        key = f"q[{query!r}]"
        if key not in labeling:
            labeling[key] = frozenset(
                state for state in ts.states if holds(query, ts.db(state)))
        return key

    def label_live(values: Tuple[Any, ...]) -> str:
        key = f"live[{values!r}]"
        if key not in labeling:
            labeling[key] = frozenset(
                state for state in ts.states
                if all(value in ts.db(state).active_domain()
                       for value in values))
        return key

    def translate(node: MuFormula) -> PropFormula:
        if isinstance(node, QF):
            if node.query.free_variables():
                raise VerificationError(
                    f"query {node.query!r} not ground during PROP()")
            return PAtom(label_query(node.query))
        if isinstance(node, Live):
            if node.free_ivars():
                raise VerificationError(
                    f"LIVE not ground during PROP(): {node!r}")
            return PAtom(label_live(node.terms))
        if isinstance(node, MNot):
            return PNot(translate(node.sub))
        if isinstance(node, MAnd):
            return PAnd(tuple(translate(sub) for sub in node.subs))
        if isinstance(node, MOr):
            return POr(tuple(translate(sub) for sub in node.subs))
        if isinstance(node, Diamond):
            return PDiamond(translate(node.sub))
        if isinstance(node, Box):
            return PBox(translate(node.sub))
        if isinstance(node, PredVar):
            return PVar(node.name)
        if isinstance(node, Mu):
            return PMu(node.var, translate(node.sub))
        if isinstance(node, Nu):
            return PNu(node.var, translate(node.sub))
        if isinstance(node, MExists):
            disjuncts = tuple(
                translate(_ground(node, combo))
                for combo in _assignments(node.variables, ordered_domain))
            return POr(disjuncts) if disjuncts else PNot(PTrue())
        if isinstance(node, MForall):
            conjuncts = tuple(
                translate(_ground_forall(node, combo))
                for combo in _assignments(node.variables, ordered_domain))
            return PAnd(conjuncts) if conjuncts else PTrue()
        raise VerificationError(f"cannot propositionalize {node!r}")

    def _ground(node: MExists, combo) -> MuFormula:
        return node.sub.substitute(dict(zip(node.variables, combo)))

    def _ground_forall(node: MForall, combo) -> MuFormula:
        return node.sub.substitute(dict(zip(node.variables, combo)))

    return translate(formula), labeling


def _assignments(variables, domain):
    combos = [()]
    for _ in variables:
        combos = [prefix + (value,) for prefix in combos for value in domain]
    return combos
