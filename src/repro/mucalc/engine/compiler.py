"""Formula compiler: PNF, closure, alternation depth, fixpoint cells.

The compiled checking layer mirrors the exploration engine: the seed-era
checker re-derived everything about a formula on every ``evaluate`` call and
restarted every fixpoint from scratch. This module does the syntactic work
exactly once per formula:

* **positive normal form** — negation pushed to the leaves (FO queries,
  ``LIVE`` facts, free predicate variables) through the standard dualities
  ``~E = A~``, ``~<-> = [-]~``, ``~mu Z.Phi = nu Z.~Phi[Z := ~Z]``;
  syntactic monotonicity guarantees bound predicate variables stay positive;
* **plan tree** — one :class:`Plan` node per PNF occurrence, carrying the
  precomputed free individual/predicate variables (memo keys restrict the
  valuation to them) and a cost rank used to order ``&``/``|`` children so
  cheap, selective conjuncts (``LIVE`` guards, queries) run before modal and
  fixpoint subtrees;
* **fixpoint cells** — every ``mu``/``nu`` occurrence gets its own cell with
  its same/opposite-sign descendants precomputed, enabling Emerson–Lei
  iteration in the evaluator: a cell is only reset when an approximation it
  depends on moved *against* its iteration direction, and warm-starts
  otherwise;
* **answer-indexed leaves** — a query leaf whose free variables are all
  range-restricted (:func:`restricted_vars`) is marked ``indexed``: the
  evaluator computes ``ans(Q, db(s))`` once per state and answers every
  valuation by lookup instead of re-running ``holds`` per valuation;
* **alternation depth and closure size** — reported in ``checking_stats``
  and driving the benchmark sweep.

Everything here is transition-system independent; binding to a concrete TS
happens in :mod:`repro.mucalc.engine.evaluator`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import VerificationError
from repro.fol.ast import And, Atom, Eq, Exists, Formula, Or
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, MuFormula,
    Nu, PredVar, QF)
from repro.mucalc.syntax import check_monotone
from repro.relational.values import Var, is_value


# ---------------------------------------------------------------------------
# Positive normal form
# ---------------------------------------------------------------------------

def to_pnf(formula: MuFormula) -> MuFormula:
    """Push negations to the leaves (queries, LIVE, free predicate vars).

    Requires syntactic monotonicity (checked by the caller): occurrences of
    a bound predicate variable then sit under an even number of negations
    relative to their binder, so dualizing the binder keeps them positive.
    """
    return _pnf(formula, False, frozenset())


def _pnf(node: MuFormula, neg: bool, bound: FrozenSet[str]) -> MuFormula:
    if isinstance(node, MNot):
        return _pnf(node.sub, not neg, bound)
    if isinstance(node, (QF, Live)):
        return MNot(node) if neg else node
    if isinstance(node, PredVar):
        if node.name in bound or not neg:
            return node
        return MNot(node)
    if isinstance(node, MAnd):
        subs = [_pnf(sub, neg, bound) for sub in node.subs]
        return MOr.of(*subs) if neg else MAnd.of(*subs)
    if isinstance(node, MOr):
        subs = [_pnf(sub, neg, bound) for sub in node.subs]
        return MAnd.of(*subs) if neg else MOr.of(*subs)
    if isinstance(node, MExists):
        sub = _pnf(node.sub, neg, bound)
        return MForall(node.variables, sub) if neg \
            else MExists(node.variables, sub)
    if isinstance(node, MForall):
        sub = _pnf(node.sub, neg, bound)
        return MExists(node.variables, sub) if neg \
            else MForall(node.variables, sub)
    if isinstance(node, Diamond):
        sub = _pnf(node.sub, neg, bound)
        return Box(sub) if neg else Diamond(sub)
    if isinstance(node, Box):
        sub = _pnf(node.sub, neg, bound)
        return Diamond(sub) if neg else Box(sub)
    if isinstance(node, Mu):
        sub = _pnf(node.sub, neg, bound | {node.var})
        return Nu(node.var, sub) if neg else Mu(node.var, sub)
    if isinstance(node, Nu):
        sub = _pnf(node.sub, neg, bound | {node.var})
        return Mu(node.var, sub) if neg else Nu(node.var, sub)
    raise VerificationError(f"cannot normalize node {node!r}")


# ---------------------------------------------------------------------------
# Range restriction
# ---------------------------------------------------------------------------

def restricted_vars(query: Formula) -> FrozenSet[Var]:
    """Free variables of ``query`` that are syntactically range-restricted.

    A restricted variable bound to a value outside ``ADOM(I) ∪ consts(Q)``
    makes the query false in ``I``, whatever the other variables are bound
    to: atoms and ``x = const`` restrict their variables, a conjunction what
    either side restricts, a disjunction what both sides restrict, and
    ``E y.`` passes through everything but ``y``. Negation, ``Forall`` and
    ``x = y`` restrict nothing.
    """
    if isinstance(query, Atom):
        return frozenset(term for term in query.terms
                         if isinstance(term, Var))
    if isinstance(query, Eq):
        left, right = query.left, query.right
        if isinstance(left, Var) and is_value(right):
            return frozenset((left,))
        if isinstance(right, Var) and is_value(left):
            return frozenset((right,))
        return frozenset()
    if isinstance(query, And):
        found: FrozenSet[Var] = frozenset()
        for sub in query.subs:
            found |= restricted_vars(sub)
        return found
    if isinstance(query, Or):
        parts = [restricted_vars(sub) for sub in query.subs]
        return frozenset.intersection(*parts) if parts else frozenset()
    if isinstance(query, Exists):
        return restricted_vars(query.sub) - frozenset(query.variables)
    return frozenset()


# ---------------------------------------------------------------------------
# Plans and fixpoint cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixpointCell:
    """Static metadata of one ``mu``/``nu`` occurrence.

    ``mu_descendants``/``nu_descendants`` index the fixpoint occurrences
    strictly inside this one's body; the evaluator resets exactly the
    descendants whose iteration direction a change invalidates."""

    index: int
    name: str
    least: bool
    depth: int
    alternation_depth: int
    mu_descendants: Tuple[int, ...] = ()
    nu_descendants: Tuple[int, ...] = ()


@dataclass
class Plan:
    """One evaluation node; ``uid`` keys the evaluator's memo table."""

    uid: int
    kind: str
    free_ivars: Tuple[Var, ...]
    free_pvars: Tuple[str, ...]
    cost_rank: int
    children: Tuple["Plan", ...] = ()
    # kind-specific payloads -------------------------------------------------
    query: Optional[Formula] = None          # "query"
    indexed: bool = False                    # "query": answer-indexed
    terms: Tuple = ()                        # "live"
    negated: bool = False                    # "query"/"live"/"var"
    name: str = ""                           # "var"/"fix"
    variables: Tuple[Var, ...] = ()          # "exists"/"forall"
    guarded_vars: FrozenSet[Var] = frozenset()
    cell: Optional[FixpointCell] = None      # "fix"
    least: bool = False                      # "fix"


@dataclass
class CompiledFormula:
    """The per-formula artifact shared by every evaluation."""

    source: MuFormula
    pnf: MuFormula
    root: Plan
    cells: Tuple[FixpointCell, ...]
    closure_size: int
    alternation_depth: int
    quantifier_count: int
    modal_count: int

    def info(self) -> Dict[str, object]:
        return {
            "closure_size": self.closure_size,
            "alternation_depth": self.alternation_depth,
            "fixpoint_cells": len(self.cells),
            "quantifiers": self.quantifier_count,
            "modalities": self.modal_count,
        }


_COST_LEAF, _COST_QUANT, _COST_MODAL, _COST_FIX = 0, 1, 2, 3


def _sorted_vars(variables) -> Tuple[Var, ...]:
    return tuple(sorted(frozenset(variables), key=lambda v: v.name))


def _exists_guard(sub: MuFormula) -> FrozenSet[Var]:
    """Variables guarded by a top-level ``LIVE`` conjunct of ``sub``."""
    if isinstance(sub, Live):
        return sub.free_ivars()
    if isinstance(sub, MAnd):
        found: set = set()
        for conjunct in sub.subs:
            if isinstance(conjunct, Live):
                found.update(conjunct.free_ivars())
        return frozenset(found)
    return frozenset()


def _forall_guard(sub: MuFormula) -> FrozenSet[Var]:
    """Variables guarded by a top-level ``~LIVE`` disjunct of ``sub``."""
    if isinstance(sub, MNot) and isinstance(sub.sub, Live):
        return sub.sub.free_ivars()
    if isinstance(sub, MOr):
        found: set = set()
        for disjunct in sub.subs:
            if isinstance(disjunct, MNot) and isinstance(disjunct.sub, Live):
                found.update(disjunct.sub.free_ivars())
        return frozenset(found)
    return frozenset()


class _Compiler:
    def __init__(self):
        self.uids = itertools.count()
        self.cells: List[FixpointCell] = []
        self.quantifiers = 0
        self.modalities = 0

    def build(self, node: MuFormula, fix_depth: int) -> Plan:
        uid = next(self.uids)
        if isinstance(node, QF):
            free = _sorted_vars(node.query.free_variables())
            indexed = bool(free) and set(free) <= restricted_vars(node.query)
            return Plan(uid, "query", free, (), _COST_LEAF,
                        query=node.query, indexed=indexed)
        if isinstance(node, Live):
            return Plan(uid, "live", _sorted_vars(node.free_ivars()), (),
                        _COST_LEAF, terms=node.terms)
        if isinstance(node, MNot):
            # PNF leaves negation only on leaves.
            inner = self.build(node.sub, fix_depth)
            return Plan(uid, inner.kind, inner.free_ivars, inner.free_pvars,
                        _COST_LEAF, negated=True, query=inner.query,
                        indexed=inner.indexed, terms=inner.terms,
                        name=inner.name)
        if isinstance(node, (MAnd, MOr)):
            children = [self.build(sub, fix_depth) for sub in node.subs]
            # Cheap, selective children first: a LIVE guard or query that
            # comes back empty short-circuits the modal/fixpoint subtrees.
            children.sort(key=lambda plan: plan.cost_rank)
            return Plan(
                uid, "and" if isinstance(node, MAnd) else "or",
                _merge_ivars(children), _merge_pvars(children),
                max(plan.cost_rank for plan in children),
                children=tuple(children))
        if isinstance(node, (MExists, MForall)):
            self.quantifiers += 1
            sub = self.build(node.sub, fix_depth)
            exists = isinstance(node, MExists)
            guard = _exists_guard(node.sub) if exists \
                else _forall_guard(node.sub)
            variables = tuple(node.variables)
            return Plan(
                uid, "exists" if exists else "forall",
                tuple(v for v in sub.free_ivars if v not in variables),
                sub.free_pvars, max(sub.cost_rank, _COST_QUANT),
                children=(sub,), variables=variables,
                guarded_vars=guard & frozenset(variables))
        if isinstance(node, (Diamond, Box)):
            self.modalities += 1
            sub = self.build(node.sub, fix_depth)
            return Plan(
                uid, "diamond" if isinstance(node, Diamond) else "box",
                sub.free_ivars, sub.free_pvars,
                max(sub.cost_rank, _COST_MODAL), children=(sub,))
        if isinstance(node, PredVar):
            return Plan(uid, "var", (), (node.name,), _COST_LEAF,
                        name=node.name)
        if isinstance(node, (Mu, Nu)):
            least = isinstance(node, Mu)
            index = len(self.cells)
            self.cells.append(None)  # reserve the slot; descendants follow
            sub = self.build(node.sub, fix_depth + 1)
            inner = self.cells[index + 1:]
            alternation = 1 + max(
                (cell.alternation_depth
                 for cell in inner if cell.least != least), default=0)
            cell = FixpointCell(
                index, node.var, least, fix_depth, alternation,
                mu_descendants=tuple(
                    cell.index for cell in inner if cell.least),
                nu_descendants=tuple(
                    cell.index for cell in inner if not cell.least))
            self.cells[index] = cell
            return Plan(
                uid, "fix", sub.free_ivars,
                tuple(name for name in sub.free_pvars if name != node.var),
                _COST_FIX, children=(sub,), name=node.var, cell=cell,
                least=least)
        raise VerificationError(f"cannot compile node {node!r}")


def _merge_ivars(children: List[Plan]) -> Tuple[Var, ...]:
    merged: set = set()
    for plan in children:
        merged.update(plan.free_ivars)
    return _sorted_vars(merged)


def _merge_pvars(children: List[Plan]) -> Tuple[str, ...]:
    merged: set = set()
    for plan in children:
        merged.update(plan.free_pvars)
    return tuple(sorted(merged))


def compile_formula(formula: MuFormula) -> CompiledFormula:
    """Compile a µL formula into its evaluation plan.

    Raises :class:`~repro.errors.MonotonicityError` on non-monotone
    fixpoints (the same check the direct evaluator performs)."""
    check_monotone(formula)
    pnf = to_pnf(formula)
    compiler = _Compiler()
    root = compiler.build(pnf, 0)
    cells = tuple(compiler.cells)
    return CompiledFormula(
        source=formula,
        pnf=pnf,
        root=root,
        cells=cells,
        closure_size=len(set(pnf.walk())),
        alternation_depth=max(
            (cell.alternation_depth for cell in cells), default=0),
        quantifier_count=compiler.quantifiers,
        modal_count=compiler.modalities,
    )
