"""Indexed µ-calculus evaluation over a compiled formula.

:class:`CompiledChecker` binds a :class:`~repro.mucalc.engine.compiler.
CompiledFormula` to one finite transition system and evaluates it with the
machinery the seed checker lacked:

* ``Diamond``/``Box`` propagate backward along the transition system's lazy
  predecessor index (:meth:`TransitionSystem.predecessors`) — ``<->Phi`` is
  the union of the predecessors of the target, ``[-]Phi`` counts each
  predecessor's successors inside the target against its out-degree —
  instead of scanning every state and intersecting successor sets;
* quantifiers enumerate assignments lazily (no materialized ``domain^k``
  list) and, where a ``LIVE`` guard makes it sound (the µLA/µLP shapes),
  restrict guarded variables to values that are live in *some* state;
  conjunction ordering from the compiler then prunes per state: the
  memoized ``LIVE(d)`` conjunct runs first and empties the intersection
  before the expensive subtree is touched;
* subformula extensions are memoized across fixpoint iterations, keyed by
  the plan node, the valuation restricted to its free individual variables,
  and the *versions* of the fixpoint approximations it depends on — so an
  outer iteration only recomputes the slice of the formula that actually
  reads the changed variable;
* fixpoints iterate Emerson–Lei style: every cell keeps its approximation
  between visits and warm-starts whenever the enclosing changes moved in
  its own iteration direction; it is reset only when an approximation it
  depends on moved against it (an enclosing opposite-sign change).

The module-level helpers (:func:`diamond_states`, :func:`box_states`,
:func:`deadlock_states`) are shared with the propositional checker of
:mod:`repro.mucalc.prop`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple)

from repro.errors import VerificationError
from repro.fol.evaluation import holds
from repro.mucalc.engine.compiler import CompiledFormula, Plan
from repro.relational.values import Var
from repro.semantics.transition_system import State, TransitionSystem
from repro.utils import sorted_values

_MISSING = object()


# ---------------------------------------------------------------------------
# Indexed modal operators (shared with prop.prop_check)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------

@dataclass
class CheckStats:
    """Counters of one :meth:`CompiledChecker.evaluate` run."""

    iterations: int = 0
    resets: int = 0
    peak_extension: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    duration: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "iterations": self.iterations,
            "resets": self.resets,
            "peak_extension": self.peak_extension,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "duration_sec": self.duration,
        }


class _CellState:
    """Mutable approximation of one fixpoint cell.

    ``context`` records the valuation (restricted to the fixpoint's free
    individual variables) the approximation was computed under — a warm
    start under a *different* quantifier assignment would be unsound, so a
    context change forces a reset."""

    __slots__ = ("approx", "version", "needs_reset", "context")

    def __init__(self):
        self.approx: Optional[FrozenSet[State]] = None
        self.version = -1
        self.needs_reset = True
        self.context: Optional[Tuple] = None


class CompiledChecker:
    """Evaluates one compiled formula over one transition system.

    The instance is persistent: the memo table survives across
    :meth:`evaluate` calls (keys carry approximation versions, so stale
    entries simply stop matching), which makes repeated checks of the same
    formula — fixpoint unfoldings, diagnostics — nearly free.
    """

    #: Safety valve: the memo table is cleared when it outgrows this.
    MEMO_LIMIT = 1_000_000

    def __init__(self, ts: TransitionSystem, compiled: CompiledFormula,
                 domain: FrozenSet[Any],
                 adom: Optional[Callable[[State], FrozenSet[Any]]] = None):
        self.ts = ts
        self.compiled = compiled
        self.states: FrozenSet[State] = ts.states
        self.domain = frozenset(domain)
        self._domain_ordered: List[Any] = sorted_values(self.domain)
        # LIVE-guarded quantified variables only need values that are live
        # in some state; dead extra-domain values and constants contribute
        # nothing under the guard.
        self._live_ordered: List[Any] = sorted_values(
            frozenset(ts.values()) & self.domain)
        self._adom = adom or self._default_adom
        self._adom_cache: Dict[State, FrozenSet[Any]] = {}
        self._deadlocks: Optional[FrozenSet[State]] = None
        self._memo: Dict[Tuple, FrozenSet[State]] = {}
        self._cells: List[_CellState] = [
            _CellState() for _ in compiled.cells]
        self._versions = itertools.count()
        self.run_stats = CheckStats()
        self.last_stats: Dict[str, Any] = {}

    # -- public API -----------------------------------------------------------

    def evaluate(self, valuation: Optional[Mapping[Var, Any]] = None,
                 predicates: Optional[Mapping[str, Iterable[State]]] = None
                 ) -> FrozenSet[State]:
        started = time.perf_counter()
        env: Dict[str, Any] = {
            name: frozenset(states)
            for name, states in (predicates or {}).items()}
        # Approximations may not warm-start across top-level calls (the
        # valuation may differ); versions stay monotone so old memo entries
        # cannot be confused with the new run's.
        for cell in self._cells:
            cell.needs_reset = True
        self.run_stats = CheckStats()
        result = self._eval(self.compiled.root, dict(valuation or {}), env)
        self.run_stats.duration = time.perf_counter() - started
        self.last_stats = {
            "mode": "compiled",
            "backend": "sets",
            **self.compiled.info(),
            **self.run_stats.as_dict(),
            "memo_entries": len(self._memo),
        }
        return result

    def fixpoint_extension(self, index: int) -> Optional[FrozenSet[State]]:
        """Final approximation of fixpoint cell ``index`` as a state set.

        Read-only view for the witness layer: after :meth:`evaluate`
        converged, the cell of the outermost ``mu``/``nu`` holds that
        fixpoint's extension, which bounds the support of any certifying
        run. ``None`` when the cell was never evaluated (e.g. short-circuit
        skipped its subtree)."""
        approx = self._cells[index].approx
        return approx

    def body_extension(self) -> Optional[FrozenSet[State]]:
        """Extension of the root fixpoint's predicate-variable-free operand.

        For the certificate shapes ``mu Z. body | <->(...)`` and ``nu Z.
        body & [-](...)`` the ``body`` compiles to exactly the pvar-free
        children of the connective under the root fixpoint, and the
        converged run already evaluated each of them — reading the set
        back here is a pure memo hit (their keys carry no cell versions).
        ``None`` when the root shape does not decompose that way or the
        candidate parts are open. Callers should only rely on this for
        state-local bodies (a closed nested fixpoint part would re-iterate
        its cell rather than hit the memo)."""
        root = self.compiled.root
        if root.kind != "fix" or not root.children:
            return None
        inner = root.children[0]
        if inner.kind not in ("and", "or"):
            return None
        parts = [child for child in inner.children if not child.free_pvars]
        if not parts or any(part.free_ivars for part in parts):
            return None
        combined = self._eval(parts[0], {}, {})
        for part in parts[1:]:
            result = self._eval(part, {}, {})
            combined = combined | result if inner.kind == "or" \
                else combined & result
        return self._as_state_set(combined)

    def _as_state_set(self, result) -> FrozenSet[State]:
        """Hook for mask-based subclasses (sets backend: identity)."""
        return result

    # -- plumbing -------------------------------------------------------------

    def _default_adom(self, state: State) -> FrozenSet[Any]:
        cached = self._adom_cache.get(state)
        if cached is None:
            cached = self.ts.db(state).active_domain()
            self._adom_cache[state] = cached
        return cached

    def deadlocks(self) -> FrozenSet[State]:
        if self._deadlocks is None:
            self._deadlocks = deadlock_states(self.ts)
        return self._deadlocks

    def _memo_key(self, plan: Plan, valuation: Dict[Var, Any],
                  env: Dict[str, Any]) -> Tuple:
        pvals: List[Tuple] = []
        for name in plan.free_pvars:
            binding = env.get(name)
            if isinstance(binding, int):
                pvals.append((name, binding, self._cells[binding].version))
            elif binding is None:
                pvals.append((name, -1, -1))
            else:  # externally supplied constant extension
                pvals.append((name, binding))
        return (plan.uid,
                tuple(valuation.get(var, _MISSING)
                      for var in plan.free_ivars),
                tuple(pvals))

    def _eval(self, plan: Plan, valuation: Dict[Var, Any],
              env: Dict[str, Any]) -> FrozenSet[State]:
        if plan.kind == "var":
            return self._eval_var(plan, env)
        key = self._memo_key(plan, valuation, env)
        cached = self._memo.get(key)
        if cached is not None:
            self.run_stats.memo_hits += 1
            return cached
        self.run_stats.memo_misses += 1
        result = self._compute(plan, valuation, env)
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = result
        if len(result) > self.run_stats.peak_extension:
            self.run_stats.peak_extension = len(result)
        return result

    def _compute(self, plan: Plan, valuation: Dict[Var, Any],
                 env: Dict[str, Any]) -> FrozenSet[State]:
        kind = plan.kind
        if kind == "query":
            return self._eval_query(plan, valuation)
        if kind == "live":
            return self._eval_live(plan, valuation)
        if kind == "and":
            result = self.states
            for child in plan.children:
                result &= self._eval(child, valuation, env)
                if not result:
                    break
            return result
        if kind == "or":
            result: FrozenSet[State] = frozenset()
            for child in plan.children:
                result |= self._eval(child, valuation, env)
                if result == self.states:
                    break
            return result
        if kind == "exists":
            return self._eval_quantifier(plan, valuation, env, exists=True)
        if kind == "forall":
            return self._eval_quantifier(plan, valuation, env, exists=False)
        if kind == "diamond":
            target = self._eval(plan.children[0], valuation, env)
            return diamond_states(self.ts, target)
        if kind == "box":
            target = self._eval(plan.children[0], valuation, env)
            return box_states(self.ts, target, self.deadlocks())
        if kind == "fix":
            return self._eval_fix(plan, valuation, env)
        raise VerificationError(f"cannot evaluate plan kind {kind!r}")

    # -- leaves ---------------------------------------------------------------

    def _eval_query(self, plan: Plan,
                    valuation: Dict[Var, Any]) -> FrozenSet[State]:
        query = plan.query
        relevant = {var: valuation[var] for var in plan.free_ivars
                    if var in valuation}
        missing = set(plan.free_ivars) - set(relevant)
        if missing:
            raise VerificationError(
                f"query {query!r} has unbound variables "
                f"{sorted(var.name for var in missing)}")
        result = frozenset(
            state for state in self.states
            if holds(query, self.ts.db(state), relevant))
        return self.states - result if plan.negated else result

    def _eval_live(self, plan: Plan,
                   valuation: Dict[Var, Any]) -> FrozenSet[State]:
        values = []
        for term in plan.terms:
            if isinstance(term, Var):
                if term not in valuation:
                    raise VerificationError(
                        f"LIVE uses unbound variable {term.name}")
                values.append(valuation[term])
            else:
                values.append(term)
        result = frozenset(
            state for state in self.states
            if all(value in self._adom(state) for value in values))
        return self.states - result if plan.negated else result

    def _eval_var(self, plan: Plan, env: Dict[str, Any]) -> FrozenSet[State]:
        binding = env.get(plan.name)
        if binding is None:
            raise VerificationError(
                f"unbound predicate variable {plan.name}")
        result = self._cells[binding].approx \
            if isinstance(binding, int) else binding
        return self.states - result if plan.negated else result

    # -- quantifiers ----------------------------------------------------------

    def _eval_quantifier(self, plan: Plan, valuation: Dict[Var, Any],
                         env: Dict[str, Any], exists: bool
                         ) -> FrozenSet[State]:
        ranges = [
            self._live_ordered if var in plan.guarded_vars
            else self._domain_ordered
            for var in plan.variables]
        sub = plan.children[0]
        if exists:
            result: FrozenSet[State] = frozenset()
            for combo in itertools.product(*ranges):
                extended = dict(valuation)
                extended.update(zip(plan.variables, combo))
                result |= self._eval(sub, extended, env)
                if result == self.states:
                    break
            return result
        result = self.states
        for combo in itertools.product(*ranges):
            extended = dict(valuation)
            extended.update(zip(plan.variables, combo))
            result &= self._eval(sub, extended, env)
            if not result:
                break
        return result

    # -- fixpoints ------------------------------------------------------------

    def _eval_fix(self, plan: Plan, valuation: Dict[Var, Any],
                  env: Dict[str, Any]) -> FrozenSet[State]:
        meta = plan.cell
        cell = self._cells[meta.index]
        context = tuple(valuation.get(var, _MISSING)
                        for var in plan.free_ivars)
        if cell.needs_reset or cell.context != context:
            cell.approx = frozenset() if plan.least else self.states
            cell.version = next(self._versions)
            cell.needs_reset = False
            cell.context = context
            self.run_stats.resets += 1
            # A reset moves a mu down / a nu up; invalidate exactly the
            # descendants whose warm start that direction breaks.
            self._flag_descendants(meta, increase=not plan.least)
        extended = dict(env)
        extended[meta.name] = meta.index
        while True:
            self.run_stats.iterations += 1
            updated = self._eval(plan.children[0], valuation, extended)
            if updated == cell.approx:
                return cell.approx
            cell.approx = updated
            cell.version = next(self._versions)
            # mu iterations increase, nu iterations decrease (warm starts
            # preserve monotone iteration; see the module docstring).
            self._flag_descendants(meta, increase=plan.least)

    def _flag_descendants(self, meta, increase: bool) -> None:
        # An increasing change breaks the warm start of descendant nus
        # (they iterate downward toward a now-larger target); a decreasing
        # change breaks descendant mus.
        targets = meta.nu_descendants if increase else meta.mu_descendants
        for index in targets:
            self._cells[index].needs_reset = True
