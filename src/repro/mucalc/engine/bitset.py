"""Bitset-backed µ-calculus evaluation: state sets as machine words.

:class:`BitsetChecker` specializes :class:`~repro.mucalc.engine.evaluator.
CompiledChecker` with a dense state-ID representation: every extension is a
Python int whose bit ``i`` stands for the ``i``-th state in the transition
system's discovery order (``TransitionSystem.discovery_order``). The
numbering never leaves the engine — every extension it hands out is a
frozenset — so no verdict or certificate depends on it. The evaluation
strategy — plan tree, memoization keyed by approximation versions,
Emerson–Lei warm-started cells — is inherited unchanged; what changes is
the algebra:

* ``&``/``|``/negation are single big-int operations over ``n/64`` words
  instead of hashed frozenset algebra;
* ``Diamond`` gathers precomputed per-state *predecessor masks* over the
  target's set bits; ``Box`` checks ``succ_mask[i] & target ==
  succ_mask[i]`` on the diamond candidates plus the deadlock mask —
  both without touching the per-state frozensets of the lazy predecessor
  index;
* fixpoint convergence (``updated == approx``) compares words rather than
  hashing whole state sets once per iteration.

Arbitrary-width Python ints keep this dependency-free: the bitset backend
works without numpy and is gated only by the ``REPRO_NO_VECTOR`` kill
switch (read when a :class:`~repro.mucalc.checker.ModelChecker` builds an
engine — see ``checker.py``). Query/LIVE leaves still evaluate per state
through the inherited reference helpers; the win is in the modal/fixpoint
superstructure, which dominates the alternation sweep.

Results are bit-identical to the set-based engine — the differential
battery in ``tests/test_vector.py`` pins both against the reference
checker.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro import env
from repro.mucalc.engine.compiler import Plan
from repro.mucalc.engine.evaluator import (
    _MISSING, CheckStats, CompiledChecker)
from repro.semantics.transition_system import State


def bitset_enabled() -> bool:
    """Backend switch, read when an engine is constructed. Pure Python —
    available with or without numpy."""
    return not env.vector_disabled()


#: Set-bit positions per byte value — scatter/gather loops walk a mask's
#: bytes instead of isolating one bit at a time with big-int arithmetic
#: (3x fewer interpreter rounds and no O(words) ``m & -m`` per bit).
_BITS_OF = [tuple(bit for bit in range(8) if value >> bit & 1)
            for value in range(256)]


class BitsetChecker(CompiledChecker):
    """Drop-in for :class:`CompiledChecker` computing over int bitmasks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: State numbering: discovery order, which costs no ``repr``
        #: and sets only internal mask bits — ``_to_states`` hands out
        #: frozensets, so no verdict or certificate can depend on it.
        self._order: List[State] = list(self.ts.discovery_order())
        self._position: Dict[State, int] = {
            state: index for index, state in enumerate(self._order)}
        self._full: int = (1 << len(self._order)) - 1
        self._nbytes: int = (len(self._order) + 7) // 8
        self._pred_masks: Optional[List[int]] = None
        self._env_masks: Dict[FrozenSet[State], int] = {}
        #: Last (argument, gather) per diamond occurrence. <-> distributes
        #: over union, so while a fixpoint grows its target monotonically
        #: (mu under a diamond, nu under a box's complemented diamond)
        #: each iteration gathers only the newly-set bits — O(edges) total
        #: per fixpoint run instead of O(iterations * edges).
        self._diamond_memo: Dict[int, Tuple[int, int]] = {}

    def fixpoint_extension(self, index: int) -> Optional[FrozenSet[State]]:
        """Cell exposure in set terms (cells hold int masks here)."""
        approx = self._cells[index].approx
        return None if approx is None else self._to_states(approx)

    def _as_state_set(self, result) -> FrozenSet[State]:
        """``body_extension`` combines int masks here; expose states."""
        return self._to_states(result)

    # -- representation -------------------------------------------------------

    def _to_mask(self, states: Iterable[State]) -> int:
        position = self._position
        mask = 0
        for state in states:
            mask |= 1 << position[state]
        return mask

    def _to_states(self, mask: int) -> FrozenSet[State]:
        order = self._order
        found = []
        for byte_index, byte in enumerate(mask.to_bytes(self._nbytes,
                                                        "little")):
            if byte:
                base = byte_index * 8
                for bit in _BITS_OF[byte]:
                    found.append(order[base + bit])
        return frozenset(found)

    def _modal_index(self) -> List[int]:
        """Per-state predecessor masks, built once per engine."""
        n = len(self._order)
        preds = [0] * n
        position = self._position
        for index, state in enumerate(self._order):
            bit = 1 << index
            for successor in self.ts.successors(state):
                preds[position[successor]] |= bit
        self._pred_masks = preds
        return preds

    def _diamond_mask(self, target: int) -> int:
        preds = self._pred_masks
        if preds is None:
            preds = self._modal_index()
        result = 0
        for byte_index, byte in enumerate(target.to_bytes(self._nbytes,
                                                          "little")):
            if byte:
                base = byte_index * 8
                for bit in _BITS_OF[byte]:
                    result |= preds[base + bit]
        return result

    def _box_mask(self, target: int) -> int:
        # [-]Phi = ~<->~Phi; deadlocks come out vacuously satisfied (they
        # precede nothing, so they never land in a diamond).
        return self._full ^ self._diamond_mask(self._full ^ target)

    def _diamond_step(self, uid: int, target: int) -> int:
        """One diamond evaluation at a plan occurrence, delta-gathered
        against the occurrence's previous target when it only grew."""
        memo = self._diamond_memo.get(uid)
        if memo is not None:
            last_target, last_result = memo
            if last_target & target == last_target:
                result = last_result | self._diamond_mask(
                    target ^ last_target)
                self._diamond_memo[uid] = (target, result)
                return result
        result = self._diamond_mask(target)
        self._diamond_memo[uid] = (target, result)
        return result

    # -- evaluation (inherited shape, mask algebra) ---------------------------

    def evaluate(self, valuation: Optional[Mapping] = None,
                 predicates: Optional[Mapping[str, Iterable[State]]] = None
                 ) -> FrozenSet[State]:
        started = time.perf_counter()
        env: Dict[str, Any] = {
            name: frozenset(states)
            for name, states in (predicates or {}).items()}
        for cell in self._cells:
            cell.needs_reset = True
        self.run_stats = CheckStats()
        result = self._eval(self.compiled.root, dict(valuation or {}), env)
        self.run_stats.duration = time.perf_counter() - started
        self.last_stats = {
            "mode": "compiled",
            "backend": "bitset",
            **self.compiled.info(),
            **self.run_stats.as_dict(),
            "memo_entries": len(self._memo),
        }
        return self._to_states(result)

    def _eval(self, plan: Plan, valuation: Dict, env: Dict[str, Any]) -> int:
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
        size = result.bit_count()
        if size > self.run_stats.peak_extension:
            self.run_stats.peak_extension = size
        return result

    def _compute(self, plan: Plan, valuation: Dict,
                 env: Dict[str, Any]) -> int:
        kind = plan.kind
        if kind == "query":
            # The leaf still runs per state (inherited); only the set
            # representation changes.
            return self._to_mask(
                CompiledChecker._eval_query(self, plan, valuation))
        if kind == "live":
            return self._to_mask(
                CompiledChecker._eval_live(self, plan, valuation))
        if kind == "and":
            result = self._full
            for child in plan.children:
                result &= self._eval(child, valuation, env)
                if not result:
                    break
            return result
        if kind == "or":
            result = 0
            for child in plan.children:
                result |= self._eval(child, valuation, env)
                if result == self._full:
                    break
            return result
        if kind == "exists":
            return self._eval_quantifier(plan, valuation, env, exists=True)
        if kind == "forall":
            return self._eval_quantifier(plan, valuation, env, exists=False)
        if kind == "diamond":
            return self._diamond_step(
                plan.uid, self._eval(plan.children[0], valuation, env))
        if kind == "box":
            return self._full ^ self._diamond_step(
                plan.uid,
                self._full ^ self._eval(plan.children[0], valuation, env))
        if kind == "fix":
            return self._eval_fix(plan, valuation, env)
        return CompiledChecker._compute(self, plan, valuation, env)

    def _eval_var(self, plan: Plan, env: Dict[str, Any]) -> int:
        binding = env.get(plan.name)
        if binding is None:
            return CompiledChecker._eval_var(self, plan, env)  # raises
        if isinstance(binding, int):
            result = self._cells[binding].approx
        else:
            # Externally supplied constant extension (a frozenset in the
            # env so the inherited _memo_key stays valid); converted once.
            result = self._env_masks.get(binding)
            if result is None:
                result = self._to_mask(binding)
                self._env_masks[binding] = result
        return result ^ self._full if plan.negated else result

    def _eval_quantifier(self, plan: Plan, valuation: Dict,
                         env: Dict[str, Any], exists: bool) -> int:
        ranges = [
            self._live_ordered if var in plan.guarded_vars
            else self._domain_ordered
            for var in plan.variables]
        sub = plan.children[0]
        if exists:
            result = 0
            for combo in itertools.product(*ranges):
                extended = dict(valuation)
                extended.update(zip(plan.variables, combo))
                result |= self._eval(sub, extended, env)
                if result == self._full:
                    break
            return result
        result = self._full
        for combo in itertools.product(*ranges):
            extended = dict(valuation)
            extended.update(zip(plan.variables, combo))
            result &= self._eval(sub, extended, env)
            if not result:
                break
        return result

    def _eval_fix(self, plan: Plan, valuation: Dict,
                  env: Dict[str, Any]) -> int:
        meta = plan.cell
        cell = self._cells[meta.index]
        context = tuple(valuation.get(var, _MISSING)
                        for var in plan.free_ivars)
        if cell.needs_reset or cell.context != context:
            cell.approx = 0 if plan.least else self._full
            cell.version = next(self._versions)
            cell.needs_reset = False
            cell.context = context
            self.run_stats.resets += 1
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
            self._flag_descendants(meta, increase=plan.least)
