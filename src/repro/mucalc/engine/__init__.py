"""Compiled model-checking layer (the checking twin of ``repro.engine``).

The seed checker interpreted formulas directly: every ``evaluate`` call
re-derived the quantification domain, re-checked monotonicity, restarted
every fixpoint from scratch, and scanned all states for each modality.
This package compiles a formula once (:mod:`compiler`: positive normal
form, per-occurrence fixpoint cells with dependency metadata, alternation
depth, cost-ordered plans, range-restricted query leaves) and evaluates
it with indexed machinery (:mod:`evaluator`: state sets as int masks over
the transition system's discovery order, answer-indexed query leaves,
predecessor-mask modalities, lazy LIVE-restricted quantifiers,
version-keyed memoization, Emerson–Lei warm-started fixpoints) — the
only compiled engine; it reads no environment switch. :mod:`onthefly`
fuses the checker with :class:`repro.engine.Explorer` so
safety/reachability formulas stop the state-space construction on the
first witness or violation.

:class:`repro.mucalc.ModelChecker` fronts this package; the seed-style
recursive evaluator remains available (``compiled=False``) as the parity
reference. :mod:`witness` reuses the predecessor index to walk converged
fixpoints backwards into minimal certifying runs (fronted by
:mod:`repro.mucalc.witness`).
"""

from repro.mucalc.engine.compiler import (
    CompiledFormula, FixpointCell, Plan, compile_formula, to_pnf)
from repro.mucalc.engine.evaluator import CheckStats, CompiledChecker
from repro.mucalc.engine.onthefly import (
    OnTheFlyVerifier, PropertyShape, evaluate_local, is_state_local,
    recognize_shape)
from repro.mucalc.engine.witness import (
    reach_ranks, violation_trace, witness_trace)

__all__ = [
    "CheckStats", "CompiledChecker", "CompiledFormula", "FixpointCell",
    "OnTheFlyVerifier", "Plan", "PropertyShape", "compile_formula",
    "evaluate_local", "is_state_local", "reach_ranks", "recognize_shape",
    "to_pnf", "violation_trace", "witness_trace",
]
