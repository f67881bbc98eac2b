"""The four workloads: seeded lists of cold ``verify`` jobs.

A *job* is one ``verify(dcds, formula, **options)`` call. Its spec is
described by a JSON-able tuple (``spec``) so the reference process in
:mod:`oracle` can rebuild it; the DCDS object itself is built fresh for
every timed call during set-up, because a DCDS carries its attached
relational kernel and a reused object would no longer be cold.

Every workload is a fixed number of *passes* over its job list. The pass
count is derived from ``--seconds`` and a nominal pass cost measured at
the commit that introduced the benchmark (2 CPUs, Python 3.11), never
from the speed of the run itself, so two runs of the same workload with
the same ``--seconds`` always time the same job mix. Within a pass the
seed shuffles the job order; on ``small-specs`` it also draws the random
specs, their µLP templates and the on-the-fly share.

Why each workload exists:

* ``det-frontier`` — deterministic route, sequential, RAM store. Grounding
  and BFS (``relational``, ``engine``) do nearly all the work; formulas are
  cheap (AG true, EF reachability with LIVE guards). The workload for the
  coded hot path.
* ``nondet-props`` — RCYCL and mixed routes with property-heavy checking:
  the gallery's µLP properties (quantifiers, alternation depth 2) over
  ``library_system``, ``student_registry``, the slim request system and one
  forced mixed-semantics spec (Thm 6.1). ``semantics.rcycl``, ``mucalc``
  and ``Instance`` do the work; the deterministic-only tiers (vector and
  batch grounding, symmetry, store, parallel) are bypassed, so a
  deterministic-only optimisation should predict no change here.
* ``small-specs`` — hundreds of seeded ``random_dcds`` specs (weakly
  acyclic deterministic, GR-acyclic nondeterministic, and a share of
  ``shape="free"`` ones whose expected outcome may be a typed
  ``UndecidableFragment``), each crossed with seeded µLP templates (EF, AG,
  infinitely-often, alternation depth 3) and a seeded on-the-fly share.
  Per-verify fixed costs dominate: static checks, kernel compile, routing,
  witness extraction. A regression here weighs as much as a win on a large
  spec, and the many samples make the tail percentile meaningful.
* ``scale-out`` — the ``det-frontier`` kinds of spec run with a
  ``memory_budget`` below their stored size, ``workers=2`` and a fresh
  ``checkpoint=`` path per job: paged store writes and reads, worker IPC
  and checkpoint writes. ``det-frontier`` keeps the same specs in RAM and
  sequential.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("det-frontier", "nondet-props", "small-specs", "scale-out")

#: Nominal seconds of one pass at the commit that introduced the
#: benchmark; turns ``--seconds`` into a fixed pass count.
PASS_SECONDS = {
    "det-frontier": 3.75,
    "nondet-props": 3.75,
    "small-specs": 7.5,
    "scale-out": 3.75,
}

#: Random specs per ``small-specs`` pass (two templates each).
SMALL_SPECS = 400

AG_TRUE = "nu X. (true & [-] X)"


@dataclass(frozen=True)
class Expect:
    """What a job must produce: a verdict with its state and edge counts,
    or a typed error (``error`` names the exception class)."""

    holds: Optional[bool] = None
    states: Optional[int] = None
    edges: Optional[int] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class Job:
    """One cold ``verify`` call."""

    name: str
    spec: Tuple[Any, ...]
    formula: str
    options: Tuple[Tuple[str, Any], ...] = ()
    #: ``None``: the reference process decides (seeded random specs).
    expect: Optional[Expect] = None
    cap_s: float = 30.0

    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def make_dcds(spec: Tuple[Any, ...]):
    """Build a fresh DCDS from its descriptor."""
    from repro.core import DCDSBuilder, ServiceSemantics
    from repro.gallery.library import library_system
    from repro.gallery.student import student_registry
    from repro.gallery.travel import request_system
    from repro import workloads as families

    kind, args = spec[0], spec[1:]
    if kind == "conveyor":
        return families.conveyor_dcds(*args)
    if kind == "warehouse":
        return families.warehouse_dcds(*args)
    if kind == "chain":
        return families.chain_dcds(*args)
    if kind == "lattice":
        return families.lattice_dcds(*args)
    if kind == "blowup":
        return families.commitment_blowup_dcds(*args)
    if kind == "library":
        return library_system(*args)
    if kind == "students":
        return student_registry()
    if kind == "request-slim":
        return request_system(slim=True)
    if kind == "mixed":
        builder = DCDSBuilder(name="mixed")
        builder.schema("R/1", "S/2")
        builder.initial("R('a')")
        builder.service("det_f/1", deterministic=True)
        builder.service("free_g/1", deterministic=False)
        builder.action("go", "R(x) ~> R(x), S(det_f(x), free_g(x))")
        builder.rule("true", "go")
        return builder.build(ServiceSemantics.NONDETERMINISTIC)
    if kind == "random":
        seed, shape, semantics, n_relations, n_actions, effects = args
        return families.random_dcds(
            seed, n_relations=n_relations, n_actions=n_actions,
            effects_per_action=effects, shape=shape,
            semantics=ServiceSemantics(semantics))
    raise ValueError(f"unknown spec kind {kind!r}")


def bell(n: int) -> int:
    """The n-th Bell number (set partitions of an n-element set)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def conveyor_counts(k: int) -> Tuple[int, int]:
    """``k+1`` tokens on ``2k+3`` cells: one state per position vector, and
    every token's advance is always enabled (a token at the end loops)."""
    states = (2 * k + 3) ** (k + 1)
    return states, (k + 1) * states


def chain_counts(n: int) -> Tuple[int, int]:
    """Depth ``j`` holds one state per equality commitment over the ``j``
    call results plus ``'c'`` (``B(j+1)`` of them), each reached by exactly
    one edge; the ``B(n+1)`` deepest states loop."""
    states = 1 + sum(bell(j) for j in range(2, n + 2))
    return states, states - 1 + bell(n + 1)


def blowup_counts(n: int) -> Tuple[int, int]:
    """The initial state fans out to one state per commitment over the
    ``n`` call results plus ``'c'``; each of those loops."""
    return 1 + bell(n + 1), 2 * bell(n + 1)


def _family_job(name, spec, formula, holds, counts, **options) -> Job:
    states, edges = counts
    return Job(name, spec, formula, tuple(sorted(options.items())),
               Expect(holds=holds, states=states, edges=edges))


def _ef_conveyor(k: int, token: int = 0) -> str:
    last = 2 * k + 2
    return (f"mu Z. ((E x. live(x) & At('t{token}', x) & x = 'c{last}') "
            f"| <-> Z)")


_EF_CHAIN6 = "mu Z. ((E x. live(x) & L6(x)) | <-> Z)"
#: Ground: a quantifier over lattice[6]'s 784 grid values would make
#: checking, not grounding, the cost of the job.
_EF_TRI = "mu Z. (Tri('n0_0') | <-> Z)"
_EF_BLOWUP = "mu Z. ((E x. live(x) & Out0(x) & Out1(x)) | <-> Z)"
_AG_BLOWUP = "nu Z. (~(E x. live(x) & Out0(x) & Out1(x)) & [-] Z)"
_AG_CATALOG = "nu Z. ((E x. live(x) & Cat('sku0', x, 'lot0')) & [-] Z)"


def det_frontier_jobs() -> List[Job]:
    """Sorted by time a pass reads blowup x2, lattice x2, chain, conveyor
    x3, warehouse: over four passes the median falls among the lattice and
    chain jobs and the tail (11th slowest) in the middle of the twelve
    conveyor jobs, whose three formulas cost the same, so neither sits on
    the step between two kinds of job."""
    return [
        *(_family_job(f"conveyor[2]/EF-t{token}", ("conveyor", 2),
                      _ef_conveyor(2, token), True, conveyor_counts(2))
          for token in range(3)),
        _family_job("warehouse[2]/AG", ("warehouse", 2), AG_TRUE, True,
                    conveyor_counts(2)),
        _family_job("chain[6]/EF", ("chain", 6), _EF_CHAIN6, True,
                    chain_counts(6)),
        _family_job("lattice[6]/EF", ("lattice", 6), _EF_TRI, True, (2, 2)),
        _family_job("lattice[6]/AG", ("lattice", 6), AG_TRUE, True, (2, 2)),
        _family_job("blowup[5]/EF", ("blowup", 5), _EF_BLOWUP, True,
                    blowup_counts(5)),
        _family_job("blowup[5]/AG", ("blowup", 5), _AG_BLOWUP, False,
                    blowup_counts(5)),
    ]


#: Gallery state/edge counts, pinned at the commit that introduced the
#: benchmark and cross-checked against the kernel-off reference path
#: (``REPRO_NO_KERNEL=1``).
_GALLERY_COUNTS = {
    ("library", 3, 2): (391, 4230),
    ("library", 3, 3): (1180, 16038),
    ("library", 4, 2): (1785, 31512),
    ("students",): (14, 26),
    ("request-slim",): (55, 146),
    ("mixed",): (16, 74),
}


def _library_properties() -> List[Tuple[str, str]]:
    return [
        ("off-shelf",
         "nu X. (~(E b. live(b) & Book(b) & (E m. live(m) & Loaned(b, m)))"
         " & [-] X)"),
        ("returnable",
         "nu X. ((A b. (live(b) & (E m. live(m) & Loaned(b, m)) -> "
         "mu Y. (Book(b) | <-> (live(b) & Y)))) & [-] X)"),
        ("trackable",
         "nu X. ((A b. (live(b) & (Book(b) | (E m. live(m) & Loaned(b, m)))"
         " -> (Book(b) | (E m. live(m) & Loaned(b, m))))) & [-] X)"),
    ]


_STUDENT_PROPERTIES = [
    ("graduation",
     "nu X. ((A x. (live(x) & Stud(x) -> "
     "mu Y. ((E y. live(y) & Grad(x, y)) | <-> (live(x) & Y)))) & [-] X)"),
    ("graduation-or-dropout",
     "nu X. ((A x. (live(x) & Stud(x) -> "
     "mu Y. ((E y. live(y) & Grad(x, y)) | <-> (live(x) -> Y)))) & [-] X)"),
    ("no-student-while-idle",
     "nu X. (~(Status('idle') & (E x. live(x) & Stud(x))) & [-] X)"),
]

_REQUEST_PROPERTIES = [
    ("decided",
     "nu X. ((A n. (live(n) & Travel(n) -> "
     "mu Y. (Status('readyToUpdate') | Status('requestConfirmed')"
     " | (<-> true & [-] (live(n) & Travel(n) & Y))))) & [-] X)"),
    ("no-unpriced-acceptance",
     "nu X. (~(Status('requestConfirmed') & Expense('bottom')) & [-] X)"),
]

_EF_MIXED = "mu Z. ((E x, y. live(x) & live(y) & S(x, y)) | <-> Z)"


def _gallery_job(name, spec, formula, **options) -> Job:
    return _family_job(name, spec, formula, True, _GALLERY_COUNTS[spec],
                       **options)


def nondet_props_pass(index: int) -> List[Job]:
    """One pass: library[3,2] twice with the off-shelf and returnable
    properties and once with trackable, one larger library (3,3) and (4,2)
    in turn, and one job each of the other specs, rotating through their
    properties by pass index so the mix depends on the pass count only.
    Sorted by time four passes read twelve small jobs, eight off-shelf,
    eight returnable and four trackable library[3,2] jobs, then four larger
    ones: the median falls among the off-shelf jobs and the tail (11th
    slowest) among the returnable ones, each block eight deep, and the
    cost of library[3,2] is RCYCL and checking rather than per-call
    jitter."""
    props = _library_properties()
    jobs = [_gallery_job(f"library[3,2]/{name}", ("library", 3, 2), text)
            for name, text in props + props[:2]]
    books, members = ((3, 3), (4, 2))[index % 2]
    name, text = props[index % len(props)]
    jobs.append(_gallery_job(f"library[{books},{members}]/{name}",
                             ("library", books, members), text))
    for spec, properties in ((("students",), _STUDENT_PROPERTIES),
                             (("request-slim",), _REQUEST_PROPERTIES)):
        name, text = properties[index % len(properties)]
        jobs.append(_gallery_job(f"{spec[0]}/{name}", spec, text))
    jobs.append(_gallery_job("mixed/EF", ("mixed",), _EF_MIXED,
                             force=True, max_states=4000))
    return jobs


#: Tight enough that the store evicts and writes pages on every job; the
#: budget's high-water mark over it is reported as measured, overshoot
#: included.
_BUDGET = {2: 256 * 1024, 1: 64 * 1024}


def scale_out_pass(index: int) -> List[Job]:
    """One k=2 spec, conveyor[2] and warehouse[2] in turn, and six
    conveyor[1] jobs whose formulas cost the same: sorted by time four
    passes read twenty-four conveyor[1] jobs, then the four k=2 ones, so
    the median and the tail (11th slowest) both fall inside the block of
    twenty-four. Per job the k=1 runs are noisy (worker start-up, fsync),
    so the block is large."""
    family = ("conveyor", "warehouse")[index % 2]
    jobs = [_family_job(
        f"{family}[2]/{'EF' if family == 'conveyor' else 'AG'}+scale",
        (family, 2),
        _ef_conveyor(2) if family == "conveyor" else _AG_CATALOG, True,
        conveyor_counts(2), memory_budget=_BUDGET[2], workers=2,
        checkpoint=True)]
    for number in range(6):
        formula = ("EF", "EF", "AG")[number % 3]
        jobs.append(_family_job(
            f"conveyor[1]/{formula}-{number}+scale", ("conveyor", 1),
            _ef_conveyor(1, number % 3) if formula == "EF" else AG_TRUE,
            True, conveyor_counts(1), memory_budget=_BUDGET[1], workers=2,
            checkpoint=True))
    return jobs


# ---------------------------------------------------------------------------
# small-specs: seeded random specs crossed with µLP templates
# ---------------------------------------------------------------------------

#: Stratified mix, shuffled by the seed: four of every ten specs weakly
#: acyclic (deterministic), four GR-acyclic (nondeterministic), two free.
#: Free specs are deterministic only: some free nondeterministic specs pass
#: the GR+ check and then run RCYCL for minutes under ``max_states=500``
#: (e.g. ``("random", 60387231, "free", "nondeterministic", 4, 3, 2)``),
#: which no run of this benchmark can afford.
_SHAPES = (("weakly-acyclic", "deterministic"),) * 4 \
    + (("gr-acyclic", "nondeterministic"),) * 4 \
    + (("free", "deterministic"),) * 2
_SIZES = ((3, 2, 2), (4, 2, 2), (3, 3, 2), (5, 2, 2))
TEMPLATES = ("EF", "AG", "inf-often", "alt3")
_ON_THE_FLY_SHARE = 0.25
#: Specs past this many states end in ``AbstractionDiverged``. With 200
#: the slowest jobs were the few large specs a seed happened to draw, and
#: the tail moved by a quarter from seed to seed; with 40 and 800 specs a
#: run, drawing the specs alone moves it by less than a tenth.
_RANDOM_MAX_STATES = 40


def _body(relation: str, arity: int) -> str:
    names = ["x", "y"][:arity]
    guards = " & ".join(f"live({name})" for name in names)
    return (f"(E {', '.join(names)}. {guards} & "
            f"{relation}({', '.join(names)}))")


def template(kind: str, first: str, second: str) -> str:
    """A closed µLP formula of the given kind over two FO bodies."""
    if kind == "EF":
        return f"mu Z. ({first} | <-> Z)"
    if kind == "AG":
        return f"nu Z. ((~{first} | {second}) & [-] Z)"
    if kind == "inf-often":
        return f"nu X. mu Y. (({first} & <-> X) | <-> Y)"
    if kind == "alt3":
        return (f"mu W. nu X. mu Y. (({first} & <-> W) | "
                f"({second} & <-> X) | <-> Y)")
    raise ValueError(kind)


def small_specs_jobs(seed: int, count: int = SMALL_SPECS) -> List[Job]:
    rng = random.Random(f"small-specs/{seed}")
    shapes = [_SHAPES[i % len(_SHAPES)] for i in range(count)]
    sizes = [_SIZES[i % len(_SIZES)] for i in range(count)]
    pairs = [(a, b) for i, a in enumerate(TEMPLATES)
             for b in TEMPLATES[i + 1:]]
    chosen = [pairs[i % len(pairs)] for i in range(count)]
    for items in (shapes, sizes, chosen):
        rng.shuffle(items)
    jobs = []
    checked_early = 0
    for index in range(count):
        shape, semantics = shapes[index]
        n_relations, n_actions, effects = sizes[index]
        spec = ("random", rng.randrange(1 << 30), shape, semantics,
                n_relations, n_actions, effects)
        arities = _arities(spec)
        for kind in chosen[index]:
            first, second = rng.sample(range(n_relations), 2)
            formula = template(kind,
                               _body(f"R{first}", arities[first]),
                               _body(f"R{second}", arities[second]))
            options = {"max_states": _RANDOM_MAX_STATES}
            if kind in ("EF", "AG"):
                # Exactly the share, spread evenly over the shuffled specs.
                checked_early += 1
                if (checked_early * _ON_THE_FLY_SHARE) % 1 \
                        < _ON_THE_FLY_SHARE:
                    options["on_the_fly"] = True
            jobs.append(Job(f"random[{index}]/{kind}", spec, formula,
                            tuple(sorted(options.items())), None, 10.0))
    return jobs


def _arities(spec: Tuple[Any, ...]) -> List[int]:
    schema = make_dcds(spec).schema
    return [schema.arity(f"R{i}") for i in range(spec[4])]


# ---------------------------------------------------------------------------
# Workload assembly
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """The job passes of one run, plus what identifies them."""

    workload: str
    seed: int
    passes: List[List[Job]] = field(default_factory=list)

    def jobs(self) -> List[Job]:
        return [job for one in self.passes for job in one]

    def digest(self) -> str:
        payload = [[asdict(job) for job in one] for one in self.passes]
        blob = json.dumps([self.workload, payload], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def plan(workload: str, seed: int, seconds: float) -> Plan:
    """The seeded job passes for one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    result = Plan(workload, seed)
    passes = pass_count(workload, seconds)
    if workload == "small-specs":
        # Every pass draws its own specs: more distinct specs per run.
        fresh = small_specs_jobs(seed, SMALL_SPECS * passes)
        per_pass = len(fresh) // passes
    for index in range(passes):
        if workload == "det-frontier":
            jobs = det_frontier_jobs()
        elif workload == "nondet-props":
            jobs = nondet_props_pass(index)
        elif workload == "scale-out":
            jobs = scale_out_pass(index)
        else:
            jobs = fresh[index * per_pass:(index + 1) * per_pass]
        rng.shuffle(jobs)
        result.passes.append(jobs)
    return result
