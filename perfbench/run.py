"""Cold ``verify`` benchmark: one closed-loop caller, one verify in flight.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload det-frontier --seed 1 \\
        --seconds 15 --trace 0

Set-up builds a fresh DCDS and parses the formula for every timed job,
then runs one untimed warm-up ``verify`` on a tiny spec outside the job
list. Each timed job starts from cleared subproblem caches, so it is a
user's first ``verify`` of that spec; kernel compile and static checks are
inside the timed call. After each job its verdict, state and edge counts
are checked against the job's expectation and any certificate is replayed
through ``repro.mucalc.certify``; seeded random jobs are checked against a
reference process (:mod:`perfbench.oracle`) after the timed loop.

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
reference speed of the host by probes run between the jobs
(:mod:`perfbench.probe`). ``--trace 1`` alternates
untraced and traced passes of the same jobs and prints the per-layer
metrics read from spans (:mod:`perfbench.spans`) and from the reports'
counters, the ``unattributed`` share of ``verify`` wall time, and the
tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
details go to ``.perfbench_out/`` in the checkout.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3

#: Wall-clock limit for the reference processes of one run.
REFERENCE_TIMEOUT_S = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


class JobTimeout(BaseException):
    """A job ran past its cap; raised from the interval timer so the run
    still ends in bounded time."""


def _on_timer(signum, frame):
    raise JobTimeout()


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, and nothing else."""
    ambient = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if ambient:
        raise BenchError(
            f"refusing to run with {', '.join(ambient)} set: REPRO_* "
            f"variables change what the workloads measure")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no program sources under {src}")
    sys.path[:0] = [src, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one timed job did."""

    job_id: str
    job: Any
    seconds: float = 0.0
    #: ``seconds`` at the probe's reference speed (:mod:`perfbench.probe`).
    scaled: float = 0.0
    started: float = 0.0
    holds: Optional[bool] = None
    states: Optional[int] = None
    edges: Optional[int] = None
    error: Optional[str] = None
    certified: bool = False
    failures: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    checking: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Timed:
    """A job with its freshly built spec and parsed formula."""

    job_id: str
    job: Any
    dcds: Any
    formula: Any
    traced: bool = False


def build_instances(passes, tags: Tuple[str, ...]) -> List[List[Timed]]:
    """One fresh DCDS and formula per timed job and tag (``"t"`` marks the
    traced copy of a pass)."""
    from perfbench.jobs import make_dcds
    from repro.mucalc import parser

    built = []
    for number, jobs in enumerate(passes):
        for tag in tags:
            built.append([
                Timed(f"p{number}{tag}.{index}:{job.name}", job,
                      make_dcds(job.spec), parser.parse_mu(job.formula),
                      tag == "t")
                for index, job in enumerate(jobs)])
    return built


def warm_up(workload: str) -> None:
    """One untimed verify per route on tiny specs outside every job list,
    with the workload's options, so lazy imports and pools finish."""
    from perfbench.jobs import make_dcds
    from repro import pipeline
    from repro.mucalc.parser import parse_mu

    ef = parse_mu("mu Z. ((E x. live(x) & L1(x)) | <-> Z)")
    options: Dict[str, Any] = {}
    path = None
    if workload == "scale-out":
        path = _checkpoint_path("warm-up")
        options = dict(memory_budget=64 * 1024, workers=2, checkpoint=path)
    try:
        pipeline.verify(make_dcds(("chain", 1)), ef, **options)
        pipeline.verify(make_dcds(("random", 7, "gr-acyclic",
                                   "nondeterministic", 3, 2, 2)),
                        parse_mu("nu X. (true & [-] X)"), on_the_fly=True)
    finally:
        if path is not None:
            _remove_checkpoint(path)


def _checkpoint_path(name: str) -> str:
    directory = os.path.join(OUT, f"ckpt-{os.getpid()}", name)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "run")


def _remove_checkpoint(path: str) -> None:
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def run_job(item: Timed) -> Outcome:
    """Time one cold ``verify`` and check what it returned."""
    from repro import pipeline
    from repro.core.execution import clear_subproblem_caches
    from repro.errors import ReproError

    job = item.job
    options = job.option_dict()
    path = None
    if options.pop("checkpoint", False):
        path = options["checkpoint"] = _checkpoint_path(str(os.getpid()))
    outcome = Outcome(item.job_id, job)
    clear_subproblem_caches()
    # Collect the previous job's garbage and freeze the survivors, so the
    # collector sees only this job's objects, as in a fresh process.
    gc.collect()
    gc.freeze()
    report = None
    signal.setitimer(signal.ITIMER_REAL, job.cap_s)
    started = outcome.started = time.perf_counter()
    try:
        report = pipeline.verify(item.dcds, item.formula, **options)
    except ReproError as error:
        outcome.error = type(error).__name__
    except JobTimeout:
        outcome.error = "unexpected JobTimeout: interrupted at the cap"
    except Exception as error:  # noqa: BLE001 — counted, not raised
        outcome.error = f"unexpected {type(error).__name__}: {error}"
    finally:
        outcome.seconds = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    # Release the spec (and the kernel attached to it) once it has run.
    item.dcds = item.formula = None
    if path is not None:
        _remove_checkpoint(path)
    if report is not None:
        _read_report(outcome, report)
    _check_expectation(outcome)
    return outcome


def _read_report(outcome: Outcome, report) -> None:
    from repro.mucalc import certify

    outcome.holds = report.holds
    outcome.states = report.abstraction_stats.get("states")
    outcome.edges = report.abstraction_stats.get("edges")
    outcome.stats = report.abstraction_stats
    outcome.checking = report.checking_stats
    for certificate in (report.witness, report.violation):
        if certificate is None:
            continue
        replayed = certify.replay(report.transition_system, certificate)
        outcome.certified = replayed.ok
        if not replayed.ok:
            outcome.failures.append(
                "certificate rejected: " + "; ".join(replayed.failures))


def _check_expectation(outcome: Outcome) -> None:
    job = outcome.job
    if outcome.seconds > job.cap_s:
        outcome.failures.append(
            f"took {outcome.seconds:.2f} s, cap {job.cap_s} s")
    if job.expect is not None:
        compare(outcome, job.expect.__dict__)


def compare(outcome: Outcome, expect: Dict[str, Any]) -> None:
    """Record every way ``outcome`` differs from ``expect``."""
    on_the_fly = outcome.job.option_dict().get("on_the_fly", False)
    if expect.get("error") is not None:
        if outcome.error == expect["error"]:
            return
        # An on-the-fly run may decide before the full build diverges;
        # the verdict then carries a certificate, replayed above.
        if not (on_the_fly and expect["error"] == "AbstractionDiverged"
                and outcome.error is None and outcome.certified):
            outcome.failures.append(
                f"expected {expect['error']}, got "
                f"{outcome.error or 'a verdict'}")
        return
    if outcome.error is not None:
        outcome.failures.append(f"raised {outcome.error}")
        return
    if outcome.holds != expect.get("holds"):
        outcome.failures.append(
            f"verdict {outcome.holds}, expected {expect.get('holds')}")
    if on_the_fly:
        return
    for key in ("states", "edges"):
        if expect.get(key) is not None \
                and getattr(outcome, key) != expect[key]:
            outcome.failures.append(
                f"{key} {getattr(outcome, key)}, expected {expect[key]}")


def check_against_reference(outcomes: List[Outcome]) -> None:
    """Compare seeded random jobs with the reference process's outcomes."""
    pending = [o for o in outcomes if o.job.expect is None]
    if not pending:
        return
    triples, index = [], {}
    for outcome in pending:
        job = outcome.job
        key = (job.spec, job.formula, job.option_dict().get("max_states"))
        if key not in index:
            index[key] = len(triples)
            triples.append([list(job.spec), job.formula, key[2]])
    expected = reference(triples)
    for outcome in pending:
        job = outcome.job
        key = (job.spec, job.formula, job.option_dict().get("max_states"))
        compare(outcome, expected[index[key]])


def reference(triples: List[List[Any]]) -> List[Dict[str, Any]]:
    """Outcomes from two kernel-off reference processes; the triples of one
    spec go to the same process, so each spec is explored once."""
    env = dict(os.environ, REPRO_NO_KERNEL="1")
    script = os.path.join(HERE, "oracle.py")
    shares: List[List[int]] = [[], []]
    specs: Dict[str, int] = {}
    for position, (spec, _, max_states) in enumerate(triples):
        key = json.dumps([spec, max_states])
        specs.setdefault(key, len(specs) % len(shares))
        shares[specs[key]].append(position)
    shares = [share for share in shares if share]
    procs = [subprocess.Popen([sys.executable, script], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True)
             for _ in shares]
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_TIMEOUT_S)
    try:
        for proc, share in zip(procs, shares):
            proc.stdin.write(json.dumps([triples[i] for i in share]))
            proc.stdin.close()
        decoded = [json.loads(proc.stdout.read()) for proc in procs]
        for proc in procs:
            proc.wait()
    except JobTimeout:
        raise BenchError("reference process timed out") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(proc.returncode for proc in procs):
        raise BenchError("reference process failed")
    merged: List[Dict[str, Any]] = [{} for _ in triples]
    for share, outcomes in zip(shares, decoded):
        for position, outcome in zip(share, outcomes):
            merged[position] = outcome
    return merged


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(times: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``; the minimum when there are
    fewer than eleven samples."""
    ordered = sorted(times)
    position = max(0, len(ordered) - 11)
    beyond = len(ordered) - 1 - position
    return (ordered[position], 100.0 * (position + 1) / len(ordered),
            beyond)


def timings(times: List[float], setup_s: float) -> Dict[str, float]:
    value, _, _ = tail(times)
    return {
        "setup_s": setup_s,
        "verify_p50_ms": statistics.median(times) * 1000.0,
        "verify_tail_ms": value * 1000.0,
        "verdicts_per_s": len(times) / sum(times),
    }


def end_to_end(outcomes: List[Outcome], setup: Tuple[float, float],
               worker_rss_mb: float) -> Dict[str, Any]:
    """The end-to-end metrics from times at the probe's reference speed;
    the wall-clock values are kept under ``_wall``. ``setup`` is the
    set-up time, wall and scaled."""
    scaled = [o.scaled for o in outcomes]
    _, percentile, beyond = tail(scaled)
    return {
        **timings(scaled, setup[1]),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "_wall": timings([o.seconds for o in outcomes], setup[0]),
        "_tail": {"percentile": percentile, "samples": len(scaled),
                  "beyond": beyond},
        "_worker_peak_rss_mb": worker_rss_mb,
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metric -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "pipeline.self_s": "s",
    "unattributed_share": "ratio",
    "analysis.calls": "count",
    "analysis.busy_s": "s",
    "reductions.busy_s": "s",
    "semantics.busy_s": "s",
    "engine.self_s": "s",
    "engine.states": "count",
    "engine.edges": "count",
    "engine.expansions": "count",
    "engine.frontier_peak": "count",
    "engine.states_per_s": "1/s",
    "engine.batch.blocks": "count",
    "engine.batch.thin_blocks": "count",
    "engine.batch.dedup_hit_rate": "ratio",
    "engine.store.bytes_written": "B",
    "engine.store.page_reads": "count",
    "engine.store.rehydrations": "count",
    "engine.store.evictions": "count",
    "engine.store.high_water_over_budget": "ratio",
    "engine.parallel.ipc_bytes": "B",
    "engine.parallel.coordinator_decode_s": "s",
    "engine.parallel.coordinator_apply_s": "s",
    "engine.parallel.wait_s": "s",
    "engine.parallel.discarded_share": "ratio",
    "engine.parallel.recoveries": "count",
    "engine.checkpoint.writes": "count",
    "engine.checkpoint.write_s": "s",
    "relational.calls": "count",
    "relational.busy_s": "s",
    "relational.legal_evals": "count",
    "relational.effect_evals": "count",
    "relational.fallbacks": "count",
    "relational.facts_interned": "count",
    "relational.vector.effect_evals": "count",
    "relational.vector.rows_peak": "count",
    "relational.vector.fallbacks": "count",
    "relational.instance.calls": "count",
    "relational.instance.busy_s": "s",
    "core.execution.busy_s": "s",
    "mucalc.check_s": "s",
    "mucalc.iterations": "count",
    "mucalc.resets": "count",
    "mucalc.peak_extension": "count",
    "mucalc.memo_hit_rate": "ratio",
    "mucalc.witness_s": "s",
    "mucalc.onthefly.states_checked": "count",
    "fol.parse_s": "s",
    "trace.untraced_verdicts_per_s": "1/s",
    "trace.traced_verdicts_per_s": "1/s",
    "trace.overhead_share": "ratio",
}


def per_layer(tracer, traced: List[Outcome], untraced: List[Outcome]
              ) -> Dict[str, float]:
    """Per-layer metrics summed over the traced jobs."""
    layers = tracer.layer_totals([o.job_id for o in traced])
    setup = tracer.layer_totals(["setup"])
    metrics: Dict[str, float] = {
        "pipeline.self_s": layers["pipeline"]["self_s"],
        "unattributed_share": _ratio(layers["pipeline"]["self_s"],
                                     layers["pipeline"]["busy_s"]),
        "analysis.calls": layers["analysis"]["calls"],
        "analysis.busy_s": layers["analysis"]["busy_s"],
        "reductions.busy_s": layers["reductions"]["busy_s"],
        "semantics.busy_s": layers["semantics"]["busy_s"],
        "engine.self_s": layers["semantics"]["self_s"],
        "engine.checkpoint.writes": layers["engine.checkpoint"]["calls"],
        "engine.checkpoint.write_s": layers["engine.checkpoint"]["busy_s"],
        "relational.calls": layers["relational"]["calls"],
        "relational.busy_s": layers["relational"]["busy_s"],
        "relational.instance.calls": layers["relational.instance"]["calls"],
        "relational.instance.busy_s":
            layers["relational.instance"]["busy_s"],
        "core.execution.busy_s": layers["core.execution"]["busy_s"],
        "mucalc.check_s": layers["mucalc"]["busy_s"],
        "mucalc.witness_s": layers["mucalc.witness"]["busy_s"],
        "fol.parse_s": setup["fol.parse"]["busy_s"],
    }
    metrics.update(report_counters(tracer, traced))
    plain = len(untraced) / sum(o.seconds for o in untraced)
    with_spans = len(traced) / sum(o.seconds for o in traced)
    metrics["trace.untraced_verdicts_per_s"] = plain
    metrics["trace.traced_verdicts_per_s"] = with_spans
    metrics["trace.overhead_share"] = 1.0 - with_spans / plain
    return metrics


def report_counters(tracer, outcomes: List[Outcome]) -> Dict[str, float]:
    """Counters read from ``abstraction_stats`` / ``checking_stats``."""
    total: Dict[str, float] = {name: 0 for name in (
        "states", "edges", "expansions", "frontier_peak", "duration",
        "blocks", "thin_blocks", "dedup_hits", "warmed", "bytes_written",
        "page_reads", "rehydrations", "evictions", "over_budget",
        "ipc_bytes", "decode", "apply", "wait", "discarded", "shipped",
        "recoveries", "legal_evals", "effect_evals", "fallbacks",
        "facts_interned", "vector_effect_evals", "rows_peak",
        "vector_fallbacks", "iterations", "resets", "peak_extension",
        "memo_hits", "memo_lookups", "states_checked")}
    for outcome in outcomes:
        stats, checking = outcome.stats, outcome.checking
        if not stats:
            continue
        for key in ("states", "edges", "expansions"):
            total[key] += stats.get(key, 0)
        total["frontier_peak"] = max(total["frontier_peak"],
                                     stats.get("frontier_peak", 0))
        total["duration"] += stats.get("duration_sec", 0.0)
        batch = stats.get("batch", {})
        total["blocks"] += batch.get("blocks", 0)
        total["thin_blocks"] += batch.get("thin_blocks", 0)
        total["dedup_hits"] += batch.get("dedup_hits", 0)
        total["warmed"] += batch.get("warmed_entries", 0)
        store = stats.get("store", {})
        total["bytes_written"] += store.get("bytes_written", 0)
        total["page_reads"] += store.get("page_reads", 0)
        total["rehydrations"] += store.get("rehydrations", 0)
        total["evictions"] += sum(store.get("evictions", {}).values())
        if store.get("budget"):
            total["over_budget"] = max(
                total["over_budget"],
                store.get("budget_high_water", 0) / store["budget"])
        parallel = stats.get("parallel")
        if parallel:
            total["ipc_bytes"] += parallel.get("ipc_bytes_sent", 0) \
                + parallel.get("ipc_bytes_received", 0)
            decode = parallel.get("coordinator_decode_sec", 0.0)
            apply = parallel.get("coordinator_apply_sec", 0.0)
            total["decode"] += decode
            total["apply"] += apply
            semantics = tracer.layer_totals([outcome.job_id])["semantics"]
            total["wait"] += semantics["busy_s"] - decode - apply
            total["discarded"] += parallel.get(
                "speculative_states_discarded", 0)
            total["shipped"] += parallel.get("states_shipped", 0)
            total["recoveries"] += parallel.get("respawns", 0) \
                + parallel.get("redispatches", 0)
        kernel = stats.get("kernel", {})
        for key in ("legal_evals", "effect_evals", "fallbacks",
                    "facts_interned"):
            total[key] += kernel.get(key, 0)
        vector = stats.get("vector", {})
        total["vector_effect_evals"] += vector.get("effect_evals", 0)
        total["vector_fallbacks"] += vector.get("fallbacks", 0)
        total["rows_peak"] = max(total["rows_peak"],
                                 vector.get("rows_peak", 0))
        total["iterations"] += checking.get("iterations", 0)
        total["resets"] += checking.get("resets", 0)
        total["peak_extension"] = max(total["peak_extension"],
                                      checking.get("peak_extension", 0))
        total["memo_hits"] += checking.get("memo_hits", 0)
        total["memo_lookups"] += checking.get("memo_hits", 0) \
            + checking.get("memo_misses", 0)
        total["states_checked"] += checking.get("states_checked", 0)
    return {
        "engine.states": total["states"],
        "engine.edges": total["edges"],
        "engine.expansions": total["expansions"],
        "engine.frontier_peak": total["frontier_peak"],
        "engine.states_per_s": _ratio(total["states"], total["duration"]),
        "engine.batch.blocks": total["blocks"],
        "engine.batch.thin_blocks": total["thin_blocks"],
        "engine.batch.dedup_hit_rate": _ratio(total["dedup_hits"],
                                              total["warmed"]),
        "engine.store.bytes_written": total["bytes_written"],
        "engine.store.page_reads": total["page_reads"],
        "engine.store.rehydrations": total["rehydrations"],
        "engine.store.evictions": total["evictions"],
        "engine.store.high_water_over_budget": total["over_budget"],
        "engine.parallel.ipc_bytes": total["ipc_bytes"],
        "engine.parallel.coordinator_decode_s": total["decode"],
        "engine.parallel.coordinator_apply_s": total["apply"],
        "engine.parallel.wait_s": total["wait"],
        "engine.parallel.discarded_share": _ratio(total["discarded"],
                                                  total["shipped"]),
        "engine.parallel.recoveries": total["recoveries"],
        "relational.legal_evals": total["legal_evals"],
        "relational.effect_evals": total["effect_evals"],
        "relational.fallbacks": total["fallbacks"],
        "relational.facts_interned": total["facts_interned"],
        "relational.vector.effect_evals": total["vector_effect_evals"],
        "relational.vector.rows_peak": total["rows_peak"],
        "relational.vector.fallbacks": total["vector_fallbacks"],
        "mucalc.iterations": total["iterations"],
        "mucalc.resets": total["resets"],
        "mucalc.peak_extension": total["peak_extension"],
        "mucalc.memo_hit_rate": _ratio(total["memo_hits"],
                                       total["memo_lookups"]),
        "mucalc.onthefly.states_checked": total["states_checked"],
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def set_up(workload: str, passes, tags: Tuple[str, ...], speed,
           tracer=None):
    """Build every job instance ``SETUP_REPEATS`` times (the last build is
    kept; parsing is traced in the last one) and warm up, probing the
    host's speed before each build and after the warm-up.

    Returns ``(instances, (wall, scaled))``: the set-up time is the time
    from process start to the end of the imports, plus the median build,
    plus the warm-up; scaled by the probes taken during set-up."""
    imports_done = time.perf_counter()
    builds = []
    for repeat in range(SETUP_REPEATS):
        speed.probe()
        if tracer is not None and repeat == SETUP_REPEATS - 1:
            tracer.job = "setup"
        started = time.perf_counter()
        instances = build_instances(passes, tags)
        builds.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.job = None
    started = time.perf_counter()
    warm_up(workload)
    warm_s = time.perf_counter() - started
    gc.collect()
    gc.freeze()
    speed.probe()
    setup_s = (imports_done - PROCESS_START) + statistics.median(builds) \
        + warm_s
    factor = speed.factor(imports_done, time.perf_counter())
    return instances, (setup_s, setup_s * factor)


def execute(plan, trace: bool = False) -> Dict[str, Any]:
    """Run a plan: end-to-end metrics, or with ``trace`` the per-layer ones.
    Returns the result object and the details written to the output."""
    tracer = None
    if trace:
        from perfbench.spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return _execute(plan, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _execute(plan, tracer) -> Dict[str, Any]:
    from perfbench.probe import Speed

    speed = Speed()
    passes, tags = plan.passes, ("",)
    if tracer is not None:
        # Half the passes, each run untraced and traced.
        passes, tags = passes[:(len(passes) + 1) // 2], ("u", "t")
    previous = signal.signal(signal.SIGALRM, _on_timer)
    try:
        instances, setup = set_up(plan.workload, passes, tags, speed,
                                  tracer)
        untraced: List[Outcome] = []
        traced: List[Outcome] = []
        for batch in _ordered(instances, tracer):
            for item in batch:
                speed.maybe_probe()
                if item.traced:
                    tracer.job = item.job_id
                    traced.append(run_job(item))
                    tracer.job = None
                else:
                    untraced.append(run_job(item))
        speed.probe()
        outcomes = untraced + traced
        for outcome in outcomes:
            outcome.scaled = outcome.seconds * speed.factor(
                outcome.started, outcome.started + outcome.seconds)
        # Before the reference processes: only the program's workers count.
        worker_rss = _rss_mb(resource.RUSAGE_CHILDREN)
        check_against_reference(outcomes)
    finally:
        signal.signal(signal.SIGALRM, previous)
    failed = [o for o in outcomes if o.failures]
    result: Dict[str, Any] = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
    }
    details: Dict[str, Any] = {"failures": {
        o.job_id: o.failures for o in failed}}
    if tracer is None:
        metrics = end_to_end(outcomes, setup, worker_rss)
        details["wall"] = metrics.pop("_wall")
        details["tail"] = metrics.pop("_tail")
        details["worker_peak_rss_mb"] = metrics.pop("_worker_peak_rss_mb")
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = per_layer(tracer, traced, untraced)
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in PER_LAYER_UNITS.items()}
        details["tracer"] = tracer
    details["probe_ms"] = speed.probe_ms()
    details["jobs"] = [{"id": o.job_id, "seconds": o.seconds,
                        "scaled": o.scaled,
                        "holds": o.holds, "states": o.states,
                        "edges": o.edges, "error": o.error}
                       for o in outcomes]
    return {"result": result, "details": details}


def _ordered(instances, tracer):
    """Passes in run order; traced runs alternate which tag goes first."""
    if tracer is None:
        return instances
    ordered = []
    for number in range(0, len(instances), 2):
        plain, traced = instances[number], instances[number + 1]
        ordered += [plain, traced] if (number // 2) % 2 == 0 \
            else [traced, plain]
    return ordered


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def provenance(plan) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plan.passes),
        "jobs": len(plan.jobs()),
        "job_list_sha256": plan.digest(),
    }


def _print_metrics(result, details, units) -> None:
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        note = ""
        if name == "verify_tail_ms":
            tail_info = details["tail"]
            note = (f"  (p{tail_info['percentile']:.1f} of "
                    f"{tail_info['samples']} samples, "
                    f"{tail_info['beyond']} beyond)")
        elif name == "peak_rss_mb":
            note = (f"  (largest worker or other child process "
                    f"{details['worker_peak_rss_mb']:.1f} MB)")
        elif name == "unattributed_share":
            note = "  (verify wall time outside every child span)"
        elif name == "trace.overhead_share":
            metrics = result["metrics"]
            note = (f"  (traced "
                    f"{metrics['trace.traced_verdicts_per_s']['value']:.3f}"
                    f" vs untraced "
                    f"{metrics['trace.untraced_verdicts_per_s']['value']:.3f}"
                    f" verdicts/s)")
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':40s} {share:14.6g} ratio  "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
        from perfbench.jobs import WORKLOADS, plan as make_plan
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        os.makedirs(OUT, exist_ok=True)
        plan = make_plan(args.workload, args.seed, args.seconds)
        origin = provenance(plan)
        print("perfbench " + " ".join(f"{k}={v}" for k, v in origin.items()),
              flush=True)
        run = execute(plan, trace=bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(OUT, f"ckpt-{os.getpid()}"),
                      ignore_errors=True)
    result, details = run["result"], run["details"]
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = details.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as handle:
        json.dump({"provenance": origin, "result": result, **details},
                  handle, indent=1, default=str)
    for job_id, failures in details["failures"].items():
        print(f"FAILED {job_id}: {'; '.join(failures)}", file=sys.stderr)
    _print_metrics(result, details,
                   PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
