"""The benchmark's own tests: seeded job lists, the oracle, and coverage of
the per-layer metrics named in ``BENCHMARK.json``.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import jobs, run  # noqa: E402


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    """The benchmark runs only without ``REPRO_*`` switches; so do its
    tests, whatever the suite around them sets."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _mini_plan(workload, names, seed=3):
    """A one-pass plan of the named jobs from the workload's real list."""
    full = jobs.plan(workload, seed, jobs.PASS_SECONDS[workload])
    picked = [job for job in full.passes[0] if job.name in names]
    assert {job.name for job in picked} == set(names)
    return jobs.Plan(workload, seed, [picked])


class TestJobLists:
    @pytest.mark.parametrize("workload", jobs.WORKLOADS)
    def test_same_seed_same_job_list(self, workload):
        first = jobs.plan(workload, 5, 20)
        second = jobs.plan(workload, 5, 20)
        assert first.digest() == second.digest()
        assert [job.name for job in first.jobs()] \
            == [job.name for job in second.jobs()]

    def test_different_seed_changes_random_jobs(self):
        first = jobs.small_specs_jobs(1, count=20)
        second = jobs.small_specs_jobs(2, count=20)
        assert [job.spec for job in first] != [job.spec for job in second]
        assert jobs.plan("small-specs", 1, 20).digest() \
            != jobs.plan("small-specs", 2, 20).digest()

    def test_named_workload_mix_does_not_depend_on_seed(self):
        for workload in ("det-frontier", "nondet-props", "scale-out"):
            mixes = {tuple(sorted(job.name for job in
                                  jobs.plan(workload, seed, 20).jobs()))
                     for seed in (1, 2, 3)}
            assert len(mixes) == 1

    def test_pass_count_is_fixed_by_seconds(self):
        assert len(jobs.plan("det-frontier", 1, 15).passes) == 4
        assert len(jobs.plan("det-frontier", 1, 3).passes) == 1
        assert len(jobs.plan("small-specs", 1, 15).passes) == 2

    def test_analytic_counts(self):
        assert jobs.conveyor_counts(2) == (343, 1029)
        assert jobs.chain_counts(3) == (23, 37)
        assert jobs.blowup_counts(3) == (16, 30)
        assert [jobs.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


class TestOracle:
    def test_flipped_expected_verdict_counts_as_failed(self):
        plan = _mini_plan("det-frontier", ["blowup[5]/EF", "blowup[5]/AG"])
        flipped = [dataclasses.replace(job, expect=dataclasses.replace(
            job.expect, holds=not job.expect.holds))
            if job.name == "blowup[5]/EF" else job
            for job in plan.passes[0]]
        result = run.execute(jobs.Plan(plan.workload, plan.seed,
                                       [flipped]))["result"]
        assert result["attempted"] == 2
        assert result["failed"] == 1
        assert not result["correct"]

    def test_unflipped_plan_passes(self):
        plan = _mini_plan("det-frontier", ["blowup[5]/EF", "blowup[5]/AG"])
        assert run.execute(plan)["result"]["failed"] == 0

    def test_reference_process_agrees_on_random_jobs(self):
        picked = jobs.small_specs_jobs(4, count=6)
        result = run.execute(jobs.Plan("small-specs", 4, [picked]))["result"]
        assert result == {**result, "correct": True, "failed": 0}

    def test_flipped_reference_outcome_counts_as_failed(self):
        job = jobs.small_specs_jobs(4, count=1)[0]
        outcome = run.Outcome("x", job, holds=True, states=3, edges=4)
        run.compare(outcome, {"holds": False, "states": 3, "edges": 4})
        assert outcome.failures

    def test_unexpected_typed_error_counts_as_failed(self):
        job = jobs.small_specs_jobs(4, count=1)[0]
        outcome = run.Outcome("x", job, error="UndecidableFragment")
        run.compare(outcome, {"holds": True, "states": 3, "edges": 4})
        assert outcome.failures


_TRACE_PICKS = {
    "det-frontier": ["blowup[5]/EF", "lattice[6]/AG"],
    "nondet-props": ["students/graduation", "mixed/EF"],
    "small-specs": None,
    "scale-out": ["conveyor[1]/EF-0+scale", "conveyor[1]/AG-2+scale"],
}


class TestTracedRun:
    @pytest.mark.parametrize("workload", jobs.WORKLOADS)
    def test_every_per_layer_metric_reported(self, workload):
        names = _TRACE_PICKS[workload]
        if names is None:
            plan = jobs.Plan(workload, 3, [jobs.small_specs_jobs(3, 8)])
        else:
            plan = _mini_plan(workload, names)
        result = run.execute(plan, trace=True)["result"]
        assert result["failed"] == 0
        wanted = {metric["name"]
                  for metric in _benchmark_json()["per_layer"]}
        assert set(result["metrics"]) == wanted
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
        assert values["semantics.busy_s"] > 0
        assert values["analysis.calls"] > 0
        assert values["fol.parse_s"] > 0
        assert 0 <= values["unattributed_share"] < 1
        if workload == "det-frontier":
            assert values["relational.calls"] > 0
        if workload == "nondet-props":
            assert values["reductions.busy_s"] > 0
            assert values["mucalc.check_s"] > 0
        if workload == "scale-out":
            assert values["engine.store.bytes_written"] > 0
            assert values["engine.parallel.ipc_bytes"] > 0
            assert values["engine.checkpoint.writes"] > 0

    def test_tracer_restores_every_patch(self):
        from perfbench.spans import Tracer
        from repro import pipeline
        from repro.relational.instance import Instance

        before = (pipeline.verify, pipeline.rcycl,
                  Instance.__dict__["service_calls"])
        tracer = Tracer()
        tracer.install()
        assert pipeline.rcycl is not before[1]
        tracer.uninstall()
        assert (pipeline.verify, pipeline.rcycl,
                Instance.__dict__["service_calls"]) == before


class TestContract:
    def test_metric_names_match_benchmark_json(self):
        spec = _benchmark_json()
        assert [m["name"] for m in spec["end_to_end"]] \
            == list(run.END_TO_END_UNITS)
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
            == run.PER_LAYER_UNITS
        assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)

    def test_refuses_ambient_repro_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with pytest.raises(run.BenchError, match="REPRO_WORKERS"):
            run.load_program()

    def test_tail_has_ten_samples_beyond(self):
        value, percentile, beyond = run.tail(
            [float(i) for i in range(100)])
        assert (value, beyond) == (89.0, 10)
        assert percentile == 90.0
        assert run.tail([1.0, 2.0, 3.0])[2] == 2

    def test_job_scaled_by_the_probes_around_it(self):
        from perfbench.probe import REFERENCE_MS, Speed

        speed = Speed()
        reference = REFERENCE_MS / 1000.0
        speed.samples = [(1.0, reference), (2.0, 2 * reference),
                         (3.0, 4 * reference)]
        # A job between the second and third probe ran at a third of the
        # reference speed (mean probe time three times the reference).
        assert speed.factor(2.1, 2.9) == pytest.approx(1 / 3)
        # Set-up spans probes: those inside count with those around it.
        assert speed.factor(0.5, 2.5) == pytest.approx(3 / 7)
        # After the last probe only the last one is near.
        assert speed.factor(3.5, 4.0) == pytest.approx(1 / 4)
