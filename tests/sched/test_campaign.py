"""The campaign DAG runner: deps, priorities, failure, resume, cancel."""

import json
import os

import pytest

from repro.sched.campaign import (
    Campaign,
    CampaignError,
    TaskSpec,
    campaign_status,
    run_campaign,
)
from repro.sched.store import ResultStore


# Module-level task functions (pool tasks must pickle).

def emit(value, marker_dir=None, name=""):
    """Return a small outcome; optionally touch a marker file per execution."""
    if marker_dir is not None:
        count_file = os.path.join(marker_dir, f"{name}.count")
        count = int(open(count_file).read()) if os.path.exists(count_file) else 0
        with open(count_file, "w") as fh:
            fh.write(str(count + 1))
    return {"value": value, "correct": True}


def boom():
    raise ValueError("task exploded")


def flaky(marker_dir, name="flaky"):
    """Fail on the first attempt, succeed afterwards (cross-process state)."""
    count_file = os.path.join(marker_dir, f"{name}.count")
    count = int(open(count_file).read()) if os.path.exists(count_file) else 0
    with open(count_file, "w") as fh:
        fh.write(str(count + 1))
    if count == 0:
        raise RuntimeError("first attempt fails")
    return {"value": count, "correct": True}


def total(results):
    return {"total": sum(r["value"] for r in results.values()), "correct": True}


def run_count(marker_dir, name):
    count_file = os.path.join(marker_dir, f"{name}.count")
    return int(open(count_file).read()) if os.path.exists(count_file) else 0


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            Campaign("c", [TaskSpec("a", emit, {"value": 1}),
                           TaskSpec("a", emit, {"value": 2})])

    def test_unknown_dep_rejected(self):
        with pytest.raises(CampaignError, match="unknown task"):
            Campaign("c", [TaskSpec("a", emit, {"value": 1}, deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(CampaignError, match="cycle"):
            Campaign("c", [
                TaskSpec("a", emit, {"value": 1}, deps=("b",)),
                TaskSpec("b", emit, {"value": 2}, deps=("a",)),
            ])

    def test_task_lookup(self):
        camp = Campaign("c", [TaskSpec("a", emit, {"value": 1})])
        assert camp.task("a").kwargs == {"value": 1}
        with pytest.raises(KeyError):
            camp.task("ghost")


class TestExecution:
    def test_deps_gate_and_inline_sees_results(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 2}),
            TaskSpec("b", emit, {"value": 3}),
            TaskSpec("sum", total, deps=("a", "b"), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        assert report.counts == {"done": 3}
        spans = {s.name: s for s in report.spans}
        assert spans["sum"].start >= max(spans["a"].end, spans["b"].end) - 1e-6

    def test_priorities_order_the_frontier(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("low", emit, {"value": 1}, priority=0),
            TaskSpec("high", emit, {"value": 2}, priority=10),
        ])
        store = ResultStore(str(tmp_path))
        lines = []
        report = run_campaign(camp, store, jobs=1, progress=lines.append)
        assert report.ok
        # Lines look like "[1/2] done high (0.01s, worker 1)".
        done_order = [l.split()[2] for l in lines if l.split()[1] == "done"]
        assert done_order.index("high") < done_order.index("low")

    def test_failure_skips_transitive_dependents(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("ok", emit, {"value": 1}),
            TaskSpec("bad", boom),
            TaskSpec("child", emit, {"value": 2}, deps=("bad",)),
            TaskSpec("grandchild", total, deps=("child",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert not report.ok
        spans = {s.name: s for s in report.spans}
        assert spans["ok"].status == "done"
        assert spans["bad"].status == "failed"
        assert "ValueError: task exploded" in spans["bad"].error
        assert spans["child"].status == "skipped"
        assert "blocked by bad" in spans["child"].error
        assert spans["grandchild"].status == "skipped"
        rendered = report.render()
        assert "failed: bad" in rendered
        assert "skipped: grandchild" in rendered

    def test_retries_recover_a_flaky_task(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("flaky", flaky, {"marker_dir": str(tmp_path)}, retries=2),
        ])
        store = ResultStore(str(tmp_path / "store"))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        span = report.spans[0]
        assert span.attempts == 2
        assert run_count(str(tmp_path), "flaky") == 2

    def test_retries_exhausted_fails(self, tmp_path):
        camp = Campaign("c", [TaskSpec("bad", boom, retries=1)])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.spans[0].status == "failed"
        assert report.spans[0].attempts == 2

    def test_campaign_over_the_default_job_quota(self, tmp_path):
        # 4,097 tasks: one more than a service tenant's default
        # max_tasks_per_job, and enough that a completion scanning every
        # remaining task's deps would be quadratic.
        camp = Campaign("big", [
            TaskSpec(f"t{i}", total, inline=True) for i in range(4097)
        ])
        report = run_campaign(camp, ResultStore(str(tmp_path)), jobs=1)
        assert report.ok
        assert report.counts == {"done": 4097}

    def test_inline_failure_marks_failed(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("bad", lambda results: 1 / 0, inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.spans[0].status == "failed"
        assert "ZeroDivisionError" in report.spans[0].error


class TestResume:
    def test_second_run_serves_from_store_without_executing(self, tmp_path):
        marker = str(tmp_path / "markers")
        os.makedirs(marker)
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1, "marker_dir": marker, "name": "a"}),
            TaskSpec("b", emit, {"value": 2, "marker_dir": marker, "name": "b"}),
            TaskSpec("sum", total, deps=("a", "b"), inline=True),
        ])
        store = ResultStore(str(tmp_path / "store"))
        first = run_campaign(camp, store, jobs=1)
        assert first.ok and first.counts == {"done": 3}
        second = run_campaign(camp, store, jobs=1)
        assert second.ok
        # Point tasks cached; the inline aggregation is recomputed.
        assert second.counts == {"cached": 2, "done": 1}
        assert run_count(marker, "a") == 1  # never re-executed
        assert run_count(marker, "b") == 1

    def test_partial_store_runs_only_missing_tasks(self, tmp_path):
        marker = str(tmp_path / "markers")
        os.makedirs(marker)
        tasks = [
            TaskSpec(n, emit, {"value": i, "marker_dir": marker, "name": n})
            for i, n in enumerate(("a", "b", "c"))
        ]
        camp = Campaign("c", tasks)
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(camp, store, jobs=1)
        # Simulate a killed campaign: drop one outcome from the store.
        dropped = store.key_for(emit, tasks[1].kwargs)
        os.unlink(store.path_for(dropped))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        assert report.counts == {"cached": 2, "done": 1}
        assert run_count(marker, "a") == 1
        assert run_count(marker, "b") == 2  # only the dropped task re-ran
        assert run_count(marker, "c") == 1

    def test_driver_sweep_and_campaign_share_one_cache(self, tmp_path):
        # A point the t1a driver swept into the store is a cached task of
        # the table1 campaign: both key it by (run_t1a_point, params).
        from benchmarks.bench_table1_qsm_time import run_t1a_point
        from repro.analysis.parallel_sweep import parallel_sweep
        from repro.sched.campaign import CampaignExecution
        from repro.sched.campaigns import table1_campaign

        store = ResultStore(str(tmp_path))
        grid = {"problem": ["OR"], "variant": ["deterministic"], "n": [64]}
        [point] = parallel_sweep(grid, run_t1a_point, jobs=1, store=store)
        ex = CampaignExecution(table1_campaign(ns=[64]), store)
        assert ex.counts == {"cached": 1}  # the resume pass served it
        span = ex.spans["t1a/OR/deterministic/n=64"]
        assert span.status == "cached"
        assert ex.outcomes[span.name]["measured"] == point.measured

    def test_campaign_status_tracks_the_store(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("sum", total, deps=("a",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        assert campaign_status(camp, store) == [("a", "pending"), ("sum", "inline")]
        run_campaign(camp, store, jobs=1)
        assert campaign_status(camp, store) == [("a", "done"), ("sum", "inline")]

    def test_keys_are_computed_once_per_store_version(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("sum", total, deps=("a",), inline=True),
        ])
        stores = [ResultStore(str(tmp_path / name), version=version)
                  for name, version in (("x", "1"), ("y", "1"), ("z", "2"))]
        maps = [camp.keys_for(store) for store in stores]
        assert maps[0] is maps[1]
        assert maps[2] is not maps[0] and maps[2]["a"] != maps[0]["a"]
        for store, keys in zip(stores, maps):
            assert dict(keys) == {
                t.name: store.key_for(t.fn, t.kwargs) for t in camp.tasks
            }
        with pytest.raises(TypeError):
            maps[0]["a"] = "0" * 64


class TestCancel:
    @pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
    def test_keyboard_interrupt_cancels_cleanly(self, tmp_path, metrics):
        metrics_path = str(tmp_path / "metrics.jsonl") if metrics else None
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("b", emit, {"value": 2}, deps=("a",)),
            TaskSpec("c", emit, {"value": 3}, deps=("b",)),
        ])
        store = ResultStore(str(tmp_path))

        calls = []

        def interrupt_after_first(line):
            calls.append(line)
            if " done " in f" {line} ":
                raise KeyboardInterrupt

        report = run_campaign(camp, store, jobs=1, progress=interrupt_after_first,
                              metrics_path=metrics_path)
        assert report.cancelled
        assert not report.ok
        statuses = {s.name: s.status for s in report.spans}
        assert statuses["a"] == "done"
        assert "pending" in (statuses["b"], statuses["c"])
        if metrics:
            from repro.obs.snapshot import live_status_line, read_snapshots

            final = read_snapshots(metrics_path)[-1]
            assert final.final
            assert "frontier 0  in-flight 0" in live_status_line(final)
        # What completed before the interrupt is resumable from the store.
        resumed = run_campaign(camp, store, jobs=1)
        assert resumed.ok
        assert resumed.counts["cached"] >= 1

    def test_exception_exit_still_writes_final_snapshot(self, tmp_path):
        """Regression: a callback raising out of the event loop used to
        skip ``SnapshotWriter.close()``, losing the final snapshot and
        leaving the metrics registry enabled for the next caller."""
        from repro.obs.metrics import REGISTRY
        from repro.obs.snapshot import read_snapshots

        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("b", emit, {"value": 2}, deps=("a",)),
        ])
        store = ResultStore(str(tmp_path / "store"))
        metrics = tmp_path / "metrics.jsonl"

        def explode(line):
            raise RuntimeError("observer crashed")

        was_enabled = REGISTRY.enabled
        with pytest.raises(RuntimeError, match="observer crashed"):
            run_campaign(
                camp, store, jobs=1, progress=explode,
                metrics_path=str(metrics), metrics_interval=60.0,
            )
        snapshots = read_snapshots(str(metrics))
        assert snapshots, "final snapshot lost on the exception exit path"
        assert snapshots[-1].final
        assert REGISTRY.enabled == was_enabled


class TestTraceExport:
    def test_trace_file_has_scheduler_lane_events(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("bad", boom),
            TaskSpec("sum", total, deps=("a",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        trace = tmp_path / "trace.json"
        run_campaign(camp, store, jobs=1, trace_path=str(trace))
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)
        assert any(e["ph"] == "X" and e["name"] == "a" for e in events)
        assert any(e["ph"] == "i" and "bad" in e["name"] for e in events)
        from repro.obs.exporters import SCHEDULER_PID

        assert all(e["pid"] == SCHEDULER_PID for e in events)

    def test_traced_run_spans_share_one_trace_id(self, tmp_path):
        # Regression: the standalone run_campaign dispatch path used to
        # read execution.spans[name] (only populated at completion) for
        # the attempts attribute and crashed on every traced dispatch.
        from repro.obs import tracing

        sink = str(tmp_path / "spans.jsonl")
        tracing.TRACER.reset()
        tracing.TRACER.configure(enabled=True, path=sink)
        try:
            camp = Campaign("traced", [
                TaskSpec("a", emit, {"value": 1}),
                TaskSpec("flaky", flaky,
                         {"marker_dir": str(tmp_path)}, retries=1),
            ])
            store = ResultStore(str(tmp_path / "store"))
            report = run_campaign(camp, store, jobs=2)
        finally:
            tracing.TRACER.configure(enabled=False)
            tracing.TRACER.reset()
        assert report.ok
        assert report.trace_id
        spans = tracing.read_trace_file(sink)
        assert {s["trace_id"] for s in spans} == {report.trace_id}
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span["kind"], []).append(span)
        [job] = by_kind["job"]
        tasks = {s["name"]: s for s in by_kind["task"]}
        assert set(tasks) == {"a", "flaky"}
        assert all(s["parent_span_id"] == job["span_id"] for s in tasks.values())
        # The retried task keeps ONE span across both deliveries.
        assert tasks["flaky"]["attrs"]["attempts"] == 2
        assert tasks["flaky"]["status"] == "ok"
        exec_parents = {s["parent_span_id"] for s in by_kind["exec"]}
        assert exec_parents <= {s["span_id"] for s in tasks.values()}

    def test_shared_pool_is_not_shut_down(self, tmp_path):
        from repro.sched.pool import WorkerPool

        camp = Campaign("c", [TaskSpec("a", emit, {"value": 1})])
        store = ResultStore(str(tmp_path))
        with WorkerPool(jobs=1) as pool:
            report = run_campaign(camp, store, pool=pool)
            assert report.ok
            # The pool survives the campaign and still accepts work.
            pool.submit("after", emit, {"value": 9})
            got = []
            while not got:
                got = pool.events(wait=0.5)
            assert got[0].ok
