"""The bench-regression watchdog: flattening, tolerances, verdicts.

The acceptance-critical pair: a baseline compared against itself passes,
and a point perturbed beyond tolerance regresses (and makes ``python -m
repro bench check`` exit nonzero).
"""

import json

import pytest

from repro.obs.regress import (
    DEFAULT_TOLERANCE,
    BenchDelta,
    RegressionReport,
    compare_bench,
    flatten_metrics,
    load_bench,
    metric_direction,
    store_outcome_metrics,
)


SWEEP_CACHE = {
    # Sweep-cache schema: point key -> outcome dict with config echo.
    "x=1/k=2": {"measured": 10.0, "correct": True, "bound": 12.0,
                "n": 64, "detail": {"ignored": 1}},
    "x=2/k=2": {"measured": 40.0, "correct": True, "bound": 48.0,
                "n": 128, "detail": {"ignored": 2}},
}

SCHED_SUMMARY = {
    # BENCH_sched.json-style summary schema.
    "schema": "bench.sched/1",
    "jobs": 4,
    "correct": True,
    "timings": {"serial": 0.05, "pool": 0.08},
    "throughput": {"serial": 600.0, "pool": 440.0},
    "speedup_pool_vs_process": 2.9,
}


class TestFlatten:
    def test_sweep_cache_keeps_only_measurements(self):
        flat = flatten_metrics(SWEEP_CACHE)
        assert flat["x=1/k=2.measured"] == 10.0
        assert flat["x=1/k=2.correct"] is True
        assert flat["x=1/k=2.bound"] == 12.0
        assert not any("detail" in k or ".n" in k for k in flat)

    def test_summary_schema_keeps_nested_numbers(self):
        flat = flatten_metrics(SCHED_SUMMARY)
        assert flat["timings.serial"] == 0.05
        assert flat["throughput.pool"] == 440.0
        assert flat["correct"] is True
        assert "jobs" not in flat and "schema" not in flat

    def test_numeric_list_collapses_to_median(self):
        flat = flatten_metrics({"timings": {"pool": [3.0, 1.0, 2.0]}})
        assert flat["timings.pool"] == 2.0

    def test_booleans_preserved_not_coerced(self):
        flat = flatten_metrics({"correct": False})
        assert flat["correct"] is False


class TestDirection:
    def test_throughput_and_speedup_higher(self):
        assert metric_direction("throughput.pool") == "higher"
        assert metric_direction("speedup_pool_vs_process") == "higher"

    def test_costs_and_timings_lower(self):
        assert metric_direction("x=1.measured") == "lower"
        assert metric_direction("timings.serial") == "lower"
        assert metric_direction("x=1.bound") == "lower"

    def test_unknown_exact(self):
        assert metric_direction("trend") == "exact"


class TestCompare:
    def test_baseline_vs_itself_passes(self):
        report = compare_bench(SWEEP_CACHE, SWEEP_CACHE)
        assert report.ok
        assert all(d.status in ("ok", "info") for d in report.deltas)

    def test_perturbed_point_regresses(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=2/k=2"]["measured"] = 80.0  # doubled simulated cost
        report = compare_bench(SWEEP_CACHE, current)
        assert not report.ok
        bad = {d.metric for d in report.regressions}
        assert bad == {"x=2/k=2.measured"}

    def test_within_tolerance_passes(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=2/k=2"]["measured"] *= 1 + DEFAULT_TOLERANCE / 2
        assert compare_bench(SWEEP_CACHE, current).ok

    def test_improvement_is_not_a_regression(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=2/k=2"]["measured"] = 20.0
        report = compare_bench(SWEEP_CACHE, current)
        assert report.ok
        statuses = {d.metric: d.status for d in report.deltas}
        assert statuses["x=2/k=2.measured"] == "improved"

    def test_correctness_flip_true_to_false_fails(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=1/k=2"]["correct"] = False
        report = compare_bench(SWEEP_CACHE, current)
        assert [d.metric for d in report.regressions] == ["x=1/k=2.correct"]

    def test_correctness_false_to_true_passes(self):
        base = {"p": {"measured": 1.0, "correct": False}}
        cur = {"p": {"measured": 1.0, "correct": True}}
        assert compare_bench(base, cur).ok

    def test_missing_baseline_point_fails(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        del current["x=2/k=2"]
        report = compare_bench(SWEEP_CACHE, current)
        assert not report.ok
        assert all(d.status == "missing" for d in report.regressions)

    def test_new_current_point_is_informational(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=3/k=2"] = {"measured": 5.0, "correct": True}
        report = compare_bench(SWEEP_CACHE, current)
        assert report.ok
        assert report.counts.get("new") == 2  # measured + correct

    def test_wall_metrics_never_gate_by_default(self):
        current = json.loads(json.dumps(SCHED_SUMMARY))
        current["timings"]["pool"] = 100.0  # absurd wall time
        current["throughput"]["pool"] = 0.1
        report = compare_bench(SCHED_SUMMARY, current)
        assert report.ok
        statuses = {d.metric: d.status for d in report.deltas}
        assert statuses["timings.pool"] == "info"
        assert statuses["throughput.pool"] == "info"

    def test_strict_wall_gates_them(self):
        current = json.loads(json.dumps(SCHED_SUMMARY))
        current["timings"]["pool"] = 100.0
        report = compare_bench(SCHED_SUMMARY, current, strict_wall=True)
        assert not report.ok

    def test_speedup_gates_with_loose_tolerance(self):
        current = json.loads(json.dumps(SCHED_SUMMARY))
        current["speedup_pool_vs_process"] = 0.5  # below the 0.6 rel floor
        report = compare_bench(SCHED_SUMMARY, current)
        assert not report.ok
        assert [d.metric for d in report.regressions] == [
            "speedup_pool_vs_process"
        ]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_bench({}, {}, tolerance=-1)


CROSS_MODEL = {
    # BENCH_cross_model.json-style payload: one cells block per problem,
    # a cell per (model, n).
    "schema": "cross_model/1",
    "models": ["QSM", "MPC", "PEM"],
    "cells": {
        "Parity": {
            "model=QSM,n=64": {"measured": 24.0, "bound": 12.0, "correct": True},
            "model=MPC,n=64": {"measured": 3.0, "bound": 3.0, "correct": True},
        },
        "OR": {
            "model=PEM,n=64": {"measured": 9.0, "bound": 1.0, "correct": True},
        },
    },
}


class TestCrossModelSchema:
    def test_flatten_keeps_cells_drops_config(self):
        flat = flatten_metrics(CROSS_MODEL)
        assert flat["cells.Parity.model=MPC,n=64.measured"] == 3.0
        assert flat["cells.OR.model=PEM,n=64.bound"] == 1.0
        assert flat["cells.OR.model=PEM,n=64.correct"] is True
        # The schema marker and the model-name list are config, not metrics.
        assert "schema" not in flat
        assert not any(k.startswith("models") for k in flat)

    def test_baseline_vs_itself_passes(self):
        assert compare_bench(CROSS_MODEL, CROSS_MODEL).ok

    def test_perturbed_cell_gates_at_tight_tolerance(self):
        # Simulated costs are deterministic: a >1% drift is a real change.
        current = json.loads(json.dumps(CROSS_MODEL))
        current["cells"]["Parity"]["model=MPC,n=64"]["measured"] = 4.0
        report = compare_bench(CROSS_MODEL, current)
        assert not report.ok
        assert {d.metric for d in report.regressions} == {
            "cells.Parity.model=MPC,n=64.measured"
        }

    def test_correct_flip_fails(self):
        current = json.loads(json.dumps(CROSS_MODEL))
        current["cells"]["OR"]["model=PEM,n=64"]["correct"] = False
        report = compare_bench(CROSS_MODEL, current)
        assert [d.metric for d in report.regressions] == [
            "cells.OR.model=PEM,n=64.correct"
        ]

    def test_collector_rejects_zero_samples(self):
        from repro.obs.regress import collect_cross_model_current

        with pytest.raises(ValueError):
            collect_cross_model_current(samples=0)


class TestReport:
    def test_markdown_has_verdict_and_rows(self):
        current = json.loads(json.dumps(SWEEP_CACHE))
        current["x=2/k=2"]["measured"] = 80.0
        text = compare_bench(SWEEP_CACHE, current).render_markdown()
        assert text.startswith("# Bench check: REGRESSION")
        assert "| `x=2/k=2.measured` |" in text
        # Regressions sort first.
        rows = [l for l in text.splitlines() if l.startswith("| `")]
        assert "regression" in rows[0]

    def test_markdown_pass_verdict(self):
        text = compare_bench(SWEEP_CACHE, SWEEP_CACHE).render_markdown()
        assert text.startswith("# Bench check: PASS")

    def test_rel_change(self):
        d = BenchDelta("m", 10.0, 12.0, "lower", 0.01, "regression")
        assert d.rel_change == pytest.approx(0.2)
        assert BenchDelta("m", None, 1.0, "-", 0.0, "new").rel_change is None


class TestSources:
    def test_load_bench_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(SWEEP_CACHE))
        assert load_bench(str(path)) == SWEEP_CACHE

    def test_load_bench_rejects_non_object(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_bench(str(path))

    def test_store_outcome_metrics(self, tmp_path):
        from repro.sched.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        key_a = store.key_for("demo:a", {"n": 1})
        key_b = store.key_for("demo:b", {"n": 2})
        store.put(key_a, {"measured": 1.0, "correct": True})
        store.put(key_b, {"measured": 2.0, "correct": True})
        payload = store_outcome_metrics(store)
        flat = flatten_metrics(payload)
        assert flat[f"{key_a}.measured"] == 1.0
        assert flat[f"{key_b}.correct"] is True
