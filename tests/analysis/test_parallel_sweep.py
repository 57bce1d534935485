"""The worker-pool sweep runner: drop-in equality, store-backed resume,
seeding, and fault tolerance (crashes, hangs, torn store entries)."""

import math
import os
import time
from functools import partial

import pytest

from repro.analysis.parallel_sweep import (
    JOBS_ENV,
    SweepPointError,
    default_jobs,
    derive_point_seed,
    parallel_sweep,
)
from repro.analysis.sweep import sweep
from repro.sched.store import ResultStore

GRID = {"n": [4, 8], "g": [1.0, 2.0]}


def run_point(n, g):
    return {"measured": n * g, "correct": True, "bound": float(n), "tag": f"{n}:{g}"}


def run_seeded(n, g, seed=None):
    return {"measured": float(n), "correct": True, "seed_used": seed}


def run_forbidden(n, g):
    raise AssertionError("point should have been served from the store")


CALLS = []


def run_counting(n, g):
    CALLS.append((n, g))
    return {"measured": float(n * g), "correct": True}


class TestDropIn:
    def test_parallel_matches_serial(self):
        serial = sweep(GRID, run_point)
        parallel = parallel_sweep(GRID, run_point, jobs=2)
        assert parallel == serial

    def test_jobs_one_needs_no_pickling(self):
        grid = {"n": [2, 3]}
        closure = lambda n: {"measured": float(n), "correct": True}  # noqa: E731
        points = parallel_sweep(grid, closure, jobs=1)
        assert [p.measured for p in points] == [2.0, 3.0]


class TestCache:
    def test_completed_points_are_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = parallel_sweep(GRID, run_point, jobs=1, store=store,
                               store_scope="grid")
        assert store.stats().entries == 4
        # Every point is stored, so a rerun never calls run at all.
        second = parallel_sweep(GRID, run_forbidden, jobs=1, store=store,
                                store_scope="grid")
        assert second == first

    def test_partial_cache_runs_only_missing_points(self, tmp_path):
        store = ResultStore(str(tmp_path))
        parallel_sweep({"n": [4], "g": [1.0]}, run_counting, jobs=1, store=store)
        CALLS.clear()
        points = parallel_sweep(GRID, run_counting, jobs=1, store=store)
        assert len(points) == 4
        assert sorted(CALLS) == [(4, 2.0), (8, 1.0), (8, 2.0)]  # (4, 1.0) stored


class TestSeeding:
    def test_seed_depends_only_on_point(self):
        a = derive_point_seed(0, {"n": 4, "g": 2.0})
        b = derive_point_seed(0, {"g": 2.0, "n": 4})  # key order is irrelevant
        assert a == b
        assert derive_point_seed(0, {"n": 8, "g": 2.0}) != a
        assert derive_point_seed(1, {"n": 4, "g": 2.0}) != a
        assert 0 <= a < 2**63

    def test_seed_arg_injects_derived_seeds(self):
        points = parallel_sweep(GRID, run_seeded, jobs=1, seed_arg="seed", base_seed=5)
        for p in points:
            assert p.extra["seed_used"] == derive_point_seed(5, p.params)

    def test_parallel_seeding_matches_serial(self):
        serial = parallel_sweep(GRID, run_seeded, jobs=1, seed_arg="seed")
        parallel = parallel_sweep(GRID, run_seeded, jobs=2, seed_arg="seed")
        assert parallel == serial


class TestJobs:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3

    def test_bad_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert default_jobs() >= 1


# --- fault-tolerance helpers (module-level so worker processes can run them)


def flaky_point(n, scratch=""):
    """Crash the whole worker process on the first call for each ``n``."""
    marker = os.path.join(scratch, f"crashed-{n}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(17)
    return {"measured": float(n), "correct": True}


def hanging_point(n, scratch=""):
    """Hang (far past any test timeout) on the first call for each ``n``."""
    marker = os.path.join(scratch, f"hung-{n}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(600.0)
    return {"measured": float(n), "correct": True}


def broken_point(n):
    if n == 3:
        raise ValueError("n=3 is cursed")
    return {"measured": float(n), "correct": True}


def healthy_point(n):
    return {"measured": float(n), "correct": True}


class TestFaultTolerance:
    def test_worker_crash_is_isolated_and_retried(self, tmp_path):
        points = parallel_sweep(
            {"n": [2, 5]}, partial(flaky_point, scratch=str(tmp_path)),
            jobs=2, retries=1,
        )
        assert [p.measured for p in points] == [2.0, 5.0]
        assert all(p.extra["sweep_attempts"] == 2 for p in points)
        assert not any(p.failed for p in points)

    def test_crash_without_retries_is_recorded(self, tmp_path):
        [point] = parallel_sweep(
            {"n": [2]}, partial(flaky_point, scratch=str(tmp_path)),
            jobs=2, on_error="record",
        )
        assert point.failed
        assert "worker crashed" in point.error
        assert math.isnan(point.measured)

    def test_hung_point_is_killed_by_the_watchdog(self, tmp_path):
        points = parallel_sweep(
            {"n": [2, 5]}, partial(hanging_point, scratch=str(tmp_path)),
            jobs=2, timeout=1.0, retries=1,
        )
        assert [p.measured for p in points] == [2.0, 5.0]
        assert all(p.extra["sweep_attempts"] == 2 for p in points)

    def test_timeout_without_retries_is_recorded(self, tmp_path):
        [point] = parallel_sweep(
            {"n": [2]}, partial(hanging_point, scratch=str(tmp_path)),
            jobs=1, timeout=0.5, on_error="record",
        )
        assert point.failed
        assert "timed out" in point.error

    def test_on_error_record_keeps_healthy_points(self):
        points = parallel_sweep({"n": [2, 3, 4]}, broken_point,
                                jobs=2, on_error="record")
        by_n = {p.params["n"]: p for p in points}
        assert not by_n[2].failed and not by_n[4].failed
        assert by_n[3].failed
        assert "cursed" in by_n[3].error
        assert math.isnan(by_n[3].measured)

    def test_on_error_raise_raises_sweep_point_error(self):
        with pytest.raises(SweepPointError, match="cursed") as exc_info:
            parallel_sweep({"n": [2, 3]}, broken_point, jobs=2)
        assert exc_info.value.params == {"n": 3}

    def test_error_points_also_recorded_in_serial_mode(self):
        points = parallel_sweep({"n": [2, 3]}, broken_point,
                                jobs=1, on_error="record")
        assert [p.failed for p in points] == [False, True]

    def test_retry_recovers_in_serial_mode(self, tmp_path):
        calls = tmp_path / "calls"

        def flaky_serial(n):
            if not calls.exists():
                calls.write_text("x")
                raise RuntimeError("transient")
            return {"measured": float(n), "correct": True}

        [point] = parallel_sweep({"n": [2]}, flaky_serial, jobs=1, retries=1)
        assert point.measured == 2.0
        assert point.extra["sweep_attempts"] == 2

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=0)
        with pytest.raises(ValueError, match="retries"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, backoff=-0.5)
        with pytest.raises(ValueError, match="on_error"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, on_error="panic")
        # Process-per-point execution is gone; the pool is the one way out.
        with pytest.raises(ValueError, match="executor"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=2, executor="process")


class TestCacheRobustness:
    def test_unreadable_cache_is_quarantined_not_fatal(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(healthy_point, {"n": 2})
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"truncated": ')  # a torn write from a dead run
        with pytest.warns(RuntimeWarning, match="quarantin"):
            points = parallel_sweep({"n": [2]}, healthy_point, jobs=1,
                                    store=store)
        assert [p.measured for p in points] == [2.0]  # the point re-ran
        assert os.path.exists(path + ".quarantined")
        # The fresh entry written afterwards is valid again.
        assert store.get_outcome(key)["measured"] == 2.0

    def test_schema_invalid_entries_are_dropped_and_rerun(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(healthy_point, {"n": 2})
        store.put(key, {"bogus": True})  # a valid entry, but not an outcome
        [point] = parallel_sweep({"n": [2]}, healthy_point, jobs=1, store=store)
        assert point.measured == 2.0  # re-run, not served from the bad entry
        assert store.get_outcome(key) == {"measured": 2.0, "correct": True}

    def test_error_outcomes_are_never_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        parallel_sweep({"n": [2, 3]}, broken_point, jobs=1, store=store,
                       store_scope="heal", on_error="record")
        assert store.stats().entries == 1  # only the good point
        # Resume with a healthy run: the failed point re-executes and heals,
        # the good point is served from the store.
        points = parallel_sweep({"n": [2, 3]}, healthy_point, jobs=1,
                                store=store, store_scope="heal")
        assert [p.failed for p in points] == [False, False]
        assert [p.measured for p in points] == [2.0, 3.0]
        assert store.stats().entries == 2

    def test_partial_results_cached_even_when_a_point_raises(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(SweepPointError):
            parallel_sweep({"n": [2, 3]}, broken_point, jobs=1, store=store)
        # The completed point survived; the failed one was never stored.
        assert store.get_outcome(store.key_for(broken_point, {"n": 2})) == {
            "measured": 2.0, "correct": True,
        }
        assert store.get_outcome(store.key_for(broken_point, {"n": 3})) is None
