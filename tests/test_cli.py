"""The ``python -m repro`` experiment driver."""

import pytest

from repro.cli import EXPERIMENTS, main, parse_jobs


class TestCLI:
    def test_experiment_registry_covers_design_index(self):
        assert set(EXPERIMENTS) == {
            "t1a", "t1b", "t1c", "t1d", "s8", "rel", "lb", "abl", "perf",
            "sched", "xmodel",
        }

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "t1a" in out

    def test_single_experiment_prints_table(self, capsys):
        # t1b is the fastest full-table experiment.
        assert main(["t1b"]) == 0
        out = capsys.readouterr().out
        assert 'Table 1b: "Time Lower Bounds for s-QSM"' in out
        assert "tight" in out  # the Theta(g log n) parity cell


class TestTraceCommand:
    def test_trace_is_not_an_experiment(self):
        # the EXPERIMENTS registry stays the DESIGN.md index; trace is a
        # separately-dispatched subcommand.
        assert "trace" not in EXPERIMENTS

    def test_trace_prints_breakdown_and_summary(self, capsys):
        assert main(["trace", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "phase history" in out
        assert "dominant-term summary" in out
        assert "g*m_rw" in out

    def test_trace_export_chrome(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--model", "qsm", "--n", "64",
                     "--export", "chrome", "--out", str(out_file)]) == 0
        import json

        payload = json.loads(out_file.read_text())
        events = payload["traceEvents"]
        assert events
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert all({"ts", "dur", "pid", "tid"} <= set(e) for e in events)

    def test_trace_export_jsonl_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        assert main(["trace", "--model", "bsp", "--n", "64",
                     "--export", "jsonl", "--out", str(out_file)]) == 0
        from repro.obs import read_jsonl

        records = read_jsonl(str(out_file))
        assert records and all(r.model == "BSP" for r in records)

    def test_trace_help_mentions_exports(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        assert "chrome" in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_is_not_an_experiment(self):
        assert "chaos" not in EXPERIMENTS

    def test_chaos_small_run_passes(self, capsys):
        assert main(["chaos", "--n", "16", "--budget", "4",
                     "--only", "parity", "--skip-sweep-demo"]) == 0
        out = capsys.readouterr().out
        assert "all survived" in out
        assert "CHAOS: all clear" in out

    def test_chaos_help_mentions_the_gate(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        out = capsys.readouterr().out
        assert "winner" in out
        assert "fault" in out


class TestVersionCommand:
    def test_version_subcommand_prints_version_and_engine(self, capsys):
        from repro import __version__

        assert main(["version"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == __version__
        assert lines[1].startswith("engine: ")
        assert "numpy" in lines[1]

    def test_version_reports_env_selected_engine(self, capsys, monkeypatch):
        from repro.core.engine_vector import have_numpy

        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert main(["version"]) == 0
        engine_line = capsys.readouterr().out.strip().splitlines()[1]
        if have_numpy():
            assert engine_line.startswith("engine: vector")
        else:  # the documented numpy fallback is surfaced, not silent
            assert engine_line.startswith("engine: reference")
            assert "requested 'vector'" in engine_line

    def test_version_rejects_bad_engine_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        assert main(["version"]) == 2
        assert "engine" in capsys.readouterr().err

    def test_version_flags(self, capsys):
        from repro import __version__

        for flag in ("--version", "-V"):
            assert main([flag]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0] == __version__
            assert lines[1].startswith("engine: ")

    def test_version_is_not_an_experiment(self):
        assert "version" not in EXPERIMENTS


class TestCampaignCommand:
    def test_campaign_is_not_an_experiment(self):
        assert "campaign" not in EXPERIMENTS

    def test_campaign_list_names_shipped_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("demo", "table1", "section8", "chaos", "cross_model"):
            assert name in out

    def test_campaign_demo_runs_then_resumes_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--demo", "--points", "3",
                     "--delay", "0", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "campaign demo:" in out
        assert "4 done" in out  # 3 points + inline summary

        # Second run: every stored point is served from the store.
        assert main(["campaign", "resume", "--demo", "--points", "3",
                     "--delay", "0", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "3 cached" in out

    def test_campaign_status_and_prune(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet"]) == 0
        capsys.readouterr()

        # The spec (including --delay) is part of each task's content key,
        # so status must be asked about the same campaign configuration.
        assert main(["campaign", "status", "--demo", "--points", "2",
                     "--delay", "0", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2/2 stored task(s) done" in out
        assert "inline" in out  # the summary task is never stored

        assert main(["campaign", "prune", "--store", store, "--dry-run"]) == 0
        assert "would prune 2" in capsys.readouterr().out
        assert main(["campaign", "prune", "--store", store]) == 0
        assert "pruned 2" in capsys.readouterr().out

    def test_campaign_writes_scheduler_trace(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        trace = tmp_path / "sched-trace.json"
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet",
                     "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        assert "process_name" in names
        assert any(n.startswith("demo/point-") for n in names)

    def test_campaign_unknown_name_rejected(self, tmp_path, capsys):
        assert main(["campaign", "run", "nope",
                     "--store", str(tmp_path / "s")]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestJobsValidation:
    def test_jobs_flag_is_stripped_and_parsed(self):
        assert parse_jobs(["t1a", "--jobs", "4"]) == (["t1a"], 4)
        assert parse_jobs(["--jobs=2", "s8"]) == (["s8"], 2)
        assert parse_jobs(["t1a"]) == (["t1a"], None)

    def test_jobs_zero_or_negative_rejected(self):
        for bad in (["--jobs", "0"], ["--jobs=-3"]):
            with pytest.raises(SystemExit, match=">= 1"):
                parse_jobs(bad)

    def test_jobs_non_integer_rejected(self):
        with pytest.raises(SystemExit, match="integer"):
            parse_jobs(["--jobs", "many"])
        with pytest.raises(SystemExit, match="needs a value"):
            parse_jobs(["--jobs"])

    def test_bad_repro_jobs_env_rejected_at_cli(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SystemExit) as exc_info:
            main(["nope"])
        assert exc_info.value.code == 2
        assert "REPRO_JOBS must be an integer" in capsys.readouterr().err

    def test_nonpositive_repro_jobs_env_rejected_at_cli(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(SystemExit) as exc_info:
            main(["nope"])
        assert exc_info.value.code == 2
        assert ">= 1" in capsys.readouterr().err

    def test_explicit_jobs_flag_overrides_bad_env(self, monkeypatch, capsys):
        # --jobs 1 wins over a typo'd environment: the run proceeds (and then
        # fails on the unknown experiment, proving validation was skipped).
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["nope", "--jobs", "1"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestMetricsCommand:
    def test_metrics_is_not_an_experiment(self):
        assert "metrics" not in EXPERIMENTS

    def test_dump_notes_disabled_registry(self, capsys):
        assert main(["metrics", "dump"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_dump_renders_live_registry(self, capsys):
        from repro.obs.metrics import REGISTRY

        REGISTRY.counter("repro_test_total", "").inc(3)
        try:
            assert main(["metrics", "dump"]) == 0
            assert "repro_test_total" in capsys.readouterr().out
        finally:
            REGISTRY.reset()

    def test_dump_from_snapshot_file(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.snapshot import SnapshotWriter

        registry = MetricsRegistry()
        registry.counter("repro_snap_total", "").inc(7)
        path = str(tmp_path / "metrics.jsonl")
        SnapshotWriter(path, registry=registry).close()
        assert main(["metrics", "dump", "--snapshots", path]) == 0
        out = capsys.readouterr().out
        assert "repro_snap_total" in out
        assert "(final)" in out

    def test_dump_missing_snapshot_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["metrics", "dump", "--snapshots", missing]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestBenchCheckCommand:
    def test_bench_is_not_an_experiment(self):
        assert "bench" not in EXPERIMENTS

    def write_bench(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    BASE = {
        "x=1": {"measured": 10.0, "correct": True},
        "x=2": {"measured": 40.0, "correct": True},
    }

    def test_baseline_vs_itself_exits_zero(self, tmp_path, capsys):
        base = self.write_bench(tmp_path, "base.json", self.BASE)
        assert main(["bench", "check", "--baseline", base,
                     "--current", base]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_perturbed_point_exits_nonzero(self, tmp_path, capsys):
        # The acceptance check: a point drifting beyond tolerance gates.
        base = self.write_bench(tmp_path, "base.json", self.BASE)
        perturbed = dict(self.BASE, **{
            "x=2": {"measured": 80.0, "correct": True},
        })
        cur = self.write_bench(tmp_path, "cur.json", perturbed)
        assert main(["bench", "check", "--baseline", base,
                     "--current", cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "x=2.measured" in out

    def test_report_file_written(self, tmp_path, capsys):
        base = self.write_bench(tmp_path, "base.json", self.BASE)
        report = tmp_path / "report.md"
        assert main(["bench", "check", "--baseline", base, "--current", base,
                     "--report", str(report)]) == 0
        assert report.read_text().startswith("# Bench check: PASS")

    def test_store_backed_current(self, tmp_path, capsys):
        from repro.sched.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        key = store.key_for("demo:a", {"n": 1})
        store.put(key, {"measured": 5.0, "correct": True})
        base = self.write_bench(
            tmp_path, "base.json", {key: {"measured": 5.0, "correct": True}}
        )
        assert main(["bench", "check", "--baseline", base,
                     "--store", store_dir]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        assert main(["bench", "check", "--baseline",
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    CROSS_MODEL = {
        "schema": "cross_model/1",
        "models": ["MPC", "PEM"],
        "cells": {
            "Parity": {
                "model=MPC,n=64": {"measured": 3.0, "bound": 3.0,
                                   "correct": True},
                "model=PEM,n=64": {"measured": 9.0, "bound": 1.0,
                                   "correct": True},
            },
        },
        "engines_agree_mpc": True,
        "engines_agree_pem": True,
    }

    def test_cross_model_perturbed_point_exits_nonzero(self, tmp_path, capsys):
        # BENCH_cross_model.json diffs at the deterministic 1% tolerance.
        base = self.write_bench(tmp_path, "base.json", self.CROSS_MODEL)
        import json

        perturbed = json.loads(json.dumps(self.CROSS_MODEL))
        perturbed["cells"]["Parity"]["model=MPC,n=64"]["measured"] = 4.0
        cur = self.write_bench(tmp_path, "cur.json", perturbed)
        assert main(["bench", "check", "--baseline", base,
                     "--current", cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "cells.Parity.model=MPC,n=64.measured" in out

    def test_cross_model_schema_auto_remeasures(self, tmp_path, capsys,
                                                monkeypatch):
        # A baseline with a "cells" block dispatches to the cross-model
        # collector when no --current/--store is given.
        import repro.obs.regress as regress

        calls = {}

        def fake_collect(samples=1, jobs=None):
            calls["samples"] = samples
            import json

            return json.loads(json.dumps(self.CROSS_MODEL))

        monkeypatch.setattr(regress, "collect_cross_model_current",
                            fake_collect)
        base = self.write_bench(tmp_path, "base.json", self.CROSS_MODEL)
        assert main(["bench", "check", "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "re-measuring the cross-model bench" in out
        assert "PASS" in out
        assert calls["samples"] == 1


class TestCampaignMetricsFlags:
    def test_run_writes_metrics_snapshots(self, tmp_path, capsys):
        from repro.obs.snapshot import read_snapshots

        store = str(tmp_path / "store")
        metrics = tmp_path / "metrics.jsonl"
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet",
                     "--metrics", str(metrics)]) == 0
        assert "wrote metrics snapshots" in capsys.readouterr().out
        snaps = read_snapshots(str(metrics))
        assert snaps and snaps[-1].final
        # done + cached across the stream covers all three stored points.
        assert snaps[-1].value("repro_campaign_tasks_total") == 3.0

    def test_metrics_auto_lands_in_store(self, tmp_path, capsys):
        import os

        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet",
                     "--metrics"]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(store, "metrics.jsonl"))

    def test_status_metrics_renders_progress(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet",
                     "--metrics"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", store,
                     "--metrics",
                     str(tmp_path / "store" / "metrics.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "(final)" in out

    def test_status_metrics_missing_stream(self, tmp_path, capsys):
        assert main(["campaign", "status", "--store", str(tmp_path / "s"),
                     "--metrics", str(tmp_path / "nope.jsonl")]) == 1
        assert "no metrics snapshots" in capsys.readouterr().err

    def test_combined_trace_has_metrics_lane(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        trace = tmp_path / "trace.json"
        assert main(["campaign", "run", "--demo", "--points", "2",
                     "--delay", "0", "--store", store, "--quiet",
                     "--trace", str(trace), "--metrics"]) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {0, 1, 2} <= pids  # phase rows, scheduler spans, counters
        assert any(e["ph"] == "C" for e in events)

    def test_bad_interval_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--demo", "--store",
                  str(tmp_path / "s"), "--metrics", "--interval", "0"])
        assert "interval" in capsys.readouterr().err.lower()


class TestMetricsIntervalEnvValidation:
    def test_malformed_env_rejected_at_cli(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "soon")
        with pytest.raises(SystemExit) as exc_info:
            main(["nope"])
        assert exc_info.value.code == 2
        assert "REPRO_METRICS_INTERVAL" in capsys.readouterr().err

    def test_nonpositive_env_rejected_at_cli(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "-1")
        with pytest.raises(SystemExit) as exc_info:
            main(["nope"])
        assert exc_info.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_valid_env_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "0.5")
        assert main(["nope"]) == 2  # proceeds to the unknown-experiment error
        assert "unknown experiment" in capsys.readouterr().err


class TestTable1ExitStatus:
    """A Table 1 run fails loudly: exit 1 on WRONG-ANSWER or VIOLATION."""

    @pytest.fixture
    def tiny_t1a(self, monkeypatch):
        import benchmarks.bench_table1_qsm_time as t1a

        # Serial, in-process and uncached, so a patched algorithm is the
        # one every point runs; NS is bound at import, so patch it too.
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setattr(t1a, "NS", [64, 128])
        return t1a

    def test_clean_run_exits_zero(self, tiny_t1a, capsys):
        assert main(["t1a"]) == 0
        captured = capsys.readouterr()
        assert "WRONG-ANSWER" not in captured.out
        assert "failed" not in captured.err

    def test_wrong_answer_exits_one(self, tiny_t1a, monkeypatch, capsys):
        from dataclasses import replace

        real = tiny_t1a.parity_blocks

        def flipped(machine, bits, **kwargs):
            result = real(machine, bits, **kwargs)
            return replace(result, value=1 - result.value)

        monkeypatch.setattr(tiny_t1a, "parity_blocks", flipped)
        assert main(["t1a"]) == 1
        captured = capsys.readouterr()
        assert "WRONG-ANSWER" in captured.out
        assert "experiment t1a failed: Parity/deterministic: WRONG-ANSWER" in captured.err
