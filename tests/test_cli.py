"""Tests for the ``python -m repro`` command-line entry."""

import json
import resource

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig8" in out

    def test_no_args_is_help(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_cheap_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "65,468" in out

    def test_run_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "MatGen" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_writes_perfetto_json_and_report(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.prom"
        rc = main([
            "trace",
            "--out", str(trace_out),
            "--metrics-out", str(metrics_out),
            "--frames", "16",
            "--workers", "2",
        ])
        assert rc == 0

        doc = json.loads(trace_out.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"service.run", "service.produce.batch", "service.encrypt",
                "pasta.keystream", "service.recover"} <= names
        # Keystream slices carry the model's cycle annotation for Perfetto.
        ks = [e for e in events if e["name"] == "pasta.keystream"]
        assert all(e["args"]["modeled_cycles"] > 0 for e in ks)

        # The shard's uplink queue depth sampled by the service rides along
        # as a Perfetto counter track sharing the span epoch.
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert "service.uplink.depth/shard0" in {e["name"] for e in counters}
        assert all(e["ts"] >= 0 for e in counters)

        prom = metrics_out.read_text()
        assert "# TYPE service_encrypt_seconds summary" in prom
        assert 'service_frames_recovered_total{tenant="tenant-00"} 16' in prom
        assert "service_uplink_depth_max" in prom
        # The flight recorder renders even when the run had no incidents.
        assert "repro_flight_events_dropped_total 0" in prom
        assert "_total_total" not in prom

        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "pasta.keystream" in out

    def test_trace_hhe_mode_flags_no_stage(self, tmp_path, capsys):
        """Server stages carry no cycle model, so a healthy run never diverges."""
        rc = main([
            "trace",
            "--mode", "hhe",
            "--out", str(tmp_path / "trace.json"),
            "--frames", "4",
            "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hhe.transcipher" in out
        assert "DIVERGES" not in out
        if hasattr(resource, "RUSAGE_THREAD"):
            # The summary ends with each fault-counting span's median.
            faults = out.split("minor page faults")[1].splitlines()[1:]
            assert [line.split()[0] for line in faults] == [
                "hhe.prepare", "hhe.transcipher", "pasta.keystream"
            ]

    def test_trace_rejects_unknown_option(self, tmp_path, capsys):
        assert main(["trace", "--bogus", "1"]) == 2
        assert "unknown trace option" in capsys.readouterr().err


class TestHealthCommand:
    ARGS = ["--tenants", "2", "--sessions-per-tenant", "1", "--frames", "2"]

    def test_clean_run_is_healthy(self, capsys):
        assert main(["health", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "service health" in out
        assert "tenant-00" in out and "tenant-01" in out
        assert "overall: HEALTHY" in out

    def test_json_report_and_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "health.json"
        rc = main(["health", *self.ARGS, "--json", "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is True
        assert [t["tenant"] for t in payload["tenants"]] == ["tenant-00", "tenant-01"]
        assert all(t["ok"] for t in payload["tenants"])
        assert payload["critical_events"] == 0
        # --out writes the same report to disk for CI artifact upload.
        assert json.loads(out_path.read_text()) == payload

    def test_rejects_unknown_option(self, capsys):
        assert main(["health", "--bogus", "1"]) == 2
        assert "unknown health option" in capsys.readouterr().err


class TestPerfgateCommand:
    def test_perfgate_against_committed_baselines(self, tmp_path, capsys):
        import shutil
        from pathlib import Path

        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        # Stage a complete current dir (the baselines themselves): the gate
        # now hard-fails on any missing current report, so the wiring check
        # must present one report per committed baseline.
        current = tmp_path / "current"
        shutil.copytree(baselines, current)
        # Generous tolerance: this checks wiring, not runner speed.
        rc = main(["perfgate", "--current", str(current),
                   "--baseline", str(baselines),
                   "--tolerance", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipeline_fps" in out
        assert "verdict" in out

    def test_perfgate_fails_when_a_current_report_is_missing(self, tmp_path, capsys):
        import shutil
        from pathlib import Path

        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        current = tmp_path / "current"
        shutil.copytree(baselines, current)
        (current / "BENCH_service_pipeline.json").unlink()
        rc = main(["perfgate", "--current", str(current),
                   "--baseline", str(baselines),
                   "--tolerance", "1000"])
        assert rc == 1
        assert "missing current report" in capsys.readouterr().out
