"""Tests for the perf-regression gate (repro.eval.perfgate)."""

import json

import pytest

from repro.eval.perfgate import (
    GATED_METRICS,
    MetricDelta,
    compare_dirs,
    compare_reports,
    main,
    render_table,
)


def write_bench(directory, name, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


def frame_report(hhe_runs, client_runs=(3000.0,), traced=None):
    """A ``bench/run.py --out`` report: one entry per untraced run, and the
    traced run's per-layer metrics, whose keys hold dots."""
    report = {
        "workloads": {
            "hhe_frame": {"runs": [{"blocks_per_s": v} for v in hhe_runs]},
            "client_encrypt": {"runs": [{"blocks_per_s": v} for v in client_runs]},
        }
    }
    if traced is not None:
        report["workloads"]["hhe_frame"]["traced"] = traced
    return report


#: The traced op counts of one HHE frame, as ``bench/run.py --out`` writes them.
TRACED_OPS = {"fhe.rotations": 29.0, "fhe.decompositions": 2.0, "fhe.relins": 3.0}


class TestMetricDelta:
    def test_higher_direction_drop_is_regression(self):
        d = MetricDelta("b", "fps", "higher", baseline=100.0, current=70.0)
        assert d.change == pytest.approx(-0.30)
        assert d.regressed(0.25)
        assert not d.regressed(0.35)

    def test_higher_direction_improvement_ok(self):
        d = MetricDelta("b", "fps", "higher", baseline=100.0, current=130.0)
        assert d.change == pytest.approx(0.30)
        assert not d.regressed(0.0)

    def test_lower_direction_growth_is_regression(self):
        d = MetricDelta("b", "latency", "lower", baseline=10.0, current=14.0)
        assert d.change == pytest.approx(-0.40)
        assert d.regressed(0.25)

    def test_floor_gates_absolutely(self):
        # floor: current must stay under the bound; tolerance is ignored.
        over = MetricDelta("b", "pct", "floor:bound", baseline=5.0, current=5.1)
        under = MetricDelta("b", "pct", "floor:bound", baseline=5.0, current=2.0)
        assert over.regressed(10.0)  # huge tolerance changes nothing
        assert not under.regressed(0.0)
        assert under.change == pytest.approx(0.6)  # headroom below the bound

    def test_missing_side_is_skipped_not_failed(self):
        d = MetricDelta("b", "fps", "higher", baseline=None, current=50.0)
        assert d.skipped
        assert d.change is None
        assert not d.regressed(0.0)


class TestInvalidMetrics:
    """Bool and non-finite values must hard-fail, never silently pass.

    ``isinstance(True, int)`` is True and every comparison against NaN is
    False — both used to slide through the gate as "within tolerance".
    """

    def test_boolean_metric_is_a_failure(self):
        current = {"pipeline_fps": True, "speedup": 4.0, "faulted": {"fps": 50.0}}
        baseline = {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}}
        deltas = compare_reports("BENCH_service_pipeline.json", current, baseline)
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["pipeline_fps"].error is not None
        assert by_metric["pipeline_fps"].regressed(1e9)  # tolerance can't save it
        assert not by_metric["pipeline_fps"].skipped
        assert not by_metric["speedup"].regressed(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_metric_is_a_failure(self, bad):
        current = {"pipeline_fps": bad, "speedup": 4.0, "faulted": {"fps": 50.0}}
        baseline = {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}}
        deltas = compare_reports("BENCH_service_pipeline.json", current, baseline)
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["pipeline_fps"].error is not None
        assert by_metric["pipeline_fps"].regressed(1e9)

    def test_non_finite_baseline_is_a_failure(self):
        deltas = compare_reports(
            "BENCH_service_pipeline.json",
            {"pipeline_fps": 90.0},
            {"pipeline_fps": float("nan")},
        )
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["pipeline_fps"].regressed(0.0)

    def test_directly_constructed_nan_delta_regresses(self):
        d = MetricDelta("b", "fps", "higher", baseline=100.0, current=float("nan"))
        assert d.change is None
        assert d.regressed(1e9)
        assert not d.skipped

    def test_invalid_metric_renders_fail(self):
        deltas = compare_reports(
            "BENCH_service_pipeline.json",
            {"pipeline_fps": float("nan"), "speedup": True},
            {"pipeline_fps": 100.0, "speedup": 4.0},
        )
        table = render_table(deltas, tolerance=0.25)
        assert "FAIL (pipeline_fps is non-finite" in table
        assert "FAIL (speedup is a boolean" in table

    def test_main_exits_one_on_nan(self, tmp_path, capsys):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        write_bench(baseline, "BENCH_frame.json", frame_report([100.0]))
        (current / "x").parent.mkdir(parents=True, exist_ok=True)
        (current / "BENCH_frame.json").write_text(
            json.dumps(frame_report([100.0])).replace("100.0", "NaN")
        )
        rc = main(["--current", str(current), "--baseline", str(baseline)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestMissingCurrentReport:
    """A benchmark that stops producing its report must FAIL, not skip.

    The old behaviour skipped every metric when the current report went
    missing — a broken benchmark job would pass CI forever.
    """

    def test_missing_current_with_baseline_fails(self, tmp_path):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir()
        write_bench(baseline, "BENCH_service_pipeline.json",
                    {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}})
        deltas = compare_dirs(current, baseline)
        assert deltas
        assert all(d.error == "missing current report" for d in deltas)
        assert all(d.regressed(1e9) for d in deltas)
        assert not any(d.skipped for d in deltas)

    def test_corrupt_current_with_baseline_fails(self, tmp_path):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir()
        (current / "BENCH_service_pipeline.json").write_text("{not json")
        write_bench(baseline, "BENCH_service_pipeline.json", {"pipeline_fps": 100.0})
        deltas = compare_dirs(current, baseline)
        assert deltas and all(d.regressed(0.0) for d in deltas)

    def test_missing_baseline_still_skips(self, tmp_path):
        # A newly added benchmark with no committed baseline yet: skip.
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        baseline.mkdir()
        write_bench(current, "BENCH_service_pipeline.json",
                    {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}})
        deltas = compare_dirs(current, baseline)
        assert deltas and all(d.skipped and not d.regressed(0.0) for d in deltas)

    def test_missing_current_renders_fail(self, tmp_path):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir()
        write_bench(baseline, "BENCH_service_pipeline.json", {"pipeline_fps": 100.0})
        table = render_table(compare_dirs(current, baseline), tolerance=0.25)
        assert "FAIL (missing current report)" in table

    def test_main_exits_one_when_current_report_vanishes(self, tmp_path, capsys):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir()
        write_bench(baseline, "BENCH_frame.json", frame_report([100.0]))
        rc = main(["--current", str(current), "--baseline", str(baseline)])
        assert rc == 1
        assert "regressed" in capsys.readouterr().err


class TestCompareReports:
    def test_extracts_dotted_paths(self):
        current = {"pipeline_fps": 90.0, "speedup": 4.0, "faulted": {"fps": 45.0}}
        baseline = {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}}
        deltas = compare_reports("BENCH_service_pipeline.json", current, baseline)
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["pipeline_fps"].change == pytest.approx(-0.10)
        assert by_metric["faulted.fps"].change == pytest.approx(-0.10)
        assert not any(d.regressed(0.25) for d in deltas)

    def test_floor_bound_read_from_current_report(self):
        current = {"overhead_pct": 3.0, "overhead_floor_pct": 5.0}
        (delta,) = compare_reports("BENCH_obs_overhead.json", current, baseline=None)
        assert delta.baseline == 5.0  # the bound, not a committed baseline
        assert not delta.regressed(0.0)

    def test_list_on_the_path_gates_the_median_run(self):
        baseline = frame_report([100.0, 120.0, 110.0], client_runs=[3000.0, 2000.0])
        current = frame_report([60.0, 95.0, 200.0, 90.0], client_runs=[2800.0])
        by_metric = {
            d.metric: d for d in compare_reports("BENCH_frame.json", current, baseline)
        }
        hhe = by_metric["workloads.hhe_frame.runs.blocks_per_s"]
        assert (hhe.baseline, hhe.current) == (110.0, 92.5)
        client = by_metric["workloads.client_encrypt.runs.blocks_per_s"]
        assert (client.baseline, client.current) == (2500.0, 2800.0)
        assert not any(d.regressed(0.25) for d in by_metric.values())

    def test_nan_inside_a_list_is_a_failure(self):
        current = frame_report([100.0, float("nan"), 100.0])
        hhe, client = compare_reports("BENCH_frame.json", current, frame_report([100.0]))[:2]
        assert hhe.metric == "workloads.hhe_frame.runs.blocks_per_s"
        assert "non-finite" in hhe.error
        assert hhe.regressed(1e9)
        assert not client.regressed(0.25)

    def test_list_element_missing_the_metric_is_skipped(self):
        current = frame_report([100.0])
        current["workloads"]["hhe_frame"]["runs"].append({})
        hhe = compare_reports("BENCH_frame.json", current, frame_report([100.0]))[0]
        assert hhe.skipped

    def test_dotted_key_resolves(self):
        report = frame_report([100.0], traced=TRACED_OPS)
        by_metric = {
            d.metric: d for d in compare_reports("BENCH_frame.json", report, report)
        }
        rotations = by_metric["workloads.hhe_frame.traced.fhe.rotations"]
        assert (rotations.baseline, rotations.current) == (29.0, 29.0)
        assert by_metric["workloads.hhe_frame.traced.fhe.relins"].current == 3.0
        assert not any(d.skipped or d.regressed(0.0) for d in by_metric.values())

    def test_longest_dotted_key_wins(self):
        from repro.eval.perfgate import _extract

        assert _extract({"fhe": {"rotations": 1.0}, "fhe.rotations": 2.0}, "fhe.rotations") == 2.0
        assert _extract({"fhe": {"rotations": 1.0}}, "fhe.rotations") == 1.0

    def test_regressed_op_count_fails(self):
        baseline = frame_report([100.0], traced=TRACED_OPS)
        current = frame_report([100.0], traced={**TRACED_OPS, "fhe.rotations": 62.0})
        regressed = [
            d.metric
            for d in compare_reports("BENCH_frame.json", current, baseline)
            if d.regressed(0.25)
        ]
        assert regressed == ["workloads.hhe_frame.traced.fhe.rotations"]

    def test_unknown_bench_has_no_gates(self):
        assert compare_reports("BENCH_unknown.json", {"x": 1}, {"x": 2}) == []

    def test_missing_metric_in_report_is_skipped(self):
        deltas = compare_reports("BENCH_service_pipeline.json", {}, {"pipeline_fps": 10.0})
        assert all(d.skipped for d in deltas)


class TestCompareDirs:
    def test_end_to_end_pass_and_fail(self, tmp_path):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        write_bench(baseline, "BENCH_service_pipeline.json",
                    {"pipeline_fps": 100.0, "speedup": 4.0, "faulted": {"fps": 50.0}})
        write_bench(current, "BENCH_service_pipeline.json",
                    {"pipeline_fps": 60.0, "speedup": 4.1, "faulted": {"fps": 49.0}})
        deltas = compare_dirs(current, baseline)
        regressed = [d for d in deltas if d.regressed(0.25)]
        assert [d.metric for d in regressed] == ["pipeline_fps"]

    def test_absent_benchmarks_are_ignored(self, tmp_path):
        assert compare_dirs(tmp_path / "a", tmp_path / "b") == []

    def test_corrupt_json_treated_as_missing(self, tmp_path):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir()
        (current / "BENCH_service_pipeline.json").write_text("{not json")
        write_bench(baseline, "BENCH_service_pipeline.json", {"pipeline_fps": 100.0})
        deltas = compare_dirs(current, baseline)
        assert deltas and all(d.current is None for d in deltas)

    def test_committed_baselines_exist_for_every_gated_bench(self):
        # The gate only bites if the baselines are actually committed.
        from pathlib import Path

        baseline_dir = Path(__file__).parent.parent / "benchmarks" / "baselines"
        for bench in GATED_METRICS:
            assert (baseline_dir / bench).is_file(), f"missing baseline for {bench}"


class TestRenderTable:
    def test_table_shows_verdict_per_metric(self):
        deltas = [
            MetricDelta("BENCH_a.json", "fps", "higher", 100.0, 110.0),
            MetricDelta("BENCH_a.json", "speedup", "higher", 4.0, 3.5),
            MetricDelta("BENCH_a.json", "lost", "higher", None, 3.5),
            MetricDelta("BENCH_b.json", "pct", "floor:bound", 5.0, 6.0),
        ]
        table = render_table(deltas, tolerance=0.25)
        lines = table.splitlines()
        assert len(lines) == 2 + len(deltas)  # header + rule + one row each
        assert "ok" in lines[2]
        assert "ok (within tolerance)" in lines[3]
        assert "SKIP (missing side)" in lines[4]
        assert "FAIL (exceeds floor)" in lines[5]

    def test_large_regression_fails(self):
        (line,) = render_table(
            [MetricDelta("BENCH_a.json", "fps", "higher", 100.0, 50.0)], tolerance=0.25
        ).splitlines()[2:]
        assert "FAIL" in line
        assert "-50.0%" in line


class TestMain:
    def _dirs(self, tmp_path, current_fps):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        write_bench(baseline, "BENCH_frame.json", frame_report([100.0]))
        write_bench(current, "BENCH_frame.json", frame_report([current_fps]))
        return current, baseline

    def test_exit_zero_when_within_tolerance(self, tmp_path, capsys):
        current, baseline = self._dirs(tmp_path, current_fps=90.0)
        rc = main(["--current", str(current), "--baseline", str(baseline)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks_per_s" in out and "all gated metrics" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        current, baseline = self._dirs(tmp_path, current_fps=50.0)
        rc = main(["--current", str(current), "--baseline", str(baseline)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "regressed" in captured.err

    def test_tighter_tolerance_flips_verdict(self, tmp_path):
        current, baseline = self._dirs(tmp_path, current_fps=90.0)
        args = ["--current", str(current), "--baseline", str(baseline)]
        assert main(args + ["--tolerance", "0.25"]) == 0
        assert main(args + ["--tolerance", "0.05"]) == 1

    def test_no_benchmarks_anywhere_passes(self, tmp_path, capsys):
        rc = main(["--current", str(tmp_path / "x"), "--baseline", str(tmp_path / "y")])
        assert rc == 0
        assert "no gated benchmark files" in capsys.readouterr().out

    def test_negative_tolerance_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--tolerance", "-1", "--current", str(tmp_path), "--baseline", str(tmp_path)])
