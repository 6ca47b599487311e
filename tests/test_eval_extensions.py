"""Tests for the extension experiments (variants, countermeasures, energy)
and the EXPERIMENTS.md report helpers."""

import pytest

from repro.eval import EXPERIMENTS
from repro.eval.report import _bench_target, _markdown_table


class TestVariantsExperiment:
    def test_rows_cover_catalogue(self):
        result = EXPERIMENTS["variants"](n_nonces=1)
        assert result.column("Scheme") == [
            "PASTA-3", "PASTA-4", "MASTA-like", "HERA-like", "RUBATO-like",
        ]

    def test_projection_close_to_measured(self):
        result = EXPERIMENTS["variants"](n_nonces=1)
        projected = result.column("Cycles (proj)")
        measured = result.column("Cycles (meas)")
        for proj, meas in zip(projected[:2], measured[:2]):
            assert abs(proj - meas) / meas < 0.03


class TestCountermeasuresExperiment:
    def test_attack_row_reports_success(self):
        result = EXPERIMENTS["countermeasures"](n_nonces=1)
        attack_row = result.rows[0]
        assert attack_row[0] == "Linearization attack"
        assert "recovered" in attack_row[3]

    def test_redundancy_doubles(self):
        result = EXPERIMENTS["countermeasures"](n_nonces=1)
        for row in result.rows[1:]:
            assert "x2.00" in row[3]


class TestEnergyExperiment:
    def test_cpu_dominates_energy(self):
        result = EXPERIMENTS["energy"](n_nonces=1)
        per_elem = result.column("uJ/element")
        platforms = result.column("Platform")
        cpu_value = per_elem[platforms.index("CPU (Xeon E5-2699 v4)")]
        assert cpu_value == max(per_elem)


class TestHheCostExperiment:
    def test_static_rows_without_execution(self):
        result = EXPERIMENTS["hhe_cost"](run_transcipher=False)
        assert len(result.rows) == 2  # PASTA-3 and PASTA-4 analytic rows
        depths = result.column("Mult depth")
        assert depths == [4, 5]

    def test_executed_row_is_the_packed_evaluator(self):
        """The executed row decrypts exactly (the generator raises otherwise)
        and reports one packed group's closed-form counts."""
        from repro.pasta import PASTA_MICRO, homomorphic_op_counts

        result = EXPERIMENTS["hhe_cost"]()
        row = dict(zip(result.headers, result.rows[-1]))
        counts = homomorphic_op_counts(PASTA_MICRO)
        assert row["Instance"] == f"{PASTA_MICRO.name} (executed)"
        assert row["Plain muls"] == counts["plain_muls"]
        assert row["Ct muls"] == counts["squares"] + counts["muls"]
        assert row["Rotations"] == counts["rotations"]
        assert any("decrypted exactly" in note for note in result.notes)
        # The note names the level plan the server evaluated on and its key
        # switches.
        assert any("RNS levels (8, 8, 8, 6, 4)" in note for note in result.notes)
        assert counts["keyswitches"] == 8
        assert any("(8 key switches:" in note for note in result.notes)


class TestReportHelpers:
    def test_markdown_table(self):
        text = _markdown_table(["a", "b"], [["1", "2"]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_bench_targets_defined_for_all_experiments(self):
        for name in EXPERIMENTS:
            assert _bench_target(name)
