"""Perf-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

The benchmark lane writes machine-readable reports
(``benchmarks/BENCH_*.json``); this module compares the headline
throughput numbers in those files against committed baselines in
``benchmarks/baselines/`` and fails the build when a gated metric
regresses past the tolerance (default: >25% worse). Absolute numbers
drift with runner hardware, so the gate is *relative*: each baseline is
regenerated on the same class of machine the CI lane runs on, and the
tolerance absorbs scheduler noise while still catching a hot path that
lost a vectorized pass.

Gated metrics are declared per file in :data:`GATED_METRICS` as
(dotted JSON path, direction) pairs. A key may itself contain dots
(``fhe.rotations``); the longest key matching the path wins. A path that
reaches a list (the ``bench/run.py --out`` report keeps one entry per
run) resolves the rest of the path in every element and gates their
median. ``higher`` means larger is better (throughput); ``lower`` means
smaller is better (overhead); a ``floor:<path>`` direction gates the
metric *absolutely* against a bound stored in the report itself (e.g.
``overhead_pct`` vs ``overhead_floor_pct``) — relative gating of a small,
noisy percentage would flag jitter as regression.

CLI::

    python -m repro perfgate [--current benchmarks] \\
        [--baseline benchmarks/baselines] [--tolerance 0.25]

Exit status 1 iff any gated metric regressed; the per-benchmark delta
table is always printed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "GATED_METRICS",
    "DEFAULT_TOLERANCE",
    "InvalidMetricError",
    "MetricDelta",
    "compare_reports",
    "compare_dirs",
    "render_table",
    "main",
]

#: Regression tolerance: a gated metric may be up to this fraction worse
#: than its baseline before the gate fails (0.25 => >25% fails).
DEFAULT_TOLERANCE = 0.25

#: file name -> ((dotted path, direction), ...). Direction is "higher"
#: (throughput-like: regression = drop) or "lower" (overhead-like:
#: regression = growth).
GATED_METRICS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "BENCH_service_pipeline.json": (
        ("pipeline_fps", "higher"),
        ("speedup", "higher"),
        ("faulted.fps", "higher"),
    ),
    "BENCH_frame.json": (
        # The cold frame benchmark (``bench/run.py --out``): each
        # workload's blocks/s, the median over its untraced runs.
        ("workloads.hhe_frame.runs.blocks_per_s", "higher"),
        ("workloads.client_encrypt.runs.blocks_per_s", "higher"),
        # The exact homomorphic op counts of the traced HHE frame: the
        # keyswitching work per frame, which timing noise cannot hide.
        ("workloads.hhe_frame.traced.fhe.rotations", "lower"),
        ("workloads.hhe_frame.traced.fhe.decompositions", "lower"),
        ("workloads.hhe_frame.traced.fhe.relins", "lower"),
    ),
    "BENCH_obs_overhead.json": (
        ("overhead_pct", "floor:overhead_floor_pct"),
    ),
    "BENCH_noise_headroom.json": (
        # Worst-case modeled headroom across engines and prime widths: a
        # regression means a growth rule got looser or the circuit deeper.
        ("min_headroom_bits", "higher"),
        # End-to-end budget consumption, gated absolutely against the
        # ceiling the report declares: over it, decryption failure is one
        # parameter tweak away regardless of how the baseline moved.
        ("worst.noise_fraction", "floor:worst.noise_ceiling"),
    ),
    "BENCH_multitenant.json": (
        ("sessions_per_s", "higher"),
        ("frames_per_s", "higher"),
        # The fairness ratio is gated absolutely against the ceiling the
        # report itself declares (2x solo p99): latency-ratio noise makes a
        # relative gate flappy, but over the ceiling is a failure outright.
        ("fairness.p99_ratio", "floor:fairness.ceiling"),
    ),
}


@dataclass(frozen=True)
class MetricDelta:
    """One gated metric's baseline-vs-current comparison."""

    bench: str
    metric: str
    direction: str
    baseline: Optional[float]
    current: Optional[float]
    #: Hard-failure reason (missing current report, boolean / non-finite
    #: metric). An errored delta always regresses, never skips.
    error: Optional[str] = None

    @property
    def is_floor(self) -> bool:
        return self.direction.startswith("floor:")

    @property
    def _invalid(self) -> bool:
        """A side holds a value that cannot be gated (bool, NaN, inf)."""
        return any(
            isinstance(v, bool) or (v is not None and not math.isfinite(v))
            for v in (self.baseline, self.current)
        )

    @property
    def change(self) -> Optional[float]:
        """Fractional change, sign-normalized so negative == worse.

        For ``floor:`` gates, ``baseline`` holds the absolute bound and
        ``change`` is the remaining headroom below it.
        """
        if self._invalid:
            return None
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        if self.is_floor:
            return (self.baseline - self.current) / abs(self.baseline)
        raw = (self.current - self.baseline) / abs(self.baseline)
        return raw if self.direction == "higher" else -raw

    def regressed(self, tolerance: float) -> bool:
        # A NaN/inf/bool metric or a benchmark that stopped producing a
        # report must FAIL the gate, not slip through a skip: every
        # ``change < threshold`` comparison against NaN is silently false.
        if self.error is not None or self._invalid:
            return True
        change = self.change
        if change is None:
            return False
        # Absolute floors ignore the relative tolerance: over the bound
        # is a failure, however small the excursion.
        return change < 0 if self.is_floor else change < -tolerance

    @property
    def skipped(self) -> bool:
        if self.error is not None or self._invalid:
            return False
        return self.baseline is None or self.current is None


class InvalidMetricError(ValueError):
    """A gated metric holds a value the gate must not silently accept."""


def _extract(report: dict, dotted: str) -> Optional[float]:
    """Resolve a dotted path to a finite number, None if absent.

    A list on the path stands for repeated runs: the rest of the path is
    resolved in every element and the median returned (None if any element
    lacks it). Booleans (``isinstance(True, int)``!) and non-finite floats
    raise :class:`InvalidMetricError` — a report asserting ``"fps": NaN``
    would otherwise make every regression comparison vacuously false.
    """
    return _resolve(report, dotted.split("."), dotted)


def _resolve(node: object, parts: List[str], dotted: str) -> Optional[float]:
    if isinstance(node, list):
        values = [_resolve(item, parts, dotted) for item in node]
        if not values or any(v is None for v in values):
            return None
        return statistics.median(values)
    if parts:
        if not isinstance(node, dict):
            return None
        # Keys may hold dots themselves (``fhe.rotations``): take the
        # longest key that is a dotted prefix of the rest of the path.
        for cut in range(len(parts), 0, -1):
            key = ".".join(parts[:cut])
            if key in node:
                return _resolve(node[key], parts[cut:], dotted)
        return None
    if isinstance(node, bool):
        raise InvalidMetricError(f"{dotted} is a boolean, not a number")
    if not isinstance(node, (int, float)):
        return None
    value = float(node)
    if not math.isfinite(value):
        raise InvalidMetricError(f"{dotted} is non-finite ({node!r})")
    return value


def compare_reports(
    bench: str, current: Optional[dict], baseline: Optional[dict]
) -> List[MetricDelta]:
    """Deltas for every gated metric of one benchmark file.

    ``current=None`` (report missing or unparseable) with a baseline
    present is a hard failure per metric — a benchmark job that silently
    stops producing its report must not pass CI forever. A metric missing
    *inside* a present report stays a skip (new metrics gate only once both
    sides carry them); a missing baseline stays a skip (newly added bench).
    """
    deltas = []
    missing_current = current is None and baseline is not None
    for dotted, direction in GATED_METRICS.get(bench, ()):
        error = "missing current report" if missing_current else None
        bound = value = None
        try:
            if direction.startswith("floor:"):
                # The bound lives inside the current report itself.
                bound = _extract(current, direction.split(":", 1)[1]) if current else None
            else:
                bound = _extract(baseline, dotted) if baseline else None
            value = _extract(current, dotted) if current else None
        except InvalidMetricError as exc:
            error = str(exc)
            bound = value = None
        deltas.append(
            MetricDelta(
                bench=bench,
                metric=dotted,
                direction=direction,
                baseline=bound,
                current=value,
                error=error,
            )
        )
    return deltas


def _load(path: Path) -> Optional[dict]:
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def compare_dirs(current_dir: Path, baseline_dir: Path) -> List[MetricDelta]:
    """Deltas for every benchmark file named in :data:`GATED_METRICS`."""
    deltas: List[MetricDelta] = []
    for bench in sorted(GATED_METRICS):
        current = _load(current_dir / bench)
        baseline = _load(baseline_dir / bench)
        if current is None and baseline is None:
            continue  # benchmark never ran anywhere: nothing to gate
        deltas.extend(compare_reports(bench, current, baseline))
    return deltas


def render_table(deltas: Sequence[MetricDelta], tolerance: float) -> str:
    """The per-benchmark delta table the CI log shows."""
    header = (
        f"{'benchmark':<36} {'metric':<44} {'baseline':>12} {'current':>12} "
        f"{'change':>9}  verdict"
    )
    lines = [header, "-" * len(header)]
    for d in deltas:
        baseline = f"{d.baseline:.3f}" if d.baseline is not None else "-"
        current = f"{d.current:.3f}" if d.current is not None else "-"
        if d.error is not None:
            change, verdict = "-", f"FAIL ({d.error})"
        elif d._invalid:
            change, verdict = "-", "FAIL (invalid metric value)"
        elif d.skipped:
            change, verdict = "-", "SKIP (missing side)"
        elif d.is_floor:
            change = f"{d.change:+.1%}"
            verdict = "FAIL (exceeds floor)" if d.regressed(tolerance) else "ok (under floor)"
        else:
            change = f"{d.change:+.1%}"
            if d.regressed(tolerance):
                verdict = f"FAIL (>{tolerance:.0%} regression)"
            elif d.change < 0:
                verdict = "ok (within tolerance)"
            else:
                verdict = "ok"
        lines.append(
            f"{d.bench:<36} {d.metric:<44} {baseline:>12} {current:>12} {change:>9}  {verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perfgate", description="compare BENCH_*.json against committed baselines"
    )
    parser.add_argument("--current", default="benchmarks", type=Path)
    parser.add_argument("--baseline", default="benchmarks/baselines", type=Path)
    parser.add_argument("--tolerance", default=DEFAULT_TOLERANCE, type=float)
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be >= 0")

    deltas = compare_dirs(args.current, args.baseline)
    if not deltas:
        print(f"perfgate: no gated benchmark files under {args.current} or {args.baseline}")
        return 0
    print(render_table(deltas, args.tolerance))
    failures = [d for d in deltas if d.regressed(args.tolerance)]
    if failures:
        print(
            f"\nperfgate: {len(failures)} metric(s) regressed past "
            f"{args.tolerance:.0%} — failing the build",
            file=sys.stderr,
        )
        return 1
    print(f"\nperfgate: all gated metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
