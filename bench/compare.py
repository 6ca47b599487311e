"""Compare two benchmark reports, workload by workload.

    python3 bench/compare.py before.json after.json

Both files come from ``bench/run.py --out``. For every workload and
end-to-end metric it prints each side's median and IQR over its runs, the
change of the median (positive = worse, in the metric's own direction) and
a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``      the median got worse by more than the bound;
* ``better``     the median improved by more than the first side's spread;
* ``unchanged``  neither;
* ``unresolved`` a side's spread (IQR over median) exceeds the bound and
  the runs of the two sides overlap, so the bound cannot resolve a change.

The traced runs' per-layer values follow, side by side, so a change can be
traced to the layer that moved. Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Sequence, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(median, IQR) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def verdict(before: Sequence[float], after: Sequence[float], better: str, bound: float):
    """(worsening as a share of the first median, label) for one metric."""
    med_a, iqr_a = quartiles(before)
    med_b, iqr_b = quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / med_a
    spread_a, spread_b = iqr_a / med_a, iqr_b / med_b
    separated = max(after) < min(before) or min(after) > max(before)
    if max(spread_a, spread_b) > bound and not separated:
        return worsening, "unresolved"
    if worsening > bound:
        return worsening, "worse"
    if -worsening > spread_a:
        return worsening, "better"
    return worsening, "unchanged"


def compare(a: dict, b: dict) -> int:
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from the second report")
            continue
        runs_a, runs_b = a["workloads"][name]["runs"], b["workloads"][name]["runs"]
        print(f"\n{name} ({len(runs_a)} vs {len(runs_b)} runs)")
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            va, vb = [r[key] for r in runs_a], [r[key] for r in runs_b]
            change, label = verdict(va, vb, metric["better"], metric["bound"])
            worse += label == "worse"
            (ma, ia), (mb, ib) = quartiles(va), quartiles(vb)
            print(
                f"  {key:<14} {ma:>11.4f} (IQR {ia:.4f}) -> {mb:>11.4f} (IQR {ib:.4f}) "
                f"{metric['unit']:<9} {100 * change:+6.1f}%  bound {100 * metric['bound']:.0f}%  {label}"
            )
        traced_a, traced_b = a["workloads"][name]["traced"], b["workloads"][name]["traced"]
        frame_a, frame_b = traced_a["obs.traced_frame_ms"], traced_b["obs.traced_frame_ms"]
        print("  traced, per layer (shares also as ms/frame):")
        for metric in SPEC["per_layer"]:
            key = metric["name"]
            x, y = traced_a.get(key, 0.0), traced_b.get(key, 0.0)
            if x or y:
                delta = f"{100 * (y - x) / x:+7.1f}%" if x else ""
                ms = f"  {x * frame_a:9.2f} -> {y * frame_b:9.2f} ms" if key.endswith("_share") else ""
                print(f"    {key:<36} {x:>11.4f} -> {y:>11.4f} {metric['unit']:<12} {delta}{ms}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    return compare(before, after)


if __name__ == "__main__":
    sys.exit(main())
