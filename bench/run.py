"""Cold-path frame benchmark: the edge client and the HHE server.

One workload, one interpreter (the form automated runs use)::

    python3 bench/run.py --workload client_encrypt --seed 1 --seconds 40 --trace 0

sets the workload up several times, warms it, then
runs frames for ``--seconds``, each on a fresh nonce, and checks every
output after the timed loop. It prints a summary, then as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A traced run alternates traced and untraced
frames; only the traced ones feed the layer times. It exits 1 when a check
fails.

Without ``--trace`` it runs every workload (or the one named) in fresh
interpreters, ``--repeats`` untraced runs on consecutive seeds plus one
traced run, and prints each metric's median, IQR and run count; ``--out``
writes the runs as JSON for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
QUICK_SECONDS = 2
#: Frames measured at least, so obs.frame_p75_ms has ten samples beyond it.
MIN_FRAMES = 40


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: List[float], blocks: int, measured: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "blocks_per_s": blocks * len(measured) / sum(measured),
        "frame_p50_ms": 1e3 * statistics.median(measured),
    }


def per_layer(workload, tracer, measured, traced, stats) -> Dict[str, float]:
    """Per-layer metrics of the traced frames.

    Layer times are shares of the traced frames' wall-clock time:
    ``<layer>_share`` is the layer's self time. A share stays comparable
    when the whole host slows down, and a layer the workload never calls
    reads 0 as a ratio, not as a constant time.
    """
    from layers import LAYERS, ROOTS
    from repro.obs.cycles import modeled_block_cycles

    frames = len(traced)
    blocks = workload.blocks * frames
    wall = sum(traced)
    layers = tracer.stats()
    counters = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    transcipher = layers["hhe.transcipher"].inclusive
    prepare = tracer.prepare_seconds
    return {
        **{f"{layer}_share": layers[layer].self_time / wall for layer in LAYERS},
        "keccak.permutations_per_block": layers["keccak.squeeze"].work / blocks,
        "pasta.cache_hits_per_block": counters["pasta.cache_hits"] / blocks,
        "pasta.cache_misses_per_block": counters["pasta.cache_misses"] / blocks,
        "hhe.prepare_share": prepare / wall,
        "hhe.evaluate_share": (transcipher - prepare) / wall,
        "hhe.prepared_hit_ratio": ratio(
            counters["hhe.prepared_hits"],
            counters["hhe.prepared_hits"] + counters["hhe.prepared_misses"],
        ),
        "hhe.response_bytes_per_block": stats.get("response_bytes_per_block", 0.0),
        "fhe.ntt_calls": (layers["fhe.ntt_fwd"].calls + layers["fhe.ntt_inv"].calls) / frames,
        "fhe.rotations": stats.get("ops.rotations", 0),
        "fhe.decompositions": stats.get("ops.decompositions", 0),
        "fhe.relins": stats.get("ops.relins", 0),
        "fhe.plain_muls": stats.get("ops.plain_muls", 0),
        "fhe.rns_limbs": stats.get("rns_limbs", 0),
        "fhe.modeled_headroom_bits": stats.get("modeled_headroom_bits", 0.0),
        "fhe.measured_budget_bits": stats.get("measured_budget_bits", 0.0),
        "hw.modeled_cycles_per_block": modeled_block_cycles(workload.params),
        "obs.frame_p75_ms": 1e3 * percentile(measured, 75),
        "obs.traced_frame_ms": 1e3 * wall / frames,
        "obs.trace_overhead_frac": statistics.mean(traced) / statistics.mean(measured) - 1,
        "obs.layer_coverage": ratio(
            sum(tracer.under(r) for r in ROOTS), sum(layers[r].inclusive for r in ROOTS)
        ),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    from layers import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    index = itertools.count()
    setup: List[float] = []

    def next_input():
        if workload.setups is None or len(setup) < workload.setups:
            start = time.perf_counter()
            workload.build(next(index))
            setup.append(time.perf_counter() - start)
        return workload.make_input(next(index))

    done, measured, traced = [], [], []
    for _ in range(workload.warmup):
        inp = next_input()
        done.append((inp, workload.execute(inp)))

    tracer = LayerTracer()
    with tracer if trace else contextlib.nullcontext():
        deadline = time.perf_counter() + seconds
        for k in itertools.count():
            traced_frame = trace and k % 2 == 1
            inp = next_input()
            if traced_frame:
                tracer.start()
            start = time.perf_counter()
            out = workload.execute(inp)
            elapsed = time.perf_counter() - start
            if traced_frame:
                tracer.stop()
            (traced if traced_frame else measured).append(elapsed)
            done.append((inp, out))
            enough = quick or len(measured) >= MIN_FRAMES
            if time.perf_counter() >= deadline and enough and (traced or not trace):
                break

    stats: Dict[str, float] = {}
    failed = workload.check(done, stats)
    if trace:
        values = per_layer(workload, tracer, measured, traced, stats)
        names = [m["name"] for m in SPEC["per_layer"]]
    else:
        values = end_to_end(setup, workload.blocks, measured)
        names = [m["name"] for m in SPEC["end_to_end"]]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": UNITS[n]} for n in names},
    }


# -- every workload, each in a fresh interpreter ----------------------------------


def _subprocess(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def run_all(names: Sequence[str], seed: int, seconds: float, repeats: int, quick: bool) -> dict:
    report = {"seed": seed, "seconds": seconds, "quick": quick, "workloads": {}}
    for name in names:
        runs = [_subprocess(name, seed + i, seconds, 0, quick) for i in range(repeats)]
        traced = _subprocess(name, seed + repeats, seconds, 1, quick)
        report["workloads"][name] = {
            "runs": [{k: m["value"] for k, m in r["metrics"].items()} for r in runs],
            "traced": {k: m["value"] for k, m in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
        }
        print_workload(name, report["workloads"][name])
    return report


def print_workload(name: str, entry: dict) -> None:
    from compare import quartiles

    runs = entry["runs"]
    print(f"\n{name}: {entry['failed']} of {entry['attempted']} frames failed")
    for metric in SPEC["end_to_end"]:
        median, iqr = quartiles([r[metric["name"]] for r in runs])
        print(f"  {metric['name']:<38} {median:>12.4f} {metric['unit']:<12} IQR {iqr:.4f}  n={len(runs)}")
    print("  traced run, per layer:")
    for metric in SPEC["per_layer"]:
        print(f"    {metric['name']:<36} {entry['traced'][metric['name']]:>12.4f} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload here and print its JSON result line: "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="one build, one warm-up frame and short runs")
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, help="write the runs as JSON (all-workloads mode)")
    args = parser.parse_args(argv)
    seconds = args.seconds or (QUICK_SECONDS if args.quick else SPEC["run_seconds"])

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
        for name, metric in result["metrics"].items():
            print(f"{name:<38} {metric['value']:>14.4f} {metric['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    report = run_all(names, args.seed, seconds, args.repeats, args.quick)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(w["failed"] == 0 for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
