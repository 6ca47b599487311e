"""Checks of the benchmark itself. Run with ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths``: the result-line tests start one quick
run per workload and mode (under a minute in all).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_traced_self_times_fit_inside_transcipher(results):
    from layers import LAYERS

    metrics = {k: m["value"] for k, m in results["hhe_frame", 1]["metrics"].items()}
    self_shares = {f"{layer}_share": metrics[f"{layer}_share"] for layer in LAYERS}
    assert all(v >= 0 for v in self_shares.values()), self_shares
    transcipher = metrics["hhe.prepare_share"] + metrics["hhe.evaluate_share"]
    assert sum(self_shares.values()) <= transcipher * (1 + 1e-9)
    assert 0 < metrics["hhe.prepare_share"] < transcipher <= 1


@pytest.mark.parametrize("workload", ["client_encrypt", "hhe_frame"])
def test_wrapped_layers_explain_the_frame(results, workload):
    assert results[workload, 1]["metrics"]["obs.layer_coverage"]["value"] >= 0.9


def test_tampered_message_fails_the_check():
    from workloads import ClientEncrypt

    workload = ClientEncrypt(seed=3, quick=True)
    workload.build(0)
    inp = workload.make_input(1)
    out = workload.execute(inp)
    assert workload.check([(inp, out)], {}) == 0
    for position in (17, -1):
        tampered = out.copy()
        tampered[position] = (tampered[position] + 1) % workload.params.p
        assert workload.check([(inp, tampered)], {}) == 1
    # The same nonce twice is a failure even when both outputs are right.
    assert workload.check([(inp, out), (inp, out)], {}) == 1


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "client_encrypt", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_labels_spread_beyond_the_bound_unresolved():
    from compare import verdict

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, "higher", 0.1)[1] == "unchanged"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[1] == "worse"
    assert verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[1] == "better"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert verdict(steady, noisy, "higher", 0.1)[1] == "unresolved"
