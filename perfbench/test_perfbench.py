"""Tests of the benchmark itself: input determinism, metric names, tracing.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from featreg import InferenceConfig  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("register-sparse", "train"):
        digests = [workloads.make_workload(name, seed, tmp_path / f"{name}-{k}").setup()
                   for k, seed in enumerate((5, 5, 6))]
        assert digests[0] == digests[1], name
        assert digests[0] != digests[2], name


def _result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = _result_line("train", trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in SPEC[key]}
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(v["unit"] == units[k] for k, v in line["metrics"].items())


def _traced(wl, i: int):
    tracer = tracing.Tracer()
    with tracer.wrap_call_sites(), tracer.request("request"):
        out = wl.run(i)
    return out, tracer


def test_tracing_does_not_change_registration(tmp_path):
    wl = workloads.RegisterWorkload(7, tmp_path, 512, InferenceConfig(max_keypoints=64), pool_pairs=1)
    wl.setup()
    plain = wl.run(0)
    traced, tracer = _traced(wl, 0)
    assert traced.result == plain.result
    names = {s.name for s in tracer.spans}
    assert {"bench.load_cloud", "register.detect_keypoints", "net.detect_many",
            "register.ransac_register", "register.estimate_rigid_svd"} <= names
    assert tracer.counts["register.points_scored"] == 1024
    # every wrapper was put back
    assert workloads.register.detect_many is workloads.detect_many


def test_tracing_does_not_change_training(tmp_path):
    wl = workloads.TrainWorkload(7, tmp_path)
    wl.setup()
    plain = wl.run(0)
    traced, tracer = _traced(wl, 0)
    assert traced.result == plain.result
    assert np.isfinite(plain.result[0])
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["net.cluster_rows"][0] == metrics["net.graph_rows"][0] > 0
    assert metrics["autodiff.backward_s"][0] > 0
