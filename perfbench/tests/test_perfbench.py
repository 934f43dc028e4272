"""Tests of the benchmark itself: each output check can fail, and every metric
named in BENCHMARK.json is emitted.

The workloads here are shrunk versions of the benchmark's, so the tests run
in seconds; the checks and the metric code are the benchmark's own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


def small_verify(tmp_path):
    return workloads.VerifyCorpus(1, graphs=("path:3", "cycle:3", "complete:3"), passes=2, warmup_graph="path:2")


def small_spectrum(tmp_path):
    return workloads.SpectrumCap(1, str(tmp_path), n=8, p=0.4, k=3, graphs=2)


def small_evolve(tmp_path):
    return workloads.EvolveChain(1, n=6, k=2, times=3, ops=2)


SMALL = {"verify_corpus": small_verify, "spectrum_cap": small_spectrum, "evolve_chain": small_evolve}


def benchmark(tmp_path, name, trace=False, call=run.invoke):
    result, _ = run.run_benchmark(lambda: SMALL[name](tmp_path), 0.0, trace, setup_repeats=1, call=call)
    return result


def corrupting(corrupt):
    def call(argv):
        dt, rc, out, err = run.invoke(argv)
        return dt, *corrupt(rc, out), err

    return call


def perturb_eigenvalue(rc, out):
    payload = json.loads(out)
    payload["blocks"][0]["spectrum"]["values"][0] += 1e-3
    return rc, json.dumps(payload)


def drop_eigenvalue(rc, out):
    payload = json.loads(out)
    del payload["blocks"][0]["spectrum"]["values"][-1]
    return rc, json.dumps(payload)


def swap_probabilities(rc, out):
    # The sum still comes to 1, so only the determinant check can see this.
    series = json.loads(out)
    probs = series[-1]["probabilities"]
    i, j = max(range(len(probs)), key=probs.__getitem__), min(range(len(probs)), key=probs.__getitem__)
    probs[i], probs[j] = probs[j], probs[i]
    return rc, json.dumps(series)


def scale_probabilities(rc, out):
    series = json.loads(out)
    series[0]["probabilities"] = [1.01 * p for p in series[0]["probabilities"]]
    return rc, json.dumps(series)


CORRUPTIONS = [
    ("verify_corpus", lambda rc, out: (rc, out.replace("[PASS]", "[FAIL]", 1))),
    ("verify_corpus", lambda rc, out: (1, out)),
    ("verify_corpus", lambda rc, out: (rc, out.replace(" 0 failed", " 1 failed"))),
    ("spectrum_cap", perturb_eigenvalue),
    ("spectrum_cap", drop_eigenvalue),
    ("spectrum_cap", lambda rc, out: (rc, out[: len(out) // 2])),
    ("evolve_chain", swap_probabilities),
    ("evolve_chain", scale_probabilities),
    ("evolve_chain", lambda rc, out: (2, out)),
]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_outputs_pass(tmp_path, name):
    result = benchmark(tmp_path, name)
    assert result["correct"], result["detail"]["failures"]
    assert result["failed"] == 0 and result["detail"]["fail_frac"] == 0.0


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_corrupted_output_fails(tmp_path, name, corrupt):
    result = benchmark(tmp_path, name, call=corrupting(corrupt))
    assert result["detail"]["fail_frac"] > 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    import spinwedge.cli

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(spinwedge.cli, "main", boom)
    result = benchmark(tmp_path, "evolve_chain")
    assert result["detail"]["fail_frac"] == 1.0
    assert "RuntimeError: boom" in result["detail"]["failures"][0]


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_benchmark_metric_is_emitted(tmp_path, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        result = benchmark(tmp_path, workload["name"], trace=trace)
        metrics = result["metrics"]
        assert {m["name"]: m["unit"] for m in spec[section]} == {k: v["unit"] for k, v in metrics.items()}
        assert all(isinstance(v["value"], float) for v in metrics.values())


def test_traced_run_records_layers(tmp_path):
    result = benchmark(tmp_path, "verify_corpus", trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["verify.checks"] > 0 and metrics["wedge.hops"] > 0
    assert metrics["linalg.det.calls"] > 0 and metrics["linalg.eig_n3"] > 0
    assert 0 < metrics["wedge.build_unique_ratio"] < 1
    import spinwedge.spins

    assert not hasattr(spinwedge.spins.build_wedge_graph, "__wrapped__"), "tracing left a wrapper behind"


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, None, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0), ("d", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_recorder_nests_spans_only_inside_an_op():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    assert recorder.spans == []
    with recorder.op(7):
        outer()
    assert recorder.spans == [("outer", 0.0, 3.0, None, 7), ("inner", 1.0, 2.0, 0, 7)]


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == (19.0, 50.0, 20)
    assert run.tail([float(i) for i in range(200)]) == (179.0, 90.0, 20)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum_cap", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
