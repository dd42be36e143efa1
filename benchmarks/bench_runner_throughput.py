"""Engine — batched InferenceRunner throughput vs a naive per-sample loop.

The model-level artifacts (``repro.engine.model_plan``) make deployment a
pure-NumPy affair: ``engine.load_plan`` rebuilds a ResNet-8 classifier from
one ``.npz`` file with no QAT objects, and ``engine.InferenceRunner`` serves
a sample stream through micro-batched GEMMs.
This benchmark pins the serving contract:

* **equivalence**: the loaded artifact's logits match the frozen in-process
  model to <= 1e-10 (float64 plans are bit-exact by construction);
* **throughput**: the micro-batched runner is at least 1.5x faster than a
  naive loop calling the same plan one sample at a time (in practice the
  gap is several x — batched GEMMs amortize every per-call overhead).

Run directly (``python benchmarks/bench_runner_throughput.py``) or through
pytest.  Either entry point writes a ``BENCH_runner.json`` artifact
(override the location with ``REPRO_BENCH_RUNNER_ARTIFACT``); ``tiny``-scale
smoke runs skip the write so `make bench-smoke` never clobbers the tracked
default-scale numbers.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_artifacts import (bench_scale, calibrated_frozen_resnet8,
                             write_artifact as _write_artifact)

from repro import engine
from repro.nn import Tensor


def _settings():
    """Workload per benchmark scale (image/width/stream length/batch size)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, samples=24, batch=8, repeats=2)
    return dict(image=14, width=0.5, samples=96, batch=16, repeats=3)


def _build_artifact(tmp_dir, cfg):
    """Train-free ResNet-8 artifact: calibrate, freeze, save, load."""
    model = calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    rng = np.random.default_rng(100)
    reference_in = np.abs(rng.normal(size=(2, 3, cfg["image"], cfg["image"])))
    reference_out = model(Tensor(reference_in)).data.copy()
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    engine.save_model_plan(engine.compile_model_plan(model), path)
    plan = engine.load_plan(path)
    drift = float(np.abs(plan.execute(reference_in) - reference_out).max())
    return plan, drift


def _time_naive(plan, stream, repeats: int) -> float:
    """Seconds for a per-sample loop over the stream (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for sample in stream:
            plan.execute(sample[None])
        best = min(best, time.perf_counter() - start)
    return best


def _time_runner(plan, stream, batch: int, repeats: int):
    """Seconds for the micro-batched runner (best of ``repeats``), plus stats."""
    runner = engine.InferenceRunner(plan, batch_size=batch)
    best = float("inf")
    for _ in range(repeats):
        runner.stats.reset()
        start = time.perf_counter()
        for _out in runner.run(iter(stream)):
            pass
        best = min(best, time.perf_counter() - start)
    return best, runner.stats


def run_runner_throughput():
    """Measure naive per-sample vs micro-batched serving on a ResNet-8 plan."""
    cfg = _settings()
    import tempfile
    with tempfile.TemporaryDirectory() as tmp_dir:
        plan, drift = _build_artifact(tmp_dir, cfg)
    stream = np.abs(np.random.default_rng(1).normal(
        size=(cfg["samples"], 3, cfg["image"], cfg["image"])))
    plan.execute(stream[: cfg["batch"]])   # warm up caches and lazy state
    t_naive = _time_naive(plan, stream, cfg["repeats"])
    t_runner, stats = _time_runner(plan, stream, cfg["batch"], cfg["repeats"])
    slowest = stats.per_layer()[:3]
    return {
        "samples": cfg["samples"],
        "batch_size": cfg["batch"],
        "load_parity_max_abs_diff": drift,
        "naive_s": t_naive,
        "runner_s": t_runner,
        "naive_throughput": cfg["samples"] / t_naive,
        "runner_throughput": cfg["samples"] / t_runner,
        "speedup": t_naive / t_runner,
        "slowest_layers": [
            {"name": name, "seconds": secs, "calls": calls}
            for name, secs, calls in slowest],
    }


def write_artifact(results, path=None):
    """Write the results to ``BENCH_runner.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_RUNNER_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("runner_throughput", "BENCH_runner.json",
                           "REPRO_BENCH_RUNNER_ARTIFACT", results, path=path)


def _report(results) -> None:
    print()
    print(f"samples={results['samples']}  batch={results['batch_size']}  "
          f"load parity max|diff|={results['load_parity_max_abs_diff']:.2e}")
    print(f"naive  : {results['naive_s'] * 1e3:8.1f} ms  "
          f"{results['naive_throughput']:8.1f} im/s")
    print(f"runner : {results['runner_s'] * 1e3:8.1f} ms  "
          f"{results['runner_throughput']:8.1f} im/s  "
          f"({results['speedup']:.2f}x)")
    for row in results["slowest_layers"]:
        print(f"  slowest: {row['name']:24} {row['seconds'] * 1e3:7.2f} ms "
              f"over {row['calls']} batches")


def test_runner_throughput_and_parity():
    """Acceptance: load parity <= 1e-10 and runner >= 1.5x over a naive loop."""
    results = run_runner_throughput()
    _report(results)
    write_artifact(results)
    assert results["load_parity_max_abs_diff"] <= 1e-10, (
        f"loaded artifact drifted by {results['load_parity_max_abs_diff']:.2e}")
    assert results["speedup"] >= 1.5, (
        f"micro-batched runner only {results['speedup']:.2f}x faster than the "
        "naive per-sample loop (expected >= 1.5x)")


if __name__ == "__main__":
    _results = run_runner_throughput()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
