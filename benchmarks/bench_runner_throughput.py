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
pytest; either entry point writes ``BENCH_runner.json`` through
``perf.main`` (not at the ``tiny`` scale).
"""

import os
import tempfile

import numpy as np

import perf
from repro import engine
from repro.nn import Tensor


def _settings():
    """Workload per benchmark scale (image/width/stream length/batch size)."""
    if perf.bench_scale() == "tiny":
        return dict(image=10, width=0.25, samples=24, batch=8)
    return dict(image=14, width=0.5, samples=96, batch=16)


def _build_artifact(tmp_dir, cfg):
    """Train-free ResNet-8 artifact: calibrate, freeze, save, load."""
    model = perf.calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    rng = np.random.default_rng(100)
    reference_in = np.abs(rng.normal(size=(2, 3, cfg["image"], cfg["image"])))
    reference_out = model(Tensor(reference_in)).data.copy()
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    engine.save_model_plan(engine.compile_model_plan(model), path)
    plan = engine.load_plan(path)
    drift = float(np.abs(plan.execute(reference_in) - reference_out).max())
    return plan, drift


def run_runner_throughput():
    """Naive per-sample loop vs micro-batched runner over one stream."""
    cfg = _settings()
    with tempfile.TemporaryDirectory() as tmp_dir:
        plan, drift = _build_artifact(tmp_dir, cfg)
    stream = np.abs(np.random.default_rng(perf.SEED).normal(
        size=(cfg["samples"], 3, cfg["image"], cfg["image"])))
    runner = engine.InferenceRunner(plan, batch_size=cfg["batch"])

    def naive():
        for sample in stream:
            plan.execute(sample[None])

    def batched():
        for _out in runner.run(iter(stream)):
            pass

    timing, _ = perf.rotate({"naive": naive, "runner": batched})
    return {
        "samples": cfg["samples"],
        "batch_size": cfg["batch"],
        "load_parity_max_abs_diff": drift,
        **timing,
        "speedup": timing["naive"]["median_s"] / timing["runner"]["median_s"],
    }


def test_runner_throughput_and_parity():
    """Acceptance: load parity <= 1e-10 and runner >= 1.5x over a naive loop."""
    results = perf.main("runner", run_runner_throughput)
    assert results["load_parity_max_abs_diff"] <= 1e-10, (
        f"loaded artifact drifted by {results['load_parity_max_abs_diff']:.2e}")
    assert results["speedup"] >= 1.5, (
        f"micro-batched runner only {results['speedup']:.2f}x faster than the "
        "naive per-sample loop (expected >= 1.5x)")


if __name__ == "__main__":
    test_runner_throughput_and_parity()
