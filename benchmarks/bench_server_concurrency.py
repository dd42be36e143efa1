"""Engine — concurrent PlanServer throughput vs per-request single-runner serving.

PR 3's :class:`~repro.engine.runner.InferenceRunner` is single-stream: a
deployment without a scheduler serves each incoming request the moment it
arrives, i.e. one ``predict(sample[None])`` per request, and its own
docstring "leaves concurrency to the caller".  The
:class:`~repro.engine.server.PlanServer` is that caller: requests coalesce
through the dynamic batcher into fat batches across a pool of shard
executors.  This benchmark pins the serving contract on a stream of
distinct single-sample requests, with the server at its shipped defaults
(an idle shard takes pending work at once):

* **equivalence**: every server response is bit-identical to the
  per-request single-runner response (float64 plans);
* **aggregate throughput**: the 2-shard server sustains >= 1.3x the
  single-runner per-request path at the default scale (the 1-shard server
  is recorded alongside for the sharding breakdown).

Run directly (``python benchmarks/bench_server_concurrency.py``) or through
pytest; either entry point writes ``BENCH_server.json`` through
``perf.main`` (not at the ``tiny`` scale).
"""

import os
import tempfile

import numpy as np

import perf
from repro import engine


def _settings():
    """Workload per benchmark scale (image/width/request count/batch cap)."""
    if perf.bench_scale() == "tiny":
        return dict(image=10, width=0.25, requests=20, max_batch=8)
    return dict(image=14, width=0.5, requests=96, max_batch=16)


def _build_artifact(tmp_dir, cfg):
    """Train-free ResNet-8 artifact: calibrate, freeze, save, load."""
    model = perf.calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    engine.save_model_plan(engine.compile_model_plan(model), path)
    return engine.load_plan(path)


def run_server_concurrency():
    """Per-request single-runner serving vs a 1- and a 2-shard server."""
    cfg = _settings()
    with tempfile.TemporaryDirectory() as tmp_dir:
        plan = _build_artifact(tmp_dir, cfg)
    samples = np.abs(np.random.default_rng(perf.SEED).normal(
        size=(cfg["requests"], 3, cfg["image"], cfg["image"])))
    runner = engine.InferenceRunner(plan, batch_size=1)

    def per_request():
        return [runner.predict(sample[None])[0] for sample in samples]

    def through(server):
        return lambda: [future.result(timeout=60.0)
                        for future in server.submit_many(samples)]

    with engine.PlanServer(plan, n_shards=1, max_batch=cfg["max_batch"]) as one, \
            engine.PlanServer(plan, n_shards=2,
                              max_batch=cfg["max_batch"]) as two:
        timing, returns = perf.rotate({"runner_per_request": per_request,
                                       "server_1shard": through(one),
                                       "server_2shard": through(two)})
        report = two.stats_report()
    expected = np.asarray(returns["runner_per_request"][-1])
    drift = max(float(np.abs(np.asarray(out) - expected).max())
                for side in ("server_1shard", "server_2shard")
                for out in returns[side])
    runner_s = timing["runner_per_request"]["median_s"]
    return {
        "requests": cfg["requests"],
        "max_batch": cfg["max_batch"],
        "parity_max_abs_diff": drift,
        **timing,
        "speedup_1shard": runner_s / timing["server_1shard"]["median_s"],
        "speedup_2shard": runner_s / timing["server_2shard"]["median_s"],
        "server_2shard_stats": {
            "scheduler": report["scheduler"],
            "shard_samples": [shard["samples"] for shard in report["shards"]],
        },
    }


def test_server_concurrency_and_parity():
    """Acceptance: bit-identical serving and >= 1.3x aggregate throughput
    for the 2-shard server over per-request single-runner serving."""
    results = perf.main("server", run_server_concurrency)
    assert results["parity_max_abs_diff"] == 0.0, (
        f"server responses drifted from the single-runner path by "
        f"{results['parity_max_abs_diff']:.2e} (float64 must be bit-exact)")
    assert results["speedup_2shard"] >= 1.3, (
        f"2-shard server only {results['speedup_2shard']:.2f}x the "
        "per-request single-runner throughput (expected >= 1.3x)")


if __name__ == "__main__":
    test_server_concurrency_and_parity()
