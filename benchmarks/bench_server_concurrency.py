"""Engine — concurrent PlanServer throughput vs per-request single-runner serving.

PR 3's :class:`~repro.engine.runner.InferenceRunner` is single-stream: a
deployment without a scheduler serves each incoming request the moment it
arrives, i.e. one ``predict(sample[None])`` per request, and its own
docstring "leaves concurrency to the caller".  The
:class:`~repro.engine.server.PlanServer` is that caller: requests coalesce
through the dynamic batcher into fat batches across a pool of shard
executors.  This benchmark pins the serving contract on a stream of
distinct single-sample requests:

* **equivalence**: every server response is bit-identical to the
  per-request single-runner response (float64 plans);
* **aggregate throughput**: the 2-shard server sustains >= 1.3x the
  single-runner per-request path at the default scale (the 1-shard server
  is recorded alongside for the sharding breakdown).

Run directly (``python benchmarks/bench_server_concurrency.py``) or through
pytest.  Either entry point writes a ``BENCH_server.json`` artifact
(override the location with ``REPRO_BENCH_SERVER_ARTIFACT``); ``tiny``-scale
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


def _settings():
    """Workload per benchmark scale (image/width/request count/knobs)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, requests=20, max_batch=8,
                    max_wait_ms=1.0, repeats=2)
    return dict(image=14, width=0.5, requests=96, max_batch=16,
                max_wait_ms=2.0, repeats=3)


def _build_artifact(tmp_dir, cfg):
    """Train-free ResNet-8 artifact: calibrate, freeze, save, cached load."""
    model = calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    engine.save_model_plan(engine.compile_model_plan(model), path)
    engine.clear_plan_cache()
    plan = engine.load_plan_cached(path)
    assert engine.load_plan_cached(path) is plan   # hot reload is cached
    return plan


def _request_stream(cfg):
    """``requests`` distinct seeded single-sample inputs."""
    rng = np.random.default_rng(1)
    return np.abs(rng.normal(
        size=(cfg["requests"], 3, cfg["image"], cfg["image"])))


def _time_per_request_runner(plan, samples, repeats: int):
    """Per-request serving through a single InferenceRunner (the PR 3 path)."""
    runner = engine.InferenceRunner(plan, batch_size=1)
    best = float("inf")
    outputs = None
    for _ in range(repeats):
        start = time.perf_counter()
        outputs = [runner.predict(sample[None])[0] for sample in samples]
        best = min(best, time.perf_counter() - start)
    return best, outputs


def _time_server(plan, samples, cfg, n_shards: int, repeats: int):
    """Aggregate time for the whole request stream through one PlanServer."""
    best = float("inf")
    outputs = None
    report = None
    for _ in range(repeats):
        with engine.PlanServer(plan, n_shards=n_shards,
                               max_batch=cfg["max_batch"],
                               max_wait_ms=cfg["max_wait_ms"]) as server:
            start = time.perf_counter()
            futures = server.submit_many(samples)
            outputs = [future.result(timeout=60.0) for future in futures]
            best = min(best, time.perf_counter() - start)
            report = server.stats_report()
    return best, outputs, report


def run_server_concurrency():
    """Measure per-request single-runner serving vs the concurrent server."""
    cfg = _settings()
    import tempfile
    with tempfile.TemporaryDirectory() as tmp_dir:
        plan = _build_artifact(tmp_dir, cfg)
    samples = _request_stream(cfg)
    n_requests = samples.shape[0]
    plan.execute(samples[: cfg["max_batch"]])  # warm up lazy state

    t_runner, runner_out = _time_per_request_runner(plan, samples,
                                                    cfg["repeats"])
    t_one, one_out, _ = _time_server(plan, samples, cfg, n_shards=1,
                                     repeats=cfg["repeats"])
    t_two, two_out, two_report = _time_server(plan, samples, cfg, n_shards=2,
                                              repeats=cfg["repeats"])

    drift = max(float(np.abs(np.asarray(server_out) -
                             np.asarray(runner_out)).max())
                for server_out in (one_out, two_out))
    return {
        "requests": n_requests,
        "max_batch": cfg["max_batch"],
        "max_wait_ms": cfg["max_wait_ms"],
        "parity_max_abs_diff": drift,
        "runner_per_request_s": t_runner,
        "server_1shard_s": t_one,
        "server_2shard_s": t_two,
        "runner_throughput": n_requests / t_runner,
        "server_1shard_throughput": n_requests / t_one,
        "server_2shard_throughput": n_requests / t_two,
        "speedup_1shard": t_runner / t_one,
        "speedup_2shard": t_runner / t_two,
        "server_2shard_stats": {
            "scheduler": two_report["scheduler"],
            "shard_samples": [shard["samples"]
                              for shard in two_report["shards"]],
        },
    }


def write_artifact(results, path=None):
    """Write the results to ``BENCH_server.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_SERVER_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("server_concurrency", "BENCH_server.json",
                           "REPRO_BENCH_SERVER_ARTIFACT", results, path=path)


def _report(results) -> None:
    print()
    print(f"requests={results['requests']}  "
          f"max_batch={results['max_batch']}  "
          f"parity max|diff|={results['parity_max_abs_diff']:.2e}")
    print(f"runner/request : {results['runner_per_request_s'] * 1e3:8.1f} ms  "
          f"{results['runner_throughput']:8.1f} req/s")
    print(f"server 1 shard : {results['server_1shard_s'] * 1e3:8.1f} ms  "
          f"{results['server_1shard_throughput']:8.1f} req/s  "
          f"({results['speedup_1shard']:.2f}x)")
    print(f"server 2 shard : {results['server_2shard_s'] * 1e3:8.1f} ms  "
          f"{results['server_2shard_throughput']:8.1f} req/s  "
          f"({results['speedup_2shard']:.2f}x)")
    stats = results["server_2shard_stats"]
    print(f"  scheduler: {stats['scheduler']['batches']} batches, "
          f"mean {stats['scheduler']['mean_batch']:.1f}, "
          f"shard split {stats['shard_samples']}")


def test_server_concurrency_and_parity():
    """Acceptance: bit-identical serving and >= 1.3x aggregate throughput
    for the 2-shard server over per-request single-runner serving."""
    results = run_server_concurrency()
    _report(results)
    write_artifact(results)
    assert results["parity_max_abs_diff"] == 0.0, (
        f"server responses drifted from the single-runner path by "
        f"{results['parity_max_abs_diff']:.2e} (float64 must be bit-exact)")
    assert results["speedup_2shard"] >= 1.3, (
        f"2-shard server only {results['speedup_2shard']:.2f}x the "
        "per-request single-runner throughput (expected >= 1.3x)")


if __name__ == "__main__":
    _results = run_server_concurrency()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
