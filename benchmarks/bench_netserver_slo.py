"""Engine — network front-end SLO benchmark: tail latency under load, not averages.

Every earlier serving benchmark measures *aggregate throughput*; a wire
front end is judged by what one request experiences at the tail.  This
load generator drives a live :class:`repro.engine.NetServer` (real sockets,
real JSON, a 2-shard :class:`PlanServer` at its shipped defaults behind it)
through four traffic shapes and reports client-side p50/p99:

* **sustained closed-loop** — K concurrent clients, each firing its next
  request the moment the previous answer lands: the steady-state operating
  point;
* **bursty open-loop** — B-request bursts on a fixed arrival schedule,
  regardless of completions, each request timed from its scheduled send:
  the shape that exposes queue-wait at the tail (open-loop arrival is the
  honest way to measure queueing — closed-loop clients self-throttle and
  hide it);
* **during swap** — the sustained fleet again while a roller thread
  re-saves the artifact and ``POST /v1/models/{name}/reload`` rolls the
  pool over mid-traffic: a rolling reload must drop nothing (``failed ==
  0``) and every reload must be counted, in ``/metrics`` too.  Its p99
  next to the sustained p99 is the cost of a swap;
* **saturation** — offered concurrency far above capacity against a small
  admission queue: asserts the server *rejects fast* (503 + Retry-After)
  while every accepted request still completes with **bounded p99** —
  admission control working, not queue collapse.

The first three shapes are the sides of ``perf.rotate``'s rotating trials.
Also pinned: every served row is bit-identical to the in-process
:class:`InferenceRunner` (drift 0.0), and the request and sample counters
conserve (``accepted + rejected == offered``).

Run directly (``python benchmarks/bench_netserver_slo.py``) or through
pytest; either entry point writes ``BENCH_netserver.json`` through
``perf.main`` (not at the ``tiny`` scale).
"""

import os
import tempfile
import threading
import time

import numpy as np

import perf
from repro import engine


def _settings():
    """Workload per benchmark scale (model size, client counts, schedules)."""
    if perf.bench_scale() == "tiny":
        return dict(image=10, width=0.25, sustained_clients=4,
                    sustained_requests=24, burst_size=6, n_bursts=4,
                    burst_interval_s=0.05, saturation_clients=16,
                    max_batch=8, queue_size=64, sat_queue_size=4,
                    sat_delay_s=0.03)
    return dict(image=14, width=0.5, sustained_clients=8,
                sustained_requests=96, burst_size=16, n_bursts=8,
                burst_interval_s=0.05, saturation_clients=48,
                max_batch=16, queue_size=128, sat_queue_size=8,
                sat_delay_s=0.05)


def _bursty(net, cfg, pool):
    """Open loop: request ``i`` is due ``(i // burst_size)`` intervals in."""
    latencies, outputs, lock = [], {}, threading.Lock()
    n = cfg["n_bursts"] * cfg["burst_size"]
    # the schedule starts once every thread exists: a thread started late
    # would charge the generator's own start-up to the server
    start = []
    ready = threading.Barrier(
        n, action=lambda: start.append(time.perf_counter()))

    def one_shot(i):
        ready.wait()
        due = start[0] + (i // cfg["burst_size"]) * cfg["burst_interval_s"]
        time.sleep(max(0.0, due - time.perf_counter()))
        index = i % len(pool)
        with perf.Client(net) as client:
            status, payload, _ = client.predict("resnet", pool[index].tolist())
        if status != 200:
            raise RuntimeError(f"predict answered {status}: {payload}")
        with lock:
            latencies.append(time.perf_counter() - due)
            outputs[index] = payload["outputs"][0]

    perf.fleet(n, one_shot)
    return latencies, outputs


def _phases(net, cfg, pool, plan, path):
    """The sustained, bursty and during-swap shapes as rotating trials."""
    per_client = cfg["sustained_requests"] // cfg["sustained_clients"]
    reloads = []

    def sustained():
        return perf.closed_loop(net, "resnet", pool,
                                cfg["sustained_clients"], per_client)

    def roll():
        time.sleep(0.01)                        # land mid-fleet
        engine.save_model_plan(plan, path)      # the operator's cp step
        with perf.Client(net) as client:
            status, body, _ = client.post("/v1/models/resnet/reload")
        if status == 200:
            reloads.append(body["reloads"])

    def during_swap():
        roller = threading.Thread(target=roll)
        roller.start()
        try:
            return sustained()
        finally:
            roller.join()

    timing, returns = perf.rotate({
        "sustained": sustained,
        "bursty": lambda: _bursty(net, cfg, pool),
        "during_swap": during_swap})
    phases, outputs = {}, []
    for name, runs in returns.items():
        latencies = [seconds for run, _ in runs for seconds in run]
        requests = len(latencies) // len(runs)
        phases[name] = {
            **timing[name],
            "requests": requests,
            "throughput_rps": requests / timing[name]["median_s"],
            "p50_ms": perf.common.percentile(latencies, 50.0) * 1e3,
            "p99_ms": perf.common.percentile(latencies, 99.0) * 1e3,
        }
        outputs.extend(out for _, out in runs)
    return phases, outputs, len(reloads)


class _SlowPlan:
    """Fixed-delay toy plan so the saturation scenario is deterministic."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def execute(self, x, timings=None):
        """``2x + 1`` after a fixed delay per non-empty batch."""
        x = np.asarray(x)
        if x.shape[0]:
            time.sleep(self.delay_s)
        return x * 2.0 + 1.0


def _saturation(net, cfg):
    """Offered load far above capacity against a small admission queue."""
    net.add_model("sat", _SlowPlan(cfg["sat_delay_s"]), n_shards=2,
                  max_batch=2, queue_size=cfg["sat_queue_size"])
    latencies = []

    def one_shot(cid):
        with perf.Client(net) as client:
            status, payload, seconds = client.predict("sat", [float(cid), 0.0])
        if status == 200:
            if payload["outputs"] != [[2.0 * cid + 1.0, 1.0]]:
                raise RuntimeError(f"wrong answer {payload} for {cid}")
            latencies.append(seconds)

    perf.fleet(cfg["saturation_clients"], one_shot)
    counters = net.endpoint("sat").counters.to_dict()
    # the bound admission control guarantees: an admitted request waits for
    # at most the queued samples ahead of it, one batch at a time
    batches_ahead = cfg["sat_queue_size"] / 2 + 1
    bound_s = 4.0 * batches_ahead * cfg["sat_delay_s"] + 1.0
    return {
        "offered": counters["offered"],
        "accepted": counters["accepted"],
        "rejected": counters["rejected"],
        "completed": counters["completed"],
        "conserved": counters["accepted"] + counters["rejected"]
        == counters["offered"],
        "p50_accepted_ms": perf.common.percentile(latencies, 50.0) * 1e3,
        "p99_accepted_ms": perf.common.percentile(latencies, 99.0) * 1e3,
        "p99_bound_ms": bound_s * 1e3,
    }


def run_netserver_slo():
    """Drive every traffic shape against one live server; return results."""
    cfg = _settings()
    pool = np.abs(np.random.default_rng(perf.SEED).normal(
        size=(32, 3, cfg["image"], cfg["image"])))
    # the artifact must outlive the server: reloads re-read its path
    with tempfile.TemporaryDirectory() as tmp_dir:
        plan = engine.compile_model_plan(
            perf.calibrated_frozen_resnet8(cfg["image"], cfg["width"]))
        path = os.path.join(tmp_dir, "resnet8_plan.npz")
        engine.save_model_plan(plan, path)
        expected = engine.InferenceRunner(
            engine.load_plan(path), batch_size=cfg["max_batch"]).predict(pool)
        net = engine.NetServer()
        net.add_model("resnet", path, n_shards=2, max_batch=cfg["max_batch"],
                      queue_size=cfg["queue_size"])
        net.start()
        try:
            phases, outputs, reloads = _phases(net, cfg, pool, plan, path)
            saturation = _saturation(net, cfg)
            metrics = net.metrics()["models"]["resnet"]
        finally:
            net.close()

    counters = metrics["requests"]
    drift = max(float(np.abs(np.asarray(row, dtype=np.float64)
                             - expected[index]).max())
                for run in outputs for index, row in run.items())
    return {
        "n_shards": 2,
        "max_batch": cfg["max_batch"],
        "queue_size": cfg["queue_size"],
        "parity_max_abs_diff": drift,
        **phases,
        "swap_p99_over_sustained_p99": phases["during_swap"]["p99_ms"]
        / phases["sustained"]["p99_ms"],
        "reloads": reloads,
        "metrics_reloads": metrics["plan"]["version"]["reloads"],
        "failed": counters["failed"],
        "accepted": counters["accepted"],
        "completed": counters["completed"],
        "conserved": (counters["accepted"] + counters["rejected"]
                      == counters["offered"])
        and (counters["samples_accepted"] + counters["samples_rejected"]
             == counters["samples_offered"]),
        "saturation": saturation,
        "server_latency_split_ms": {
            "queue_p99": metrics["latency"]["queue"]["p99_ms"],
            "compute_p99": metrics["latency"]["compute"]["p99_ms"],
            "total_p99": metrics["latency"]["total"]["p99_ms"],
        },
    }


def test_netserver_slo():
    """Acceptance: bit-identical serving over the wire, rolling reloads
    that drop nothing and are all counted, admission control rejecting
    under saturation with bounded p99 for accepted requests, and
    conserved request counters."""
    results = perf.main("netserver", run_netserver_slo)
    assert results["parity_max_abs_diff"] == 0.0, (
        f"socket responses drifted from the runner by "
        f"{results['parity_max_abs_diff']:.2e} (float64 must be bit-exact)")
    assert results["failed"] == 0, (
        f"{results['failed']} accepted requests failed during rolling "
        "reloads (the no-drop contract)")
    assert results["completed"] == results["accepted"]
    assert results["conserved"], "request/sample counters leaked"
    assert results["reloads"] == perf.trials() + 1, (
        f"{results['reloads']} of {perf.trials() + 1} reloads answered 200")
    assert results["metrics_reloads"] == results["reloads"]
    sat = results["saturation"]
    assert sat["conserved"], (
        f"admission counters leak: accepted {sat['accepted']} + rejected "
        f"{sat['rejected']} != offered {sat['offered']}")
    assert sat["rejected"] > 0, (
        "saturation scenario produced no 503s — admission control never "
        "fired, the queue must have absorbed the burst (misconfigured test)")
    assert sat["accepted"] == sat["completed"] and sat["accepted"] > 0, (
        f"accepted requests did not all complete: accepted {sat['accepted']}"
        f" vs completed {sat['completed']}")
    assert sat["p99_accepted_ms"] <= sat["p99_bound_ms"], (
        f"p99 of accepted requests {sat['p99_accepted_ms']:.0f} ms exceeds "
        f"the admission bound {sat['p99_bound_ms']:.0f} ms — queueing is "
        "not bounded")


if __name__ == "__main__":
    test_netserver_slo()
