"""Engine — network front-end SLO benchmark: tail latency under load, not averages.

Every earlier serving benchmark measures *aggregate throughput*; a wire
front end is judged by what one request experiences at the tail.  This
load generator drives a live :class:`repro.engine.NetServer` (real sockets,
real JSON, 2-shard :class:`PlanServer` behind it) through three traffic
shapes and reports client-side p50/p99:

* **sustained closed-loop** — K concurrent clients, each firing its next
  request the moment the previous answer lands: the steady-state operating
  point;
* **bursty open-loop** — requests fired on a fixed arrival schedule of
  B-request bursts regardless of completions: the shape that exposes
  queue-wait at the tail (open-loop arrival is the honest way to measure
  queueing — closed-loop clients self-throttle and hide it);
* **saturation** — offered concurrency far above capacity against a small
  admission queue: asserts the server *rejects fast* (503 + Retry-After)
  while every accepted request still completes with **bounded p99** —
  admission control working, not queue collapse.

Also pinned: served outputs are bit-identical to the in-process
:class:`InferenceRunner` (drift 0.0), and the ``/metrics`` counters
conserve (``accepted + rejected == offered``).

Run directly (``python benchmarks/bench_netserver_slo.py``) or through
pytest.  Either entry point writes ``BENCH_netserver.json`` (override with
``REPRO_BENCH_NETSERVER_ARTIFACT``); ``tiny``-scale smoke runs skip the
write so ``make bench-smoke`` never clobbers the tracked default-scale
numbers.
"""

import http.client
import json
import os
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_artifacts import (bench_scale, calibrated_frozen_resnet8,
                             write_artifact as _write_artifact)

from repro import engine
from repro.engine.latency import percentiles


def _settings():
    """Workload per benchmark scale (model size, client counts, schedules)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, sustained_clients=4,
                    sustained_requests=24, burst_size=6, n_bursts=4,
                    burst_interval_s=0.05, saturation_clients=16,
                    max_batch=8, max_wait_ms=1.0, queue_size=64,
                    sat_queue_size=4, sat_delay_s=0.03)
    return dict(image=14, width=0.5, sustained_clients=8,
                sustained_requests=96, burst_size=16, n_bursts=8,
                burst_interval_s=0.05, saturation_clients=48,
                max_batch=16, max_wait_ms=2.0, queue_size=128,
                sat_queue_size=8, sat_delay_s=0.05)


class _Client:
    """One keep-alive HTTP connection issuing predict requests."""

    def __init__(self, net, model: str, timeout: float = 60.0):
        self._conn = http.client.HTTPConnection(net.host, net.port,
                                                timeout=timeout)
        self._path = f"/v1/models/{model}/predict"

    def predict(self, sample) -> tuple:
        """POST one single-sample batch; returns (status, json, latency_s)."""
        body = json.dumps({"inputs": [sample]}).encode()
        start = time.perf_counter()
        self._conn.request("POST", self._path, body=body)
        response = self._conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - start

    def close(self):
        self._conn.close()


def _build_net(tmp_dir, cfg, plan_holder):
    """Artifact -> NetServer with a 2-shard model mounted; returns the net."""
    model = calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    engine.save_model_plan(engine.compile_model_plan(model), path)
    engine.clear_plan_cache()
    plan_holder.append(engine.load_plan(path))   # independent reference copy
    net = engine.NetServer()
    net.add_model("resnet", path, n_shards=2, max_batch=cfg["max_batch"],
                  max_wait_ms=cfg["max_wait_ms"], queue_size=cfg["queue_size"])
    return net.start()


def _sample_pool(cfg, n: int = 32):
    rng = np.random.default_rng(1)
    return np.abs(rng.normal(size=(n, 3, cfg["image"], cfg["image"])))


def _run_sustained(net, cfg, pool):
    """Closed loop: K clients, each sequentially firing its share."""
    per_client = cfg["sustained_requests"] // cfg["sustained_clients"]
    latencies, outputs, lock = [], {}, threading.Lock()

    def worker(cid):
        client = _Client(net, "resnet")
        try:
            for i in range(per_client):
                index = (cid * per_client + i) % pool.shape[0]
                status, payload, latency = client.predict(
                    pool[index].tolist())
                assert status == 200, payload
                with lock:
                    latencies.append(latency)
                    outputs[index] = payload["outputs"][0]
        finally:
            client.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(cfg["sustained_clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    tail = percentiles(latencies, qs=(50.0, 99.0))
    return {
        "clients": cfg["sustained_clients"],
        "requests": len(latencies),
        "throughput_rps": len(latencies) / elapsed,
        "p50_ms": tail[50.0] * 1e3,
        "p99_ms": tail[99.0] * 1e3,
    }, outputs


def _run_bursty(net, cfg, pool):
    """Open loop: fire B-request bursts on a fixed schedule, then collect."""
    latencies, lock = [], threading.Lock()
    threads = []

    def one_shot(index):
        client = _Client(net, "resnet")
        try:
            status, payload, latency = client.predict(pool[index].tolist())
            assert status == 200, payload
            with lock:
                latencies.append(latency)
        finally:
            client.close()

    start = time.perf_counter()
    for burst in range(cfg["n_bursts"]):
        for i in range(cfg["burst_size"]):
            index = (burst * cfg["burst_size"] + i) % pool.shape[0]
            thread = threading.Thread(target=one_shot, args=(index,))
            thread.start()
            threads.append(thread)
        time.sleep(cfg["burst_interval_s"])
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    tail = percentiles(latencies, qs=(50.0, 99.0))
    return {
        "bursts": cfg["n_bursts"],
        "burst_size": cfg["burst_size"],
        "burst_interval_ms": cfg["burst_interval_s"] * 1e3,
        "requests": len(latencies),
        "throughput_rps": len(latencies) / elapsed,
        "p50_ms": tail[50.0] * 1e3,
        "p99_ms": tail[99.0] * 1e3,
    }


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


def _run_saturation(net, cfg):
    """Offered load far above capacity against a small admission queue."""
    net.add_model("sat", _SlowPlan(cfg["sat_delay_s"]), n_shards=2,
                  max_batch=2, max_wait_ms=0.0,
                  queue_size=cfg["sat_queue_size"])
    accepted_latencies, statuses, lock = [], [], threading.Lock()

    def worker(cid):
        client = _Client(net, "sat")
        try:
            status, payload, latency = client.predict([float(cid), 0.0])
            with lock:
                statuses.append(status)
                if status == 200:
                    assert payload["outputs"] == [[2.0 * cid + 1.0, 1.0]]
                    accepted_latencies.append(latency)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(cfg["saturation_clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    counters = net.endpoint("sat").counters.to_dict()
    tail = percentiles(accepted_latencies, qs=(50.0, 99.0))
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
        "p50_accepted_ms": tail[50.0] * 1e3,
        "p99_accepted_ms": tail[99.0] * 1e3,
        "p99_bound_ms": bound_s * 1e3,
    }


def run_netserver_slo():
    """Drive all three traffic shapes against one live server; return results."""
    cfg = _settings()
    import tempfile
    plan_holder = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        net = _build_net(tmp_dir, cfg, plan_holder)
    reference = engine.InferenceRunner(plan_holder[0],
                                       batch_size=cfg["max_batch"])
    pool = _sample_pool(cfg)
    expected = reference.predict(pool)
    try:
        # warm-up: touch lazy state on both shards before timing
        warm = _Client(net, "resnet")
        for index in range(4):
            warm.predict(pool[index].tolist())
        warm.close()
        net.endpoint("resnet").latency["total"].reset()

        sustained, outputs = _run_sustained(net, cfg, pool)
        bursty = _run_bursty(net, cfg, pool)
        saturation = _run_saturation(net, cfg)
        metrics = net.metrics()["models"]["resnet"]
    finally:
        net.close()

    drift = max(float(np.abs(np.asarray(row, dtype=np.float64)
                             - expected[index]).max())
                for index, row in outputs.items())
    return {
        "n_shards": 2,
        "max_batch": cfg["max_batch"],
        "max_wait_ms": cfg["max_wait_ms"],
        "queue_size": cfg["queue_size"],
        "parity_max_abs_diff": drift,
        "sustained": sustained,
        "bursty": bursty,
        "saturation": saturation,
        "server_latency_split_ms": {
            "queue_p99": metrics["latency"]["queue"]["p99_ms"],
            "compute_p99": metrics["latency"]["compute"]["p99_ms"],
            "total_p99": metrics["latency"]["total"]["p99_ms"],
        },
    }


def write_artifact(results, path=None):
    """Write the results to ``BENCH_netserver.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_NETSERVER_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("netserver_slo", "BENCH_netserver.json",
                           "REPRO_BENCH_NETSERVER_ARTIFACT", results,
                           path=path)


def _report(results) -> None:
    print()
    print(f"2-shard netserver, max_batch={results['max_batch']}, "
          f"parity max|diff|={results['parity_max_abs_diff']:.2e}")
    for name in ("sustained", "bursty"):
        shape = results[name]
        print(f"{name:>10}: {shape['requests']:4d} req  "
              f"{shape['throughput_rps']:7.1f} req/s  "
              f"p50 {shape['p50_ms']:7.1f} ms  p99 {shape['p99_ms']:7.1f} ms")
    sat = results["saturation"]
    print(f"saturation: offered {sat['offered']}, accepted {sat['accepted']}, "
          f"rejected {sat['rejected']} (conserved={sat['conserved']}); "
          f"accepted p99 {sat['p99_accepted_ms']:.1f} ms "
          f"(bound {sat['p99_bound_ms']:.0f} ms)")
    split = results["server_latency_split_ms"]
    print(f"server-side p99 split: queue {split['queue_p99']:.1f} ms + "
          f"compute {split['compute_p99']:.1f} ms "
          f"(total {split['total_p99']:.1f} ms)")


def test_netserver_slo():
    """Acceptance: bit-identical serving over the wire, admission control
    rejecting under saturation with bounded p99 for accepted requests, and
    conserved request counters."""
    results = run_netserver_slo()
    _report(results)
    write_artifact(results)
    assert results["parity_max_abs_diff"] == 0.0, (
        f"socket responses drifted from the runner by "
        f"{results['parity_max_abs_diff']:.2e} (float64 must be bit-exact)")
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
    _results = run_netserver_slo()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
