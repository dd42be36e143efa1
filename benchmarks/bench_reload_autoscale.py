"""Engine — serving-lifecycle benchmark: rolling reloads and autoscaling, measured.

Two lifecycle claims, quantified against a live :class:`repro.engine.NetServer`:

* **rolling reload is invisible at the tail** — a closed-loop client fleet
  measures p50/p99 in a steady phase, then again while the artifact is
  re-saved and ``POST /v1/models/{name}/reload`` rolls the pool over several
  times mid-traffic.  Every accepted request must complete (``failed == 0``),
  every answered row must be bit-identical to the in-process runner, the
  request/sample counters must conserve, and the during-swap p99 is reported
  next to the steady p99 (the cost of a swap is the number, not a failure
  mode);
* **autoscaling cuts saturated tail latency** — the same saturating workload
  runs twice against a deliberately slow model: once on a fixed 1-shard
  pool, once with ``max_shards`` autoscaling enabled.  Reported: p99 of
  both runs (the autoscaled pool must be faster), the scale-up reaction
  time (load onset → second shard in rotation), and the scale-event
  counters.

Run directly (``python benchmarks/bench_reload_autoscale.py``) or through
pytest.  Either entry point writes ``BENCH_reload.json`` (override with
``REPRO_BENCH_RELOAD_ARTIFACT``); ``tiny``-scale smoke runs skip the write
so ``make bench-smoke`` never clobbers the tracked default-scale numbers.
"""

import http.client
import json
import os
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_artifacts import (bench_scale, calibrated_frozen_resnet8,
                             write_artifact as _write_artifact)

from repro import engine
from repro.engine.latency import percentiles


def _settings():
    """Workload per benchmark scale (model size, fleet sizes, phase lengths)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, clients=4, per_client=8,
                    reloads=2, max_batch=8, max_wait_ms=1.0, queue_size=64,
                    slow_delay_s=0.02, slow_clients=6, slow_per_client=10,
                    max_shards=3)
    return dict(image=14, width=0.5, clients=8, per_client=24,
                reloads=3, max_batch=16, max_wait_ms=2.0, queue_size=128,
                slow_delay_s=0.03, slow_clients=8, slow_per_client=30,
                max_shards=4)


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


def _closed_loop(net, model, pool, clients, per_client):
    """K closed-loop clients; returns (latencies, {index: output_row})."""
    latencies, outputs, lock = [], {}, threading.Lock()

    def worker(cid):
        client = _Client(net, model)
        try:
            for i in range(per_client):
                index = (cid * per_client + i) % pool.shape[0]
                status, payload, latency = client.predict(pool[index].tolist())
                assert status == 200, payload
                with lock:
                    latencies.append(latency)
                    outputs[index] = payload["outputs"][0]
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, outputs


def _tail(latencies) -> dict:
    tail = percentiles(latencies, qs=(50.0, 99.0))
    return {"requests": len(latencies), "p50_ms": tail[50.0] * 1e3,
            "p99_ms": tail[99.0] * 1e3}


def run_reload_phase(cfg, tmp_dir):
    """Steady vs during-swap tail latency across rolling reloads."""
    model = calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    path = os.path.join(tmp_dir, "resnet8_plan.npz")
    plan = engine.compile_model_plan(model)
    engine.save_model_plan(plan, path)
    engine.clear_plan_cache()
    reference = engine.InferenceRunner(engine.load_plan(path),
                                       batch_size=cfg["max_batch"])
    rng = np.random.default_rng(7)
    pool = np.abs(rng.normal(size=(32, 3, cfg["image"], cfg["image"])))
    expected = reference.predict(pool)

    net = engine.NetServer()
    net.add_model("resnet", path, n_shards=2, max_batch=cfg["max_batch"],
                  max_wait_ms=cfg["max_wait_ms"], queue_size=cfg["queue_size"])
    net.start()
    try:
        warm = _Client(net, "resnet")
        for index in range(4):
            warm.predict(pool[index].tolist())
        warm.close()

        steady_lat, steady_out = _closed_loop(
            net, "resnet", pool, cfg["clients"], cfg["per_client"])

        swaps_done = []

        def roll():
            for _ in range(cfg["reloads"]):
                time.sleep(0.05)
                engine.save_model_plan(plan, path)   # the operator's cp step
                conn = http.client.HTTPConnection(net.host, net.port,
                                                  timeout=30.0)
                conn.request("POST", "/v1/models/resnet/reload")
                response = conn.getresponse()
                body = json.loads(response.read())
                conn.close()
                assert response.status == 200, body
                swaps_done.append(body["reloads"])

        roller = threading.Thread(target=roll)
        roller.start()
        swap_lat, swap_out = _closed_loop(
            net, "resnet", pool, cfg["clients"], cfg["per_client"])
        roller.join()

        counters = net.endpoint("resnet").counters.to_dict()
        version = net.metrics()["models"]["resnet"]["plan"]["version"]
    finally:
        net.close()

    outputs = dict(steady_out)
    outputs.update(swap_out)
    drift = max(float(np.abs(np.asarray(row, dtype=np.float64)
                             - expected[index]).max())
                for index, row in outputs.items())
    steady, during = _tail(steady_lat), _tail(swap_lat)
    return {
        "n_shards": 2,
        "reloads": len(swaps_done),
        "steady": steady,
        "during_swap": during,
        "swap_p99_over_steady_p99": during["p99_ms"] / steady["p99_ms"],
        "parity_max_abs_diff": drift,
        "failed": counters["failed"],
        "accepted": counters["accepted"],
        "completed": counters["completed"],
        "conserved": (counters["accepted"] + counters["rejected"]
                      == counters["offered"])
        and (counters["samples_accepted"] + counters["samples_rejected"]
             == counters["samples_offered"]),
        "metrics_version": version,
    }


class _SlowPlan:
    """Fixed-delay toy plan so the saturation scenario is deterministic."""

    np_dtype = np.dtype(np.float64)

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def execute(self, x, timings=None):
        """``2x + 1`` after a fixed delay per non-empty batch."""
        x = np.asarray(x)
        if x.shape[0]:
            time.sleep(self.delay_s)
        return x * 2.0 + 1.0


def _saturate(net, model, cfg):
    latencies, lock = [], threading.Lock()

    def worker(cid):
        client = _Client(net, model)
        try:
            for i in range(cfg["slow_per_client"]):
                status, payload, latency = client.predict(
                    [float(cid), float(i)])
                assert status == 200, payload
                with lock:
                    latencies.append(latency)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(cfg["slow_clients"])]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, start


def run_autoscale_phase(cfg):
    """Same saturating workload on a fixed pool vs an autoscaled pool."""
    # The queue bound sets the autoscaler's high-water mark; size it so a
    # closed-loop fleet of `slow_clients` actually crosses it (pending tops
    # out at clients - 1).
    queue_size = max(4, cfg["slow_clients"] * 2)
    # Fixed 1-shard baseline: every request queues behind the whole fleet.
    with engine.NetServer() as net:
        net.add_model("slow", _SlowPlan(cfg["slow_delay_s"]), n_shards=1,
                      max_batch=1, max_wait_ms=0.0, queue_size=queue_size)
        fixed_lat, _ = _saturate(net, "slow", cfg)

    # Autoscaled: identical pool at mount, allowed to grow under pressure.
    with engine.NetServer() as net:
        net.add_model("slow", _SlowPlan(cfg["slow_delay_s"]), n_shards=1,
                      max_batch=1, max_wait_ms=0.0, queue_size=queue_size,
                      max_shards=cfg["max_shards"],
                      autoscale=dict(interval_s=0.01, up_queue_frac=0.2,
                                     idle_s=5.0, cooldown_s=0.05))
        endpoint = net.endpoint("slow")
        grew_at, stop_watch = [], threading.Event()

        def watch():
            while not stop_watch.is_set():
                if endpoint.server.n_shards >= 2:
                    grew_at.append(time.perf_counter())
                    return
                time.sleep(0.002)

        watcher = threading.Thread(target=watch)
        watcher.start()
        scaled_lat, load_start = _saturate(net, "slow", cfg)
        stop_watch.set()
        watcher.join()
        counters = endpoint.counters.to_dict()
        peak_shards = endpoint.server.n_shards

    fixed, scaled = _tail(fixed_lat), _tail(scaled_lat)
    return {
        "workload": {"clients": cfg["slow_clients"],
                     "requests_per_client": cfg["slow_per_client"],
                     "compute_s_per_request": cfg["slow_delay_s"]},
        "fixed_pool": dict(fixed, n_shards=1),
        "autoscaled_pool": dict(scaled, max_shards=cfg["max_shards"],
                                peak_shards=peak_shards,
                                scale_ups=counters["scale_ups"]),
        "scale_up_reaction_ms": ((grew_at[0] - load_start) * 1e3
                                 if grew_at else None),
        "p99_cut": 1.0 - scaled["p99_ms"] / fixed["p99_ms"],
    }


def run_reload_autoscale():
    """Both lifecycle phases; returns the combined results document."""
    cfg = _settings()
    with tempfile.TemporaryDirectory() as tmp_dir:
        reload_results = run_reload_phase(cfg, tmp_dir)
    autoscale_results = run_autoscale_phase(cfg)
    return {"reload": reload_results, "autoscale": autoscale_results}


def write_artifact(results, path=None):
    """Write the results to ``BENCH_reload.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_RELOAD_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("reload_autoscale", "BENCH_reload.json",
                           "REPRO_BENCH_RELOAD_ARTIFACT", results, path=path)


def _report(results) -> None:
    rel = results["reload"]
    print()
    print(f"rolling reload x{rel['reloads']} under load "
          f"(parity max|diff|={rel['parity_max_abs_diff']:.2e}, "
          f"failed={rel['failed']}, conserved={rel['conserved']}):")
    for phase in ("steady", "during_swap"):
        shape = rel[phase]
        print(f"{phase:>12}: {shape['requests']:4d} req  "
              f"p50 {shape['p50_ms']:7.1f} ms  p99 {shape['p99_ms']:7.1f} ms")
    print(f"   swap p99 / steady p99 = {rel['swap_p99_over_steady_p99']:.2f}")
    auto = results["autoscale"]
    fixed, scaled = auto["fixed_pool"], auto["autoscaled_pool"]
    print(f"saturated pool, {auto['workload']['clients']} clients x "
          f"{auto['workload']['compute_s_per_request']*1e3:.0f} ms/request:")
    print(f"   fixed 1 shard : p99 {fixed['p99_ms']:7.1f} ms")
    reaction = ("n/a" if auto["scale_up_reaction_ms"] is None
                else f"{auto['scale_up_reaction_ms']:.0f} ms")
    print(f"   autoscaled    : p99 {scaled['p99_ms']:7.1f} ms "
          f"(peak {scaled['peak_shards']} shards, "
          f"{scaled['scale_ups']} scale-ups, reaction {reaction})")
    print(f"   p99 cut: {auto['p99_cut']*100:.0f}%")


def test_reload_autoscale():
    """Acceptance: reloads drop nothing and stay bit-exact; autoscaling
    demonstrably cuts saturated p99 vs the fixed pool."""
    results = run_reload_autoscale()
    _report(results)
    write_artifact(results)
    rel = results["reload"]
    assert rel["parity_max_abs_diff"] == 0.0, (
        "responses across rolling reloads drifted from the runner by "
        f"{rel['parity_max_abs_diff']:.2e} (float64 must be bit-exact)")
    assert rel["failed"] == 0, (
        f"{rel['failed']} accepted requests failed during rolling reloads "
        "(the no-drop contract)")
    assert rel["completed"] == rel["accepted"]
    assert rel["conserved"], "request/sample counters leaked across reloads"
    assert rel["reloads"] == _settings()["reloads"]
    assert rel["metrics_version"]["reloads"] == rel["reloads"]
    auto = results["autoscale"]
    assert auto["autoscaled_pool"]["scale_ups"] >= 1, (
        "the autoscaler never grew the pool under saturation")
    assert auto["scale_up_reaction_ms"] is not None \
        and auto["scale_up_reaction_ms"] < 5000.0
    assert auto["autoscaled_pool"]["p99_ms"] < auto["fixed_pool"]["p99_ms"], (
        f"autoscaled p99 {auto['autoscaled_pool']['p99_ms']:.1f} ms did not "
        f"beat the fixed pool's {auto['fixed_pool']['p99_ms']:.1f} ms")


if __name__ == "__main__":
    _results = run_reload_autoscale()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
