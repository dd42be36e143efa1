"""Engine — serving-lifecycle benchmark: rolling reloads, measured.

The lifecycle claim, quantified against a live :class:`repro.engine.NetServer`:
**a rolling reload is invisible at the tail**.  A closed-loop client fleet
measures p50/p99 in a steady phase, then again while the artifact is
re-saved and ``POST /v1/models/{name}/reload`` rolls the pool over several
times mid-traffic.  Every accepted request must complete (``failed == 0``),
every answered row must be bit-identical to the in-process runner, the
request/sample counters must conserve, and the during-swap p99 is reported
next to the steady p99 (the cost of a swap is the number, not a failure
mode).

Run directly (``python benchmarks/bench_reload.py``) or through
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
    """Workload per benchmark scale (model size, fleet size, phase length)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, clients=4, per_client=8,
                    reloads=2, max_batch=8, max_wait_ms=1.0, queue_size=64)
    return dict(image=14, width=0.5, clients=8, per_client=24,
                reloads=3, max_batch=16, max_wait_ms=2.0, queue_size=128)


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


def run_reload():
    """The rolling-reload phase at this scale; returns its results."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        return run_reload_phase(_settings(), tmp_dir)


def write_artifact(results, path=None):
    """Write the results to ``BENCH_reload.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_RELOAD_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("reload", "BENCH_reload.json",
                           "REPRO_BENCH_RELOAD_ARTIFACT", results, path=path)


def _report(rel) -> None:
    print()
    print(f"rolling reload x{rel['reloads']} under load "
          f"(parity max|diff|={rel['parity_max_abs_diff']:.2e}, "
          f"failed={rel['failed']}, conserved={rel['conserved']}):")
    for phase in ("steady", "during_swap"):
        shape = rel[phase]
        print(f"{phase:>12}: {shape['requests']:4d} req  "
              f"p50 {shape['p50_ms']:7.1f} ms  p99 {shape['p99_ms']:7.1f} ms")
    print(f"   swap p99 / steady p99 = {rel['swap_p99_over_steady_p99']:.2f}")


def test_reload():
    """Acceptance: rolling reloads drop nothing and stay bit-exact."""
    rel = run_reload()
    _report(rel)
    write_artifact(rel)
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


if __name__ == "__main__":
    _results = run_reload()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
