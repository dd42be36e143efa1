"""Serving-lifecycle tests: rolling reloads, autoscaling, and their races.

The serving stack's lifecycle contract has three legs, each pinned here:

* **rolling reload** — ``POST /v1/models/{name}/reload`` swaps in a fresh
  probe-validated pool atomically; no accepted request is dropped, every
  answered row is bit-identical across the swap, a corrupt replacement is
  refused with 409 while the old pool keeps serving, and the probe-shape
  cache plus the ``/metrics`` version block roll over with the artifact;
* **shard-pool scaling** — ``add_shard``/``retire_shard`` grow and shrink a
  live pool without dropping requests or losing stats, and the
  :class:`~repro.engine.netserver.Autoscaler` drives them from queue
  pressure (grow) and sustained idle (shrink);
* **request-lifetime correctness** — the regressions fixed alongside:
  one *shared* deadline per request (not one per queued sample), an
  all-or-nothing ``submit_many`` (sample counters conserve through partial
  failures), single-flight artifact cache misses, serialized shape probes,
  and torn-free scheduler stats snapshots.
"""

import json
import shutil
import threading
import time

import numpy as np
import pytest

from netutil import predict, request

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.engine import server as server_mod
from repro.engine import wire
from repro.engine.scheduler import DynamicBatcher, Request
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad
from concurrent.futures import Future


class ToyPlan:
    """``2x + 1`` over arbitrary trailing shape — fast structural target."""

    np_dtype = np.dtype(np.float64)

    def execute(self, x, timings=None):
        return np.asarray(x) * 2.0 + 1.0


class SlowPlan(ToyPlan):
    """Deliberately slow on non-empty batches (zero-row probes stay free)."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def execute(self, x, timings=None):
        if np.asarray(x).shape[0]:
            time.sleep(self.delay_s)
        return super().execute(x)


class ProbeTrackingPlan(ToyPlan):
    """Counts concurrent zero-row (probe) executions — must never exceed 1."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active_probes = 0
        self.max_active_probes = 0
        self.probes = 0

    def execute(self, x, timings=None):
        if np.asarray(x).shape[0] == 0:
            with self._lock:
                self._active_probes += 1
                self.probes += 1
                self.max_active_probes = max(self.max_active_probes,
                                             self._active_probes)
            time.sleep(0.005)   # widen the window a racing probe would hit
            with self._lock:
                self._active_probes -= 1
        return super().execute(x)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A real saved model-plan artifact plus one calibration input."""
    rng = np.random.default_rng(11)
    model = TinyCNN(num_classes=4, width=6,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=3),
                    seed=3)
    x = np.abs(rng.normal(size=(16, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    path = tmp_path_factory.mktemp("lifecycle") / "plan.npz"
    engine.save_model_plan(plan, path)
    return plan, str(path), x


def _assert_conserves(counters):
    assert counters["accepted"] + counters["rejected"] == counters["offered"]
    assert (counters["samples_accepted"] + counters["samples_rejected"]
            == counters["samples_offered"])


# --------------------------------------------------------------------------- #
# rolling reload
# --------------------------------------------------------------------------- #
def test_reload_under_load_drops_nothing_and_stays_bit_identical():
    """Swaps mid-traffic: every accepted request completes, rows bit-exact."""
    with engine.NetServer() as net:
        net.add_model("toy", SlowPlan(0.002), n_shards=2, max_batch=4,
                      max_wait_ms=0.5, queue_size=64)
        endpoint = net.endpoint("toy")
        stop = threading.Event()
        outcomes = []
        outcomes_lock = threading.Lock()

        def hammer(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                batch = rng.normal(size=(2, 3)).tolist()
                status, _, body = predict(net, "toy", batch)
                with outcomes_lock:
                    outcomes.append((status, batch, body))

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        for _ in range(3):                      # three rolling swaps
            status, _, body = request(net, "POST", "/v1/models/toy/reload")
            assert status == 200 and body["reloaded"] is True
            time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join()

        assert len(outcomes) > 20
        for status, batch, body in outcomes:
            assert status in (200, 503)         # never 5xx, never dropped
            if status == 200:
                expected = np.asarray(batch) * 2.0 + 1.0
                assert np.asarray(body["outputs"]).tolist() \
                    == expected.tolist()        # bit-identical across swaps
        counters = endpoint.counters.to_dict()
        _assert_conserves(counters)
        assert counters["failed"] == 0          # zero accepted requests lost
        assert counters["completed"] == counters["accepted"]
        assert counters["reloads"] == 3


def test_reload_empty_body_restats_artifact_and_versions_metrics(artifact):
    plan, path, x = artifact
    with engine.NetServer() as net:
        net.add_model("cnn", path, n_shards=1, max_batch=8, max_wait_ms=0.5,
                      queue_size=32)
        status, _, before = predict(net, "cnn", x[:2].tolist(), timeout=30.0)
        assert status == 200
        version0 = net.metrics()["models"]["cnn"]["plan"]["version"]
        assert version0["reloads"] == 0
        assert version0["artifact"]["path"].endswith("plan.npz")

        time.sleep(0.01)                        # guarantee a fresh mtime_ns
        engine.save_model_plan(plan, path)      # the operator's cp step
        status, _, body = request(net, "POST", "/v1/models/cnn/reload")
        assert status == 200
        assert body == {"model": "cnn", "reloaded": True, "reloads": 1,
                        "n_shards": 1, "artifact": body["artifact"]}

        version1 = net.metrics()["models"]["cnn"]["plan"]["version"]
        assert version1["reloads"] == 1
        assert version1["artifact"]["mtime_ns"] \
            != version0["artifact"]["mtime_ns"]   # new bytes are visible
        status, _, after = predict(net, "cnn", x[:2].tolist(), timeout=30.0)
        assert status == 200
        assert after["outputs"] == before["outputs"]   # same weights, bit-exact


def test_reload_with_path_switches_artifact(artifact, tmp_path):
    plan, path, x = artifact
    other = tmp_path / "other.npz"
    engine.save_model_plan(plan, other)
    with engine.NetServer() as net:
        net.add_model("cnn", path, n_shards=1, queue_size=32)
        status, _, body = request(net, "POST", "/v1/models/cnn/reload",
                                  payload={"path": str(other)})
        assert status == 200
        assert body["artifact"]["path"].endswith("other.npz")
        metrics = net.metrics()["models"]["cnn"]
        assert metrics["plan"]["version"]["artifact"]["path"] \
            .endswith("other.npz")
        assert predict(net, "cnn", x[:2].tolist(), timeout=30.0)[0] == 200


def test_int_mode_mount_keeps_mode_and_artifact_identity_across_reload(
        artifact):
    """Mount options stay with the path source: a reload re-resolves the
    artifact and the rebuilt pool serves the integer route again."""
    plan, path, x = artifact
    with engine.NetServer() as net:
        net.add_model("cnn", path, mode="int", n_shards=1, queue_size=32)
        metrics = net.metrics()["models"]["cnn"]["plan"]
        assert metrics["mode"] == "int"
        assert metrics["version"]["artifact"]["path"].endswith("plan.npz")
        status, _, before = predict(net, "cnn", x[:2].tolist(), timeout=30.0)
        assert status == 200
        assert request(net, "POST", "/v1/models/cnn/reload")[0] == 200
        metrics = net.metrics()["models"]["cnn"]["plan"]
        assert metrics["mode"] == "int"          # rebuild kept the route
        assert metrics["version"]["reloads"] == 1
        status, _, after = predict(net, "cnn", x[:2].tolist(), timeout=30.0)
        assert status == 200
        assert after["outputs"] == before["outputs"]


@pytest.mark.parametrize("fault", ["corrupt", "vanished"])
def test_reload_corrupt_artifact_rejected_409_old_pool_serves(artifact,
                                                              tmp_path, fault):
    """A corrupt replacement, or a bodiless reload after the mounted
    artifact was deleted, answers 409 (never a dropped connection) while
    the old pool keeps serving."""
    _, path, x = artifact
    mounted = tmp_path / "mounted.npz"
    shutil.copyfile(path, mounted)
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(b"this is not an npz archive")
    with engine.NetServer() as net:
        net.add_model("cnn", str(mounted), n_shards=1, queue_size=32)
        payload = {"path": str(corrupt)}
        if fault == "vanished":
            mounted.unlink()
            payload = None                   # reload the mounted source
        status, _, body = request(net, "POST", "/v1/models/cnn/reload",
                                  payload=payload)
        assert status == 409
        assert body["error"]["reason"] == "reload rejected"
        assert "keeps serving" in body["error"]["detail"]
        metrics = net.metrics()["models"]["cnn"]
        assert metrics["requests"]["reloads"] == 0       # nothing swapped
        assert metrics["plan"]["version"]["artifact"]["path"].endswith(
            "mounted.npz")
        assert predict(net, "cnn", x[:2].tolist(), timeout=30.0)[0] == 200
        assert net.client_disconnects == 0


def test_reload_probe_rejects_shape_incompatible_artifact(artifact):
    """A replacement that cannot serve the live traffic's shapes is refused."""
    _, path, _ = artifact
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=1, queue_size=32)
        assert predict(net, "toy", [[1.0, 2.0]])[0] == 200   # shape (2,) live
        endpoint = net.endpoint("toy")
        with pytest.raises(wire.ReloadRejected, match="probe validation"):
            endpoint.reload(path)           # the CNN cannot execute (0, 2)
        assert endpoint.counters.to_dict()["reloads"] == 0
        assert predict(net, "toy", [[1.0, 2.0]])[0] == 200   # untouched


def test_reload_clears_probe_shape_cache():
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=1, queue_size=32)
        endpoint = net.endpoint("toy")
        assert predict(net, "toy", [[1.0, 2.0, 3.0]])[0] == 200
        assert (3,) in endpoint._known_shapes
        endpoint.reload()
        assert endpoint._known_shapes == set()   # new plan revalidates
        assert predict(net, "toy", [[1.0, 2.0, 3.0]])[0] == 200
        assert (3,) in endpoint._known_shapes


def test_reload_route_rejects_bad_bodies_and_unknown_models():
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=1, queue_size=32)
        status, _, body = request(net, "POST", "/v1/models/toy/reload",
                                  payload={"paths": "typo"})
        assert status == 400 and "unknown reload field" in \
            body["error"]["detail"]
        status, _, body = request(net, "POST", "/v1/models/toy/reload",
                                  payload={"path": ""})
        assert status == 400
        status, _, _ = request(net, "POST", "/v1/models/ghost/reload")
        assert status == 404
        # the removed restart route: recovery is a bodiless reload
        status, _, body = request(net, "POST", "/v1/models/toy/restart")
        assert status == 404 and "no route" in body["error"]["detail"]
        assert predict(net, "toy", [[1.0]])[0] == 200


def test_decode_reload_request_contract():
    assert wire.decode_reload_request(b"") is None
    assert wire.decode_reload_request(b"{}") is None
    assert wire.decode_reload_request(b'{"path": "p.npz"}') == "p.npz"
    for bad in (b"[1]", b"nonsense", b'{"path": 3}', b'{"path": ""}',
                b'{"path": "x", "extra": 1}'):
        with pytest.raises(wire.BadRequest):
            wire.decode_reload_request(bad)


# --------------------------------------------------------------------------- #
# shard-pool scaling
# --------------------------------------------------------------------------- #
def test_add_and_retire_shard_preserve_service_and_stats():
    server = engine.PlanServer(ToyPlan(), n_shards=1, max_batch=4,
                               max_wait_ms=0.5, queue_size=32)
    try:
        batch = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(server.predict(batch),
                                      batch * 2.0 + 1.0)
        assert server.add_shard() == 2
        np.testing.assert_array_equal(server.predict(batch),
                                      batch * 2.0 + 1.0)
        served = server.stats_report()["total"]["samples"]
        assert served == 8
        assert server.retire_shard(wait=True, timeout=5.0) == 1
        report = server.stats_report()
        # the retired shard's work moved to the drained accumulator: totals
        # stay monotonic across pool scaling ("added" counts lifetime
        # spawns, mount included)
        assert report["total"]["samples"] == served
        assert report["pool"] == {"added": 2, "retired": 1, "died": 0}
        np.testing.assert_array_equal(server.predict(batch),
                                      batch * 2.0 + 1.0)
    finally:
        server.close()


def test_retire_refuses_to_empty_the_pool():
    server = engine.PlanServer(ToyPlan(), n_shards=1, queue_size=32)
    try:
        with pytest.raises(ValueError, match="last shard"):
            server.retire_shard()
        assert server.n_shards == 1
    finally:
        server.close()


def test_add_shard_on_closed_server_raises():
    server = engine.PlanServer(ToyPlan(), n_shards=1, queue_size=32)
    server.close()
    with pytest.raises(engine.ServerClosed):
        server.add_shard()


def test_autoscaler_grows_under_pressure_and_shrinks_when_idle():
    with engine.NetServer() as net:
        net.add_model("slow", SlowPlan(0.02), n_shards=1, max_batch=1,
                      max_wait_ms=0.0, queue_size=16, max_shards=3,
                      autoscale=dict(interval_s=0.01, up_queue_frac=0.25,
                                     idle_s=0.25, cooldown_s=0.05))
        endpoint = net.endpoint("slow")
        assert endpoint.autoscaler is not None
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                predict(net, "slow", [[1.0, 2.0]])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        try:
            while endpoint.server.n_shards < 2:
                assert time.monotonic() < deadline, "autoscaler never grew"
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert endpoint.counters.to_dict()["scale_ups"] >= 1

        deadline = time.monotonic() + 10.0      # idle now: must shrink back
        while endpoint.server.n_shards > 1:
            assert time.monotonic() < deadline, "autoscaler never shrank"
            time.sleep(0.01)
        counters = endpoint.counters.to_dict()
        assert counters["scale_downs"] >= 1
        _assert_conserves(counters)
        block = net.metrics()["models"]["slow"]["autoscaler"]
        assert block["enabled"] and block["alive"]
        assert block["min_shards"] == 1 and block["max_shards"] == 3
        assert predict(net, "slow", [[1.0, 2.0]])[0] == 200


def test_autoscaler_metrics_block_reports_disabled_without_max_shards():
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=1, queue_size=32)
        assert net.metrics()["models"]["toy"]["autoscaler"] \
            == {"enabled": False}


def test_autoscaler_rejects_max_shards_below_pool_size():
    with engine.NetServer() as net:
        with pytest.raises(ValueError, match="below the mounted pool"):
            net.add_model("toy", ToyPlan(), n_shards=3, max_shards=2,
                          queue_size=32)


# --------------------------------------------------------------------------- #
# request-lifetime regressions
# --------------------------------------------------------------------------- #
def test_predict_timeout_is_one_shared_deadline():
    """10 queued samples at 50ms each must fail a 150ms budget *once*, not
    stretch it tenfold (the per-future accumulation this regression pins)."""
    server = engine.PlanServer(SlowPlan(0.05), n_shards=1, max_batch=1,
                               max_wait_ms=0.0, queue_size=64)
    try:
        batch = np.ones((10, 2))
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            server.predict(batch, timeout=0.15)
        elapsed = time.monotonic() - t0
        assert elapsed < 0.8, (
            f"predict overstayed its shared deadline: {elapsed:.2f}s "
            "(per-future timeouts would accumulate to ~1.5s)")
    finally:
        server.close()


def test_endpoint_timeout_is_one_shared_deadline_over_http():
    with engine.NetServer() as net:
        net.add_model("slow", SlowPlan(0.05), n_shards=1, max_batch=1,
                      max_wait_ms=0.0, queue_size=64, request_timeout_s=0.2)
        t0 = time.monotonic()
        status, _, body = predict(net, "slow",
                                  np.ones((10, 2)).tolist(), timeout=15.0)
        elapsed = time.monotonic() - t0
        assert status == 504
        assert body["error"]["reason"] == "deadline exceeded"
        assert elapsed < 1.5, (
            f"504 took {elapsed:.2f}s; per-sample timeouts would take >2s")
        counters = net.endpoint("slow").counters.to_dict()
        _assert_conserves(counters)
        assert counters["failed"] == 1


def test_submit_many_is_all_or_nothing_and_conserves_samples():
    plan = SlowPlan(0.05)
    server = engine.PlanServer(plan, n_shards=1, max_batch=1,
                               max_wait_ms=0.0, queue_size=4)
    try:
        held = [server.submit(np.array([float(i), 0.0]), timeout=1.0)
                for i in range(5)]          # 1 executing + 4 filling the queue
        with pytest.raises(TimeoutError):
            # one slot may free mid-call; a 3-sample request cannot fit, and
            # none of its samples may be enqueued
            server.submit_many(np.ones((3, 2)), timeout=0.0)
        with pytest.raises(ValueError, match="never fit"):
            server.submit_many(np.ones((8, 2)), timeout=0.0)   # > queue_size
        rows = [future.result(timeout=10.0) for future in held]
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, [2.0 * i + 1.0, 1.0])
        # drain fully, then check nothing from the failed request executed
        deadline = time.monotonic() + 5.0
        while server.batcher.pending and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stats_report()["total"]["samples"] == 5
    finally:
        server.close()


def test_load_plan_cached_is_single_flight(artifact, monkeypatch):
    _, path, _ = artifact
    engine.clear_plan_cache()
    parses = []
    real_load_plan = server_mod.load_plan

    def counting_load_plan(*args, **kwargs):
        parses.append(threading.get_ident())
        time.sleep(0.05)        # hold the miss open so every thread piles in
        return real_load_plan(*args, **kwargs)

    monkeypatch.setattr(server_mod, "load_plan", counting_load_plan)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def hit(i):
        barrier.wait()
        results[i] = engine.load_plan_cached(path)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(parses) == 1, f"artifact parsed {len(parses)}x under one miss"
    assert all(result is results[0] for result in results)
    engine.clear_plan_cache()


def test_shape_probes_are_serialized():
    plan = ProbeTrackingPlan()
    with engine.NetServer() as net:
        net.add_model("toy", plan, n_shards=1, max_batch=8, max_wait_ms=0.5,
                      queue_size=64)
        statuses = [None] * 8
        barrier = threading.Barrier(8)

        def hit(i):
            barrier.wait()      # 8 distinct never-seen shapes, all at once
            statuses[i] = predict(net, "toy", [[1.0] * (i + 1)])[0]

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * 8
        assert plan.probes == 8
        assert plan.max_active_probes == 1, \
            "two shape probes ran the shared plan concurrently"


def test_scheduler_snapshot_is_never_torn():
    batcher = DynamicBatcher(max_batch=4, max_wait_ms=0.0, queue_size=64)
    stop = threading.Event()
    violations = []

    def produce():
        seq = 0
        while not stop.is_set():
            try:
                batcher.put(Request(seq=seq, payload=np.zeros(1),
                                    future=Future()), timeout=0.1)
                seq += 1
            except (TimeoutError, engine.SchedulerClosed):
                pass            # racing shutdown is part of the test

    def consume():
        while not stop.is_set():
            batcher.next_batch(stop=stop)

    def read():
        while not stop.is_set():
            stats = batcher.stats_snapshot()
            if not (stats.batched_samples <= stats.requests
                    and stats.batches <= stats.batched_samples
                    and stats.mean_batch <= batcher.max_batch):
                violations.append(stats.to_dict())

    threads = ([threading.Thread(target=produce) for _ in range(2)]
               + [threading.Thread(target=consume) for _ in range(2)]
               + [threading.Thread(target=read) for _ in range(2)])
    for thread in threads:
        thread.start()
    time.sleep(0.3)
    stop.set()
    batcher.kick()
    batcher.close()
    for thread in threads:
        thread.join()
    assert violations == []


def test_next_batch_stop_event_interrupts_a_blocked_consumer():
    batcher = DynamicBatcher(max_batch=4, max_wait_ms=5.0, queue_size=8)
    stop = threading.Event()
    result = []
    consumer = threading.Thread(
        target=lambda: result.append(batcher.next_batch(stop=stop)))
    consumer.start()
    time.sleep(0.05)            # let it block on the empty queue
    stop.set()
    batcher.kick()
    consumer.join(timeout=2.0)
    assert not consumer.is_alive()
    assert result == [[]]       # interrupted: no batch claimed, not closed
