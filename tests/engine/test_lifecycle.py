"""Serving-lifecycle tests: rolling reloads, shutdown, and their races.

The serving stack's lifecycle contract has three legs, each pinned here:

* **rolling reload** — ``POST /v1/models/{name}/reload`` swaps in a fresh
  probe-validated pool atomically; no accepted request is dropped, every
  answered row is bit-identical across the swap, a corrupt replacement is
  refused with 409 while the old pool keeps serving, the probe-shape
  cache plus the ``/metrics`` version block roll over with the artifact,
  and a replaced plan is freed once its pool drains;
* **fixed pools and shutdown** — a pool keeps its mounted size (the
  removed autoscaler options are refused), and ``NetServer.close(timeout)``
  is one deadline over every model that closes them all and can be
  called again to finish the drain;
* **request-lifetime correctness** — the regressions fixed alongside:
  one *shared* deadline per request (not one per queued sample), an
  all-or-nothing ``submit_many`` (sample counters conserve through partial
  failures), serialized shape probes and torn-free scheduler stats
  snapshots.
"""

import gc
import json
import shutil
import threading
import time
import weakref

import numpy as np
import pytest

from netutil import predict, request

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.engine import wire
from repro.engine.scheduler import DynamicBatcher, Request
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad
from concurrent.futures import Future


class ToyPlan:
    """``2x + 1`` over arbitrary trailing shape — fast structural target."""

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


def test_reload_frees_the_plans_it_replaces(artifact, tmp_path):
    """Every mount and reload loads its artifact afresh and nothing else
    holds the result: after three rewrite-and-reload cycles and their
    drains, the mounted plan is the only one of them still alive."""
    plan, _, x = artifact
    path = tmp_path / "served.npz"
    engine.save_model_plan(plan, path)
    with engine.NetServer() as net:
        endpoint = net.add_model("cnn", str(path), n_shards=1, queue_size=32)
        served = [weakref.ref(endpoint.server.plan)]
        for _ in range(3):
            engine.save_model_plan(plan, path)
            endpoint.reload()
            served.append(weakref.ref(endpoint.server.plan))
        with endpoint._reload_lock:
            drains = list(endpoint._drains)
        for drain in drains:
            drain.join(timeout=10.0)
        gc.collect()
        assert served[0]() is None
        assert [ref() is not None for ref in served] == [False] * 3 + [True]
        assert served[-1]() is endpoint.server.plan
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
# fixed pools and shutdown
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("option", [{"max_shards": 4},
                                    {"autoscale": {"idle_s": 1.0}},
                                    {"backend": "process"}])
def test_removed_autoscaler_options_are_refused(option):
    with engine.NetServer() as net:
        with pytest.raises(TypeError):
            net.add_model("m", ToyPlan(), n_shards=1, queue_size=32, **option)
        assert net.model_names() == []


def test_netserver_close_timeout_is_one_deadline_over_every_model():
    """A timed-out close still closes every model, within one deadline, and
    a repeat close() finishes the drain without dropping a request."""
    net = engine.NetServer().start()
    futures = {}
    for name in ("a", "b"):
        net.add_model(name, SlowPlan(0.1), n_shards=1, max_batch=1,
                      queue_size=16)
        futures[name] = net.endpoint(name).server.submit_many(
            np.ones((10, 2)))
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match=r"\['a', 'b'\]"):
        net.close(timeout=0.2)
    assert time.monotonic() - t0 < 0.5, "close overstayed its 0.2s deadline"
    for name in ("a", "b"):
        server = net.endpoint(name).server
        assert server.batcher.closed, f"model {name!r} still takes submits"
        with pytest.raises(engine.ServerClosed):
            server.submit(np.ones(2))
    net.close()                             # finishes the drain
    for name in ("a", "b"):
        rows = [future.result(timeout=0) for future in futures[name]]
        np.testing.assert_array_equal(rows, np.full((10, 2), 3.0))


def test_endpoint_close_timeout_also_bounds_the_reload_drain_join():
    """An old pool still draining after a reload is joined within the same
    close deadline (not a fixed wait), and a repeat close() finishes it."""
    with engine.NetServer() as net:
        net.add_model("m", SlowPlan(0.1), n_shards=1, max_batch=1,
                      queue_size=16)
        endpoint = net.endpoint("m")
        old = endpoint.server
        futures = old.submit_many(np.ones((10, 2)))
        endpoint.reload()                   # the old pool drains behind
        assert endpoint.server is not old
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="1 pool"):
            endpoint.close(timeout=0.2)
        assert time.monotonic() - t0 < 0.5, "drain join ignored the deadline"
        endpoint.close()                    # finishes the old pool's drain
        rows = [future.result(timeout=0) for future in futures]
        np.testing.assert_array_equal(rows, np.full((10, 2), 3.0))


def test_metrics_of_a_fixed_pool_carry_no_scaling_state():
    """The pool keeps its mounted size; ``/metrics`` reports it without an
    autoscaler block, scale counters or pool block."""
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=2, queue_size=32)
        assert predict(net, "toy", [[1.0, 2.0]])[0] == 200
        block = net.metrics()["models"]["toy"]
        assert "autoscaler" not in block
        assert not {"scale_ups", "scale_downs"} & set(block["requests"])
        _assert_conserves(block["requests"])
        assert block["serving"]["n_shards"] == 2
        assert "pool" not in block["serving"]


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
                batcher.put_many([Request(seq=seq, payload=np.zeros(1),
                                          future=Future())], timeout=0.1)
                seq += 1
            except (TimeoutError, engine.SchedulerClosed):
                pass            # racing shutdown is part of the test

    def consume():
        while batcher.next_batch() is not None:
            pass                # drains until close

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
    batcher.close()
    for thread in threads:
        thread.join()
    assert violations == []
