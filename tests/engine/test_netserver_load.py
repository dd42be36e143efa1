"""Load and SLO contracts of the network front end, over a live socket.

Three contracts:

* **end-to-end parity** — outputs served over HTTP are bit-identical
  (drift exactly 0.0) to the in-process :class:`InferenceRunner` on the
  same artifact, on both routes ``mode in {float, int}``, including under
  concurrent clients (float64
  survives the JSON round-trip exactly — Python emits the shortest string
  that reparses to the same double);
* **admission control** — a saturated model answers 503 + ``Retry-After``
  *fast* while the requests it accepted still complete correctly; the
  accept loop never blocks behind a full queue;
* **counter conservation** — ``accepted + rejected == offered`` on
  ``/metrics``, and the latency histograms count exactly the completed
  requests, split into queue-wait vs compute.
"""

import threading
import time

import numpy as np
import pytest

from netutil import predict, request

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A calibrated TinyCNN model-plan artifact on disk + its input pool."""
    rng = np.random.default_rng(5)
    model = TinyCNN(num_classes=4, width=6,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=3),
                    seed=2)
    x = np.abs(rng.normal(size=(16, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    path = tmp_path_factory.mktemp("netserver") / "tiny_plan.npz"
    engine.save_model_plan(plan, path)
    return str(path), x


@pytest.mark.parametrize("mode", ["float", "int"])
def test_socket_outputs_bit_identical_to_runner(artifact, mode):
    path, x = artifact
    reference = engine.InferenceRunner(engine.load_plan(path, mode=mode),
                                       batch_size=8)
    expected = reference.predict(x)
    with engine.NetServer() as net:
        net.add_model("tiny", path, mode=mode, n_shards=2, max_batch=4,
                      queue_size=64)
        status, _headers, body = predict(net, "tiny", x.tolist(), timeout=60.0)
        assert status == 200
        served = np.asarray(body["outputs"], dtype=np.float64)
    drift = float(np.abs(served - expected).max())
    assert drift == 0.0
    assert body["batch"] == x.shape[0]


def test_concurrent_clients_bit_identical(artifact):
    path, x = artifact
    reference = engine.InferenceRunner(engine.load_plan(path), batch_size=8)
    expected = reference.predict(x)
    n_clients, per_client = 6, 8
    rng = np.random.default_rng(9)
    schedule = rng.integers(0, x.shape[0], size=(n_clients, per_client))
    with engine.NetServer() as net:
        net.add_model("tiny", path, n_shards=2, max_batch=8, queue_size=128)
        results = {}

        def client(cid):
            rows = []
            for index in schedule[cid]:
                status, _headers, body = predict(
                    net, "tiny", [x[index].tolist()], timeout=60.0)
                rows.append((status, index, body))
            results[cid] = rows

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics = request(net, "GET", "/metrics")[2]["models"]["tiny"]

    total = 0
    for rows in results.values():
        for status, index, body in rows:
            assert status == 200
            row = np.asarray(body["outputs"][0], dtype=np.float64)
            assert np.array_equal(row, expected[index])
            total += 1
    assert total == n_clients * per_client
    # conservation over the whole run
    counters = metrics["requests"]
    assert counters["offered"] == total
    assert counters["accepted"] + counters["rejected"] == counters["offered"]
    assert counters["rejected"] == 0                 # queue was ample
    assert counters["completed"] == counters["accepted"]
    assert counters["failed"] == 0
    # the histograms counted exactly the completed requests, split in two
    for kind in ("total", "queue", "compute"):
        assert metrics["latency"][kind]["count"] == total
    assert metrics["latency"]["total"]["p50_ms"] > 0.0
    assert metrics["latency"]["compute"]["p99_ms"] > 0.0


class SlowPlan:
    """A deliberately slow toy plan to force saturation deterministically."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def execute(self, x, timings=None):
        x = np.asarray(x)
        if x.shape[0]:                   # the zero-row probe stays free
            time.sleep(self.delay_s)
        return x * 2.0 + 1.0


def test_saturation_emits_503_fast_while_accepted_complete():
    with engine.NetServer() as net:
        net.add_model("slow", SlowPlan(0.05), n_shards=1, max_batch=2,
                      queue_size=4)
        n_offered = 24
        outcomes = {}

        def client(cid):
            start = time.monotonic()
            status, headers, body = predict(net, "slow",
                                            [[float(cid), 1.0]], timeout=60.0)
            outcomes[cid] = (status, headers, body, time.monotonic() - start)

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(n_offered)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics = request(net, "GET", "/metrics")[2]["models"]["slow"]

    statuses = [status for status, _h, _b, _t in outcomes.values()]
    n_ok = statuses.count(200)
    n_rejected = statuses.count(503)
    assert n_ok + n_rejected == n_offered      # nothing fell through
    assert n_rejected > 0                      # admission control did fire
    assert n_ok > 0                            # ... without starving everyone
    for cid, (status, headers, body, elapsed) in outcomes.items():
        if status == 503:
            # reject-fast contract: no queueing, and a Retry-After hint
            assert headers["Retry-After"] == "1"
            assert "queue is full" in body["error"]["detail"]
            assert elapsed < 5.0
        else:
            assert body["outputs"] == [[2.0 * cid + 1.0, 3.0]]
    counters = metrics["requests"]
    assert counters["offered"] == n_offered
    # the batcher never holds a batch; the key stays for the steady benchmark
    assert metrics["serving"]["scheduler"]["timeout_flushes"] == 0
    assert counters["accepted"] + counters["rejected"] == n_offered
    assert counters["rejected"] == n_rejected
    assert counters["completed"] == counters["accepted"] == n_ok
    assert metrics["latency"]["total"]["count"] == n_ok
    # accepted requests saw bounded queueing: at most queue_size/max_batch
    # batches ahead of any admitted request, ~2 batch-times of wait + own
    # compute; generous headroom for scheduling noise
    assert metrics["latency"]["total"]["max_ms"] < 5000.0


class GatedPlan:
    """Blocks every non-empty batch until ``gate`` is set."""

    def __init__(self):
        self.entered = threading.Event()
        self.gate = threading.Event()

    def execute(self, x, timings=None):
        x = np.asarray(x)
        if x.shape[0]:                   # the zero-row probe stays free
            self.entered.set()
            assert self.gate.wait(30.0)
        return x * 2.0 + 1.0


def test_admission_boundary_is_one_capacity_check():
    """With the shard blocked, a request that exactly fills the queue is
    accepted and the next single sample is refused, with conservation at
    request and sample level."""
    queue_size = 8
    plan = GatedPlan()
    with engine.NetServer() as net:
        endpoint = net.add_model("gated", plan, n_shards=1, max_batch=4,
                                 queue_size=queue_size)
        outcomes = {}

        def client(key, rows):
            outcomes[key] = predict(net, "gated", [[1.0, 2.0]] * rows,
                                    timeout=60.0)

        busy = threading.Thread(target=client, args=("busy", 1))
        filler = threading.Thread(target=client,
                                  args=("filler", queue_size))
        busy.start()
        try:
            assert plan.entered.wait(30.0)   # the shard holds the first one
            filler.start()
            deadline = time.monotonic() + 30.0
            while endpoint.server.batcher.pending < queue_size:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            status, headers, body = predict(net, "gated", [[1.0, 2.0]])
        finally:
            plan.gate.set()
        busy.join()
        filler.join()
        counters = request(net, "GET", "/metrics")[2]["models"]["gated"][
            "requests"]

    assert status == 503 and headers["Retry-After"] == "1"
    assert "queue is full" in body["error"]["detail"]
    assert f"{queue_size}/{queue_size} pending" in body["error"]["detail"]
    assert outcomes["busy"][0] == 200
    assert outcomes["filler"][0] == 200
    assert outcomes["filler"][2]["outputs"] == [[3.0, 5.0]] * queue_size
    assert (counters["offered"], counters["accepted"],
            counters["rejected"]) == (3, 2, 1)
    assert (counters["samples_offered"], counters["samples_accepted"],
            counters["samples_rejected"]) == (queue_size + 2,
                                              queue_size + 1, 1)
    assert counters["accepted"] + counters["rejected"] == counters["offered"]
    assert (counters["samples_accepted"] + counters["samples_rejected"]
            == counters["samples_offered"])


def test_queue_and_compute_split_reported(artifact):
    path, x = artifact
    with engine.NetServer() as net:
        net.add_model("tiny", path, n_shards=1, max_batch=4, queue_size=32)
        status, _headers, body = predict(net, "tiny", x[:4].tolist(),
                                         timeout=60.0)
        assert status == 200
        timing = body["timing_ms"]
        assert set(timing) == {"total", "queue", "compute"}
        assert timing["compute"] > 0.0
        assert timing["total"] >= timing["compute"]
        metrics = request(net, "GET", "/metrics")[2]["models"]["tiny"]
        assert metrics["latency"]["queue"]["count"] == 1
        assert metrics["latency"]["compute"]["p50_ms"] == \
            pytest.approx(timing["compute"], rel=0.5)
