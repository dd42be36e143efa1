"""Fault injection against the network serving front end.

Every test here injects one failure — a hostile body, a vanishing client, a
poisoned batch, a closed shard pool — and then proves the server
**survived** it by completing an ordinary request on the same instance.
That follow-up request is the point: the failure surface of a socket front
end rots silently unless each path is pinned to "reject correctly, keep
serving".

The wire-level decode classification (400 vs 413 vs 422) is additionally
unit-tested without a socket, so a misrouted status points at exactly one
layer.
"""

import json
import time

import numpy as np
import pytest

from netutil import predict, raw_socket, request

from repro import engine
from repro.engine import wire


class ToyPlan:
    """``2x + 1`` over arbitrary trailing shape — fast structural target."""

    def execute(self, x, timings=None):
        x = np.asarray(x)
        if x.ndim < 2:
            raise ValueError(f"toy plan needs a batch axis, got {x.shape}")
        return x * 2.0 + 1.0


class PoisonPlan(ToyPlan):
    """Raises on any sample containing the magic value 666.0."""

    def execute(self, x, timings=None):
        if np.any(np.asarray(x) == 666.0):
            raise RuntimeError("poisoned batch")
        return super().execute(x, timings=timings)


class FixedShapePlan(ToyPlan):
    """Accepts only ``(N, 3)`` samples — exercises the 422 probe path."""

    def execute(self, x, timings=None):
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(f"expected (N, 3) input, got {x.shape}")
        return x * 2.0 + 1.0


@pytest.fixture()
def net():
    """A running front end with a toy model mounted (fresh per test)."""
    server = engine.NetServer()
    server.add_model("toy", ToyPlan(), n_shards=1, max_batch=4,
                     max_wait_ms=1.0, queue_size=32)
    server.start()
    yield server
    server.close()


def assert_serving(net, model="toy", sample=(1.0, 2.0)):
    """The survival probe: a normal request on ``net`` must succeed now."""
    status, _headers, body = predict(net, model, [list(sample)])
    assert status == 200, body
    assert body["outputs"] == [[2.0 * value + 1.0 for value in sample]]


# --------------------------------------------------------------------------- #
# wire-level classification (no socket)
# --------------------------------------------------------------------------- #
def test_wire_rejects_broken_json_as_400():
    for body in (b"", b"not json", b"[1, 2", b"\xff\xfe", b"123",
                 b'{"no_inputs": 1}', b'{"inputs": "strings"}',
                 b'{"inputs": [[1], [2, 3]]}'):   # ragged
        with pytest.raises(wire.BadRequest):
            wire.decode_predict_request(body)


def test_wire_rejects_unrunnable_shapes_as_422():
    with pytest.raises(wire.UnprocessableInput):
        wire.decode_predict_request(b'{"inputs": [1.0, 2.0]}')
    with pytest.raises(wire.UnprocessableInput):
        wire.decode_predict_request(b'{"inputs": []}')


def test_wire_rejects_oversized_batches_as_413():
    body = json.dumps({"inputs": [[1.0]] * 9}).encode()
    with pytest.raises(wire.PayloadTooLarge):
        wire.decode_predict_request(body, max_samples=8)
    batch = wire.decode_predict_request(body, max_samples=9)
    assert batch.shape == (9, 1)


def test_wire_error_body_shape():
    payload = json.loads(wire.encode_error(503, "saturated", "queue full"))
    assert payload == {"error": {"status": 503, "reason": "saturated",
                                 "detail": "queue full"}}


# --------------------------------------------------------------------------- #
# hostile bodies over the socket
# --------------------------------------------------------------------------- #
def test_malformed_json_gets_400_and_server_survives(net):
    status, _headers, body = request(
        net, "POST", "/v1/models/toy/predict", raw_body=b"{broken")
    assert status == 400
    assert "JSON" in body["error"]["detail"]
    assert_serving(net)


def test_oversized_body_gets_413_without_reading_it(net):
    net.max_body_bytes = 1024
    status, headers, body = request(
        net, "POST", "/v1/models/toy/predict",
        raw_body=b"x" * 4096)
    assert status == 413
    assert "1024" in body["error"]["detail"]
    assert headers.get("Connection", "").lower() == "close"
    assert_serving(net)


def test_oversized_batch_gets_413(net):
    status, _headers, body = predict(net, "toy", [[1.0, 2.0]] * 33)
    assert status == 413
    assert "33 samples" in body["error"]["detail"]
    assert_serving(net)


def test_missing_content_length_gets_411(net):
    sock = raw_socket(net)
    try:
        sock.sendall(b"POST /v1/models/toy/predict HTTP/1.1\r\n"
                     b"Host: test\r\n\r\n")
        response = sock.recv(4096)
        assert b"411" in response.split(b"\r\n", 1)[0]
    finally:
        sock.close()
    assert_serving(net)


def test_wrong_shape_gets_422_with_detail():
    with engine.NetServer() as net:
        net.add_model("fixed", FixedShapePlan(), n_shards=1, max_batch=4,
                      queue_size=16)
        status, _headers, body = predict(net, "fixed", [[1.0, 2.0]])   # (N,2)
        assert status == 422
        detail = body["error"]["detail"]
        assert "fixed" in detail and "(2,)" in detail and "(N, 3)" in detail
        # correct shape works on the same instance, and the probe is cached
        assert_serving(net, model="fixed", sample=(1.0, 2.0, 3.0))
        assert (3,) in net.endpoint("fixed")._known_shapes
        # counters: the 422 was never offered to admission
        counters = net.endpoint("fixed").counters.to_dict()
        assert counters["bad_requests"] == 1
        assert counters["offered"] == counters["accepted"] == 1


def test_unknown_model_and_route_get_404(net):
    status, _headers, body = predict(net, "nope", [[1.0]])
    assert status == 404
    assert "toy" in body["error"]["detail"]        # lists what IS mounted
    assert request(net, "GET", "/nope")[0] == 404
    assert request(net, "POST", "/v1/models/toy/explode")[0] == 404
    assert_serving(net)


# --------------------------------------------------------------------------- #
# vanishing clients
# --------------------------------------------------------------------------- #
def test_client_disconnect_mid_request_counted_and_survived(net):
    # promise 4096 body bytes, send 10, hang up
    sock = raw_socket(net)
    sock.sendall(b"POST /v1/models/toy/predict HTTP/1.1\r\n"
                 b"Host: test\r\nContent-Length: 4096\r\n\r\n"
                 b'{"inputs":')
    sock.close()
    deadline = time.monotonic() + 5.0
    while net.client_disconnects == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert net.client_disconnects >= 1
    assert_serving(net)


def test_client_disconnect_before_reading_response_survived(net):
    body = json.dumps({"inputs": [[1.0, 2.0]] * 8}).encode()
    head = (f"POST /v1/models/toy/predict HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    for _ in range(3):
        sock = raw_socket(net)
        sock.sendall(head + body)
        sock.close()           # never read the response
    time.sleep(0.2)            # let handler threads hit the dead sockets
    assert_serving(net)


# --------------------------------------------------------------------------- #
# shard faults
# --------------------------------------------------------------------------- #
def test_shard_exception_fails_exactly_the_affected_requests():
    with engine.NetServer() as net:
        # max_batch=1: each sample is its own shard batch, so poison cannot
        # splash onto neighbors even under concurrent load
        net.add_model("poison", PoisonPlan(), n_shards=2, max_batch=1,
                      max_wait_ms=0.0, queue_size=64)
        results = {}
        import threading

        def client(key, value):
            results[key] = predict(net, "poison", [[value, value]])

        threads = [threading.Thread(target=client, args=(i, 666.0 if i % 3 == 0
                                                         else float(i)))
                   for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i, (status, _headers, body) in results.items():
            if i % 3 == 0:
                assert status == 500
                assert "poisoned batch" in body["error"]["detail"]
            else:
                assert status == 200
                assert body["outputs"] == [[2.0 * i + 1.0] * 2]
        counters = net.endpoint("poison").counters.to_dict()
        assert counters["accepted"] == 12
        assert counters["failed"] == 4 and counters["completed"] == 8
        assert_serving(net, model="poison")


def test_closed_pool_answers_503_then_bodiless_reload_serves():
    with engine.NetServer() as net:
        net.add_model("toy", ToyPlan(), n_shards=1, max_batch=2,
                      queue_size=16)
        assert_serving(net)
        net.endpoint("toy").server.close()
        # the pool refuses work, but the front end stays up and says so
        status, headers, body = predict(net, "toy", [[1.0, 1.0]])
        assert status == 503 and headers["Retry-After"] == "1"
        assert body["error"]["reason"] == "unavailable"
        assert "not serving" in body["error"]["detail"]
        # a bodiless reload builds a fresh pool from the mounted source
        status, _headers, body = request(net, "POST",
                                         "/v1/models/toy/reload")
        assert status == 200 and body["reloaded"] is True
        assert_serving(net)
        assert net.endpoint("toy").counters.to_dict()["reloads"] == 1
        status, _headers, metrics = request(net, "GET", "/metrics")
        assert status == 200
        assert metrics["models"]["toy"]["serving"]["n_shards"] == 1


def test_close_drains_then_refuses():
    net = engine.NetServer()
    net.add_model("toy", ToyPlan(), n_shards=1, max_batch=4, queue_size=16)
    net.start()
    assert_serving(net)
    net.close()
    with pytest.raises(OSError):
        predict(net, "toy", [[1.0, 1.0]], timeout=2.0)
    net.close()   # idempotent
