"""Network serving front end: HTTP/1.1 over :class:`~repro.engine.server.PlanServer`.

:class:`~repro.engine.server.PlanServer` is in-process only — callers must
hold the plan object and speak ``submit``/futures.  :class:`NetServer` puts
that stack behind a socket so anything that can POST JSON can be a client,
and adds the three things a wire boundary makes necessary:

* **multi-model tenancy** — each :meth:`NetServer.add_model` call mounts one
  artifact (path or in-memory plan, in either ``mode=``) as
  ``POST /v1/models/{name}/predict``, backed by its own
  :class:`~repro.engine.server.PlanServer` (private batcher and shard
  pool); the endpoint is where an artifact path becomes a plan, loaded
  with :func:`~repro.engine.model_plan.load_plan` at mount and at every
  reload;
* **admission control** — when a model's bounded request queue cannot take a
  request's samples, the request is rejected *immediately* with
  ``503 Retry-After`` instead of blocking the accept loop; accepted
  requests therefore see bounded queueing, not a collapsing backlog
  (pinned by ``benchmarks/bench_netserver_slo.py``);
* **SLO instrumentation** — every request's latency is split into
  queue-wait vs compute (via the ``future.timing`` stamps the shard workers
  attach) and recorded into
  :class:`~repro.engine.latency.LatencyHistogram` instances;
  ``GET /metrics`` exports p50/p95/p99 per model next to the existing
  ``stats_report()`` counters, and the request counters conserve:
  ``accepted + rejected == offered``.

Routes (all bodies JSON, schema in :mod:`repro.engine.wire`):

=======  ================================  =====================================
Method   Path                              Meaning
=======  ================================  =====================================
GET      ``/healthz``                      liveness + mounted model names
GET      ``/metrics``                      full serving metrics document
POST     ``/v1/models/{name}/predict``     run a ``(N, *sample)`` input batch
POST     ``/v1/models/{name}/reload``      zero-downtime rolling artifact swap
=======  ================================  =====================================

Serving lifecycle: ``reload`` is the one pool-swap path — the replacement
artifact (or, for a bodiless reload, the mounted source again) is loaded
and probe-validated *before* an atomic swap under the admission lock, the
old pool drains in the background (no accepted request dropped,
bit-identical responses across the swap), and a bad or vanished artifact
is refused with 409 while the old pool keeps serving.  A bodiless reload
re-reads the mounted path, so a rewritten artifact serves its new bytes.
A pool's size is fixed at mount (``n_shards``); a reload is the only way to change
it.  The artifact/reload version is visible in ``/metrics``.

Error surface: 400 broken body, 404 unknown route/model, 411 missing
length, 413 oversized body or batch, 422 well-formed input the model cannot
execute (shape mismatch — validated cheaply by running a zero-row probe
batch through the plan before anything queues), 503 saturated / shutting
down, 500 execution failure (exactly the affected
requests — the server itself stays up, which
``tests/engine/test_netserver_faults.py`` pins by following every injected
fault with a successful request).

Transport: stdlib ``http.server.ThreadingHTTPServer`` (one thread per
connection, keep-alive on) — no third-party dependency, GIL released inside
the NumPy GEMMs where the time actually goes.  Client disconnects are
swallowed per-connection (counted in ``/metrics``) and never take the
server down.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import urlparse

import numpy as np

from . import wire
from .latency import LatencyHistogram
from .model_plan import load_plan
from .server import PlanServer, ServerClosed

__all__ = ["NetServer", "ModelEndpoint", "EndpointCounters", "Saturated"]


class Saturated(RuntimeError):
    """A request refused by admission control (mapped to 503 + Retry-After)."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class EndpointCounters:
    """Thread-safe request accounting for one served model.

    The conservation contract — every *offered* request is classified as
    exactly one of *accepted* or *rejected*, and every accepted request
    eventually lands in *completed* or *failed* — is what makes the counters
    trustworthy for capacity math; ``tests/engine/test_netserver_load.py``
    asserts it over a live socket.  The same sum holds at sample
    granularity (``samples_offered == samples_accepted +
    samples_rejected``): a request's samples enter the queue in one step
    or not at all, so a failed submission is counted wholly rejected,
    never half-accepted.
    ``bad_requests`` counts bodies refused before admission (400/413/422)
    and is deliberately outside the conservation sum, as is the lifecycle
    counter ``reloads``.
    """

    FIELDS = ("offered", "accepted", "rejected", "completed", "failed",
              "bad_requests", "samples_offered", "samples_accepted",
              "samples_rejected", "reloads")

    def __init__(self):
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def add(self, **fields: int) -> None:
        """Atomically bump the named counters by the given amounts."""
        with self._lock:
            for name, amount in fields.items():
                setattr(self, name, getattr(self, name) + amount)

    def to_dict(self) -> dict:
        """A mutually consistent snapshot of every counter.
        Thread-safe: reads under the internal lock."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (never negative); ``None`` if unset."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def _resolve(source, mode: Optional[str]):
    """``(plan, artifact)`` for a plan source, the one place a path
    becomes a plan.

    A path is stat'ed, then loaded in ``mode`` (``"float"`` when
    ``None``).  The stat is the artifact identity ``/metrics`` reports:
    absolute path, mtime and size.  It runs before the load reads the
    file, so a writer that replaces the file in between leaves the
    identity one version behind the served bytes — equal artifact blocks
    make equal parsed bytes likely, not guaranteed.  An in-memory plan is
    served as it is, or as ``source.with_mode(mode)`` when a mode is given
    (a new plan over the same layer plans; the caller's object keeps its
    route), and has no artifact identity.  Nothing is started here, so a
    failed stat or load leaves nothing behind.
    """
    if not isinstance(source, (str, os.PathLike)):
        return (source if mode is None else source.with_mode(mode)), None
    path = os.path.abspath(os.fspath(source))
    stat = os.stat(path)
    artifact = {"path": path, "mtime_ns": stat.st_mtime_ns,
                "size_bytes": stat.st_size}
    return load_plan(path, mode=mode or "float"), artifact


class ModelEndpoint:
    """One mounted model: a :class:`PlanServer` plus wire-side accounting.

    Constructed through :meth:`NetServer.add_model`.  The endpoint owns
    admission control (one non-blocking, all-or-nothing submit per request,
    so an admitted request never blocks on a full queue), the per-request
    latency histograms, and the serving lifecycle: rolling :meth:`reload`
    (probe-validated atomic swap to a new artifact, or to a fresh pool from
    the retained source, with a background drain of the old pool).

    Lock map (declared below for the static analyzer): ``_drains`` is
    guarded by ``_reload_lock``.  ``_known_shapes`` is deliberately *not*
    declared — it is a copy-on-write ``frozenset`` replaced wholesale
    under ``_probe_lock``, so the membership fast path reads a stable
    immutable snapshot without locking.
    """

    _GUARDED_BY = {"_drains": "_reload_lock"}

    def __init__(self, name: str, plan_source, server_kwargs: dict,
                 request_timeout_s: float = 60.0,
                 mode: Optional[str] = None):
        if not 0.0 < request_timeout_s < float("inf"):
            raise ValueError(f"request_timeout_s must be finite and > 0, "
                             f"got {request_timeout_s!r}")
        self.name = name
        self._plan_source = plan_source
        self._mode = mode
        self._server_kwargs = dict(server_kwargs)
        plan, self._artifact = _resolve(plan_source, mode)
        self.server = PlanServer(plan, **self._server_kwargs)
        self.request_timeout_s = float(request_timeout_s)
        self.counters = EndpointCounters()
        self.latency: Dict[str, LatencyHistogram] = {
            "total": LatencyHistogram(),
            "queue": LatencyHistogram(),
            "compute": LatencyHistogram(),
        }
        self._admission = threading.Lock()
        self._probe_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._known_shapes: frozenset = frozenset()   # copy-on-write
        self._drains: list = []

    # ------------------------------------------------------------------ #
    def _validate_sample_shape(self, batch: np.ndarray) -> None:
        """422 unless the plan can execute this sample shape.

        A zero-row probe batch runs the whole graph at zero cost (the
        zero-batch path is part of the engine contract since PR 4), so a
        wrong spatial size or channel count fails *here*, with the plan's
        own error message, instead of poisoning a shard mid-batch.  Each
        distinct accepted shape is probed once and then remembered.

        Probes are serialized under one lock, so concurrent first requests
        of one new shape run a single probe.  The remembered-shape fast
        path stays lock-free.
        """
        shape = tuple(int(dim) for dim in batch.shape[1:])
        if shape in self._known_shapes:
            return
        with self._probe_lock:
            if shape in self._known_shapes:   # probed while we waited
                return
            probe = np.zeros((0,) + shape)
            try:
                self.server.plan.execute(probe)
            except Exception as error:   # noqa: BLE001 — classified as 422
                raise wire.UnprocessableInput(
                    f"model {self.name!r} cannot execute sample shape "
                    f"{shape}: {type(error).__name__}: {error}") from error
            self._known_shapes = self._known_shapes | {shape}

    def _admit(self, batch: np.ndarray) -> List:
        """Classify the request as accepted (submitting it) or rejected.

        Capacity is checked once, by ``submit_many(timeout=0)`` itself: it
        queues all of the request's rows or none, and its
        :class:`TimeoutError` is the full-queue answer.  The admission lock
        orders admissions against a reload's pool swap and keeps the
        counters in step.  Raises :class:`Saturated` (503) on a full queue
        and :class:`ServerClosed` (503) while shutting down.

        Conservation holds at request *and* sample level through every exit:
        :meth:`PlanServer.submit_many` enqueues all of a request's rows in
        one step or none of them, so a request that fails to enqueue is
        counted rejected as a whole — never half-accepted with reader-less
        samples left executing.
        """
        n = int(batch.shape[0])
        batcher = self.server.batcher
        with self._admission:
            self.counters.add(offered=1, samples_offered=n)
            try:
                futures = self.server.submit_many(batch, timeout=0.0)
            except ServerClosed:
                self.counters.add(rejected=1, samples_rejected=n)
                raise
            except TimeoutError as error:
                self.counters.add(rejected=1, samples_rejected=n)
                raise Saturated(
                    f"model {self.name!r} queue is full "
                    f"({batcher.pending}/{batcher.queue_size} pending, "
                    f"{n} samples offered); retry shortly") from error
            self.counters.add(accepted=1, samples_accepted=n)
        return futures

    def predict(self, body: bytes):
        """Decode, validate, admit, execute and time one predict request.

        Returns the response body bytes.  Raises
        :class:`~repro.engine.wire.WireError` (4xx), :class:`Saturated` /
        :class:`~repro.engine.server.ServerClosed` (503) or lets execution
        errors (500, exactly this request's samples) propagate — the caller
        maps each to its HTTP status.

        Thread-safe: every handler thread calls this concurrently;
        admission is serialized under the admission lock and the counters
        and histograms take their own locks.
        """
        t_start = time.monotonic()
        try:
            batch = wire.decode_predict_request(
                body, max_samples=self.server.batcher.queue_size)
            self._validate_sample_shape(batch)
        except wire.WireError:
            self.counters.add(bad_requests=1)
            raise
        futures = self._admit(batch)
        # one shared deadline for the whole request: N queued samples used
        # to get request_timeout_s *each*, letting a request overstay its
        # budget N-fold before the 504
        deadline = time.monotonic() + self.request_timeout_s
        try:
            rows = [future.result(timeout=_remaining(deadline))
                    for future in futures]
        except Exception:
            self.counters.add(failed=1)
            self.server._abandon(futures)   # free the still-queued tail
            raise
        # a worker stamps future.timing before it resolves the future
        queue_s = max(future.timing.queue_s for future in futures)
        compute_s = max(future.timing.compute_s for future in futures)
        total_s = time.monotonic() - t_start
        self.latency["total"].record(total_s)
        self.latency["queue"].record(queue_s)
        self.latency["compute"].record(compute_s)
        self.counters.add(completed=1)
        timing_ms = {"total": total_s * 1e3, "queue": queue_s * 1e3,
                     "compute": compute_s * 1e3}
        return wire.encode_predict_response(self.name, np.stack(rows),
                                            timing_ms)

    # ------------------------------------------------------------------ #
    def _probe_validate(self, server: PlanServer) -> None:
        """Run every shape this endpoint has served through a fresh pool.

        Zero-row probes, so validation is free; a replacement artifact that
        cannot execute what live clients are sending is refused *before*
        any swap."""
        with self._probe_lock:
            shapes = sorted(self._known_shapes)
        for shape in shapes:
            probe = np.zeros((0,) + shape)
            server.plan.execute(probe)

    def reload(self, path: Optional[str] = None) -> dict:
        """Zero-downtime rolling swap of the serving pool (and artifact).

        Stats and loads ``path`` (or the retained mount source) afresh in
        the mount's ``mode``, so a rewritten ``.npz`` at the same path
        serves its new bytes; builds a completely fresh :class:`PlanServer`
        over that plan, validates it with zero-row probes of every sample
        shape this endpoint has served, and only then swaps it in
        **atomically under the admission lock** — every request is
        admitted into exactly one pool, before or after the swap, never
        between.  The old pool drains in a background thread: requests it
        accepted hold futures into it and complete bit-identically; nothing
        accepted is ever dropped, and the replaced plan is freed once its
        pool has drained.  The probe-shape cache is invalidated (the new
        plan revalidates from scratch) and the ``/metrics`` plan block is
        re-versioned (artifact mtime/size + reload counter).

        A reload that fails — unreadable, corrupt or vanished artifact,
        probe failure — raises :class:`~repro.engine.wire.ReloadRejected`
        (409) and leaves the serving pool untouched.
        """
        with self._reload_lock:             # swaps are strictly sequential
            source = self._plan_source if path is None else path
            label = (source if isinstance(source, (str, os.PathLike))
                     else type(source).__name__)
            try:
                plan, artifact = _resolve(source, self._mode)
                fresh = PlanServer(plan, **self._server_kwargs)
            except Exception as error:   # noqa: BLE001 — classified as 409
                raise wire.ReloadRejected(
                    f"model {self.name!r} reload from {label!r} failed "
                    f"before any swap: {type(error).__name__}: {error}; "
                    "the current pool keeps serving") from error
            try:
                self._probe_validate(fresh)
            except Exception as error:   # noqa: BLE001 — classified as 409
                fresh.close()
                raise wire.ReloadRejected(
                    f"model {self.name!r} reload from {label!r} failed "
                    f"probe validation: {type(error).__name__}: {error}; "
                    "the current pool keeps serving") from error
            with self._admission:
                old = self.server
                self.server = fresh
                self._plan_source = source
                self._artifact = artifact
                with self._probe_lock:
                    self._known_shapes = frozenset()
                self.counters.add(reloads=1)
            # drain the old pool off the request path: its accepted
            # requests resolve through their futures as the workers finish
            drain = threading.Thread(target=old.close,
                                     name=f"drain-{self.name}", daemon=True)
            drain.start()
            self._drains = [d for d in self._drains if d.is_alive()]
            self._drains.append(drain)
            return {"model": self.name, "reloaded": True,
                    "reloads": self.counters.to_dict()["reloads"],
                    "n_shards": fresh.n_shards, "artifact": artifact}

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the pool and join pending reload drains, in one deadline.

        ``timeout`` (seconds, ``None`` waits for everything) bounds the pool
        drain and the reload-drain joins together.  On expiry the pool is
        still closed to new submits and :class:`TimeoutError` is raised;
        call :meth:`close` again to finish the drain.  Thread-safe: the
        drain list is snapshotted under the reload lock.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            self.server.close(timeout=_remaining(deadline))
            draining = 0
        except TimeoutError:
            draining = 1
        with self._reload_lock:
            drains = list(self._drains)
        for drain in drains:
            drain.join(timeout=_remaining(deadline))
        draining += sum(drain.is_alive() for drain in drains)
        if draining:
            raise TimeoutError(
                f"model {self.name!r}: close({timeout=}) expired with "
                f"{draining} pool(s) still draining; call close() again "
                "to finish")

    def metrics(self) -> dict:
        """This endpoint's full metrics document (one entry of ``/metrics``).
        Thread-safe: built from locked snapshots (counters, histograms,
        batcher stats); distinct blocks may straddle concurrent updates."""
        plan = self.server.plan
        counters = self.counters.to_dict()
        return {
            "plan": {
                "name": getattr(plan, "name", "") or self.name,
                "mode": getattr(plan, "mode", "float"),
                # a version block that changes iff the served bytes can:
                # artifact identity (path, mtime, size) plus the lifetime
                # reload count of this endpoint
                "version": {
                    "reloads": counters["reloads"],
                    "artifact": self._artifact,
                },
            },
            "admission": {
                "queue_size": self.server.batcher.queue_size,
                "pending": self.server.batcher.pending,
            },
            "requests": counters,
            "latency": {kind: histogram.to_dict()
                        for kind, histogram in self.latency.items()},
            "serving": self.server.stats_report(),
        }


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
class _HttpServer(ThreadingHTTPServer):
    """Threading HTTP server that treats client aborts as noise, not errors."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a connection burst beyond
    # it stalls clients for a full SYN retransmit (~1s) or resets them.
    request_queue_size = 128
    net: "NetServer" = None   # attached by NetServer right after construction

    def handle_error(self, request, client_address):
        """Count client-side connection drops; re-raise nothing, log others."""
        import sys
        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionError, socket.timeout, OSError)):
            if self.net is not None:
                self.net._note_disconnect()
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Request handler: routes, body limits, JSON responses, quiet logging."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-netserver/1"
    timeout = 60.0                      # per-connection socket timeout
    # The handler writes status+headers and the JSON body as separate
    # segments; with Nagle on, the body segment stalls behind the client's
    # delayed ACK (~40ms per keep-alive request at small payloads).
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr by default; a
    # serving benchmark must not measure terminal I/O.
    def log_message(self, format, *args):   # noqa: A002 — stdlib signature
        """Silence per-request stderr logging (metrics replace it)."""

    @property
    def net(self) -> "NetServer":
        """The owning :class:`NetServer` (attached to the HTTP server)."""
        return self.server.net

    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, body: bytes,
                   headers: Optional[dict] = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionError, socket.timeout, BrokenPipeError):
            self.net._note_disconnect()
            self.close_connection = True

    def _send_error(self, status: int, reason: str, detail: str,
                    headers: Optional[dict] = None) -> None:
        self._send_json(status, wire.encode_error(status, reason, detail),
                        headers)

    def _read_body(self) -> Optional[bytes]:
        """Read the request body within limits; ``None`` means already handled."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._send_error(411, "length required",
                             "predict requests must carry Content-Length")
            return None
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError(length_header)
        except ValueError:
            self._send_error(400, "bad request",
                             f"invalid Content-Length {length_header!r}")
            return None
        if length > self.net.max_body_bytes:
            # refuse without reading; the unread body forces a fresh connection
            self.close_connection = True
            self._send_error(413, "payload too large",
                             f"body of {length} bytes exceeds the "
                             f"{self.net.max_body_bytes}-byte limit",
                             headers={"Connection": "close"})
            return None
        try:
            body = self.rfile.read(length)
        except (ConnectionError, socket.timeout):
            self.net._note_disconnect()
            self.close_connection = True
            return None
        if len(body) < length:
            # client hung up mid-request; answering is best-effort
            self.net._note_disconnect()
            self.close_connection = True
            self._send_error(400, "bad request",
                             f"body truncated at {len(body)}/{length} bytes")
            return None
        return body

    # ------------------------------------------------------------------ #
    def do_GET(self):   # noqa: N802 — stdlib naming
        """Serve ``/healthz`` and ``/metrics``."""
        path = urlparse(self.path).path
        if path == "/healthz":
            self._send_json(200, json.dumps(self.net.health()).encode())
        elif path == "/metrics":
            self._send_json(200, json.dumps(self.net.metrics()).encode())
        else:
            self._send_error(404, "not found", f"no route for GET {path}")

    def _read_optional_body(self) -> Optional[bytes]:
        """Like :meth:`_read_body` but a missing Content-Length means empty.

        Lifecycle requests (reload) take an optional JSON body; forcing a
        411 on the bare-POST common case would be protocol pedantry.  The
        size cap still applies.
        """
        if self.headers.get("Content-Length") is None:
            return b""
        return self._read_body()

    def do_POST(self):   # noqa: N802 — stdlib naming
        """Serve ``/v1/models/{name}/`` ``predict`` / ``reload``."""
        path = urlparse(self.path).path
        parts = [part for part in path.split("/") if part]
        if len(parts) != 4 or parts[:2] != ["v1", "models"] \
                or parts[3] not in ("predict", "reload"):
            self._send_error(404, "not found", f"no route for POST {path}")
            return
        name, action = parts[2], parts[3]
        endpoint = self.net.endpoint(name)
        if endpoint is None:
            self._send_error(404, "not found",
                             f"no model {name!r} is mounted; available: "
                             f"{sorted(self.net.model_names())}")
            return
        if action == "reload":
            body = self._read_optional_body()
            if body is None:
                return
            try:
                info = endpoint.reload(wire.decode_reload_request(body))
            except wire.WireError as error:   # 400 bad body / 409 rejected
                self._send_error(error.status, error.reason, error.detail)
                return
            self._send_json(200, json.dumps(info).encode())
            return
        body = self._read_body()
        if body is None:
            return
        try:
            response = endpoint.predict(body)
        except wire.WireError as error:
            self._send_error(error.status, error.reason, error.detail)
            return
        except Saturated as error:
            self._send_error(503, "saturated", error.detail,
                             headers={"Retry-After": "1"})
            return
        except ServerClosed as error:
            self._send_error(503, "unavailable",
                             f"model {name!r} is not serving: {error}; "
                             "retry later",
                             headers={"Retry-After": "1"})
            return
        except TimeoutError as error:
            self._send_error(504, "deadline exceeded",
                             f"request did not complete within "
                             f"{endpoint.request_timeout_s}s: {error}")
            return
        except Exception as error:   # noqa: BLE001 — shard faults -> 500
            self._send_error(500, "execution failed",
                             f"{type(error).__name__}: {error}")
            return
        self._send_json(200, response)


# --------------------------------------------------------------------------- #
# the front end
# --------------------------------------------------------------------------- #
class NetServer:
    """The multi-model HTTP serving front end.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` (default) binds an ephemeral port —
        read the real one from :attr:`port` / :attr:`url` (how every test
        and the demo runs, so nothing collides).
    max_body_bytes:
        Request bodies larger than this are refused with 413 *before*
        being read (:data:`repro.engine.wire.MAX_BODY_BYTES` by default).

    Lifecycle: construct (binds), :meth:`add_model` any number of times,
    :meth:`start` (accept loop in a daemon thread), :meth:`close` (stop
    accepting, then drain every model's shard pool — the no-drop contract
    of :meth:`PlanServer.close` extends to the wire).  Also a context
    manager: ``with NetServer() as net: ...``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = wire.MAX_BODY_BYTES):
        self.max_body_bytes = int(max_body_bytes)
        self._endpoints: Dict[str, ModelEndpoint] = {}
        self._endpoints_lock = threading.Lock()
        self._disconnects = 0
        self._disconnects_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._httpd = _HttpServer((host, port), _Handler)
        self._httpd.net = self
        self._serve_thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound host address (immutable after construction)."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral one when constructed with ``port=0``;
        immutable after construction)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target, e.g. ``http://127.0.0.1:43210``
        (immutable after construction)."""
        return f"http://{self.host}:{self.port}"

    def _note_disconnect(self) -> None:
        with self._disconnects_lock:
            self._disconnects += 1

    @property
    def client_disconnects(self) -> int:
        """Connections dropped by clients mid-request/response (survived).
        Thread-safe: reads under the disconnect lock."""
        with self._disconnects_lock:
            return self._disconnects

    # ------------------------------------------------------------------ #
    def add_model(self, name: str, plan, *, mode: Optional[str] = None,
                  request_timeout_s: float = 60.0,
                  **server_kwargs) -> ModelEndpoint:
        """Mount a model at ``/v1/models/{name}/predict``.

        ``plan`` is an artifact path, loaded with
        :func:`~repro.engine.model_plan.load_plan` in ``mode`` (``"float"``
        when ``None``) at mount and again at every reload, or an in-memory
        :class:`~repro.engine.model_plan.ModelPlan` (any executor), served
        as ``plan.with_mode(mode)`` when ``mode`` is given.  An unknown ``mode``
        raises :class:`ValueError` and mounts nothing.  ``server_kwargs``
        are forwarded verbatim to :class:`PlanServer` (``n_shards``,
        ``max_batch``, ``queue_size``).  One request's batch is capped at
        ``queue_size`` (a request that can never be admitted is a 413, not
        an eternal 503); ``request_timeout_s`` bounds how long a handler
        waits for results before answering 504, and unless it is finite
        and > 0, :class:`ValueError` is raised and nothing is mounted.
        The pool keeps ``n_shards`` shards until a
        :meth:`ModelEndpoint.reload` replaces it.

        Thread-safe: the mount table is updated under the endpoints lock;
        a duplicate name is refused (and its endpoint torn down).
        """
        if not name or any(ch in name for ch in "/ \t\n"):
            raise ValueError(f"model name {name!r} must be non-empty and "
                             "contain no slashes or whitespace")
        # the endpoint retains the *path* as its plan source, so
        # bodiless reloads re-resolve the artifact (new bytes included)
        endpoint = ModelEndpoint(name, plan, server_kwargs,
                                 request_timeout_s=request_timeout_s,
                                 mode=mode)
        with self._endpoints_lock:
            if name in self._endpoints:
                endpoint.close()
                raise ValueError(f"model {name!r} is already mounted")
            self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Optional[ModelEndpoint]:
        """The mounted endpoint for ``name`` (``None`` when unknown).
        Thread-safe: reads the mount table under the endpoints lock."""
        with self._endpoints_lock:
            return self._endpoints.get(name)

    def model_names(self) -> List[str]:
        """Names of every mounted model.
        Thread-safe: snapshots the mount table under the endpoints lock."""
        with self._endpoints_lock:
            return list(self._endpoints)

    # ------------------------------------------------------------------ #
    def start(self) -> "NetServer":
        """Start the accept loop in a daemon thread; returns ``self``."""
        if self._closed:
            raise RuntimeError("NetServer is closed")
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="netserver-accept", daemon=True)
            self._serve_thread.start()
        return self

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, then drain every model.

        New connections are refused first; requests already admitted into a
        model's queue are served to completion by
        :meth:`ModelEndpoint.close`.  ``timeout`` (seconds, ``None`` waits
        for everything) is one deadline shared by every model's drain.
        Every model is closed to new submits even when an earlier one runs
        out of time; on expiry :class:`TimeoutError` names the models still
        draining, and calling :meth:`close` again finishes the drain.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._closed:
            self._closed = True
            if self._serve_thread is not None:
                self._httpd.shutdown()
                self._serve_thread.join(timeout=5.0)
            self._httpd.server_close()
        with self._endpoints_lock:
            endpoints = list(self._endpoints.values())
        draining = []
        for endpoint in endpoints:
            try:
                endpoint.close(timeout=_remaining(deadline))
            except TimeoutError:
                draining.append(endpoint.name)
        if draining:
            raise TimeoutError(
                f"close({timeout=}) expired with models {draining} still "
                "draining; call close() again to finish")

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The ``/healthz`` document: liveness plus mounted model names.
        Thread-safe: reads only locked snapshots and immutable state."""
        return {
            "status": "ok",
            "models": sorted(self.model_names()),
            "uptime_s": time.monotonic() - self._started_at,
        }

    def metrics(self) -> dict:
        """The ``/metrics`` document: per-model SLO + serving statistics.

        Per model: the request counters (conserving ``accepted + rejected
        == offered``), the total/queue/compute latency histograms
        (p50/p95/p99 in milliseconds), admission state, and the underlying
        :meth:`PlanServer.stats_report`.

        Thread-safe: the mount table is snapshotted under the endpoints
        lock and every per-model block is built from locked snapshots.
        """
        with self._endpoints_lock:
            endpoints = dict(self._endpoints)
        return {
            "server": {
                "url": self.url,
                "uptime_s": time.monotonic() - self._started_at,
                "client_disconnects": self.client_disconnects,
                "max_body_bytes": self.max_body_bytes,
            },
            "models": {name: endpoint.metrics()
                       for name, endpoint in sorted(endpoints.items())},
        }
