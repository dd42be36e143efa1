"""Wire protocol of the network serving front end: framing-free JSON bodies.

:mod:`repro.engine.netserver` speaks HTTP/1.1, so framing (content length,
keep-alive, status lines) is the transport's problem; what is left — and
what this module owns — is the **payload contract** between a client and a
served model:

* a predict request body is ``{"inputs": <nested list>}`` where the list
  decodes to a rectangular numeric array of shape ``(N, *sample_shape)``
  (the batch axis is always explicit, even for ``N == 1``);
* a predict response body is ``{"model", "outputs", "batch", "timing_ms"}``
  with outputs row ``i`` belonging to input row ``i``;
* every error body is ``{"error": {"status", "reason", "detail"}}``.

Decoding failures raise a :class:`WireError` subtype that carries the HTTP
status the front end should answer with — :class:`BadRequest` (400,
syntactically broken), :class:`PayloadTooLarge` (413, refused before
parsing) or :class:`UnprocessableInput` (422, well-formed but not runnable
by the target model).  Keeping the classification here, away from sockets,
is what makes the 400/413/422 paths unit-testable without a live server
(``tests/engine/test_netserver_faults.py`` exercises both levels).

Numerics: float64 values survive a JSON round-trip bit-exactly (Python
serializes the shortest string that reparses to the same double), which is
what lets the load suite assert **bit-identical** outputs over the socket
vs the in-process runner.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

__all__ = ["WireError", "BadRequest", "PayloadTooLarge", "UnprocessableInput",
           "ReloadRejected", "decode_predict_request", "decode_reload_request",
           "encode_predict_response", "encode_error", "MAX_BODY_BYTES"]

# Default cap on a request body; netserver rejects larger Content-Lengths
# with 413 before reading them.  Generous for image batches at benchmark
# scale, small enough that a hostile body cannot balloon the heap.
MAX_BODY_BYTES = 8 * 1024 * 1024


class WireError(Exception):
    """A request the server refuses; carries the HTTP status to answer with."""

    status = 400
    reason = "bad request"

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class BadRequest(WireError):
    """400 — body is not the protocol (broken JSON, wrong/missing fields)."""

    status = 400
    reason = "bad request"


class PayloadTooLarge(WireError):
    """413 — body (or decoded batch) exceeds the configured limits."""

    status = 413
    reason = "payload too large"


class UnprocessableInput(WireError):
    """422 — well-formed request the target model cannot execute (shape)."""

    status = 422
    reason = "unprocessable input"


class ReloadRejected(WireError):
    """409 — a rolling reload refused before any swap happened.

    Raised when the replacement artifact cannot be loaded or fails its
    probe validation: the request conflicts with the state on disk, the old
    pool keeps serving untouched, and the caller should fix the artifact
    and retry — which is why this is a 4xx, not a 5xx (the *server* is
    healthy; the *request* named an unservable artifact).
    """

    status = 409
    reason = "reload rejected"


def decode_predict_request(body: bytes,
                           max_samples: Optional[int] = None) -> np.ndarray:
    """Parse a predict body into a ``float64`` ``(N, *sample_shape)`` batch.

    Applies the protocol checks that need no model knowledge: valid JSON
    object, an ``"inputs"`` field, rectangular numeric content, an explicit
    batch axis (``ndim >= 2``), at least one sample, and — when
    ``max_samples`` is given — a batch no larger than the server is willing
    to queue from one request.  Shape-vs-model validation happens later, in
    the endpoint, where the plan is known.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest(f"body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object, got "
                         f"{type(payload).__name__}")
    if "inputs" not in payload:
        raise BadRequest('body is missing the "inputs" field')
    try:
        batch = np.asarray(payload["inputs"], dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise BadRequest(
            f'"inputs" must be a rectangular numeric array: {error}'
        ) from error
    if batch.ndim < 2:
        raise UnprocessableInput(
            f'"inputs" must carry an explicit batch axis — shape '
            f"(N, *sample_shape), got shape {batch.shape}; wrap a single "
            "sample in one more list level")
    if batch.shape[0] == 0:
        raise UnprocessableInput('"inputs" contains no samples')
    if max_samples is not None and batch.shape[0] > max_samples:
        raise PayloadTooLarge(
            f'"inputs" carries {batch.shape[0]} samples but this server '
            f"accepts at most {max_samples} per request; split the batch")
    return batch


def decode_reload_request(body: bytes) -> Optional[str]:
    """Parse a reload body into its optional replacement artifact path.

    An empty body (the common case — re-stat the artifact the model was
    mounted from) decodes to ``None``.  A non-empty body must be a JSON
    object whose only recognized field is ``"path"``, a non-empty string
    naming the artifact to serve next; anything else is a
    :class:`BadRequest` so typos fail loudly instead of silently reloading
    the old path.
    """
    if not body:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest(f"body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise BadRequest("reload body must be a JSON object, got "
                         f"{type(payload).__name__}")
    unknown = sorted(set(payload) - {"path"})
    if unknown:
        raise BadRequest(f"unknown reload field(s) {unknown}; "
                         'only "path" is accepted')
    if "path" not in payload:
        return None
    path = payload["path"]
    if not isinstance(path, str) or not path:
        raise BadRequest('"path" must be a non-empty string, got '
                         f"{path!r}")
    return path


def encode_predict_response(model: str, outputs: np.ndarray,
                            timing_ms: Optional[dict] = None) -> bytes:
    """Serialize a batch of output rows into the response body."""
    payload = {
        "model": model,
        "batch": int(np.asarray(outputs).shape[0]),
        "outputs": np.asarray(outputs).tolist(),
    }
    if timing_ms is not None:
        payload["timing_ms"] = timing_ms
    return json.dumps(payload).encode("utf-8")


def encode_error(status: int, reason: str, detail: str) -> bytes:
    """Serialize the uniform error body every non-2xx response carries."""
    return json.dumps(
        {"error": {"status": int(status), "reason": reason,
                   "detail": detail}}).encode("utf-8")
