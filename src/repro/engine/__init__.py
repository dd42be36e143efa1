"""``repro.engine`` — frozen inference engine for CIM layers and models.

The QAT layers in :mod:`repro.core` recompute weight quantization,
bit-splitting, tiling and scale broadcasting on every forward call, which is
what training needs but pure waste at deployment time.  This subsystem
compiles that work out, at two granularities:

* :func:`freeze` / :func:`thaw` — switch a whole model (or a single layer)
  into eval fast-path mode and back, losslessly;
* :class:`ConvPlan` / :class:`LinearPlan` — the compiled per-layer plans
  (cached integer tiled weights, bit-splits, folded ``s_w * s_p * shift``
  dequantization scales);
* :class:`FrozenCIMConv2d` / :class:`FrozenCIMLinear` — drop-in wrapper
  modules that execute the plan and transparently fall back to the original
  QAT forward for training, recording, device variation or uncalibrated
  quantizers;
* :class:`ModelPlan` (:func:`compile_model_plan` / :func:`save_model_plan`)
  — the **model-level artifact**: every layer plan plus folded BatchNorm and
  the inter-layer op graph in one ``.npz`` + JSON manifest, reloadable with
  :func:`load_plan` into a runnable executor without constructing the QAT
  model or its quantizers; it is the engine's one artifact format (a single
  layer ships as a one-node graph) and :meth:`ModelPlan.execute` its one
  executor.  A plan's route (``mode="float"`` or ``"int"``) is fixed when
  it is built and the plan is read-only from then on;
  :meth:`ModelPlan.with_mode` gives the other route over the same layer
  plans;
* :class:`InferenceRunner` / :class:`PlanExecutor` — micro-batching over a
  sample stream with per-layer timing stats, built on the shared
  batch-execution core; the runner splits each batch over the cores that
  :mod:`repro.engine.cpu` (the BLAS-thread and worker policy) grants it;
* :class:`PlanServer` (+ :class:`DynamicBatcher`) — the concurrent serving
  subsystem: per-request ``submit``/futures, work-conserving batching (an
  idle shard takes pending work at once, up to ``max_batch``; each call's
  rows enter the queue as one unit), a fixed pool of shard executors, each
  on its own worker thread, and bounded-queue backpressure; it serves the
  plan object it is given, in that plan's mode;
* :class:`NetServer` — the HTTP/1.1 network front end over
  :class:`PlanServer`: multi-model tenancy
  (``POST /v1/models/{name}/predict``; :meth:`NetServer.add_model` is where
  an artifact path becomes a plan, loaded afresh at mount and at every
  reload), admission control (503 +
  ``Retry-After`` on saturated queues), per-request queue/compute latency
  histograms (:class:`LatencyHistogram`) exported on ``GET /metrics``,
  zero-downtime rolling artifact reloads (``POST
  /v1/models/{name}/reload`` — probe-validated atomic pool swap with a
  background drain, also the one way to re-read a rewritten artifact or
  change a pool, whose size is fixed at mount) and a graceful
  drain on close; the JSON payload contract lives in
  :mod:`repro.engine.wire`.  Its names (``NetServer``, ``ModelEndpoint``,
  ``EndpointCounters``, ``Saturated``) load :mod:`repro.engine.netserver`
  the first time one is read, so importing this package (and running a
  plan offline) imports no HTTP code.

The fast paths are numerically equivalent to the seed layers — see
``tests/engine/``, ``benchmarks/bench_engine_speedup.py``,
``benchmarks/bench_runner_throughput.py`` and
``benchmarks/bench_server_concurrency.py``, and ``docs/engine.md`` for the
full lifecycle guide, artifact schema and serving knobs.
"""

from ..core.requant import (RequantConstants, compile_requant,
                            quantize_multipliers)
from .api import freeze, frozen_layers, is_frozen, thaw
from .frozen import FrozenCIMConv2d, FrozenCIMLinear
from .model_plan import (GraphBuilder, GraphNode, ModelPlan, ModelPlanError,
                         compile_model_plan, load_plan, save_model_plan)
from .plan import (ConvPlan, LinearPlan, PlanNotReadyError, compile_conv_plan,
                   compile_linear_plan, compile_plan, layer_signature,
                   signature_ready)
from .latency import LatencyHistogram
from .runner import InferenceRunner, PlanExecutor, RunnerStats
from .scheduler import (DynamicBatcher, Request, RequestTiming,
                        SchedulerClosed, SchedulerStats)
from .server import PlanServer, ServerClosed
from .server import clear_plan_cache  # noqa: F401 — no-op kept callable
from .wire import (BadRequest, PayloadTooLarge, ReloadRejected,
                   UnprocessableInput, WireError, decode_predict_request,
                   decode_reload_request, encode_error,
                   encode_predict_response)

__all__ = [
    "freeze", "thaw", "is_frozen", "frozen_layers",
    "FrozenCIMConv2d", "FrozenCIMLinear",
    "ConvPlan", "LinearPlan", "PlanNotReadyError",
    "compile_plan", "compile_conv_plan", "compile_linear_plan",
    "layer_signature", "signature_ready",
    "load_plan",
    "GraphBuilder", "GraphNode", "ModelPlan", "ModelPlanError",
    "compile_model_plan", "save_model_plan",
    "InferenceRunner", "PlanExecutor", "RunnerStats",
    "DynamicBatcher", "Request", "RequestTiming", "SchedulerStats",
    "SchedulerClosed",
    "PlanServer", "ServerClosed",
    "NetServer", "ModelEndpoint", "EndpointCounters", "Saturated",
    "LatencyHistogram",
    "WireError", "BadRequest", "PayloadTooLarge", "UnprocessableInput",
    "ReloadRejected",
    "decode_predict_request", "decode_reload_request",
    "encode_predict_response", "encode_error",
    "RequantConstants", "compile_requant", "quantize_multipliers",
]

#: Names of the HTTP front end, loaded by :func:`__getattr__` on first use.
_NETSERVER_NAMES = ("NetServer", "ModelEndpoint", "EndpointCounters",
                    "Saturated")


def __getattr__(name: str):
    """Import :mod:`.netserver` the first time one of its names is read.

    A process that never serves HTTP (an offline runner, a training job)
    then never loads ``http.server`` and the ``http.client``, ``ssl`` and
    ``email`` modules it pulls in.
    """
    if name in _NETSERVER_NAMES:
        from . import netserver
        return getattr(netserver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
