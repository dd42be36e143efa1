"""Span recorder for the traced run: wraps public engine callables from outside.

The engine has no tracing of its own yet, so the benchmark installs thin
wrappers around the public functions and methods of each engine module
(``Tracer.install``) and removes them again (``Tracer.uninstall``), which
lets one run alternate untraced and traced windows and measure the
tracer's own overhead.  Every call becomes one span -- name, start, end,
parent span, thread, and the id of the batch or request it served -- kept
in memory and written out as JSON lines when the run ends.

Spans nest per thread.  A span's *self* time is its duration minus its
children's.  A request's wait for its results is recorded as a child span
(``netserver.wait``) of the handler, so the handler's self time excludes
the queueing and compute done on shard threads.

Executors are named by role (``executor``), not by class: whichever of
``ModelPlan.execute`` / ``CompiledPlan.execute`` the loaded artifact uses is
the executor.
"""

import itertools
import json
import sys
import threading
import time
from collections import defaultdict, namedtuple
from concurrent.futures import Future

import common

#: One recorded call.  ``ctx`` is the batch or request id (the id of the
#: enclosing ``runner.execute_batch`` or ``netserver.predict`` span); ``phase``
#: is ``"setup"`` or ``"timed"``; ``attrs`` holds rows, MACs and ADC counts.
Span = namedtuple("Span", "id parent name thread start end ctx phase attrs")

#: Spans that open a new context: every span under them carries their id.
_BATCH_ROOT = "runner.execute_batch"
_REQUEST_ROOT = "netserver.predict"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``phase`` labels the spans recorded from now on (``"setup"`` or
    ``"timed"``); summaries of per-batch and per-request work read only the
    ``"timed"`` spans.  Spans are appended from many threads; ``list.append``
    and ``next()`` on an ``itertools.count`` are atomic under the GIL.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []            # (owner, attribute, original)
        self._layer_index = {}        # id(layer plan) -> CIM layer number
        self._adc_conversions = None  # cim.cost.layer_adc_conversions

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _wrap(self, func, name, attrs=None):
        """Return ``func`` wrapped to record one span per call.

        ``name`` is a string or a callable ``(args) -> str``; ``attrs`` is an
        optional callable ``(args, result) -> dict`` stored on the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_name = name(args) if callable(name) else name
            span_id = next(tracer._ids)
            parent, ctx = stack[-1] if stack else (None, None)
            if span_name in (_BATCH_ROOT, _REQUEST_ROOT):
                ctx = span_id
            stack.append((span_id, ctx))
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if (attrs and result is not None) \
                    else None
                tracer.spans.append(Span(span_id, parent, span_name,
                                         threading.get_ident(), start, end,
                                         ctx, tracer.phase, extra))

        traced.__wrapped__ = func
        return traced

    def _patch(self, owner, attribute, name, attrs=None):
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, self._wrap(original, name, attrs))
        self._patches.append((owner, attribute, original))

    def _patch_function(self, func, name, attrs=None):
        """Wrap ``func`` in every loaded ``repro`` module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attribute, name, attrs)

    # ------------------------------------------------------------------ #
    # the wrapped surface
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap the public callables of every engine layer."""
        if self._patches:
            return
        from repro import engine
        from repro.cim import cost
        from repro.engine import model_plan, runner, server, wire, netserver

        self._adc_conversions = cost.layer_adc_conversions

        self._patch_function(model_plan.load_plan, "model_plan.load",
                             self._register_layers)
        for cls in (getattr(engine, "ModelPlan", None),
                    getattr(engine, "CompiledPlan", None)):
            if cls is not None and "execute" in cls.__dict__:
                self._patch(cls, "execute", "executor", _rows)
        for cls in (engine.ConvPlan, engine.LinearPlan):
            self._patch(cls, "execute", self._layer_name, self._layer_cost)
        self._patch(runner.InferenceRunner, "predict", "runner.predict")
        self._patch(runner.PlanExecutor, "execute_batch", _BATCH_ROOT, _rows)
        self._patch(server.PlanServer, "__init__", "server.pool_start")
        self._patch(server.PlanServer, "submit_many", "server.submit_many")
        self._patch_function(wire.decode_predict_request, "wire.decode")
        self._patch_function(wire.encode_predict_response, "wire.encode")
        self._patch(netserver.ModelEndpoint, "predict", _REQUEST_ROOT)
        self._patch(Future, "result", "netserver.wait")

    def uninstall(self) -> None:
        """Restore every wrapped callable (spans recorded so far are kept)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _register_layers(self, args, plan) -> None:
        for index, layer in enumerate(getattr(plan, "layer_plans", ())):
            self._layer_index[id(layer)] = index

    def _layer_name(self, args) -> str:
        return f"plan.layer{self._layer_index.get(id(args[0]), 'x')}"

    def _layer_cost(self, args, out) -> dict:
        """MACs and ADC conversions of one CIM layer call (``cim/cost.py``)."""
        layer = args[0]
        rows = int(out.shape[0])
        spatial = 1
        for dim in out.shape[2:]:
            spatial *= int(dim)
        mapping = layer.mapping
        macs = rows * spatial * mapping.in_features * mapping.out_channels
        adcs = (self._adc_conversions(mapping, spatial, rows)
                if layer.psum_quant_enabled else 0)
        return {"rows": rows, "macs": macs, "adcs": adcs}

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")

    def summary(self) -> dict:
        """Per-layer figures from the recorded spans (times in ms).

        A figure is present only when the spans it needs were recorded, so
        layers the workload never reached are absent, not zero.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start

        def dur(span):
            return span.end - span.start

        def self_time(span):
            return dur(span) - child_time.get(span.id, 0.0)

        timed = defaultdict(list)
        setup = defaultdict(list)
        for span in self.spans:
            (timed if span.phase == "timed" else setup)[span.name].append(span)
        out = {}
        batches = [s for s in timed["executor"] if s.attrs and s.attrs["rows"]]
        layers = {name: group for name, group in timed.items()
                  if name.startswith("plan.layer")}
        layer_spans = [s for group in layers.values() for s in group]
        layer_seconds = sum(dur(s) for s in layer_spans)
        if batches:
            n = len(batches)
            out["executor.self_ms_per_batch"] = _ms(
                sum(self_time(s) for s in batches), n)
            out["plan.cim_ms_per_batch"] = _ms(layer_seconds, n)
            for name, group in layers.items():
                out[f"{name}.ms_per_batch"] = _ms(sum(dur(s) for s in group), n)
        if layer_seconds:
            out["plan.mac_per_s"] = sum(s.attrs["macs"] for s in layer_spans
                                        if s.attrs) / layer_seconds
            out["plan.adc_conv_per_s"] = sum(s.attrs["adcs"]
                                             for s in layer_spans
                                             if s.attrs) / layer_seconds
        if timed[_BATCH_ROOT]:
            out["runner.self_ms_per_batch"] = _ms(
                sum(self_time(s) for s in timed["runner.predict"])
                + sum(self_time(s) for s in timed[_BATCH_ROOT]),
                len(timed[_BATCH_ROOT]))
        for metric, name, measure in (
                ("server.submit_ms", "server.submit_many", dur),
                ("wire.decode_ms", "wire.decode", dur),
                ("wire.encode_ms", "wire.encode", dur),
                ("netserver.handler_self_ms", _REQUEST_ROOT, self_time)):
            if timed[name]:
                out[metric] = _ms(sum(measure(s) for s in timed[name]),
                                  len(timed[name]))
        for metric, name in (("model_plan.load_ms", "model_plan.load"),
                             ("server.pool_start_ms", "server.pool_start")):
            if setup[name]:
                out[metric] = common.median([dur(s) * 1e3
                                             for s in setup[name]])
        firsts = _first_batches([s for group in setup.values() for s in group])
        if firsts:
            out["runner.first_batch_ms"] = common.median(firsts)
        return out


def _rows(args, out) -> dict:
    return {"rows": int(getattr(out, "shape", (0,))[0])}


def _ms(seconds: float, count: int) -> float:
    return seconds * 1e3 / count


def _first_batches(spans) -> list:
    """Duration (ms) of the first executed batch after each plan load."""
    firsts = []
    waiting = False
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "model_plan.load":
            waiting = True
        elif span.name == _BATCH_ROOT and waiting:
            firsts.append((span.end - span.start) * 1e3)
            waiting = False
    return firsts
