"""Model-level engine artifacts: whole-network plans for frozen CIM models.

The per-layer plans of :mod:`repro.engine.plan` freeze one CIM layer at a
time, but a deployment still had to rebuild the full QAT model object just to
host them.  A :class:`ModelPlan` removes that last dependency: it captures

* one compiled :class:`~repro.engine.plan.ConvPlan` /
  :class:`~repro.engine.plan.LinearPlan` per CIM layer (snapshotted through
  the same :meth:`~repro.core.pipeline.CIMPipeline.compile_state` stage walk
  the QAT forward executes),
* eval-mode BatchNorm folded to static per-channel operands
  (:meth:`repro.nn.norm._BatchNorm.frozen_stats` — applied with the exact
  operation order of the module, so the fold is bit-exact), and
* the inter-layer graph of non-CIM ops (ReLU, pooling, residual adds,
  flatten, full-precision layers) as a small SSA-style node list,

and serializes all of it into a **single** ``.npz`` archive whose
``__manifest__`` entry is a JSON document describing the graph (see
``docs/engine.md`` for the schema).  :func:`load_plan` turns that file back
into a runnable executor **without constructing the QAT model, its layers or
its quantizers** — loading touches only NumPy arrays and plan dataclasses.

Graph capture is hook-based, not trace-based: composite modules implement
``export_graph(builder, node)`` (see :class:`repro.models.blocks.BasicBlock`
for the residual-add example) and leaf modules are handled by the builder's
dispatch table below.  Models composed purely of ``Sequential`` containers
and known leaves need no hook at all.

Execution math is kept bit-identical to the frozen in-process model: a plan
executes in ``float64``, the precision of the QAT Tensor math, and every
node applies the same NumPy operations, in the same order, as the Tensor op
it replaces, so a ``ModelPlan`` reproduces the frozen model exactly (the
test suite pins <= 1e-10; in practice the difference is 0.0).
"""

from __future__ import annotations

import json
import math
import re
import time
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.cim_conv import CIMConv2d
from ..core.cim_linear import CIMLinear
from ..core.requant import CarrierRangeError, RequantFoldError
from ..nn import functional as F
from ..nn.layers import (AvgPool2d, Conv2d, Dropout, Flatten, GlobalAvgPool2d,
                         Identity, Linear, MaxPool2d, ReLU, ReLU6)
from ..nn.module import Module, Sequential
from ..nn.norm import _BatchNorm
from ..nn.tensor import Tensor, no_grad
from .frozen import _FrozenLayer
from .hotpath import hot_path
from .intfold import INT_OPS, fold_int_graph
from .plan import compile_plan, plan_arrays, plan_from_parts, plan_meta

__all__ = [
    "GraphNode",
    "GraphBuilder",
    "ModelPlan",
    "ModelPlanError",
    "compile_model_plan",
    "save_model_plan",
    "load_plan",
    "run_conv2d",
    "run_flatten",
    "run_global_avg_pool",
    "run_linear",
    "run_pool",
]

#: Manifest format marker / version of the model-plan archive schema.
MODEL_PLAN_FORMAT = "repro-model-plan"
#: Version written by :func:`save_model_plan`.  v2 added the per-layer
#: ``requant`` metadata + ``rq_*`` arrays of the integer execution route.
MODEL_PLAN_VERSION = 2
#: Versions :func:`load_plan` accepts.  v1 archives predate the requant
#: constants: they load and execute in float mode, and ``mode="int"``
#: raises :class:`ModelPlanError`.
SUPPORTED_MODEL_PLAN_VERSIONS = frozenset({1, 2})


class ModelPlanError(RuntimeError):
    """Raised for unexportable models and corrupted / incompatible archives."""


def _pair(value) -> List[int]:
    if isinstance(value, (tuple, list)):
        return [int(value[0]), int(value[1])]
    return [int(value), int(value)]


# --------------------------------------------------------------------------- #
# graph IR
# --------------------------------------------------------------------------- #
@dataclass
class GraphNode:
    """One operation of the inter-layer graph.

    ``inputs`` are ids of earlier nodes (node 0 is always the model input),
    ``attrs`` is JSON-serializable structure (pool geometry, ...), ``arrays``
    holds the node's static NumPy operands (folded BN stats, FP weights) and
    ``plan_index`` points into :attr:`ModelPlan.layer_plans` for ``cim``
    nodes.
    """

    id: int
    op: str
    inputs: List[int]
    name: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    plan_index: int = -1


class GraphBuilder:
    """Captures a module tree into a :class:`ModelPlan` node list.

    Composite modules implement ``export_graph(builder, node_id) -> node_id``
    and call :meth:`emit` on their children (in forward order) and
    :meth:`add_op` for functional ops such as residual adds; leaf modules are
    handled by the built-in dispatch.  The builder owns the name scope, so
    node names match the module paths of the source model.
    """

    def __init__(self):
        self.nodes: List[GraphNode] = [GraphNode(id=0, op="input", inputs=[],
                                                 name="input")]
        self.layer_plans: list = []
        self._scope: List[str] = []

    # ------------------------------------------------------------------ #
    @property
    def input_id(self) -> int:
        """Id of the graph's input placeholder node (always 0)."""
        return 0

    def scope_name(self) -> str:
        """Dotted module path of the current emission scope."""
        return ".".join(self._scope)

    def add_op(self, op: str, inputs: List[int], name: str = "",
               arrays: Optional[Dict[str, np.ndarray]] = None,
               **attrs) -> int:
        """Append a node and return its id.

        Float array operands are cast to ``float64`` here, once, so every
        executor run serves pre-cast static data.
        """
        cast = {}
        for key, value in (arrays or {}).items():
            if value is None:
                continue
            value = np.asarray(value)
            if value.dtype.kind == "f":
                value = value.astype(np.float64, copy=False)
            cast[key] = value
        node = GraphNode(id=len(self.nodes), op=op, inputs=list(inputs),
                         name=name or self.scope_name() or op,
                         attrs=attrs, arrays=cast)
        self.nodes.append(node)
        return node.id

    def add_layer_plan(self, plan, inputs: List[int], name: str = "") -> int:
        """Append a ``cim`` node executing an already-compiled layer plan."""
        node_id = self.add_op("cim", inputs, name=name)
        self.nodes[node_id].plan_index = len(self.layer_plans)
        self.layer_plans.append(plan)
        return node_id

    # ------------------------------------------------------------------ #
    def emit(self, module: Module, node: int, name: str = "") -> int:
        """Capture ``module`` applied to graph node ``node``; return the output id.

        Dispatch order: frozen wrappers and CIM layers compile to ``cim``
        nodes, modules providing ``export_graph`` delegate to their hook,
        ``Sequential`` chains its children, and known leaf modules map to
        built-in ops.  Anything else raises :class:`ModelPlanError`.
        """
        if name:
            self._scope.append(name)
        try:
            return self._dispatch(module, node)
        finally:
            if name:
                self._scope.pop()

    def _dispatch(self, module: Module, node: int) -> int:
        if isinstance(module, _FrozenLayer):
            module = module.layer
        if isinstance(module, (CIMConv2d, CIMLinear)):
            variation = module.variation
            if variation is not None and variation.enabled:
                raise ModelPlanError(
                    f"cannot capture {self.scope_name() or type(module).__name__!r}: "
                    "an enabled device-variation model is attached, and model "
                    "plans are deterministic artifacts; run variation studies "
                    "through the in-process freeze path, or detach the model "
                    "(set_variation(None)) before compiling")
            return self.add_layer_plan(compile_plan(module), [node])
        hook = getattr(module, "export_graph", None)
        if hook is not None:
            return hook(self, node)
        if isinstance(module, Sequential):
            for child_name, child in module._modules.items():
                node = self.emit(child, node, name=child_name)
            return node
        return self._leaf(module, node)

    def _leaf(self, module: Module, node: int) -> int:
        if isinstance(module, _BatchNorm):
            mean, denom = module.frozen_stats()
            arrays = {"mean": mean, "denom": denom}
            if module.affine:
                arrays["gamma"] = module.weight.data.copy()
                arrays["beta"] = module.bias.data.copy()
            return self.add_op("batchnorm", [node], arrays=arrays)
        if isinstance(module, ReLU6):          # ReLU6 first: not a ReLU subclass,
            return self.add_op("relu6", [node])  # but keep the specific case near
        if isinstance(module, ReLU):
            return self.add_op("relu", [node])
        if isinstance(module, (Identity, Dropout)):
            return node                        # eval-mode no-ops: emit nothing
        if isinstance(module, Flatten):
            return self.add_op("flatten", [node])
        if isinstance(module, GlobalAvgPool2d):
            return self.add_op("global_avg_pool", [node])
        if isinstance(module, (MaxPool2d, AvgPool2d)):
            op = "max_pool" if isinstance(module, MaxPool2d) else "avg_pool"
            kernel = _pair(module.kernel_size)
            stride = _pair(module.stride if module.stride is not None
                           else module.kernel_size)
            return self.add_op(op, [node], kernel=kernel, stride=stride,
                               padding=_pair(module.padding))
        if isinstance(module, Linear):
            arrays = {"weight": module.weight.data.copy()}
            if module.bias is not None:
                arrays["bias"] = module.bias.data.copy()
            return self.add_op("linear", [node], arrays=arrays)
        if isinstance(module, Conv2d):
            if module.groups != 1:
                raise ModelPlanError(
                    "grouped full-precision Conv2d is not supported by the "
                    "model-plan exporter")
            arrays = {"weight": module.weight.data.copy()}
            if module.bias is not None:
                arrays["bias"] = module.bias.data.copy()
            return self.add_op("conv2d", [node], arrays=arrays,
                               stride=_pair(module.stride),
                               padding=_pair(module.padding))
        raise ModelPlanError(
            f"cannot capture {type(module).__name__} at "
            f"{self.scope_name() or '<root>'!r}: no graph-capture hook "
            "(implement export_graph(builder, node)) and no built-in leaf rule")


# --------------------------------------------------------------------------- #
# the model plan (executor)
# --------------------------------------------------------------------------- #
def _channel_shape(param: np.ndarray, ndim: int) -> tuple:
    """Broadcast shape of a per-channel ``(C,)`` operand over an ``ndim`` input."""
    return (1, param.shape[0]) + (1,) * (ndim - 2)


# --------------------------------------------------------------------------- #
# shape-producing op kernels (ModelPlan._run_node dispatches to these)
# --------------------------------------------------------------------------- #
def run_flatten(x: np.ndarray) -> np.ndarray:
    """Flatten trailing dims to ``(N, features)`` — a view, zero-batch safe.

    ``reshape(n, -1)`` cannot infer the free dimension of an empty array, so
    the feature count is computed explicitly.
    """
    features = 1
    for dim in x.shape[1:]:
        features *= dim
    return x.reshape(x.shape[0], features)


def run_global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Global average pool ``(N, C, H, W) -> (N, C)``.

    Tensor.mean is ``sum * (1/count)``; mirror it for bit-exactness.
    """
    return x.sum(axis=(2, 3)) * (1.0 / (x.shape[2] * x.shape[3]))


def run_pool(x: np.ndarray, op: str, kernel: tuple, stride: tuple,
             padding: tuple) -> np.ndarray:
    """Windowed ``max_pool`` / ``avg_pool`` via the shared unfold kernel."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = F.conv_output_size(w, kernel[1], stride[1], padding[1])
    cols = F.unfold_array(x, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    if op == "max_pool":
        pooled = cols.max(axis=2)
    else:  # Tensor.mean is sum * (1/count); mirror it for bit-exactness
        pooled = cols.sum(axis=2) * (1.0 / (kernel[0] * kernel[1]))
    return pooled.reshape(n, c, out_h, out_w)


def run_linear(x: np.ndarray, weight: np.ndarray,
               bias: Optional[np.ndarray]) -> np.ndarray:
    """Full-precision linear layer ``x @ W.T (+ bias)``.

    The bias add runs in place on the matmul output — same bits as
    ``out + bias``, one less allocation.
    """
    out = x @ weight.T
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def run_conv2d(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray],
               stride: tuple, padding: tuple) -> np.ndarray:
    """Full-precision conv2d via unfold + batched matmul (+ in-place bias)."""
    c_out, _, kh, kw = weight.shape
    n = x.shape[0]
    out_h = F.conv_output_size(x.shape[2], kh, stride[0], padding[0])
    out_w = F.conv_output_size(x.shape[3], kw, stride[1], padding[1])
    cols = F.unfold_array(x, (kh, kw), stride, padding)   # (N, K, L)
    out = (weight.reshape(c_out, -1) @ cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        np.add(out, bias.reshape(1, c_out, 1, 1), out=out)
    return out


#: Every op of a float graph: ``(inputs, node arrays, node attrs)`` it reads.
_GRAPH_OPS = {
    "cim": (1, (), ()),
    "batchnorm": (1, ("mean", "denom"), ()),
    "relu": (1, (), ()),
    "relu6": (1, (), ()),
    "add": (2, (), ()),
    "flatten": (1, (), ()),
    "global_avg_pool": (1, (), ()),
    "max_pool": (1, (), ("kernel", "stride", "padding")),
    "avg_pool": (1, (), ("kernel", "stride", "padding")),
    "linear": (1, ("weight",), ()),
    "conv2d": (1, ("weight",), ("stride", "padding")),
}


def _check_graph(nodes: List[GraphNode], n_layers: int,
                 output_id: int) -> None:
    """Raise :class:`ModelPlanError` unless the executor can run the graph.

    Node 0 is the ``input``; every later node has an op of
    :data:`_GRAPH_OPS`, its position as its id, as many inputs as its op
    reads, each an earlier node, and the arrays and attrs its op reads.
    A ``cim`` node's ``plan_index`` and the ``output_id`` must be in range.
    """
    if not nodes or nodes[0].op != "input" or nodes[0].id != 0:
        raise ModelPlanError("graph must start with its input node, id 0")
    if not 0 <= output_id < len(nodes):
        raise ModelPlanError(f"output id {output_id} is not a node of the "
                             f"{len(nodes)}-node graph")
    for position, node in enumerate(nodes[1:], start=1):
        where = f"node {position} ({node.op!r})"
        if node.op not in _GRAPH_OPS:
            raise ModelPlanError(f"{where}: unknown graph op")
        arity, arrays, attrs = _GRAPH_OPS[node.op]
        if node.id != position:
            raise ModelPlanError(f"{where}: has id {node.id}")
        if len(node.inputs) != arity or not all(
                0 <= i < position for i in node.inputs):
            raise ModelPlanError(f"{where}: inputs {node.inputs} are not "
                                 f"{arity} earlier node(s)")
        missing = ([k for k in arrays if k not in node.arrays]
                   + [k for k in attrs if k not in node.attrs])
        if missing:
            raise ModelPlanError(f"{where}: missing {missing}")
        if node.op == "cim" and not 0 <= node.plan_index < n_layers:
            raise ModelPlanError(f"{where}: plan index {node.plan_index} "
                                 f"is not one of {n_layers} layer plans")


def _liveness(nodes: List[GraphNode], output_id: int) -> tuple:
    """``(steps, output_id)`` with one ``(node, dead_ids)`` step per node.

    Steps cover every node after the input.  ``dead_ids`` lists the
    distinct inputs whose last reader is ``node``; the graph output is never
    among them.
    """
    last_use: Dict[int, int] = {}
    for node in nodes[1:]:
        for input_id in node.inputs:
            last_use[input_id] = node.id
    last_use[output_id] = len(nodes)
    steps = tuple((node, tuple(i for i in dict.fromkeys(node.inputs)
                               if last_use[i] == node.id))
                  for node in nodes[1:])
    return steps, output_id


@dataclass
class ModelPlan:
    """A frozen network as plain data: node graph + per-layer plans.

    Instances are runnable (``plan(x)`` / :meth:`execute`) and serializable
    (:func:`save_model_plan` / :func:`load_plan`); execution needs only
    NumPy — no Tensor, no Module, no quantizer objects.

    ``mode`` picks the route, once, at construction.  ``"float"`` (the
    default) is the bit-exact reference.  ``"int"`` runs the folded integer
    graph of :mod:`repro.engine.intfold`, built here: each CIM layer emits
    the next layer's activation codes (or residual values on the model's
    fine grid), so no BatchNorm, ReLU or activation re-quantize runs
    between two CIM layers.  Each ``cim`` node's ``fold`` picks its layer's
    route; a layer without an input quantizer (``act_scale is None`` —
    typically the first convolution) gets ``None``, the float route: it
    has no integer input grid.  :meth:`with_mode` gives the other route
    over the same layer plans.  A plan is read-only once built, so every
    shard of a pool can run the one object.

    Construction raises :class:`ModelPlanError` for a graph the executor
    cannot run (:func:`_check_graph`), for ``"int"`` when a quantized-input
    layer lacks requant constants (a v1 archive saved before the integer
    path existed) or a folded requant cannot run exactly, and
    ``ValueError`` for an unknown mode.
    """

    nodes: List[GraphNode]
    layer_plans: list
    output_id: int
    name: str = ""
    mode: str = field(default="float", repr=False)  # not serialized
    # (nodes, output_id) and _liveness() of the graph the mode executes
    _graph: tuple = field(init=False, repr=False, compare=False)
    _schedule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_graph(self.nodes, len(self.layer_plans), self.output_id)
        if self.mode not in ("float", "int"):
            raise ValueError(f"unknown execution mode {self.mode!r}; "
                             "expected 'float' or 'int'")
        self._graph = (self.nodes, self.output_id)
        if self.mode == "int":
            missing = [index for index, plan in enumerate(self.layer_plans)
                       if plan.act_scale is not None and plan.requant is None]
            if missing:
                raise ModelPlanError(
                    f"layer plan(s) {missing} carry no requant constants — "
                    "the artifact predates model-plan version 2; re-freeze "
                    "and re-save the model to enable mode='int'")
            try:
                self._graph = fold_int_graph(self)
            except (RequantFoldError, CarrierRangeError) as error:
                raise ModelPlanError(
                    f"cannot fold the integer route: {error}") from error
        self._schedule = _liveness(*self._graph)
        # layers run one after another on a thread, so they can share one
        # scratch table: each thread then holds the largest layer's
        # intermediates once instead of every layer's (with_mode plans
        # share it too)
        for layer_plan in self.layer_plans[1:]:
            layer_plan._scratch = self.layer_plans[0]._scratch

    @property
    def n_cim_layers(self) -> int:
        """Number of compiled CIM layer plans in the artifact."""
        return len(self.layer_plans)

    def with_mode(self, mode: str) -> "ModelPlan":
        """A new plan on ``mode``'s route over the same layer plans and
        graph (this plan keeps its own route); raises as construction
        does."""
        return replace(self, mode=mode)

    def graph(self) -> tuple:
        """``(nodes, output_id)`` of the graph :meth:`execute` runs: the
        float graph :attr:`nodes`, or in ``mode="int"`` the folded integer
        graph (never serialized)."""
        return self._graph

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    @hot_path
    def execute(self, x: np.ndarray,
                timings: Optional[Dict[str, float]] = None) -> np.ndarray:
        """Run the graph on a batch array and return the output array.

        ``timings`` (optional) accumulates per-node wall-clock seconds keyed
        by node name — :class:`~repro.engine.runner.InferenceRunner` uses it
        for per-layer stats.  Every call allocates its own activations, so a
        returned array is never overwritten by a later call.  Registered
        hot: the per-node liveness lists are built with the plan.
        """
        x = np.asarray(x.data if isinstance(x, Tensor) else x,
                       dtype=np.float64)
        steps, output_id = self._schedule
        values: Dict[int, np.ndarray] = {0: x}
        for node, dead in steps:
            if timings is None:
                values[node.id] = self._run_node(node, values)
            else:
                start = time.perf_counter()
                values[node.id] = self._run_node(node, values)
                timings[node.name] = (timings.get(node.name, 0.0)
                                      + time.perf_counter() - start)
            for input_id in dead:
                del values[input_id]
        return values[output_id]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`execute` (no timing)."""
        return self.execute(x)

    def _run_node(self, node: GraphNode,
                  values: Dict[int, np.ndarray]) -> np.ndarray:
        """Execute one node on the live ``values``; each op mirrors its
        Tensor counterpart bit for bit.  Binary ops (``add``, ``iadd``)
        read their second operand from ``node.inputs[1]``."""
        op = node.op
        x = values[node.inputs[0]]
        if op == "cim":
            return self.layer_plans[node.plan_index].execute(
                x, fold=node.attrs.get("fold"))
        if op in INT_OPS:
            spec = node.attrs["spec"]
            if len(node.inputs) == 2:
                return spec(x, values[node.inputs[1]])
            return spec(x)
        if op == "batchnorm":
            a = node.arrays
            mean = a["mean"].reshape(_channel_shape(a["mean"], x.ndim))
            denom = a["denom"].reshape(_channel_shape(a["denom"], x.ndim))
            out = (x - mean) / denom
            if "gamma" in a:
                gamma = a["gamma"].reshape(_channel_shape(a["gamma"], x.ndim))
                beta = a["beta"].reshape(_channel_shape(a["beta"], x.ndim))
                np.multiply(out, gamma, out=out)
                np.add(out, beta, out=out)
            return out
        if op == "relu":
            # single pass; np.fmax drops NaN in favour of the 0.0 operand, so
            # this is bit-identical to np.where(x > 0, x, 0.0) — NaN -> 0,
            # -0.0 -> +0.0
            return np.fmax(x, 0.0)
        if op == "relu6":
            return np.clip(x, 0.0, 6.0)
        if op == "add":
            return x + values[node.inputs[1]]
        if op == "flatten":
            return run_flatten(x)
        if op == "global_avg_pool":
            return run_global_avg_pool(x)
        if op in ("max_pool", "avg_pool"):
            return run_pool(x, op, tuple(node.attrs["kernel"]),
                            tuple(node.attrs["stride"]),
                            tuple(node.attrs["padding"]))
        if op == "linear":
            return run_linear(x, node.arrays["weight"],
                              node.arrays.get("bias"))
        # conv2d: construction admits no other op (_check_graph)
        return run_conv2d(x, node.arrays["weight"], node.arrays.get("bias"),
                          tuple(node.attrs["stride"]),
                          tuple(node.attrs["padding"]))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable node list (one line per op, with plan shapes)."""
        nodes, _ = self.graph()
        lines = [f"ModelPlan({self.name or 'model'}, mode={self.mode}, "
                 f"{self.n_cim_layers} CIM layers, "
                 f"{len(nodes) - 1} ops)"]
        for node in nodes[1:]:
            detail = ""
            if node.op == "cim":
                plan = self.layer_plans[node.plan_index]
                detail = f" -> {plan.layer_type}[{plan.out_channels}ch]"
            lines.append(f"  %{node.id:<3} {node.op:<16} "
                         f"({', '.join(f'%{i}' for i in node.inputs)})"
                         f" {node.name}{detail}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def compile_model_plan(model: Module, calibrate=None, *,
                       name: str = "") -> ModelPlan:
    """Capture a whole frozen/calibrated model into a :class:`ModelPlan`.

    Parameters
    ----------
    model:
        A module tree containing CIM layers (frozen wrappers or the bare QAT
        layers — both compile through the same stage list).  Composite
        modules outside the built-in leaf set must provide an
        ``export_graph(builder, node)`` hook.
    calibrate:
        Optional example batch; when given, one eval forward runs first so
        lazily-initialized LSQ scales observe data.  Without it, compiling a
        model with uncalibrated quantizers raises
        :class:`~repro.engine.plan.PlanNotReadyError`.
    name:
        Stored in the manifest; defaults to the model's class name.
    """
    model.eval()
    if calibrate is not None:
        with no_grad():
            model(calibrate if isinstance(calibrate, Tensor)
                  else Tensor(np.asarray(calibrate, dtype=np.float64)))
    builder = GraphBuilder()
    output_id = builder.emit(model, builder.input_id)
    return ModelPlan(nodes=builder.nodes, layer_plans=builder.layer_plans,
                     output_id=output_id, name=name or type(model).__name__)


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #
def save_model_plan(plan: ModelPlan, path) -> None:
    """Write a :class:`ModelPlan` to one ``.npz`` archive.

    Layout: a ``__manifest__`` JSON entry (format tag, node graph,
    per-layer metadata) plus flat array entries named ``node{i}.{field}`` and
    ``layer{j}.{field}`` — see ``docs/engine.md`` for the full schema.
    """
    arrays: Dict[str, np.ndarray] = {}
    node_docs = []
    for node in plan.nodes:
        doc = {"id": node.id, "op": node.op, "name": node.name,
               "inputs": node.inputs, "attrs": node.attrs,
               "arrays": sorted(node.arrays)}
        if node.op == "cim":
            doc["plan_index"] = node.plan_index
        node_docs.append(doc)
        for key, value in node.arrays.items():
            arrays[f"node{node.id}.{key}"] = value
    layer_docs = []
    for index, layer_plan in enumerate(plan.layer_plans):
        layer_docs.append(plan_meta(layer_plan))
        for key, value in plan_arrays(layer_plan).items():
            arrays[f"layer{index}.{key}"] = value
    manifest = {
        "format": MODEL_PLAN_FORMAT,
        "version": MODEL_PLAN_VERSION,
        "name": plan.name,
        "output": plan.output_id,
        "nodes": node_docs,
        "layers": layer_docs,
    }
    np.savez(path, __manifest__=np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8), **arrays)


def _check_float64(path, doc: dict, what: str) -> None:
    """Refuse a manifest document that stores a plan dtype other than float64.

    Current archives carry no ``dtype`` key; archives of older writers say
    ``"float64"`` (accepted) or ``"float32"``, a route the engine no longer
    executes.
    """
    dtype = doc.get("dtype", "float64")
    if dtype != "float64":
        raise ModelPlanError(
            f"{path}: {what} was stored as a {dtype!r} plan, and plans execute "
            "in float64 only; recompile the model (compile_model_plan) and "
            "re-save the artifact")


#: The one ``.npy`` member header :func:`load_plan` reads: format 1.0,
#: exactly as ``np.save`` writes it (sorted keys, the shape's tuple repr,
#: space padding and one newline), of a bool, integer or float dtype.
_NPY_HEADER = re.compile(
    rb"\x93NUMPY\x01\x00(?P<len>..)\{'descr': '(?P<descr>[<>|][biuf]\d+)', "
    rb"'fortran_order': (?P<fortran>True|False), "
    rb"'shape': \((?P<shape>|\d+,|\d+(?:, \d+)+)\), \} *\n", re.DOTALL)

#: What a damaged or foreign zip raises while it is read.
_ZIP_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError)


def _npy_dtype(match) -> Optional[np.dtype]:
    """The dtype of a :data:`_NPY_HEADER` match whose length field is its
    own length and whose ``descr`` is the dtype's canonical string; else
    ``None``."""
    if match is None or (10 + int.from_bytes(match["len"], "little")
                         != match.end()):
        return None
    descr = match["descr"].decode("ascii")
    try:
        dtype = np.dtype(descr)
    except TypeError:                  # e.g. '<f3': no such dtype
        return None
    return dtype if dtype.str == descr else None


def _npy_array(path, member: str, raw: bytes) -> np.ndarray:
    """The array of one ``.npy`` member's bytes, or :class:`ModelPlanError`.

    The header must match :data:`_NPY_HEADER` and the data hold exactly
    ``prod(shape) * itemsize`` bytes.  The result is a fresh, aligned and
    writable array in the stored memory order, as ``np.load`` returns it.
    """
    match = _NPY_HEADER.match(raw)
    dtype = _npy_dtype(match)
    if dtype is None:
        raise ModelPlanError(f"{path}: archive member {member!r} is not a "
                             "format-1.0 .npy array of a bool, integer or "
                             "float dtype")
    shape = tuple(int(d) for d in match["shape"].split(b",") if d)
    count, start = math.prod(shape), match.end()
    if len(raw) - start != count * dtype.itemsize:
        raise ModelPlanError(
            f"{path}: archive member {member!r} holds {len(raw) - start} "
            f"data bytes, expected {count * dtype.itemsize} for "
            f"{dtype.str} {shape}")
    flat = np.frombuffer(raw, dtype, count=count, offset=start)
    if match["fortran"] == b"True":
        return flat.reshape(shape[::-1]).T.copy(order="F")
    return flat.reshape(shape).copy()


def _read_archive(path) -> Dict[str, np.ndarray]:
    """Every member of a model-plan archive as an array, keyed by name.

    One pass: each member is read once by :mod:`zipfile`, which checks its
    CRC, and parsed by :func:`_npy_array` (no pickles, no object, string or
    structured dtypes).  A member not named ``*.npy``, a repeated name, an
    unreadable zip and a failed CRC all raise :class:`ModelPlanError`; a
    missing file raises ``FileNotFoundError``.
    """
    arrays: Dict[str, np.ndarray] = {}
    member = None
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                member = info.filename
                key = member[:-4]
                if not member.endswith(".npy") or key in arrays:
                    raise ModelPlanError(
                        f"{path}: archive member {member!r} is not a "
                        "uniquely named .npy array")
                arrays[key] = _npy_array(path, member, archive.read(info))
    except _ZIP_ERRORS as error:
        where = "" if member is None else f" member {member!r}"
        raise ModelPlanError(
            f"{path}: unreadable archive{where}: {error}") from error
    return arrays


def load_plan(path, mode: str = "float") -> ModelPlan:
    """Rebuild a :class:`ModelPlan` from a :func:`save_model_plan` archive.

    The artifact entry point (a single layer ships as a one-node graph,
    :meth:`GraphBuilder.add_layer_plan`).  Pure data path: no QAT model,
    layer, or quantizer objects are constructed, and the archive is read in
    one pass (:func:`_read_archive`).  ``mode`` selects the execution route
    of the returned plan (see :class:`ModelPlan`); ``"int"`` raises on v1
    archives, which carry no requant constants.  A float load builds no
    integer-only operand, but refuses what an integer load would.
    Raises :class:`ModelPlanError` on a file that is not a readable zip
    (empty, truncated, a failed CRC), a member that is not a canonical
    format-1.0 ``.npy`` array of a bool, integer or float dtype, a
    corrupted manifest, an unknown format/version, missing array entries,
    a graph the executor cannot run (an unknown op, a misnumbered node, an
    input that is not an earlier node, an out-of-range output or plan
    index, a missing node array),
    a plan stored in a dtype other than ``float64`` (older writers could
    store ``float32`` plans; recompile those), or requant constants the
    integer route cannot execute exactly
    (:class:`~repro.core.requant.CarrierRangeError`, chained as the cause).
    A missing file raises ``FileNotFoundError``.
    """
    stored = _read_archive(path)
    if "__manifest__" not in stored:
        raise ModelPlanError(f"{path}: not an engine artifact "
                             "(no __manifest__ entry)")
    try:
        manifest = json.loads(
            stored.pop("__manifest__").tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ModelPlanError(f"{path}: corrupted manifest: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_PLAN_FORMAT:
        raise ModelPlanError(f"{path}: corrupted manifest: missing format tag "
                             f"{MODEL_PLAN_FORMAT!r}")
    if manifest.get("version") not in SUPPORTED_MODEL_PLAN_VERSIONS:
        raise ModelPlanError(f"{path}: unsupported model-plan version "
                             f"{manifest.get('version')!r} (expected one of "
                             f"{sorted(SUPPORTED_MODEL_PLAN_VERSIONS)})")
    try:
        _check_float64(path, manifest, "the model")
        by_layer: Dict[str, Dict[str, np.ndarray]] = {}
        for key, value in stored.items():
            owner, _, name = key.partition(".")
            by_layer.setdefault(owner, {})[name] = value
        layer_plans = []
        for index, meta in enumerate(manifest["layers"]):
            _check_float64(path, meta, f"layer {index}")
            layer_plans.append(plan_from_parts(
                meta, by_layer.get(f"layer{index}", {})))
        nodes = []
        for doc in manifest["nodes"]:
            node = GraphNode(id=int(doc["id"]), op=doc["op"],
                             inputs=[int(i) for i in doc["inputs"]],
                             name=doc.get("name", ""),
                             attrs=doc.get("attrs", {}),
                             plan_index=int(doc.get("plan_index", -1)))
            for key in doc.get("arrays", []):
                node.arrays[key] = stored[f"node{node.id}.{key}"]
            nodes.append(node)
        output_id = int(manifest["output"])
        name = manifest.get("name", "")
    except CarrierRangeError as error:
        raise ModelPlanError(f"{path}: unsupported requant constants: "
                             f"{error}") from error
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
        raise ModelPlanError(f"{path}: corrupted manifest: {error}") from error
    return ModelPlan(nodes=nodes, layer_plans=layer_plans,
                     output_id=output_id, name=name, mode=mode)
