"""Plan-graph compiler: fused schedule + liveness-planned buffer arena.

:class:`~repro.engine.model_plan.ModelPlan` interprets its SSA op graph node
by node — every BatchNorm fold, ReLU, and residual add materializes into its
own (per-node cached) array, and the interpreter rebuilds the liveness map on
every call.  This module treats the recorded node list as an IR instead,
following the compile-before-execute approach of the SYS_ATL/Exo line of
work, and lowers it in three passes:

1. **Fusion** (:func:`compile_plan_graph`) — element-wise chains
   (``batchnorm -> relu``, ``cim -> batchnorm -> relu``, ``add -> relu``,
   ``relu6``, bias+activation tails after ``conv2d``/``linear``) collapse
   into one :class:`FusedStep` whose tail ops run as in-place NumPy passes
   over the producer's output buffer.  A node is fused only when it is the
   *sole* consumer of its input and that input is not the graph output, so
   the dataflow is unchanged; each fused op still applies the exact NumPy
   operations of the interpreter, in the same order (the ``sum * (1/count)``
   mean idiom, the NaN→0 ReLU semantics), so results stay bit-identical.

2. **Liveness + arena** (per batch shape, built lazily on first execute) —
   static shape inference walks the schedule once, records the last-use step
   of every SSA value, and plans *every* step output — producer outputs
   included — into a fixed arena of greedy best-fit blocks, so steady-state
   execution performs no per-call output allocations (interpretation
   re-allocates each producer result and lets malloc churn through them).
   An element-wise step whose input dies at that step writes in place into
   it instead of taking a block; the graph output is never arena-backed, so
   returned arrays stay valid across calls.  ``flatten`` outputs alias
   their input's storage, which keeps the backing block alive while any
   view of it is.

3. **Scheduled execution** (:meth:`CompiledPlan.execute`) — a flat walk over
   prebound step closures: no per-call liveness map, no dict-keyed workspace
   growth, no per-fused-op dispatch.  In ``mode="int"`` the schedule is
   that of the folded integer graph (:meth:`ModelPlan.graph`, built by
   :mod:`repro.engine.intfold`) — the same graph the interpreter runs —
   whose ``cim`` steps call their layer plan's ``execute`` with its fold
   and whose integer steps return fresh arrays in their own dtypes.

Interpretation remains the bit-exact reference path; the differential suite
pins ``CompiledPlan.execute == ModelPlan.execute`` on every golden fixture
(float and int modes) and on randomized models.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor
from .hotpath import hot_path
from .intfold import INT_OPS
from .model_plan import (GraphNode, ModelPlan, ModelPlanError, _channel_shape,
                         run_conv2d, run_global_avg_pool, run_linear, run_pool)

__all__ = ["CompiledPlan", "FusedStep", "compile_plan_graph"]

#: Element-wise ops a fused group may absorb as in-place tail passes.
_EW_TAIL_OPS = frozenset({"batchnorm", "relu", "relu6"})
#: Element-wise ops that may *start* a group (their output is buffer-planned).
_EW_HEAD_OPS = frozenset({"add", "batchnorm", "relu", "relu6"})
#: Ops producing a fresh array each call; safe producers for fused tails.
_PRODUCER_OPS = frozenset({"cim", "conv2d", "linear", "max_pool", "avg_pool",
                           "global_avg_pool"}) | INT_OPS
#: Every graph op the compiler can lower.  ``flatten`` is schedulable but
#: never fuses a tail: its output is a view of its input.
_KNOWN_OPS = _PRODUCER_OPS | _EW_HEAD_OPS | frozenset({"flatten"})
#: Workspace-dict key under which per-batch-shape arenas live.
_ARENA_KEY = "__compiled_arena__"
#: Arenas kept per workspace before evicting the least-recently-used shape.
_MAX_ARENAS = 4


class FusedStep:
    """One schedule entry: a producer node plus its fused element-wise tail.

    ``nodes[0]`` produces the value; ``nodes[1:]`` are element-wise ops
    rewritten as in-place passes over that value.  ``out_id`` is the SSA id
    the step defines (the last fused node's id).
    """

    __slots__ = ("nodes", "op", "inputs", "out_id", "ops", "name")

    def __init__(self, nodes: List[GraphNode]):
        self.nodes = tuple(nodes)
        self.op = nodes[0].op
        self.inputs = tuple(nodes[0].inputs)
        self.out_id = nodes[-1].id
        self.ops = "+".join(node.op for node in nodes)
        self.name = "+".join(node.name for node in nodes)

    def __repr__(self) -> str:
        ins = ", ".join(f"%{i}" for i in self.inputs)
        return f"FusedStep(%{self.out_id} = {self.ops}({ins}))"


def compile_plan_graph(plan: ModelPlan) -> "CompiledPlan":
    """Lower a :class:`ModelPlan` op graph into a :class:`CompiledPlan`.

    The float graph is fused here, so unknown ops fail early; the schedule
    of the folded integer graph is fused the first time the plan executes
    in ``mode="int"`` (see :class:`CompiledPlan`).  Raises
    :class:`~repro.engine.model_plan.ModelPlanError` on ops the compiler
    cannot lower (the same set the interpreter rejects).
    """
    compiled = CompiledPlan(plan)
    compiled._schedule_for("float", plan.nodes, plan.output_id)
    return compiled


def _fuse(nodes: List[GraphNode], output_id: int) -> List[FusedStep]:
    """Group a node list into fused steps.

    Pattern-matches element-wise chains: a ``batchnorm`` / ``relu`` /
    ``relu6`` node joins the group ending at its input when it is that
    value's only consumer and the value is not the graph output.
    """
    by_id: Dict[int, GraphNode] = {node.id: node for node in nodes}
    n_consumers: Dict[int, int] = {}
    sole_consumer: Dict[int, int] = {}
    for node in nodes[1:]:
        if node.op not in _KNOWN_OPS:
            raise ModelPlanError(
                f"cannot compile graph op {node.op!r} (node {node.id})")
        for vid in node.inputs:
            n_consumers[vid] = n_consumers.get(vid, 0) + 1
            sole_consumer[vid] = node.id

    steps: List[FusedStep] = []
    fused_away: set = set()
    for node in nodes[1:]:
        if node.id in fused_away:
            continue
        group = [node]
        if node.op in _PRODUCER_OPS or node.op in _EW_HEAD_OPS:
            cur = node
            while n_consumers.get(cur.id, 0) == 1 and cur.id != output_id:
                nxt = by_id[sole_consumer[cur.id]]
                if nxt.op not in _EW_TAIL_OPS or len(nxt.inputs) != 1:
                    break
                group.append(nxt)
                fused_away.add(nxt.id)
                cur = nxt
        steps.append(FusedStep(group))
    return steps


class _Schedule:
    """The fused steps of one graph (float, or the folded integer graph).

    ``shape_plans`` is the copy-on-write cache of per-batch-shape plans
    (see :class:`CompiledPlan`).
    """

    __slots__ = ("mode", "nodes", "output_id", "steps", "names", "n_values",
                 "shape_plans")

    def __init__(self, mode: str, nodes: List[GraphNode], output_id: int):
        self.mode = mode
        self.nodes = nodes
        self.output_id = output_id
        self.steps = _fuse(nodes, output_id)
        self.names = [step.name for step in self.steps]
        self.n_values = max(node.id for node in nodes) + 1
        self.shape_plans: Dict[tuple, "_ShapePlan"] = {}


# --------------------------------------------------------------------------- #
# shape inference
# --------------------------------------------------------------------------- #
def _infer_shape(plan: ModelPlan, step: FusedStep,
                 in_shapes: List[tuple]) -> tuple:
    """Output shape of ``step`` for the given input shapes (tail preserves it)."""
    op = step.op
    head = step.nodes[0]
    x = in_shapes[0]
    if op in ("quantize", "requant", "dequant"):
        return tuple(x)
    if op == "pool_requant":
        return (x[0], x[1])
    if op == "cim":
        # validate once per shape plan; the prebound step closure then skips
        # the per-call checks of ConvPlan/LinearPlan.execute
        lp = plan.layer_plans[head.plan_index]
        if lp.layer_type == "conv2d":
            if len(x) != 4 or x[1] != lp.in_channels:
                raise ValueError(f"expected {lp.in_channels} input channels, "
                                 f"got {x[1] if len(x) == 4 else x}")
            out_h = F.conv_output_size(x[2], lp.kernel_size[0],
                                       lp.stride[0], lp.padding[0])
            out_w = F.conv_output_size(x[3], lp.kernel_size[1],
                                       lp.stride[1], lp.padding[1])
            return (x[0], lp.out_channels, out_h, out_w)
        if len(x) != 2 or x[1] != lp.in_features:
            raise ValueError(f"expected input of shape "
                             f"(N, {lp.in_features}), got {tuple(x)}")
        return (x[0], lp.out_channels)
    if op in ("add", "iadd"):
        return tuple(np.broadcast_shapes(*in_shapes))
    if op in ("batchnorm", "relu", "relu6"):
        return tuple(x)
    if op == "flatten":
        features = 1
        for dim in x[1:]:
            features *= dim
        return (x[0], features)
    if op == "global_avg_pool":
        return (x[0], x[1])
    if op in ("max_pool", "avg_pool"):
        kernel = tuple(head.attrs["kernel"])
        stride = tuple(head.attrs["stride"])
        padding = tuple(head.attrs["padding"])
        out_h = F.conv_output_size(x[2], kernel[0], stride[0], padding[0])
        out_w = F.conv_output_size(x[3], kernel[1], stride[1], padding[1])
        return (x[0], x[1], out_h, out_w)
    if op == "linear":
        return (x[0], head.arrays["weight"].shape[0])
    if op == "conv2d":
        weight = head.arrays["weight"]
        stride = tuple(head.attrs["stride"])
        padding = tuple(head.attrs["padding"])
        out_h = F.conv_output_size(x[2], weight.shape[2], stride[0], padding[0])
        out_w = F.conv_output_size(x[3], weight.shape[3], stride[1], padding[1])
        return (x[0], weight.shape[0], out_h, out_w)
    raise ModelPlanError(f"cannot infer shape of graph op {op!r}")


# --------------------------------------------------------------------------- #
# per-shape planning
# --------------------------------------------------------------------------- #
class _Storage:
    """Planner bookkeeping for one physical buffer (values may alias it)."""

    __slots__ = ("tag", "block", "values")

    def __init__(self, tag: str, block: Optional[int]):
        self.tag = tag            # "external" | "fresh" | "block" | "freed"
        self.block = block        # arena block index for tag == "block"
        self.values: set = set()  # SSA value ids sharing this buffer


class _ShapePlan:
    """Frozen execution plan for one input batch shape.

    Holds the prebound step closures, the arena block sizes (in dtype
    items), and the per-step view specs used to materialize block views for
    a workspace.  Deterministic metadata only — mutable buffers live in the
    caller's workspace dict (or transiently on the stack), so one shape plan
    serves every executor thread.
    """

    __slots__ = ("key", "input_shape", "exec_fns", "view_specs",
                 "block_items", "inplace_reuses", "out_shape")

    def __init__(self, key, input_shape, exec_fns, view_specs, block_items,
                 inplace_reuses, out_shape):
        self.key = key                    # (mode, input shape): arena key
        self.input_shape = input_shape
        self.exec_fns = exec_fns
        self.view_specs = view_specs      # per step: None | (block, items, shape)
        self.block_items = block_items    # arena block sizes, dtype items
        self.inplace_reuses = inplace_reuses
        self.out_shape = out_shape


def _bn_operands(node: GraphNode, ndim: int) -> tuple:
    """``(mean, denom, gamma, beta)`` reshaped for an ``ndim`` operand."""
    a = node.arrays
    mean = a["mean"].reshape(_channel_shape(a["mean"], ndim))
    denom = a["denom"].reshape(_channel_shape(a["denom"], ndim))
    gamma = beta = None
    if "gamma" in a:
        gamma = a["gamma"].reshape(_channel_shape(a["gamma"], ndim))
        beta = a["beta"].reshape(_channel_shape(a["beta"], ndim))
    return mean, denom, gamma, beta


def _make_tail_fns(nodes, ndim: int) -> tuple:
    """In-place pass closures for the fused element-wise tail ops."""
    fns = []
    for node in nodes:
        if node.op == "relu":
            # np.fmax drops NaN for the 0.0 operand: bit-identical to the
            # documented np.where(x > 0, x, 0.0) semantics (NaN -> 0)
            fns.append(lambda out: np.fmax(out, 0.0, out=out))
        elif node.op == "relu6":
            fns.append(lambda out: np.clip(out, 0.0, 6.0, out=out))
        else:  # batchnorm
            mean, denom, gamma, beta = _bn_operands(node, ndim)
            if gamma is None:
                def bn(out, mean=mean, denom=denom):
                    np.subtract(out, mean, out=out)
                    np.divide(out, denom, out=out)
            else:
                def bn(out, mean=mean, denom=denom, gamma=gamma, beta=beta):
                    np.subtract(out, mean, out=out)
                    np.divide(out, denom, out=out)
                    np.multiply(out, gamma, out=out)
                    np.add(out, beta, out=out)
            fns.append(bn)
    return tuple(fns)


def _make_step_fn(plan: ModelPlan, step: FusedStep, si: int,
                  action: Optional[tuple], out_shape: tuple,
                  dead: tuple) -> Callable:
    """Build the runtime closure for one step.

    The closure signature is ``fn(vals, views)``: ``vals`` is the flat SSA
    value list, ``views`` the per-step arena views of the active workspace.
    ``action`` says where the step's output lands: ``None`` (fresh array —
    the graph-output step), ``("input", pos)`` (an element-wise head
    writing in place into a dying input), ``("block",)`` (the arena view
    at ``views[si]``), or ``("copy",)`` (a graph-output ``flatten`` whose
    input is arena-backed — copied so the returned array survives).
    """
    head = step.nodes[0]
    op = head.op
    ins = step.inputs
    out_id = step.out_id
    tail = _make_tail_fns(step.nodes[1:], len(out_shape))

    if action is None:
        get_out = None
    elif action[0] == "input":
        src = ins[action[1]]

        def get_out(vals, views, _src=src):
            return vals[_src]
    else:
        def get_out(vals, views, _si=si):
            return views[_si]

    if op == "cim" and "fold" in head.attrs:
        # a layer of the folded integer graph: ConvPlan/LinearPlan.execute
        # itself, writing the fresh codes/grid/dequant array it returns
        lp = plan.layer_plans[head.plan_index]
        fold = head.attrs["fold"]
        i0 = ins[0]

        def produce(vals, views):
            return lp.execute(vals[i0], fold=fold)
    elif op == "cim":
        lp = plan.layer_plans[head.plan_index]
        i0 = ins[0]

        if get_out is None:
            def produce(vals, views):
                # the graph-output step stays on the layer plan's own path —
                # returned arrays must never be arena-backed
                return lp.execute(vals[i0])
        elif lp.layer_type == "conv2d":
            kernel, stride, padding = lp.kernel_size, lp.stride, lp.padding
            n, oc = out_shape[0], out_shape[1]
            length = out_shape[2] * out_shape[3]

            def produce(vals, views):
                # ConvPlan.execute's float route op for op, with prebound
                # geometry and the final reshape-copy redirected into the
                # arena destination: identical element order, identical
                # bits, no surviving fresh allocation
                x = lp._cast_input(vals[i0])
                cols = F.unfold_array(lp._quantize_acts(x), kernel, stride,
                                      padding, layout="nlk")
                res = lp._contract(cols.reshape(n * length, cols.shape[2]),
                                   None)
                if lp.act_scale is not None:
                    res *= lp.act_scale
                dst = get_out(vals, views)
                np.copyto(dst.reshape(n, oc, length),
                          res.reshape(n, length, oc).transpose(0, 2, 1))
                if lp.bias is not None:
                    np.add(dst, lp.bias.reshape(1, -1, 1, 1), out=dst)
                return dst
        else:  # linear layer plan

            def produce(vals, views):
                # LinearPlan.execute's float route op for op; the (small)
                # result lands in the arena view so no fresh array outlives
                # the step
                x = lp._cast_input(vals[i0])
                dst = get_out(vals, views)
                res = lp._contract(lp._quantize_acts(x), None)
                if lp.act_scale is not None:
                    res *= lp.act_scale
                if lp.bias is not None:
                    np.add(res, lp.bias, out=dst)
                else:
                    np.copyto(dst, res)
                return dst
    elif op in INT_OPS:
        kernel = head.attrs["spec"]

        def produce(vals, views):
            return kernel(*[vals[i] for i in ins])
    elif op == "add":
        i0, i1 = ins

        def produce(vals, views):
            if get_out is None:
                return vals[i0] + vals[i1]
            out = get_out(vals, views)
            np.add(vals[i0], vals[i1], out=out)
            return out
    elif op == "batchnorm":
        i0 = ins[0]
        mean, denom, gamma, beta = _bn_operands(head, len(out_shape))

        def produce(vals, views):
            x = vals[i0]
            if get_out is None:
                out = np.subtract(x, mean)
            else:
                out = get_out(vals, views)
                np.subtract(x, mean, out=out)
            np.divide(out, denom, out=out)
            if gamma is not None:
                np.multiply(out, gamma, out=out)
                np.add(out, beta, out=out)
            return out
    elif op == "relu":
        i0 = ins[0]

        def produce(vals, views):
            # bit-identical to np.where(x > 0, x, 0.0): NaN -> 0
            return np.fmax(vals[i0], 0.0,
                           out=None if get_out is None else get_out(vals, views))
    elif op == "relu6":
        i0 = ins[0]

        def produce(vals, views):
            return np.clip(vals[i0], 0.0, 6.0,
                           out=None if get_out is None else get_out(vals, views))
    elif op == "linear":
        i0 = ins[0]
        weight = head.arrays["weight"]
        bias = head.arrays.get("bias")

        def produce(vals, views):
            out = None if get_out is None else get_out(vals, views)
            return run_linear(vals[i0], weight, bias, out=out)
    elif op == "conv2d":
        i0 = ins[0]
        weight = head.arrays["weight"]
        bias = head.arrays.get("bias")
        stride = tuple(head.attrs["stride"])
        padding = tuple(head.attrs["padding"])

        def produce(vals, views):
            out = None if get_out is None else get_out(vals, views)
            return run_conv2d(vals[i0], weight, bias, stride, padding,
                              out=out)
    elif op in ("max_pool", "avg_pool"):
        i0 = ins[0]
        kernel = tuple(head.attrs["kernel"])
        stride = tuple(head.attrs["stride"])
        padding = tuple(head.attrs["padding"])

        def produce(vals, views, _op=op):
            out = None if get_out is None else get_out(vals, views)
            return run_pool(vals[i0], _op, kernel, stride, padding, out=out)
    elif op == "global_avg_pool":
        i0 = ins[0]

        def produce(vals, views):
            out = None if get_out is None else get_out(vals, views)
            return run_global_avg_pool(vals[i0], out=out)
    elif action == ("copy",):  # flatten defining the graph output of an
        i0 = ins[0]            # arena-backed value: copy out of the arena

        def produce(vals, views):
            return vals[i0].reshape(out_shape).copy()
    else:  # flatten — a view; shape is fixed per shape plan
        i0 = ins[0]

        def produce(vals, views):
            return vals[i0].reshape(out_shape)

    if tail:
        def fn(vals, views):
            out = produce(vals, views)
            for apply_tail in tail:
                apply_tail(out)
            vals[out_id] = out
            for vid in dead:
                vals[vid] = None
    else:
        def fn(vals, views):
            vals[out_id] = produce(vals, views)
            for vid in dead:
                vals[vid] = None
    return fn


def _build_shape_plan(plan: ModelPlan, schedule: _Schedule,
                      in_shape: tuple) -> _ShapePlan:
    """Plan buffers and bind step closures for one input batch shape.

    Steps of the folded integer graph (``cim`` layers with a fold and the
    integer ops) produce fresh arrays of their own dtypes; they stay out
    of the arena, which holds plan-dtype values only.
    """
    steps = schedule.steps
    output_id = schedule.output_id
    n_steps = len(steps)

    # static liveness: last schedule step consuming each SSA value
    last_step: Dict[int, int] = {0: -1}
    for si, step in enumerate(steps):
        for vid in step.inputs:
            last_step[vid] = si
    last_step[output_id] = n_steps  # the output outlives the schedule

    shapes: Dict[int, tuple] = {0: tuple(in_shape)}
    storages: Dict[int, _Storage] = {0: _Storage("external", None)}
    storages[0].values.add(0)
    block_items: List[int] = []
    free_blocks: List[int] = []
    view_specs: List[Optional[tuple]] = [None] * n_steps
    exec_fns: List[Callable] = []
    inplace_reuses = 0

    for si, step in enumerate(steps):
        in_shapes = [shapes[vid] for vid in step.inputs]
        out_shape = _infer_shape(plan, step, in_shapes)
        shapes[step.out_id] = out_shape

        action: Optional[tuple] = None
        storage: Optional[_Storage] = None
        if step.op == "flatten":
            src = storages[step.inputs[0]]
            if step.out_id == output_id and src.tag == "block":
                action = ("copy",)  # returned arrays are never arena-backed
            else:
                storage = src       # a view aliases its input
        elif step.op in INT_OPS or "fold" in step.nodes[0].attrs:
            pass                    # fresh integer-graph array
        elif step.out_id != output_id:
            # every scheduled value lives in the arena — producer outputs
            # included — except the graph output, which must stay a fresh
            # array so returned results survive later calls
            if step.op in _EW_HEAD_OPS:
                for pos, vid in enumerate(step.inputs):
                    st = storages[vid]
                    if st.tag not in ("fresh", "block"):
                        continue
                    if shapes[vid] != out_shape:
                        continue
                    if all(last_step.get(v, si) <= si for v in st.values):
                        action = ("input", pos)
                        storage = st
                        inplace_reuses += 1
                        break
            if action is None:
                items = 1
                for dim in out_shape:
                    items *= dim
                best = None
                for idx in free_blocks:  # greedy best-fit by size
                    if block_items[idx] >= items and (
                            best is None or block_items[idx] < block_items[best]):
                        best = idx
                if best is None:
                    best = len(block_items)
                    block_items.append(items)
                else:
                    free_blocks.remove(best)
                action = ("block",)
                view_specs[si] = (best, items, out_shape)
                storage = _Storage("block", best)

        if storage is None:
            storage = _Storage("fresh", None)
        storage.values.add(step.out_id)
        storages[step.out_id] = storage

        # release dying values; return dead blocks (unless adopted) to the pool
        dead = []
        for vid in set(step.inputs):
            if last_step.get(vid, si) == si:
                dead.append(vid)
                st = storages[vid]
                if (st is not storage and st.tag == "block"
                        and all(last_step.get(v, si) <= si for v in st.values)):
                    st.tag = "freed"
                    free_blocks.append(st.block)
        exec_fns.append(_make_step_fn(plan, step, si, action, out_shape,
                                      tuple(dead)))

    return _ShapePlan((schedule.mode, tuple(in_shape)), tuple(in_shape),
                      exec_fns, view_specs, block_items, inplace_reuses,
                      shapes[output_id])


# --------------------------------------------------------------------------- #
# the compiled executor
# --------------------------------------------------------------------------- #
class CompiledPlan:
    """Scheduled executor for a :class:`ModelPlan`.

    Exposes the same execution surface as the interpreter (``execute`` /
    ``__call__`` with optional ``timings`` and ``workspace``, ``np_dtype``,
    ``set_mode``), so :class:`~repro.engine.runner.InferenceRunner` and
    :class:`~repro.engine.server.PlanServer` run it unchanged.  It runs
    the graph of the plan's *current* mode (:meth:`ModelPlan.graph`): one
    schedule per mode, built on first use, so a plan compiled before
    ``set_mode("int")`` schedules the folded integer graph afterwards.
    Shape plans (deterministic metadata) are cached per schedule; mutable
    arena buffers live in the caller's workspace dict, one arena per
    (mode, batch shape) (the :data:`least-recently-used <_MAX_ARENAS>`
    beyond four are evicted), so concurrent executors never share buffers.
    Without a workspace, arena blocks are allocated transiently per call.

    The step defining the graph output always produces a fresh array —
    never an arena view — so unlike the interpreted workspace path,
    returned results stay valid across subsequent calls.

    Thread model: the schedule map and each schedule's shape-plan cache
    are copy-on-write — lookups read a stable dict snapshot without
    locking, and a miss builds the entry and publishes a wholesale-replaced
    dict under ``_lock`` (so neither is declared in a ``_GUARDED_BY``
    map).  Schedules and shape plans are immutable once published.
    """

    def __init__(self, plan: ModelPlan):
        self.plan = plan
        self._schedules: Dict[str, _Schedule] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # delegated plan surface
    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> str:
        """Execution dtype name (read-only; delegates to the plan)."""
        return self.plan.dtype

    @property
    def np_dtype(self) -> np.dtype:
        """NumPy dtype the schedule executes in (read-only)."""
        return self.plan.np_dtype

    @property
    def mode(self) -> str:
        """Active execution route of the underlying plan, float or int
        (a single racy-but-atomic attribute read; thread-safe)."""
        return self.plan.mode

    @property
    def name(self) -> str:
        """Model name recorded in the underlying plan (read-only)."""
        return self.plan.name

    @property
    def output_id(self) -> int:
        """SSA id of the float graph's output value (read-only)."""
        return self.plan.output_id

    @property
    def layer_plans(self) -> list:
        """The shared per-layer CIM plans (read-only list; same objects as
        the interpreter's)."""
        return self.plan.layer_plans

    def set_mode(self, mode: str) -> None:
        """Switch the shared layer plans between float and integer routes.
        Not safe concurrently with :meth:`execute` — quiesce callers first
        (the serving layer swaps pools instead of flipping modes live)."""
        self.plan.set_mode(mode)

    # ------------------------------------------------------------------ #
    # schedule introspection
    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> List[FusedStep]:
        """Fused steps of the current mode's schedule (immutable)."""
        return self._schedule().steps

    @property
    def n_steps(self) -> int:
        """Number of fused schedule steps in the current mode (immutable
        after compilation)."""
        return len(self.steps)

    @property
    def n_fused(self) -> int:
        """Number of graph ops folded into a preceding step's tail in the
        current mode (immutable after compilation)."""
        schedule = self._schedule()
        return (len(schedule.nodes) - 1) - len(schedule.steps)

    @property
    def _shape_plans(self) -> Dict[tuple, _ShapePlan]:
        """Shape-plan cache of the current mode's schedule (a snapshot)."""
        return self._schedule().shape_plans

    def summary(self) -> str:
        """Fusion groups, schedule order, and per-shape arena footprint of
        the current mode.  Thread-safe: reads one stable snapshot of the
        copy-on-write shape-plan cache."""
        schedule = self._schedule()
        lines = [f"CompiledPlan({self.name or 'model'}, dtype={self.dtype}, "
                 f"mode={schedule.mode}, {len(schedule.nodes) - 1} ops -> "
                 f"{self.n_steps} steps, {self.n_fused} fused)"]
        for step in schedule.steps:
            ins = ", ".join(f"%{i}" for i in step.inputs)
            lines.append(f"  %{step.out_id:<3} {step.ops:<28} ({ins}) "
                         f"{step.name}")
        plans = schedule.shape_plans   # one stable snapshot (copy-on-write)
        if plans:
            itemsize = self.np_dtype.itemsize
            for shape in sorted(plans):
                sp = plans[shape]
                nbytes = sum(sp.block_items) * itemsize
                lines.append(
                    f"  arena{list(shape)}: {len(sp.block_items)} block(s), "
                    f"{nbytes} bytes, {sp.inplace_reuses} in-place reuses")
        else:
            lines.append("  arena: planned per batch shape on first execute")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    @hot_path
    def execute(self, x: np.ndarray, timings: Optional[Dict[str, float]] = None,
                workspace: Optional[dict] = None) -> np.ndarray:
        """Run the compiled schedule of the current mode on a batch array.

        Same contract as :meth:`ModelPlan.execute`: ``timings`` accumulates
        per-step wall-clock seconds keyed by the fused step name;
        ``workspace`` keeps the buffer arena alive across calls.  Returned
        arrays are never arena-backed and stay valid across calls.

        Thread-safe only when each concurrent caller owns its ``workspace``
        (or passes none): shape plans are immutable and shared; arena
        buffers are per-workspace.  Registered hot: the steady-state loop
        performs no per-call output allocations (see ``tools/analyze``).
        """
        x = np.asarray(x.data if isinstance(x, Tensor) else x,
                       dtype=self.plan.np_dtype)
        schedule = self._schedule()
        sp = self._shape_plan(schedule, x.shape)
        views = self._arena_views(sp, workspace)
        vals: List[Optional[np.ndarray]] = [None] * schedule.n_values
        vals[0] = x
        if timings is None:
            for fn in sp.exec_fns:
                fn(vals, views)
        else:
            perf = time.perf_counter
            for name, fn in zip(schedule.names, sp.exec_fns):
                start = perf()
                fn(vals, views)
                timings[name] = timings.get(name, 0.0) + perf() - start
        return vals[schedule.output_id]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`execute` (no timing, no workspace)."""
        return self.execute(x)

    def workspace_footprint(self, workspace: Optional[dict]) -> tuple:
        """``(resident_bytes, n_blocks)`` of the arenas held by ``workspace``.
        Read-only; safe against concurrent shape-plan publishes (arenas
        carry their own shape plan), but not against the owner mutating
        ``workspace`` mid-call."""
        if not workspace:
            return (0, 0)
        arenas = workspace.get(_ARENA_KEY)
        if not arenas:
            return (0, 0)
        itemsize = self.np_dtype.itemsize
        total = blocks = 0
        for sp, _ in arenas.values():
            total += sum(sp.block_items) * itemsize
            blocks += len(sp.block_items)
        return (total, blocks)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _schedule_for(self, mode: str, nodes, output_id) -> _Schedule:
        schedule = self._schedules.get(mode)
        if schedule is None:
            with self._lock:
                schedule = self._schedules.get(mode)
                if schedule is None:
                    schedule = _Schedule(mode, nodes, output_id)
                    schedules = dict(self._schedules)
                    schedules[mode] = schedule
                    self._schedules = schedules
        return schedule

    def _schedule(self) -> _Schedule:
        """The schedule of the plan's current mode (built on first use)."""
        mode = self.plan.mode
        schedule = self._schedules.get(mode)
        if schedule is None:
            nodes, output_id = self.plan.graph()
            schedule = self._schedule_for(mode, nodes, output_id)
        return schedule

    def _shape_plan(self, schedule: _Schedule, shape: tuple) -> _ShapePlan:
        sp = schedule.shape_plans.get(shape)
        if sp is None:
            with self._lock:
                sp = schedule.shape_plans.get(shape)
                if sp is None:
                    sp = _build_shape_plan(self.plan, schedule, shape)
                    # copy-on-write publish: concurrent lock-free readers
                    # only ever see a complete dict
                    plans = dict(schedule.shape_plans)
                    plans[shape] = sp
                    schedule.shape_plans = plans
        return sp

    def _materialize(self, sp: _ShapePlan) -> List[Optional[np.ndarray]]:
        """Allocate the arena blocks of ``sp`` and carve the per-step views."""
        dtype = self.plan.np_dtype
        blocks = [np.empty(items, dtype=dtype) for items in sp.block_items]
        views: List[Optional[np.ndarray]] = [None] * len(sp.exec_fns)
        for si, spec in enumerate(sp.view_specs):
            if spec is not None:
                idx, items, shape = spec
                views[si] = blocks[idx][:items].reshape(shape)
        return views

    def _arena_views(self, sp: _ShapePlan,
                     workspace: Optional[dict]) -> Optional[list]:
        if not sp.block_items:
            return None  # no step reads views; nothing to allocate
        if workspace is None:
            return self._materialize(sp)
        arenas = workspace.get(_ARENA_KEY)
        if arenas is None:
            arenas = workspace[_ARENA_KEY] = OrderedDict()
        entry = arenas.get(sp.key)
        if entry is None or entry[0] is not sp:
            entry = (sp, self._materialize(sp))
            arenas[sp.key] = entry
            while len(arenas) > _MAX_ARENAS:
                arenas.popitem(last=False)
        else:
            arenas.move_to_end(sp.key)
        return entry[1]
