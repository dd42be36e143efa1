"""Graph-level fold of the integer route: integer codes between CIM layers.

A ``ModelPlan`` built with ``mode="int"`` rewrites its float op graph
once, at construction, into the graph ``ModelPlan.execute`` runs.  Every
``cim -> batchnorm -> relu/relu6 -> consumer`` chain collapses into the CIM
layer itself: the BatchNorm affine (sign per channel: gamma may be negative
or zero), the ReLU/ReLU6 clamp and the consumer's LSQ scale and clip fold
into the layer's reduce weights and a per-channel requant
(:meth:`repro.engine.plan._PlanBase.int_fold`), so the layer emits the
consumer's activation codes directly — ``float32`` integers on the GEMM
carrier, in NCHW layout — and the consumer skips its input quantizer.  The
folded graph has these integer ops besides ``cim``:

``quantize``
    the float boundary: the raw-input stem's float output, its BatchNorm
    and ReLU folded in, quantized once onto each integer grid it feeds —
    the next layer's codes and the residual grid — as
    ``clip(floor(y * mu + beta), lo, hi)`` in ``float64``;
``iadd``
    a residual add of two values on the model's common fine grid (a power
    of two, ``GRID_BITS`` below the smallest activation scale unless a
    coarser grid is needed, see below), with the ReLU after it folded into
    its clip;
``requant``
    a grid value to one consumer's codes (one per distinct consumer
    quantizer), an :class:`~repro.core.requant.IntRequant`;
``pool_requant``
    ``global_avg_pool -> fc``: the window mean in integers (the ``int64``
    window sum divided by the count, rounded half up onto the grid), then
    the fc's activation quantizer;
``dequant``
    a grid value back to float, only where a float op must consume it.

Every grid value carries a load-time bound on its magnitude: the reach of
the producing layer's accumulator through its fold, the sum of the two
bounds for an ``iadd``, and ``GRID_LIMIT`` for a float value quantized
onto the grid.  No bound may exceed ``GRID_CAP``, so residual sums and
requant inputs stay exact on the ``float64`` carrier and the ``+-GRID_CAP``
clips of the folds and adds can never bite; when some bound would, the
graph is folded again on a coarser grid.  The only grid saturation left is
the float boundary's ``+-GRID_LIMIT`` (at least ``2**19`` times the
smallest activation scale, more on a coarser grid), since a float input has no
load-time bound.  Every requant is verified against its integer definition
when the graph is built.  Floats
remain only in the raw-input stem, its quantization onto the integer grids
and the final logits dequant.  Chains the fold does not recognise keep the
float boundaries of the stand-alone integer layers (each layer quantizes its
float input and dequantizes its output), so every graph still runs.

Everything is rebuilt from arrays already stored in version-2 artifacts
(BatchNorm ``mean``/``denom``/``gamma``/``beta``, each layer's
``act_scale``/``act_qmax`` and ``s_p``/``s_w``/``shift_factors``); the
folded graph lives on its plan and is never serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.requant import IntRequant, RequantFoldError

__all__ = ["GRID_BITS", "GRID_LIMIT", "GRID_CAP", "INT_OPS", "Quantize",
           "Requant", "IAdd", "PoolRequant", "Dequant", "fold_int_graph"]

#: Fraction bits of the residual grid below the smallest activation scale,
#: when every reachable grid value fits below ``GRID_CAP`` on that grid.
GRID_BITS = 28
#: Saturation of a float value quantized onto the grid, in grid units.
GRID_LIMIT = 2 ** 48
#: Bound on every reachable grid value: sums of two stay exact in ``float64``.
GRID_CAP = 2 ** 52
#: Refolds on coarser grids before the fold gives up.
_MAX_REFOLDS = 16
#: Graph ops that exist only in a folded integer graph.
INT_OPS = frozenset({"quantize", "requant", "iadd", "pool_requant",
                     "dequant"})


def _channel_view(values: np.ndarray, ndim: int) -> np.ndarray:
    """Per-channel ``(C,)`` constants shaped to broadcast over axis 1."""
    return values.reshape((1, -1) + (1,) * (ndim - 2))


@dataclass
class Quantize:
    """Float boundary: ``clip(floor(y * mu + beta), lo, hi)`` in ``float64``.

    ``fmax``/``fmin`` send a NaN to ``lo``, as the float route's ReLU does.
    """

    mu: np.ndarray
    beta: np.ndarray
    lo: float
    hi: float
    out_dtype: np.dtype

    def __call__(self, y: np.ndarray) -> np.ndarray:
        t = np.multiply(y, _channel_view(self.mu, y.ndim), dtype=np.float64)
        t += _channel_view(self.beta, y.ndim)
        np.fmax(t, self.lo, out=t)
        np.fmin(t, self.hi, out=t)
        out = np.empty(y.shape, dtype=self.out_dtype)
        return np.floor(t, out=out, casting="unsafe")


@dataclass
class Requant:
    """A grid value to one consumer's activation codes."""

    requant: IntRequant
    out_dtype: np.dtype

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.requant.execute(
            x, np.empty(x.shape, dtype=self.out_dtype))


@dataclass
class IAdd:
    """Residual add on the fine grid, ``clip(a + b, lo, hi)``."""

    lo: float
    hi: float

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # int-pure: begin
        out = np.add(a, b)                   # integers below 2**53: exact
        return np.clip(out, self.lo, self.hi, out=out)
        # int-pure: end


@dataclass
class PoolRequant:
    """``global_avg_pool`` plus the consumer's quantizer, on integers.

    The window mean rounds half up onto the grid in ``int64`` — ``q + (2r
    >= count)`` for ``q, r = divmod(sum, count)`` — and an
    :class:`~repro.core.requant.IntRequant` built and verified at load time
    takes it to the consumer's codes.  The window size is known only at run
    time: a window whose sum could leave ``int64`` (``count * bound >=
    2**63``) raises :class:`~repro.engine.model_plan.ModelPlanError`.
    """

    requant: IntRequant
    bound: int                 # reachable |grid value| of the input
    out_dtype: np.dtype

    def __call__(self, x: np.ndarray) -> np.ndarray:
        count = max(1, x.shape[2] * x.shape[3])
        if count * self.bound >= 2 ** 63:
            from .model_plan import ModelPlanError
            raise ModelPlanError(
                f"a {count}-position pooling window can overflow the int64 "
                f"window sum of grid values up to {self.bound}")
        # int-pure: begin
        sums = x.astype(np.int64).sum(axis=(2, 3))     # below 2**63: exact
        mean = sums // count
        mean += 2 * (sums - mean * count) >= count     # round half up
        # int-pure: end
        return self.requant.execute(mean.astype(np.float64),
                                    np.empty(mean.shape, dtype=self.out_dtype),
                                    overwrite=True)


@dataclass
class Dequant:
    """A grid value back to float: ``x * scale`` in ``out_dtype``."""

    scale: float
    out_dtype: np.dtype

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=self.out_dtype)
        return np.multiply(x, self.scale, out=out, casting="unsafe")


# --------------------------------------------------------------------------- #
# the fold
# --------------------------------------------------------------------------- #
def fold_int_graph(plan) -> Tuple[list, int]:
    """Fold ``plan``'s float op graph into its integer graph.

    Returns ``(nodes, output_id)`` over fresh :class:`~repro.engine.
    model_plan.GraphNode` objects; ``cim`` nodes carry their
    :class:`~repro.engine.plan.LayerFold` in ``attrs["fold"]`` and the
    integer ops (:data:`INT_OPS`) their kernel in ``attrs["spec"]``.  The
    grid starts ``GRID_BITS`` below the smallest activation scale and is
    coarsened until every reachable grid value stays within ``GRID_CAP``.
    Raises :class:`~repro.core.requant.RequantFoldError` when a requant
    cannot be executed exactly or no grid fits.
    """
    scales = [_Folder._scale(lp) for lp in plan.layer_plans
              if _Folder._int_plan(lp)]
    exponent = (math.frexp(min(scales))[1] - 1 if scales else 0) - GRID_BITS
    for _ in range(_MAX_REFOLDS):
        try:
            return _Folder(plan, math.ldexp(1.0, exponent)).run()
        except _GridOverflow as overflow:
            exponent += max(1, overflow.magnitude.bit_length()
                            - GRID_CAP.bit_length() + 1)
    raise RequantFoldError(
        f"no residual grid keeps every reachable value within {GRID_CAP}")


class _GridOverflow(Exception):
    """A grid value could reach past ``GRID_CAP`` on the current grid."""

    def __init__(self, magnitude: int):
        super().__init__(magnitude)
        self.magnitude = magnitude


class _Folder:
    """One pass over the float graph, in order, emitting the integer graph."""

    def __init__(self, plan, grid: float):
        from .model_plan import GraphNode
        self._node_cls = GraphNode
        self.plan = plan
        self.src = {node.id: node for node in plan.nodes}
        self.users: Dict[int, List[int]] = {}
        for node in plan.nodes[1:]:
            for vid in node.inputs:
                self.users.setdefault(vid, []).append(node.id)
        self.output = plan.output_id
        self.grid = grid
        self.nodes = [GraphNode(id=0, op="input", inputs=[], name="input")]
        self.floats: Dict[int, int] = {0: 0}
        self.grids: Dict[int, int] = {}
        self.bounds: Dict[int, int] = {}     # emitted grid node -> max |value|
        self.codes: Dict[tuple, int] = {}
        self.folded: set = set()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _int_plan(lp) -> bool:
        return lp.requant is not None and lp.act_scale is not None

    @staticmethod
    def _scale(lp) -> float:
        return float(np.asarray(lp.act_scale, np.float64).reshape(-1)[0])

    def _layer(self, node):
        return self.plan.layer_plans[node.plan_index]

    def _qkey(self, lp) -> tuple:
        return (self._scale(lp), float(lp.act_qmin), float(lp.act_qmax),
                lp.requant.gemm_dtype)

    def _emit(self, op: str, inputs: List[int], name: str,
              **attrs) -> int:
        node = self._node_cls(id=len(self.nodes), op=op, inputs=list(inputs),
                              name=name, attrs=attrs)
        self.nodes.append(node)
        return node.id

    # ------------------------------------------------------------------ #
    # pattern helpers
    # ------------------------------------------------------------------ #
    def _chain(self, vid: int, allow_bn: bool = True) -> Tuple[list, int]:
        """Sole-consumer ``batchnorm* (relu|relu6)?`` chain after ``vid``."""
        chain, cur = [], vid
        while cur != self.output:
            users = self.users.get(cur, [])
            if len(users) != 1:
                break
            nxt = self.src[users[0]]
            if chain and chain[-1].op in ("relu", "relu6"):
                break
            if not (nxt.op in ("relu", "relu6")
                    or (nxt.op == "batchnorm" and allow_bn)):
                break
            chain.append(nxt)
            cur = nxt.id
        return chain, cur

    @staticmethod
    def _affine(chain: list, channels: int) -> Tuple[np.ndarray, np.ndarray,
                                                     Optional[str]]:
        """``(A, B, clamp)``: the chain is ``clamp(A * y + B)`` per channel."""
        a = np.ones(channels, dtype=np.float64)
        b = np.zeros(channels, dtype=np.float64)
        clamp = None
        for node in chain:
            if node.op == "batchnorm":
                arr = node.arrays
                mean = arr["mean"].astype(np.float64)
                scale = (arr["gamma"].astype(np.float64)
                         if "gamma" in arr else 1.0) / arr["denom"].astype(
                             np.float64)
                shift = (arr["beta"].astype(np.float64)
                         if "beta" in arr else 0.0)
                a, b = a * scale, (b - mean) * scale + shift
            else:
                clamp = node.op
        return a, b, clamp

    @staticmethod
    def _clamped(lo: int, hi: int, clamp: Optional[str],
                 target: float) -> Tuple[int, int]:
        """Code range after a ReLU / ReLU6 on the real value."""
        if clamp is not None:
            lo = max(lo, 0)
        if clamp == "relu6":
            cap = math.floor(Fraction(6) / Fraction(target) + Fraction(1, 2))
            hi = min(hi, cap)
        return lo, hi

    def _code_range(self, lp, clamp) -> Tuple[int, int]:
        return self._clamped(int(lp.act_qmin), int(lp.act_qmax), clamp,
                             self._scale(lp))

    def _grid_range(self, clamp, limit: int = GRID_CAP) -> Tuple[int, int]:
        return self._clamped(-limit, limit, clamp, self.grid)

    def _bounded(self, nid: int, low: int, high: int, lo: int,
                 hi: int) -> int:
        """Record grid value ``nid``: reach ``[low, high]``, clip ``[lo, hi]``.

        A ``+-GRID_CAP`` side of the clip must never bite (a ReLU/ReLU6
        side may); otherwise the grid is too fine (:class:`_GridOverflow`).
        """
        if (lo == -GRID_CAP and low < lo) or (hi == GRID_CAP and high > hi):
            raise _GridOverflow(max(-low, high))
        self.bounds[nid] = max(abs(max(low, lo)), abs(min(high, hi)))
        return nid

    def _pool_target(self, pool_id: int):
        """``(end, cim node)`` for ``pool -> [flatten] -> int cim``, else None."""
        cur = pool_id
        for _ in range(2):
            users = self.users.get(cur, [])
            if cur == self.output or len(users) != 1:
                return None
            nxt = self.src[users[0]]
            if nxt.op == "cim" and self._int_plan(self._layer(nxt)):
                return cur, nxt
            if nxt.op != "flatten":
                return None
            cur = nxt.id
        return None

    def _int_users(self, end: int) -> Optional[list]:
        """Consumers of ``end`` as ``[(kind, node)]`` if all run integer."""
        users = self.users.get(end, [])
        if end == self.output or not users:
            return None
        kinds = []
        for uid in users:
            user = self.src[uid]
            if user.op == "cim" and self._int_plan(self._layer(user)):
                kinds.append(("cim", user))
            elif user.op == "add":
                kinds.append(("add", user))
            elif (user.op == "global_avg_pool"
                  and self._pool_target(uid) is not None):
                kinds.append(("pool", user))
            else:
                return None
        return kinds

    # ------------------------------------------------------------------ #
    # value materialization
    # ------------------------------------------------------------------ #
    def _float(self, vid: int) -> int:
        if vid in self.floats:
            return self.floats[vid]
        nid = self._emit("dequant", [self.grids[vid]],
                         f"{self.src[vid].name}.dequant",
                         spec=Dequant(self.grid, np.float64))
        self.floats[vid] = nid
        return nid

    def _to_grid(self, vid: int) -> int:
        if vid in self.grids:
            return self.grids[vid]
        nid = self._emit("quantize", [self._float(vid)],
                         f"{self.src[vid].name}.grid",
                         spec=Quantize(np.array([1.0 / self.grid]),
                                       np.array([0.5]), -GRID_LIMIT,
                                       GRID_LIMIT, np.float64))
        self.bounds[nid] = GRID_LIMIT
        self.grids[vid] = nid
        return nid

    def _codes(self, vid: int, lp) -> Optional[int]:
        key = (vid, self._qkey(lp))
        if key in self.codes:
            return self.codes[key]
        if vid not in self.grids:
            return None
        lo, hi = self._code_range(lp, None)
        rq = IntRequant.from_real([self.grid / self._scale(lp)], [0.5], lo,
                                  hi, self.bounds[self.grids[vid]])
        nid = self._emit("requant", [self.grids[vid]],
                         f"{self.src[vid].name}.requant",
                         spec=Requant(rq, np.dtype(lp.requant.gemm_dtype)))
        self.codes[key] = nid
        return nid

    # ------------------------------------------------------------------ #
    # node handlers
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[list, int]:
        for node in self.plan.nodes[1:]:
            if node.id in self.folded:
                continue
            handler = getattr(self, f"_on_{node.op}", None)
            if handler is None or not handler(node):
                self._on_float(node)
        return self.nodes, self._float(self.output)

    def _on_float(self, node) -> bool:
        nid = self._emit(node.op, [self._float(v) for v in node.inputs],
                         node.name, **node.attrs)
        self.nodes[nid].arrays = node.arrays
        self.nodes[nid].plan_index = node.plan_index
        self.floats[node.id] = nid
        return True

    def _on_cim(self, node) -> bool:
        lp = self._layer(node)
        if not self._int_plan(lp):
            nid = self._emit("cim", [self._float(node.inputs[0])], node.name,
                             fold=None)
            self.nodes[nid].plan_index = node.plan_index
            self.floats[node.id] = nid
            self._fold_float_chain(node, nid, lp.out_channels)
            return True
        in_id = self._codes(node.inputs[0], lp)
        codes_in = in_id is not None
        if not codes_in:
            in_id = self._float(node.inputs[0])
        chain, end = self._chain(node.id)
        users = self._int_users(end)
        gain, offset, clamp = self._affine(chain, lp.out_channels)
        if users and len(users) == 1 and users[0][0] == "cim":
            consumer = self._layer(users[0][1])
            target = self._scale(consumer)
            lo, hi = self._code_range(consumer, clamp)
            fold = lp.int_fold(codes_in, gain / target, offset / target + 0.5,
                               lo, hi, consumer.requant.gemm_dtype)
            self.codes[(end, self._qkey(consumer))] = self._emit_cim(
                node, chain, in_id, fold)
        elif users:
            lo, hi = self._grid_range(clamp)
            fold = lp.int_fold(codes_in, gain / self.grid,
                               offset / self.grid + 0.5, lo, hi, np.float64)
            self.grids[end] = self._bounded(
                self._emit_cim(node, chain, in_id, fold),
                *fold.requant.span(), lo, hi)
        else:
            self.floats[node.id] = self._emit_cim(
                node, [], in_id, lp.dequant_fold(codes_in))
        return True

    def _emit_cim(self, node, chain: list, in_id: int, fold) -> int:
        self.folded.update(n.id for n in chain)
        name = "+".join([node.name] + [n.name for n in chain])
        nid = self._emit("cim", [in_id], name, fold=fold)
        self.nodes[nid].plan_index = node.plan_index
        return nid

    def _fold_float_chain(self, node, nid: int, channels: int) -> None:
        """Quantize a float layer's (BN -> ReLU ->) output onto its grids."""
        chain, end = self._chain(node.id)
        users = self._int_users(end)
        if not users or (not chain and all(k == "cim" for k, _ in users)):
            return      # float ops, or layers that quantize their own input
        self.folded.update(n.id for n in chain)
        gain, offset, clamp = self._affine(chain, channels)
        for kind, user in users:
            if kind != "cim":
                continue
            lp = self._layer(user)
            key = (end, self._qkey(lp))
            if key not in self.codes:
                target = self._scale(lp)
                lo, hi = self._code_range(lp, clamp)
                self.codes[key] = self._emit(
                    "quantize", [nid], f"{node.name}.quantize:{user.name}",
                    spec=Quantize(gain / target, offset / target + 0.5,
                                  lo, hi, np.dtype(lp.requant.gemm_dtype)))
        if any(kind != "cim" for kind, _ in users):
            lo, hi = self._grid_range(clamp, GRID_LIMIT)
            self.grids[end] = self._emit(
                "quantize", [nid], f"{node.name}.quantize:grid",
                spec=Quantize(gain / self.grid, offset / self.grid + 0.5,
                              lo, hi, np.float64))
            self.bounds[self.grids[end]] = max(-lo, hi)

    def _on_add(self, node) -> bool:
        left, right = node.inputs
        if left not in self.grids and right not in self.grids:
            return False
        inputs = [self._to_grid(left), self._to_grid(right)]
        chain, end = self._chain(node.id, allow_bn=False)
        if chain and self._int_users(end):
            self.folded.update(n.id for n in chain)
            lo, hi = self._grid_range(chain[-1].op)
            name = "+".join([node.name] + [n.name for n in chain])
        else:
            end, name = node.id, node.name
            lo, hi = self._grid_range(None)
        reach = self.bounds[inputs[0]] + self.bounds[inputs[1]]
        self.grids[end] = self._bounded(
            self._emit("iadd", inputs, name, spec=IAdd(lo, hi)),
            -reach, reach, lo, hi)
        return True

    def _on_global_avg_pool(self, node) -> bool:
        source = node.inputs[0]
        target = self._pool_target(node.id)
        if source not in self.grids or target is None:
            return False
        end, user = target
        lp = self._layer(user)
        if end != node.id:
            self.folded.add(end)         # the flatten between pool and fc
        lo, hi = self._code_range(lp, None)
        bound = self.bounds[self.grids[source]]
        rq = IntRequant.from_real([self.grid / self._scale(lp)], [0.5], lo,
                                  hi, bound)
        self.codes[(end, self._qkey(lp))] = self._emit(
            "pool_requant", [self.grids[source]], node.name,
            spec=PoolRequant(rq, bound, np.dtype(lp.requant.gemm_dtype)))
        return True

    def _on_flatten(self, node) -> bool:
        source = node.inputs[0]
        if source not in self.grids:
            return False
        nid = self._emit("flatten", [self.grids[source]], node.name)
        self.bounds[nid] = self.bounds[self.grids[source]]
        self.grids[node.id] = nid
        return True

