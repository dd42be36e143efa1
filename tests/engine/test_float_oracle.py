"""Plain-NumPy oracle of the float route.

The float route of a CIM layer is documented on
:meth:`repro.engine.plan._PlanBase._float_tile`: LSQ activation codes
``rint(clip(x / s_a))`` on the plan's carrier, im2col, one GEMM per
crossbar array over that array's valid rows; on the quantized path each
array's partial sums are divided by ``s_p`` in ``float64``, clipped,
rounded and summed over the splits against the folded multiplier
``s_p * 2**(j*cell_bits) * s_w``; on the fused path each array's products
are scaled by ``s_w``; the arrays add into a zeroed accumulator in array
order, and the activation scale and bias come last.  :func:`float_oracle`
evaluates exactly that on whole batches — no sample tiles, no scratch
buffers, every array in ``float64`` rather than on the plan's carrier,
operands derived from the plan's stored cell codes and scales (the fused
path's weight codes by shift-and-add) — and :func:`float_oracle_op`
restates the graph's other ops (BatchNorm, ReLU/ReLU6, add, pools,
flatten) in plain NumPy.  Every test demands **bit-exact** equality with
the executed route on ``resnet_tiny``, the three float golden fixtures,
randomized residual graphs with and without partial-sum quantization,
TinyCNN, MLP and ResNet-8 plans at all nine weight x partial-sum
granularities and without partial-sum quantization, and a chain of
windowed pools.

Codes are integers and the route's carrier is certified exact, so the
GEMM of every layer with an input quantizer is exact on either side and
every later step elementwise: the oracle's whole-batch ``float64`` GEMM
equals the route's tiled one bit for bit.  A raw-input layer (a model's
stem) multiplies real values in ``float64``, which is only as row-stable
as BLAS: another row count can take another kernel and summation order
(a single row runs as gemv), or for another operand layout (a
Fortran-ordered weight is a transposed call).  Its rows equal the
oracle's here only because both sides make the same BLAS call: every
batch fits in one of the route's tiles (:func:`_assert_one_tile` checks
that premise) and both multiply by C-ordered operands.
"""

import os

import numpy as np
import pytest

from repro import engine
from repro.nn import functional as F

from test_int_oracle import (FIXTURE_DIR, SCHEME_IDS, SCHEMES,
                             model_kind_plan, random_residual_plan,
                             resnet_tiny)


def _assert_one_tile(lp, n_rows: int, n: int) -> None:
    """The route runs a raw-input layer's ``n`` samples (``n_rows`` im2col
    rows) as one tile, so its GEMM is the same BLAS call as the oracle's."""
    length = n_rows // max(n, 1)
    assert lp._tile_samples(length, None, 8) >= n, (
        "the batch spans several tiles: BLAS may sum a raw-input row in "
        "another order than the whole-batch GEMM")


def float_oracle_layer(lp, x) -> np.ndarray:
    """One CIM layer's float route on a whole batch, in documented order."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if lp.act_scale is not None:
        x = np.rint(np.clip(x / lp.act_scale, lp.act_qmin, lp.act_qmax))
    if lp.layer_type == "linear":
        cols, tail = x, ()
    else:
        cols = F.unfold_array(x, lp.kernel_size, lp.stride, lp.padding,
                              layout="nlk")
        kh, kw = lp.kernel_size
        tail = (F.conv_output_size(x.shape[2], kh, lp.stride[0],
                                   lp.padding[0]),
                F.conv_output_size(x.shape[3], kw, lp.stride[1],
                                   lp.padding[1]))
        cols = cols.reshape(-1, cols.shape[2])
    if lp.act_scale is None:
        _assert_one_tile(lp, cols.shape[0], n)
    s, a, _, oc = lp.splits.shape
    # the fused path's weight codes: the cell codes shifted and added
    w_bar = sum(lp.splits[j].astype(np.float64) * lp.shift_factors[j]
                for j in range(s))
    s_w = lp.s_w.reshape(lp.s_w.shape[0], lp.s_w.shape[2])
    s_w = np.broadcast_to(s_w, (a, oc))
    if lp.psum_quant_enabled:
        s_p = np.broadcast_to(lp.s_p, (s, a, oc))
        m = np.broadcast_to(
            lp.s_p * lp.shift_factors[:, None, None] * s_w[None], (s, a, oc))
    acc = np.zeros((cols.shape[0], oc))
    for i, tile in enumerate(lp.mapping.tiles):
        rows = cols[:, tile.row_start:tile.row_stop]
        depth = tile.row_stop - tile.row_start
        if lp.psum_quant_enabled:
            # the (depth, S*OC) bit-split operand, split-major columns
            weights = np.concatenate([lp.splits[j, i, :depth]
                                      for j in range(s)], axis=1)
            p = rows @ np.ascontiguousarray(weights, dtype=np.float64)
            q = np.round(np.clip(p.reshape(-1, s, oc) / s_p[:, i],
                                 lp.psum_qmin, lp.psum_qmax))
            term = q[:, 0] * m[0, i]
            for j in range(1, s):
                term = term + q[:, j] * m[j, i]
        else:
            p = rows @ np.ascontiguousarray(w_bar[i, :depth])
            term = p * s_w[i]
        acc += term
    out = acc if lp.act_scale is None else acc * lp.act_scale
    if lp.bias is not None:
        out = out + lp.bias
    if not tail:
        return out
    return out.reshape((n,) + tail + (oc,)).transpose(0, 3, 1, 2)


def _channel(array, ndim: int) -> np.ndarray:
    """A per-channel ``(C,)`` operand broadcast over an ``ndim`` input."""
    return array.reshape((1, -1) + (1,) * (ndim - 2))


def _pool_windows(x, kernel, stride, padding) -> list:
    """The ``kh * kw`` strided views of a zero-padded ``(N, C, H, W)``
    input, row-major over the window: view ``k`` holds every window's
    element ``k``."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (padded.shape[2] - kh) // sh + 1
    out_w = (padded.shape[3] - kw) // sw + 1
    return [padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            for i in range(kh) for j in range(kw)]


def float_oracle_op(node, args) -> np.ndarray:
    """One non-CIM op of a float graph, in the Tensor math it mirrors:
    BatchNorm as ``(x - mean) / denom * gamma + beta``, every mean as a sum
    times ``1 / count`` (a window's elements added in window order)."""
    x, a = args[0], node.arrays
    if node.op == "batchnorm":
        out = (x - _channel(a["mean"], x.ndim)) / _channel(a["denom"], x.ndim)
        if "gamma" in a:
            out = (out * _channel(a["gamma"], x.ndim)
                   + _channel(a["beta"], x.ndim))
        return out
    if node.op == "relu":
        return np.where(x > 0, x, 0.0)
    if node.op == "relu6":
        return np.minimum(np.maximum(x, 0.0), 6.0)
    if node.op == "add":
        return x + args[1]
    if node.op == "flatten":
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
    if node.op == "global_avg_pool":
        return x.sum(axis=(2, 3)) * (1.0 / (x.shape[2] * x.shape[3]))
    if node.op in ("max_pool", "avg_pool"):
        kernel = tuple(node.attrs["kernel"])
        windows = _pool_windows(x, kernel, tuple(node.attrs["stride"]),
                                tuple(node.attrs["padding"]))
        if node.op == "max_pool":
            return np.maximum.reduce(windows)
        total = windows[0]
        for window in windows[1:]:
            total = total + window
        return total * (1.0 / (kernel[0] * kernel[1]))
    raise NotImplementedError(f"no oracle for op {node.op!r}")


def _oracle_values(plan, x) -> dict:
    """Every node value of the float graph of ``plan``: CIM layers by
    :func:`float_oracle_layer`, every other op by :func:`float_oracle_op`."""
    assert plan.mode == "float"
    nodes, _ = plan.graph()
    values = {0: np.asarray(x, dtype=np.float64)}
    for node in nodes[1:]:
        args = [values[i] for i in node.inputs]
        if node.op == "cim":
            values[node.id] = float_oracle_layer(
                plan.layer_plans[node.plan_index], args[0])
        else:
            values[node.id] = float_oracle_op(node, args)
    return values


def float_oracle(plan, x) -> np.ndarray:
    """The output of the float graph of ``plan`` (:func:`_oracle_values`)."""
    return _oracle_values(plan, x)[plan.graph()[1]]


def assert_route_matches_float_oracle(plan, x):
    """Every node, run by the route on the oracle's inputs to it, and the
    whole graph equal the oracle bit for bit.  Nodes are checked one by
    one because the next layer's input quantizer absorbs most last-bit
    differences before they reach the graph output."""
    plan = plan.with_mode("float")
    values = _oracle_values(plan, x)
    nodes, output_id = plan.graph()
    for node in nodes[1:]:
        np.testing.assert_array_equal(plan._run_node(node, values),
                                      values[node.id],
                                      err_msg=f"{node.op} {node.name}")
    got = plan.execute(x)
    want = values[output_id]
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_resnet_tiny_bit_exact():
    plan, x = resnet_tiny()
    assert_route_matches_float_oracle(plan, x)


@pytest.mark.parametrize("quantize_psum", [True, False],
                         ids=["psum", "fused"])
def test_random_residual_graphs_bit_exact(quantize_psum):
    """ReLU6, negative and zero BatchNorm gammas, near-zero partial-sum
    scales, identity and 1x1 shortcuts."""
    plan, x = random_residual_plan(6, quantize_psum=quantize_psum)
    assert_route_matches_float_oracle(plan, x)


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
def test_model_kinds_bit_exact(kind, scheme):
    """TinyCNN, MLP and ResNet-8 at every weight x partial-sum granularity
    and without partial-sum quantization, at the full batch and at one
    sample."""
    plan, x = model_kind_plan(kind, *scheme)
    assert_route_matches_float_oracle(plan, x)
    assert_route_matches_float_oracle(plan, x[:1])


def test_windowed_pools_bit_exact():
    """Max and mean pools, padded and strided, over a CIM layer's signed
    outputs (so the zero padding is seen by the max)."""
    model_plan, x = model_kind_plan("conv", True)
    builder = engine.GraphBuilder()
    node = builder.add_layer_plan(model_plan.layer_plans[0],
                                  [builder.input_id])
    for op, kernel, stride, padding in (("max_pool", 3, 1, 1),
                                        ("avg_pool", 3, 2, 1),
                                        ("avg_pool", 2, 1, 0),
                                        ("max_pool", 2, 2, 0)):
        node = builder.add_op(op, [node], kernel=(kernel, kernel),
                              stride=(stride, stride),
                              padding=(padding, padding))
    plan = engine.ModelPlan(nodes=builder.nodes,
                            layer_plans=builder.layer_plans, output_id=node)
    assert (plan.layer_plans[0].execute(x) < 0).any()
    assert_route_matches_float_oracle(plan, x)


@pytest.mark.parametrize("name", ["conv", "linear", "resnet_tiny"])
def test_golden_float_fixtures_equal_the_oracle(name, tmp_path):
    """The stored float golden is the oracle's output, not just a recording."""
    with np.load(os.path.join(FIXTURE_DIR, f"{name}.npz")) as fixture:
        artifact, x, golden = (fixture["artifact"], fixture["input"],
                               fixture["golden"])
    path = tmp_path / f"{name}.npz"
    path.write_bytes(artifact.tobytes())
    np.testing.assert_array_equal(golden,
                                  float_oracle(engine.load_plan(path), x))
