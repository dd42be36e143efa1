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
operands derived from the plan's stored codes and scales — and every test
demands **bit-exact** equality with the executed route on
``resnet_tiny``, the three float golden fixtures, randomized residual
graphs with and without partial-sum quantization, and TinyCNN, MLP and
ResNet-8 plans at all nine weight x partial-sum granularities and without
partial-sum quantization.

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
            p = rows @ np.ascontiguousarray(lp.w_bar[i, :depth],
                                            dtype=np.float64)
            term = p * s_w[i]
        acc += term
    out = acc if lp.act_scale is None else acc * lp.act_scale
    if lp.bias is not None:
        out = out + lp.bias
    if not tail:
        return out
    return out.reshape((n,) + tail + (oc,)).transpose(0, 3, 1, 2)


def _oracle_values(plan, x) -> dict:
    """Every node value of the float graph of ``plan``: CIM layers by
    :func:`float_oracle_layer`, every other op by the plan's own node
    step."""
    assert plan.mode == "float"
    nodes, _ = plan.graph()
    values = {0: np.asarray(x, dtype=np.float64)}
    for node in nodes[1:]:
        if node.op == "cim":
            values[node.id] = float_oracle_layer(
                plan.layer_plans[node.plan_index], values[node.inputs[0]])
        else:
            values[node.id] = plan._run_node(node, values)
    return values


def float_oracle(plan, x) -> np.ndarray:
    """The output of the float graph of ``plan`` (:func:`_oracle_values`)."""
    return _oracle_values(plan, x)[plan.graph()[1]]


def assert_route_matches_float_oracle(plan, x):
    """Every CIM layer, run by the route on the oracle's input to it, and
    the whole graph equal the oracle bit for bit.  Layers are checked one
    by one because the next layer's input quantizer absorbs most last-bit
    differences before they reach the graph output."""
    plan = plan.with_mode("float")
    values = _oracle_values(plan, x)
    nodes, output_id = plan.graph()
    for node in nodes[1:]:
        if node.op == "cim":
            np.testing.assert_array_equal(plan._run_node(node, values),
                                          values[node.id],
                                          err_msg=f"layer {node.name}")
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
