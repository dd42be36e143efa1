"""Pure-Python integer oracle of the folded integer route.

The integer route is *defined* in plain integers: ADC codes
``clip((p * m0_adc + half) >> shift_adc)``, exact reduces against each
layer's fold weights, per-channel requants ``clip((x * m0 + b) >> shift)``
(:class:`~repro.core.requant.IntRequant`), residual adds and window means
on the fine grid.  Floats appear only where the route itself keeps them:
the raw-input stem, its quantization onto the integer grids, and the final
dequant.  :func:`oracle` evaluates a folded graph with Python ``int``
arithmetic only (the float boundaries with Python floats, which are IEEE
``float64`` like NumPy's), and every test demands **bit-exact** equality
with the executed route on ``resnet_tiny``,
on the golden int fixtures (so a fixture cannot be silently re-blessed),
on TinyCNN, MLP and ResNet-8 plans with and without partial-sum
quantization and at all nine weight x partial-sum granularities
(layer / array / column), and on randomized residual graphs covering
identity and 1x1 shortcuts, ReLU6, negative and zero BatchNorm gamma,
near-zero partial-sum scales, batch sizes 1 and 0, and activation scales
spread past 1000x.
"""

import importlib.util
import json
import math
import operator
import os

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.core import CIMConv2d
from repro.engine.intfold import GRID_BITS, GRID_CAP, INT_OPS
from repro.engine.plan import LayerFold
from repro.models import MLP, TinyCNN, resnet8
from repro.nn import ReLU6, Tensor
from repro.nn import functional as F
from repro.nn.tensor import no_grad

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")
TOOLS_DIR = os.path.join(FIXTURE_DIR, os.pardir, os.pardir, os.pardir,
                         "tools")


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------------- #
def _ints(array) -> np.ndarray:
    """An integer-valued float array as an object array of Python ints."""
    out = np.empty(np.shape(array), dtype=object)
    flat = out.reshape(-1)
    flat[:] = [int(v) for v in np.asarray(array).reshape(-1).tolist()]
    return out


def _as_float_array(values: np.ndarray, dtype) -> np.ndarray:
    return np.array(values.tolist(), dtype=np.float64).reshape(
        values.shape).astype(dtype)


def _codes_of(lp, x, fold) -> np.ndarray:
    """The layer's input codes: given, or its own float input quantizer."""
    if fold.codes_in:
        return _ints(x)
    x = np.asarray(x, dtype=np.float64)
    # the float boundary of a layer fed float input: LSQ's round(clip(x/s))
    return _ints(np.rint(np.clip(x / lp.act_scale, lp.act_qmin,
                                 lp.act_qmax)))


def _rows(lp, codes) -> tuple:
    """Activation rows ``(NL, D)`` (ints) and the output shape."""
    if lp.layer_type == "linear":
        return codes.tolist(), (codes.shape[0], lp.out_channels)
    cols = F.unfold_array(_as_float_array(codes, np.float64), lp.kernel_size,
                          lp.stride, lp.padding, layout="nlk")
    n, length, depth = cols.shape
    kh, kw = lp.kernel_size
    out_h = F.conv_output_size(codes.shape[2], kh, lp.stride[0],
                               lp.padding[0])
    out_w = F.conv_output_size(codes.shape[3], kw, lp.stride[1],
                               lp.padding[1])
    rows = _ints(cols.reshape(n * length, depth)).tolist()
    return rows, (n, lp.out_channels, out_h, out_w)


def _accumulators(lp, rows, fold) -> list:
    """Per-row, per-channel integer accumulators of one layer."""
    rq = lp.requant
    weights = _ints(fold.weights)
    slices = lp.row_slices
    oc = lp.out_channels
    accs = []
    if lp.psum_quant_enabled:
        qmin, qmax = int(lp.psum_qmin), int(lp.psum_qmax)
        cells = [[[[int(v) for v in lp.splits[s, a, :stop - start, c]]
                   for c in range(oc)] for s in range(lp.n_splits)]
                 for a, (start, stop) in enumerate(slices)]
        for row in rows:
            acc = [0] * oc
            for a, (start, stop) in enumerate(slices):
                part = row[start:stop]
                for s in range(lp.n_splits):
                    for c in range(oc):
                        p = sum(map(operator.mul, part, cells[a][s][c]))
                        shift = int(rq.shift_adc[a, s, c])
                        code = (p * int(rq.m0_adc[a, s, c])
                                + ((1 << shift) >> 1)) >> shift
                        acc[c] += min(max(code, qmin), qmax) * weights[a, s, c]
            accs.append(acc)
    else:
        # the weight codes: the cell codes shifted and added, in ints
        codes = _ints(lp.splits)
        w_bar = sum(codes[s] * int(lp.shift_factors[s])
                    for s in range(lp.n_splits))
        cells = [[[w_bar[a, r, c] for r in range(stop - start)]
                  for c in range(oc)] for a, (start, stop) in enumerate(slices)]
        for row in rows:
            acc = [0] * oc
            for a, (start, stop) in enumerate(slices):
                part = row[start:stop]
                for c in range(oc):
                    acc[c] += (sum(map(operator.mul, part, cells[a][c]))
                               * weights[a, 0, c])
            accs.append(acc)
    return accs


def oracle_layer(lp, x, fold=None) -> np.ndarray:
    """One integer-route layer: ints for a requant fold, floats for a dequant."""
    fold = lp.dequant_fold(False) if fold is None else fold
    rows, shape = _rows(lp, _codes_of(lp, x, fold))
    accs = _accumulators(lp, rows, fold)
    n, oc = shape[0], shape[1]
    length = len(accs) // n if n else 0
    out = np.empty(shape, dtype=object)
    view = out.reshape(n, oc, length)
    for r, acc in enumerate(accs):
        for c in range(oc):
            if fold.requant is not None:
                value = fold.requant.apply(acc[c], c)
            else:
                bias = 0 if fold.bias is None else int(fold.bias[c])
                value = float(acc[c] + bias) * float(fold.scale[c])
            view[r // length, c, r % length] = value
    if fold.requant is not None:
        return out
    return _as_float_array(out, fold.out_dtype)


def _channel_map(values: np.ndarray, fn) -> np.ndarray:
    """``fn(value, channel)`` over an object array, channel axis 1."""
    out = np.empty(values.shape, dtype=object)
    for index in np.ndindex(values.shape):
        out[index] = fn(values[index], index[1])
    return out


def _pick(array, channel: int) -> float:
    return float(array[channel if len(array) > 1 else 0])


def oracle_node(plan, node, args):
    """Evaluate one folded-graph node; integer ops on Python ints only."""
    op = node.op
    if op == "cim":
        lp = plan.layer_plans[node.plan_index]
        fold = node.attrs.get("fold")
        if lp.requant is None:                  # the raw-input float stem
            return lp.execute(args[0])
        return oracle_layer(lp, args[0], fold)
    spec = node.attrs.get("spec")
    if op == "quantize":                         # the float boundary
        y = np.asarray(args[0], dtype=np.float64)

        def quantize(value, c):
            t = float(value) * _pick(spec.mu, c) + _pick(spec.beta, c)
            return int(math.floor(min(max(t, spec.lo), spec.hi)))
        return _channel_map(y, quantize)
    if op == "requant":
        return _channel_map(args[0], spec.requant.apply)
    if op == "iadd":
        lo, hi = int(spec.lo), int(spec.hi)
        return _channel_map(args[0] + args[1],
                            lambda v, c: min(max(v, lo), hi))
    if op == "pool_requant":                     # mean rounded half up
        x = args[0]
        count = max(1, x.shape[2] * x.shape[3])

        def pool(total, c):
            q, r = divmod(total, count)
            return spec.requant.apply(q + (2 * r >= count), c)
        return _channel_map(x.sum(axis=(2, 3)), pool)
    if op == "dequant":
        return _as_float_array(
            _channel_map(args[0], lambda v, c: float(v) * spec.scale),
            spec.out_dtype)
    if op == "flatten":
        x = args[0]
        return x.reshape(x.shape[0], -1)
    assert op not in INT_OPS
    # float op of a float region
    return plan._run_node(node, dict(zip(node.inputs, args)))


def oracle(plan, x) -> np.ndarray:
    """The folded integer graph of ``plan`` evaluated by :func:`oracle_node`."""
    assert plan.mode == "int"
    nodes, output_id = plan.graph()
    values = {0: np.asarray(x, dtype=np.float64)}
    for node in nodes[1:]:
        values[node.id] = oracle_node(plan, node,
                                      [values[i] for i in node.inputs])
    return values[output_id]


# --------------------------------------------------------------------------- #
# models
# --------------------------------------------------------------------------- #
#: ``(quantize_psum, weight granularity, psum granularity)``: the paper's
#: nine pairs of layer / array / column scales, then no psum quantization.
GRANULARITIES = ("layer", "array", "column")
SCHEMES = [(True, w, p) for w in GRANULARITIES for p in GRANULARITIES] \
    + [(False, "column", "column")]
SCHEME_IDS = [f"{w}-{p}" if q else "no_psum" for q, w, p in SCHEMES]


def _scheme(quantize_psum=True, weight_granularity="column",
            psum_granularity="column"):
    return QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                       weight_granularity=weight_granularity,
                       psum_granularity=psum_granularity,
                       quantize_psum=quantize_psum)


def resnet_tiny():
    return _load_tool("make_golden_fixtures")._build_resnet_tiny()


def random_residual_plan(seed: int, quantize_psum: bool = True):
    """A calibrated ResNet-8 with its edge cases forced in.

    Identity (stage 0) and 1x1 (stages 1-2) shortcuts come with the
    architecture; on top of that the first block runs ReLU6 with a
    consumer scale wide enough for the clamp to bite, some BatchNorm gammas
    are negative or zero, and some partial-sum scales are ``1e-8``.
    """
    rng = np.random.default_rng(seed)
    cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
    model = resnet8(num_classes=5, scheme=_scheme(quantize_psum),
                    cim_config=cfg, width_multiplier=0.25, seed=seed)
    calib = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        model(Tensor(calib))
    model.eval()
    block = model.stages[0][0]
    block.relu = ReLU6()
    block.conv2.act_quant.scale.data[...] = 1.3          # 7 codes span 9.1
    block.bn1.bias.data[:] += 4.0                        # push past 6
    for bn in (block.bn1, model.stages[1][0].bn2,
               model.stages[2][0].shortcut[1]):
        gamma = bn.weight.data
        gamma[0] = -abs(gamma[0]) * 1.5
        gamma[-1] = 0.0
    if quantize_psum:
        for layer in (block.conv1, model.stages[2][0].conv2):
            s_p = layer.psum_quant.scale.data
            s_p.reshape(-1)[::3] = 1e-8
    plan = engine.compile_model_plan(model, calibrate=calib)
    x = np.abs(rng.normal(size=(3, 3, 8, 8))) * 2
    return plan, x


def model_kind_plan(kind: str, quantize_psum: bool,
                    weight_granularity: str = "column",
                    psum_granularity: str = "column"):
    """A calibrated TinyCNN, MLP or ResNet-8 plan, plus an eval batch."""
    rng = np.random.default_rng(7)
    cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
    sch = _scheme(quantize_psum, weight_granularity, psum_granularity)
    if kind == "conv":
        model = TinyCNN(num_classes=4, width=6, scheme=sch, cim_config=cfg,
                        seed=1)
        x = np.abs(rng.normal(size=(3, 3, 8, 8)))
    elif kind == "resnet":
        model = resnet8(num_classes=5, scheme=sch, cim_config=cfg,
                        width_multiplier=0.25, seed=2)
        x = np.abs(rng.normal(size=(2, 3, 12, 12)))
    else:
        model = MLP(in_features=24, num_classes=5, hidden=(16,), scheme=sch,
                    cim_config=cfg, seed=1)
        x = np.abs(rng.normal(size=(4, 24)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    return plan, x


def spread_plan(tiny: float):
    """ResNet-8 whose stage-1 input quantizer has scale ``tiny``.

    That quantizer reads the residual value the other layers' scales put
    near 1, so the activation scales spread by ``1/tiny``; the fine grid
    follows the smallest one.
    """
    rng = np.random.default_rng(21)
    cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
    model = resnet8(num_classes=5, scheme=_scheme(), cim_config=cfg,
                    width_multiplier=0.25, seed=21)
    calib = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        model(Tensor(calib))
    model.eval()
    model.stages[1][0].conv1.act_quant.scale.data[...] = tiny
    plan = engine.compile_model_plan(model, calibrate=calib)
    return plan, np.abs(rng.normal(size=(6, 3, 8, 8))) * 2


def _grid_exponent(plan) -> int:
    """log2 of the folded graph's grid, read off the pool -> fc requant."""
    nodes, _ = plan.graph()
    pool = next(node for node in nodes if node.op == "pool_requant")
    fc = next(lp for lp in plan.layer_plans if lp.layer_type == "linear")
    ratio = float(pool.attrs["spec"].requant.mu[0]) * float(fc.act_scale[0])
    return round(math.log2(ratio))


def bench_shaped_plan():
    """ResNet-8 at the benchmark's geometry (16px, width 1.0, 64x64 arrays)."""
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=8, scheme=QuantScheme(
        weight_bits=3, act_bits=3, psum_bits=3, weight_granularity="column",
        psum_granularity="column"),
        cim_config=CIMConfig(array_rows=64, array_cols=64, cell_bits=1,
                             adc_bits=3),
        width_multiplier=1.0, seed=0)
    calib = np.abs(rng.normal(size=(4, 3, 16, 16)))
    with no_grad():
        model(Tensor(calib))
    model.eval()
    return engine.compile_model_plan(model, calibrate=calib), calib[:1]


# --------------------------------------------------------------------------- #
# bit-exactness
# --------------------------------------------------------------------------- #
def assert_route_matches_oracle(plan, x):
    """``(int plan, its output)``: the int route of ``plan`` on ``x``,
    checked against the oracle bit for bit."""
    plan = plan.with_mode("int")
    want = oracle(plan, x)
    got = plan.execute(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    return plan, want


def test_resnet_tiny_bit_exact():
    plan, x = resnet_tiny()
    assert_route_matches_oracle(plan, x)


@pytest.mark.parametrize("batch", [1, 0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_residual_graphs_bit_exact(seed, batch):
    plan, x = random_residual_plan(seed)
    assert_route_matches_oracle(plan, x[:batch])


def test_random_residual_graph_full_batch_bit_exact():
    plan, x = random_residual_plan(4)
    _, out = assert_route_matches_oracle(plan, x)
    assert np.all(np.isfinite(out))


def test_fused_route_graph_bit_exact():
    plan, x = random_residual_plan(5, quantize_psum=False)
    assert_route_matches_oracle(plan, x[:2])


@pytest.mark.parametrize("build", [
    resnet_tiny, lambda: random_residual_plan(6),
    lambda: random_residual_plan(6, quantize_psum=False)],
    ids=["resnet_tiny", "random_residual", "random_residual_fused"])
def test_every_int_layer_node_carries_its_fold(build):
    """A layer's route is its node's fold: in int mode the ``cim`` node of
    every layer with requant constants and an input quantizer carries a
    :class:`LayerFold`, and a raw-input layer's node ``None`` (the float
    route)."""
    plan, _ = build()
    plan = plan.with_mode("int")
    nodes, _ = plan.graph()
    cims = [node for node in nodes if node.op == "cim"]
    assert sorted(n.plan_index for n in cims) == list(range(plan.n_cim_layers))
    raw = 0
    for node in cims:
        lp = plan.layer_plans[node.plan_index]
        if lp.act_scale is None:
            raw += 1
            assert node.attrs["fold"] is None
        else:
            assert lp.requant is not None
            assert isinstance(node.attrs["fold"], LayerFold)
    assert raw == 1                           # the stem


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
def test_model_kinds_bit_exact(kind, scheme):
    """Every model family at all nine weight x partial-sum granularities
    and without partial-sum quantization: the route equals the oracle and
    picks the float route's top-1; rows of a smaller batch equal the full
    batch's."""
    plan, x = model_kind_plan(kind, *scheme)
    ref = plan.execute(x)
    plan, out = assert_route_matches_oracle(plan, x)
    np.testing.assert_array_equal(out.argmax(axis=1), ref.argmax(axis=1))
    np.testing.assert_array_equal(plan.execute(x[:1]), out[:1])
    assert plan.execute(x[:0]).shape == (0,) + out.shape[1:]


@pytest.mark.parametrize("quantize_psum", [True, False])
@pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
def test_float32_input_widens_bit_exact(kind, quantize_psum):
    """A plan computes in float64 whatever its input dtype: a float32 batch
    is widened once at the entry, so the route equals the oracle on the
    widened batch and returns float64."""
    plan, x = model_kind_plan(kind, quantize_psum)
    x32 = x.astype(np.float32)
    plan, out = assert_route_matches_oracle(plan, x32.astype(np.float64))
    got = plan.execute(x32)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, out)


def test_edge_cases_reach_the_folded_graph():
    """The random graphs really exercise what they claim to."""
    plan, _ = random_residual_plan(1)
    assert "relu6" in [node.op for node in plan.nodes]
    plan = plan.with_mode("int")
    nodes, _ = plan.graph()
    folds = [node.attrs["fold"] for node in nodes
             if node.op == "cim" and node.attrs.get("fold") is not None]
    signs = np.concatenate([np.sign(f.weights).reshape(-1, f.weights.shape[-1])
                            .max(axis=0) for f in folds])
    assert (signs < 0).any() and (signs == 0).any()   # negative, zero gamma
    capped = [f.requant.hi for f in folds if f.requant is not None
              and f.requant.hi < 7]
    assert capped                                      # the ReLU6 clamp bit
    s_p = np.concatenate([lp.s_p.reshape(-1) for lp in plan.layer_plans
                          if lp.s_p is not None])
    assert (s_p <= 1e-8).any()


@pytest.mark.parametrize("name", ["conv_int", "linear_int", "resnet_tiny_int"])
def test_golden_int_fixtures_equal_the_oracle(name, tmp_path):
    """The stored golden is the oracle's output, not just a recording."""
    with np.load(os.path.join(FIXTURE_DIR, f"{name}.npz")) as fixture:
        artifact, x, golden = (fixture["artifact"], fixture["input"],
                               fixture["golden"])
    path = tmp_path / f"{name}.npz"
    path.write_bytes(artifact.tobytes())
    plan = engine.load_plan(path, mode="int")
    np.testing.assert_array_equal(golden, oracle(plan, x))


@pytest.mark.parametrize("tiny", [1e-4, 1e-12], ids=["5000x", "coarse"])
def test_wide_scale_spread_never_saturates_the_grid(tiny):
    """Act scales spread by thousands: the grid's range follows the reach
    of every residual value instead of a fixed multiple of the smallest
    scale, so the int route still tracks the float route — and at a spread
    too wide for ``GRID_BITS`` fraction bits, the grid is coarsened."""
    plan, x = spread_plan(tiny)
    ref = plan.execute(x)
    plan, out = assert_route_matches_oracle(plan, x)
    scales = [float(lp.act_scale[0]) for lp in plan.layer_plans
              if lp.act_scale is not None]
    assert max(scales) / min(scales) > 1000
    np.testing.assert_array_equal(out.argmax(axis=1), ref.argmax(axis=1))
    np.testing.assert_allclose(out, ref, rtol=0,
                               atol=1e-6 * float(np.abs(ref).max()))
    finest = math.frexp(min(scales))[1] - 1 - GRID_BITS
    nodes, _ = plan.graph()
    bounds = [node.attrs["spec"].bound for node in nodes
              if node.op == "pool_requant"]
    assert bounds and max(bounds) <= GRID_CAP
    if tiny < 1e-6:
        assert _grid_exponent(plan) > finest
    else:
        assert _grid_exponent(plan) == finest


def test_oversized_pooling_window_is_refused():
    """A window whose int64 sum could overflow fails as ModelPlanError."""
    plan, x = resnet_tiny()
    plan = plan.with_mode("int")
    nodes, _ = plan.graph()
    pool = next(node for node in nodes if node.op == "pool_requant")
    pool.attrs["spec"].bound = 2 ** 62        # two positions reach 2**63
    with pytest.raises(engine.ModelPlanError, match="pooling window"):
        plan.execute(x)


# --------------------------------------------------------------------------- #
# structure of the executed graph
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("build", [resnet_tiny, bench_shaped_plan],
                         ids=["resnet_tiny", "bench_model"])
def test_no_float_pass_between_cim_layers(build, monkeypatch):
    plan, x = build()
    plan = plan.with_mode("int")
    nodes, _ = plan.graph()
    ops = [node.op for node in nodes]
    assert not {"batchnorm", "relu", "relu6", "add"} & set(ops)
    cims = [node for node in nodes if node.op == "cim"]
    assert len(cims) == plan.n_cim_layers
    for node in cims:
        lp = plan.layer_plans[node.plan_index]
        if lp.act_scale is None:
            assert node.attrs["fold"] is None        # the raw-input stem
        else:
            assert node.attrs["fold"].codes_in
    # and at run time: no layer with an input quantizer runs it
    calls = []
    for cls in (engine.ConvPlan, engine.LinearPlan):
        original = cls._quantize_acts_carrier

        def spy(self, a, _original=original):
            if self.act_scale is not None:
                calls.append(self)
            return _original(self, a)
        monkeypatch.setattr(cls, "_quantize_acts_carrier", spy)
    plan.execute(x)
    assert calls == []


def test_v2_artifact_loads_in_both_modes(tmp_path):
    plan, x = resnet_tiny()
    path = tmp_path / "model.npz"
    engine.save_model_plan(plan, path)
    ref = engine.load_plan(path).execute(x)
    out = engine.load_plan(path, mode="int").execute(x)
    np.testing.assert_array_equal(out.argmax(axis=1), ref.argmax(axis=1))


def test_legacy_output_grid_artifact_executes_identically(tmp_path):
    """v2 artifacts written with the old 24-fraction-bit output grid store
    ``s_out * 2**-24``, a shift smaller by 24 and a ``drift_bound`` key: the
    same accumulator unit, so both modes execute them identically."""
    plan, x = resnet_tiny()
    path = tmp_path / "model.npz"
    engine.save_model_plan(plan, path)
    with np.load(path) as archive:
        stored = {key: archive[key] for key in archive.files}
    manifest = json.loads(bytes(stored["__manifest__"]).decode("utf-8"))
    for index, meta in enumerate(manifest["layers"]):
        if meta["requant"] is None:
            continue
        meta["requant"]["shift"] -= 24
        meta["requant"]["drift_bound"] = 1e-6
        key = f"layer{index}.rq_s_out"
        stored[key] = np.ldexp(stored[key], -24)
    stored["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    legacy = tmp_path / "legacy.npz"
    np.savez(legacy, **stored)
    for mode in ("float", "int"):
        np.testing.assert_array_equal(
            engine.load_plan(legacy, mode=mode).execute(x),
            engine.load_plan(path, mode=mode).execute(x))


def test_fallback_boundaries_bit_exact():
    """Chains the fold does not own keep float boundaries, still exactly.

    ``conv -> bn -> add(., input)`` puts the graph input onto the grid; the
    ``relu`` after the add feeds a float pool too, so the add's value is
    dequantized for it, and the second conv, feeding a float pool, ends in
    a dequant while quantizing its own float input.
    """
    rng = np.random.default_rng(9)
    cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
    convs = []
    calib = np.abs(rng.normal(size=(4, 3, 6, 6)))
    for seed in (1, 2):
        layer = CIMConv2d(3, 3, 3, padding=1, scheme=_scheme(),
                          cim_config=cfg, rng=np.random.default_rng(seed))
        with no_grad():
            layer.eval()
            layer(Tensor(calib))
        convs.append(engine.compile_conv_plan(layer))
    graph = engine.GraphBuilder()
    c1 = graph.add_layer_plan(convs[0], [0], name="c1")
    bn = graph.add_op("batchnorm", [c1], name="bn", arrays={
        "mean": np.array([0.1, -0.2, 0.3]), "denom": np.array([1.5, 0.7, 2.0]),
        "gamma": np.array([1.0, -0.5, 0.0]), "beta": np.array([0.2, 0.1, 0.4])})
    add = graph.add_op("add", [bn, 0], name="add")
    relu = graph.add_op("relu", [add], name="relu")
    c2 = graph.add_layer_plan(convs[1], [relu], name="c2")
    pool_a = graph.add_op("global_avg_pool", [relu], name="pool_a")
    pool_b = graph.add_op("global_avg_pool", [c2], name="pool_b")
    out = graph.add_op("add", [pool_a, pool_b], name="out")
    plan = engine.ModelPlan(nodes=graph.nodes,
                            layer_plans=graph.layer_plans, output_id=out)
    x = np.abs(rng.normal(size=(2, 3, 6, 6)))
    ref = plan.execute(x)
    plan, _ = assert_route_matches_oracle(plan, x)
    ops = [node.op for node in plan.graph()[0]]
    assert {"quantize", "iadd", "dequant", "relu"} <= set(ops)
    np.testing.assert_allclose(plan.execute(x), ref, rtol=0, atol=1e-6)
