"""Engine — integer-requantized execution vs the float reference route.

``mode="int"`` runs the folded integer graph (``repro.engine.intfold``):
the GEMMs, the ADC stage and (where certified) the reduce run on exact
``float32`` carriers, and each layer's epilogue folds its BatchNorm,
ReLU and the next layer's activation quantizer into a per-channel requant,
so integer codes flow from layer to layer (see ``repro.core.requant``).
The route is defined in plain integers and held bit for bit to a
pure-Python oracle in ``tests/engine/test_int_oracle.py``; this benchmark
*measures* how far it sits from the float route and how fast it runs:

* **agreement**: top-1 predictions agree on every sample, and the
  per-layer code-flip rate — the share of each CIM layer's input
  activation codes that differ from the codes the float route's quantizer
  produces for that layer — stays tiny (a flip happens only where a float
  activation lies within the integer route's ~``2**-28`` resolution of a
  quantizer rounding boundary, and then propagates);
* **throughput**: at the default scale the integer route is at least 1.2x
  faster than the float reference on batched execution — both routes run
  their GEMMs against the same ``float32`` operands, and the integer route's
  ``float32`` ADC and reduce and its folded epilogues beat the float
  path's ``float64`` ADC and per-array dequant chain and its float
  BatchNorm/ReLU/quantize passes (``BENCH_int.json`` records the measured
  ratio);
* **memory**: the per-layer GEMM operands both routes share are recorded
  once, plus each route's own rescale operands (the float route's
  ``float64`` multipliers, the integer route's requant constants);
* **cold start**: ``engine.load_plan`` of the saved model, float and int,
  timed against each other (a float load builds none of the integer
  route's own operands; an int load also folds the integer graph).

Run directly (``python benchmarks/bench_int_requant.py``) or through
pytest; either entry point writes ``BENCH_int.json`` through ``perf.main``
(not at the ``tiny`` scale, which also relaxes the speedup gate: it is
only meaningful once the GEMMs have real work).
"""

import os
import tempfile

import numpy as np

import perf
from repro import engine


def _settings():
    """Workload per benchmark scale (image/width/stream length/batch size)."""
    if perf.bench_scale() == "tiny":
        return dict(image=10, width=0.25, samples=16, batch=8)
    return dict(image=16, width=1.0, samples=64, batch=32)


def _operand_bytes(plan) -> dict:
    """Shared GEMM operand footprint, and each route's rescale operands,
    summed over layers."""
    gemm_bytes = float_bytes = int_bytes = 0
    for layer in plan.layer_plans:
        gemm_bytes += sum(w.nbytes for w in layer.mats)
        float_bytes += layer.m_fold.nbytes
        if layer.s_p_full is not None:
            float_bytes += layer.s_p_full.nbytes
        if layer.requant is not None:
            int_bytes += sum(arr.nbytes
                             for arr in layer.requant.arrays().values())
    return {"gemm_operand_bytes": int(gemm_bytes),
            "float_rescale_bytes": int(float_bytes),
            "int_rescale_bytes": int(int_bytes)}


#: Largest tolerated per-layer code-flip rate against the float route.
MAX_CODE_FLIP_RATE = 1e-3


def _layer_codes(plan, x) -> dict:
    """Input activation codes of every quantized CIM layer, by layer index.

    Walks the graph of the plan's mode node by node: the codes a
    folded layer receives, or the ones its own quantizer makes from a float
    input.
    """
    nodes, _ = plan.graph()
    values = {0: np.asarray(x, dtype=np.float64)}
    codes = {}
    for node in nodes[1:]:
        args = [values[i] for i in node.inputs]
        if node.op == "cim":
            layer = plan.layer_plans[node.plan_index]
            fold = node.attrs.get("fold")
            if fold is not None and fold.codes_in:
                codes[node.plan_index] = np.asarray(args[0], np.float64)
            elif layer.act_scale is not None:
                # a scratch buffer: copied before the layer reuses it
                codes[node.plan_index] = layer._quantize_acts_carrier(
                    np.asarray(args[0], dtype=np.float64)).astype(np.float64)
        values[node.id] = plan._run_node(node, values)
    return codes


def _code_flip_rates(plans, batches) -> dict:
    """Per-layer share of input codes where the int and float routes differ
    (``plans`` maps each mode to its plan)."""
    flips, totals = {}, {}
    for batch in batches:
        ref = _layer_codes(plans["float"], batch)
        got = _layer_codes(plans["int"], batch)
        for index, codes in ref.items():
            flips[index] = flips.get(index, 0) + int(
                np.count_nonzero(got[index] != codes))
            totals[index] = totals.get(index, 0) + codes.size
    return {str(index): flips[index] / totals[index]
            for index in sorted(flips)}


def _cold_start(plan) -> dict:
    """``load_plan`` of ``plan``'s saved archive on each route, timed
    through :func:`perf.rotate`, plus the archive's size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model_plan.npz")
        engine.save_model_plan(plan, path)

        def load(mode):
            def run():
                engine.load_plan(path, mode=mode)
            return run

        timing, _ = perf.rotate({"float": load("float"), "int": load("int")})
        return {"archive_bytes": os.path.getsize(path), **timing}


def run_int_requant():
    """Float vs int route on the reference serving model."""
    cfg = _settings()
    plan = engine.compile_model_plan(
        perf.calibrated_frozen_resnet8(cfg["image"], cfg["width"]))
    plans = {mode: plan.with_mode(mode) for mode in ("float", "int")}
    stream = np.abs(np.random.default_rng(perf.SEED).normal(
        size=(cfg["samples"], 3, cfg["image"], cfg["image"])))
    batches = [stream[i:i + cfg["batch"]]
               for i in range(0, cfg["samples"], cfg["batch"])]

    def route(mode):
        def execute_all():
            return np.concatenate([plans[mode].execute(b) for b in batches])
        return execute_all

    timing, returns = perf.rotate({"float": route("float"),
                                   "int": route("int")})
    ref, out = returns["float"][-1], returns["int"][-1]
    flip_rates = _code_flip_rates(plans, batches)
    results = {
        "samples": cfg["samples"],
        "batch_size": cfg["batch"],
        "image": cfg["image"],
        "width_multiplier": cfg["width"],
        "top1_agreement": float((out.argmax(axis=1)
                                 == ref.argmax(axis=1)).mean()),
        "code_flip_rate": flip_rates,
        "max_code_flip_rate": max(flip_rates.values()),
        "max_abs_logit_diff": float(np.abs(out - ref).max()),
        **timing,
        "speedup": timing["float"]["median_s"] / timing["int"]["median_s"],
    }
    results.update(_operand_bytes(plan))
    results["load"] = _cold_start(plan)
    return results


def test_int_requant_agreement_and_throughput():
    """Acceptance: full top-1 agreement, every layer's code-flip rate
    against the float route at most ``MAX_CODE_FLIP_RATE``, and >= 1.2x
    throughput at the default scale (tiny workloads are overhead-dominated,
    so the smoke pass only sanity-checks the ratio)."""
    results = perf.main("int", run_int_requant)
    assert results["top1_agreement"] == 1.0, (
        f"top-1 agreement {results['top1_agreement']:.3f} < 1.0")
    assert results["max_code_flip_rate"] <= MAX_CODE_FLIP_RATE, (
        f"a layer's codes differ from the float route's on "
        f"{results['max_code_flip_rate']:.2e} of its inputs (expected <= "
        f"{MAX_CODE_FLIP_RATE:.0e})")
    floor = 1.2 if perf.bench_scale() != "tiny" else 0.5
    assert results["speedup"] >= floor, (
        f"int route only {results['speedup']:.2f}x the float route "
        f"(expected >= {floor}x at scale {perf.bench_scale()!r})")


if __name__ == "__main__":
    test_int_requant_agreement_and_throughput()
