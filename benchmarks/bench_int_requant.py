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
  ``float64`` multipliers, the integer route's requant constants).

Run directly (``python benchmarks/bench_int_requant.py``) or through
pytest.  Either entry point writes a ``BENCH_int.json`` artifact (override
the location with ``REPRO_BENCH_INT_ARTIFACT``); ``tiny``-scale smoke runs
skip the write — and relax the speedup gate, which is only meaningful once
the GEMMs have real work — so `make bench-smoke` stays fast and never
clobbers the tracked default-scale numbers.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_artifacts import (bench_scale, calibrated_frozen_resnet8,
                             write_artifact as _write_artifact)

from repro import engine


def _settings():
    """Workload per benchmark scale (image/width/stream length/batch size)."""
    if bench_scale() == "tiny":
        return dict(image=10, width=0.25, samples=16, batch=8, repeats=2)
    return dict(image=16, width=1.0, samples=64, batch=32, repeats=3)


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

    Walks the graph of the plan's current mode node by node: the codes a
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


def _code_flip_rates(plan, batches) -> dict:
    """Per-layer share of input codes where the int and float routes differ."""
    flips, totals = {}, {}
    for batch in batches:
        plan.set_mode("float")
        ref = _layer_codes(plan, batch)
        plan.set_mode("int")
        got = _layer_codes(plan, batch)
        for index, codes in ref.items():
            flips[index] = flips.get(index, 0) + int(
                np.count_nonzero(got[index] != codes))
            totals[index] = totals.get(index, 0) + codes.size
    return {str(index): flips[index] / totals[index]
            for index in sorted(flips)}


def _build_plan(cfg):
    """The shared reference ResNet-8, frozen into a model plan."""
    model = calibrated_frozen_resnet8(cfg["image"], cfg["width"])
    return engine.compile_model_plan(model)


def _time_mode(plan, mode, batches, repeats: int) -> float:
    """Seconds to execute all batches in ``mode`` (best of ``repeats``)."""
    plan.set_mode(mode)
    plan.execute(batches[0])                 # warm up caches and lazy state
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for batch in batches:
            plan.execute(batch)
        best = min(best, time.perf_counter() - start)
    return best


def run_int_requant():
    """Measure float-vs-int execution on the reference serving model."""
    cfg = _settings()
    plan = _build_plan(cfg)
    rng = np.random.default_rng(1)
    stream = np.abs(rng.normal(
        size=(cfg["samples"], 3, cfg["image"], cfg["image"])))
    batches = [stream[i:i + cfg["batch"]]
               for i in range(0, cfg["samples"], cfg["batch"])]

    plan.set_mode("float")
    ref = np.concatenate([plan.execute(b) for b in batches])
    plan.set_mode("int")
    out = np.concatenate([plan.execute(b) for b in batches])
    agreement = float((out.argmax(axis=1) == ref.argmax(axis=1)).mean())
    flip_rates = _code_flip_rates(plan, batches)

    t_float = _time_mode(plan, "float", batches, cfg["repeats"])
    t_int = _time_mode(plan, "int", batches, cfg["repeats"])
    results = {
        "samples": cfg["samples"],
        "batch_size": cfg["batch"],
        "image": cfg["image"],
        "width_multiplier": cfg["width"],
        "top1_agreement": agreement,
        "code_flip_rate": flip_rates,
        "max_code_flip_rate": max(flip_rates.values()),
        "max_abs_logit_diff": float(np.abs(out - ref).max()),
        "float_s": t_float,
        "int_s": t_int,
        "float_throughput": cfg["samples"] / t_float,
        "int_throughput": cfg["samples"] / t_int,
        "speedup": t_float / t_int,
    }
    results.update(_operand_bytes(plan))
    return results


def write_artifact(results, path=None):
    """Write the results to ``BENCH_int.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_INT_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("int_requant", "BENCH_int.json",
                           "REPRO_BENCH_INT_ARTIFACT", results, path=path)


def _report(results) -> None:
    print()
    print(f"samples={results['samples']}  batch={results['batch_size']}  "
          f"image={results['image']}  width={results['width_multiplier']}")
    print(f"top-1 agreement={results['top1_agreement']:.3f}  "
          f"max code-flip rate={results['max_code_flip_rate']:.2e}  "
          f"max |logit diff|={results['max_abs_logit_diff']:.2e}")
    print("code-flip rate per layer: " + "  ".join(
        f"{index}:{rate:.1e}" for index, rate in
        results["code_flip_rate"].items()))
    print(f"float : {results['float_s'] * 1e3:8.1f} ms  "
          f"{results['float_throughput']:8.1f} im/s")
    print(f"int   : {results['int_s'] * 1e3:8.1f} ms  "
          f"{results['int_throughput']:8.1f} im/s  "
          f"({results['speedup']:.2f}x)")
    print(f"operands: GEMM {results['gemm_operand_bytes'] / 1024:.0f} KiB "
          f"shared; rescale float "
          f"{results['float_rescale_bytes'] / 1024:.0f} KiB, "
          f"int {results['int_rescale_bytes'] / 1024:.0f} KiB")


def test_int_requant_agreement_and_throughput():
    """Acceptance: full top-1 agreement, every layer's code-flip rate
    against the float route at most ``MAX_CODE_FLIP_RATE``, and >= 1.2x
    throughput at the default scale (tiny workloads are overhead-dominated,
    so the smoke pass only sanity-checks the ratio)."""
    results = run_int_requant()
    _report(results)
    write_artifact(results)
    assert results["top1_agreement"] == 1.0, (
        f"top-1 agreement {results['top1_agreement']:.3f} < 1.0")
    assert results["max_code_flip_rate"] <= MAX_CODE_FLIP_RATE, (
        f"a layer's codes differ from the float route's on "
        f"{results['max_code_flip_rate']:.2e} of its inputs (expected <= "
        f"{MAX_CODE_FLIP_RATE:.0e})")
    floor = 1.2 if bench_scale() != "tiny" else 0.5
    assert results["speedup"] >= floor, (
        f"int route only {results['speedup']:.2f}x the float route "
        f"(expected >= {floor}x at scale {bench_scale()!r})")


if __name__ == "__main__":
    _results = run_int_requant()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
