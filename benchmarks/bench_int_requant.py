"""Engine — integer-requantized execution vs the float reference route.

``mode="int"`` replaces the float dequant of every frozen layer with
fixed-point arithmetic: the GEMMs run on an exact-integer ``float32``
carrier, the ADC stage on an exact ``float64`` carrier (bit-identical to
``int64`` multiplies and arithmetic shifts), and the bias fold and output
rounding in ``int64`` (see ``repro.core.requant``).
This benchmark pins the three contracts of that route on one model:

* **accuracy**: top-1 predictions agree on every sample, and nearly all
  samples stay within the plan's *declared* drift bound
  (``ModelPlan.int_drift_bound()``).  The bound is a per-layer statement;
  composing layers, a float activation that happens to land within the
  per-layer drift (~1e-7 of natural scale) of an activation-quantizer
  rounding boundary can flip one code, which then propagates at unit
  scale — so a rare tail sample may exceed the composed bound by orders
  of magnitude while the rest sit far inside it.  The *strict* bit-exact
  and drift-bound gates live on the fixture models in
  ``tests/engine/test_int_requant.py`` and ``tests/engine/test_golden.py``;
  here the gate is an honest one: full top-1 agreement plus a floor on
  the fraction of samples within the declared bound;
* **throughput**: at the default scale the integer route is at least 1.2x
  faster than the float reference on batched execution — the narrower GEMM
  carrier and the cache-blocked ADC passes beat the float path's
  float64 GEMMs + per-array dequant chain (``BENCH_int.json`` records
  the measured ratio);
* **memory**: the integer route's per-layer GEMM operands are roughly half
  the float route's (float32 vs float64 weight matrices); both footprints
  are recorded.

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
    """GEMM + rescale operand footprint of each route, summed over layers."""
    float_bytes = 0
    int_bytes = 0
    for layer in plan.layer_plans:
        if layer.psum_quant_enabled:
            float_bytes += sum(w.nbytes for w in layer.w_split_mats)
            float_bytes += layer.s_p_full.nbytes + layer.m_fold.nbytes
        else:
            float_bytes += layer.w_eff_valid.nbytes
        rq = layer.requant
        if rq is None:
            continue
        mats = (layer._w_split_int_mats if layer.psum_quant_enabled
                else layer._w_int_mats)
        int_bytes += sum(w.nbytes for w in mats)
        int_bytes += sum(arr.nbytes for arr in rq.arrays().values())
    return {"float_operand_bytes": int(float_bytes),
            "int_operand_bytes": int(int_bytes)}


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
    per_sample = np.abs(out - ref).max(axis=1)
    bound = float(plan.int_drift_bound())
    agreement = float((out.argmax(axis=1) == ref.argmax(axis=1)).mean())

    t_float = _time_mode(plan, "float", batches, cfg["repeats"])
    t_int = _time_mode(plan, "int", batches, cfg["repeats"])
    results = {
        "samples": cfg["samples"],
        "batch_size": cfg["batch"],
        "image": cfg["image"],
        "width_multiplier": cfg["width"],
        "max_abs_drift": float(per_sample.max()),
        "median_abs_drift": float(np.median(per_sample)),
        "declared_drift_bound": bound,
        "drift_within_bound_fraction": float((per_sample <= bound).mean()),
        "top1_agreement": agreement,
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
    print(f"drift max|diff|={results['max_abs_drift']:.3e} "
          f"median={results['median_abs_drift']:.3e} "
          f"(declared bound {results['declared_drift_bound']:.3e}, "
          f"{results['drift_within_bound_fraction']:.1%} of samples within)")
    print(f"top-1 agreement={results['top1_agreement']:.3f}")
    print(f"float : {results['float_s'] * 1e3:8.1f} ms  "
          f"{results['float_throughput']:8.1f} im/s")
    print(f"int   : {results['int_s'] * 1e3:8.1f} ms  "
          f"{results['int_throughput']:8.1f} im/s  "
          f"({results['speedup']:.2f}x)")
    print(f"operands: float {results['float_operand_bytes'] / 1024:.0f} KiB, "
          f"int {results['int_operand_bytes'] / 1024:.0f} KiB")


def test_int_requant_drift_and_throughput():
    """Acceptance: full top-1 agreement, nearly all samples within the
    declared drift bound (rare quantizer-boundary code flips cascade — see
    the module docstring), and >= 1.2x throughput at the default scale
    (tiny workloads are overhead-dominated, so the smoke pass only
    sanity-checks the ratio)."""
    results = run_int_requant()
    _report(results)
    write_artifact(results)
    assert results["drift_within_bound_fraction"] >= 0.9, (
        f"only {results['drift_within_bound_fraction']:.1%} of samples "
        f"within the declared drift bound "
        f"{results['declared_drift_bound']:.3e} (expected >= 90%)")
    assert results["top1_agreement"] == 1.0, (
        f"top-1 agreement {results['top1_agreement']:.3f} < 1.0")
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
