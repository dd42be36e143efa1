"""Engine — frozen-inference throughput vs. the seed QAT forward.

The frozen engine (``repro.engine``) compiles each CIM layer into a static
plan (cached integer tiled weights, bit-splits, folded dequant scales) and
runs eval batches through a fused NumPy fast path.  This benchmark measures
eval-batch throughput of a ResNet basic block — the paper's workhorse
topology — in both partial-sum-quantization modes and checks:

* **speedup**: the frozen forward is at least 3x faster than the seed
  forward (about 10-11x in ``BENCH_engine.json`` with partial-sum
  quantization on and off);
* **equivalence**: frozen and seed outputs agree to <= 1e-10 max abs diff,
  including with partial-sum quantization enabled.

Run directly (``python benchmarks/bench_engine_speedup.py``) or through
pytest (``pytest benchmarks/bench_engine_speedup.py``).  Either entry point
writes a ``BENCH_engine.json`` artifact (override the location with
``REPRO_BENCH_ARTIFACT``) so the engine's perf trajectory can be tracked
across changes; ``tiny``-scale smoke runs skip the write, keeping the
tracked artifact at comparable default-scale numbers.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_artifacts import bench_scale, write_artifact as _write_artifact

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models.blocks import BasicBlock, LayerFactory
from repro.nn import Tensor


def _settings():
    """Block geometry per benchmark scale (channels, image, batch, timing reps)."""
    if bench_scale() == "tiny":
        return dict(channels=16, image=12, batch=4, repeats=3, iters=2)
    return dict(channels=16, image=16, batch=8, repeats=5, iters=3)


def _time(fn, repeats: int, iters: int) -> float:
    """Best-of-``repeats`` average seconds per call (robust to scheduler noise)."""
    fn()  # warm up caches and lazy state
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def _build_block(quantize_psum: bool, channels: int) -> BasicBlock:
    scheme = QuantScheme(quantize_psum=quantize_psum)
    cfg = CIMConfig(array_rows=128, array_cols=128, cell_bits=1)
    factory = LayerFactory(scheme=scheme, cim_config=cfg, quantize_first_act=True,
                           rng=np.random.default_rng(0))
    return BasicBlock(factory, channels, channels)


def run_engine_speedup():
    """Measure seed vs frozen throughput on a ResNet basic block."""
    cfg = _settings()
    x = Tensor(np.abs(np.random.default_rng(1).normal(
        size=(cfg["batch"], cfg["channels"], cfg["image"], cfg["image"]))))
    results = {}
    for quantize_psum in (True, False):
        block = _build_block(quantize_psum, cfg["channels"])
        block.eval()
        reference = block(x).data.copy()
        t_seed = _time(lambda: block(x), cfg["repeats"], cfg["iters"])
        engine.freeze(block)
        frozen_out = block(x).data
        t_frozen = _time(lambda: block(x), cfg["repeats"], cfg["iters"])
        samples = cfg["batch"]
        results["psum_on" if quantize_psum else "psum_off"] = {
            "seed_ms": t_seed * 1e3,
            "frozen_ms": t_frozen * 1e3,
            "seed_throughput": samples / t_seed,
            "frozen_throughput": samples / t_frozen,
            "speedup": t_seed / t_frozen,
            "max_abs_diff": float(np.abs(frozen_out - reference).max()),
        }
    return results


def write_artifact(results, path=None):
    """Write the results to ``BENCH_engine.json`` (see ``bench_artifacts``).

    Skipped at the ``tiny`` smoke scale; override the location with
    ``REPRO_BENCH_ARTIFACT`` or the ``path`` argument.
    """
    return _write_artifact("engine_speedup", "BENCH_engine.json",
                           "REPRO_BENCH_ARTIFACT", results, path=path)


def _report(results) -> None:
    print()
    header = f"{'mode':10} {'seed ms':>9} {'frozen ms':>10} {'speedup':>8} {'im/s seed':>10} {'im/s frozen':>12} {'max|diff|':>10}"
    print(header)
    print("-" * len(header))
    for mode, row in results.items():
        print(f"{mode:10} {row['seed_ms']:9.2f} {row['frozen_ms']:10.2f} "
              f"{row['speedup']:7.2f}x {row['seed_throughput']:10.1f} "
              f"{row['frozen_throughput']:12.1f} {row['max_abs_diff']:10.2e}")


def test_engine_speedup_and_equivalence():
    """Frozen engine: >= 3x eval throughput, <= 1e-10 output drift.

    The equivalence bound is deterministic and always enforced.  The timing
    gate is relaxed at the ``tiny`` smoke scale (2-3 iterations on a possibly
    contended CPU make a hard 3x threshold flaky); the full >= 3x contract is
    asserted at the default scale (about 10-11x in ``BENCH_engine.json``).
    """
    results = run_engine_speedup()
    _report(results)
    write_artifact(results)
    for mode, row in results.items():
        assert row["max_abs_diff"] <= 1e-10, (
            f"{mode}: frozen output drifted by {row['max_abs_diff']:.2e}")
    min_speedup = 1.5 if bench_scale() == "tiny" else 3.0
    assert results["psum_on"]["speedup"] >= min_speedup, (
        f"frozen engine only {results['psum_on']['speedup']:.2f}x faster with "
        f"partial-sum quantization enabled (expected >= {min_speedup}x)")
    assert results["psum_off"]["speedup"] >= min_speedup, (
        f"frozen engine only {results['psum_off']['speedup']:.2f}x faster on "
        f"the fused (psum-quant-off) path (expected >= {min_speedup}x)")


if __name__ == "__main__":
    _results = run_engine_speedup()
    _report(_results)
    _path = write_artifact(_results)
    if _path:
        print(f"\nartifact: {_path}")
