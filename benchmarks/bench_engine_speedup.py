"""Engine — frozen-inference throughput vs. the seed QAT forward.

The frozen engine (``repro.engine``) compiles each CIM layer into a static
plan (cached integer tiled weights, bit-splits, folded dequant scales) and
runs eval batches through a fused NumPy fast path.  This benchmark measures
eval-batch throughput of a ResNet basic block — the paper's workhorse
topology — in both partial-sum-quantization modes and checks:

* **speedup**: the frozen forward is at least 3x faster than the seed
  forward (the ratio of the two sides' medians; ``BENCH_engine.json``
  records it with each side's IQR);
* **equivalence**: frozen and seed outputs agree to <= 1e-10 max abs diff,
  including with partial-sum quantization enabled.

Run directly (``python benchmarks/bench_engine_speedup.py``) or through
pytest; either entry point writes ``BENCH_engine.json`` through
``perf.main`` (not at the ``tiny`` scale).
"""

import numpy as np

import perf
from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models.blocks import BasicBlock, LayerFactory
from repro.nn import Tensor


def _settings():
    """Block geometry per benchmark scale (channels, image, batch)."""
    if perf.bench_scale() == "tiny":
        return dict(channels=16, image=12, batch=4)
    return dict(channels=16, image=16, batch=8)


def _build_block(quantize_psum: bool, channels: int) -> BasicBlock:
    scheme = QuantScheme(quantize_psum=quantize_psum)
    cfg = CIMConfig(array_rows=128, array_cols=128, cell_bits=1)
    factory = LayerFactory(scheme=scheme, cim_config=cfg, quantize_first_act=True,
                           rng=np.random.default_rng(0))
    return BasicBlock(factory, channels, channels)


def run_engine_speedup():
    """Seed vs frozen forward time of a ResNet basic block, per psum mode."""
    cfg = _settings()
    x = Tensor(np.abs(np.random.default_rng(perf.SEED).normal(
        size=(cfg["batch"], cfg["channels"], cfg["image"], cfg["image"]))))
    results = {}
    for quantize_psum in (True, False):
        # two identical blocks, so both sides exist for the rotating trials
        seed_block, frozen_block = (_build_block(quantize_psum, cfg["channels"])
                                    for _ in range(2))
        for block in (seed_block, frozen_block):
            block.eval()
            block(x)                        # initialize the lazy LSQ scales
        engine.freeze(frozen_block)
        timing, _ = perf.rotate({"seed": lambda: seed_block(x),
                                 "frozen": lambda: frozen_block(x)})
        results["psum_on" if quantize_psum else "psum_off"] = {
            "batch": cfg["batch"],
            **timing,
            "speedup": timing["seed"]["median_s"]
            / timing["frozen"]["median_s"],
            "max_abs_diff": float(np.abs(frozen_block(x).data
                                         - seed_block(x).data).max()),
        }
    return results


def test_engine_speedup_and_equivalence():
    """Frozen engine: >= 3x eval throughput, <= 1e-10 output drift.

    The equivalence bound is deterministic and always enforced.  The timing
    gate is relaxed to 1.5x at the ``tiny`` smoke scale, where a few trials
    on a possibly contended CPU make a hard 3x threshold flaky.
    """
    results = perf.main("engine", run_engine_speedup)
    for mode, row in results.items():
        assert row["max_abs_diff"] <= 1e-10, (
            f"{mode}: frozen output drifted by {row['max_abs_diff']:.2e}")
    min_speedup = 1.5 if perf.bench_scale() == "tiny" else 3.0
    for mode, row in results.items():
        assert row["speedup"] >= min_speedup, (
            f"{mode}: frozen engine only {row['speedup']:.2f}x faster than "
            f"the seed forward (expected >= {min_speedup}x)")


if __name__ == "__main__":
    test_engine_speedup_and_equivalence()
