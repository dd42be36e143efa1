"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced,
CPU-friendly scale.  The environment variable ``REPRO_BENCH_SCALE`` selects
the scale:

* ``tiny``    — smoke scale, the whole suite finishes in ~2 minutes;
* ``small``   — default: meaningful (but still synthetic-data) training runs,
  the whole suite finishes in roughly 10-15 minutes on a few CPU cores;
* ``reduced`` — the larger CPU configuration from
  :func:`repro.training.reduced_experiment`;
* ``full``    — the paper's Table II settings (requires real datasets and
  GPU-scale compute; provided for completeness).
"""

import os
import sys

import pytest

# Make the benchmarks runnable without an installed package or an exported
# PYTHONPATH (``python -m pytest benchmarks/...`` from the repo root).
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.engine import cpu
from repro.training import reduced_experiment

# One BLAS thread per process, set through the engine's CPU policy: the
# benches time many small GEMMs, which multi-threaded OpenBLAS slows down on
# a small machine, and extra cores go to the runner's row chunks and the
# server's shards instead (``repro.engine.cpu``).  Setting the library's own
# count works after NumPy is imported, unlike ``OPENBLAS_NUM_THREADS``.
cpu.set_blas_threads(1)


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def experiment(name: str):
    """Benchmark-scale experiment configuration for one of the paper's datasets."""
    scale = bench_scale()
    if scale == "full":
        from repro.training import paper_experiment
        return paper_experiment(name)
    if scale == "reduced":
        return reduced_experiment(name, tiny=False)
    if scale == "tiny":
        return reduced_experiment(name, tiny=True)
    # "small": a middle ground sized for the default benchmark run
    base = reduced_experiment(name, tiny=False)
    return base.reduced(image_size=12, epochs=4, train_samples=256, test_samples=128,
                        batch_size=32, num_classes=min(base.num_classes, 10),
                        array_size=min(base.array_size, 64))


def bench_epochs(default_tiny: int, default_reduced: int) -> int:
    scale = bench_scale()
    if scale == "tiny":
        return default_tiny
    if scale == "small":
        return max(default_tiny, min(default_reduced, 4))
    return default_reduced


def strict_ordering() -> bool:
    """Whether accuracy-ordering claims are asserted (vs only reported).

    At the ``tiny`` / ``small`` scales the training budget is a few epochs on
    a few hundred synthetic images, so scheme-to-scheme accuracy differences
    are dominated by noise; the benchmarks print the ordering but only fail
    on it when a statistically meaningful scale is requested.
    """
    return bench_scale() in ("reduced", "full")


def check_ordering(condition: bool, message: str) -> None:
    """Assert ``condition`` at reduced/full scale; otherwise print the outcome."""
    if strict_ordering():
        assert condition, message
    elif not condition:
        print(f"[info] ordering not reproduced at scale={bench_scale()!r}: {message}")


@pytest.fixture(scope="session")
def cifar10_config():
    return experiment("cifar10")


@pytest.fixture(scope="session")
def cifar100_config():
    return experiment("cifar100")


@pytest.fixture(scope="session")
def imagenet_config():
    return experiment("imagenet")
