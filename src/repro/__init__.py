"""Reproduction of "Column-wise Quantization of Weights and Partial Sums for
Accurate and Efficient Compute-In-Memory Accelerators" (DATE 2025).

Sub-packages
------------
``repro.nn``
    NumPy autograd / neural-network substrate (stands in for PyTorch).
``repro.quant``
    Granularity-aware quantizers: LSQ with learnable per-column scales,
    PTQ observers, weight bit-splitting.
``repro.cim``
    Behavioural compute-in-memory crossbar model: array tiling, ADC/DAC,
    device variation, dequantization-overhead cost model.
``repro.core``
    The paper's contribution: CIM convolution / linear layers with
    column-wise weight and partial-sum quantization, and the quantization
    scheme registry reproducing related work.
``repro.engine``
    Frozen inference engine: compiled per-layer plans and the
    ``freeze`` / ``thaw`` eval fast path.
``repro.models``
    ResNet-20 / ResNet-18 and reduced variants.
``repro.data``
    Synthetic CIFAR-like / ImageNet-like datasets and loaders.
``repro.training``
    One-stage and two-stage QAT trainers, PTQ calibration, metrics.
``repro.analysis``
    Experiment drivers reproducing every table and figure of the paper.

Importing ``repro`` imports none of them: ``from repro import engine`` (or
``import repro.engine``) loads that sub-package and what it needs, so an
inference process never loads the training, data or analysis code.
"""

__version__ = "1.0.0"

__all__ = ["nn", "quant", "cim", "core", "engine", "models", "data", "training",
           "analysis", "__version__"]
