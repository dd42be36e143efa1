"""Frozen wrapper modules executing CIM layers through compiled plans.

A :class:`FrozenCIMConv2d` / :class:`FrozenCIMLinear` wraps the original QAT
layer (kept as a submodule, so its parameters, quantizer state, recorder and
variation model stay live) and routes ``forward`` through the layer's
compiled :mod:`~repro.engine.plan` whenever that is semantically safe.

The wrapper falls back to the seed (QAT) forward — bit for bit the original
code path — whenever the fast path cannot reproduce it:

* the module is in training mode (gradients / STE semantics required),
* gradient tracking is on and the input requires a gradient,
* a :class:`~repro.core.psum.PartialSumRecorder` is attached (the recorder
  must observe the raw ``(S, A, N, L, OC)`` partial sums; see
  :mod:`repro.core.psum` for the axis convention),
* an enabled :class:`~repro.cim.variation.VariationModel` is attached (a
  plan is a deterministic recipe; device variation perturbs the cells on
  every call, which the seed forward does with its own RNG draws),
* the layer's quantizers are not yet initialized (the fallback initializes
  them, after which the plan compiles automatically on the next call).

Plans recompile transparently when the layer's
:func:`~repro.engine.plan.layer_signature` changes, e.g. when a two-stage
trainer toggles partial-sum quantization.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled
from .plan import (compile_conv_plan, compile_linear_plan, layer_signature,
                   signature_ready)

__all__ = ["FrozenCIMConv2d", "FrozenCIMLinear"]


class _FrozenLayer(Module):
    """Common freeze-mode plumbing; see the module docstring for semantics."""

    _compile = None  # set by subclasses to the matching plan compiler

    def __init__(self, layer: Module):
        super().__init__()
        self.layer = layer
        self.training = layer.training
        self.plan = None
        if signature_ready(layer_signature(layer)):
            self.plan = type(self)._compile(layer)

    # ---------------------------------------------------------------- #
    def forward(self, x: Tensor) -> Tensor:
        layer = self.layer
        variation = layer.variation
        if (self.training or layer.training or layer.recorder is not None
                or (variation is not None and variation.enabled)
                or (is_grad_enabled() and isinstance(x, Tensor) and x.requires_grad)):
            return layer.forward(x)
        signature = layer_signature(layer)
        plan = self.plan
        if plan is None or plan.signature != signature:
            if not signature_ready(signature):
                # Seed path initializes the lazy LSQ scales; compile eagerly
                # once they have observed this batch.
                out = layer.forward(x)
                if signature_ready(layer_signature(layer)):
                    self.plan = type(self)._compile(layer)
                return out
            plan = self.plan = type(self)._compile(layer)
        return Tensor(plan.execute(x.data if isinstance(x, Tensor)
                                   else np.asarray(x)))

    def refresh(self) -> None:
        """Recompile the plan from the wrapped layer's current parameters."""
        self.plan = type(self)._compile(self.layer)

    # ---------------------------------------------------------------- #
    # delegation — the wrapper is a drop-in stand-in for the wrapped layer
    # ---------------------------------------------------------------- #
    def set_psum_quant_enabled(self, enabled: bool) -> None:
        """Toggle partial-sum quantization; the plan recompiles lazily."""
        self.layer.set_psum_quant_enabled(enabled)

    def set_variation(self, variation) -> None:
        """Attach (or remove) a device-variation model on the wrapped layer;
        while it is enabled, forwards fall back to the seed path."""
        self.layer.set_variation(variation)

    def attach_recorder(self, recorder, layer_name: str = "") -> None:
        """Attach a partial-sum recorder; forwards fall back to the seed path."""
        self.layer.attach_recorder(recorder, layer_name)

    @property
    def scheme(self):
        """Quantization scheme of the wrapped layer."""
        return self.layer.scheme

    @property
    def cim_config(self):
        """Crossbar macro description of the wrapped layer."""
        return self.layer.cim_config

    @property
    def mapping(self):
        """Crossbar mapping of the wrapped layer."""
        return self.layer.mapping

    @property
    def weight(self):
        """Weight parameter of the wrapped layer (frozen plans hold a copy)."""
        return self.layer.weight

    @property
    def bias(self):
        """Bias parameter of the wrapped layer, or ``None``."""
        return self.layer.bias

    @property
    def n_arrays(self) -> int:
        """Number of row-direction crossbar arrays of the wrapped layer."""
        return self.layer.n_arrays

    @property
    def n_splits(self) -> int:
        """Number of weight bit-splits of the wrapped layer."""
        return self.layer.n_splits

    def extra_repr(self) -> str:
        state = "compiled" if self.plan is not None else "pending-calibration"
        return f"{self.layer.extra_repr()}, plan={state}"


class FrozenCIMConv2d(_FrozenLayer):
    """Eval fast-path wrapper around :class:`~repro.core.cim_conv.CIMConv2d`."""

    _compile = staticmethod(compile_conv_plan)


class FrozenCIMLinear(_FrozenLayer):
    """Eval fast-path wrapper around :class:`~repro.core.cim_linear.CIMLinear`."""

    _compile = staticmethod(compile_linear_plan)
