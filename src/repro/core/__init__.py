"""``repro.core`` — the paper's contribution.

CIM convolution / linear layers with column-wise weight and partial-sum
quantization, the quantization-scheme registry reproducing related work
(Table I), partial-sum observation, and FP-to-CIM model conversion.
"""

from .cim_conv import CIMConv2d
from .cim_linear import CIMLinear
from .convert import (apply_variation, attach_recorders, cim_layers, convert_to_cim,
                      model_mappings, model_overhead, scale_parameters,
                      set_psum_quant_enabled, weight_parameters)
from .pipeline import (CIMLayerBase, CIMPipeline, ConvAdapter, LayerGeometry,
                       LinearAdapter, varied_splits)
from .psum import ColumnStatistics, PartialSumRecorder
from .requant import RequantConstants, compile_requant, quantize_multipliers
from .schemes import (SCHEME_REGISTRY, SchemeInfo, all_granularity_combinations,
                      get_scheme, related_work_schemes, table1_rows)

__all__ = [
    "CIMConv2d", "CIMLinear",
    "CIMPipeline", "CIMLayerBase", "LayerGeometry",
    "ConvAdapter", "LinearAdapter", "varied_splits",
    "RequantConstants", "compile_requant", "quantize_multipliers",
    "PartialSumRecorder", "ColumnStatistics",
    "SCHEME_REGISTRY", "SchemeInfo", "get_scheme", "related_work_schemes",
    "all_granularity_combinations", "table1_rows",
    "convert_to_cim", "cim_layers", "set_psum_quant_enabled", "apply_variation",
    "attach_recorders", "model_mappings", "model_overhead", "scale_parameters",
    "weight_parameters",
]
