"""Generate the golden-artifact regression fixtures of ``tests/engine/``.

Each fixture is one compressed ``.npz`` under ``tests/engine/fixtures/``
with three entries:

* ``artifact`` — the raw bytes (``uint8``) of a ``save_model_plan``
  artifact, exactly as it would sit on disk (the layer cases are one-node
  model plans built with ``GraphBuilder.add_layer_plan``);
* ``input``   — a small float64 activation batch;
* ``golden``  — the artifact's output on that batch, recorded at fixture
  generation time.

``tests/engine/test_golden.py`` reloads each artifact through
``engine.load_plan`` and asserts **bit-exact** equality against ``golden``,
which pins two contracts at once across future PRs: the on-disk artifact
format stays loadable, and the execution math stays numerically identical.

The float cases cover the artifact surface: a quantized-psum ``ConvPlan``, a
``LinearPlan`` (each as a one-node model plan), and a whole-model
``ModelPlan`` of a reduced ResNet-8
(residual adds, folded BatchNorm, pooling — every graph op kind).  Each has
an ``*_int`` twin built from the *same seeded layers* whose golden output is
recorded on the integer-requantized route (``mode="int"``), pinning the
fixed-point math bit-for-bit as well.

Everything is seeded; rerun ``python tools/make_golden_fixtures.py`` only
when the artifact format version changes **intentionally** (bump the plan
format/version, regenerate, and say so in the PR — a diff in these files is
an artifact-format break, not noise).  Pass case names to regenerate a
subset, e.g. ``python tools/make_golden_fixtures.py conv_int linear_int`` —
the committed float fixtures carry layer payloads saved before requant
constants existed (``resnet_tiny`` is a version-1 manifest), double as the
compatibility proof and must not be rewritten by a version-2 engine.
"""

from __future__ import annotations

import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro import engine                                   # noqa: E402
from repro.cim import CIMConfig, QuantScheme               # noqa: E402
from repro.core import CIMConv2d, CIMLinear                # noqa: E402
from repro.models import resnet8                           # noqa: E402
from repro.nn import Tensor                                # noqa: E402
from repro.nn.tensor import no_grad                        # noqa: E402

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "tests", "engine", "fixtures")

SCHEME = QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                     weight_granularity="column", psum_granularity="column")
CIM = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)


def _artifact_bytes(plan) -> np.ndarray:
    """Serialized artifact as a ``uint8`` array (via an in-memory buffer)."""
    buffer = io.BytesIO()
    engine.save_model_plan(plan, buffer)
    return np.frombuffer(buffer.getvalue(), dtype=np.uint8)


def _one_node(layer_plan) -> engine.ModelPlan:
    """A compiled layer plan wrapped as a one-node model plan."""
    builder = engine.GraphBuilder()
    output_id = builder.add_layer_plan(layer_plan, [builder.input_id])
    return engine.ModelPlan(nodes=builder.nodes,
                            layer_plans=builder.layer_plans,
                            output_id=output_id, name=layer_plan.layer_type)


def _build_conv():
    """One-node plan of a calibrated quantized-psum CIMConv2d, plus a batch."""
    rng = np.random.default_rng(11)
    layer = CIMConv2d(3, 4, 3, stride=1, padding=1, bias=True,
                      scheme=SCHEME, cim_config=CIM,
                      rng=np.random.default_rng(0))
    calib = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        layer.eval()
        layer(Tensor(calib))                 # initialize the LSQ scales
    x = np.abs(rng.normal(size=(3, 3, 8, 8)))
    return _one_node(engine.compile_conv_plan(layer)), x


def _build_linear():
    """One-node plan of one calibrated CIMLinear, plus a batch."""
    rng = np.random.default_rng(13)
    layer = CIMLinear(24, 5, bias=True, scheme=SCHEME, cim_config=CIM,
                      rng=np.random.default_rng(1))
    calib = np.abs(rng.normal(size=(6, 24)))
    with no_grad():
        layer.eval()
        layer(Tensor(calib))
    x = np.abs(rng.normal(size=(4, 24)))
    return _one_node(engine.compile_linear_plan(layer)), x


def _build_resnet_tiny():
    """ModelPlan of a width-0.25 ResNet-8 (all graph op kinds)."""
    rng = np.random.default_rng(17)
    model = resnet8(num_classes=4, scheme=SCHEME, cim_config=CIM,
                    width_multiplier=0.25, seed=3)
    calib = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        model(Tensor(calib))                 # move BN stats off their init
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=calib)
    x = np.abs(rng.normal(size=(3, 3, 8, 8)))
    return plan, x


def _float_case(build):
    plan, x = build()
    return _artifact_bytes(plan), x, plan.execute(x)


def _int_case(build):
    plan, x = build()
    artifact = _artifact_bytes(plan)         # the mode is not stored on disk
    plan = plan.with_mode("int")
    return artifact, x, plan.execute(x)


def make_conv():
    return _float_case(_build_conv)


def make_linear():
    return _float_case(_build_linear)


def make_resnet_tiny():
    return _float_case(_build_resnet_tiny)


def make_conv_int():
    return _int_case(_build_conv)


def make_linear_int():
    return _int_case(_build_linear)


def make_resnet_tiny_int():
    return _int_case(_build_resnet_tiny)


CASES = {
    "conv": make_conv,
    "linear": make_linear,
    "resnet_tiny": make_resnet_tiny,
    "conv_int": make_conv_int,
    "linear_int": make_linear_int,
    "resnet_tiny_int": make_resnet_tiny_int,
}


def main(argv=None) -> None:
    names = argv if argv else list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise SystemExit(f"unknown fixture case(s) {unknown}; "
                         f"choose from {sorted(CASES)}")
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for name in names:
        artifact, x, golden = CASES[name]()
        assert x.dtype == np.float64 and golden.dtype == np.float64
        path = os.path.join(FIXTURE_DIR, f"{name}.npz")
        np.savez_compressed(path, artifact=artifact, input=x, golden=golden)
        print(f"{path}: artifact={artifact.nbytes // 1024}KiB "
              f"input={x.shape} golden={golden.shape}")


if __name__ == "__main__":
    main(sys.argv[1:])
