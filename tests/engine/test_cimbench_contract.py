"""The engine surface the benchmark under ``cimbench/`` reads, pinned.

``cimbench/spans.py``'s :class:`Tracer` wraps engine callables by name and
reads plan fields (``mapping``, ``psum_quant_enabled``) to cost each CIM
layer call; ``cimbench/offline.py`` and ``cimbench/http_server.py`` read a
few gauges and shims besides.  A rename or deletion on the engine side
does not fail the benchmark: its per-layer figures just go missing.  This
test runs both workloads' paths in miniature under the benchmark's own
tracer -- a tiny saved ResNet-8, loaded and mounted in the set-up phase,
then one runner batch on the integer route and one HTTP predict in the
timed phase -- and requires every figure the benchmark reports as on-path.
"""

import os
import sys

import numpy as np
import pytest

from netutil import predict

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models import resnet8
from repro.nn import Tensor
from repro.nn.tensor import no_grad

CIMBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, os.pardir, "cimbench")


@pytest.fixture(scope="module")
def bench():
    """cimbench's ``spans`` and ``http_server`` modules (they import their
    sibling ``common`` as a top-level module), imported without writing
    bytecode into the benchmark's directory."""
    sys.path.insert(0, os.path.abspath(CIMBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import http_server
        import spans
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = write_bytecode
    return spans, http_server


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A tiny calibrated ResNet-8 saved as a model plan, plus a batch."""
    rng = np.random.default_rng(3)
    model = resnet8(num_classes=4,
                    scheme=QuantScheme(weight_bits=3, act_bits=3,
                                       psum_bits=3),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=3),
                    width_multiplier=0.25, seed=1)
    x = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    path = tmp_path_factory.mktemp("cimbench") / "resnet8.npz"
    engine.save_model_plan(engine.compile_model_plan(model, calibrate=x),
                           path)
    return str(path), x


def test_traced_paths_report_every_on_path_metric(bench, artifact):
    spans, http_server = bench
    path, x = artifact
    tracer = spans.Tracer()
    tracer.install()
    try:
        plan = engine.load_plan(path, mode="int")
        runner = engine.InferenceRunner(plan, batch_size=len(x))
        runner.predict(x)                       # the first batch after load
        with engine.NetServer() as net:
            net.add_model(http_server.MODEL_NAME, path)
            tracer.phase = "timed"
            runner.predict(x)
            status, _, _ = predict(net, http_server.MODEL_NAME,
                                   x[:2].tolist())
            assert status == 200
            tracer.uninstall()
            served = http_server._model_metrics(net)
    finally:
        tracer.uninstall()
    summary = tracer.summary()

    n_layers = len(plan.layer_plans)
    assert n_layers == 10       # stem, 3 blocks of 2, 2 shortcuts, classifier
    layer_metrics = [f"plan.layer{i}.ms_per_batch" for i in range(n_layers)]
    assert "plan.layerx.ms_per_batch" not in summary
    expected = layer_metrics + [
        "executor.self_ms_per_batch", "plan.cim_ms_per_batch",
        "plan.mac_per_s", "plan.adc_conv_per_s",
        "model_plan.load_ms", "runner.self_ms_per_batch",
        "runner.first_batch_ms",
        "server.pool_start_ms", "server.submit_ms", "wire.decode_ms",
        "wire.encode_ms", "netserver.handler_self_ms"]
    missing = [name for name in expected if name not in summary]
    assert not missing, f"metrics missing from the traced summary: {missing}"
    for name in expected:
        assert summary[name] > 0, name

    # the shims and gauges the benchmark reads outside the tracer
    assert engine.clear_plan_cache() is None
    assert served["timeout_flushes"] == 0
    assert served["batches"] >= 1 and served["offered"] == 1
    assert served["arena_bytes"] == 0
    assert runner.stats.arena_bytes == 0
