"""Quickstart: train a CIM-quantized CNN with column-wise weight and
partial-sum quantization (the paper's scheme) on a synthetic CIFAR-10-like
task, compare it against the full-precision baseline, and then deploy it
through the frozen inference engine — ending with a saved model-level
artifact reloaded and served without any QAT objects.

Every CIM layer runs the shared staged execution pipeline
(``repro.core.pipeline``): activation LSQ -> tiled weight LSQ -> bit-split ->
per-array MAC -> ADC partial-sum quant -> folded dequant/shift-add.
``engine.freeze`` compiles deployment plans from that same stage list, so the
frozen model is numerically identical to the QAT forward — just faster.
``engine.compile_model_plan`` then captures the whole frozen network (layer
plans + folded BatchNorm + the inter-layer op graph) into one ``.npz`` that
``engine.load_plan`` turns back into a runnable executor (see
docs/engine.md).

Run:
    python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro import engine
from repro.analysis import print_table
from repro.cim import CIMConfig, QuantScheme
from repro.core import cim_layers
from repro.data import standard_augmentation, synthetic_cifar10, test_loader, train_loader
from repro.models import resnet8
from repro.nn import Tensor
from repro.training import QATTrainer, TrainerConfig, evaluate


def main() -> None:
    # 1. data: a synthetic CIFAR-10 stand-in (offline substitute, see DESIGN.md)
    dataset = synthetic_cifar10(image_size=16, train_samples=512, test_samples=256)
    train = train_loader(dataset, batch_size=32, transform=standard_augmentation())
    test = test_loader(dataset, batch_size=64)

    # 2. hardware: a 64x64 crossbar with 1-bit cells and 3-bit ADCs
    cim = CIMConfig(array_rows=64, array_cols=64, cell_bits=1, adc_bits=3)

    # 3. the paper's quantization scheme: column-wise weights AND partial sums,
    #    learnable LSQ scales, single-stage QAT from scratch
    ours = QuantScheme(name="ours", weight_bits=3, act_bits=3, psum_bits=3,
                       weight_granularity="column", psum_granularity="column")

    results = []
    for label, scheme in [("full-precision", None), ("ours (column/column)", ours)]:
        model = resnet8(num_classes=10, scheme=scheme, cim_config=cim,
                        width_multiplier=0.5, seed=0)
        trainer = QATTrainer(model, train, test,
                             TrainerConfig(epochs=5, lr=0.05, log_every=1))
        print(f"\n=== training {label} ===")
        history = trainer.fit()
        stats = evaluate(model, test)
        results.append({
            "model": label,
            "params": model.num_parameters(),
            "best_test_top1": round(history.best_test_accuracy, 4),
            "final_test_top1": round(stats["top1"], 4),
            "train_seconds": round(history.total_seconds, 1),
        })

    # 4. deployment: freeze the trained CIM model.  Each layer's staged
    #    pipeline is compiled into a static plan (integer weights, bit-splits,
    #    folded dequant scales) and eval batches take the fused fast path.
    print("\n=== freezing the CIM model for deployment ===")
    engine.freeze(model)
    for name, layer in cim_layers(model):
        print(f"  {name}: stages "
              f"{[stage.name for stage in layer.pipeline.stages]}")
        break  # every CIM layer shares the same stage list
    frozen_stats = evaluate(model, test)

    results.append({
        "model": "ours (frozen engine)",
        "params": model.num_parameters(),
        "best_test_top1": results[-1]["best_test_top1"],
        "final_test_top1": round(frozen_stats["top1"], 4),
        "train_seconds": 0.0,
    })

    # 5. shipping: capture the frozen network into a single model-level
    #    artifact, reload it, and serve a stream through the batched runner.
    #    The loaded plan is plain data — no QAT model, layers or quantizers
    #    are constructed, and float64 artifacts match the frozen model
    #    bit for bit.
    print("\n=== saving / reloading the deployment artifact ===")
    model.eval()  # evaluate() leaves models in train mode; artifacts are eval-only
    images, _ = next(iter(test))
    images = Tensor(images)
    reference = model(images).data
    with tempfile.TemporaryDirectory() as workdir:
        artifact = os.path.join(workdir, "quickstart_plan.npz")
        engine.save_model_plan(engine.compile_model_plan(model), artifact)
        print(f"  wrote {os.path.basename(artifact)} "
              f"({os.path.getsize(artifact) / 1024:.0f} KiB)")
        deployed = engine.load_plan(artifact)
    print(f"  loaded: {deployed.n_cim_layers} CIM layer plans, "
          f"{len(deployed.nodes) - 1} graph ops")
    runner = engine.InferenceRunner(deployed, batch_size=16)
    served = runner.predict(images.data)
    drift = float(np.abs(served - reference).max())
    print(f"  served {runner.stats.samples} samples at "
          f"{runner.stats.throughput:.0f} samples/s, "
          f"max |logit drift| vs frozen model = {drift:.1e}")
    assert drift <= 1e-10, "deployed artifact must match the frozen model"

    engine.thaw(model)  # lossless: back to the QAT layers

    print()
    print_table(results, title="Quickstart summary")
    assert abs(results[-1]["final_test_top1"] - results[-2]["final_test_top1"]) < 1e-9, \
        "frozen engine must reproduce the QAT eval accuracy exactly"


if __name__ == "__main__":
    main()
