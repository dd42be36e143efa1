"""Concurrent serving walkthrough: one artifact, many simultaneous callers.

Builds a calibrated ResNet-8 CIM model, ships it as a model-level engine
artifact, and then serves it two ways to show what the serving layer
buys:

1. **per-request** — the no-scheduler baseline: a single
   ``InferenceRunner`` executing every request the moment it arrives
   (batch of one, the PR-3 deployment story);
2. **dynamically batched** — a ``PlanServer`` whose scheduler coalesces the
   same requests into batches of up to ``max_batch`` across 2 shard
   executors (at the default ``max_wait_ms=0`` an idle shard takes pending
   work at once; batches form from requests that arrive while shards are
   busy).

Both produce bit-identical responses; the throughput gap is the point.
Clients submit from several threads at once to show that `submit` is safe to
call concurrently and that futures keep request/response pairing intact.
BLAS runs one thread per process, as in the speed benches, so the two
shards do not oversubscribe the cores, and each side runs once untimed
first, so the printed ratio measures batching.

Run:
    python examples/serve_concurrent.py
"""

import os
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.engine import cpu
from repro.models import resnet8
from repro.nn import Tensor
from repro.nn.tensor import no_grad


def build_artifact(path: str) -> None:
    """Calibrate a reduced ResNet-8 and save it as one model-plan artifact."""
    rng = np.random.default_rng(0)
    model = resnet8(num_classes=8,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                                       weight_granularity="column",
                                       psum_granularity="column"),
                    cim_config=CIMConfig(array_rows=64, array_cols=64,
                                         cell_bits=1, adc_bits=3),
                    width_multiplier=0.5, seed=0)
    calib = np.abs(rng.normal(size=(4, 3, 14, 14)))
    with no_grad():
        model(Tensor(calib))
    model.eval()
    engine.freeze(model, calibrate=Tensor(calib))
    engine.save_model_plan(engine.compile_model_plan(model), path)


def submit_concurrently(server, requests: np.ndarray) -> list:
    """Submit ``requests`` to ``server`` from 4 client threads at once;
    returns the output rows in request order."""
    futures = [None] * len(requests)

    def client(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            futures[i] = server.submit(requests[i])

    clients = [threading.Thread(target=client, args=(lo, lo + 16))
               for lo in range(0, len(requests), 16)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return [future.result(timeout=30.0) for future in futures]


def main() -> None:
    # one BLAS thread per process: spare cores go to the shards
    cpu.set_blas_threads(1)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "resnet8_plan.npz")
        build_artifact(path)
        plan = engine.load_plan(path)              # one parse, shared below

        rng = np.random.default_rng(1)
        requests = np.abs(rng.normal(size=(64, 3, 14, 14)))

        # 1. per-request baseline (one untimed warm-up pass first) ----- #
        runner = engine.InferenceRunner(plan, batch_size=1)
        for sample in requests:
            runner.predict(sample[None])
        start = time.perf_counter()
        baseline = [runner.predict(sample[None])[0] for sample in requests]
        t_baseline = time.perf_counter() - start

        # 2. dynamically batched, sharded (one untimed warm-up first) -- #
        with engine.PlanServer(plan, n_shards=2, max_batch=16) as server:
            submit_concurrently(server, requests)
            start = time.perf_counter()
            served = submit_concurrently(server, requests)
            t_server = time.perf_counter() - start
            report = server.stats_report()     # both passes

        # responses are bit-identical across both paths ---------------- #
        for row, expected in zip(served, baseline):
            assert np.array_equal(row, expected)

        n = len(baseline)
        print(f"requests           : {n}")
        print(f"per-request runner : {t_baseline * 1e3:7.1f} ms "
              f"({n / t_baseline:7.1f} req/s)")
        print(f"server (2 shards)  : {t_server * 1e3:7.1f} ms "
              f"({n / t_server:7.1f} req/s)  "
              f"{t_baseline / t_server:.2f}x")
        sched = report["scheduler"]
        print(f"scheduler          : {sched['batches']} batches, "
              f"mean size {sched['mean_batch']:.1f}, "
              f"high water {sched['queue_high_water']}")
        print(f"shard load         : "
              f"{[shard['samples'] for shard in report['shards']]}")


if __name__ == "__main__":
    main()
