"""Prepare step: build a workload's artifact, inputs and reference outputs.

Runs in its own process, once per (workload, seed, run length), and caches
everything in the benchmark's work directory, so QAT model construction,
calibration and the reference forward never count towards the measured
processes' set-up time or peak memory.  The measured processes only load:

* ``artifact.npz`` -- the frozen ResNet-8 saved with ``engine.save_model_plan``;
* ``data.npz`` -- the seeded inputs, the reference outputs (the frozen QAT
  model's forward on the same inputs) and, for http, the request sizes and
  arrival times;
* ``bodies.bin`` (http only) -- every request body, JSON-encoded up front.

Usage: ``python3 cimbench/prepare.py --workload NAME --seed N --seconds S``;
prints the prepared directory as the last stdout line.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

#: Prepared input sets kept per workload (an http set is ~100 MB).
KEEP_PREPARED = 8


def prepared_dir(workload: str, seed: int, seconds: int) -> str:
    """Cache directory of one prepared input set (keyed on its definition)."""
    with open(os.path.abspath(__file__), "rb") as handle:
        source = handle.read()
    key = json.dumps([common.WORKLOADS[workload], common.MODEL, seed, seconds],
                     sort_keys=True).encode() + source
    digest = hashlib.sha1(key).hexdigest()[:12]
    return os.path.join(common.WORK, f"prep-{workload}-s{seed}-{digest}")


def build_model(image: int, width: float):
    """The reference ResNet-8, calibrated on a fixed batch and frozen."""
    from repro import engine
    from repro.cim import CIMConfig, QuantScheme
    from repro.models import resnet8
    from repro.nn import Tensor
    from repro.nn.tensor import no_grad

    spec = common.MODEL
    rng = np.random.default_rng(spec["model_seed"])
    model = resnet8(
        num_classes=spec["num_classes"],
        scheme=QuantScheme(weight_bits=spec["weight_bits"],
                           act_bits=spec["act_bits"],
                           psum_bits=spec["psum_bits"],
                           weight_granularity="column",
                           psum_granularity="column"),
        cim_config=CIMConfig(array_rows=spec["array_rows"],
                             array_cols=spec["array_cols"],
                             cell_bits=spec["cell_bits"],
                             adc_bits=spec["adc_bits"]),
        width_multiplier=width, seed=spec["model_seed"])
    calib = Tensor(np.abs(rng.normal(size=(4, 3, image, image))))
    with no_grad():
        model(calib)                       # move BN stats off their init values
    model.eval()
    engine.freeze(model, calibrate=calib)
    return model


def reference(model, inputs: np.ndarray, chunk: int = 64) -> np.ndarray:
    """The frozen model's forward on ``inputs`` (row results are batch-free)."""
    from repro.nn import Tensor
    from repro.nn.tensor import no_grad
    with no_grad():
        return np.concatenate([model(Tensor(inputs[i:i + chunk])).data
                               for i in range(0, len(inputs), chunk)])


def _offline(spec: dict, rng, model, out: dict) -> None:
    pool = np.abs(rng.normal(size=(spec["pool"], 3, spec["image"],
                                   spec["image"])))
    out["pool"] = pool
    out["reference"] = reference(model, pool)


def _http(spec: dict, rng, model, out: dict, seconds: int,
          bodies_path: str) -> None:
    n_timed = int(math.ceil(spec["rate"] * seconds))
    n_warmup = spec["warmup"]
    # every size occurs equally often (in seeded order), and arrivals are a
    # Poisson process conditioned on its count -- sorted uniform times -- so
    # each run offers the same samples over the same span and seeds vary
    # only the order and the exact arrival times
    choices = np.arange(spec["min_size"], spec["max_size"] + 1)
    sizes = np.concatenate([[spec["setup_size"]],
                            rng.permutation(np.resize(choices, n_warmup)),
                            rng.permutation(np.resize(choices, n_timed))])
    arrivals = np.concatenate([
        [0.0],
        np.sort(rng.uniform(0.0, n_warmup / spec["rate"], n_warmup)),
        np.sort(rng.uniform(0.0, float(seconds), n_timed))])
    n_total = len(sizes)
    inputs = np.abs(rng.normal(size=(int(sizes.sum()), 3, spec["image"],
                                     spec["image"])))
    ref = reference(model, inputs)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    body_offsets = [0]
    with open(bodies_path, "wb") as handle:
        for index in range(n_total):
            rows = inputs[offsets[index]:offsets[index + 1]]
            body = json.dumps({"inputs": rows.tolist()}).encode("utf-8")
            handle.write(body)
            body_offsets.append(body_offsets[-1] + len(body))
    out.update(reference=ref, sizes=sizes, offsets=offsets, arrivals=arrivals,
               body_offsets=np.asarray(body_offsets, np.int64),
               n_warmup=np.int64(n_warmup), n_timed=np.int64(n_timed))


def prepare(workload: str, seed: int, seconds: int) -> str:
    """Build (or reuse) the prepared directory of one run; return its path."""
    from repro import engine

    target = prepared_dir(workload, seed, seconds)
    if os.path.isfile(os.path.join(target, "data.npz")):
        return target
    spec = common.WORKLOADS[workload]
    os.makedirs(common.WORK, exist_ok=True)
    staging = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    try:
        model = build_model(spec["image"], spec["width"])
        artifact = os.path.join(staging, "artifact.npz")
        engine.save_model_plan(engine.compile_model_plan(model), artifact)
        rng = np.random.default_rng(seed)
        out: dict = {}
        if spec["kind"] == "offline":
            _offline(spec, rng, model, out)
        else:
            _http(spec, rng, model, out, seconds,
                  os.path.join(staging, "bodies.bin"))
        np.savez(os.path.join(staging, "data.npz"), **out)
        os.replace(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    _evict(workload, keep=target)
    return target


def _evict(workload: str, keep: str) -> None:
    """Drop all but the newest ``KEEP_PREPARED`` input sets of a workload."""
    prefix = os.path.join(common.WORK, f"prep-{workload}-s")
    dirs = sorted((d for d in glob.glob(prefix + "*")
                   if d != keep and ".tmp" not in d),
                  key=os.path.getmtime, reverse=True)
    for stale in dirs[KEEP_PREPARED - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    print(prepare(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
