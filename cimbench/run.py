"""Benchmark of the CIM inference engine (``repro.engine``), end to end.

Usage (from the repository root)::

    python3 cimbench/run.py --workload offline_int --seed 1 --seconds 40 --trace 0

Workloads (``common.WORKLOADS``): ``offline_int`` runs ``InferenceRunner``
on the int route of a ResNet-8 artifact; ``http_open_loop`` sends open-loop Poisson traffic to a ``NetServer`` in a
child process.  Each run

1. pins the BLAS thread count before NumPy is imported anywhere;
2. prepares the artifact, inputs and reference outputs in a separate process
   (cached per seed under ``cimbench/.work``);
3. runs the workload: set-ups, warm-up, then ``--seconds`` of timed work;
4. checks every output and exits non-zero, printing no result, on any
   mismatch;
5. prints the environment, per-phase counts and every metric with its unit
   and sample count, then, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
   the end-to-end metrics; ``--trace 1`` runs with spans recorded and reports
   the per-layer metrics instead.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

common.pin_blas_threads()          # before anything imports NumPy

#: The whole run must end within 180 s; preparing takes about ten.
PREPARE_TIMEOUT_S = 90


def _prepare(workload: str, seed: int, seconds: int) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(common.HERE, "prepare.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            capture_output=True, text=True, env=common.child_env(),
            cwd=common.ROOT, timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise common.BenchmarkFailure("prepare step timed out") from error
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise common.BenchmarkFailure(f"prepare step failed "
                                      f"(exit {proc.returncode})")
    return proc.stdout.strip().splitlines()[-1]


def _per_layer_report(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload does not reach the layer."""
    report = {}
    for name, unit, _better in common.PER_LAYER:
        report[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        sys.stderr.write(f"cimbench: no engine sources at {common.SRC}; run "
                         "from the root of a repository checkout\n")
        return 2
    sys.path.insert(0, common.SRC)
    spec = common.WORKLOADS[args.workload]

    try:
        prep = _prepare(args.workload, args.seed, args.seconds)
        env = common.environment(args.seed)
        if spec["kind"] == "offline":
            import offline
            result = offline.run(spec, prep, args.seconds, bool(args.trace))
        else:
            import http_load
            result = http_load.run(spec, prep, args.seconds, bool(args.trace))
            env["server_blas"] = result["server_blas"]
    except common.BenchmarkFailure as error:
        sys.stderr.write(f"cimbench: FAILED: {error}\n")
        return 1

    env["workload"] = args.workload
    env["trace"] = args.trace
    print("environment " + json.dumps(env, sort_keys=True))
    for phase, counts in result["phases"].items():
        print(f"phase {phase:<7} " + " ".join(f"{k}={v}"
                                              for k, v in counts.items()))
    if "loadgen" in result:
        print("loadgen " + json.dumps(result["loadgen"], sort_keys=True))
    if args.trace:
        tracer = result.get("tracer")
        if tracer is not None:
            tracer.write(os.path.join(common.WORK,
                                      f"spans-{args.workload}.jsonl"))
        metrics = _per_layer_report(result["per_layer"])
        missing = sorted(set(metrics) - set(result["per_layer"]))
        if missing:
            print("not on this workload's path (reported as 0): "
                  + ", ".join(missing))
        for name, doc in metrics.items():
            print(f"layer  {name:<32} {doc['value']:.6g} {doc['unit']}")
    else:
        metrics = {}
        for name, unit, _better, _bound in common.END_TO_END:
            value, got_unit, count = result["metrics"][name]
            assert got_unit == unit, (name, got_unit, unit)
            metrics[name] = {"value": float(value), "unit": unit}
            print(f"metric {name:<16} {value:.6g} {unit} (n={count})")
    common.emit({"correct": True, "attempted": int(result["attempted"]),
                 "failed": int(result["failed"]), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
