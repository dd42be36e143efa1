"""Server side of ``http_open_loop``: a child process owned by the benchmark.

Started by ``http_load.py`` so the server's peak memory and spans are its
own and the load generator does not share its interpreter lock.  It times
``setup_s`` itself: ``NetServer`` + ``add_model`` + ``start`` + one request
answered correctly, with ``clear_plan_cache()`` before each set-up.  After
one untimed set-up, half the timed ones run before the load (the last one
serves it) and half after.

Protocol: one JSON line on stdout when ready; then it reads commands from
stdin -- ``trace`` (start recording spans; the first also snapshots the
scheduler and request counters), ``untrace`` and ``stop`` (or end of
input) -- and prints one final JSON line after closing the server.  Every
public engine call uses default arguments.

Usage: ``python3 cimbench/http_server.py --prep DIR --trace 0|1``.
"""

import argparse
import http.client
import json
import os
import sys
import time

import common
from spans import Tracer

MODEL_NAME = "bench"


class Connection:
    """One keep-alive client connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def post(self, body: bytes) -> tuple:
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                       timeout=60)
            try:
                self.conn.request("POST", f"/v1/models/{MODEL_NAME}/predict",
                                  body, {"Content-Type": "application/json"})
                response = self.conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self.conn.close()
                self.conn = None
                if attempt:
                    return 0, b""
        return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


def _model_metrics(net) -> dict:
    doc = net.metrics()["models"][MODEL_NAME]
    scheduler = doc["serving"]["scheduler"]
    return {"batches": scheduler["batches"],
            "samples": scheduler["mean_batch"] * scheduler["batches"],
            "timeout_flushes": scheduler["timeout_flushes"],
            "offered": doc["requests"]["offered"],
            "rejected": doc["requests"]["rejected"],
            "arena_bytes": doc["serving"]["total"]["arena_bytes"]}


def _delta_layers(before: dict, after: dict) -> dict:
    batches = after["batches"] - before["batches"]
    offered = after["offered"] - before["offered"]
    return {
        "scheduler.mean_batch": ((after["samples"] - before["samples"])
                                 / batches if batches else 0.0),
        "scheduler.timeout_flush_share": (
            (after["timeout_flushes"] - before["timeout_flushes"]) / batches
            if batches else 0.0),
        "netserver.rejected_share": ((after["rejected"] - before["rejected"])
                                     / offered if offered else 0.0),
        "runner.arena_kb": after["arena_bytes"] / 1024.0,
    }


def main(argv=None) -> int:
    try:
        return _serve(argv)
    except common.BenchmarkFailure as error:
        common.emit({"event": "error", "detail": str(error)})
        return 1


def _serve(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prep", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np
    from repro import engine

    artifact = os.path.join(args.prep, "artifact.npz")
    with np.load(os.path.join(args.prep, "data.npz")) as data:
        rows = int(data["offsets"][1])
        expected = data["reference"][:rows]
        body_end = int(data["body_offsets"][1])
    with open(os.path.join(args.prep, "bodies.bin"), "rb") as handle:
        setup_body = handle.read(body_end)

    def setup(net):
        """One fresh set-up timed to its first correct answer; the server
        it replaces (if any) is closed first, outside the timing."""
        if net is not None:
            net.close()
        engine.clear_plan_cache()
        began = time.perf_counter()
        net = engine.NetServer()
        net.add_model(MODEL_NAME, artifact)
        net.start()
        conn = Connection(net.port)
        status, body = conn.post(setup_body)
        elapsed = time.perf_counter() - began
        conn.close()
        outputs = (np.asarray(json.loads(body)["outputs"], dtype=np.float64)
                   if status == 200 else None)
        if outputs is None or not np.array_equal(outputs, expected):
            net.close()
            raise common.BenchmarkFailure(
                f"set-up request answered {status} or differs from the "
                "reference")
        return net, elapsed

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # one untimed set-up, then half the timed ones now and half after the
    # load, so the median spans more of the machine's speed swings
    net, _ = setup(None)
    setup_times = []
    for _ in range(common.SETUP_REPS // 2):
        net, elapsed = setup(net)
        setup_times.append(elapsed)
    if tracer:
        tracer.uninstall()
    common.emit({"event": "ready", "port": net.port,
                 "blas": common.blas_info()})

    before = None
    while True:
        command = sys.stdin.readline().strip()
        if command == "trace" and tracer:
            if before is None:
                before = _model_metrics(net)
            tracer.phase = "timed"
            tracer.install()
            common.emit({"event": "tracing"})
        elif command == "untrace" and tracer:
            tracer.uninstall()
            common.emit({"event": "untraced"})
        elif command in ("stop", ""):
            break
    if tracer:
        tracer.uninstall()
    after = _model_metrics(net)
    peak_rss = common.peak_rss_mb()          # before the extra set-ups
    while len(setup_times) < common.SETUP_REPS:
        net, elapsed = setup(net)
        setup_times.append(elapsed)
    net.close()
    done = {"event": "done", "peak_rss_mb": peak_rss, "setup_s": setup_times}
    if tracer and before is not None:
        layers = tracer.summary()
        layers.update(_delta_layers(before, after))
        tracer.write(os.path.join(common.WORK,
                                  "spans-http_open_loop-server.jsonl"))
        done["per_layer"] = layers
    common.emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
