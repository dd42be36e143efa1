"""``http_open_loop``: open-loop Poisson load against a ``NetServer`` child.

The generator is this process: at most ``connections`` threads, each with
one keep-alive connection, sending prepared request bodies (1-8 distinct
samples each) at their scheduled times.  A request's latency runs from its
*scheduled* send time to its full response, so a stall also counts against
the requests queued up behind it; how late the generator itself sent is
reported as ``loadgen.lag_p99_ms``.  Every response must be a 200 whose
outputs are bit for bit those of the in-process runner (see ``_Expected``).

The traced run alternates untraced windows with windows in which the server
records spans; per-request figures come from the traced windows, and
``trace.overhead_share`` is the relative rise in median latency between the
two kinds.
"""

import json
import os
import select
import subprocess
import sys
import threading
import time

import common
from http_server import Connection

#: Longest a run may wait for the server child to answer a command.
CHILD_TIMEOUT_S = 120.0


class _Child:
    """The server process and its line protocol."""

    def __init__(self, prep: str, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "http_server.py"),
             "--prep", prep, "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(), cwd=common.ROOT)

    def read_event(self, expected: str) -> dict:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise common.BenchmarkFailure(
                    f"server child sent no {expected!r} event in time")
            line = self.proc.stdout.readline()
            if not line:
                raise common.BenchmarkFailure(
                    f"server child exited (code {self.proc.poll()}) before "
                    f"its {expected!r} event")
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue                      # stray output: not protocol
            if event.get("event") == "error":
                raise common.BenchmarkFailure(f"server: {event['detail']}")
            if event.get("event") == expected:
                return event

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("stop")
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (BrokenPipeError, OSError):
                pass


def _open_loop(conns, bodies, indices, arrivals) -> list:
    """Send ``indices`` at their arrival times; one record per request.

    Arrival times are relative to the first request of ``indices``.  A
    record is ``(index, due, sent, done, status, body)`` in ``perf_counter``
    seconds.
    """
    base = time.perf_counter() + 0.01 - arrivals[indices[0]]
    due = [base + arrivals[index] for index in indices]
    records = [None] * len(indices)
    cursor = iter(range(len(indices)))
    lock = threading.Lock()

    def worker(conn):
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            wait = due[position] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = conn.post(bodies[indices[position]])
            records[position] = (indices[position], due[position], sent,
                                 time.perf_counter(), status, body)

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


class _Expected:
    """Correct outputs of each prepared sample.

    A response row must equal the reference row (the frozen model's forward,
    which the in-process runner reproduces bit for bit in any batch of two
    or more) or, bit for bit, the in-process runner's output for that sample
    run alone: at batch size one the float route takes a different BLAS
    path and may differ in the last bits.  The solo outputs are computed
    only for rows that need them, after the timed window.
    """

    def __init__(self, prep: str, offsets, reference, bodies):
        self.prep = prep
        self.offsets = offsets
        self.reference = reference
        self.bodies = bodies
        self.runner = None
        self.solo_rows = 0

    def verify(self, index: int, outputs) -> None:
        import numpy as np
        start = self.offsets[index]
        expected = self.reference[start:self.offsets[index + 1]]
        if outputs.shape != expected.shape:
            raise common.BenchmarkFailure(
                f"http response to request {index} has shape "
                f"{outputs.shape}, expected {expected.shape}")
        for row in np.flatnonzero(np.any(outputs != expected, axis=1)):
            if not np.array_equal(outputs[row], self._solo(index, row)):
                raise common.BenchmarkFailure(
                    f"http response to request {index} (row {row}) differs "
                    "from the in-process runner output")
            self.solo_rows += 1

    def _solo(self, index: int, row: int):
        import numpy as np
        if self.runner is None:
            from repro import engine
            self.runner = engine.InferenceRunner(
                engine.load_plan(os.path.join(self.prep, "artifact.npz")))
        sample = np.asarray(json.loads(self.bodies[index])["inputs"][row])
        return self.runner.predict(sample[None])[0]


def _check(records, expected: _Expected, phase: dict) -> list:
    """Verify every response; return ``(record, doc)`` of the 200s.

    A 200 whose outputs are wrong is a correctness failure; any other status
    is a failed request.
    """
    import numpy as np
    answered = []
    for record in records:
        index, _due, _sent, _done, status, body = record
        phase["sent"] += 1
        if status != 200:
            phase["failed"] += 1
            continue
        doc = json.loads(body)
        doc["outputs"] = np.asarray(doc["outputs"], dtype=np.float64)
        expected.verify(index, doc["outputs"])
        phase["succeeded"] += 1
        answered.append((record, doc))
    return answered


def _latencies_ms(records) -> list:
    """Scheduled-send-to-response latency; failed requests rank slowest."""
    return [(r[3] - r[1]) * 1e3 if r[4] == 200 else float("inf")
            for r in records]


def _pct(values, q):
    value = common.percentile(values, q)
    if value == float("inf"):
        raise common.BenchmarkFailure(
            f"too many failed requests to report a p{q:g} latency")
    return value


def run(spec: dict, prep: str, seconds: int, traced: bool) -> dict:
    """Run the open-loop workload; return its metrics and per-phase counts."""
    import numpy as np

    with np.load(os.path.join(prep, "data.npz")) as data:
        offsets = data["offsets"]
        reference = data["reference"]
        arrivals = data["arrivals"]
        body_offsets = data["body_offsets"]
        n_warmup = int(data["n_warmup"])
        n_timed = int(data["n_timed"])
    with open(os.path.join(prep, "bodies.bin"), "rb") as handle:
        blob = handle.read()
    bodies = [blob[body_offsets[i]:body_offsets[i + 1]]
              for i in range(len(body_offsets) - 1)]
    warmup = list(range(1, 1 + n_warmup))
    timed = list(range(1 + n_warmup, 1 + n_warmup + n_timed))
    phases = {name: {"sent": 0, "succeeded": 0, "failed": 0}
              for name in ("setup", "warmup", "timed")}

    child = _Child(prep, traced)
    conns = []
    try:
        ready = child.read_event("ready")
        conns = [Connection(ready["port"])
                 for _ in range(spec["connections"])]
        warm = _open_loop(conns, bodies, warmup, arrivals)
        if not traced:
            records = _open_loop(conns, bodies, timed, arrivals)
        else:
            records, windows = [], {False: [], True: []}
            size = -(-len(timed) // common.TRACE_WINDOWS)
            for window in range(common.TRACE_WINDOWS):
                traced_now = window % 2 == 1
                chunk = timed[window * size:(window + 1) * size]
                if traced_now:
                    child.send("trace")
                    child.read_event("tracing")
                part = _open_loop(conns, bodies, chunk, arrivals)
                if traced_now:
                    child.send("untrace")
                    child.read_event("untraced")
                records.extend(part)
                windows[traced_now].extend(part)
        child.send("stop")
        done = child.read_event("done")
        # the untimed set-up too; a failed set-up ends the run
        phases["setup"].update(sent=len(done["setup_s"]) + 1,
                               succeeded=len(done["setup_s"]) + 1)
    finally:
        for conn in conns:
            conn.close()
        child.close()

    expected = _Expected(prep, offsets, reference, bodies)
    _check(warm, expected, phases["warmup"])
    answered = _check(records, expected, phases["timed"])
    window = max(r[3] for r in records) - min(r[1] for r in records)
    latencies = _latencies_ms(records)
    lags = [(r[2] - r[1]) * 1e3 for r in records]
    samples = int(sum(offsets[r[0] + 1] - offsets[r[0]] for r, _ in answered))
    agree = []
    for record, doc in answered:
        index = record[0]
        ref = reference[offsets[index]:offsets[index + 1]]
        agree.extend(doc["outputs"].argmax(axis=1) == ref.argmax(axis=1))
    result = {"phases": phases, "server_blas": ready["blas"],
              "loadgen": {"lag_p99_ms": common.percentile(lags, 99),
                          # for reading only: too unsteady from run to run
                          # to be end-to-end metrics (see common.END_TO_END)
                          "latency_p50_ms": common.percentile(latencies, 50),
                          "latency_p95_ms": common.percentile(latencies, 95),
                          "requests": len(records),
                          "solo_rows": expected.solo_rows}}
    if not traced:
        result["metrics"] = {
            "setup_s": (common.median(done["setup_s"]), "s",
                        len(done["setup_s"])),
            "throughput_sps": (samples / window, "samples/s", samples),
            "latency_p10_ms": (_pct(latencies, 10), "ms", len(latencies)),
            "peak_rss_mb": (done["peak_rss_mb"], "MB", 1),
            "top1_agreement": (float(np.mean(agree)), "share", len(agree)),
            "ok_share": (phases["timed"]["succeeded"] / len(records),
                         "share", len(records)),
        }
    else:
        layers = dict(done.get("per_layer", {}))
        traced_ids = {id(r) for r in windows[True]}
        timings = [d["timing_ms"] for r, d in answered if id(r) in traced_ids]
        queue = [t["queue"] for t in timings]
        compute = [t["compute"] for t in timings]
        transport = [(r[3] - r[2]) * 1e3 - d["timing_ms"]["total"]
                     for r, d in answered if id(r) in traced_ids]
        layers.update({
            "scheduler.queue_wait_p50_ms": common.percentile(queue, 50),
            "scheduler.queue_wait_p99_ms": common.percentile(queue, 99),
            "server.compute_p50_ms": common.percentile(compute, 50),
            "server.compute_p99_ms": common.percentile(compute, 99),
            "http.transport_ms": common.median(transport),
            "loadgen.lag_p99_ms": common.percentile(lags, 99),
            "loadgen.sent": phases["timed"]["sent"],
            "loadgen.succeeded": phases["timed"]["succeeded"],
            "loadgen.failed": phases["timed"]["failed"],
            "trace.overhead_share": (
                _pct(_latencies_ms(windows[True]), 50)
                / _pct(_latencies_ms(windows[False]), 50) - 1.0),
        })
        result["per_layer"] = layers
        _write_client_spans(records)
    result["attempted"] = phases["timed"]["sent"]
    result["failed"] = phases["timed"]["failed"]
    return result


def _write_client_spans(records) -> None:
    """Client-side request spans (request id = prepared request index)."""
    path = os.path.join(common.WORK, "spans-http_open_loop-client.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for index, due, sent, done, status, _body in records:
            handle.write(json.dumps({
                "name": "http.request", "ctx": int(index), "due": due,
                "start": sent, "end": done, "status": status}) + "\n")
