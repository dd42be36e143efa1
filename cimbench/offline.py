"""``offline_int``: ``InferenceRunner`` over a seeded stream on the int route.

The runner and the executor do all the work; no serving layer is involved,
so this is the workload of the fixed-point route.  The stream cycles over a
prepared pool of |N(0,1)| samples; every output is checked: finite, stable
across cycles, and top-1 agreement with the reference above a floor.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import common
from spans import Tracer


class _Check:
    """Output checks of one run; raises on the first mismatch."""

    def __init__(self):
        self.first = {}                # (start, rows) -> first output

    def __call__(self, start: int, out) -> None:
        import numpy as np
        if not np.all(np.isfinite(out)):
            raise common.BenchmarkFailure("int route produced non-finite "
                                          f"outputs at sample {start}")
        key = (start, len(out))
        seen = self.first.setdefault(key, out.copy())
        if not np.array_equal(seen, out):
            raise common.BenchmarkFailure(
                f"int route is not deterministic on samples {start}.."
                f"{start + len(out) - 1}")


def _run_batch(runner, pool, start: int, check, phase: dict) -> tuple:
    """Predict the pool's batch at ``start``, check it, count it in ``phase``.

    Returns ``(outputs, seconds spent in predict)``.
    """
    phase["sent"] += 1
    began = time.perf_counter()
    out = runner.predict(pool[start:start + runner.batch_size])
    elapsed = time.perf_counter() - began
    check(start, out)
    phase["succeeded"] += 1
    return out, elapsed


def _timed(runner, pool, seconds: float, check, phase: dict) -> tuple:
    """Run the pool batch by batch until ``seconds`` pass.

    Returns ``(samples, elapsed_s, batch_latencies_ms)``.
    """
    samples = 0
    start = 0
    latencies = []
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        out, elapsed = _run_batch(runner, pool, start, check, phase)
        latencies.append(elapsed * 1e3)
        samples += out.shape[0]
        start = (start + runner.batch_size) % len(pool)
        now = time.perf_counter()
        if now >= deadline:
            return samples, now - began, latencies


def run(spec: dict, prep: str, seconds: int, traced: bool) -> dict:
    """Run the offline workload; return its metrics and per-phase counts."""
    import numpy as np
    from repro import engine

    with np.load(os.path.join(prep, "data.npz")) as data:
        pool, ref = data["pool"], data["reference"]
    artifact = os.path.join(prep, "artifact.npz")
    check = _Check()
    phases = {name: {"sent": 0, "succeeded": 0, "failed": 0}
              for name in ("setup", "warmup", "timed")}
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    def setup():
        began = time.perf_counter()
        fresh = engine.InferenceRunner(
            engine.load_plan(artifact, mode=spec["mode"]))
        _run_batch(fresh, pool, 0, check, phases["setup"])
        return fresh, time.perf_counter() - began

    def setups(count: int) -> tuple:
        """``count`` fresh set-ups; returns (last runner, their seconds)."""
        runner, times = None, []
        for _ in range(count):
            runner = None
            engine.clear_plan_cache()
            # a thread per set-up: the engine keeps int-route scratch buffers
            # per thread and per plan object until the thread exits, so
            # set-ups sharing a thread would pile them up in peak_rss_mb
            with ThreadPoolExecutor(max_workers=1) as one_thread:
                runner, elapsed = one_thread.submit(setup).result()
            times.append(elapsed)
        return runner, times

    # one untimed set-up, then half the timed ones now and half after the
    # timed window, so the median spans more of the machine's speed swings
    setups(1)
    runner, setup_times = setups(common.SETUP_REPS // 2)
    if tracer:
        tracer.uninstall()

    # warm-up: one pass over the pool, which also yields the agreement
    outputs = [_run_batch(runner, pool, start, check, phases["warmup"])[0]
               for start in range(0, len(pool), runner.batch_size)]
    agreement = float(np.mean(np.concatenate(outputs).argmax(axis=1)
                              == ref.argmax(axis=1)))
    if agreement < common.INT_AGREEMENT_FLOOR:
        raise common.BenchmarkFailure(
            f"int route top-1 agreement {agreement:.4f} is below "
            f"{common.INT_AGREEMENT_FLOOR}")

    result = {"phases": phases}
    if not traced:
        samples, elapsed, latencies = _timed(runner, pool, seconds, check,
                                             phases["timed"])
        peak_rss = common.peak_rss_mb()      # before the extra set-ups
        setup_times += setups(common.SETUP_REPS - len(setup_times))[1]
        timed = phases["timed"]
        result["metrics"] = {
            "setup_s": (common.median(setup_times), "s", len(setup_times)),
            "throughput_sps": (samples / elapsed, "samples/s", samples),
            "latency_p10_ms": (common.percentile(latencies, 10), "ms",
                               len(latencies)),
            "peak_rss_mb": (peak_rss, "MB", 1),
            "top1_agreement": (agreement, "share", len(pool)),
            "ok_share": (timed["succeeded"] / timed["sent"], "share",
                         timed["sent"]),
        }
    else:
        # alternate untraced and traced windows, so drift in machine speed
        # hits both sides of trace.overhead_share alike
        totals = {False: [0, 0.0], True: [0, 0.0]}
        tracer.phase = "timed"
        for window in range(common.TRACE_WINDOWS):
            traced_now = window % 2 == 1
            if traced_now:
                tracer.install()
            samples, elapsed, _ = _timed(runner, pool,
                                         seconds / common.TRACE_WINDOWS, check,
                                         phases["timed"])
            if traced_now:
                tracer.uninstall()
            totals[traced_now][0] += samples
            totals[traced_now][1] += elapsed
        layers = tracer.summary()
        layers["runner.arena_kb"] = runner.stats.arena_bytes / 1024.0
        rate = {key: count / secs for key, (count, secs) in totals.items()}
        layers["trace.overhead_share"] = 1.0 - rate[True] / rate[False]
        result["per_layer"] = layers
        result["tracer"] = tracer
    result["attempted"] = phases["timed"]["sent"]
    result["failed"] = phases["timed"]["failed"]
    return result
