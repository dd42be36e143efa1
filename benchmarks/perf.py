"""One perf core for the engine speed benches.

Every speed bench (``bench_{engine_speedup,runner_throughput,
server_concurrency,int_requant,netserver_slo}.py``) and ``bench_analyze.py``
takes its measuring machinery from here, once:

* **BLAS policy** — one OpenBLAS thread per process, set when this module
  is imported.  A direct run (``python benchmarks/bench_...py``) and a
  pytest run (``benchmarks/conftest.py`` imports this module) therefore
  measure the same program: the same thread count, and so the same
  :func:`repro.engine.cpu.runner_workers` split, as ``cimbench`` runs;
* :func:`rotate` — the one timer: warm-up, then :func:`trials` rotating
  trials over N sides, each side's median and IQR;
* :class:`Client`, :func:`fleet` and :func:`closed_loop` — the HTTP client
  fleet of the serving benches;
* :func:`main` — run one bench, print its ledger entry and write it to
  ``BENCH_<name>.json`` at the repository root, with the environment block
  of ``cimbench/common.py`` (machine, NumPy, live BLAS threads, git sha),
  whether the measured tree differs from that commit (:func:`tree_state`)
  and the bench process's peak memory (:func:`peak_rss_mb`);
* :func:`calibrated_frozen_resnet8` — the reference serving model, so every
  serving bench measures the same scheme, geometry and calibration.

``REPRO_BENCH_SCALE`` (default ``small``) is the only knob; the ``tiny``
smoke scale runs fewer trials and writes no ledger, so smoke passes never
overwrite the tracked default-scale numbers.
"""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.engine import cpu


def _load_cimbench_common():
    """``cimbench/common.py``, loaded by path (``cimbench`` is no package)."""
    spec = importlib.util.spec_from_file_location(
        "cimbench_common", os.path.join(ROOT, "cimbench", "common.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


common = _load_cimbench_common()

# Many small GEMMs run slower on multi-threaded OpenBLAS on a small machine;
# spare cores go to the runner's row chunks and the server's shards.  The
# library's own setter works after NumPy is imported, unlike the env var.
cpu.set_blas_threads(1)

#: Seed of every speed bench's inputs, recorded in the ledger.
SEED = 1


def bench_scale() -> str:
    """Benchmark operating point from ``REPRO_BENCH_SCALE`` (default ``small``)."""
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def trials() -> int:
    """Timed trials per side: 3 at ``tiny``, else 12 (a multiple of 2, 3
    and 4, so with that many sides each goes first equally often)."""
    return 3 if bench_scale() == "tiny" else 12


def _summary(seconds) -> dict:
    """Median and interquartile range of a list of durations."""
    return {"median_s": common.median(seconds),
            "iqr_s": (common.percentile(seconds, 75.0)
                      - common.percentile(seconds, 25.0))}


def rotate(sides, clock=time.perf_counter):
    """Time the callables of ``sides`` (a name -> callable dict) against
    each other.

    Each side runs once untimed (caches, lazy state, pool threads), then
    :func:`trials` times.  Trial ``k`` starts with side ``k mod N`` and runs
    the others in order after it, so a drift in the machine's speed falls
    on every side alike.  Returns ``({name: summary}, {name: [return value
    of each timed trial]})``; ``clock`` lets a test stand in for time.
    """
    names = list(sides)
    for name in names:
        sides[name]()
    seconds = {name: [] for name in names}
    returns = {name: [] for name in names}
    for k in range(trials()):
        first = k % len(names)
        for name in names[first:] + names[:first]:
            start = clock()
            returns[name].append(sides[name]())
            seconds[name].append(clock() - start)
    return {name: _summary(seconds[name]) for name in names}, returns


def tree_state(run=subprocess.run) -> str:
    """Whether the checkout's tracked files differ from its commit.

    ``"HEAD"`` when ``git status --porcelain --untracked-files=no`` lists
    nothing, ``"HEAD+uncommitted"`` when it lists a file, ``"unknown"``
    when git cannot tell; ``run`` lets a test stand in for git.
    """
    try:
        out = run(["git", "status", "--porcelain", "--untracked-files=no"],
                  cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return "HEAD+uncommitted" if out.stdout.strip() else "HEAD"


def peak_rss_mb(status: str = "/proc/self/status") -> float:
    """This process's peak resident memory in MB: ``VmHWM`` of ``status``,
    else (no such file or line) ``ru_maxrss``."""
    try:
        with open(status, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return common.peak_rss_mb()


def main(name: str, run):
    """Run one bench, print its ledger entry, write ``BENCH_<name>.json``.

    ``run()`` returns the bench's JSON-ready results; they are returned
    for the caller's gates.  The entry's ``tree`` says whether the measured
    files match the commit its ``environment`` names (:func:`tree_state`),
    and ``peak_rss_mb`` is the bench process's peak memory once ``run()``
    returns.  Nothing is written at the ``tiny`` scale.
    """
    results = run()
    environment = common.environment(SEED)
    entry = {"benchmark": name, "scale": bench_scale(), "trials": trials(),
             "unix_time": time.time(), "results": results,
             "environment": environment,
             "tree": ("unknown" if environment["git_sha"] == "unknown"
                      else tree_state()),
             "peak_rss_mb": peak_rss_mb()}
    text = json.dumps(entry, indent=2, sort_keys=True)
    print(text)
    if bench_scale() != "tiny":
        path = os.path.join(ROOT, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}")
    return entry["results"]


class Client:
    """One keep-alive HTTP connection to a :class:`repro.engine.NetServer`."""

    def __init__(self, net):
        # imported here, so a bench that opens no connection never loads
        # http.client (and its ssl and email imports) into its peak RSS
        import http.client
        self._conn = http.client.HTTPConnection(net.host, net.port,
                                                timeout=60.0)

    def post(self, path: str, body=None) -> tuple:
        """POST ``body`` as JSON (or nothing); (status, reply, seconds)."""
        data = None if body is None else json.dumps(body).encode()
        start = time.perf_counter()
        self._conn.request("POST", path, body=data)
        response = self._conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - start

    def predict(self, model: str, sample) -> tuple:
        """POST one sample (a nested list) as a one-row batch to ``model``."""
        return self.post(f"/v1/models/{model}/predict", {"inputs": [sample]})

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fleet(n: int, work) -> None:
    """Run ``work(i)`` for ``i < n`` on ``n`` threads at once and join them;
    the first exception a thread raised is raised here."""
    errors = []

    def guarded(i):
        try:
            work(i)
        except Exception as exc:       # raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(net, model: str, pool, clients: int, per_client: int):
    """``clients`` connections, each sending ``per_client`` predicts, the
    next as soon as the last answer lands.

    Client ``c`` sends pool rows ``c * per_client + i`` (mod the pool).
    Returns (latencies in seconds, {pool row: output row}); a reply other
    than 200 raises.
    """
    latencies, outputs, lock = [], {}, threading.Lock()

    def client_loop(cid):
        with Client(net) as client:
            for i in range(per_client):
                index = (cid * per_client + i) % len(pool)
                status, payload, seconds = client.predict(
                    model, pool[index].tolist())
                if status != 200:
                    raise RuntimeError(f"predict answered {status}: {payload}")
                with lock:
                    latencies.append(seconds)
                    outputs[index] = payload["outputs"][0]

    fleet(clients, client_loop)
    return latencies, outputs


def calibrated_frozen_resnet8(image: int, width: float, num_classes: int = 8,
                              seed: int = 0):
    """Train-free reference model of the serving benches, frozen.

    A reduced ResNet-8 under the paper's column/column 3-bit scheme on a
    64x64 crossbar, calibrated on a seeded batch (moves the BatchNorm stats
    and initializes the lazy LSQ scales) and frozen into the compiled fast
    path.
    """
    import numpy as np

    from repro import engine
    from repro.cim import CIMConfig, QuantScheme
    from repro.models import resnet8
    from repro.nn import Tensor
    from repro.nn.tensor import no_grad

    rng = np.random.default_rng(seed)
    model = resnet8(num_classes=num_classes,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                                       weight_granularity="column",
                                       psum_granularity="column"),
                    cim_config=CIMConfig(array_rows=64, array_cols=64,
                                         cell_bits=1, adc_bits=3),
                    width_multiplier=width, seed=seed)
    calib = np.abs(rng.normal(size=(4, 3, image, image)))
    with no_grad():
        model(Tensor(calib))               # move BN stats off their init values
    model.eval()
    engine.freeze(model, calibrate=Tensor(calib))
    return model
