"""HTTP serving walkthrough: mount artifacts on a socket, talk JSON to them.

Builds a calibrated TinyCNN, saves it as a model-plan artifact, and mounts
it twice on one :class:`~repro.engine.NetServer` — once on the float route
and once integer-requantized — to show the full network serving story:

1. **multi-model tenancy** — each ``POST /v1/models/{name}/predict`` routes
   to its own dynamically-batched ``PlanServer``; the two mounts share
   nothing but the artifact file;
2. **wire contract** — requests are plain JSON (``{"inputs": [[...], ...]}``),
   responses carry outputs plus a per-request queue/compute timing split;
   hostile bodies come back as structured 400/413/422 errors without
   disturbing the healthy mount;
3. **observability** — ``GET /metrics`` exposes admission counters
   (``accepted + rejected == offered``) and latency histograms per model;
4. **graceful shutdown** — ``close()`` drains in-flight work before the
   socket goes away.

The long-lived equivalent is ``tools/serve.py``, which wraps the same
``NetServer`` in a CLI with SIGTERM draining (see ``make serve-demo``).

Run:
    python examples/serve_http.py
"""

import http.client
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad


def build_artifact(path: str) -> np.ndarray:
    """Calibrate a small TinyCNN and save it as one model-plan artifact."""
    rng = np.random.default_rng(0)
    model = TinyCNN(num_classes=4, width=8,
                    scheme=QuantScheme(weight_bits=4, act_bits=4, psum_bits=4),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=4),
                    seed=1)
    x = np.abs(rng.normal(size=(8, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    engine.save_model_plan(plan, path)
    return x


def post(net: engine.NetServer, path: str, payload) -> tuple:
    """One JSON POST against the live server; returns (status, body dict)."""
    conn = http.client.HTTPConnection(net.host, net.port, timeout=30)
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    decoded = json.loads(response.read().decode())
    conn.close()
    return response.status, decoded


def get(net: engine.NetServer, path: str) -> dict:
    """One GET against the live server; returns the decoded JSON body."""
    conn = http.client.HTTPConnection(net.host, net.port, timeout=30)
    conn.request("GET", path)
    decoded = json.loads(conn.getresponse().read().decode())
    conn.close()
    return decoded


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro_serve_http_")
    artifact = os.path.join(workdir, "tiny_plan.npz")
    x = build_artifact(artifact)
    print(f"artifact: {artifact}")

    with engine.NetServer() as net:          # port=0 -> ephemeral, bound now
        net.add_model("tiny-float", artifact, mode="float", n_shards=2,
                      max_batch=8, queue_size=64)
        net.add_model("tiny-int", artifact, mode="int",
                      n_shards=1, max_batch=8, queue_size=32)
        print(f"serving on {net.url}")
        print(f"health: {get(net, '/healthz')}")

        # ordinary prediction on each mount
        for name in ("tiny-float", "tiny-int"):
            status, body = post(net, f"/v1/models/{name}/predict",
                                {"inputs": x[:4].tolist()})
            outputs = np.asarray(body["outputs"])
            timing = body["timing_ms"]
            print(f"{name}: status={status} outputs={outputs.shape} "
                  f"queue={timing['queue']:.2f}ms "
                  f"compute={timing['compute']:.2f}ms")

        # the error surface: malformed JSON and an unrunnable shape, each a
        # structured error that leaves the server healthy
        status, body = post(net, "/v1/models/tiny-float/predict", b"{broken")
        print(f"malformed body -> {status} ({body['error']['reason']})")
        status, body = post(net, "/v1/models/tiny-float/predict",
                            {"inputs": [[1.0, 2.0]]})
        print(f"wrong shape    -> {status} ({body['error']['reason']})")

        # metrics: conservation + latency split, per model
        report = get(net, "/metrics")
        for name, model_report in sorted(report["models"].items()):
            counters = model_report["requests"]
            latency = model_report["latency"]["total"]
            print(f"{name}: offered={counters['offered']} "
                  f"accepted={counters['accepted']} "
                  f"rejected={counters['rejected']} "
                  f"p50={latency['p50_ms']:.2f}ms p99={latency['p99_ms']:.2f}ms")
    print("server drained and closed")


if __name__ == "__main__":
    main()
