"""CLI entry point for the network serving front end.

Loads one or more frozen model-plan artifacts, mounts each as
``POST /v1/models/{name}/predict`` on a :class:`repro.engine.NetServer`,
and serves until SIGTERM/SIGINT — then drains gracefully (every admitted
request is answered before the process exits; the no-drop contract of
``PlanServer.close`` extended to the wire).

Usage::

    PYTHONPATH=src python tools/serve.py \
        --model resnet=artifacts/resnet8_plan.npz \
        --model resnet_int=artifacts/resnet8_plan.npz:mode=int \
        --port 8080 --shards 2 --max-batch 16

Each ``--model`` is ``name=path[:key=value...]`` where the per-model
options ``mode`` (``float``/``int``) and ``shards`` override the global
flags (any other key is refused) — so one process can serve the same
artifact on several routes (e.g. a float reference next to the integer
route).  ``--port 0`` binds an ephemeral port and prints
it, which is how ``examples/serve_http.py`` and the tests drive this file.

Lifecycle signals: SIGTERM/SIGINT drain and exit; **SIGHUP rolls every
model over to the current bytes of its artifact** (zero-downtime: each
endpoint's pool is rebuilt from a re-stat of its mounted path, probe
validated, atomically swapped, old pool drained in the background) — the
operational path for ``cp new_plan.npz artifacts/... && kill -HUP $pid``.
A model whose new artifact is corrupt keeps serving the old one (the
rejection is printed, not fatal).  Each model's shard pool keeps its
mounted size; a reload is the only way to rebuild it.
"""

from __future__ import annotations

import argparse
import inspect
import os
import signal
import sys
import threading
from typing import Dict, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.engine import NetServer, PlanServer   # noqa: E402 — path shim

#: Per-model option keys ``--model name=path:key=value`` accepts.
MODEL_OPTIONS = ("mode", "shards")

#: Execution routes a model can be served on (``mode=``).
MODES = ("float", "int")

#: :class:`PlanServer`'s keyword defaults: the serving flags take theirs
#: from here, so the CLI and the library cannot drift apart.
SERVER_DEFAULTS = {name: param.default for name, param
                   in inspect.signature(PlanServer).parameters.items()}


def positive_int(text: str) -> int:
    """An ``int >= 1`` from the command line, else
    :class:`argparse.ArgumentTypeError` (a usage error, exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 1, got {text!r}")
    return value


def positive_seconds(text: str) -> float:
    """A finite ``float > 0`` from the command line, else
    :class:`argparse.ArgumentTypeError` (a usage error, exit code 2)."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}")
    return value


def port_number(text: str) -> int:
    """A TCP port ``0..65535`` from the command line (0 binds an
    ephemeral one), else :class:`argparse.ArgumentTypeError`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port number 0..65535, got {text!r}")
    return value


def parse_model_spec(spec: str) -> Tuple[str, str, Dict[str, str]]:
    """Split ``name=path[:key=value...]`` into its parts.

    The path may itself contain ``=``-free colons only in the option tail,
    so artifact paths with drive letters are not supported — keep artifacts
    on POSIX paths.
    An option key outside :data:`MODEL_OPTIONS`, a ``mode`` outside
    :data:`MODES` or a ``shards`` below 1 raises
    :class:`argparse.ArgumentTypeError`, so a stale, misspelled or invalid
    option fails the command line instead of the server start.
    """
    if "=" not in spec:
        raise argparse.ArgumentTypeError(
            f"--model {spec!r}: expected name=path[:key=value...]")
    name, rest = spec.split("=", 1)
    options: Dict[str, str] = {}
    path = rest
    if ":" in rest:
        path, tail = rest.split(":", 1)
        for item in tail.split(":"):
            if "=" not in item:
                raise argparse.ArgumentTypeError(
                    f"--model {spec!r}: bad option {item!r} "
                    "(expected key=value)")
            key, value = item.split("=", 1)
            if key not in MODEL_OPTIONS:
                raise argparse.ArgumentTypeError(
                    f"--model {spec!r}: unknown option {key!r} "
                    f"(allowed: {', '.join(MODEL_OPTIONS)})")
            if key == "mode" and value not in MODES:
                raise argparse.ArgumentTypeError(
                    f"--model {spec!r}: mode must be one of "
                    f"{', '.join(MODES)}, got {value!r}")
            if key == "shards":
                positive_int(value)
            options[key] = value
    if not name or not path:
        raise argparse.ArgumentTypeError(
            f"--model {spec!r}: empty name or path")
    return name, path, options


def build_parser() -> argparse.ArgumentParser:
    """The serve CLI's argument surface."""
    parser = argparse.ArgumentParser(
        description="Serve frozen model-plan artifacts over HTTP.")
    parser.add_argument("--model", action="append", required=True,
                        metavar="NAME=PATH[:k=v...]", type=parse_model_spec,
                        help="mount an artifact (repeatable); per-model "
                             "options: mode=float|int, shards=N")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=port_number, default=8080,
                        help="0 binds an ephemeral port (printed on start)")
    parser.add_argument("--shards", type=positive_int,
                        default=SERVER_DEFAULTS["n_shards"],
                        help="shard executors per model")
    parser.add_argument("--max-batch", type=positive_int,
                        default=SERVER_DEFAULTS["max_batch"])
    parser.add_argument("--queue-size", type=positive_int,
                        default=SERVER_DEFAULTS["queue_size"],
                        help="bounded backlog per model; admission control "
                             "answers 503 past it")
    parser.add_argument("--request-timeout-s", type=positive_seconds,
                        default=60.0)
    parser.add_argument("--drain-timeout-s", type=positive_seconds,
                        default=30.0,
                        help="max seconds close() waits for queued requests")
    return parser


def build_server(args: argparse.Namespace) -> NetServer:
    """Construct and populate the :class:`NetServer` from parsed flags."""
    net = NetServer(host=args.host, port=args.port)
    for name, path, options in args.model:
        net.add_model(
            name, path,
            n_shards=int(options.get("shards", args.shards)),
            max_batch=args.max_batch,
            queue_size=args.queue_size,
            mode=options.get("mode"),
            request_timeout_s=args.request_timeout_s,
        )
    return net


def reload_all(net: NetServer) -> None:
    """Roll every mounted model over to the current bytes of its artifact.

    The SIGHUP handler body (separated so tests can drive it without
    signals).  Per-model failures are printed and skipped — one corrupt
    replacement must not stop the others from rolling, and the failed
    model keeps serving its old pool by :meth:`ModelEndpoint.reload`'s
    contract.
    """
    for name in sorted(net.model_names()):
        endpoint = net.endpoint(name)
        if endpoint is None:
            continue
        try:
            info = endpoint.reload()
            print(f"[serve] reloaded {name!r} "
                  f"(reload #{info['reloads']}, {info['n_shards']} shards)",
                  flush=True)
        except Exception as error:   # noqa: BLE001 — keep serving old pool
            print(f"[serve] reload of {name!r} rejected: {error}",
                  flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and cross-check the flags; invalid values exit with code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.queue_size < args.max_batch:
        parser.error(f"--queue-size {args.queue_size} must be >= "
                     f"--max-batch {args.max_batch} (a full batch must fit "
                     "in the queue)")
    return args


def main(argv=None) -> int:
    """Parse flags, serve, drain on SIGTERM/SIGINT, exit 0."""
    args = parse_args(argv)
    net = build_server(args)
    stop = threading.Event()

    def _drain(signum, frame):
        print(f"\n[serve] signal {signal.Signals(signum).name}: draining...",
              flush=True)
        stop.set()

    def _rollover(signum, frame):
        # handlers must return fast; the probe/swap work runs off-thread
        threading.Thread(target=reload_all, args=(net,),
                         name="sighup-reload", daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    if hasattr(signal, "SIGHUP"):   # not on Windows; serve there sans reload
        signal.signal(signal.SIGHUP, _rollover)
    net.start()
    print(f"[serve] listening on {net.url} "
          f"(models: {', '.join(sorted(net.model_names()))})", flush=True)
    stop.wait()
    net.close(timeout=args.drain_timeout_s)
    print("[serve] drained, bye", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
