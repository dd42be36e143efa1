"""CPU policy of the engine: BLAS threads and the runner's worker pool.

Two knobs decide how many cores one batch uses: the BLAS library's own
thread count (each GEMM may fan out) and how many row chunks
:class:`~repro.engine.runner.InferenceRunner` runs side by side.  The
policy gives the runner only the cores BLAS leaves idle:

* :func:`runner_workers` — usable cores (``os.sched_getaffinity``) divided
  by the live OpenBLAS thread count, read through the library's ctypes
  getter symbols (the same ones ``cimbench/common.py`` reports); 1 when the
  count cannot be read;
* :func:`runner_pool` — a lazily created, per-process thread pool that runs
  every chunk of a split batch but the caller's own, with one thread fewer
  than the usable cores (threads start on demand, so a two-chunk split
  starts one).  A forked child starts without one: the parent's pool
  threads do not exist there, so a pool inherited across ``fork`` would
  queue work that no thread ever runs;
* :func:`blas_threads` / :func:`set_blas_threads` — the live OpenBLAS
  thread count, read and set through the library itself (setting
  ``OPENBLAS_NUM_THREADS`` only works before NumPy is imported);
* :func:`policy` — the three numbers above as one report, which
  :meth:`~repro.engine.server.PlanServer.stats_report` (and so
  ``/metrics``) carries as its ``cpu`` block.

:class:`~repro.engine.server.PlanServer` does not split batches: its shards
are its parallelism.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

__all__ = ["blas_threads", "set_blas_threads", "runner_workers",
           "runner_pool", "policy"]

_GETTERS = ("scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_", "openblas_set_num_threads")

#: (getter, setter) of the loaded OpenBLAS, looked up once per process.
_blas_calls: Optional[Tuple[object, object]] = None

_pool_creation_lock = threading.Lock()
#: This process's runner pool, or None until first use.
_pool: Optional[ThreadPoolExecutor] = None


def _blas_symbols() -> Tuple[object, object]:
    """The OpenBLAS thread getter and setter NumPy loaded (``None`` if absent).

    Scans the shared objects mapped into the process for one whose name
    mentions BLAS and that exports the OpenBLAS symbols.
    """
    global _blas_calls
    if _blas_calls is not None:
        return _blas_calls
    getter = setter = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "blas" in line and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter = next((getattr(lib, name) for name in _GETTERS
                       if hasattr(lib, name)), None)
        setter = next((getattr(lib, name) for name in _SETTERS
                       if hasattr(lib, name)), None)
        if getter is not None:
            getter.restype = ctypes.c_int
            break
    _blas_calls = (getter, setter)
    return _blas_calls


def blas_threads() -> Optional[int]:
    """The live OpenBLAS thread count, or ``None`` when it cannot be read."""
    getter, _ = _blas_symbols()
    if getter is None:
        return None
    threads = int(getter())
    return threads if threads > 0 else None


def set_blas_threads(threads: int) -> bool:
    """Set the OpenBLAS thread count of this process; False if unsupported.

    Takes effect at once, for every thread's later BLAS calls, even after
    NumPy is imported.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    _, setter = _blas_symbols()
    if setter is None:
        return False
    setter(ctypes.c_int(int(threads)))
    return True


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def runner_workers() -> int:
    """Row chunks one runner batch may run at once: cores ÷ BLAS threads.

    1 when the BLAS thread count cannot be read, so an unknown library never
    oversubscribes the machine.
    """
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, _usable_cores() // threads)


def policy() -> dict:
    """The CPU policy in effect in this process, as a JSON-ready dict.

    ``blas_threads`` is ``None`` when the count cannot be read.
    """
    return {"blas_threads": blas_threads(), "usable_cores": _usable_cores(),
            "runner_workers": runner_workers()}


def runner_pool() -> ThreadPoolExecutor:
    """This process's runner pool: one thread fewer than the usable cores.

    :func:`runner_workers` never exceeds the cores, so the pool always has
    a thread for every chunk beyond the caller's.  Created on first use,
    under a module lock (thread-safe); forked children start without one
    (see the module docstring).
    """
    global _pool
    with _pool_creation_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, _usable_cores() - 1),
                thread_name_prefix="repro-runner")
        return _pool


def _forget_pool() -> None:
    """Fork hook: the child has none of the parent's pool threads."""
    global _pool, _pool_creation_lock
    _pool = None
    _pool_creation_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
