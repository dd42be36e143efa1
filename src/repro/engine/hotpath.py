"""Hot-path registry and per-owner, thread-local workspace buffers.

Two tools for the engine's steady-state zero-allocation discipline,
enforced statically by ``tools/analyze`` (hot-path-allocation pass):

* :func:`hot_path` — a zero-overhead marker decorator.  A decorated
  function is *registered hot*: the analyzer forbids NumPy array
  constructors (``np.zeros/empty/concatenate`` and friends),
  comprehensions, and closure creation inside it.  Allocation must
  instead route through ``out=`` arguments or a :class:`ScratchTable`.

* :class:`ScratchTable` — keyed, thread-local, reusable buffers owned by
  one object (a model plan shares one across its layer plans).  Each key
  names one byte buffer that grows to the largest request seen; a call
  returns a ``(shape, dtype)`` view of it, so a steady-state serving loop
  stops allocating entirely, and layers that run one after another reuse
  the same memory instead of each holding their own.  Buffers are
  uninitialized on reuse, exactly like ``np.empty`` — the caller must
  fully overwrite before reading, and two requests for one key alias, so
  a view is dead once its key is requested again.  Thread-locality makes
  the buffers safe under the shard pool (each worker thread gets its own
  set) but also means a buffer must never escape to another thread: use a
  scratch array only for intermediates consumed before the function's
  caller returns, never for returned results.  Because the table lives on
  its owner, every thread's buffers are freed together with the owner.
"""

from __future__ import annotations

import math
import threading
from typing import Hashable, Tuple

import numpy as np


def hot_path(func):
    """Mark ``func`` as a hot path for the static analyzer; returns it as-is.

    Purely declarative — no wrapper, no call overhead.  The attribute
    ``__hot_path__`` is set for introspection and tests.
    """
    func.__hot_path__ = True
    return func


class ScratchTable(threading.local):
    """Reusable buffers of one owner, private to each calling thread.

    Call the table as ``table(key, shape, dtype)`` to get an array of
    exactly ``shape`` and ``dtype``: a view of the key's byte buffer, which
    is replaced by a larger one only when a request outgrows it.  Contents
    are undefined (like ``np.empty``), and every request for a key aliases
    the previous ones.

    Thread-safe by construction: a ``threading.local`` gives every thread
    a private buffer dict, so two shard workers never receive the same
    array.  The dicts die with the table, so an owner that holds its table
    in a field releases every thread's buffers when it is dropped.
    """

    def __init__(self):
        self.buffers = {}

    def __call__(self, key: Hashable, shape: Tuple[int, ...],
                 dtype) -> np.ndarray:
        """The calling thread's buffer for ``key``, grown to fit if needed.

        Thread-safe: each thread sees only its own buffers.
        """
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        buf = self.buffers.get(key)
        if buf is None or buf.nbytes < nbytes:
            buf = self.buffers[key] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def __len__(self) -> int:
        """Number of live buffers the calling thread holds in this table.

        Thread-safe: counts only the calling thread's buffers.
        """
        return len(self.buffers)

    def __reduce__(self):
        """Copies and pickles start empty, so their owners stay copyable.

        Thread-safe: reads no buffers.
        """
        return (ScratchTable, ())


__all__ = ["hot_path", "ScratchTable"]
