"""Who owns the cores: the worker count, the BLAS governor and ``fan_out``.

One policy serves every parallel path. ``fan_out`` runs independent tasks
on a pool of threads, each task on one OpenBLAS thread, so the pool owns
the cores and a task's bits do not depend on the BLAS thread count. Only
the replicate pool and the blocks of the concentration checks fan out,
each from the top level of a command, never from inside another fan-out.
``openblas_functions`` finds numpy's OpenBLAS symbols, for the governor
and for the LAPACK routines that ``eigen`` calls directly.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import ConfigInvalid


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def default_workers() -> int:
    """SPIKED_EIG_THREADS, else the CPUs this process may run on."""
    env = os.environ.get("SPIKED_EIG_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigInvalid(f"SPIKED_EIG_THREADS={env!r} is not an integer >= 1")
        return workers
    return _cpus()


def pool_workers(workers: int | None = None) -> int:
    """The threads a fan-out may start: ``workers`` (default ``default_workers()``), at most the CPUs."""
    return min(default_workers() if workers is None else workers, _cpus())


# How numpy's OpenBLAS builds name a symbol: prefix + name + suffix, where
# a Fortran name ends in "_" and the suffix "64_" marks 64-bit integers.
_OPENBLAS_NAMINGS = (
    ("scipy_", "64_", ctypes.c_int64),
    ("", "64_", ctypes.c_int64),
    ("", "", ctypes.c_int),
)


def openblas_functions(*names) -> tuple:
    """``(integer type, [function, ...])`` for ``names`` in numpy's OpenBLAS.

    Takes the first naming in ``_OPENBLAS_NAMINGS`` that exports every name.
    Raises LookupError, with the reason, where none does.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError) as exc:
        raise LookupError(f"cannot open numpy's LAPACK module: {exc}") from None
    for prefix, suffix, integer in _OPENBLAS_NAMINGS:
        symbols = [prefix + name + suffix for name in names]
        if all(hasattr(lib, symbol) for symbol in symbols):
            return integer, [getattr(lib, symbol) for symbol in symbols]
    raise LookupError(f"numpy's BLAS exports no OpenBLAS {' / '.join(names)}")


# The BLAS governor. The OpenBLAS setting is process-global: the first
# entrant saves the count and sets 1, the last one out restores it.
#: Why the governor does nothing (numpy's BLAS is not OpenBLAS), else None.
blas_unpinned_reason: str | None = None
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@functools.cache
def _blas_controls() -> tuple:
    """numpy's OpenBLAS (get, set) thread-count functions; () if none resolves."""
    global blas_unpinned_reason
    try:
        _, (get, set_) = openblas_functions("openblas_get_num_threads", "openblas_set_num_threads")
    except LookupError as exc:
        blas_unpinned_reason = str(exc)
        return ()
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, set_


def blas_threads() -> int | None:
    """numpy's current OpenBLAS thread count; None where it cannot be read."""
    controls = _blas_controls()
    return controls[0]() if controls else None


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread; nests, and is safe across threads."""
    global _blas_depth, _blas_saved
    controls = _blas_controls()
    with _blas_lock:
        if controls and _blas_depth == 0:
            _blas_saved = controls[0]()
            controls[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if controls and _blas_depth == 0:
                controls[1](_blas_saved)


def fan_out(fn, items, workers: int | None = None) -> list:
    """``[fn(item) for item in items]``, on a pool of threads each on one BLAS thread.

    ``workers`` caps the pool (default ``default_workers()``), and so do
    the items and the CPUs (``pool_workers``).
    """
    items = list(items)
    workers = min(len(items), pool_workers(workers))
    with one_blas_thread():
        if workers <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
