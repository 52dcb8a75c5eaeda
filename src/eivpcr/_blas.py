"""One process-wide pin of numpy's bundled OpenBLAS to a single thread.

The CLI runs every command inside the pin, and the experiment runners run
their trials inside it, so their outputs do not depend on the process's
BLAS thread setting. Library calls outside them keep that setting.
"""
from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

import numpy as np


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when it cannot be found. Looked up on first use, not at import."""
    import ctypes
    import glob

    libs = os.path.dirname(np.__file__) + ".libs"
    for pattern in ("libscipy_openblas*", "libopenblas*"):
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        return get, put
    return None


# OpenBLAS's thread count is process-wide, so every caller shares one pin
_blas_lock = threading.Lock()
_blas_users = 0     # callers inside _single_threaded_blas
_blas_saved = None  # the count the first of them found


@contextmanager
def _single_threaded_blas():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    Nested and concurrent callers share the pin: the first to enter saves
    the count, the last to leave restores it, also when the body raises.
    Without the bundled OpenBLAS the body runs unpinned.
    """
    global _blas_users, _blas_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


def _blas_threads():
    """The BLAS thread count pinned code runs with, or None when unpinned."""
    return None if _openblas() is None else 1
