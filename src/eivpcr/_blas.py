"""numpy's bundled OpenBLAS, found once, and one process-wide pin of it to
a single thread.

The CLI runs every command inside the pin, and the experiment runners run
their trials inside it, so their outputs do not depend on the process's
BLAS thread setting. Library calls outside them keep that setting.

The same lookup binds the library's LAPACK ``dgeqrf``, which
:func:`eivpcr.core._qr_r` calls through ``ctypes``: a ``ctypes.CDLL``
call releases the GIL, where ``numpy.linalg.qr`` holds it on small
matrices, and it runs the routine numpy's ``qr`` runs, with numpy's bits.
"""
from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np


class _OpenBlas(NamedTuple):
    """Functions of numpy's bundled OpenBLAS."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    # ILP64 LAPACK dgeqrf taking c_int64 arguments; None when the library
    # has no ILP64 symbol for it
    dgeqrf: Callable | None


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as an :class:`_OpenBlas`, or None when it
    cannot be found. Looked up on first use, not at import, and only once
    for the thread pin and ``dgeqrf`` together."""
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
                        return _OpenBlas(get, put, _bind_dgeqrf(lib))
    return None


def _bind_dgeqrf(lib):
    """``lib``'s ILP64 ``dgeqrf``, typed for ``ctypes``, or None."""
    import ctypes

    for name in ("scipy_dgeqrf_64_", "dgeqrf_64_"):
        geqrf = getattr(lib, name, None)
        if geqrf is not None:
            # Fortran's by-reference M, N, A, LDA, TAU, WORK, LWORK, INFO
            i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
            geqrf.argtypes = [i64, i64, ptr, i64, ptr, ptr, i64, i64]
            geqrf.restype = None
            return geqrf
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
    get, put = blas.get_threads, blas.set_threads
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
