"""Run a block on one BLAS thread in every OpenBLAS copy loaded in-process.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's
``libscipy_openblas64_`` exports ``scipy_openblas_{get,set}_num_threads64_``
and scipy's ``libscipy_openblas`` the same names without the suffix. Both are
found by their mapped paths in ``/proc/self/maps``. gradridge loads scipy's
compiled kernels only where a run needs them, so scipy's copy may load while
the pin is active: ``linalg``, the one module that loads them (from scipy's
extension modules, without importing ``scipy.linalg``), calls
``pin_new_copies`` before it hands each out, which pins a copy that was not
mapped when the pin started and restores it with the others on exit. Where
no copy or symbol is found (another BLAS vendor, or no ``/proc``) the block
runs with BLAS left as it is.
"""

import ctypes
import os
import threading
from contextlib import contextmanager

MAPS = "/proc/self/maps"

_lock = threading.Lock()
# While one_blas_thread is active: the set function and saved thread count of
# each copy it pinned, by mapped path. None when no pin is active.
_pinned = None


def _copies():
    """{mapped path: (get, set)} for each OpenBLAS copy with thread controls."""
    try:
        with open(MAPS, "r", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return {}
    paths = {f[5].strip() for f in fields if len(f) == 6}
    copies = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                copies[path] = (get, put)
                break
    return copies


def pin_new_copies():
    """Inside ``one_blas_thread``, set each OpenBLAS copy it has not pinned yet
    to one thread, to be restored on exit; outside it, do nothing. ``linalg``
    calls it after it loads each scipy kernel."""
    with _lock:
        if _pinned is None:
            return
        for path, (get, put) in _copies().items():
            if path not in _pinned:
                _pinned[path] = (put, get())
                put(1)


@contextmanager
def one_blas_thread():
    """Set each OpenBLAS copy, including one loaded inside the block, to one
    thread, and restore its count on exit. Not reentrant."""
    global _pinned
    with _lock:
        _pinned = {}
    pin_new_copies()
    try:
        yield
    finally:
        with _lock:
            for put, count in _pinned.values():
                put(count)
            _pinned = None
