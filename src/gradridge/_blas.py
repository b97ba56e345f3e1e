"""Run a block on one BLAS thread in every OpenBLAS copy loaded in-process.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's
``libscipy_openblas64_`` exports ``scipy_openblas_{get,set}_num_threads64_``
and scipy's ``libscipy_openblas`` the same names without the suffix. Both are
found by their mapped paths in ``/proc/self/maps``. gradridge loads scipy's
compiled kernels only where a run needs them, so scipy's copy may load while
the pin is active: ``linalg``, the one module that loads them (from scipy's
extension modules, without importing any scipy package), calls
``pin_new_copies`` once per extension module, after it loads and before any
of its kernels is handed out, which pins a copy that was not mapped when the
pin started and restores it with the others on exit. Where
no copy or symbol is found (another BLAS vendor, or no ``/proc``) the block
runs with BLAS left as it is.
"""

import ctypes
import os
import threading
from contextlib import contextmanager

MAPS = "/proc/self/maps"

_lock = threading.Lock()
# While one_blas_thread is active: by mapped path, each OpenBLAS copy it has
# seen, with the set function and saved thread count of a copy it pinned, or
# None for one without thread controls. None when no pin is active.
_pinned = None


def _paths():
    """The mapped paths of the OpenBLAS copies loaded in-process, sorted."""
    try:
        with open(MAPS, "r", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


def _controls(path):
    """(get, set) of the OpenBLAS copy at ``path``, or None if it cannot be
    opened or has no thread controls."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for suffix in ("64_", ""):
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
        if get is not None and put is not None:
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


def _copies():
    """{mapped path: (get, set)} for each OpenBLAS copy with thread controls."""
    return {path: controls for path in _paths() if (controls := _controls(path))}


def pin_new_copies():
    """Inside ``one_blas_thread``, set each OpenBLAS copy it has not seen yet
    to one thread, to be restored on exit; outside it, do nothing. Only a
    copy not seen yet is opened. ``linalg`` calls it after it loads each
    scipy extension module."""
    with _lock:
        if _pinned is None:
            return
        for path in _paths():
            if path not in _pinned:
                controls = _controls(path)
                if controls is not None:
                    get, put = controls
                    controls = (put, get())
                    put(1)
                _pinned[path] = controls


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
            for put, count in filter(None, _pinned.values()):
                put(count)
            _pinned = None
