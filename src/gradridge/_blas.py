"""Run a block on one BLAS thread in every OpenBLAS copy loaded in-process.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's
``libscipy_openblas64_`` exports ``scipy_openblas_{get,set}_num_threads64_``
and scipy's ``libscipy_openblas`` the same names without the suffix. Both are
found by their mapped paths in ``/proc/self/maps``, so the pin must run after
numpy and scipy are imported. Where no copy or symbol is found (another BLAS
vendor, or no ``/proc``) the block runs with BLAS left as it is.
"""

import ctypes
import os
from contextlib import contextmanager

MAPS = "/proc/self/maps"


def _thread_controls():
    """(get, set) thread-count functions of each OpenBLAS copy found."""
    try:
        with open(MAPS, "r", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    controls = []
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
                controls.append((get, put))
                break
    return controls


@contextmanager
def one_blas_thread():
    """Set each OpenBLAS copy to one thread, and restore its count on exit."""
    saved = [(put, get()) for get, put in _thread_controls()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)
