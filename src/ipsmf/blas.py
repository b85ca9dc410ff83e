"""One OpenBLAS thread for the matrix products whose bytes reach the outputs.

OpenBLAS splits a large product over its threads, whose kernels sum in
another order than its serial one, so the last bits of a product can depend
on the thread count, which defaults to the machine's cores. The products that
feed result tables run under :func:`one_blas_thread`, which calls OpenBLAS's
own thread-count entry points through ctypes on the library numpy loaded.
"""

import contextlib
import ctypes
import functools
import logging

logger = logging.getLogger(__name__)

# (get, set) thread-count entry points: those of the scipy-openblas that
# numpy's wheels bundle (64-bit integer build, then 32-bit), then those of a
# plain OpenBLAS, as distribution builds of numpy link
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _entry_points():
    """The (get, set) entry points of an OpenBLAS mapped into this process,
    found through the Linux process map; None, after a warning, elsewhere or
    when numpy uses another BLAS. Looked up once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _ENTRY_POINTS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    logger.warning(
        "no OpenBLAS thread-count entry point found: matrix products run at the BLAS "
        "library's own thread count, so their last bits may depend on the host"
    )
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread, then restore the
    previous count; without the entry points the body runs as it is."""
    found = _entry_points()
    if found is None:
        yield
        return
    get, set_ = found
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
