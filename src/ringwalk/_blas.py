"""The OpenBLAS thread count, read and limited for the length of a block.

numpy's OpenBLAS exports a getter and a setter of its thread count; they
are looked up once, on first use (never at import), through the library
numpy's linear algebra module links.  Where no such pair exists (MKL,
Accelerate, a renamed symbol) ``limited`` changes nothing and the count in
effect is reported as ``None``.
"""

import contextlib
import ctypes
import functools

# (getter, setter) names in the OpenBLAS builds numpy ships with
# (scipy-openblas, 64-bit interface) and in system builds.
_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _controls():
    """The (getter, setter) pair of the loaded OpenBLAS, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _NAMES:
        getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextlib.contextmanager
def limited(threads: int | None):
    """Run the block at ``threads`` BLAS threads, or at the current count if
    ``threads`` is None; restore the previous count afterwards.

    Yields the count in effect inside the block, None where it is unknown.
    The count is process-wide, so BLAS calls made meanwhile from other
    Python threads run at it too.
    """
    controls = _controls()
    if controls is None:
        yield None
        return
    getter, setter = controls
    previous = int(getter())
    if threads is None:
        yield previous
        return
    setter(threads)
    try:
        yield threads
    finally:
        setter(previous)
