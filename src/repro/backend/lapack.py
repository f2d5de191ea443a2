"""Host LAPACK routines by name, bound with :mod:`ctypes`.

The solve path calls a few LAPACK routines NumPy does not wrap (the
band-reduction panels' ``?geqrt``, the divide-and-conquer merge's
``dlaed9``).  :func:`lapack_function` finds them in the OpenBLAS NumPy
itself links: ``dlsym`` on the handle of NumPy's LAPACK extension also
searches the libraries it depends on, so the lookup needs no file path.
Only the ILP64 ``scipy_<name>_64_`` symbols are used: their integer width
is part of their name.  Where NumPy lacks the symbol, the routine's
capsule in ``scipy.linalg.cython_lapack`` (LP64, imported then, lazily)
is used instead, so the solve path imports no scipy.

Every LAPACK argument is a pointer, so the returned function takes
``nargs`` addresses: ``array.ctypes.data`` for arrays and
``ctypes.byref`` of a scalar of the returned integer type (or of a
``c_double``) for scalars.  The GIL is released during a call.
"""

from __future__ import annotations

import ctypes
import functools

__all__ = ["lapack_function"]


def _numpy_symbol(name: str, nargs: int):
    """``(fn, c_int64)`` for ``name`` from NumPy's OpenBLAS, or ``None``."""
    try:
        from numpy.linalg import _umath_linalg

        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_{name}_64_")
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_void_p] * nargs
    fn.restype = None
    return fn, ctypes.c_int64


def _scipy_capsule(name: str, nargs: int):
    """``(fn, c_int32)`` for ``name`` from ``scipy.linalg.cython_lapack``."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule = __pyx_capi__[name]
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    addr = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(addr), ctypes.c_int32


@functools.cache
def lapack_function(name: str, nargs: int):
    """``(fn, integer type)`` for the LAPACK routine ``name`` (e.g.
    ``"dgeqrt"``) of ``nargs`` arguments: NumPy's OpenBLAS, else scipy."""
    return _numpy_symbol(name, nargs) or _scipy_capsule(name, nargs)
