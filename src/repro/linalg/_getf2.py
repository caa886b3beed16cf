"""LAPACK's unblocked LU, ``dgetf2``, from the OpenBLAS numpy already loads.

numpy's wheels link ``scipy-openblas`` with 64-bit integers, which exports
``scipy_dgetf2_64_``.  Opening numpy's own LAPACK extension with ``ctypes``
returns the process's existing handle, and symbol lookup through it searches
the libraries it links, so nothing new is loaded and scipy is not imported.
The symbol is looked up once, at import; :data:`DGETF2` is ``None`` where it
is absent (Accelerate, MKL or a system BLAS), and :func:`getf2` must then
not be called.
"""

from __future__ import annotations

import ctypes

import numpy as np

_INT_P = ctypes.POINTER(ctypes.c_int64)


def _bind():
    try:
        from numpy.linalg import _umath_linalg

        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dgetf2_64_
    except (ImportError, OSError, AttributeError):
        return None
    # dgetf2(M, N, A, LDA, IPIV, INFO), every argument by reference.
    # Undeclared, ctypes would pass the array addresses as C ints.
    fn.argtypes = [_INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P]
    fn.restype = None
    return fn


DGETF2 = _bind()


def getf2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor the square ``a`` in a Fortran-order float64 copy.

    Returns ``(lu, ipiv)``: the packed factors (Fortran order) and LAPACK's
    1-based sequential row swaps (row ``i`` was swapped with ``ipiv[i] - 1``
    at step ``i``).  ``dgetf2`` runs to the end through exact zero pivots,
    so the caller inspects ``U``'s diagonal rather than ``INFO``.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    n = lu.shape[0]
    ipiv = np.empty(n, dtype=np.int64)
    order = ctypes.c_int64(n)
    info = ctypes.c_int64(0)
    if n:
        DGETF2(
            ctypes.byref(order),
            ctypes.byref(order),
            lu.ctypes.data,
            ctypes.byref(order),
            ipiv.ctypes.data,
            ctypes.byref(info),
        )
    return lu, ipiv
