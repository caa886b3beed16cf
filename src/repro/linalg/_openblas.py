"""Compiled leaf kernels from the OpenBLAS numpy already loads: LAPACK's
unblocked LU ``dgetf2`` and BLAS's triangular solve ``dtrsm``.

numpy's wheels link ``scipy-openblas`` with 64-bit integers, which exports
``scipy_dgetf2_64_`` and ``scipy_dtrsm_64_``.  Opening numpy's own LAPACK
extension with ``ctypes`` returns the process's existing handle, and symbol
lookup through it searches the libraries it links, so nothing new is loaded
and scipy is not imported.  The library is opened once and each symbol looked
up once, at import; :data:`DGETF2` / :data:`DTRSM` is ``None`` where it is
absent (Accelerate, MKL or a system BLAS), and :func:`getf2` / :func:`trsm`
must then not be called.
"""

from __future__ import annotations

import ctypes

import numpy as np

_INT_P = ctypes.POINTER(ctypes.c_int64)


def _library():
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


def _bind(lib, name: str, argtypes: list):
    fn = getattr(lib, name, None)
    if fn is not None:
        # Every argument is passed by reference.  Undeclared, ctypes would
        # pass the array addresses as C ints.
        fn.argtypes = argtypes
        fn.restype = None
    return fn


_LIB = _library()

# dgetf2(M, N, A, LDA, IPIV, INFO)
DGETF2 = _bind(
    _LIB, "scipy_dgetf2_64_", [_INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P]
)

# dtrsm(SIDE, UPLO, TRANSA, DIAG, M, N, ALPHA, A, LDA, B, LDB)
DTRSM = _bind(
    _LIB,
    "scipy_dtrsm_64_",
    [ctypes.c_char_p] * 4
    + [_INT_P, _INT_P, ctypes.POINTER(ctypes.c_double)]
    + [ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P],
)


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


_ONE = ctypes.c_double(1.0)


def _fortran(a: np.ndarray) -> tuple[int, bool] | None:
    """``a``'s memory as a Fortran matrix: ``(ld, transposed)``, where
    Fortran sees ``a.T`` when ``a``'s rows are contiguous and ``a`` when its
    columns are, with leading dimension ``ld``; ``None`` when neither holds
    (a broadcast or a step along both axes).  A stride along an axis of
    length one is never used, and the leading dimension of a one-row
    (one-column) operand is only required to be at least its width
    (height)."""
    m, n = a.shape
    s0, s1 = a.strides
    if s1 == 8 or n == 1:
        ld = s0 // 8 if m > 1 else n
        if m == 1 or (s0 > 0 and s0 % 8 == 0 and ld >= n):
            return max(ld, 1), True
    if s0 == 8 or m == 1:
        ld = s1 // 8 if n > 1 else m
        if n == 1 or (s1 > 0 and s1 % 8 == 0 and ld >= m):
            return max(ld, 1), False
    return None


def trsm(
    t: np.ndarray, b: np.ndarray, unit_diagonal: bool = False, transpose: bool = False
) -> None:
    """Overwrite the float64 ``r x k`` array ``b`` with ``T^-1 b`` (with
    ``transpose``, ``T^-T b``), ``T`` the lower triangle of the ``r x r``
    float64 ``t`` — its diagonal taken as ones with ``unit_diagonal`` —
    in one ``dtrsm`` call.

    Only that triangle of ``t`` is read, so ``t`` may be a read-only view,
    C- or Fortran-ordered.  Row-major ``T X = B`` is ``X^T T^T = B^T`` in
    Fortran terms, so ``b`` (rows contiguous) is the right-hand side of
    ``side='R'``: ``T`` with contiguous rows is Fortran's upper ``A`` with
    ``transa='N'``; a transposed view is Fortran's lower ``A`` with
    ``transa='T'``.  ``dtrsm`` checks nothing; the caller checks the
    diagonal.
    """
    r, k = b.shape
    if t.shape != (r, r) or t.dtype != np.float64 or b.dtype != np.float64:
        raise ValueError(f"trsm needs float64 r x r and r x k, got {t.shape} and {b.shape}")
    if not b.flags.writeable:
        raise ValueError("trsm overwrites b, which is read-only")
    if not (r and k):
        return
    layout = _fortran(b)
    if layout is None or not layout[1] or not b.flags.aligned:
        x = np.ascontiguousarray(b)
        trsm(t, x, unit_diagonal, transpose)
        b[...] = x
        return
    ldb = layout[0]
    layout = _fortran(t)
    if layout is None or not t.flags.aligned:
        t = np.ascontiguousarray(t)
        layout = _fortran(t)
    lda, rows = layout
    DTRSM(
        b"R",
        b"U" if rows else b"L",
        b"T" if rows == transpose else b"N",
        b"U" if unit_diagonal else b"N",
        ctypes.byref(ctypes.c_int64(k)),
        ctypes.byref(ctypes.c_int64(r)),
        ctypes.byref(_ONE),
        t.__array_interface__["data"][0],
        ctypes.byref(ctypes.c_int64(lda)),
        b.__array_interface__["data"][0],
        ctypes.byref(ctypes.c_int64(ldb)),
    )
