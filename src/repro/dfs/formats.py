"""Matrix serialization for DFS files.

One codec: a 16-byte header (magic, cols, rows) followed by row-major
little-endian float64 data.  The input ``Root/a.bin`` and every intermediate
pipeline file use it; it is the "binary (GB)" column of Table 3.

Row-range readers let a mapper fetch only its share of rows — Section 5.2's
"each map function reads an equal number of consecutive rows ... to increase
I/O sequentiality".

A writer that computes a matrix fills the file's payload in place
(:func:`new_matrix`): the bytes object the DFS stores is allocated once,
with its header, and the task's last pass over the result writes it.
"""

from __future__ import annotations

import ctypes
import struct

import numpy as np

from .filesystem import DFS

_MAGIC = b"RMX1"
_HEADER = struct.Struct("<4sIQ")  # magic, cols, rows


# -- binary codec -------------------------------------------------------------


def _bind(name: str, argtypes: list, restype):
    fn = ctypes.pythonapi[name]  # a private function object: no shared argtypes
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


# PyBytes_FromStringAndSize(NULL, n): a new bytes object whose n bytes are
# uninitialised; its creator may write them until the object is shared.
_NEW_BYTES = _bind(
    "PyBytes_FromStringAndSize", [ctypes.c_void_p, ctypes.c_ssize_t], ctypes.py_object
)
_BYTES_ADDRESS = _bind("PyBytes_AsString", [ctypes.py_object], ctypes.c_void_p)


class _Body:
    """The base of :func:`new_matrix`'s ``body``: the payload's float64 data
    by address, holding the payload so that it outlives every view."""

    __slots__ = ("payload", "__array_interface__")

    def __init__(self, payload: bytes, address: int, rows: int, cols: int) -> None:
        self.payload = payload
        self.__array_interface__ = {
            "data": (address, False),
            "shape": (rows, cols),
            "typestr": "<f8",
            "version": 3,
        }


def new_matrix(rows: int, cols: int) -> tuple[bytes, np.ndarray]:
    """A ``rows x cols`` matrix file to be filled in place: ``(payload, body)``.

    ``payload`` is a new ``bytes`` object of ``16 + 8 rows cols`` bytes that
    already carries the header; ``body`` is a writable C-ordered float64
    view of the rest, uninitialised.  Fill ``body``, drop it, then write
    ``payload``: from then on it is an ordinary immutable ``bytes``, shared by
    the block store, the cache and every decoded view.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix shape {rows}x{cols}")
    header = _HEADER.pack(_MAGIC, cols, rows)
    payload = _NEW_BYTES(None, _HEADER.size + 8 * rows * cols)
    address = _BYTES_ADDRESS(payload)
    ctypes.memmove(address, header, _HEADER.size)
    return payload, np.asarray(_Body(payload, address + _HEADER.size, rows, cols))


def encode_matrix(matrix: np.ndarray) -> bytes:
    """Serialize a 2-D array to the binary matrix format (as float64).

    The source is read once, strided or not, straight into the payload."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    payload, body = new_matrix(*m.shape)
    body[...] = m
    return payload


def decode_matrix(data: bytes, *, writable: bool = False) -> np.ndarray:
    """Inverse of :func:`encode_matrix`.

    By default the result is a *read-only view* over ``data``'s buffer — no
    copy is made, which is what lets the decoded-block cache share one array
    between every task in a wave.  Callers that mutate the matrix in place
    must pass ``writable=True`` to get a private copy.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated matrix file: missing header")
    magic, cols, rows = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad matrix magic {magic!r}")
    body = np.frombuffer(data, dtype=np.float64, offset=_HEADER.size)
    if body.size != rows * cols:
        raise ValueError(
            f"matrix payload has {body.size} elements, header says {rows}x{cols}"
        )
    view = body.reshape(rows, cols)
    return view.copy() if writable else view


def write_matrix(dfs: DFS, path: str, matrix: np.ndarray) -> None:
    """Write a matrix to ``path`` in binary format."""
    dfs.write_bytes(path, encode_matrix(matrix))


def read_matrix(dfs: DFS, path: str, *, local: bool = False) -> np.ndarray:
    """Read a whole binary matrix file."""
    return decode_matrix(dfs.read_bytes(path, local=local))


def matrix_shape(dfs: DFS, path: str) -> tuple[int, int]:
    """Read only the header of a binary matrix file (rows, cols)."""
    head = dfs.read_range(path, 0, _HEADER.size)
    magic, cols, rows = _HEADER.unpack_from(head)
    if magic != _MAGIC:
        raise ValueError(f"bad matrix magic {magic!r}")
    return rows, cols


def read_rows(
    dfs: DFS, path: str, r1: int, r2: int, *, local: bool = False,
    writable: bool = False,
) -> np.ndarray:
    """Read rows ``[r1, r2)`` of a binary matrix file without fetching the rest.

    This is the range-read a mapper issues for its contiguous row share.
    Like :func:`decode_matrix`, the result is a read-only view over the
    fetched bytes unless ``writable=True``.
    """
    rows, cols = matrix_shape(dfs, path)
    if not (0 <= r1 <= r2 <= rows):
        raise ValueError(f"row range [{r1}, {r2}) out of bounds for {rows} rows")
    row_bytes = cols * 8
    offset = _HEADER.size + r1 * row_bytes
    data = dfs.read_range(path, offset, (r2 - r1) * row_bytes, local=local)
    view = np.frombuffer(data, dtype=np.float64).reshape(r2 - r1, cols)
    return view.copy() if writable else view


def binary_size_bytes(n_rows: int, n_cols: int) -> int:
    """Size of a binary matrix file for the given order (Table 3's "Binary")."""
    return _HEADER.size + n_rows * n_cols * 8
