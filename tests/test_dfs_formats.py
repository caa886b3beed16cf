"""Matrix codecs: binary and text round trips, range reads, sizes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dfs import formats


class TestBinaryCodec:
    def test_roundtrip(self, rng):
        m = rng.standard_normal((7, 11))
        assert np.array_equal(formats.decode_matrix(formats.encode_matrix(m)), m)

    def test_preserves_exact_doubles(self):
        m = np.array([[1e-300, -1e300], [np.pi, -0.0]])
        out = formats.decode_matrix(formats.encode_matrix(m))
        assert np.array_equal(out, m)
        assert np.signbit(out[1, 1])

    def test_empty_matrix(self):
        m = np.zeros((0, 5))
        out = formats.decode_matrix(formats.encode_matrix(m))
        assert out.shape == (0, 5)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            formats.encode_matrix(np.zeros(3))

    @pytest.mark.parametrize("encode", [formats.encode_matrix])
    def test_non_2d_sequence_reports_the_converted_shape(self, encode):
        with pytest.raises(ValueError, match=r"expected a 2-D array, got shape \(2,\)"):
            encode([1.0, 2.0])
        with pytest.raises(ValueError, match=r"got shape \(1, 1, 1\)"):
            encode([[[3.0]]])

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            formats.decode_matrix(b"XXXX" + b"\x00" * 32)

    def test_rejects_truncated_payload(self, rng):
        data = formats.encode_matrix(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError, match="elements"):
            formats.decode_matrix(data[:-8])

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError, match="header"):
            formats.decode_matrix(b"RM")


def _reference_encode(matrix) -> bytes:
    """The three-copy encoder ``encode_matrix`` replaced (reference)."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    return struct.pack("<4sIQ", b"RMX1", m.shape[1], m.shape[0]) + m.tobytes()


#: How a base array reaches the encoder: as is, Fortran-ordered, transposed,
#: row/column-strided, reversed, and as a read-only decoded view.
_LAYOUTS = {
    "c": lambda m: m,
    "fortran": np.asfortranarray,
    "transposed": lambda m: m.T,
    "row-strided": lambda m: m[::2],
    "col-strided": lambda m: m[:, 1::3],
    "reversed": lambda m: m[::-1, ::-1],
    "decoded": lambda m: formats.decode_matrix(_reference_encode(m)),
}


class TestEncodeCopiesOnce:
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(
            [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
        ).flatmap(
            lambda dtype: arrays(
                dtype,
                st.tuples(st.integers(0, 7), st.integers(0, 7)),
                elements=st.floats(-1e6, 1e6, width=32)
                if np.issubdtype(dtype, np.floating)
                else None,
            )
        ),
        layout=st.sampled_from(sorted(_LAYOUTS)),
    )
    def test_bytes_identical_to_the_three_copy_encoder(self, base, layout):
        m = _LAYOUTS[layout](base)
        data = formats.encode_matrix(m)
        assert type(data) is bytes
        assert data == _reference_encode(m)
        decoded = formats.decode_matrix(data)
        assert decoded.shape == m.shape
        assert np.array_equal(decoded, np.asarray(m, dtype=np.float64))
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[...] = 0.0

    def test_payload_does_not_alias_the_source(self, rng):
        m = rng.standard_normal((5, 4))
        kept = m.copy()
        data = formats.encode_matrix(m)
        m[:] = 0.0
        assert np.array_equal(formats.decode_matrix(data), kept)


class TestDfsHelpers:
    def test_write_read(self, dfs, rng):
        m = rng.standard_normal((6, 6))
        formats.write_matrix(dfs, "/m", m)
        assert np.array_equal(formats.read_matrix(dfs, "/m"), m)

    def test_matrix_shape_reads_header_only(self, dfs, rng):
        m = rng.standard_normal((9, 4))
        formats.write_matrix(dfs, "/m", m)
        before = dfs.stats.snapshot()
        assert formats.matrix_shape(dfs, "/m") == (9, 4)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read == 16  # header only

    def test_read_rows_range(self, dfs, rng):
        m = rng.standard_normal((10, 3))
        formats.write_matrix(dfs, "/m", m)
        got = formats.read_rows(dfs, "/m", 2, 7)
        assert np.array_equal(got, m[2:7])

    def test_read_rows_reads_fewer_bytes(self, dfs, rng):
        m = rng.standard_normal((100, 20))
        formats.write_matrix(dfs, "/m", m)
        before = dfs.stats.snapshot()
        formats.read_rows(dfs, "/m", 0, 10)
        delta = dfs.stats.snapshot() - before
        assert delta.bytes_read < m.nbytes / 5

    def test_read_rows_bounds_checked(self, dfs, rng):
        formats.write_matrix(dfs, "/m", rng.standard_normal((5, 5)))
        with pytest.raises(ValueError):
            formats.read_rows(dfs, "/m", 3, 9)


class TestSizes:
    def test_binary_size_formula(self):
        assert formats.binary_size_bytes(10, 10) == 16 + 800

    def test_text_larger_than_binary(self):
        """Table 3: text representation is ~2.5x the binary one."""
        from repro.workloads.suite import TEXT_BYTES_PER_ELEMENT

        text = TEXT_BYTES_PER_ELEMENT * 50 * 50
        binary = formats.binary_size_bytes(50, 50)
        assert text > 1.5 * binary
