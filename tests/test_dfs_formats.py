"""Matrix codecs: binary and text round trips, range reads, sizes, and
the fill-in-place payload contract."""

import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.dfs import formats
from repro.dfs.blocks import BlockStore

from conftest import spec_workloads


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
    @example(base=np.arange(12.0).reshape(3, 4), layout="c")
    @example(base=np.arange(12.0).reshape(3, 4), layout="transposed")
    @example(base=np.arange(30.0).reshape(5, 6), layout="col-strided")
    @example(base=np.arange(12, dtype=np.float32).reshape(4, 3), layout="c")
    @example(base=np.zeros((0, 4)), layout="c")
    @example(base=np.zeros((4, 0)), layout="c")
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


class TestNewMatrix:
    """``new_matrix``: a payload that carries its header and a writable view
    of its body, filled in place."""

    def test_body_is_a_writable_view_of_the_payload(self):
        payload, body = formats.new_matrix(3, 5)
        assert type(payload) is bytes and len(payload) == formats.binary_size_bytes(3, 5)
        assert payload[:16] == struct.pack("<4sIQ", b"RMX1", 5, 3)
        assert body.shape == (3, 5) and body.dtype == np.float64
        assert body.flags.writeable and body.flags.c_contiguous and body.flags.aligned
        body[...] = np.arange(15.0).reshape(3, 5)
        del body
        assert np.array_equal(formats.decode_matrix(payload), np.arange(15.0).reshape(3, 5))

    def test_body_keeps_the_payload_alive(self):
        payload, body = formats.new_matrix(2, 2)
        held = sys.getrefcount(payload)
        del body  # the view's base held one reference to the payload
        assert sys.getrefcount(payload) == held - 1

    def test_rejects_a_negative_shape(self):
        with pytest.raises(ValueError, match="negative"):
            formats.new_matrix(-1, 3)


class TestPayloadsStayAsWritten:
    """A payload filled in place is never written to after the DFS stores
    it: every block keeps the CRC-32 its payload had when it was written,
    until it is deleted and at the end of the call.  One ``invert`` per
    benchmark configuration, at its smoke order."""

    @pytest.mark.parametrize("workload", spec_workloads(), ids=lambda w: w.name)
    def test_every_stored_payload_keeps_its_written_crc(self, monkeypatch, workload):
        written, changed = {}, []
        write_block, delete_block = BlockStore.write_block, BlockStore.delete_block

        def check(store, info):
            for node in info.replicas:
                payload = store.datanodes[node].get(info.block_id)
                if payload is not None and zlib.crc32(payload) != written[info]:
                    changed.append(info.block_id)

        def recording_write(store, payload):
            info = write_block(store, payload)
            written[info] = zlib.crc32(payload)
            return info

        def checking_delete(store, info):
            if info in written:
                check(store, info)
                del written[info]
            delete_block(store, info)

        monkeypatch.setattr(BlockStore, "write_block", recording_write)
        monkeypatch.setattr(BlockStore, "delete_block", checking_delete)
        w = workload.smoke()
        a = np.random.default_rng(0).standard_normal((w.n, w.n))
        with repro.MatrixInverter(repro.InversionConfig(**w.config)) as inverter:
            if w.observed:
                with repro.observe():
                    inverter.invert(a)
            else:
                inverter.invert(a)
            store = inverter.runtime.dfs.blocks
            assert written  # the call's outcome set is still stored
            for info in list(written):
                check(store, info)
        assert changed == []


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
