import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binvio.emulator import MAP_SIZE, BinaryMap, MapKind
from binvio.io import BINARY_MAP_MAGIC, DatasetCorrupt, decode_binary_map, encode_binary_map

HEADER_BYTES = 16
KIND_CODE = {MapKind.CORNER: 0, MapKind.EDGE: 1}


def reference_encode(bmap):
    """Row-by-row encoder: the format written out one row at a time, as a reference."""
    flat = bmap.bits.ravel()
    # run boundaries: value changes, plus forced breaks at row starts
    change = np.nonzero(np.diff(flat.astype(np.int8)))[0] + 1
    row_starts = np.arange(1, MAP_SIZE) * MAP_SIZE
    bounds = np.unique(np.concatenate([[0], change, row_starts, [flat.size]]))
    lengths = np.diff(bounds).astype(np.uint16)
    starts = bounds[:-1]
    runs_per_row = np.bincount(starts // MAP_SIZE, minlength=MAP_SIZE)
    first_vals = flat[starts]
    out = bytearray(BINARY_MAP_MAGIC)
    out += struct.pack("<Bd", KIND_CODE[bmap.kind], bmap.timestamp)
    out += struct.pack("<H", MAP_SIZE)
    idx = 0
    for r in range(MAP_SIZE):
        n = int(runs_per_row[r])
        row = lengths[idx:idx + n]
        if first_vals[idx] == 1:
            # a zero run is implied first: a leading one needs a zero-length one
            row = np.concatenate([[0], row]).astype(np.uint16)
        idx += n
        out += struct.pack("<H", len(row))
        out += row.astype("<u2").tobytes()
    return bytes(out)


@st.composite
def binary_maps(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    fill = draw(st.sampled_from(["random", "zeros", "ones", "leading-ones"]))
    rng = np.random.default_rng(seed)
    if fill == "zeros":
        bits = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
    elif fill == "ones":
        bits = np.ones((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
    else:
        density = draw(st.floats(0.0, 1.0))
        bits = (rng.random((MAP_SIZE, MAP_SIZE)) < density).astype(np.uint8)
        if fill == "leading-ones":
            bits[rng.random(MAP_SIZE) < 0.5, 0] = 1
    kind = draw(st.sampled_from(list(MapKind)))
    timestamp = draw(st.floats(allow_nan=False))
    return BinaryMap(bits, kind, timestamp)


def sample_encoded(seed=0):
    rng = np.random.default_rng(seed)
    bits = (rng.random((MAP_SIZE, MAP_SIZE)) < 0.1).astype(np.uint8)
    bits[::3, 0] = 1  # rows that begin with a one run
    return encode_binary_map(BinaryMap(bits, MapKind.EDGE, 1.25))


class TestBinaryMapCodec:
    @given(binary_maps())
    def test_matches_reference_encoder(self, bmap):
        assert encode_binary_map(bmap) == reference_encode(bmap)

    @given(binary_maps())
    def test_round_trip(self, bmap):
        out = decode_binary_map(encode_binary_map(bmap))
        assert out.kind is bmap.kind
        assert struct.pack("<d", out.timestamp) == struct.pack("<d", bmap.timestamp)
        assert out.bits.dtype == np.uint8
        np.testing.assert_array_equal(out.bits, bmap.bits)

    @pytest.mark.parametrize("keep", [0, 4, 10, HEADER_BYTES, HEADER_BYTES + 1,
                                      HEADER_BYTES + 2, 1000, -3, -2, -1])
    def test_truncated_raises(self, keep):
        data = sample_encoded()
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(data[:keep] if keep >= 0 else data[:len(data) + keep])

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00\x00", b"\x01\x00\x00\x01"])
    def test_trailing_bytes_raise(self, extra):
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(sample_encoded() + extra)

    def test_bad_magic_raises(self):
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(b"XCBM1" + sample_encoded()[5:])

    def test_bad_header_raises(self):
        data = bytearray(sample_encoded())
        data[5] = 7  # unknown kind code
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(bytes(data))

    def test_bad_row_sum_raises(self):
        # all-zero map: every row is one zero run of the full width
        data = bytearray(encode_binary_map(
            BinaryMap(np.zeros((MAP_SIZE, MAP_SIZE)), MapKind.CORNER)))
        offset = HEADER_BYTES + 4 * 7 + 2  # run length of row 7
        struct.pack_into("<H", data, offset, MAP_SIZE - 1)
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(bytes(data))

    def test_row_sum_overflow_raises(self):
        # two runs whose u16 sum wraps to the row width must not pass
        zeros = encode_binary_map(BinaryMap(np.zeros((MAP_SIZE, MAP_SIZE)), MapKind.CORNER))
        row = struct.pack("<3H", 2, 65535, MAP_SIZE + 1)
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(zeros[:HEADER_BYTES] + row + zeros[HEADER_BYTES + 4:])

    @pytest.mark.parametrize("row", [0, 100, MAP_SIZE - 1])
    def test_empty_row_raises(self, row):
        # 256 rows that end with the data, one of which claims no runs
        full = struct.pack("<2H", 1, MAP_SIZE)
        rows = [full] * MAP_SIZE
        rows[row] = struct.pack("<H", 0)
        zeros = encode_binary_map(BinaryMap(np.zeros((MAP_SIZE, MAP_SIZE)), MapKind.CORNER))
        with pytest.raises(DatasetCorrupt):
            decode_binary_map(zeros[:HEADER_BYTES] + b"".join(rows))
