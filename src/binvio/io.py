"""On-disk formats: binary map RLE, gray frame blobs, CSV streams, manifests.

Binary maps are run-length encoded per row with little-endian u16 lengths,
alternating zero-run first, behind the magic header ``TCBM1``.  Gray frames
are a float64 timestamp followed by the raw 65536-byte row-major image.  The
IMU stream is an (N, 7) float array whose columns are ``imu.csv``'s
``t, wx, wy, wz, ax, ay, az``.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

from .emulator import MAP_SIZE, BinaryMap, GrayFrame, MapKind

BINARY_MAP_MAGIC = b"TCBM1"
_HEADER_BYTES = 16  # magic, kind u8, timestamp f64, row count u16
_KIND_CODE = {MapKind.CORNER: 0, MapKind.EDGE: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class DatasetCorrupt(RuntimeError):
    """A dataset file failed to parse or is internally inconsistent."""


def encode_binary_map(bmap: BinaryMap) -> bytes:
    # runs alternate zero, one, zero, ... from the start of each row, so a
    # row that starts with a one gets a zero-length zero run first
    prev = np.zeros((MAP_SIZE, MAP_SIZE + 1), dtype=np.int8)
    prev[:, 1:] = bmap.bits
    rows, cols = np.nonzero(np.diff(prev, axis=1))  # where each run after a row's first starts
    n = np.bincount(rows, minlength=MAP_SIZE)
    above = np.cumsum(n) - n  # such starts in the rows above
    lengths = np.insert(cols, above + n, MAP_SIZE) - np.insert(cols, above, 0)
    # each row is a u16 run count followed by that many u16 run lengths
    words = np.insert(lengths, above + np.arange(MAP_SIZE), n + 1).astype("<u2")
    header = struct.pack("<BdH", _KIND_CODE[bmap.kind], bmap.timestamp, MAP_SIZE)
    return BINARY_MAP_MAGIC + header + words.tobytes()


def decode_binary_map(data: bytes) -> BinaryMap:
    if data[:5] != BINARY_MAP_MAGIC:
        raise DatasetCorrupt("bad binary map magic")
    if len(data) < _HEADER_BYTES or (len(data) - _HEADER_BYTES) % 2:
        raise DatasetCorrupt(f"binary map has a bad length {len(data)}")
    kind_code, timestamp = struct.unpack_from("<Bd", data, 5)
    (nrows,) = struct.unpack_from("<H", data, 14)
    if nrows != MAP_SIZE or kind_code not in _CODE_KIND:
        raise DatasetCorrupt("bad binary map header")
    # each row is a u16 run count followed by that many u16 run lengths
    words = np.frombuffer(data, dtype="<u2", offset=_HEADER_BYTES)
    word = words.item
    heads = []
    pos = 0
    for _ in range(MAP_SIZE):
        if pos >= words.size:
            raise DatasetCorrupt("binary map ends before its last row")
        heads.append(pos)
        pos += word(pos) + 1
    if pos != words.size:
        raise DatasetCorrupt("binary map rows do not end at the end of the data")
    runs = words[heads].astype(np.intp)
    if not runs.all():
        raise DatasetCorrupt("binary map row has no runs")
    is_run = np.ones(words.size, dtype=bool)
    is_run[heads] = False
    lengths = words[is_run].astype(np.intp)
    row_start = np.cumsum(runs) - runs
    if (np.add.reduceat(lengths, row_start) != MAP_SIZE).any():
        raise DatasetCorrupt("row runs do not sum to row width")
    # runs alternate zero, one, zero, ... from the start of each row
    values = (np.arange(lengths.size) - np.repeat(row_start, runs)) & 1
    bits = np.repeat(values.astype(np.uint8), lengths).reshape(MAP_SIZE, MAP_SIZE)
    return BinaryMap(bits, _CODE_KIND[kind_code], timestamp)


def save_binary_map(bmap: BinaryMap, path) -> None:
    Path(path).write_bytes(encode_binary_map(bmap))


def load_binary_map(path) -> BinaryMap:
    return decode_binary_map(Path(path).read_bytes())


def save_gray_frame(frame: GrayFrame, path) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<d", frame.timestamp))
        f.write(frame.pixels.tobytes())


def load_gray_frame(path) -> GrayFrame:
    data = Path(path).read_bytes()
    if len(data) != 8 + MAP_SIZE * MAP_SIZE:
        raise DatasetCorrupt(f"gray frame blob has wrong size {len(data)}")
    (timestamp,) = struct.unpack_from("<d", data, 0)
    pixels = np.frombuffer(data, dtype=np.uint8, offset=8).reshape(MAP_SIZE, MAP_SIZE)
    return GrayFrame(pixels.copy(), timestamp)


def write_imu_csv(samples: np.ndarray, path) -> None:
    """Write the (N, 7) IMU stream, one sample per line."""
    np.savetxt(path, samples, fmt="%.9f", delimiter=",", header="t,wx,wy,wz,ax,ay,az",
               comments="")


def read_imu_csv(path) -> np.ndarray:
    """The (N, 7) IMU stream.

    Raises DatasetCorrupt unless the file has at least two samples of seven
    columns, every value is finite and times strictly increase.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        raise DatasetCorrupt(f"bad imu csv: {e}") from e
    if len(data) < 2:
        raise DatasetCorrupt(f"imu csv has {len(data)} samples, needs at least 2")
    if data.shape[1] != 7:
        raise DatasetCorrupt(f"imu csv has {data.shape[1]} columns, needs 7")
    if not (np.isfinite(data).all() and (np.diff(data[:, 0]) > 0).all()):
        raise DatasetCorrupt("imu csv needs finite values and strictly increasing times")
    return data


def write_pose_csv(rows, path, extra_header: str = "") -> None:
    """Rows of (t, position(3), quat_xyzw(4)[, extras...])."""
    np.savetxt(path, rows, fmt="%.9f", delimiter=",",
               header="t,px,py,pz,qx,qy,qz,qw" + extra_header, comments="")


def read_pose_csv(path) -> np.ndarray:
    """Rows of t, px, py, pz, qx, qy, qz, qw, then any extra columns.

    Raises DatasetCorrupt unless the file parses, has at least one row and
    at least eight columns.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (ValueError, OSError) as e:
        raise DatasetCorrupt(f"bad pose csv {path}: {e}") from e
    if len(data) == 0:
        raise DatasetCorrupt(f"pose csv {path} has no rows")
    if data.shape[1] < 8:
        raise DatasetCorrupt(f"pose csv {path} needs 8 columns")
    return data


def write_manifest(entries: dict, path) -> None:
    with open(path, "w") as f:
        for k in sorted(entries):
            f.write(f"{k}={entries[k]}\n")


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetCorrupt(f"bad manifest line: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out
