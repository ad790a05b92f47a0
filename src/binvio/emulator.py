"""Software stand-in for an on-sensor binary feature front end.

Takes a 256x256 grayscale frame and produces the two binary maps a host
would receive from the focal-plane array: an edge map (thresholded Sobel
magnitude) and a corner map (FAST segment test with non-maximum
suppression and budgeted selection).  An optional seeded bit-flip pass
models analog readout corruption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

MAP_SIZE = 256

# FAST-16 circle of radius 3, (row, col) offsets in circular order.
FAST_CIRCLE = np.array(
    [
        (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
        (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
    ],
    dtype=int,
)
FAST_ARC_LENGTH = 9
MAX_CORNER_POINTS = 800
CORNER_GRID_CELLS = 8
MAX_EDGE_THRESHOLD = 255 * 8  # largest Sobel |Gx| + |Gy| of 8-bit pixels
MAX_FLIP_RATE = 0.05


class MapKind(enum.Enum):
    CORNER = "corner"
    EDGE = "edge"


@dataclass
class GrayFrame:
    """8-bit intensity frame with a capture timestamp in seconds."""

    pixels: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (MAP_SIZE, MAP_SIZE):
            raise ValueError(f"frame must be {MAP_SIZE}x{MAP_SIZE}, got {self.pixels.shape}")


@dataclass
class BinaryMap:
    """Bit grid of detected features; ``bits`` holds 0/1 as uint8."""

    bits: np.ndarray
    kind: MapKind
    timestamp: float = 0.0

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.shape != (MAP_SIZE, MAP_SIZE):
            raise ValueError(f"map must be {MAP_SIZE}x{MAP_SIZE}, got {bits.shape}")
        self.bits = (bits != 0).astype(np.uint8)

    @classmethod
    def from_points(cls, points: np.ndarray, kind: MapKind, timestamp: float = 0.0) -> "BinaryMap":
        """Map with a bit at each (u, v) of ``points`` (N, 2), rounded; those off it are dropped."""
        px = np.rint(points).astype(int)
        px = px[((px >= 0) & (px < MAP_SIZE)).all(axis=1)]
        bits = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
        bits[px[:, 1], px[:, 0]] = 1
        return cls(bits, kind, timestamp)


def sobel_magnitude(pixels: np.ndarray) -> np.ndarray:
    """|Gx| + |Gy| of the 3x3 Sobel operator; border ring left at zero."""
    img = pixels.astype(np.int32)
    out = np.zeros_like(img)
    gx = (
        (img[:-2, 2:] + 2 * img[1:-1, 2:] + img[2:, 2:])
        - (img[:-2, :-2] + 2 * img[1:-1, :-2] + img[2:, :-2])
    )
    gy = (
        (img[2:, :-2] + 2 * img[2:, 1:-1] + img[2:, 2:])
        - (img[:-2, :-2] + 2 * img[:-2, 1:-1] + img[:-2, 2:])
    )
    out[1:-1, 1:-1] = np.abs(gx) + np.abs(gy)
    return out


def detect_edges(frame: GrayFrame, threshold: float) -> BinaryMap:
    """Binary edge map: set where Sobel |Gx|+|Gy| reaches ``threshold``."""
    if not 0.0 < threshold <= MAX_EDGE_THRESHOLD:
        raise ValueError(f"threshold must be in (0, {MAX_EDGE_THRESHOLD}]")
    bits = (sobel_magnitude(frame.pixels) >= threshold).astype(np.uint8)
    return BinaryMap(bits, MapKind.EDGE, frame.timestamp)


def _arc_table() -> np.ndarray:
    """Whether each 16-bit ring code holds FAST_ARC_LENGTH contiguous set bits."""
    # the codes with a run from bit s: the run and any other 7 bits, rotated left by s
    run = (1 << FAST_ARC_LENGTH) - 1
    codes = run | (np.arange(1 << (16 - FAST_ARC_LENGTH)) << FAST_ARC_LENGTH)
    table = np.zeros(1 << 16, dtype=bool)
    for s in range(16):
        table[((codes << s) | (codes >> (16 - s))) & 0xFFFF] = True
    return table


_ARC_TABLE = _arc_table()


def _fast_pass_and_score(pixels: np.ndarray, threshold: float):
    """Segment test over the whole frame.

    Returns (passes, score): boolean map of pixels with a contiguous arc of
    at least FAST_ARC_LENGTH circle pixels all brighter than center+t or all
    darker than center-t, and a contrast score used for suppression.

    One pass over the 16 ring offsets sets bit i of a uint16 "brighter" and
    a uint16 "darker" code per pixel.  The int16 comparisons use floor(t):
    for an integer difference d, d > t exactly when d > floor(t), and
    clamping floor(t) at 511 keeps center +- floor(t) inside int16.  Whether
    a code has its arc (wrapping around the ring) is one lookup in
    ``_ARC_TABLE``, built at import from the 16 rotations of a 9-bit run.
    Only the pixels that pass are scored, with the float terms summed in
    ring order.
    """
    img = pixels.astype(np.int16)
    h, w = img.shape
    m = 3
    center = img[m:h - m, m:w - m]
    t = int(min(np.floor(threshold), 511))
    above, below = center + t, center - t
    bright_code = np.zeros(center.shape, dtype=np.uint16)
    dark_code = np.zeros(center.shape, dtype=np.uint16)
    for i, (dr, dc) in enumerate(FAST_CIRCLE):
        ring = img[m + dr:h - m + dr, m + dc:w - m + dc]
        bright_code |= (ring > above).astype(np.uint16) << i
        dark_code |= (ring < below).astype(np.uint16) << i

    bright_corner = _ARC_TABLE[bright_code]
    dark_corner = _ARC_TABLE[dark_code]
    rows, cols = np.nonzero(bright_corner | dark_corner)
    bright, dark = bright_corner[rows, cols], dark_corner[rows, cols]
    at = (rows + m) * w + (cols + m)
    flat = img.ravel()
    diff = flat[at + (FAST_CIRCLE[:, :1] * w + FAST_CIRCLE[:, 1:])].astype(np.int32) - flat[at]
    terms_b = (diff - threshold) * (diff > threshold)
    terms_d = (diff + threshold) * (diff < -threshold)
    score_b = score_d = 0
    for term_b, term_d in zip(terms_b, terms_d):
        score_b = score_b + term_b
        score_d = score_d - term_d

    passes = np.zeros((h, w), dtype=bool)
    score = np.zeros((h, w), dtype=np.int64)
    passes.flat[at] = True
    score.flat[at] = np.where(bright, score_b, 0) + np.where(dark, score_d, 0)
    return passes, score


def suppress_non_maxima(passes: np.ndarray, score: np.ndarray) -> np.ndarray:
    """3x3 NMS with raster-order tie-break (the later pixel wins ties)."""
    s = np.where(passes, score, -1).astype(np.int64)
    h, w = s.shape
    keep = passes.copy()
    for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        # shifted[r, c] is the neighbour at (r - dr, c - dc)
        shifted = np.full_like(s, -1)
        rs = slice(max(0, dr), h + min(0, dr))
        cs = slice(max(0, dc), w + min(0, dc))
        rs_src = slice(max(0, -dr), h + min(0, -dr))
        cs_src = slice(max(0, -dc), w + min(0, -dc))
        shifted[rs, cs] = s[rs_src, cs_src]
        neighbour_earlier_in_raster = (dr, dc) > (0, 0)
        if neighbour_earlier_in_raster:
            keep &= s >= shifted
        else:
            keep &= s > shifted
    return keep


def _budgeted_selection(keep: np.ndarray, score: np.ndarray, max_points: int) -> np.ndarray:
    """Grid-bucketed top-N: strongest per cell first, then globally by score."""
    rows, cols = np.nonzero(keep)
    if rows.size <= max_points:
        return keep
    sc = score[rows, cols]
    cell = (rows // (MAP_SIZE // CORNER_GRID_CELLS)) * CORNER_GRID_CELLS + (
        cols // (MAP_SIZE // CORNER_GRID_CELLS)
    )
    # sort by (cell, -score, row, col); first entry per cell is its champion
    order = np.lexsort((cols, rows, -sc, cell))
    cell_sorted = cell[order]
    first_in_cell = np.ones(order.size, dtype=bool)
    first_in_cell[1:] = cell_sorted[1:] != cell_sorted[:-1]
    champions = order[first_in_cell]

    selected = list(champions[:max_points])
    remaining_budget = max_points - len(selected)
    if remaining_budget > 0:
        rest = order[~first_in_cell]
        rest_rank = np.lexsort((cols[rest], rows[rest], -sc[rest]))
        selected.extend(rest[rest_rank[:remaining_budget]])

    out = np.zeros_like(keep)
    sel = np.asarray(selected)
    out[rows[sel], cols[sel]] = True
    return out


def detect_corners(
    frame: GrayFrame, fast_threshold: float, max_points: int = MAX_CORNER_POINTS
) -> BinaryMap:
    """FAST corner map, suppressed and capped at ``max_points`` set bits."""
    if not 1 <= max_points <= MAX_CORNER_POINTS:
        raise ValueError(f"max_points must be in [1, {MAX_CORNER_POINTS}]")
    passes, score = _fast_pass_and_score(frame.pixels, fast_threshold)
    keep = suppress_non_maxima(passes, score)
    keep = _budgeted_selection(keep, score, max_points)
    return BinaryMap(keep.astype(np.uint8), MapKind.CORNER, frame.timestamp)


def inject_analog_noise(bmap: BinaryMap, flip_rate: float, seed: int) -> BinaryMap:
    """Flip each bit independently with probability ``flip_rate`` (seeded)."""
    if not 0.0 <= flip_rate <= MAX_FLIP_RATE:
        raise ValueError(f"flip_rate must be in [0, {MAX_FLIP_RATE}]")
    if flip_rate == 0.0:
        return BinaryMap(bmap.bits.copy(), bmap.kind, bmap.timestamp)
    rng = np.random.default_rng(seed)
    flips = rng.random(bmap.bits.shape) < flip_rate
    return BinaryMap(bmap.bits ^ flips.astype(np.uint8), bmap.kind, bmap.timestamp)
