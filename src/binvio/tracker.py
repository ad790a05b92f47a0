"""Host-side visual front end: edge feathering and corner-seeded KLT.

The tracker never looks at grayscale imagery.  Binary edges are mapped to
intensity 128 and blurred with a normalized Gaussian ("feathering"), and
Lucas-Kanade runs on that smooth field, seeded at the binary corner
locations.  The track table holds live tracks only, and a track is in the
filter's state when ``FilterState.slam`` holds a landmark under its id.

Coordinates are ``(u, v)`` pixels with ``u`` along columns; map arrays are
indexed ``[v, u]``.

Sampling: a tracking window is a unit-spaced grid, so all of its samples
share one sub-pixel fraction, and bilinear sampling is a 4-tap blend of one
integer ``(window + 1)``-square patch gathered through a strided view of
the map.  The template, its central-difference gradients and its Hessian
are formed once per track from the previous map (the fixed template of
Baker & Matthews, "Lucas-Kanade 20 Years On", IJCV 2004): one grid a pixel
wider on every side is blended, the template is its interior and the
gradients are differences of its samples two pixels apart.  A patch origin
is clamped to ``MAP_SIZE - 1 - window``, so a window whose last column or
row lies exactly on pixel 255 blends that pixel with fraction 1, as a
per-sample lookup clipped to the image does.

Workspace: the KLT writes its template, gradients, blends, samples and
products into the grow-only buffers of a ``KltWorkspace`` that the
``TrackTable`` owns, so they live as long as the run and no longer.  Arrays
of that size made afresh each frame go back to the kernel when freed and
fault back in on the next frame; a module-level cache would outlive the run.
Each blocked sum is still one contiguous row sum, so results keep their bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .emulator import MAP_SIZE, MAX_CORNER_POINTS, BinaryMap, MapKind, suppress_non_maxima

EDGE_INTENSITY = 128
MIN_EIGENVALUE = 1e-6
KLT_BLOCK = 64  # tracks per block of the KLT's residual and gradient sums
SPAWN_BLOCK = 128  # spawn candidates per block of the separation test


class TrackStatus(enum.Enum):
    LIVE = "live"
    DEAD = "dead"


class FeatureSource(enum.Enum):
    BIT_CORNERS = "bit-corners"
    SHI_TOMASI_ON_EDGES = "shi-tomasi"


@dataclass
class TrackerConfig:
    n_points: int = 800  # cap on live tracks and on corners detected per frame
    sigma_e: float = 2.5
    window: int = 21
    epsilon: float = 0.01
    max_iters: int = 30
    photometric_gate: float = 20.0
    min_separation: float = 10.0
    feathering_enabled: bool = True
    feature_source: FeatureSource = FeatureSource.BIT_CORNERS

    def __post_init__(self):
        if not 1 <= self.n_points <= MAX_CORNER_POINTS:
            raise ValueError(f"n_points must be in [1, {MAX_CORNER_POINTS}]")
        if self.window % 2 == 0 or self.window < 3:
            raise ValueError("window must be odd and >= 3")
        if not self.sigma_e > 0:
            raise ValueError("sigma_e must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if not self.photometric_gate > 0:
            raise ValueError("photometric_gate must be positive")
        if not self.min_separation >= 0:
            raise ValueError("min_separation must be >= 0")


@dataclass
class FeatureTrack:
    """One tracked corner: id, per-frame observations, and lifecycle status."""

    id: int
    observations: list = field(default_factory=list)  # (frame_index, np.array([u, v]))
    status: TrackStatus = TrackStatus.LIVE
    last_flow: np.ndarray = field(default_factory=lambda: np.zeros(2))
    death_reason: str = ""
    retry_after: int = 0  # promotion backoff after a failed parallax screen or triangulation

    def add_observation(self, frame_index: int, z: np.ndarray) -> None:
        if self.observations and frame_index <= self.observations[-1][0]:
            raise ValueError("frame indices must be strictly increasing")
        self.observations.append((frame_index, np.asarray(z, dtype=float).copy()))

    def length(self) -> int:
        return len(self.observations)

    def last_position(self) -> np.ndarray:
        return self.observations[-1][1]

    def last_frame(self) -> int:
        return self.observations[-1][0]

    def mark_dead(self, reason: str = "") -> None:
        self.status = TrackStatus.DEAD
        self.death_reason = reason


class KltWorkspace:
    """Grow-only float64 buffers that the KLT writes its per-frame arrays into.

    ``view(name, *shape)`` returns a C-contiguous view of the named buffer,
    which is reallocated only when ``shape`` needs more elements than it has.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            # twice the request, so that a slowly rising track count rarely
            # reallocates; the pages past what a view uses stay untouched
            buf = self._buffers[name] = np.empty(2 * size)
        return buf[:size].reshape(shape)


class TrackTable:
    """Live tracks by id, in spawn order; a track leaves the table when it dies."""

    def __init__(self):
        self.tracks: dict[int, FeatureTrack] = {}
        self.next_id = 0
        self.klt = KltWorkspace()

    def spawn(self, frame_index: int, position: np.ndarray) -> FeatureTrack:
        track = FeatureTrack(self.next_id)
        self.next_id += 1
        track.add_observation(frame_index, position)
        self.tracks[track.id] = track
        return track

    def retire(self, track: FeatureTrack, reason: str) -> None:
        """Mark a live track dead and drop it from the table."""
        track.mark_dead(reason)
        del self.tracks[track.id]


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian truncated at radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def feather(edges: BinaryMap, sigma_e: float) -> np.ndarray:
    """Blur the 128-valued edge image with a normalized Gaussian, into a (256, 256) uint8 map.

    The separable pass is identical to convolving with the 2-D product
    kernel normalized over its square support; values stay in [0, 128].
    """
    if sigma_e <= 0:
        raise ValueError("sigma_e must be positive")
    k = gaussian_kernel_1d(sigma_e)
    img = np.multiply(edges.bits, EDGE_INTENSITY, dtype=np.float64)
    out = np.empty_like(img)
    ndimage.correlate1d(img, k, axis=0, output=out, mode="constant", cval=0.0)
    ndimage.correlate1d(out, k, axis=1, output=img, mode="constant", cval=0.0)
    np.clip(np.rint(img, out=img), 0, EDGE_INTENSITY, out=img)
    return img.astype(np.uint8)


def binary_to_intensity(edges: BinaryMap) -> np.ndarray:
    """Feathering-disabled path: the raw 0/128 edge image, a (256, 256) uint8 map."""
    return edges.bits.astype(np.uint8) * EDGE_INTENSITY


def _sample(img: np.ndarray, corner: np.ndarray, window: int, out: np.ndarray,
            ws: KltWorkspace) -> np.ndarray:
    """Bilinear samples of ``window``-square unit-spaced grids into ``out`` (N, window, window).

    ``corner`` (N, 2) holds each grid's top-left sample ``(u, v)``; callers
    keep every grid inside the image.  One ``(window + 1)``-square patch per
    grid is blended x first, then y, as a per-sample bilinear lookup would.
    """
    n, p = len(corner), window + 1
    origin = np.minimum(np.floor(corner).astype(np.intp), MAP_SIZE - p)
    frac = corner - origin
    fx = frac[:, 0, None, None]
    fy = frac[:, 1, None, None]
    patch = sliding_window_view(img, (p, p))[origin[:, 1], origin[:, 0]]
    rows = ws.view("rows", n, p, window)
    np.multiply(patch[:, :, :-1], 1 - fx, out=rows)
    np.add(rows, np.multiply(patch[:, :, 1:], fx, out=ws.view("blend", n, p, window)), out=rows)
    np.multiply(rows[:, :-1], 1 - fy, out=out)
    return np.add(out, np.multiply(rows[:, 1:], fy, out=rows[:, 1:]), out=out)


def _template(img: np.ndarray, corner: np.ndarray, window: int, ws: KltWorkspace):
    """Template intensities and central-difference gradients, each (N, window**2).

    One grid a pixel wider on every side is sampled; the template is its
    interior and each gradient is half the difference of the samples one
    pixel either side, as ``0.5 * (I(x + 1) - I(x - 1))`` per sample.  The
    three arrays are views into ``ws``.
    """
    n, e = len(corner), window + 2
    ext = _sample(img, corner - 1, e, ws.view("grid", n, e, e), ws)
    t, gx, gy = (ws.view(name, n, window, window) for name in ("t", "gx", "gy"))
    np.copyto(t, ext[:, 1:-1, 1:-1])
    np.multiply(np.subtract(ext[:, 1:-1, 2:], ext[:, 1:-1, :-2], out=gx), 0.5, out=gx)
    np.multiply(np.subtract(ext[:, 2:, 1:-1], ext[:, :-2, 1:-1], out=gy), 0.5, out=gy)
    shape = (n, window * window)
    return t.reshape(shape), gx.reshape(shape), gy.reshape(shape)


def _row_sum(a: np.ndarray, b: np.ndarray, ws: KltWorkspace) -> np.ndarray:
    """``(a * b).sum(axis=1)`` for at most KLT_BLOCK rows, the product in ``ws``."""
    return np.multiply(a, b, out=ws.view("product", *a.shape)).sum(axis=1)


def _hessian(gx: np.ndarray, gy: np.ndarray, ws: KltWorkspace) -> np.ndarray:
    H = np.empty((len(gx), 2, 2))
    for s in range(0, len(gx), KLT_BLOCK):
        bx, by = gx[s:s + KLT_BLOCK], gy[s:s + KLT_BLOCK]
        H[s:s + KLT_BLOCK, 0, 0] = _row_sum(bx, bx, ws)
        H[s:s + KLT_BLOCK, 0, 1] = _row_sum(bx, by, ws)
        H[s:s + KLT_BLOCK, 1, 1] = _row_sum(by, by, ws)
    H[:, 1, 0] = H[:, 0, 1]
    return H


def _min_eigenvalue(H: np.ndarray) -> np.ndarray:
    a = H[..., 0, 0]
    b = H[..., 0, 1]
    c = H[..., 1, 1]
    mean = 0.5 * (a + c)
    return mean - np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))


def _residual_blocks(t: np.ndarray, rows: np.ndarray, i1: np.ndarray, ws: KltWorkspace):
    """Yield ``(block, template rows, t[rows] - i1)`` over blocks of KLT_BLOCK tracks.

    ``i1`` holds one sample row per entry of ``rows``; the residual is a view
    into ``ws`` that the next block overwrites.
    """
    for s in range(0, len(rows), KLT_BLOCK):
        block = slice(s, s + KLT_BLOCK)
        idx = rows[block]
        # mode="clip" writes into ``out`` directly ("raise" buffers a copy of
        # it); every index is a valid row
        res = np.take(t, idx, axis=0, out=ws.view("residual", len(idx), t.shape[1]), mode="clip")
        yield block, idx, np.subtract(res, i1[block], out=res)


def _batch_track(
    prev_f: np.ndarray,
    next_f: np.ndarray,
    points: np.ndarray,
    guesses: np.ndarray,
    cfg: TrackerConfig,
    ws: KltWorkspace,
):
    """Advance all points in lockstep from ``prev_f`` into ``next_f``, both uint8 maps.

    Returns (displacements, ok, reason) where reason is '' for survivors and
    one of 'oob', 'singular', 'residual' otherwise.
    """
    n = points.shape[0]
    r = cfg.window // 2
    area = cfg.window * cfg.window
    lo = points - r  # top-left sample of each window
    hi = points + r  # bottom-right sample

    u = guesses.copy()

    def inside(ids):
        """Whether each window, shifted by its ``u``, lies within the image."""
        shift = u[ids]
        return ((lo[ids] + shift >= 0.0) & (hi[ids] + shift <= MAP_SIZE - 1.0)).all(axis=1)

    def sample(ids):
        """The next map's samples under each window of ``ids``, (ids.size, area)."""
        # the template's extended grid is spent once t, gx and gy are formed
        out = ws.view("grid", ids.size, cfg.window, cfg.window)
        return _sample(next_f, lo[ids] + u[ids], cfg.window, out, ws).reshape(ids.size, area)

    # the template's central differences need one more pixel of margin
    ok = ((lo >= 1.0) & (hi <= MAP_SIZE - 2.0)).all(axis=1)
    reason = np.array([""] * n, dtype=object)
    reason[~ok] = "oob"

    # template state lives at positions into ``live``
    live = np.nonzero(ok)[0]
    t, gx, gy = _template(prev_f, lo[live], cfg.window, ws)
    H = _hessian(gx, gy, ws)
    singular = _min_eigenvalue(H) < MIN_EIGENVALUE
    reason[live[singular]] = "singular"
    ok[live[singular]] = False
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2

    active = np.nonzero(~singular)[0]
    for _ in range(cfg.max_iters):
        if active.size == 0:
            break
        ids = live[active]
        within = inside(ids)
        reason[ids[~within]] = "oob"
        ok[ids[~within]] = False
        active = active[within]
        ids = ids[within]
        if active.size == 0:
            break
        i1 = sample(ids)
        g0 = np.empty(active.size)
        g1 = np.empty(active.size)
        for block, rows, res in _residual_blocks(t, active, i1, ws):
            g = ws.view("gradient", *res.shape)
            g0[block] = _row_sum(np.take(gx, rows, axis=0, out=g, mode="clip"), res, ws)
            g1[block] = _row_sum(np.take(gy, rows, axis=0, out=g, mode="clip"), res, ws)
        Ha = H[active]
        da = det[active]
        du0 = (Ha[:, 1, 1] * g0 - Ha[:, 0, 1] * g1) / da
        du1 = (-Ha[:, 0, 1] * g0 + Ha[:, 0, 0] * g1) / da
        u[ids, 0] += du0
        u[ids, 1] += du1
        still = du0 * du0 + du1 * du1 >= cfg.epsilon**2
        active = active[still]

    # photometric gate on the final alignment
    final = np.nonzero(ok[live])[0]
    ids = live[final]
    within = inside(ids)
    reason[ids[~within]] = "oob"
    ok[ids[~within]] = False
    final = final[within]
    ids = ids[within]
    i1 = sample(ids)
    mean_resid = np.empty(ids.size)
    for block, _, res in _residual_blocks(t, final, i1, ws):
        mean_resid[block] = np.abs(res, out=res).mean(axis=1)
    gated = ids[mean_resid > cfg.photometric_gate]
    reason[gated] = "residual"
    ok[gated] = False
    return u, ok, reason


def track_frame(
    table: TrackTable,
    prev: np.ndarray | None,
    next_map: np.ndarray,
    new_corners: BinaryMap | None,
    cfg: TrackerConfig,
    frame_index: int,
) -> list[FeatureTrack]:
    """Advance live tracks from ``prev`` into ``next_map`` and spawn new ones at corners.

    Both maps are (256, 256) uint8, as :func:`feather` returns them.

    Tracks that fail (window out of bounds, degenerate gradients, or final
    photometric residual above the gate) are retired from the table and
    returned, in table order.  New tracks are seeded at corner pixels at
    least ``min_separation`` away from live tracks, in (row, col) order, up
    to ``n_points`` live tracks.
    """
    died = []
    live = list(table.tracks.values())
    median_flow = np.zeros(2)
    if prev is not None and live:
        points = np.array([t.last_position() for t in live])
        guesses = np.array([t.last_flow for t in live])
        disp, ok, reason = _batch_track(prev, next_map, points, guesses, cfg, table.klt)
        for i, tr in enumerate(live):
            if ok[i]:
                tr.add_observation(frame_index, points[i] + disp[i])
                tr.last_flow = disp[i].copy()
            else:
                table.retire(tr, str(reason[i]))
                died.append(tr)
        if ok.any():
            median_flow = np.median(disp[ok], axis=0)
    elif prev is None and live:
        raise ValueError("live tracks but no previous frame")

    if new_corners is not None:
        # fresh spawns inherit the crowd's flow so their first advance
        # starts inside the convergence basin even under fast motion
        _spawn_tracks(table, new_corners, cfg, frame_index, median_flow)
    return died


def _spawn_tracks(
    table: TrackTable,
    corners: BinaryMap,
    cfg: TrackerConfig,
    frame_index: int,
    initial_flow: np.ndarray,
) -> None:
    budget = cfg.n_points - len(table.tracks)
    if budget <= 0:
        return
    rows, cols = np.nonzero(corners.bits)
    if rows.size == 0:
        return
    cand = np.column_stack([cols, rows]).astype(float)  # (u, v) in (row, col) order
    sep2 = cfg.min_separation ** 2
    free = _clear_of_live(cand, table, cfg.min_separation)

    # greedy pass in row-major order: each spawn clears the later candidates
    # closer than min_separation, which lie at most min_separation rows below
    # it; candidates are integer pixels, so their d² is exact
    reach = np.searchsorted(cand[:, 1], cand[:, 1] + cfg.min_separation, side="right")
    for i in np.flatnonzero(free):
        if budget <= 0:
            break
        if not free[i]:
            continue
        track = table.spawn(frame_index, cand[i])
        track.last_flow = initial_flow.copy()
        budget -= 1
        later = slice(i + 1, reach[i])
        d = cand[later] - cand[i]
        free[later] &= d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] >= sep2


def _clear_of_live(cand: np.ndarray, table: TrackTable, min_separation: float) -> np.ndarray:
    """Whether each candidate is ``min_separation`` or more from every live track, (N,) bool.

    ``cand`` (N, 2) is sorted by v.  Only pairs whose v differ by at most
    ``min_separation + 1`` are compared; any other pair is farther apart than
    ``min_separation`` whatever the rounding.  d² is ``du * du + dv * dv``,
    the same bits as a dense ``((cand - live) ** 2).sum()``.  The pairs are
    formed SPAWN_BLOCK candidates at a time.
    """
    free = np.ones(len(cand), dtype=bool)
    if not table.tracks:
        return free
    live = np.array([t.last_position() for t in table.tracks.values()])
    lu, lv = live[np.argsort(live[:, 1])].T
    sep2 = min_separation ** 2
    band = min_separation + 1.0
    first = np.searchsorted(lv, cand[:, 1] - band)
    count = np.searchsorted(lv, cand[:, 1] + band, side="right") - first
    for s in range(0, len(cand), SPAWN_BLOCK):
        n = count[s:s + SPAWN_BLOCK]
        owner = np.repeat(np.arange(s, s + len(n)), n)
        # each candidate's pairs run over its band's live tracks, in v order
        near = np.arange(owner.size) + np.repeat(first[s:s + SPAWN_BLOCK] - (np.cumsum(n) - n), n)
        du = cand[owner, 0] - lu[near]
        dv = cand[owner, 1] - lv[near]
        free[owner[du * du + dv * dv < sep2]] = False
    return free


def shi_tomasi_on_edges(feathered: np.ndarray, max_points: int) -> np.ndarray:
    """Minimum-eigenvalue corners of the (256, 256) uint8 feathered map, strongest first.

    Returns an (N, 2) array of (u, v) pixel coordinates, N <= max_points.
    Used by the alternative-feature ablation in place of the corner map.
    """
    if max_points <= 0:
        raise ValueError("max_points must be positive")
    img = feathered.astype(np.float64)
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
    gy[1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])

    win = np.ones(5) / 5.0
    def smooth(a):
        a = ndimage.correlate1d(a, win, axis=0, mode="constant")
        return ndimage.correlate1d(a, win, axis=1, mode="constant")

    sxx = smooth(gx * gx)
    sxy = smooth(gx * gy)
    syy = smooth(gy * gy)
    mean = 0.5 * (sxx + syy)
    response = mean - np.sqrt(np.maximum(0.25 * (sxx - syy) ** 2 + sxy * sxy, 0.0))

    passes = response > 1e-9
    keep = suppress_non_maxima(passes, response)
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        return np.zeros((0, 2))
    order = np.lexsort((cols, rows, -response[rows, cols]))[:max_points]
    return np.column_stack([cols[order], rows[order]]).astype(float)


def corners_from_points(points: np.ndarray, timestamp: float = 0.0) -> BinaryMap:
    """Build a corner map with bits set at the given (u, v) points."""
    bits = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
    if len(points):
        pts = np.rint(np.asarray(points, dtype=float)).astype(int)
        keep = (
            (pts[:, 0] >= 0) & (pts[:, 0] < MAP_SIZE)
            & (pts[:, 1] >= 0) & (pts[:, 1] < MAP_SIZE)
        )
        pts = pts[keep]
        bits[pts[:, 1], pts[:, 0]] = 1
    return BinaryMap(bits, MapKind.CORNER, timestamp)


def dump_tracks_csv(table: TrackTable, landmark_ids, path) -> None:
    """Write the live tracks as ``frame,id,u,v,status`` rows, ``in_state`` for ``landmark_ids``."""
    with open(path, "w") as f:
        f.write("frame,id,u,v,status\n")
        for tid in sorted(table.tracks):
            status = "in_state" if tid in landmark_ids else "out_of_state"
            for frame, z in table.tracks[tid].observations:
                f.write(f"{frame},{tid},{z[0]:.4f},{z[1]:.4f},{status}\n")
