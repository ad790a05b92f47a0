"""Host-side visual front end: edge feathering and corner-seeded KLT.

The tracker never looks at grayscale imagery.  Binary edges are mapped to
intensity 128 and blurred with a normalized Gaussian ("feathering"), and
Lucas-Kanade runs on that smooth field, seeded at the binary corner
locations.  The track table holds live tracks only, and a track is in the
filter's state when ``FilterState.slam`` holds a landmark under its id.

Coordinates are ``(u, v)`` pixels with ``u`` along columns; map arrays are
indexed ``[v, u]``.

Track table: live tracks are rows of arrays in id order (``TrackTable``),
so each frame's bookkeeping is a few array passes, not Python per track.
A row holds the id, last position and flow, length, last observed frame and
promotion backoff, and the last W observations, right-aligned: W is the
filter's clone window plus the frame being cloned, so a row holds every
observation an update can use.  A frame's survivors move with one add, spawns
append rows and deaths compact them, so rows never reorder.  A track that
dies leaves a ``FeatureTrack`` record (id, length, its row of observations
and the reason), made in table order and marked dead once, which is what
the MSCKF update consumes.  The full observation history is kept only when
asked for, for ``dump_tracks_csv``.

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

Precision: every per-pixel array is float32 (the workspace buffers and the
bilinear weights), so each blend, residual and product is a float32 pass
over the uint8 maps, at about two thirds of the float64 cost.  Per-track
quantities stay float64: positions, guesses and displacements, the Hessian
entries and determinant, the steps and their epsilon test, and the gate's
mean residual, each read from a float32 row sum.  Against a float64
per-sample KLT, a track whose iteration settles moves by at most about
1.5e-6 px; one still stepping after many iterations amplifies the rounding
as it would any other, so only its verdict is comparable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .emulator import MAP_SIZE, MAX_CORNER_POINTS, BinaryMap, suppress_non_maxima

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


@dataclass(slots=True)
class FeatureTrack:
    """The record a track leaves when it dies: id, length, last observations and reason.

    ``frames`` (W,) and ``pixels`` (W, 2) are its row of the table's last
    observations, oldest first and right-aligned, frame -1 in a column the
    track never filled.  ``status`` and ``death_reason`` are set by
    ``mark_dead``, which the table calls once per record.
    """

    id: int
    length: int
    frames: np.ndarray
    pixels: np.ndarray
    status: TrackStatus = TrackStatus.LIVE
    death_reason: str = ""

    def mark_dead(self, reason: str = "") -> None:
        self.status = TrackStatus.DEAD
        self.death_reason = reason


class KltWorkspace:
    """Grow-only float32 buffers that the KLT writes its per-pixel arrays into.

    ``view(name, *shape)`` returns a C-contiguous view of the named buffer,
    which is reallocated only when ``shape`` needs more elements than it has.
    Per-pixel work needs no more than float32: samples are blends of uint8
    pixels, and the per-track sums over them are read into float64.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            # twice the request, so that a slowly rising track count rarely
            # reallocates; the pages past what a view uses stay untouched
            buf = self._buffers[name] = np.empty(2 * size, dtype=np.float32)
        return buf[:size].reshape(shape)


class TrackTable:
    """Live tracks as rows of arrays, in id order; a track leaves the table when it dies.

    Row i is track ``ids[i]``: position ``pos[i]`` and flow ``flow[i]``,
    ``length[i]`` observations, the last in frame ``last_frame[i]``, and the
    promotion backoff ``retry_after[i]``.  ``obs_frames[i]`` (W,) and
    ``obs_pixels[i]`` (W, 2) are its last W observations, oldest first, the
    newest in column W - 1 and frame -1 in a column not yet filled.  With
    ``history`` the table also logs every observation, for :func:`dump_tracks_csv`.
    """

    COLUMNS = ("ids", "pos", "flow", "length", "last_frame", "retry_after",
               "obs_frames", "obs_pixels")

    def __init__(self, width: int, history: bool = False):
        self.next_id = 0
        self.klt = KltWorkspace()
        self.ids = np.empty(0, dtype=np.int64)
        self.pos = np.empty((0, 2))
        self.flow = np.empty((0, 2))
        self.length = np.empty(0, dtype=np.int64)
        self.last_frame = np.empty(0, dtype=np.int64)
        self.retry_after = np.empty(0, dtype=np.int64)
        self.obs_frames = np.empty((0, width), dtype=np.int64)
        self.obs_pixels = np.empty((0, width, 2))
        self.history = [] if history else None  # (frame, ids, positions) per step

    def __len__(self) -> int:
        return len(self.ids)

    def spawn(self, frame_index: int, positions: np.ndarray, flow: np.ndarray) -> None:
        """Append one row per position (k, 2), observed in ``frame_index``, each with ``flow``."""
        k = len(positions)
        ids = np.arange(self.next_id, self.next_id + k)
        frames = np.full((k, self.obs_frames.shape[1]), -1, dtype=np.int64)
        frames[:, -1] = frame_index
        pixels = np.zeros((k,) + self.obs_pixels.shape[1:])
        pixels[:, -1] = positions
        new = (ids, positions, np.broadcast_to(flow, (k, 2)), np.ones(k, dtype=np.int64),
               np.full(k, frame_index), np.zeros(k, dtype=np.int64), frames, pixels)
        for name, rows in zip(self.COLUMNS, new):
            setattr(self, name, np.concatenate([getattr(self, name), rows]))
        self.next_id += k
        if self.history is not None:
            self.history.append((frame_index, ids, positions.copy()))

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The row of each track id (N,), or -1 where the track is not live."""
        at = np.searchsorted(self.ids, ids)
        inside = at < len(self)
        found = np.zeros(len(ids), dtype=bool)
        found[inside] = self.ids[at[inside]] == ids[inside]
        return np.where(found, at, -1)

    def _records(self, rows: np.ndarray, reasons: list) -> list[FeatureTrack]:
        """One record per row (indices or mask), in table order, marked dead with its reason."""
        died = [FeatureTrack(*fields) for fields in zip(
            self.ids[rows].tolist(), self.length[rows].tolist(),
            self.obs_frames[rows], self.obs_pixels[rows])]
        for track, reason in zip(died, reasons):
            track.mark_dead(reason)
        return died

    def retire(self, rows: np.ndarray, reason: str) -> list[FeatureTrack]:
        """Drop ``rows`` (ascending) from the table; returns their records, dead for ``reason``."""
        if not len(rows):
            return []
        died = self._records(rows, [reason] * len(rows))
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        for name in self.COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        return died

    def advance(self, frame_index: int, disp: np.ndarray, ok: np.ndarray, reason) -> list:
        """Move the rows where ``ok`` by ``disp`` (n, 2) into ``frame_index``; retire the rest.

        A retired row's record is marked dead with its entry of ``reason``;
        the records are returned in table order.
        """
        lost = ~ok
        died = self._records(lost, reason[lost].tolist())
        self.ids, self.retry_after = self.ids[ok], self.retry_after[ok]
        self.length = self.length[ok] + 1
        self.last_frame = np.full(len(self.ids), frame_index)
        self.flow = disp[ok]
        self.pos = self.pos[ok] + self.flow
        self.obs_frames = _push(self.obs_frames, ok, frame_index)
        self.obs_pixels = _push(self.obs_pixels, ok, self.pos)
        if self.history is not None:
            self.history.append((frame_index, self.ids, self.pos))
        return died


def _push(rows: np.ndarray, kept: np.ndarray, newest) -> np.ndarray:
    """Rows ``kept`` (a mask) of ``rows`` (n, W, ...) shifted one column left, ``newest`` last."""
    out = np.empty((np.count_nonzero(kept),) + rows.shape[1:], dtype=rows.dtype)
    out[:, :-1] = rows[kept, 1:]
    out[:, -1] = newest
    return out


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian truncated at radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def feather(edges: BinaryMap, sigma_e: float, planes: np.ndarray | None = None) -> np.ndarray:
    """Blur the 128-valued edge image with a normalized Gaussian, into a (256, 256) uint8 map.

    The separable pass is identical to convolving with the 2-D product
    kernel normalized over its square support; values stay in [0, 128].
    The two float64 passes run in ``planes`` (2, 256, 256) when given, so a
    caller that feathers every frame keeps them for its run instead of
    faulting fresh pages in per frame; the returned map is always new.
    """
    if sigma_e <= 0:
        raise ValueError("sigma_e must be positive")
    k = gaussian_kernel_1d(sigma_e)
    img, out = np.empty((2,) + edges.bits.shape) if planes is None else planes
    np.multiply(edges.bits, EDGE_INTENSITY, out=img, dtype=np.float64)
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
    grid is blended x first, then y, as a per-sample bilinear lookup would,
    in float32: ``out`` and the weights are float32, so no pass runs in float64.
    """
    n, p = len(corner), window + 1
    origin = np.minimum(np.floor(corner).astype(np.intp), MAP_SIZE - p)
    frac = (corner - origin).astype(np.float32)
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


def _min_eigenvalue(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of the symmetric 2x2 matrix(es) [[a, b], [b, c]], elementwise."""
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
    singular = _min_eigenvalue(H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]) < MIN_EIGENVALUE
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
    median_flow = np.zeros(2)
    if len(table):
        if prev is None:
            raise ValueError("live tracks but no previous frame")
        disp, ok, reason = _batch_track(prev, next_map, table.pos, table.flow, cfg, table.klt)
        died = table.advance(frame_index, disp, ok, reason)
        if ok.any():
            median_flow = _median(disp[ok])

    if new_corners is not None:
        # fresh spawns inherit the crowd's flow so their first advance
        # starts inside the convergence basin even under fast motion
        _spawn_tracks(table, new_corners, cfg, frame_index, median_flow)
    return died


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=0)`` of finite rows ``a`` (m, 2), m >= 1, with the same bits.

    The middle of each sorted column, or the mean of the middle two as
    ``np.median`` takes it, ``(a + b) / 2``, without its fixed cost of some
    twenty array calls.
    """
    s = np.sort(a, axis=0)
    h = len(a) // 2
    return s[h] if len(a) % 2 else (s[h - 1] + s[h]) / 2


def _spawn_tracks(
    table: TrackTable,
    corners: BinaryMap,
    cfg: TrackerConfig,
    frame_index: int,
    initial_flow: np.ndarray,
) -> None:
    budget = cfg.n_points - len(table)
    if budget <= 0:
        return
    rows, cols = np.nonzero(corners.bits)
    if rows.size == 0:
        return
    cand = np.column_stack([cols, rows]).astype(float)  # (u, v) in (row, col) order
    sep2 = cfg.min_separation ** 2
    free = _clear_of_live(cand, table.pos, cfg.min_separation)

    # greedy pass in row-major order: each spawn clears the later candidates
    # closer than min_separation, which lie at most min_separation rows below
    # it; candidates are integer pixels, so their d² is exact
    reach = np.searchsorted(cand[:, 1], cand[:, 1] + cfg.min_separation, side="right")
    chosen = []
    for i in np.flatnonzero(free):
        if len(chosen) >= budget:
            break
        if not free[i]:
            continue
        chosen.append(i)
        later = slice(i + 1, reach[i])
        d = cand[later] - cand[i]
        free[later] &= d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] >= sep2
    table.spawn(frame_index, cand[chosen], initial_flow)


def _clear_of_live(cand: np.ndarray, live: np.ndarray, min_separation: float) -> np.ndarray:
    """Whether each candidate is ``min_separation`` or more from every live position, (N,) bool.

    ``cand`` (N, 2) is sorted by v.  Only pairs whose v differ by at most
    ``min_separation + 1`` are compared; any other pair is farther apart than
    ``min_separation`` whatever the rounding.  d² is ``du * du + dv * dv``,
    the same bits as a dense ``((cand - live) ** 2).sum()``.  The pairs are
    formed SPAWN_BLOCK candidates at a time.
    """
    free = np.ones(len(cand), dtype=bool)
    if not len(live):
        return free
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
    response = _min_eigenvalue(sxx, sxy, syy)

    passes = response > 1e-9
    keep = suppress_non_maxima(passes, response)
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        return np.zeros((0, 2))
    order = np.lexsort((cols, rows, -response[rows, cols]))[:max_points]
    return np.column_stack([cols[order], rows[order]]).astype(float)


def dump_tracks_csv(table: TrackTable, landmark_ids, path) -> None:
    """Write the live tracks as ``frame,id,u,v,status`` rows, ``in_state`` for ``landmark_ids``.

    Each track's rows cover its whole life, in frame order, from the table's history.
    """
    with open(path, "w") as f:
        f.write("frame,id,u,v,status\n")
        if not table.history:
            return
        frames, ids, pos = (np.concatenate(c) for c in zip(*(
            (np.full(len(i), frame), i, p) for frame, i, p in table.history
        )))
        live = np.isin(ids, table.ids)
        order = np.flatnonzero(live)[np.argsort(ids[live], kind="stable")]
        for frame, tid, (u, v) in zip(frames[order].tolist(), ids[order].tolist(),
                                      pos[order].tolist()):
            status = "in_state" if tid in landmark_ids else "out_of_state"
            f.write(f"{frame},{tid},{u:.4f},{v:.4f},{status}\n")
