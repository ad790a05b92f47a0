"""Tightly coupled sliding-window filter backend.

State: navigation block (15 error dims), optional camera calibration block
(6 extrinsic + 8 intrinsic error dims), a window of IMU pose clones
(6 each), and in-state landmarks (3 each), with one joint covariance.
Error layout is ``[nav | calib | clones... | landmarks...]``; clones are
ordered by frame index and landmarks by insertion.  Clone poses are rows
of arrays: quaternions (n, 4), positions (n, 3) and their first-estimate
copies.  Landmarks are rows too: positions (L, 3), first estimates (L, 3)
and the frame each was last updated in.

Out-of-state features are consumed by projecting their stacked residuals
onto the left null space of the landmark Jacobian, which removes the
landmark analytically and constrains only the cloned poses (plus
calibration when estimated).  In-state landmarks get plain EKF updates and
delayed initialization with the QR-split Jacobian construction.  Both
updates screen their candidates for parallax in batched passes, which also
give each passing track its window of clone rows, pixels and rays, and
triangulate only those that pass, one ``triangulate(window, cam_poses,
calib)`` call per track as the benchmark's tracer counts them.  One builder,
``_track_rows``, gives the triangulated tracks their rows in a batched pass.

Windows: the screen reads a track's last observations as arrays, frames
(T, W) and pixels (T, W, 2), from the track table's rows for promotion
candidates and from the death records for the MSCKF update alike; a frame's
clone row is its rank among the cloned frames, found for every observation
in one search.  Schedule of delayed initialization: the first pass screens
as many due candidates as could still be initialized.  A pass whose windows
run out with no update since leaves the calibration as it was, so the next
pass screens twice as many; after an update the calibration has changed,
and the next pass screens afresh from the current candidate.  A track's
window and verdict do not depend on the batch it is screened in, so the
schedule changes no verdict, and each due candidate is screened once per
calibration.

The χ² gates and the EKF step read only the blocks of P that an update's
Jacobian involves, so a k-row update costs O(d² k), not O(d³).

A track is in state when ``FilterState.slam`` holds a landmark under its
id; the track table holds live tracks only.

Measurement Jacobians are evaluated at first-estimate values for clones
and in-state landmarks (``FilterConfig.use_fej``, on by default) to avoid
spurious information gain along unobservable directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .geometry import (
    MIN_PROJECTION_DEPTH,
    CameraCalibration,
    project_points,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    undistort,
)
from .imu import BA, BG, ERROR_STATE_DIM, TH, NavState, NoiseParams, P, V, propagate_block
from .tracker import FeatureTrack, TrackTable

CLONE_DIM = 6
LANDMARK_DIM = 3
CALIB_DIM = 14  # 3 extrinsic rotation + 3 extrinsic translation + 8 intrinsics
TRIANGULATION_MAX_ITERS = 20  # Gauss-Newton steps of the landmark refinement


class InsufficientBaseline(RuntimeError):
    """Observing rays subtend too small an angle to fix depth."""


class BehindCamera(RuntimeError):
    """Triangulated point has non-positive depth in an observing camera."""


class NoConvergence(RuntimeError):
    """Landmark refinement failed to converge."""


# initial standard deviations of the navigation error
INIT_ATT_SIGMA = 1e-3
INIT_POS_SIGMA = 1e-4
INIT_VEL_SIGMA = 1e-2
INIT_BG_SIGMA = 1e-3
INIT_BA_SIGMA = 1e-2
# initial variances of the calibration error
EXT_ROT_VAR = 1e-3
EXT_POS_VAR = 1e-4
INTR_VAR = 1.0
DIST_VAR = 1e-4


@dataclass
class FilterConfig:
    max_clones: int = 15
    max_slam_update: int = 30
    max_msckf_update: int = 60
    sigma_px: float = 1.0
    chi2_confidence: float = 0.95
    estimate_calibration: bool = True
    use_fej: bool = True
    min_msckf_len: int = 4
    min_baseline_deg: float = 0.5

    def __post_init__(self):
        if self.max_clones < 1:
            raise ValueError("max_clones must be >= 1")
        if self.max_slam_update <= 0 or self.max_msckf_update <= 0:
            raise ValueError("update budgets must be positive")
        if not self.sigma_px > 0.0:
            raise ValueError("sigma_px must be positive")
        if not 0.0 < self.chi2_confidence < 1.0:
            raise ValueError("chi2_confidence must be in (0, 1)")
        if self.min_msckf_len < 2:
            raise ValueError("min_msckf_len must be >= 2")
        if not 0.0 <= self.min_baseline_deg < 180.0:
            raise ValueError("min_baseline_deg must be in [0, 180)")


class FilterState:
    """Joint estimate plus covariance.

    ``clones`` maps a clone's frame index to its row in ``clone_q`` (n, 4),
    ``clone_p`` (n, 3) and their first estimates ``clone_q_fej`` and
    ``clone_p_fej``.  ``slam`` maps a landmark's track id to its row in
    ``slam_p`` (L, 3), its first estimate ``slam_fej`` (L, 3) and the frame
    it was last updated in, ``slam_seen`` (L,).  Both maps are renumbered
    after each structural op, which all go through ``_grow`` and ``_shrink``.
    ``cov`` is laid out ``[nav | calib | clones | landmarks]``: the block of
    clone row i starts at ``clone_start() + CLONE_DIM * i`` and that of
    landmark row j at ``slam_start() + LANDMARK_DIM * j``.
    """

    def __init__(self, nav: NavState, calib: CameraCalibration, cfg: FilterConfig):
        self.nav = nav
        self.calib = calib
        self.cfg = cfg
        self.clones: dict[int, int] = {}
        self.clone_q, self.clone_q_fej = np.empty((0, 4)), np.empty((0, 4))
        self.clone_p, self.clone_p_fej = np.empty((0, 3)), np.empty((0, 3))
        self.slam: dict[int, int] = {}
        self.slam_p, self.slam_fej = np.empty((0, 3)), np.empty((0, 3))
        self.slam_seen = np.empty(0, dtype=int)
        self._work = np.empty(0)
        d = self.clone_start()
        self.cov = np.zeros((d, d))
        self.cov[0:3, 0:3] = np.eye(3) * INIT_ATT_SIGMA**2
        self.cov[3:6, 3:6] = np.eye(3) * INIT_POS_SIGMA**2
        self.cov[6:9, 6:9] = np.eye(3) * INIT_VEL_SIGMA**2
        self.cov[9:12, 9:12] = np.eye(3) * INIT_BG_SIGMA**2
        self.cov[12:15, 12:15] = np.eye(3) * INIT_BA_SIGMA**2
        if cfg.estimate_calibration:
            c = ERROR_STATE_DIM
            self.cov[c:c + 3, c:c + 3] = np.eye(3) * EXT_ROT_VAR
            self.cov[c + 3:c + 6, c + 3:c + 6] = np.eye(3) * EXT_POS_VAR
            self.cov[c + 6:c + 10, c + 6:c + 10] = np.eye(4) * INTR_VAR
            self.cov[c + 10:c + 14, c + 10:c + 14] = np.eye(4) * DIST_VAR

    # -- layout ---------------------------------------------------------

    def calib_dim(self) -> int:
        return CALIB_DIM if self.cfg.estimate_calibration else 0

    def dim(self) -> int:
        return self.cov.shape[0]

    def clone_start(self) -> int:
        """First row of the clone blocks in ``cov``."""
        return ERROR_STATE_DIM + self.calib_dim()

    def slam_start(self) -> int:
        """First row of the landmark blocks in ``cov``."""
        return self.clone_start() + CLONE_DIM * len(self.clones)

    def landmark_ids(self) -> np.ndarray:
        """Track ids of the landmarks (L,), in their rows' order."""
        return np.fromiter(self.slam, dtype=np.int64, count=len(self.slam))

    def _reindex(self) -> None:
        """Renumber both maps; clones are kept in frame order, landmarks in insertion order."""
        for row, frame_index in enumerate(self.clones):
            self.clones[frame_index] = row
        for row, track_id in enumerate(self.slam):
            self.slam[track_id] = row
        at = self.slam_start() + LANDMARK_DIM * len(self.slam)
        if self.cov.shape != (at, at):
            raise AssertionError(f"covariance {self.cov.shape} does not match layout dim {at}")

    def _grow(self, at: int, cross: np.ndarray, block: np.ndarray) -> None:
        """Insert a block at row ``at``: ``cross`` (k, d) against the old state, ``block`` (k, k)."""
        k, d = cross.shape
        b = at + k
        P = self.cov
        new = np.empty((d + k, d + k))
        new[:at, :at], new[:at, b:] = P[:at, :at], P[:at, at:]
        new[b:, :at], new[b:, b:] = P[at:, :at], P[at:, at:]
        new[at:b, :at], new[at:b, b:] = cross[:, :at], cross[:, at:]
        new[:at, at:b], new[b:, at:b] = cross[:, :at].T, cross[:, at:].T
        new[at:b, at:b] = block
        self.cov = new
        self._reindex()

    def square_buffers(self, d: int):
        """Two d×d work arrays: views of one buffer that only grows and is kept between updates."""
        if self._work.size < 2 * d * d:
            self._work = np.empty(2 * d * d)
        return self._work[:d * d].reshape(d, d), self._work[d * d:2 * d * d].reshape(d, d)

    def _shrink(self, at: int, k: int) -> None:
        """Marginalize the ``k`` error dims starting at row ``at``."""
        idx = np.arange(at, at + k)
        self.cov = np.delete(np.delete(self.cov, idx, axis=0), idx, axis=1)
        self._reindex()

    # -- structural ops ---------------------------------------------------

    def clone_pose(self, frame_index: int) -> None:
        """Append the current IMU pose as the newest clone, augmenting covariance."""
        if self.clones and frame_index <= max(self.clones):
            raise ValueError(f"frame {frame_index} is not newer than every clone")
        at = self.slam_start()
        self.clones[frame_index] = len(self.clones)
        q, p = self.nav.orientation[None], self.nav.position[None]
        self.clone_q, self.clone_q_fej = np.r_[self.clone_q, q], np.r_[self.clone_q_fej, q]
        self.clone_p, self.clone_p_fej = np.r_[self.clone_p, p], np.r_[self.clone_p_fej, p]
        # the clone error is an exact copy of the nav attitude/position error
        self._grow(at, self.cov[0:6], self.cov[0:6, 0:6])

    def marginalize_clone(self, frame_index: int) -> None:
        row = self.clones.pop(frame_index)
        self.clone_q, self.clone_p, self.clone_q_fej, self.clone_p_fej = (
            np.delete(a, row, axis=0)
            for a in (self.clone_q, self.clone_p, self.clone_q_fej, self.clone_p_fej)
        )
        self._shrink(self.clone_start() + CLONE_DIM * row, CLONE_DIM)

    def add_landmark(self, track_id: int, position, fej, cov_ff, cov_fx, frame_index: int):
        self.slam[track_id] = len(self.slam)
        self.slam_p = np.vstack([self.slam_p, np.asarray(position, dtype=float)])
        self.slam_fej = np.vstack([self.slam_fej, np.asarray(fej, dtype=float)])
        self.slam_seen = np.append(self.slam_seen, frame_index)
        self._grow(self.dim(), cov_fx, cov_ff)

    def remove_landmark(self, track_id: int) -> None:
        row = self.slam.pop(track_id)
        self.slam_p, self.slam_fej, self.slam_seen = (
            np.delete(a, row, axis=0) for a in (self.slam_p, self.slam_fej, self.slam_seen)
        )
        self._shrink(self.slam_start() + LANDMARK_DIM * row, LANDMARK_DIM)

    # -- corrections ------------------------------------------------------

    def apply_correction(self, dx: np.ndarray) -> None:
        """Correct every attitude by ``q <- dq(dtheta) q`` and every other block additively."""
        if dx.shape != (self.dim(),):
            raise ValueError("correction has wrong dimension")
        nav, calib, c = self.nav, self.calib, ERROR_STATE_DIM
        clones = dx[self.clone_start():self.slam_start()].reshape(-1, 2, 3)
        # every attitude in one call: nav, the extrinsic when estimated, then the clones
        dtheta, q = [dx[TH]], [nav.orientation]
        if self.cfg.estimate_calibration:
            dtheta.append(dx[c:c + 3])
            q.append(calib.extrinsic_q)
        lead = len(q)
        q = quat_normalize(quat_multiply(
            quat_from_axis_angle(np.vstack(dtheta + [clones[:, 0]])), np.vstack(q + [self.clone_q])
        ))
        nav.orientation, self.clone_q = q[0], q[lead:]
        nav.position = nav.position + dx[P]
        nav.velocity = nav.velocity + dx[V]
        nav.bias_gyro = nav.bias_gyro + dx[BG]
        nav.bias_accel = nav.bias_accel + dx[BA]
        if lead > 1:
            self.calib = CameraCalibration.from_intrinsic_vector(
                calib.intrinsic_vector() + dx[c + 6:c + 14],
                q[1],
                calib.extrinsic_p + dx[c + 3:c + 6],
            )
        self.clone_p = self.clone_p + clones[:, 1]
        self.slam_p = self.slam_p + dx[self.slam_start():].reshape(-1, 3)


def camera_poses_now(state: FilterState):
    """Camera rotations (n, 3, 3) and centres (n, 3) of the clone rows' current estimates."""
    return state.calib.camera_pose(state.clone_q, state.clone_p)


def _inverse_depth_rows(w, B, offset, pixels, calib: CameraCalibration):
    """Stacked reprojection residual (2m,) and its Jacobian (2m, 3) with respect to ``w``.

    ``w = (x/z, y/z, 1/z)`` places the point in the anchor camera, and camera
    i sees it at ``h_i = B_i w + offset_i``, which is the point in camera i
    scaled by ``1/z``; the scale leaves the pixel unchanged.
    """
    h = B @ w + offset
    if np.any(h[:, 2] <= MIN_PROJECTION_DEPTH * w[2]):
        raise BehindCamera("point behind an observing camera")
    pred, J_point, _ = project_points(h, calib, jacobians=True)
    return (pixels - pred).ravel(), (J_point @ B).reshape(-1, 3)


def _max_subtended_deg(bearings: np.ndarray) -> np.ndarray:
    """Largest angle in degrees between two rays of each of T tracks, from rays (T, W, 3).

    Gram entries are summed elementwise, so a track's angle does not depend
    on the batch it is computed in.
    """
    x, y, z = (bearings[:, :, None, k] * bearings[:, None, :, k] for k in range(3))
    return np.degrees(np.arccos(np.clip((x + y + z).min(axis=(1, 2)), -1.0, 1.0)))


def _parallax_screen(frames: np.ndarray, pixels: np.ndarray, state: FilterState, cam_poses) -> list:
    """Each track's window, or None where it cannot be triangulated, from one batched pass.

    ``frames`` (T, W) and ``pixels`` (T, W, 2) hold each track's last
    observations oldest first, frame -1 in an unfilled column, as the rows of
    the track table and the death records hold them.  A track
    passes when it has at least two in-window observations (of cloned
    frames) whose rays subtend at least ``min_baseline_deg``.  Its window is
    ``(rows, pixels, rays)``: the clone rows (m,) of its in-window
    observations, their pixels (m, 2) and their unit global rays (m, 3) under
    ``state.calib`` and ``cam_poses``, which it stays valid with.
    """
    out = [None] * len(frames)
    if not state.clones:
        return out
    # clones are numbered in frame order, so a frame's clone row is its rank
    cloned = np.fromiter(state.clones, dtype=np.int64, count=len(state.clones))
    slot = np.minimum(np.searchsorted(cloned, frames), len(cloned) - 1)
    seen = cloned[slot] == frames
    lengths = seen.sum(axis=1)
    viewed = np.flatnonzero(lengths >= 2)
    if not len(viewed):
        return out
    seen = seen[viewed]
    rows = slot[viewed][seen]
    pixels = pixels[viewed][seen]
    xn = undistort(pixels, state.calib, iters=8)
    d_cam = np.column_stack([xn, np.ones(len(xn))])
    d_cam /= np.linalg.norm(d_cam, axis=1, keepdims=True)
    bearings = np.einsum("mji,mj->mi", cam_poses[0][rows], d_cam)  # R^T d per camera
    # pad each track with its first ray, whose products its Gram matrix already holds
    n = lengths[viewed]
    starts = np.cumsum(n) - n
    cols = np.arange(n.max())
    padded = starts[:, None] + np.where(cols < n[:, None], cols, 0)
    wide = ~(_max_subtended_deg(bearings[padded]) < state.cfg.min_baseline_deg)
    for i, a, b in zip(viewed[wide], starts[wide], (starts + n)[wide]):
        out[i] = rows[a:b], pixels[a:b], bearings[a:b]
    return out


def triangulate(window, cam_poses, calib: CameraCalibration) -> np.ndarray:
    """A track's global point (3,) from its window: linear midpoint then GN refinement.

    ``window`` is the track's ``(rows, pixels, rays)`` from
    :func:`_parallax_screen`: its rows index the camera rotations and centres
    ``cam_poses`` of :func:`camera_poses_now`, and its rays are ``calib``'s.
    Refinement runs on an inverse-depth parameterization anchored in the
    first observing camera and minimizes pixel reprojection error.  Raises
    InsufficientBaseline, BehindCamera or NoConvergence, the last also for a
    point that is not finite.
    """
    rows, pixels, rays = window
    m = len(rows)
    Rs, centers = cam_poses[0][rows], cam_poses[1][rows]

    # linear midpoint: sum of projectors orthogonal to each ray
    A = m * np.eye(3) - np.einsum("mi,mj->ij", rays, rays)
    b = centers.sum(axis=0) - np.einsum("mi,mj,mj->i", rays, rays, centers)
    try:
        x0 = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise InsufficientBaseline("singular midpoint system") from e

    R_a = Rs[0]
    c_a = centers[0]
    p_a = R_a @ (x0 - c_a)
    if p_a[2] <= 0:
        raise BehindCamera("linear solution behind the anchor camera")
    w = np.array([p_a[0] / p_a[2], p_a[1] / p_a[2], 1.0 / p_a[2]])
    # camera i sees rho p_i = R_rel (w0, w1, 1) + rho t_rel, with rho = w2
    R_rel = Rs @ R_a.T
    t_rel = np.einsum("mij,mj->mi", Rs, c_a - centers)
    B = np.concatenate([R_rel[:, :, :2], t_rel[:, :, None]], axis=2)
    offset = R_rel[:, :, 2]

    for _ in range(TRIANGULATION_MAX_ITERS):
        r, J = _inverse_depth_rows(w, B, offset, pixels, calib)
        try:
            delta = np.linalg.solve(J.T @ J, J.T @ r)
        except np.linalg.LinAlgError as e:
            raise NoConvergence("normal equations singular") from e
        w = w + delta
        if w[2] <= 1e-8:
            raise BehindCamera("inverse depth collapsed")
        if np.linalg.norm(delta) < 1e-10 * max(1.0, np.linalg.norm(w)):
            break
    else:
        raise NoConvergence(f"no convergence in {TRIANGULATION_MAX_ITERS} iterations")
    if np.any((B @ w + offset)[:, 2] <= MIN_PROJECTION_DEPTH * w[2]):
        raise BehindCamera("point behind an observing camera")
    point = R_a.T @ np.array([w[0] / w[2], w[1] / w[2], 1.0 / w[2]]) + c_a
    if not np.isfinite(point).all():
        raise NoConvergence("point is not finite")
    return point


def _triangulated(state: FilterState, window, cam_poses):
    """A track's triangulated point (3,); None when the screen or the geometry rejects it."""
    if window is None:
        return None
    try:
        return triangulate(window, cam_poses, state.calib)
    except (InsufficientBaseline, BehindCamera, NoConvergence):
        return None


def _in_frames(R: np.ndarray, origins: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Points (N, 3) in the frames of rotations R (N, 3, 3) and origins (N, 3)."""
    return np.einsum("nij,nj->ni", R, points - origins)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a × b over the last axis, broadcast; the explicit formula, twice as fast as np.cross."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _observation_jacobians(state: FilterState, rows: np.ndarray, p_global: np.ndarray, cam_poses):
    """Measurement rows for N observations: row i sees point i from clone ``rows[i]``.

    ``rows`` index the clone arrays.  Pixels are predicted through the camera
    poses ``cam_poses`` of :func:`camera_poses_now`; the Jacobians are taken
    at first-estimate clone poses when enabled.  ``p_global`` broadcasts from
    (3,) to (N, 3).  Returns ``(pred (N,2), H_f (N,2,3), H_clone (N,2,6),
    H_calib (N,2,14) or None, in_front (N,))``; rows whose point is not in
    front of both cameras are placeholders.
    """
    p_global = np.broadcast_to(p_global, (len(rows), 3))
    R_ext = quat_to_matrix(state.calib.extrinsic_q)
    c_pred = _in_frames(cam_poses[0][rows], cam_poses[1][rows], p_global)
    fej = state.cfg.use_fej
    R_ig = quat_to_matrix((state.clone_q_fej if fej else state.clone_q)[rows])
    u = _in_frames(R_ig, (state.clone_p_fej if fej else state.clone_p)[rows], p_global)
    c_lin = (u - state.calib.extrinsic_p) @ R_ext.T
    in_front = (c_pred[:, 2] > MIN_PROJECTION_DEPTH) & (c_lin[:, 2] > MIN_PROJECTION_DEPTH)
    c_pred[~in_front, 2] = 1.0
    c_lin[~in_front, 2] = 1.0

    pred = project_points(c_pred, state.calib)
    _, J_pt, J_intr = project_points(c_lin, state.calib, jacobians=True)
    # q = dq(dtheta) * q_hat gives R = (I - [dtheta]x) R_hat, so a point in
    # that frame moves by [u]x dtheta; row a of J [u]x is a x u.
    J_imu = J_pt @ R_ext
    H_f = J_imu @ R_ig
    H_clone = np.concatenate([_cross(J_imu, u[:, None, :]), -H_f], axis=2)
    H_calib = None
    if state.cfg.estimate_calibration:
        H_calib = np.concatenate(
            [_cross(J_pt, c_lin[:, None, :]), -J_imu, J_intr], axis=2
        )
    return pred, H_f, H_clone, H_calib, in_front


def _involved_cols(state: FilterState, rows: np.ndarray) -> np.ndarray:
    """Columns (..., c + 6n) of the calibration block, if estimated, then of clone rows (..., n)."""
    at, lead = state.clone_start(), rows.shape[:-1]
    clone_cols = (at + CLONE_DIM * rows[..., None] + np.arange(CLONE_DIM)).reshape(lead + (-1,))
    calib_cols = np.broadcast_to(np.arange(ERROR_STATE_DIM, at), lead + (at - ERROR_STATE_DIM,))
    return np.concatenate([calib_cols, clone_cols], axis=-1)


@dataclass
class TrackRows:
    """One track's observations as rows on the state columns ``cols`` they involve.

    ``r`` (2m,) and ``H_x`` (2m, c) are the stacked residuals and Jacobian,
    and ``Q R`` is the complete QR of the (2m, 3) landmark Jacobian.
    ``H_o`` and ``r_o`` are the rows projected onto the left null space
    ``N = Q[:, 3:]``, which are free of the landmark, and ``nis`` is their
    normalized innovation squared under the current covariance.
    """

    r: np.ndarray
    H_x: np.ndarray
    cols: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    H_o: np.ndarray
    r_o: np.ndarray
    nis: float


def _track_rows(state: FilterState, windows: list, points: np.ndarray, cam_poses) -> list:
    """:class:`TrackRows` of T triangulated tracks, or None for a track seen behind a camera.

    ``windows`` are the tracks' :func:`_parallax_screen` windows and ``points``
    (T, 3) their landmarks.  One :func:`_observation_jacobians` call covers
    every observation; tracks of equal window length share one stacked QR,
    null-space projection and innovation covariance.
    """
    lengths = np.array([len(w[0]) for w in windows])
    rows = np.concatenate([w[0] for w in windows])
    pred, H_f, H_clone, H_calib, in_front = _observation_jacobians(
        state, rows, np.repeat(points, lengths, axis=0), cam_poses
    )
    r = np.concatenate([w[1] for w in windows]) - pred
    starts = np.cumsum(lengths) - lengths
    c = state.calib_dim()
    out = [None] * len(windows)
    for m in np.unique(lengths):
        obs = starts[lengths == m][:, None] + np.arange(m)
        front = in_front[obs].all(axis=1)
        tracks, obs = np.flatnonzero(lengths == m)[front], obs[front]
        T = len(tracks)
        if T == 0:
            continue
        H_x = np.zeros((T, 2 * m, c + CLONE_DIM * m))
        blocks = c + CLONE_DIM * np.repeat(np.arange(m), 2)[:, None] + np.arange(CLONE_DIM)
        H_x[:, np.arange(2 * m)[:, None], blocks] = H_clone[obs].reshape(T, 2 * m, CLONE_DIM)
        if H_calib is not None:
            H_x[:, :, :c] = H_calib[obs].reshape(T, 2 * m, CALIB_DIM)
        r_m = r[obs].reshape(T, 2 * m)
        Q, R = np.linalg.qr(H_f[obs].reshape(T, 2 * m, 3), mode="complete")
        Nt = Q[:, :, 3:].transpose(0, 2, 1)
        H_o = Nt @ H_x
        r_o = (Nt @ r_m[:, :, None])[:, :, 0]
        cols = _involved_cols(state, rows[obs])
        P = state.cov[cols[:, :, None], cols[:, None, :]]
        S = H_o @ P @ H_o.transpose(0, 2, 1) + state.cfg.sigma_px**2 * np.eye(2 * m - 3)
        nis = _nis(S, r_o)
        for k, i in enumerate(tracks):
            out[i] = TrackRows(r_m[k], H_x[k], cols[k], Q[k], R[k], H_o[k], r_o[k], float(nis[k]))
    return out


_CHI2_TABLE: dict[tuple[float, int], float] = {}


def _chi2_threshold(confidence: float, dof: int) -> float:
    key = (confidence, dof)
    if key not in _CHI2_TABLE:
        _CHI2_TABLE[key] = float(chi2_dist.ppf(confidence, dof))
    return _CHI2_TABLE[key]


def _nis(S: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Normalized innovation squared rᵀ S⁻¹ r of one residual (k,), or of a stack (N, k)."""
    return np.einsum("...i,...i->...", r, np.linalg.solve(S, r[..., None])[..., 0])


def _chi2_gate(state: FilterState, nis: float, dof: int) -> bool:
    """Whether a residual whose normalized innovation squared is ``nis`` passes the χ² test."""
    return bool(nis < _chi2_threshold(state.cfg.chi2_confidence, max(dof, 1)))


def _dense_rows(state: FilterState, H: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows H (k, c) on the state columns ``cols`` written out over the whole state (k, d)."""
    out = np.zeros((H.shape[0], state.dim()))
    out[:, cols] = H
    return out


def _ekf_update(state: FilterState, H: np.ndarray, r: np.ndarray) -> None:
    """EKF step with isotropic pixel noise and a Joseph-form covariance, on H's columns only.

    Aᵀ = H P and S = H A + σ² I read only the rows of P that H involves.
    With K = A S⁻¹ the Joseph form (I − KH) P (I − KH)ᵀ + σ² K Kᵀ expands to
    P − K Aᵀ − A Kᵀ + K S Kᵀ = P + X + Xᵀ, X = K (½ S Kᵀ − Aᵀ): one d×k×d
    product, written with X + Xᵀ into the state's work buffers, and P stays
    exactly symmetric.  A step whose S is singular or
    whose correction is not finite is skipped and leaves the state as it was.
    """
    if H.shape[0] == 0:
        return
    cols = np.flatnonzero(H.any(axis=0))
    H = H[:, cols]
    # compress tall stacks: Q1ᵀ keeps the noise iid, and the residual it
    # leaves out lies outside H's range
    if H.shape[0] > len(cols):
        Q1, H = np.linalg.qr(H, mode="reduced")
        r = Q1.T @ r
    P = state.cov
    At = H @ P[cols]  # P is symmetric, so its rows stand in for its columns
    S = At[:, cols] @ H.T + state.cfg.sigma_px**2 * np.eye(H.shape[0])
    try:
        Kt = np.linalg.inv(S) @ At
    except np.linalg.LinAlgError:
        return
    dx = r @ Kt
    if not np.isfinite(dx).all():
        return
    X, sym = state.square_buffers(P.shape[0])
    np.matmul(Kt.T, 0.5 * (S @ Kt) - At, out=X)
    P += np.add(X, X.T, out=sym)
    state.apply_correction(dx)


def msckf_update(state: FilterState, dead_tracks: list[FeatureTrack]) -> int:
    """Consume dead tracks via left null-space projection; returns how many were used."""
    if not dead_tracks:
        return 0
    cam_poses = camera_poses_now(state)
    # calibration and camera poses hold until the one update below, so one
    # screen, one rows pass and one P serve every track
    tracks = sorted(dead_tracks, key=lambda t: t.id)
    frames = np.array([t.frames for t in tracks])
    pixels = np.array([t.pixels for t in tracks])
    windows, points = [], []
    for window in _parallax_screen(frames, pixels, state, cam_poses):
        point = _triangulated(state, window, cam_poses)
        if point is not None:
            windows.append(window)
            points.append(point)
    accepted = []
    for rows in _track_rows(state, windows, np.array(points), cam_poses) if windows else []:
        if len(accepted) >= state.cfg.max_msckf_update:
            break
        if rows is not None and _chi2_gate(state, rows.nis, rows.r.size - 3):
            accepted.append(rows)
    if accepted:
        _ekf_update(state, np.vstack([_dense_rows(state, a.H_o, a.cols) for a in accepted]),
                    np.concatenate([a.r_o for a in accepted]))
    return len(accepted)


def slam_update(state: FilterState, table: TrackTable, promotions: np.ndarray, frame_index: int):
    """Update the landmarks whose tracks ``table`` observed in ``frame_index``, then promote.

    ``promotions`` are rows of ``table``, initialized in order as capacity
    allows; a row whose screen or triangulation fails waits 5 frames.
    """
    # (a) per-feature EKF rows for landmarks observed this frame, all from
    # this frame's clone, built in one batch, in the landmarks' order
    accepted = []
    inconsistent = []
    cam_poses = camera_poses_now(state)
    slam_ids = state.landmark_ids()
    track_rows = table.rows_of(slam_ids)
    lm_rows = np.flatnonzero(track_rows >= 0)
    lm_rows = lm_rows[table.last_frame[track_rows[lm_rows]] == frame_index]
    if len(lm_rows):
        rows = np.full(len(lm_rows), state.clones[frame_index])
        now = state.slam_p[lm_rows]
        lin = state.slam_fej[lm_rows] if state.cfg.use_fej else now
        pred, H_f, H_clone, H_calib, in_front = _observation_jacobians(state, rows, lin, cam_poses)
        if state.cfg.use_fej:
            # the residual uses the current estimate even under FEJ
            c_now = _in_frames(cam_poses[0][rows], cam_poses[1][rows], now)
            in_front &= c_now[:, 2] > MIN_PROJECTION_DEPTH
            c_now[~in_front, 2] = 1.0
            pred = project_points(c_now, state.calib)
        r = table.pos[track_rows[lm_rows]] - pred
        # rows i involve the calibration, this clone and landmark i only, and
        # every gate reads the same P: all their S in one batched pass
        H = np.concatenate(([] if H_calib is None else [H_calib]) + [H_clone, H_f], axis=2)
        lm_cols = state.slam_start() + LANDMARK_DIM * lm_rows[:, None] + np.arange(LANDMARK_DIM)
        cols = np.hstack([_involved_cols(state, rows[:, None]), lm_cols])
        P = state.cov[cols[:, :, None], cols[:, None, :]]
        nis = _nis(H @ P @ H.transpose(0, 2, 1) + state.cfg.sigma_px**2 * np.eye(2), r)
    for i, tid in enumerate(slam_ids[lm_rows].tolist()):
        if len(accepted) >= state.cfg.max_slam_update:
            break
        if not in_front[i]:
            # a claimed observation of a landmark behind the camera is
            # geometrically inconsistent: retire it after the batch update
            # (removing now would shift the column offsets already built)
            inconsistent.append(tid)
            continue
        if not _chi2_gate(state, nis[i], 2):
            continue
        accepted.append(i)
    if accepted:
        state.slam_seen[lm_rows[accepted]] = frame_index
        H_acc = np.vstack([_dense_rows(state, H[i], cols[i]) for i in accepted])
        _ekf_update(state, H_acc, r[accepted].ravel())
    for tid in inconsistent:
        state.remove_landmark(tid)

    # (b) delayed initialization of newly promoted tracks that are due
    capacity = state.cfg.max_slam_update - len(state.slam)
    due = promotions[table.retry_after[promotions] <= frame_index]
    windows = {}  # index in due -> parallax screen window under the current state.calib
    take = 0
    failed = []  # rows whose screen or triangulation failed
    for i, row in enumerate(due.tolist()):
        if capacity <= 0:
            break
        if i not in windows:
            # screen as many candidates as could still be initialized; after a
            # pass that ran out with no update, whose calibration still holds,
            # twice as many as that pass
            take = 2 * take if windows else capacity
            batch = due[i:i + take]
            screened = _parallax_screen(table.obs_frames[batch], table.obs_pixels[batch], state,
                                        cam_poses)
            windows = dict(enumerate(screened, start=i))
        window = windows[i]
        p_tri = _triangulated(state, window, cam_poses)
        (rows,) = [None] if p_tri is None else _track_rows(state, [window], p_tri[None], cam_poses)
        if rows is None:
            failed.append(row)
            continue
        R1 = rows.R[:3, :]
        if np.abs(np.diag(R1)).min() < 1e-9 * max(1.0, np.abs(R1).max()):
            continue
        Q1 = rows.Q[:, :3]
        R1_inv = np.linalg.inv(R1)
        M = -R1_inv @ (Q1.T @ rows.H_x)  # on the state columns rows.cols
        cov_fx = M @ state.cov[rows.cols]
        cov_ff = cov_fx[:, rows.cols] @ M.T + state.cfg.sigma_px**2 * (R1_inv @ R1_inv.T)
        cov_ff = 0.5 * (cov_ff + cov_ff.T)  # keeps P exactly symmetric
        position = p_tri + R1_inv @ (Q1.T @ rows.r)
        state.add_landmark(int(table.ids[row]), position, position, cov_ff, cov_fx, frame_index)
        capacity -= 1
        # the other 2m - 3 rows are landmark-free: consume them as a plain update;
        # appending the landmark left their columns and S as they were
        if _chi2_gate(state, rows.nis, rows.r.size - 3):
            _ekf_update(state, _dense_rows(state, rows.H_o, rows.cols), rows.r_o)
            windows = {}  # the update replaced state.calib, which the screen's rays read
    table.retry_after[failed] = frame_index + 5


@dataclass
class FrameResult:
    t: float
    position: np.ndarray
    orientation: np.ndarray  # xyzw
    trace: float
    pos_sigma: float
    rot_sigma: float
    live_tracks: int = 0
    slam_count: int = 0
    msckf_used: int = 0


def route_tracks(state: FilterState, table: TrackTable, died: list[FeatureTrack]):
    """This frame's promotion candidates, as table rows, and MSCKF tracks, each in id order.

    Live tracks without a landmark seen for ``max_clones`` frames are
    promoted to in-state landmarks; tracks in ``died`` with at least
    ``min_msckf_len`` observations feed the MSCKF update.
    """
    candidate = table.length >= state.cfg.max_clones
    in_state = table.rows_of(state.landmark_ids())
    candidate[in_state[in_state >= 0]] = False
    dead = [t for t in died if t.length >= state.cfg.min_msckf_len]
    return np.flatnonzero(candidate), sorted(dead, key=lambda t: t.id)


def process_frame(
    state: FilterState,
    table: TrackTable,
    died: list[FeatureTrack],
    imu_segment,
    noise: NoiseParams,
    frame_index: int,
    t: float,
) -> FrameResult:
    """One filter cycle: propagate, clone, update, marginalize.

    ``imu_segment`` must cover the interval up to ``t``; the track table
    must already contain this frame's observations, and ``died`` holds the
    tracks that ``track_frame`` retired this frame.
    """
    cfg = state.cfg
    if len(imu_segment) >= 2:
        state.nav, Phi, Q = propagate_block(state.nav, imu_segment, noise)
        n = ERROR_STATE_DIM
        P = state.cov
        P[:n, :n] = Phi @ P[:n, :n] @ Phi.T + Q
        P[:n, n:] = Phi @ P[:n, n:]
        P[n:, :n] = P[:n, n:].T
        # the rest of P is exactly symmetric already: every update adds X + Xᵀ,
        # and _grow and _shrink copy mirrored blocks
        P[:n, :n] = 0.5 * (P[:n, :n] + P[:n, :n].T)

    state.clone_pose(frame_index)

    promotions, dead_tracks = route_tracks(state, table, died)
    slam_update(state, table, promotions, frame_index)
    msckf_used = msckf_update(state, dead_tracks)

    while len(state.clones) > cfg.max_clones:
        state.marginalize_clone(min(state.clones))

    # retire landmarks whose track died, or that went unseen for a whole
    # window (stale), together with their track; each removal reshapes P, so
    # they run in the landmarks' order
    slam_ids = state.landmark_ids()
    rows = table.rows_of(slam_ids)
    stale = state.slam_seen < frame_index - cfg.max_clones
    table.retire(np.sort(rows[stale & (rows >= 0)]), "stale")
    for tid in slam_ids[stale | (rows < 0)].tolist():
        state.remove_landmark(tid)

    pos_var = np.trace(state.cov[3:6, 3:6])
    rot_var = np.trace(state.cov[0:3, 0:3])
    return FrameResult(
        t=t,
        position=state.nav.position.copy(),
        orientation=state.nav.orientation.copy(),
        trace=float(np.trace(state.cov)),
        pos_sigma=float(np.sqrt(max(pos_var, 0.0))),
        rot_sigma=float(np.sqrt(max(rot_var, 0.0))),
        live_tracks=len(table),
        slam_count=len(state.slam),
        msckf_used=msckf_used,
    )
