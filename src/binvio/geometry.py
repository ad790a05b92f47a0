"""Rotation, pose, and camera-projection primitives.

Conventions used throughout the package:

* Quaternions are plain float arrays stored scalar-last as ``[x, y, z, w]``:
  (4,) for one, (n, 4) for many.  Each represents the rotation from the
  global frame G into a local frame (body or camera), and composition is
  defined so that ``R(a * b) = R(a) @ R(b)``.  The rotation helpers take one
  row or stacked rows alike, and a stacked call gives each row the bits of
  the one-row call.
* A frame's pose is its orientation ``q`` (G into the frame) and its origin
  ``p`` expressed in G, so a world point ``x`` has frame coordinates
  ``R(q) @ (x - p)``.  A camera pose is the pair ``(R, centre)`` of its
  rotation matrix and centre, as :meth:`CameraCalibration.camera_pose`
  returns it and :func:`project_batch` takes it.
* Pixel coordinates are ``(u, v)`` with ``u`` along columns and ``v`` along
  rows of the 256x256 maps.

Camera model.  A camera-frame point ``(X, Y, Z)`` is divided onto the
normalized plane, ``x = X / Z`` and ``y = Y / Z``, distorted with
``r2 = x^2 + y^2``::

    xd = x (1 + k1 r2 + k2 r2^2) + 2 p1 x y + p2 (r2 + 2 x^2)
    yd = y (1 + k1 r2 + k2 r2^2) + p1 (r2 + 2 y^2) + 2 p2 x y

and scaled to pixels ``u = fx xd + cx``, ``v = fy yd + cy``.  The
polynomial is written once, in ``_distort``.  :func:`project_points` is the
model on (N, 3) camera-frame arrays; on request it also returns
d(pixel)/d(point) as (N, 2, 3) and d(pixel)/d(fx, fy, cx, cy, k1, k2, p1, p2)
as (N, 2, 8), in the order of :meth:`CameraCalibration.intrinsic_vector`.
It does not check depth: callers guarantee ``Z > 0``.  :func:`project_batch`,
the renderer's path, flags points below its ``min_depth`` invalid and shares
the normalized radius with its culling.  :func:`undistort` inverts the
distortion by fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SMALL_ANGLE = 1e-8


# [v]x[i, j] = _SKEW_SIGN[i, j] * v[_SKEW_INDEX[i, j]]
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of rows ``v`` (..., 3)."""
    return np.asarray(v, dtype=float)[..., _SKEW_INDEX] * _SKEW_SIGN


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms (...,) of rows ``v`` (..., k), each summed in column order.

    Unlike einsum's, the sum does not depend on the memory layout of ``v``.
    """
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _rodrigues(phi, coefficients, limits) -> np.ndarray:
    """``I + a [phi]x + b [phi]x^2`` of rows ``phi`` (..., 3), (..., 3, 3).

    ``(a, b) = coefficients(|phi|)``; rows shorter than SMALL_ANGLE take the
    Taylor ``limits`` (a, b) instead.
    """
    K = skew(phi)
    angle = _norms(np.asarray(phi, dtype=float))[..., None, None]
    small = angle < SMALL_ANGLE
    a, b = coefficients(np.where(small, 1.0, angle))
    if small.any():
        a, b = np.where(small, limits[0], a), np.where(small, limits[1], b)
    return np.eye(3) + a * K + b * (K @ K)


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rotation matrices exp([phi]x) (..., 3, 3) of rows ``phi`` (..., 3), via Rodrigues."""
    return _rodrigues(phi, lambda t: (np.sin(t) / t, (1.0 - np.cos(t)) / (t * t)), (1.0, 0.5))


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right Jacobians (..., 3, 3) of rows phi (..., 3): exp(phi + d) = exp(phi) exp(Jr d)."""
    return _rodrigues(
        phi,
        lambda t: (-(1.0 - np.cos(t)) / (t * t), (t - np.sin(t)) / (t * t * t)),
        (-0.5, 1.0 / 6.0),
    )


# Quaternion helpers (scalar-last, global-to-local) on one (4,) row or
# stacked (n, 4) rows.


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit quaternions of rows ``q`` (..., 4), signed so that w >= 0."""
    n = _norms(q)[..., None]
    if (n < 1e-15).any():
        raise ValueError("cannot normalize zero quaternion")
    q = q / n
    return np.where(q[..., 3:] < 0.0, -q, q)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compose rotations so that R(a*b) = R(a) @ R(b); (4,) or stacked (n, 4), broadcast."""
    ax, ay, az, aw = a.T
    bx, by, bz, bw = b.T
    return np.array(
        [
            aw * bx + az * by - ay * bz + ax * bw,
            -az * bx + aw * by + ax * bz + ay * bw,
            ay * bx - ax * by + aw * bz + az * bw,
            -ax * bx - ay * by - az * bz + aw * bw,
        ]
    ).T


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping global vectors into the local frame; (n, 3, 3) for q (n, 4)."""
    x, y, z, w = q.T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    out = np.empty(np.shape(x) + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    out[..., 0, 1] = 2.0 * (xy + wz)
    out[..., 0, 2] = 2.0 * (xz - wy)
    out[..., 1, 0] = 2.0 * (xy - wz)
    out[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    out[..., 1, 2] = 2.0 * (yz + wx)
    out[..., 2, 0] = 2.0 * (xz + wy)
    out[..., 2, 1] = 2.0 * (yz - wx)
    out[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return out


def quat_from_axis_angle(phi: np.ndarray) -> np.ndarray:
    """Quaternions (..., 4), R(q) = exp(-[phi]x): the local frame rotated by rows phi (..., 3)."""
    phi = np.asarray(phi, dtype=float)
    angle = _norms(phi)[..., None]
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    xyz = phi / safe * np.sin(0.5 * safe)
    if small.any():
        xyz = np.where(small, 0.5 * phi, xyz)
    return quat_normalize(np.concatenate([xyz, np.cos(0.5 * angle)], axis=-1))


@dataclass(frozen=True)
class CameraCalibration:
    """Pinhole intrinsics with radial-tangential distortion and IMU extrinsics.

    ``extrinsic_q`` (xyzw) maps IMU-frame vectors into the camera frame and
    ``extrinsic_p`` is the camera origin expressed in the IMU frame.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    distortion: np.ndarray = field(default_factory=lambda: np.zeros(4))
    extrinsic_q: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    extrinsic_p: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        for name in ("distortion", "extrinsic_q", "extrinsic_p"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def intrinsic_vector(self) -> np.ndarray:
        """(fx, fy, cx, cy, k1, k2, p1, p2) as one error-state block."""
        return np.concatenate(([self.fx, self.fy, self.cx, self.cy], self.distortion))

    @staticmethod
    def from_intrinsic_vector(vec: np.ndarray, extrinsic_q, extrinsic_p) -> "CameraCalibration":
        vec = np.asarray(vec, dtype=float)
        return CameraCalibration(
            fx=float(vec[0]), fy=float(vec[1]), cx=float(vec[2]), cy=float(vec[3]),
            distortion=vec[4:8].copy(), extrinsic_q=extrinsic_q, extrinsic_p=extrinsic_p,
        )

    def camera_pose(self, q: np.ndarray, p: np.ndarray):
        """Camera poses (R (..., 3, 3), centre (..., 3)) of IMU poses q (..., 4), p (..., 3)."""
        R = quat_to_matrix(q)
        return (
            quat_to_matrix(self.extrinsic_q) @ R,
            p + np.einsum("...ji,j->...i", R, self.extrinsic_p),
        )


MIN_PROJECTION_DEPTH = 1e-6
RENDER_MIN_DEPTH = 0.05  # m; project_batch flags points nearer than this invalid


def _distort(x: np.ndarray, y: np.ndarray, distortion: np.ndarray):
    """Radial-tangential distortion of normalized coordinates.

    Returns ``(xd, yd, r2, radial)``; the inverse in :func:`undistort` reuses
    ``radial`` as its fixed-point step.
    """
    k1, k2, p1, p2 = distortion
    r2 = x * x + y * y
    radial = 1.0 + k1 * r2 + k2 * r2 * r2
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return xd, yd, r2, radial


def project_points(p_cam: np.ndarray, calib: CameraCalibration, jacobians: bool = False):
    """Pixels (N, 2) of camera-frame points (N, 3); the caller guarantees z > 0.

    With ``jacobians`` also returns d(pixel)/d(p_cam) (N, 2, 3) and
    d(pixel)/d(fx, fy, cx, cy, k1, k2, p1, p2) (N, 2, 8).
    """
    z = p_cam[:, 2]
    x = p_cam[:, 0] / z
    y = p_cam[:, 1] / z
    xd, yd, r2, radial = _distort(x, y, calib.distortion)
    fx, fy = calib.fx, calib.fy
    px = np.column_stack([fx * xd + calib.cx, fy * yd + calib.cy])
    if not jacobians:
        return px

    k1, k2, p1, p2 = calib.distortion
    # d(distorted)/d(normalized), then through the perspective division
    dradial = 2.0 * (k1 + 2.0 * k2 * r2)
    j00 = radial + x * x * dradial + 2.0 * p1 * y + 6.0 * p2 * x
    j01 = x * y * dradial + 2.0 * p1 * x + 2.0 * p2 * y
    j11 = radial + y * y * dradial + 6.0 * p1 * y + 2.0 * p2 * x
    inv_z = 1.0 / z
    J_point = np.empty((len(z), 2, 3))
    J_point[:, 0, 0] = fx * j00 * inv_z
    J_point[:, 0, 1] = fx * j01 * inv_z
    J_point[:, 0, 2] = -fx * (j00 * x + j01 * y) * inv_z
    J_point[:, 1, 0] = fy * j01 * inv_z
    J_point[:, 1, 1] = fy * j11 * inv_z
    J_point[:, 1, 2] = -fy * (j01 * x + j11 * y) * inv_z

    # the distorted coordinates are linear in each distortion coefficient
    xy2 = 2.0 * x * y
    J_intr = np.zeros((len(z), 2, 8))
    J_intr[:, 0, 0] = xd
    J_intr[:, 1, 1] = yd
    J_intr[:, 0, 2] = 1.0
    J_intr[:, 1, 3] = 1.0
    J_intr[:, 0, 4:8] = fx * np.column_stack([x * r2, x * r2 * r2, xy2, r2 + 2.0 * x * x])
    J_intr[:, 1, 4:8] = fy * np.column_stack([y * r2, y * r2 * r2, r2 + 2.0 * y * y, xy2])
    return px, J_point, J_intr


def undistort(pixels: np.ndarray, calib: CameraCalibration, iters: int = 20) -> np.ndarray:
    """Normalized coordinates (N, 2) of pixels (N, 2), inverting distortion by fixed point."""
    pixels = np.asarray(pixels, dtype=float)
    xd = (pixels[:, 0] - calib.cx) / calib.fx
    yd = (pixels[:, 1] - calib.cy) / calib.fy
    x, y = xd, yd
    for _ in range(iters):
        xd_k, yd_k, _, radial = _distort(x, y, calib.distortion)
        x = x + (xd - xd_k) / radial
        y = y + (yd - yd_k) / radial
    return np.column_stack([x, y])


def project_batch(
    points: np.ndarray,
    cam_pose: tuple[np.ndarray, np.ndarray],
    calib: CameraCalibration,
    min_depth: float = RENDER_MIN_DEPTH,
    max_normalized_radius: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Project many global points at once through the camera pose ``(R, centre)``.

    Returns ``(pixels, valid)``; entries with depth below ``min_depth`` or
    wild normalized coordinates are flagged invalid (their pixel values are
    unspecified).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    R, centre = cam_pose
    pc = (pts - centre) @ R.T
    valid = pc[:, 2] > min_depth
    z = np.where(valid, pc[:, 2], 1.0)
    x = pc[:, 0] / z
    y = pc[:, 1] / z
    xd, yd, r2, _ = _distort(x, y, calib.distortion)
    valid &= r2 < max_normalized_radius**2
    return np.column_stack([calib.fx * xd + calib.cx, calib.fy * yd + calib.cy]), valid
