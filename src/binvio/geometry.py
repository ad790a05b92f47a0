"""Rotation, pose, and camera-projection primitives.

Conventions used throughout the package:

* Quaternions are stored scalar-last as ``[x, y, z, w]`` and represent the
  rotation from the global frame G into a local frame (body or camera).
  Composition is defined so that ``R(a * b) = R(a) @ R(b)``.
* ``Pose.orientation`` maps global vectors into the pose's frame and
  ``Pose.position`` is the frame origin expressed in G, so a world point
  ``p`` has frame coordinates ``R(q) @ (p - position)``.
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


def skew(v: np.ndarray) -> np.ndarray:
    """Return the 3x3 cross-product matrix of ``v``."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rotation matrix exp([phi]x) via Rodrigues, Taylor fallback near zero."""
    angle = float(np.linalg.norm(phi))
    K = skew(phi)
    if angle < SMALL_ANGLE:
        return np.eye(3) + K + 0.5 * (K @ K)
    a = np.sin(angle) / angle
    b = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + a * K + b * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of ``R`` (inverse of :func:`so3_exp`)."""
    cos_angle = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < SMALL_ANGLE:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle > np.pi - 1e-6:
        # Near pi the off-diagonal form degenerates; use the symmetric part.
        A = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(A), 0.0, None))
        # Fix signs from the largest component.
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            signs = np.sign(A[k, :] / axis[k])
            signs[signs == 0.0] = 1.0
            axis = axis * signs * np.sign(axis[k])
        return axis / max(np.linalg.norm(axis), 1e-12) * angle
    return angle / (2.0 * np.sin(angle)) * np.array(
        [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]
    )


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right Jacobian Jr(phi) with exp(phi + d) = exp(phi) exp(Jr d)."""
    angle = float(np.linalg.norm(phi))
    K = skew(phi)
    if angle < SMALL_ANGLE:
        return np.eye(3) - 0.5 * K + (K @ K) / 6.0
    a2 = angle * angle
    return (
        np.eye(3)
        - (1.0 - np.cos(angle)) / a2 * K
        + (angle - np.sin(angle)) / (a2 * angle) * (K @ K)
    )


# Array-level quaternion helpers (scalar-last, global-to-local).  These are
# the hot-path primitives; UnitQuaternion wraps them for the public types.


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(q))
    if n < 1e-15:
        raise ValueError("cannot normalize zero quaternion")
    q = q / n
    if q[3] < 0.0:
        q = -q
    return q


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


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Quaternion of a global-to-local rotation matrix."""
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (R[1, 2] - R[2, 1]) / s
        y = (R[2, 0] - R[0, 2]) / s
        z = (R[0, 1] - R[1, 0]) / s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        w = (R[1, 2] - R[2, 1]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        w = (R[2, 0] - R[0, 2]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        w = (R[0, 1] - R[1, 0]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    return quat_normalize(np.array([x, y, z, w]))


def quat_from_axis_angle(phi: np.ndarray) -> np.ndarray:
    """Quaternion with R(q) = exp(-[phi]x), i.e. the local frame rotated by phi."""
    angle = float(np.linalg.norm(phi))
    if angle < SMALL_ANGLE:
        q = np.array([0.5 * phi[0], 0.5 * phi[1], 0.5 * phi[2], 1.0])
        return quat_normalize(q)
    axis = phi / angle
    half = 0.5 * angle
    s = np.sin(half)
    return quat_normalize(np.array([axis[0] * s, axis[1] * s, axis[2] * s, np.cos(half)]))


def quat_integrate_array(q: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Advance a global-to-local quaternion by body rate ``omega`` over ``dt``."""
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    return quat_normalize(quat_multiply(quat_from_axis_angle(np.asarray(omega) * dt), q))


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (scalar-last) rotating global vectors into a local frame."""

    xyzw: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))

    def __post_init__(self):
        q = quat_normalize(np.asarray(self.xyzw, dtype=float))
        object.__setattr__(self, "xyzw", q)

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion()

    def to_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.xyzw)

    def multiply(self, other: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion(quat_multiply(self.xyzw, other.xyzw))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``orientation`` maps G into the frame, ``position`` in G."""

    orientation: UnitQuaternion = field(default_factory=UnitQuaternion.identity)
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "_rotation_cache", None)

    def rotation(self) -> np.ndarray:
        if self._rotation_cache is None:
            object.__setattr__(self, "_rotation_cache", self.orientation.to_matrix())
        return self._rotation_cache

    def compose(self, inner: "Pose") -> "Pose":
        """Pose mapping global coords through ``inner`` then ``self``.

        Interpreting poses as frame definitions: if ``inner`` is frame A in G
        and ``self`` is frame B in A, the result is frame B in G.
        """
        q = self.orientation.multiply(inner.orientation)
        p = inner.position + inner.rotation().T @ self.position
        return Pose(q, p)


@dataclass(frozen=True)
class CameraCalibration:
    """Pinhole intrinsics with radial-tangential distortion and IMU extrinsics.

    ``extrinsic.orientation`` maps IMU-frame vectors into the camera frame and
    ``extrinsic.position`` is the camera origin expressed in the IMU frame.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    distortion: np.ndarray = field(default_factory=lambda: np.zeros(4))
    extrinsic: Pose = field(default_factory=Pose)

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "distortion", np.asarray(self.distortion, dtype=float))

    def intrinsic_vector(self) -> np.ndarray:
        """(fx, fy, cx, cy, k1, k2, p1, p2) as one error-state block."""
        return np.concatenate(([self.fx, self.fy, self.cx, self.cy], self.distortion))

    @staticmethod
    def from_intrinsic_vector(vec: np.ndarray, extrinsic: Pose) -> "CameraCalibration":
        vec = np.asarray(vec, dtype=float)
        return CameraCalibration(
            fx=float(vec[0]), fy=float(vec[1]), cx=float(vec[2]), cy=float(vec[3]),
            distortion=vec[4:8].copy(), extrinsic=extrinsic,
        )


MIN_PROJECTION_DEPTH = 1e-6


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
    cam_pose: Pose,
    calib: CameraCalibration,
    min_depth: float = 0.05,
    max_normalized_radius: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Project many global points at once.

    Returns ``(pixels, valid)``; entries with depth below ``min_depth`` or
    wild normalized coordinates are flagged invalid (their pixel values are
    unspecified).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    R = cam_pose.rotation()
    pc = (pts - cam_pose.position) @ R.T
    valid = pc[:, 2] > min_depth
    z = np.where(valid, pc[:, 2], 1.0)
    x = pc[:, 0] / z
    y = pc[:, 1] / z
    xd, yd, r2, _ = _distort(x, y, calib.distortion)
    valid &= r2 < max_normalized_radius**2
    return np.column_stack([calib.fx * xd + calib.cx, calib.fy * yd + calib.cy]), valid
