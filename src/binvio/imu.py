"""Inertial state and covariance propagation between camera frames.

The navigation state is (orientation, position, velocity, gyro bias,
accel bias), the orientation an xyzw array; its 15-dim error state is
ordered (dtheta, dp, dv, dbg, dba) with the attitude error defined by
``q = dq(dtheta) * q_hat``.

Measurements model specific force: with the gravity acceleration vector
``g`` pointing down (0, 0, -9.81), a sample reads

    omega_m = omega_true + b_g + n_g
    a_m     = R(q) (a_global - g) + b_a + n_a

so the body-frame kinematic acceleration is ``a_m + R(q) g - b_a``.
``propagate_block`` integrates each interval [t_k, t_{k+1}) with the mean of
samples k and k + 1, and evaluates the translational integrals at the
half-step attitude.  Holding sample k over the interval instead would
rectify the rotation across it into a phantom acceleration: a bias that
instantaneous samples, like the synthetic ones, show at double-digit body
rates.  The error transition Phi is the Jacobian of this same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    skew,
    so3_exp,
    so3_right_jacobian,
)

ERROR_STATE_DIM = 15
TH = slice(0, 3)
P = slice(3, 6)
V = slice(6, 9)
BG = slice(9, 12)
BA = slice(12, 15)


class TimestampGap(RuntimeError):
    """Consecutive samples further apart than 3x the stream's median spacing."""


@dataclass
class NavState:
    """IMU pose, velocity and biases; ``orientation`` (4,) xyzw maps G into the IMU frame."""

    orientation: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("orientation", "position", "velocity", "bias_gyro", "bias_accel"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, v)


@dataclass(frozen=True)
class NoiseParams:
    """Continuous-time noise densities plus gravity magnitude.

    gravity may be 0 to disable gravity entirely (used by analytic tests);
    otherwise it must stay near standard gravity.
    """

    gyro_noise: float = 2e-4      # rad/s/sqrt(Hz)
    accel_noise: float = 2e-3     # m/s^2/sqrt(Hz)
    gyro_walk: float = 2e-6       # rad/s^2/sqrt(Hz)
    accel_walk: float = 3e-5      # m/s^3/sqrt(Hz)
    gravity: float = 9.81         # m/s^2

    def __post_init__(self):
        for name in ("gyro_noise", "accel_noise", "gyro_walk", "accel_walk"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not (self.gravity == 0.0 or abs(self.gravity - 9.81) <= 0.5):
            raise ValueError("gravity must be 0 or within 9.81 +/- 0.5")

    def gravity_vector(self) -> np.ndarray:
        """Gravity acceleration in G, pointing down."""
        return np.array([0.0, 0.0, -self.gravity])


def propagate_block(
    state: NavState, samples: np.ndarray, noise: NoiseParams
) -> tuple[NavState, np.ndarray, np.ndarray]:
    """Integrate over the sample stream; also return (Phi_total, Q_total).

    ``samples`` (N, 7) holds one sample per row in ``imu.csv``'s column order
    ``t, wx, wy, wz, ax, ay, az``, times strictly increasing.  The returned
    transition and noise cover the 15-dim navigation error and are what a
    joint filter applies to its nav block and cross terms.

    Step k rotates the attitude by ``A = omega_hat dt`` and integrates
    velocity and position with the half-step attitude ``R_mid = E R``,
    ``E = exp(-[A / 2]x)``; its Phi is the Jacobian of exactly this step.
    With ``f = a_m - b_a`` the velocity rows of Phi are ``-R^T [E^T f]x dt``
    for attitude, ``R_mid^T [f]x J_r(A / 2) dt^2 / 2`` for gyro bias and
    ``-R_mid^T dt`` for accel bias; each position row is ``dt / 2`` times its
    velocity row.  The biases hold over the block, so only the attitudes are
    chained step by step: every other term of every step comes from one
    stacked call.
    """
    dts = np.diff(samples[:, 0])
    if (dts <= 0).any():
        raise ValueError("sample timestamps must be strictly increasing")
    mid = 0.5 * (samples[:-1, 1:] + samples[1:, 1:])  # each interval's mean (omega, accel)
    n, dt = len(dts), dts[:, None, None]
    A = (mid[:, :3] - state.bias_gyro) * dts[:, None]
    f = mid[:, 3:] - state.bias_accel  # specific force, gravity included

    # attitudes at each step's start, middle and end; the last ends the block
    dq = quat_from_axis_angle(np.concatenate([0.5 * A, A])).reshape(2, n, 4)
    q = np.empty((2 * n + 1, 4))
    q[0] = state.orientation
    for k in range(n):
        q[2 * k + 1:2 * k + 3] = quat_normalize(quat_multiply(dq[:, k], q[2 * k]))
    R = quat_to_matrix(q[:-1])
    R_start, R_mid_T = R[0::2], R[1::2].transpose(0, 2, 1)
    f_global = np.einsum("nij,nj->ni", R_mid_T, f)
    Jr = so3_right_jacobian(np.concatenate([A, 0.5 * A])).reshape(2, n, 3, 3)

    Phi = np.tile(np.eye(ERROR_STATE_DIM), (n, 1, 1))
    Phi[:, TH, TH] = so3_exp(-A)
    Phi[:, TH, BG] = -Jr[0] * dt
    Phi[:, V, TH] = -skew(f_global) @ R_start.transpose(0, 2, 1) * dt  # = -R^T [E^T f]x dt
    Phi[:, V, BG] = 0.5 * R_mid_T @ skew(f) @ Jr[1] * dt * dt
    Phi[:, V, BA] = -R_mid_T * dt
    Phi[:, P, V] = np.eye(3) * dt
    for col in (TH, BG, BA):
        Phi[:, P, col] = 0.5 * dt * Phi[:, V, col]

    # process noise per second of step; the densities are isotropic, so the
    # accelerometer noise rotated into G is the same diagonal as in the body
    # frame, and position has none of its own
    noise_rate = np.diag(
        np.repeat(
            [noise.gyro_noise**2, 0.0, noise.accel_noise**2, noise.gyro_walk**2,
             noise.accel_walk**2],
            3,
        )
    )
    accel = f_global + noise.gravity_vector()
    p, v = state.position, state.velocity
    Phi_total = np.eye(ERROR_STATE_DIM)
    Q_total = np.zeros((ERROR_STATE_DIM, ERROR_STATE_DIM))
    for Phi_k, a, step in zip(Phi, accel, dts):
        p = p + v * step + 0.5 * a * step * step
        v = v + a * step
        Phi_total = Phi_k @ Phi_total
        Q_total = Phi_k @ Q_total @ Phi_k.T + noise_rate * step
    out = NavState(q[-1], p, v, state.bias_gyro.copy(), state.bias_accel.copy())
    return out, Phi_total, Q_total
