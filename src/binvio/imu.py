"""Inertial state and covariance propagation between camera frames.

The navigation state is (orientation, position, velocity, gyro bias,
accel bias); its 15-dim error state is ordered (dtheta, dp, dv, dbg, dba)
with the attitude error defined by ``q = dq(dtheta) * q_hat``.

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
    UnitQuaternion,
    quat_integrate_array,
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


@dataclass(frozen=True)
class ImuSample:
    t: float
    omega: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))
        if not (np.all(np.isfinite(self.omega)) and np.all(np.isfinite(self.accel))):
            raise ValueError("IMU sample must be finite")


@dataclass
class NavState:
    orientation: UnitQuaternion = field(default_factory=UnitQuaternion.identity)
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("position", "velocity", "bias_gyro", "bias_accel"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, v)

    def copy(self) -> "NavState":
        return NavState(
            self.orientation,
            self.position.copy(),
            self.velocity.copy(),
            self.bias_gyro.copy(),
            self.bias_accel.copy(),
        )

    def apply_error(self, dx: np.ndarray) -> None:
        """Left-multiplicative correction on orientation, additive elsewhere."""
        from .geometry import quat_from_axis_angle, quat_multiply, quat_normalize

        dq = quat_from_axis_angle(dx[TH])
        self.orientation = UnitQuaternion(
            quat_normalize(quat_multiply(dq, self.orientation.xyzw))
        )
        self.position = self.position + dx[P]
        self.velocity = self.velocity + dx[V]
        self.bias_gyro = self.bias_gyro + dx[BG]
        self.bias_accel = self.bias_accel + dx[BA]


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


def _discrete_noise(noise: NoiseParams, dt: float) -> np.ndarray:
    """Discrete process noise of one step.

    The densities are isotropic, so the accelerometer noise rotated into G
    is the same diagonal as in the body frame; position has none of its own.
    """
    return np.diag(
        np.repeat(
            [noise.gyro_noise**2, 0.0, noise.accel_noise**2, noise.gyro_walk**2,
             noise.accel_walk**2],
            3,
        )
        * dt
    )


def _step(
    state: NavState, omega_m, accel_m, noise: NoiseParams, dt: float
) -> tuple[NavState, np.ndarray]:
    """Advance the mean over one interval, and return the step's error transition Phi.

    Velocity and position are integrated with the half-step attitude
    ``R_mid = E R``, ``E = exp(-[omega_hat dt / 2]x)``, and Phi is the
    Jacobian of exactly this step.  With ``f = a_m - b_a`` its velocity rows
    are ``-R^T [E^T f]x dt`` for attitude, ``R_mid^T [f]x J_r(omega_hat dt / 2)
    dt^2 / 2`` for gyro bias and ``-R_mid^T dt`` for accel bias; each
    position row is ``dt / 2`` times its velocity row.
    """
    omega_hat = omega_m - state.bias_gyro
    force_hat = accel_m - state.bias_accel  # specific force, gravity included
    R = state.orientation.to_matrix()
    R_mid = quat_to_matrix(quat_integrate_array(state.orientation.xyzw, omega_hat, 0.5 * dt))
    accel_global = R_mid.T @ (accel_m + R_mid @ noise.gravity_vector() - state.bias_accel)

    out = state.copy()
    out.position = state.position + state.velocity * dt + 0.5 * accel_global * dt * dt
    out.velocity = state.velocity + accel_global * dt
    out.orientation = UnitQuaternion(
        quat_integrate_array(state.orientation.xyzw, omega_hat, dt)
    )

    A = omega_hat * dt
    Phi = np.eye(ERROR_STATE_DIM)
    Phi[TH, TH] = so3_exp(-A)
    Phi[TH, BG] = -so3_right_jacobian(A) * dt
    Phi[V, TH] = -skew(R_mid.T @ force_hat) @ R.T * dt  # = -R^T [E^T f]x dt
    Phi[V, BG] = 0.5 * R_mid.T @ skew(force_hat) @ so3_right_jacobian(0.5 * A) * dt * dt
    Phi[V, BA] = -R_mid.T * dt
    Phi[P, V] = np.eye(3) * dt
    for col in (TH, BG, BA):
        Phi[P, col] = 0.5 * dt * Phi[V, col]
    return out, Phi


def propagate_block(
    state: NavState, samples: list[ImuSample], noise: NoiseParams
) -> tuple[NavState, np.ndarray, np.ndarray]:
    """Integrate over the sample stream; also return (Phi_total, Q_total).

    The returned transition and noise cover the 15-dim navigation error and
    are what a joint filter applies to its nav block and cross terms.
    """
    Phi_total = np.eye(ERROR_STATE_DIM)
    Q_total = np.zeros((ERROR_STATE_DIM, ERROR_STATE_DIM))
    cur = state.copy()
    for s0, s1 in zip(samples, samples[1:]):
        dt = s1.t - s0.t
        if dt <= 0:
            raise ValueError("sample timestamps must be strictly increasing")
        cur, Phi = _step(
            cur, 0.5 * (s0.omega + s1.omega), 0.5 * (s0.accel + s1.accel), noise, dt
        )
        Phi_total = Phi @ Phi_total
        Q_total = Phi @ Q_total @ Phi.T + _discrete_noise(noise, dt)
    return cur, Phi_total, Q_total
