import copy

import numpy as np
import pytest

from binvio.geometry import (
    CameraCalibration,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    so3_exp,
)
from binvio.imu import NavState, NoiseParams, TimestampGap, propagate_block
from binvio.msckf import FilterConfig, FilterState
from binvio.pipeline import _ImuSlicer

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0, 9.81)
NO_NOISE_NO_G = NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0)


def imu_row(t, omega, accel):
    """One IMU sample as a row ``t, wx, wy, wz, ax, ay, az`` of the (N, 7) stream."""
    return np.concatenate([[t], omega, accel])


def correct_measurement(sample, state, noise):
    """Bias- and gravity-corrected body rates and kinematic acceleration of one sample row.

    The measurement model of ``binvio.imu`` solved for the truth; white
    noise is not (and cannot be) subtracted.
    """
    omega_true = sample[1:4] - state.bias_gyro
    R = quat_to_matrix(state.orientation)
    accel_true = sample[4:7] + R @ noise.gravity_vector() - state.bias_accel
    return omega_true, accel_true


def forward_model(omega_true, accel_true, state, noise):
    """Noise-free measurement synthesis (inverse of correct_measurement)."""
    R = quat_to_matrix(state.orientation)
    omega_m = omega_true + state.bias_gyro
    accel_m = accel_true - R @ noise.gravity_vector() + state.bias_accel
    return omega_m, accel_m


def propagate(state, cov, samples, noise):
    """Mean and 15x15 covariance across ``samples``, formed as ``process_frame`` forms them."""
    new_state, Phi, Q = propagate_block(state, samples, noise)
    new_cov = Phi @ cov @ Phi.T + Q
    return new_state, 0.5 * (new_cov + new_cov.T)


def make_stream(t0, t1, rate, omega_fn, accel_fn):
    n = int(round((t1 - t0) * rate))
    ts = t0 + np.arange(n + 1) / rate
    return np.array([imu_row(t, omega_fn(t), accel_fn(t)) for t in ts])


def error_state_between(perturbed: NavState, nominal: NavState) -> np.ndarray:
    nominal_inverse = nominal.orientation * [-1.0, -1.0, -1.0, 1.0]
    dq = quat_multiply(perturbed.orientation, nominal_inverse)
    if dq[3] < 0:
        dq = -dq
    dx = np.zeros(15)
    dx[0:3] = 2.0 * dq[:3] / dq[3]
    dx[3:6] = perturbed.position - nominal.position
    dx[6:9] = perturbed.velocity - nominal.velocity
    dx[9:12] = perturbed.bias_gyro - nominal.bias_gyro
    dx[12:15] = perturbed.bias_accel - nominal.bias_accel
    return dx


def corrected(state: NavState, dx: np.ndarray) -> NavState:
    """``state`` moved by the 15-dim error ``dx`` as the filter's correction moves it."""
    calib = CameraCalibration(1.0, 1.0, 0.0, 0.0)
    filt = FilterState(copy.deepcopy(state), calib, FilterConfig(estimate_calibration=False))
    filt.apply_correction(dx)
    return filt.nav


def random_state(rng):
    return NavState(
        quat_normalize(rng.normal(size=4)),
        rng.normal(scale=2.0, size=3),
        rng.normal(scale=1.0, size=3),
        rng.normal(scale=0.01, size=3),
        rng.normal(scale=0.05, size=3),
    )


class TestCorrectMeasurement:
    def test_stationary_level_gravity_cancels(self):
        state = NavState()
        sample = imu_row(0.0, np.zeros(3), np.array([0.0, 0.0, 9.81]))
        w, a = correct_measurement(sample, state, NO_NOISE)
        np.testing.assert_allclose(w, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(a, np.zeros(3), atol=1e-15)

    def test_gyro_bias_subtraction(self):
        state = NavState(bias_gyro=np.array([0.1, 0.0, 0.0]))
        sample = imu_row(0.0, np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.0, 9.81]))
        w, _ = correct_measurement(sample, state, NO_NOISE)
        np.testing.assert_allclose(w, np.zeros(3), atol=1e-15)

    def test_round_trip_through_forward_model(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            state = random_state(rng)
            omega_true = rng.normal(scale=5.0, size=3)
            accel_true = rng.normal(scale=3.0, size=3)
            wm, am = forward_model(omega_true, accel_true, state, NO_NOISE)
            w, a = correct_measurement(imu_row(0.0, wm, am), state, NO_NOISE)
            np.testing.assert_allclose(w, omega_true, atol=1e-12)
            np.testing.assert_allclose(a, accel_true, atol=1e-11)


class TestPropagateMean:
    def test_free_drift(self):
        state = NavState(velocity=np.array([1.0, 0.0, 0.0]))
        samples = make_stream(
            0.0, 1.0, 400, lambda t: np.zeros(3), lambda t: np.array([0.0, 0.0, 9.81])
        )
        out, _ = propagate(state, np.zeros((15, 15)), samples, NO_NOISE)
        np.testing.assert_allclose(out.position, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            quat_to_matrix(out.orientation), quat_to_matrix(state.orientation), atol=1e-12
        )

    def test_constant_rotation_matches_closed_form(self):
        w = np.array([0.0, 0.0, 2.0])
        state = NavState()
        samples = make_stream(
            0.0, 1.0, 400, lambda t: w, lambda t: np.array([0.0, 0.0, 9.81])
        )
        # 400 steps at a constant rate
        out, _ = propagate(state, np.zeros((15, 15)), samples, NO_NOISE)
        expected = quat_from_axis_angle(w * 1.0)
        np.testing.assert_allclose(
            quat_to_matrix(out.orientation), quat_to_matrix(expected), atol=1e-6
        )

    def test_constant_acceleration_double_integral(self):
        a_true = np.array([1.0, 0.0, 0.0])
        state = NavState()
        samples = make_stream(
            0.0, 1.0, 400,
            lambda t: np.zeros(3),
            lambda t: a_true + np.array([0.0, 0.0, 9.81]),
        )
        out, _ = propagate(state, np.zeros((15, 15)), samples, NO_NOISE)
        np.testing.assert_allclose(out.position, [0.5, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(out.velocity, [1.0, 0.0, 0.0], atol=1e-9)

    def test_rotating_body_force_matches_closed_form(self):
        # a body spinning at w about z under a body-frame force (1, 0, 0) sees
        # the global acceleration (cos wt, sin wt, 0); holding each sample
        # over its interval instead of using the half-step attitude misses
        # by 1.3e-3 m and 2.4e-3 m/s here
        w = 10.0
        samples = make_stream(
            0.0, 1.0, 400, lambda t: np.array([0.0, 0.0, w]), lambda t: np.array([1.0, 0.0, 0.0])
        )
        out, _ = propagate(NavState(), np.zeros((15, 15)), samples, NO_NOISE_NO_G)
        t = 1.0
        p = [(1.0 - np.cos(w * t)) / w**2, t / w - np.sin(w * t) / w**2, 0.0]
        v = [np.sin(w * t) / w, (1.0 - np.cos(w * t)) / w, 0.0]
        np.testing.assert_allclose(out.position, p, atol=1e-5)
        np.testing.assert_allclose(out.velocity, v, atol=1e-5)

    def test_timestamp_gap_raises(self):
        # one dropped sample is a 2x gap, inside the 3x bound; three are a 4x gap
        samples = make_stream(0.0, 0.5, 400, lambda t: np.zeros(3), lambda t: np.zeros(3))
        _ImuSlicer(samples)
        with pytest.raises(TimestampGap):
            _ImuSlicer(np.delete(samples, np.s_[100:103], axis=0))

    def test_repeated_time_or_nan_rejected(self):
        samples = make_stream(0.0, 0.5, 400, lambda t: np.zeros(3), lambda t: np.zeros(3))
        repeated, nan = samples.copy(), samples.copy()
        repeated[100, 0] = repeated[99, 0]
        nan[7, 5] = np.nan
        for bad in (repeated, nan):
            with pytest.raises(ValueError):
                _ImuSlicer(bad)

    def test_split_interval_equals_single_call(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        samples = make_stream(
            0.0, 0.1, 400,
            lambda t: np.array([np.sin(3 * t), 1.5, -2.0 * np.cos(5 * t)]),
            lambda t: np.array([2.0 * np.sin(t), -1.0, 9.0 + np.cos(4 * t)]),
        )
        cov0 = np.eye(15) * 1e-4
        full_state, full_cov = propagate(state, cov0, samples, NoiseParams())
        j = 17
        mid_state, mid_cov = propagate(state, cov0, samples[: j + 1], NoiseParams())
        end_state, end_cov = propagate(mid_state, mid_cov, samples[j:], NoiseParams())
        assert np.linalg.norm(end_state.position - full_state.position) < 1e-9
        np.testing.assert_allclose(
            quat_to_matrix(end_state.orientation), quat_to_matrix(full_state.orientation),
            atol=1e-9,
        )
        assert np.abs(end_cov - full_cov).max() < 1e-12

    def test_stationary_ten_seconds_no_drift(self):
        state = NavState()
        samples = make_stream(
            0.0, 10.0, 400, lambda t: np.zeros(3), lambda t: np.array([0.0, 0.0, 9.81])
        )
        out, _ = propagate(state, np.zeros((15, 15)), samples, NO_NOISE)
        assert np.linalg.norm(out.position) < 1e-12
        assert np.linalg.norm(out.velocity) < 1e-12


class TestCovariance:
    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        A = rng.normal(size=(15, 15))
        cov = A @ A.T * 1e-6
        samples = make_stream(
            0.0, 0.25, 400,
            lambda t: rng.normal(scale=2.0, size=3),
            lambda t: rng.normal(scale=2.0, size=3),
        )
        _, out = propagate(state, cov, samples, NoiseParams())
        assert np.abs(out - out.T).max() < 1e-15
        assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_zero_noise_no_inflation(self):
        rng = np.random.default_rng(4)
        state = random_state(rng)
        samples = make_stream(
            0.0, 0.1, 400, lambda t: np.array([1.0, -2.0, 0.5]),
            lambda t: np.array([0.3, 9.0, 1.0]),
        )
        _, Phi, Q = propagate_block(state, samples, NO_NOISE)
        assert np.abs(Q).max() == 0.0
        # the deterministic reshaping is exactly Phi P Phi^T
        cov0 = np.eye(15) * 1e-4
        _, cov1 = propagate(state, cov0, samples, NO_NOISE)
        np.testing.assert_allclose(cov1, Phi @ cov0 @ Phi.T, atol=1e-18)


def one_step(state, sample, dt, noise=NO_NOISE):
    """Mean and Phi of one ``propagate_block`` step holding ``sample``'s readings."""
    samples = np.vstack([sample, sample])
    samples[1, 0] += dt
    out, Phi, _ = propagate_block(state, samples, noise)
    return out, Phi


class TestStateTransitionJacobian:
    def fd_jacobian(self, state, sample, dt, noise, eps=1e-6):
        nominal, _ = one_step(state, sample, dt, noise)
        J = np.zeros((15, 15))
        for i in range(15):
            d = np.zeros(15)
            d[i] = eps
            xp = error_state_between(one_step(corrected(state, d), sample, dt, noise)[0], nominal)
            xm = error_state_between(one_step(corrected(state, -d), sample, dt, noise)[0], nominal)
            J[:, i] = (xp - xm) / (2 * eps)
        return J

    def test_dt_to_zero_limit(self):
        state = NavState()
        sample = imu_row(0.0, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 9.0]))
        _, Phi = one_step(state, sample, 1e-12)
        np.testing.assert_allclose(Phi, np.eye(15), atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        noise = NoiseParams()
        for _ in range(50):
            state = random_state(rng)
            sample = imu_row(
                0.0, rng.normal(scale=5.0, size=3), rng.normal(scale=4.0, size=3)
            )
            dt = 0.0025
            _, Phi = one_step(state, sample, dt, noise)
            fd = self.fd_jacobian(state, sample, dt, noise)
            rel = np.abs(Phi - fd).max() / max(1.0, np.abs(fd).max())
            assert rel < 1e-8

    def test_velocity_row_first_order(self):
        # with gravity disabled the corrected acceleration equals the
        # specific force f, and the velocity row is -R^T [E^T f]x dt with
        # E = exp(-[omega dt / 2]x) the half-step rotation
        rng = np.random.default_rng(6)
        state = random_state(rng)
        sample = imu_row(0.0, rng.normal(size=3), rng.normal(scale=3.0, size=3))
        dt = 0.0025
        _, Phi = one_step(state, sample, dt, NO_NOISE_NO_G)
        w_t, a_t = correct_measurement(sample, state, NO_NOISE_NO_G)
        f = so3_exp(-0.5 * dt * w_t).T @ a_t
        R = quat_to_matrix(state.orientation)
        expected = -R.T @ np.array(
            [[0, -f[2], f[1]], [f[2], 0, -f[0]], [-f[1], f[0], 0]]
        ) * dt
        np.testing.assert_allclose(Phi[6:9, 0:3], expected, atol=1e-12)
        np.testing.assert_allclose(Phi[3:6, 0:3], 0.5 * dt * expected, atol=1e-15)


class TestNoiseParams:
    @pytest.mark.parametrize(
        "name", ["gyro_noise", "accel_noise", "gyro_walk", "accel_walk", "gravity"]
    )
    def test_nan_rejected(self, name):
        # a manifest value reaches NoiseParams without passing the config parser
        with pytest.raises(ValueError):
            NoiseParams(**{name: float("nan")})
