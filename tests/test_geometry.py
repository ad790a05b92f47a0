import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from binvio import geometry as geo
from binvio.geometry import (
    CameraCalibration,
    Pose,
    UnitQuaternion,
    project_batch,
    project_points,
    quat_from_matrix,
    quat_integrate_array,
    undistort,
)
from binvio.simgen import default_calibration


def random_pose(rng):
    q = UnitQuaternion(rng.normal(size=4))
    return Pose(q, rng.normal(scale=2.0, size=3))


def inverse(pose):
    """The pose whose frame is G expressed in ``pose``'s frame."""
    conjugate = UnitQuaternion(pose.orientation.xyzw * [-1.0, -1.0, -1.0, 1.0])
    return Pose(conjugate, -pose.rotation() @ pose.position)


def in_frame(pose, p_global):
    """Coordinates of a global point in ``pose``'s frame."""
    return pose.rotation() @ (p_global - pose.position)


def pixel_of(p_global, cam_pose, calib):
    return project_points(in_frame(cam_pose, p_global)[None, :], calib)[0]


def random_calib(rng, distort=True):
    d = rng.normal(scale=0.02, size=4) if distort else np.zeros(4)
    return CameraCalibration(
        fx=200.0 + rng.uniform(-20, 20),
        fy=200.0 + rng.uniform(-20, 20),
        cx=128.0 + rng.uniform(-5, 5),
        cy=128.0 + rng.uniform(-5, 5),
        distortion=d,
    )


def oracle_project(p_global, cam_pose, calib):
    """Straight-line re-implementation of the four projection formulas."""
    R = cam_pose.orientation.to_matrix()
    pc = R @ (np.asarray(p_global, dtype=float) - cam_pose.position)
    x = pc[0] / pc[2]
    y = pc[1] / pc[2]
    k1, k2, p1, p2 = calib.distortion
    r2 = x * x + y * y
    rad = 1.0 + k1 * r2 + k2 * r2 ** 2
    xd = x * rad + 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * rad + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
    return np.array([calib.fx * xd + calib.cx, calib.fy * yd + calib.cy])


class TestQuaternion:
    def test_zero_rate_identity(self):
        q = quat_integrate_array(UnitQuaternion.identity().xyzw, np.zeros(3), 0.01)
        np.testing.assert_allclose(q, [0, 0, 0, 1], atol=1e-15)

    def test_pi_about_z(self):
        # closed-form axis-angle: exp(pi * z) is a half turn, w part 0
        x, y, z, w = quat_integrate_array(
            UnitQuaternion.identity().xyzw, np.array([0, 0, np.pi]), 1.0
        )
        assert abs(abs(z) - 1.0) < 1e-12
        assert abs(w) < 1e-12
        assert abs(x) < 1e-12 and abs(y) < 1e-12

    def test_fast_spin_angle(self):
        # |omega| * dt at the fastest rate the pipeline is designed for
        q = quat_integrate_array(
            UnitQuaternion.identity().xyzw, np.array([0, 0, 15.0]), 0.0025
        )
        angle = 2.0 * np.arccos(np.clip(q[3], -1, 1))
        assert abs(angle - 0.0375) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = UnitQuaternion(rng.normal(size=4))
            out = quat_integrate_array(
                q.xyzw, rng.normal(scale=10.0, size=3), rng.uniform(0, 0.05)
            )
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_halfstep_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = UnitQuaternion(rng.normal(size=4))
            w = rng.normal(scale=8.0, size=3)
            dt = rng.uniform(0.001, 0.02)
            one = UnitQuaternion(quat_integrate_array(q.xyzw, w, dt))
            half = quat_integrate_array(q.xyzw, w, dt / 2)
            two = UnitQuaternion(quat_integrate_array(half, w, dt / 2))
            np.testing.assert_allclose(one.to_matrix(), two.to_matrix(), atol=1e-8)

    def test_rotation_matrix_orthogonal(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            R = UnitQuaternion(rng.normal(size=4)).to_matrix()
            assert np.linalg.norm(R @ R.T - np.eye(3)) < 1e-9

    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = UnitQuaternion(rng.normal(size=4))
            b = UnitQuaternion(rng.normal(size=4))
            np.testing.assert_allclose(
                a.multiply(b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12
            )

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = UnitQuaternion(rng.normal(size=4))
            q2 = quat_from_matrix(q.to_matrix())
            np.testing.assert_allclose(q2 * np.sign(q2 @ q.xyzw), q.xyzw, atol=1e-9)


class TestPose:
    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            T = random_pose(rng)
            I1 = T.compose(inverse(T))
            assert np.linalg.norm(I1.position) < 1e-9
            np.testing.assert_allclose(I1.rotation(), np.eye(3), atol=1e-9)

    def test_transform_round_trip(self):
        rng = np.random.default_rng(13)
        T = random_pose(rng)
        p = rng.normal(size=3)
        np.testing.assert_allclose(in_frame(inverse(T), in_frame(T, p)), p, atol=1e-12)

    def test_compose_transforms_points(self):
        rng = np.random.default_rng(14)
        inner = random_pose(rng)   # frame A in G
        outer = random_pose(rng)   # frame B in A
        combined = outer.compose(inner)
        p = rng.normal(size=3)
        np.testing.assert_allclose(
            in_frame(combined, p),
            in_frame(outer, in_frame(inner, p)),
            atol=1e-12,
        )


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        calib = CameraCalibration(fx=200, fy=200, cx=128, cy=128)
        z = project_points(np.array([[0.0, 0.0, 1.0]]), calib)[0]
        np.testing.assert_allclose(z, [128.0, 128.0], atol=1e-12)

    def test_pinhole_linearity(self):
        calib = CameraCalibration(fx=200, fy=200, cx=128, cy=128)
        z = project_points(np.array([[0.1, 0.0, 1.0]]), calib)[0]
        np.testing.assert_allclose(z, [148.0, 128.0], atol=1e-12)

    def test_non_positive_depth_flagged_invalid(self):
        calib = CameraCalibration(fx=200, fy=200, cx=128, cy=128)
        points = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        _, valid = project_batch(points, Pose(), calib)
        np.testing.assert_array_equal(valid, [False, False, True])

    def test_matches_duplicate_implementation(self):
        rng = np.random.default_rng(15)
        n = 0
        while n < 500:
            cam = random_pose(rng)
            calib = random_calib(rng)
            p = in_frame(
                inverse(cam),
                np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 5.0)]),
            )
            np.testing.assert_allclose(
                pixel_of(p, cam, calib), oracle_project(p, cam, calib), rtol=1e-12, atol=1e-9
            )
            n += 1

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(16)
        calib = random_calib(rng)
        for _ in range(100):
            cam = random_pose(rng)
            p = in_frame(inverse(cam), np.array([0.2, -0.1, 2.0]))
            z0 = pixel_of(p, cam, calib)
            # apply a common rigid transform T to the world
            T = random_pose(rng)
            p2 = in_frame(T, p)
            cam2 = cam.compose(inverse(T))
            z1 = pixel_of(p2, cam2, calib)
            np.testing.assert_allclose(z0, z1, atol=1e-9)

    def test_undistort_round_trip(self):
        rng = np.random.default_rng(17)
        calib = random_calib(rng)
        for _ in range(100):
            xn = rng.uniform(-0.6, 0.6, size=2)
            px = project_points(np.array([[xn[0], xn[1], 1.0]]), calib)
            np.testing.assert_allclose(undistort(px, calib, iters=20)[0], xn, atol=1e-10)

    def test_eight_iterations_converge_over_the_default_image(self):
        """The filter's rays come from ``undistort(iters=8)``: over the whole 256² image of
        the default calibration they reproject to their pixels within 1e-8 px (3.4e-9
        measured; 4 iterations leave 1.5e-4 px)."""
        calib = default_calibration()
        grid = np.linspace(0.0, 255.0, 17)
        u, v = np.meshgrid(grid, grid)
        pixels = np.column_stack([u.ravel(), v.ravel()])
        xn = undistort(pixels, calib, iters=8)
        back = project_points(np.column_stack([xn, np.ones(len(xn))]), calib)
        assert np.abs(back - pixels).max() < 1e-8


def finite_difference(f, x0, eps=1e-6):
    x0 = np.asarray(x0, dtype=float)
    J = np.zeros((2, x0.size))
    for i in range(x0.size):
        d = np.zeros_like(x0)
        d[i] = eps
        J[:, i] = (f(x0 + d) - f(x0 - d)) / (2 * eps)
    return J


def model_jacobian_errors(p_cam, calib):
    """Scaled max error of the point and intrinsics Jacobians against central differences."""
    _, Jp, Jc = project_points(p_cam[None, :], calib, jacobians=True)
    fd_p = finite_difference(lambda v: project_points(v[None, :], calib)[0], p_cam)
    fd_c = finite_difference(
        lambda v: project_points(
            p_cam[None, :], CameraCalibration.from_intrinsic_vector(v, calib.extrinsic)
        )[0],
        calib.intrinsic_vector(),
    )
    pairs = ((Jp[0], fd_p), (Jc[0], fd_c))
    return [np.abs(J - fd).max() / max(1.0, np.abs(fd).max()) for J, fd in pairs]


class TestProjectionJacobians:
    def test_point_jacobian_pinhole_entry(self):
        calib = CameraCalibration(fx=200, fy=300, cx=128, cy=128)
        d = 2.0
        _, Jp, _ = project_points(np.array([[0.0, 0.0, d]]), calib, jacobians=True)
        assert abs(Jp[0, 0, 0] - 200.0 / d) < 1e-12
        assert abs(Jp[0, 1, 1] - 300.0 / d) < 1e-12

    def test_zero_distortion_stage(self):
        calib = CameraCalibration(fx=200, fy=300, cx=128, cy=128)
        xn = np.array([0.2, -0.3])
        # at unit depth the in-plane block is diag(fx, fy) times d(distorted)/d(normalized)
        _, J, _ = project_points(np.array([[xn[0], xn[1], 1.0]]), calib, jacobians=True)
        np.testing.assert_allclose(J[0, :, :2] / [[200.0], [300.0]], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(J[0, :, :2], np.diag([200.0, 300.0]), atol=1e-12)

    def test_jacobians_match_finite_differences(self):
        # the pose block is checked by test_msckf's test_full_measurement_jacobian_fd
        rng = np.random.default_rng(18)
        trials = 0
        while trials < 1000:
            calib = random_calib(rng)
            p_cam = np.array(
                [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(0.5, 5.0)]
            )
            for err in model_jacobian_errors(p_cam, calib):
                assert err < 1e-4
            trials += 1


# radial terms up to 0.05 and tangential up to 0.01, the scale of simgen's camera
calibrations = st.builds(
    lambda f, c, k, p: CameraCalibration(
        fx=f[0], fy=f[1], cx=c[0], cy=c[1], distortion=np.array(k + p)
    ),
    st.tuples(st.floats(150.0, 250.0), st.floats(150.0, 250.0)),
    st.tuples(st.floats(110.0, 146.0), st.floats(110.0, 146.0)),
    st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
    st.tuples(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01)),
)


def points_in_front(half_width):
    """Camera-frame points in front of the camera, |X/Z| and |Y/Z| <= half_width."""
    return st.tuples(
        st.floats(-half_width, half_width), st.floats(-half_width, half_width),
        st.floats(0.2, 10.0),
    ).map(lambda t: np.array([t[0] * t[2], t[1] * t[2], t[2]]))


class TestCameraModelProperties:
    @given(calibrations, points_in_front(1.0))
    def test_jacobians_match_central_differences(self, calib, p_cam):
        for err in model_jacobian_errors(p_cam, calib):
            assert err < 1e-4

    # the fixed point contracts slowly far off axis; this is the round-trip
    # test's +-0.6 range
    @given(calibrations, st.lists(points_in_front(0.6), min_size=1, max_size=8))
    def test_undistort_inverts_projection(self, calib, pts):
        p_cam = np.array(pts)
        xn = p_cam[:, :2] / p_cam[:, 2:3]
        np.testing.assert_allclose(undistort(project_points(p_cam, calib), calib), xn, atol=1e-10)

    @given(calibrations, st.lists(points_in_front(1.0), min_size=1, max_size=8))
    def test_batch_rows_equal_single_calls(self, calib, pts):
        p_cam = np.array(pts)
        batch = project_points(p_cam, calib, jacobians=True)
        for i in range(len(p_cam)):
            single = project_points(p_cam[i:i + 1], calib, jacobians=True)
            for b, s in zip(batch, single):
                np.testing.assert_array_equal(b[i], s[0])

    @given(
        calibrations,
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
            min_size=1, max_size=16,
        ),
    )
    def test_project_batch_matches_oracle(self, calib, q, position, pts):
        if np.linalg.norm(q) < 0.1:
            q = [0.0, 0.0, 0.0, 1.0]
        cam = Pose(UnitQuaternion(np.array(q)), np.array(position))
        pts = np.array(pts)
        px, valid = project_batch(pts, cam, calib)
        for p, row, ok in zip(pts, px, valid):
            if ok:
                np.testing.assert_allclose(
                    row, oracle_project(p, cam, calib), rtol=1e-12, atol=1e-9
                )


class TestSO3Helpers:
    def test_exp_log_round_trip(self):
        # log returns the principal rotation vector, so stay below pi
        rng = np.random.default_rng(19)
        for _ in range(300):
            phi = rng.normal(size=3)
            phi *= rng.uniform(0.0, 0.98 * np.pi) / np.linalg.norm(phi)
            np.testing.assert_allclose(geo.so3_log(geo.so3_exp(phi)), phi, atol=1e-9)

    def test_right_jacobian_property(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            phi = rng.normal(scale=0.8, size=3)
            d = rng.normal(scale=1e-6, size=3)
            lhs = geo.so3_exp(phi + d)
            rhs = geo.so3_exp(phi) @ geo.so3_exp(geo.so3_right_jacobian(phi) @ d)
            assert np.abs(lhs - rhs).max() < 1e-11
