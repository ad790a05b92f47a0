import numpy as np
import pytest

from binvio import simgen as sg
from binvio.geometry import Pose, project_points, so3_log
from binvio.imu import NavState, NoiseParams, propagate_block

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0, 9.81)


class TestGroundTruth:
    def test_static_identity(self):
        spec = sg.TrajectorySpec(duration=5.0)
        for t in (0.0, 1.7, 5.0):
            gt = sg.sample_ground_truth(spec, t)
            assert np.linalg.norm(gt.pose.position) == 0.0
            np.testing.assert_array_equal(gt.pose.orientation.xyzw, [0.0, 0.0, 0.0, 1.0])
            assert np.linalg.norm(gt.velocity) == 0.0
            assert np.linalg.norm(gt.angular_rate) == 0.0

    def test_single_axis_peak_rate_closed_form(self):
        A, f = 0.7, 1.3
        spec = sg.TrajectorySpec(
            rot_terms=((), (), ((A, f, 0.0),)), duration=4.0
        )
        # the rate peaks where the cosine hits 1, i.e. at t = 0
        gt = sg.sample_ground_truth(spec, 0.0)
        assert abs(np.linalg.norm(gt.angular_rate) - 2 * np.pi * f * A) < 1e-9
        assert abs(sg.peak_angular_rate(spec) - 2 * np.pi * f * A) < 1e-6

    def test_hostile_preset_peak_range(self):
        spec = sg.preset_config("hostile").trajectory
        assert 8.0 <= sg.peak_angular_rate(spec) <= 15.0

    def test_hostile_rot_preset_peak_range(self):
        spec = sg.preset_config("hostile-rot").trajectory
        pk = sg.peak_angular_rate(spec)
        assert 13.0 <= pk <= 15.0
        assert 20.0 <= sg.path_length(spec) <= 30.0

    def test_derivative_consistency(self):
        spec = sg.preset_config("hostile").trajectory
        h = 1e-5
        for t in (1.0, 3.7, 8.2):
            gm = sg.sample_ground_truth(spec, t - h)
            g0 = sg.sample_ground_truth(spec, t)
            gp = sg.sample_ground_truth(spec, t + h)
            v_num = (gp.pose.position - gm.pose.position) / (2 * h)
            np.testing.assert_allclose(v_num, g0.velocity, atol=1e-5)
            a_num = (gp.velocity - gm.velocity) / (2 * h)
            np.testing.assert_allclose(a_num, g0.acceleration, atol=1e-4)
            # body rate from central difference: A(t-h)^T A(t+h) = exp([2wh])
            Am = gm.pose.orientation.to_matrix().T
            Ap = gp.pose.orientation.to_matrix().T
            w_num = so3_log(Am.T @ Ap) / (2 * h)
            np.testing.assert_allclose(w_num, g0.angular_rate, atol=1e-4)

    def test_out_of_range_t(self):
        spec = sg.TrajectorySpec(duration=2.0)
        with pytest.raises(ValueError):
            sg.sample_ground_truth(spec, 2.5)


class TestSynthesizeImu:
    def test_stationary_gravity_only(self):
        spec = sg.TrajectorySpec(duration=1.0)
        samples = sg.synthesize_imu(spec, NO_NOISE, 400.0, seed=1)
        assert samples.shape == (401, 7)
        for s in samples[::50]:
            np.testing.assert_allclose(s[1:4], np.zeros(3), atol=1e-15)
            np.testing.assert_allclose(s[4:7], [0, 0, 9.81], atol=1e-12)
            assert abs(np.linalg.norm(s[4:7]) - 9.81) < 1e-12

    def test_round_trip_through_propagation(self):
        # integer-period sinusoids keep the midpoint rule's truncation error
        # from accumulating; this is the design regime for the integrator
        spec = sg.preset_config("gentle").trajectory
        samples = sg.synthesize_imu(spec, NO_NOISE, 400.0, seed=2)
        g0 = sg.sample_ground_truth(spec, 0.0)
        state = NavState(
            g0.pose.orientation, g0.pose.position.copy(), g0.velocity.copy()
        )
        out, _, _ = propagate_block(state, samples, NO_NOISE)
        gT = sg.sample_ground_truth(spec, spec.duration)
        assert np.linalg.norm(out.position - gT.pose.position) < 1e-4
        np.testing.assert_allclose(
            out.orientation.to_matrix(), gT.pose.orientation.to_matrix(), atol=1e-5
        )

    def test_deterministic_per_seed(self):
        spec = sg.preset_config("hostile", duration=0.5).trajectory
        a = sg.synthesize_imu(spec, NoiseParams(), 400.0, seed=3)
        b = sg.synthesize_imu(spec, NoiseParams(), 400.0, seed=3)
        assert np.array_equal(a, b)

    def test_bias_walk_variance_linear(self):
        # across seeds, Var[b_N] = walk^2 * N * dt: check the 2x point
        spec = sg.TrajectorySpec(duration=2.0)
        noise = NoiseParams(0.0, 0.0, gyro_walk=1e-3, accel_walk=0.0, gravity=9.81)
        n_half, n_full = [], []
        for seed in range(100):
            samples = sg.synthesize_imu(spec, noise, 400.0, seed=seed)
            n_half.append(samples[400, 1:4])   # t = 1 s
            n_full.append(samples[800, 1:4])   # t = 2 s
        var_half = np.var(np.array(n_half), axis=0).mean()
        var_full = np.var(np.array(n_full), axis=0).mean()
        expected_half = 1e-6 * 1.0
        sigma = expected_half * np.sqrt(2.0 / 100)
        assert abs(var_half - expected_half) < 5 * sigma
        assert abs(var_full - 2 * expected_half) < 10 * sigma


class TestRenderFrame:
    def test_landmark_on_axis(self):
        calib = sg.default_calibration()
        world = sg.WorldModel(
            landmarks=np.array([[3.0, 0.0, 0.0]]),
            segments=np.zeros((0, 2, 3)),
        )
        cam = sg.camera_pose_at(
            sg.sample_ground_truth(sg.TrajectorySpec(duration=1.0), 0.0), calib
        )
        # put the camera exactly at the origin so the landmark is on-axis
        cam = Pose(cam.orientation, np.zeros(3))
        corners, edges = sg.render_frame(world, cam, calib, "ideal-binary")
        assert corners.bits[128, 128] == 1
        assert corners.bits.sum() == 1

    def test_segment_matches_dense_projection_oracle(self):
        # segment parallel to the image plane, running through the optical
        # axis: projects to a single horizontal run of pixels
        calib = sg.default_calibration()
        p0 = np.array([3.0, -1.0, 0.0])
        p1 = np.array([3.0, 1.2, 0.0])
        world = sg.WorldModel(landmarks=np.zeros((0, 3)), segments=np.array([[p0, p1]]))
        cam = Pose(sg.default_calibration().extrinsic.orientation, np.zeros(3))
        _, edges = sg.render_frame(world, cam, calib, "ideal-binary")
        oracle = set()
        points = p0 + np.linspace(0, 1, 1000)[:, None] * (p1 - p0)
        for px in project_points((points - cam.position) @ cam.rotation().T, calib):
            u, v = int(round(px[0])), int(round(px[1]))
            if 0 <= u < 256 and 0 <= v < 256:
                oracle.add((v, u))
        got = set(zip(*np.nonzero(edges.bits)))
        assert got == oracle
        rows = {r for r, _ in got}
        assert len(rows) == 1, "through-axis flat segment must be a horizontal run"

    def test_frame_count_arithmetic(self):
        cfg = sg.preset_config("hostile", duration=12.0)
        ds = sg.build_dataset(cfg)
        assert ds.n_frames() == 3000

    def test_corner_bits_reproject_to_landmarks(self):
        cfg = sg.preset_config("hostile-rot", seed=0)
        world = cfg.world()
        calib = sg.default_calibration()
        gt = sg.sample_ground_truth(cfg.trajectory, 0.5)
        cam = sg.camera_pose_at(gt, calib)
        corners, _ = sg.render_frame(world, cam, calib, "ideal-binary")
        from binvio.geometry import project_batch

        px, ok = project_batch(world.landmarks, cam, calib)
        px = px[ok]
        inside = (
            (px[:, 0] >= 0) & (px[:, 0] < 256) & (px[:, 1] >= 0) & (px[:, 1] < 256)
        )
        px = px[inside]
        rows, cols = np.nonzero(corners.bits)
        bit_coords = np.column_stack([cols, rows])
        for p in px[:50]:
            d = np.linalg.norm(bit_coords - p, axis=1).min()
            assert d <= 1.0

    def test_grayscale_mode(self):
        cfg = sg.preset_config("hostile", seed=1)
        world = cfg.world()
        calib = sg.default_calibration()
        cam = sg.camera_pose_at(sg.sample_ground_truth(cfg.trajectory, 0.1), calib)
        frame = sg.render_frame(world, cam, calib, "grayscale")
        assert frame.pixels.shape == (256, 256)
        assert frame.pixels.max() > 100     # wireframe visible
        assert np.mean(frame.pixels > 50) < 0.3

    def test_unknown_mode_rejected(self):
        world = sg.WorldModel(np.zeros((0, 3)), np.zeros((0, 2, 3)))
        with pytest.raises(sg.InvalidSpec):
            sg.render_frame(world, Pose(), sg.default_calibration(), "fancy")


class TestWorld:
    def test_default_counts(self):
        w = sg.make_room_world(0)
        assert len(w.landmarks) == 600
        assert len(w.segments) == 200

    def test_poor_sector_reduces_features(self):
        full = sg.make_room_world(1)
        poor = sg.make_room_world(1, poor_sector=(0.0, 60.0), poor_density=0.05)
        az_full = np.arctan2(full.landmarks[:, 1], full.landmarks[:, 0])
        az_poor = np.arctan2(poor.landmarks[:, 1], poor.landmarks[:, 0])
        n_full = np.sum(np.abs(az_full) < np.deg2rad(60))
        n_poor = np.sum(np.abs(az_poor) < np.deg2rad(60))
        assert n_poor < 0.3 * n_full

    def test_reproducible(self):
        a = sg.make_room_world(7)
        b = sg.make_room_world(7)
        np.testing.assert_array_equal(a.landmarks, b.landmarks)
        np.testing.assert_array_equal(a.segments, b.segments)


class TestDatasetIO:
    def test_write_load_round_trip(self, tmp_path):
        cfg = sg.preset_config("static", duration=0.05)
        out = sg.write_dataset(cfg, tmp_path / "ds")
        ds = sg.load_dataset(out)
        assert ds.n_frames() == 12  # 0.05 s * 250 fps rounded
        frames = list(ds.iter_frames())
        assert len(frames) == 12
        t0, (corners, edges) = frames[0]
        assert t0 == 0.0
        mem = sg.build_dataset(cfg)
        _, (mc, me) = next(iter(mem.iter_frames()))
        np.testing.assert_array_equal(corners.bits, mc.bits)
        np.testing.assert_array_equal(edges.bits, me.bits)
        np.testing.assert_array_equal(ds.imu[:, 0], mem.imu[:, 0])

    def test_byte_identical_for_same_seed(self, tmp_path):
        cfg = sg.preset_config("hostile", duration=0.04, seed=5)
        a = sg.write_dataset(cfg, tmp_path / "a")
        b = sg.write_dataset(cfg, tmp_path / "b")
        for fa in sorted(a.rglob("*")):
            if fa.is_dir():
                continue
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs"
