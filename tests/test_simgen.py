import hashlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from binvio import simgen as sg
from binvio.geometry import (
    RENDER_MIN_DEPTH,
    project_batch,
    project_points,
    quat_from_axis_angle,
    quat_to_matrix,
)
from binvio.imu import NavState, NoiseParams, propagate_block

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0, 9.81)


class TestGroundTruth:
    def test_static_identity(self):
        spec = sg.TrajectorySpec(duration=5.0)
        for t in (0.0, 1.7, 5.0):
            gt = sg.sample_ground_truth(spec, t)
            assert np.linalg.norm(gt.position) == 0.0
            np.testing.assert_array_equal(gt.orientation, [0.0, 0.0, 0.0, 1.0])
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
            v_num = (gp.position - gm.position) / (2 * h)
            np.testing.assert_allclose(v_num, g0.velocity, atol=1e-5)
            a_num = (gp.velocity - gm.velocity) / (2 * h)
            np.testing.assert_allclose(a_num, g0.acceleration, atol=1e-4)
            # body rate from central difference: A(t-h)^T A(t+h) = exp([2wh])
            Am = quat_to_matrix(gm.orientation).T
            Ap = quat_to_matrix(gp.orientation).T
            w_num = Rotation.from_matrix(Am.T @ Ap).as_rotvec() / (2 * h)
            np.testing.assert_allclose(w_num, g0.angular_rate, atol=1e-4)

    def test_out_of_range_t(self):
        spec = sg.TrajectorySpec(duration=2.0)
        with pytest.raises(ValueError):
            sg.sample_ground_truth(spec, 2.5)
        with pytest.raises(ValueError):
            sg.sample_ground_truth(spec, np.array([0.0, 1.0, 2.5]))

    @given(
        st.sampled_from(["hostile", "hostile-rot", "low-texture", "gentle", "static"]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_stacked_times_equal_one_time_calls(self, preset, fractions):
        spec = sg.preset_config(preset).trajectory
        ts = np.array(fractions) * spec.duration
        stacked = sg.sample_ground_truth(spec, ts)
        for i, t in enumerate(ts):
            one = sg.sample_ground_truth(spec, t)
            for name in ("orientation", "position", "velocity", "angular_rate", "acceleration"):
                assert getattr(stacked, name)[i].tobytes() == getattr(one, name).tobytes(), name


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
        state = NavState(g0.orientation, g0.position.copy(), g0.velocity.copy())
        out, _, _ = propagate_block(state, samples, NO_NOISE)
        gT = sg.sample_ground_truth(spec, spec.duration)
        assert np.linalg.norm(out.position - gT.position) < 1e-4
        np.testing.assert_allclose(
            quat_to_matrix(out.orientation), quat_to_matrix(gT.orientation), atol=1e-5
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


def full_segment_samples(segments, cam_pose, calib):
    """Every sample of every segment, behind the camera too: the sampling the depth cull replaced."""
    if len(segments) == 0:
        return np.zeros((0, 3))
    px, ok = project_batch(segments.reshape(-1, 3), cam_pose, calib)
    px, ok = px.reshape(-1, 2, 2), ok.reshape(-1, 2)
    lengths = np.linalg.norm(px[:, 1] - px[:, 0], axis=1)
    lengths[~ok.all(axis=1)] = sg.MAX_SEGMENT_SAMPLES
    counts = np.clip(
        (sg.SAMPLES_PER_PIXEL * lengths).astype(int), sg.MIN_SEGMENT_SAMPLES, sg.MAX_SEGMENT_SAMPLES
    )
    seg_idx = np.repeat(np.arange(len(segments)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    frac = (np.arange(counts.sum()) - starts[seg_idx]) / (counts[seg_idx] - 1)
    p0 = segments[seg_idx, 0]
    p1 = segments[seg_idx, 1]
    return p0 + frac[:, None] * (p1 - p0)


# endpoint depths in the camera frame, with the depth test's threshold and its neighbours
DEPTHS = st.one_of(
    st.floats(-4.0, 6.0),
    st.sampled_from([0.0, -RENDER_MIN_DEPTH, RENDER_MIN_DEPTH,
                     np.nextafter(RENDER_MIN_DEPTH, 0.0), np.nextafter(RENDER_MIN_DEPTH, 1.0)]),
)
# small offsets keep a segment's stretch just past the depth threshold in view
LATERAL = st.one_of(st.floats(-4.0, 4.0), st.floats(-0.05, 0.05))
# (x0, y0, z0, x1, y1, z1, parallel) in the camera frame; parallel copies z0 to the far end
CAMERA_SEGMENTS = st.lists(
    st.tuples(LATERAL, LATERAL, DEPTHS, LATERAL, LATERAL, DEPTHS, st.booleans()),
    min_size=1, max_size=8,
)
# None: the default camera axes at the origin, where a parallel segment keeps its depth exactly;
# otherwise a centre in the room and a rotation vector
CAMERAS = st.one_of(
    st.none(),
    st.tuples(
        st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), st.floats(-1.2, 1.2)),
        st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    ),
)


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
        cam = cam[0], np.zeros(3)
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
        cam = quat_to_matrix(calib.extrinsic_q), np.zeros(3)
        _, edges = sg.render_frame(world, cam, calib, "ideal-binary")
        oracle = set()
        points = p0 + np.linspace(0, 1, 1000)[:, None] * (p1 - p0)
        for px in project_points(points @ cam[0].T, calib):
            u, v = int(round(px[0])), int(round(px[1]))
            if 0 <= u < 256 and 0 <= v < 256:
                oracle.add((v, u))
        got = set(zip(*np.nonzero(edges.bits)))
        assert got == oracle
        rows = {r for r, _ in got}
        assert len(rows) == 1, "through-axis flat segment must be a horizontal run"

    def test_segment_across_the_depth_plane_matches_dense_projection_oracle(self):
        # one end 0.1 m behind the camera, one in front, in the horizontal
        # plane through the optical axis, which it crosses 2.05 m ahead: a run
        # along the middle row from the image border past the principal point
        calib = sg.default_calibration()
        p0 = np.array([-0.1, 1.7, 0.0])
        p1 = np.array([2.3, -0.2, 0.0])
        world = sg.WorldModel(landmarks=np.zeros((0, 3)), segments=np.array([[p0, p1]]))
        cam = quat_to_matrix(calib.extrinsic_q), np.zeros(3)
        _, edges = sg.render_frame(world, cam, calib, "ideal-binary")
        points = p0 + np.linspace(0, 1, 1000)[:, None] * (p1 - p0)
        p_cam = points @ cam[0].T
        p_cam = p_cam[p_cam[:, 2] > RENDER_MIN_DEPTH]
        in_frame = np.hypot(p_cam[:, 0], p_cam[:, 1]) < 2.0 * p_cam[:, 2]
        oracle = set()
        for px in project_points(p_cam[in_frame], calib):
            u, v = int(round(px[0])), int(round(px[1]))
            if 0 <= u < 256 and 0 <= v < 256:
                oracle.add((v, u))
        got = set(zip(*np.nonzero(edges.bits)))
        assert got == oracle
        assert {r for r, _ in got} == {128} and (128, 128) in got
        assert min(c for _, c in got) == 0, "the run must reach the border"

    @given(CAMERAS, CAMERA_SEGMENTS)
    def test_depth_cull_renders_like_full_sampling(self, camera, camera_segments):
        calib = sg.default_calibration()
        if camera is None:
            R, centre = quat_to_matrix(calib.extrinsic_q), np.zeros(3)
        else:
            R, centre = quat_to_matrix(quat_from_axis_angle(np.array(camera[1]))), np.array(camera[0])
        ends = np.array([
            [[x0, y0, z0], [x1, y1, z0 if parallel else z1]]
            for x0, y0, z0, x1, y1, z1, parallel in camera_segments
        ])
        world = sg.WorldModel(landmarks=np.zeros((0, 3)), segments=ends @ R + centre)
        for mode in sg.RENDER_MODES:
            culled = sg.render_frame(world, (R, centre), calib, mode)
            with mock.patch.object(sg, "_segment_samples", full_segment_samples):
                full = sg.render_frame(world, (R, centre), calib, mode)
            if mode == "ideal-binary":
                assert np.array_equal(culled[1].bits, full[1].bits)
            else:
                assert np.array_equal(culled.pixels, full.pixels)

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

    def test_default_camera_axes(self):
        # the camera looks along +x of the IMU frame: z_C = +x, x_C = -y, y_C = -z
        R = quat_to_matrix(sg.default_calibration().extrinsic_q)
        np.testing.assert_array_equal(R, [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

    def test_unknown_mode_rejected(self):
        world = sg.WorldModel(np.zeros((0, 3)), np.zeros((0, 2, 3)))
        with pytest.raises(sg.InvalidSpec):
            sg.render_frame(world, (np.eye(3), np.zeros(3)), sg.default_calibration(), "fancy")


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

    @given(st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 4), max_size=12),
           st.sampled_from([None, 1, 4]))
    def test_line_crossings_match_pairwise_loop(self, ends, parallel_to):
        # the per-pair loop the array pass replaced, as the bit-for-bit reference
        lines = np.array(ends, dtype=float).reshape(-1, 2, 2)
        if parallel_to is not None and len(lines) > parallel_to:
            lines[parallel_to] = lines[0] + 0.5  # a parallel pair, skipped by both
        want = []
        for i in range(len(lines)):
            (x1, y1), (x2, y2) = lines[i]
            for j in range(i + 1, len(lines)):
                (x3, y3), (x4, y4) = lines[j]
                den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
                if abs(den) < 1e-12:
                    continue
                s = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
                u = ((x1 - x3) * (y1 - y2) - (y1 - y3) * (x1 - x2)) / den
                if 0.02 <= s <= 0.98 and 0.02 <= u <= 0.98:
                    want.append((x1 + s * (x2 - x1), y1 + s * (y2 - y1)))
        np.testing.assert_array_equal(sg._line_crossings(lines), np.array(want).reshape(-1, 2))

    @pytest.mark.parametrize("preset, digest", [
        ("hostile-rot", "0817c839c58e288f404bbb973be75076e661058146d24f3af01dc3fba6e82424"),
        # the poor sector's decimation
        ("low-texture", "323343e662179e2a7ecfba40d492f59bf3e8bc38c710e2b3a2498b65d396c413"),
    ], ids=["hostile-rot", "low-texture"])
    def test_world_matches_pinned_digest(self, preset, digest):
        # sha256 of the landmark then the segment array bytes, recorded from an earlier version
        w = sg.preset_config(preset, seed=1).world()
        assert hashlib.sha256(w.landmarks.tobytes() + w.segments.tobytes()).hexdigest() == digest

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

    def test_duration_off_the_imu_grid(self):
        # 0.3013 s is 120.52 IMU periods: the stream ends 120 periods in, at 0.3 s
        ds = sg.build_dataset(sg.preset_config("hostile", duration=0.3013, seed=1))
        assert ds.imu[-1, 0] <= 0.3013
        assert ds.gt[-1, 0] <= 0.3013
        assert len(ds.imu) == 121 and len(ds.gt) == 302

    def test_duration_without_two_imu_samples(self):
        # two frames at 1000 fps, but 0.8 of an IMU period at 400 Hz
        with pytest.raises(sg.InvalidSpec, match="two IMU samples"):
            sg.preset_config("hostile", duration=0.002, fps=1000.0)

    def test_byte_identical_for_same_seed(self, tmp_path):
        cfg = sg.preset_config("hostile", duration=0.04, seed=5)
        a = sg.write_dataset(cfg, tmp_path / "a")
        b = sg.write_dataset(cfg, tmp_path / "b")
        for fa in sorted(a.rglob("*")):
            if fa.is_dir():
                continue
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs"


def output_digests(out: Path) -> dict:
    """sha256 of imu.csv, gt.csv and meta.txt, and one over every frame file's name and bytes."""
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
               for n in ("imu.csv", "gt.csv", "meta.txt")}
    frames = hashlib.sha256()
    for f in sorted((out / "frames").iterdir()):
        frames.update(f.name.encode() + b"\0" + f.read_bytes())
    digests["frames"] = frames.hexdigest()
    return digests


PINNED_DIGESTS = Path(__file__).parent / "data" / "simulator_0.2s_sha256.txt"


class TestPinnedOutput:
    """Every file ``write_dataset`` writes, against digests recorded from an earlier version.

    The ``%.9f`` text of imu.csv and gt.csv absorbs last-bit changes in the
    trajectory arithmetic, and the frames absorb sub-pixel ones; a change
    that moves the simulator's output on purpose rewrites the digest file.
    """

    @pytest.mark.parametrize("preset, mode, seed", [
        ("hostile", "ideal-binary", 1),
        ("gentle", "grayscale", 4),
        ("static", "ideal-binary", 1),
    ])
    def test_output_matches_pinned_digests(self, tmp_path, preset, mode, seed):
        name = f"{preset}_{mode}_seed{seed}_0.2s"
        want = {
            f: digest for n, f, digest in (
                line.split() for line in PINNED_DIGESTS.read_text().splitlines()
                if not line.startswith("#")
            ) if n == name
        }
        cfg = replace(sg.preset_config(preset, duration=0.2, seed=seed), mode=mode)
        assert output_digests(sg.write_dataset(cfg, tmp_path / "ds")) == want
