import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from binvio import msckf
from binvio.geometry import (
    project_points,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    undistort,
)
from binvio.imu import NavState, NoiseParams
from binvio.msckf import (
    BehindCamera,
    FilterConfig,
    FilterState,
    InsufficientBaseline,
    NoConvergence,
    _chi2_gate,
    _ekf_update,
    _inverse_depth_rows,
    _nis,
    _observation_jacobians,
    _parallax_screen,
    _track_rows,
    camera_poses_now,
    msckf_update,
    process_frame,
    route_tracks,
    slam_update,
    triangulate,
)
from binvio.simgen import GroundTruth, camera_pose_at, default_calibration
from binvio.tracker import FeatureTrack, TrackStatus, TrackTable

# the pipeline's table width: the filter's clones plus the frame being cloned
WIDTH = FilterConfig().max_clones + 1
NO_ROWS = np.empty(0, dtype=np.intp)


def make_state(n_clones=10, estimate_calib=False, spacing=0.12, **cfg_kw):
    """Filter state with clones swept along +y, camera looking at the +x wall."""
    calib = default_calibration()
    cfg = FilterConfig(estimate_calibration=estimate_calib, **cfg_kw)
    nav = NavState()
    state = FilterState(nav, calib, cfg)
    for k in range(n_clones):
        state.nav = NavState(
            quat_from_axis_angle(np.array([0.0, 0.0, 0.02 * k])),
            np.array([0.05 * np.sin(k), spacing * k, 0.03 * np.cos(k)]),
        )
        state.clone_pose(k)
    return state


def pixel_of(p_global, cam_pose, calib):
    R, centre = cam_pose
    return project_points((R @ (p_global - centre))[None, :], calib)[0]


def clone_at(state, frame):
    """First covariance row of the clone of ``frame``."""
    return state.clone_start() + 6 * state.clones[frame]


def slam_at(state, tid):
    """First covariance row of the landmark of track ``tid``."""
    return state.slam_start() + 3 * state.slam[tid]


def camera_of(state, frame):
    """The camera pose (R, centre) of the clone of ``frame``, formed as the simulator forms it."""
    row = state.clones[frame]
    zero = np.zeros(3)
    return camera_pose_at(
        GroundTruth(state.clone_q[row], state.clone_p[row], zero, zero, zero), state.calib
    )


def observe(state, landmark, frames):
    """Exact pixel observations of a landmark from the given clones."""
    return [(f, pixel_of(landmark, camera_of(state, f), state.calib)) for f in frames]


def triangulate_now(state, track):
    """``triangulate`` as the filter calls it: on the screen's window, through the clones' poses.

    A track that the screen rejects raises InsufficientBaseline, as the filter counts it.
    """
    cam_poses = camera_poses_now(state)
    (window,) = _parallax_screen(track.frames[None], track.pixels[None], state, cam_poses)
    if window is None:
        raise InsufficientBaseline("the parallax screen rejects the track")
    return triangulate(window, cam_poses, state.calib)


def record(tid, obs, width=WIDTH):
    """The death record of track ``tid`` with observations ``obs`` [(frame, pixel)], oldest first.

    Its last ``width`` observations, right-aligned as the track table keeps them.
    """
    frames = np.full(width, -1)
    pixels = np.zeros((width, 2))
    last = obs[-width:]
    if last:
        frames[width - len(last):] = [f for f, _ in last]
        pixels[width - len(last):] = [z for _, z in last]
    track = FeatureTrack(tid, len(obs), frames, pixels)
    track.mark_dead("test")
    return track


def make_track(state, landmark, frames, tid=0):
    """The death record of a track that saw ``landmark`` exactly in ``frames``."""
    return record(tid, observe(state, landmark, frames))


def advance(table, frame, pixels=None, dies=()):
    """Advance every row of ``table`` into ``frame``, to ``pixels`` (n, 2) or by one pixel in u.

    Rows in ``dies`` fail instead; returns their death records.
    """
    n = len(table)
    disp = np.tile([1.0, 0.0], (n, 1)) if pixels is None else np.asarray(pixels) - table.pos
    ok = np.ones(n, dtype=bool)
    ok[list(dies)] = False
    return table.advance(frame, disp, ok, np.full(n, "test", dtype=object))


def observed_table(pixels, frames):
    """A table whose track i (id i) saw ``pixels[i][k]`` in ``frames[k]``, from ``frames[0]`` on."""
    pixels = np.asarray(pixels, dtype=float)
    table = TrackTable(WIDTH)
    table.spawn(frames[0], pixels[:, 0], np.zeros(2))
    for k, f in enumerate(frames[1:], start=1):
        advance(table, f, pixels[:, k])
    return table


def exact_pixels(state, landmarks, frames):
    """Exact pixels (L, F, 2) of L landmarks from the clones of F ``frames``."""
    return np.array([[z for _, z in observe(state, lm, frames)] for lm in landmarks])


class TestClonePose:
    def test_clone_copies_nav_pose(self):
        state = make_state(1)
        row = state.clones[0]
        for q, p in ((state.clone_q, state.clone_p), (state.clone_q_fej, state.clone_p_fej)):
            np.testing.assert_array_equal(p[row], state.nav.position)
            np.testing.assert_array_equal(q[row], state.nav.orientation)

    def test_covariance_block_duplicated(self):
        calib = default_calibration()
        cfg = FilterConfig(estimate_calibration=False)
        state = FilterState(NavState(), calib, cfg)
        P0 = state.cov.copy()
        state.clone_pose(0)
        off = clone_at(state, 0)
        nav_rows = np.r_[0:3, 3:6]
        np.testing.assert_array_equal(
            state.cov[off:off + 6, off:off + 6], P0[np.ix_(nav_rows, nav_rows)]
        )
        np.testing.assert_array_equal(
            state.cov[off:off + 6, 0:15], P0[nav_rows, :]
        )

    def test_window_cap(self):
        # the cap runs in process_frame, after the updates of the frame
        calib = default_calibration()
        state = FilterState(NavState(), calib, FilterConfig(estimate_calibration=False))
        noise = NoiseParams(2e-4, 2e-3, 2e-6, 3e-5, 9.81)
        for k in range(20):
            process_frame(state, TrackTable(WIDTH), [], [], noise, k, k / 250.0)
            assert len(state.clones) == min(k + 1, 15)
        assert sorted(state.clones) == list(range(5, 20))
        assert state.dim() == 15 + 6 * 15

    def test_marginalization_preserves_remaining_marginals(self):
        state = make_state(5)
        oldest = clone_at(state, 0)
        keep = np.r_[0:oldest, oldest + 6:state.dim()]
        expected = state.cov[np.ix_(keep, keep)].copy()
        state.marginalize_clone(0)
        np.testing.assert_array_equal(state.cov, expected)

    def test_dimension_formula(self):
        state = make_state(7, estimate_calib=True)
        assert state.dim() == 15 + 14 + 6 * 7
        state.marginalize_clone(0)
        assert state.dim() == 15 + 14 + 6 * 6
        assert {k: clone_at(state, k) for k in state.clones} == {
            k: 15 + 14 + 6 * (k - 1) for k in range(1, 7)
        }


class TestCloneArrays:
    def test_camera_poses_match_composed_poses(self):
        """The filter's stacked camera poses equal ``camera_pose_at``'s bit for bit."""
        state = make_state(6, estimate_calib=True)
        state.marginalize_clone(2)
        rotations, centres = camera_poses_now(state)
        assert rotations.shape == (5, 3, 3) and centres.shape == (5, 3)
        for frame, row in state.clones.items():
            R, centre = camera_of(state, frame)
            np.testing.assert_array_equal(rotations[row], R)
            np.testing.assert_array_equal(centres[row], centre)
        # and the rotation and centre are those of the composed frames
        R_imu = quat_to_matrix(state.clone_q)
        np.testing.assert_allclose(
            rotations, quat_to_matrix(state.calib.extrinsic_q) @ R_imu, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", R_imu, centres - state.clone_p),
            np.broadcast_to(state.calib.extrinsic_p, centres.shape), rtol=0, atol=1e-15,
        )

    def test_marginalize_keeps_other_rows(self):
        state = make_state(5)
        state.apply_correction(np.random.default_rng(0).normal(scale=1e-3, size=state.dim()))
        kept = [state.clones[f] for f in (0, 1, 3, 4)]
        arrays = [a[kept].copy() for a in (state.clone_q, state.clone_p, state.clone_q_fej,
                                            state.clone_p_fej)]
        state.marginalize_clone(2)
        assert state.clones == {0: 0, 1: 1, 3: 2, 4: 3}
        for before, after in zip(arrays, (state.clone_q, state.clone_p, state.clone_q_fej,
                                          state.clone_p_fej)):
            np.testing.assert_array_equal(after, before)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_apply_correction_matches_per_clone_update(self, seed):
        rng = np.random.default_rng(seed)
        state = make_state(8, estimate_calib=True)
        for tid in (4, 1, 7):
            state.add_landmark(tid, rng.normal(size=3), rng.normal(size=3), np.eye(3),
                               np.zeros((3, state.dim())), 0)
        state.remove_landmark(1)
        landmarks = state.slam_p.copy(), state.slam_fej.copy()
        dx = rng.normal(size=state.dim())
        # per clone: no rotation, one under the small-angle cut, small and large angles
        for f in state.clones:
            at = clone_at(state, f)
            dx[at:at + 3] *= rng.choice([0.0, 1e-10, 1e-3, 0.5])
        q0, p0 = state.clone_q.copy(), state.clone_p.copy()
        fej = state.clone_q_fej.copy(), state.clone_p_fej.copy()
        nav0, ext0 = copy.deepcopy(state.nav), state.calib.extrinsic_q.copy()
        state.apply_correction(dx)
        # the nav attitude and the extrinsic rotation share the clones' one call
        for q, before, at in ((state.nav.orientation, nav0.orientation, 0),
                              (state.calib.extrinsic_q, ext0, 15)):
            want = quat_normalize(quat_multiply(quat_from_axis_angle(dx[at:at + 3]), before))
            np.testing.assert_array_equal(q, want)
        np.testing.assert_array_equal(state.nav.velocity, nav0.velocity + dx[6:9])
        for f, row in state.clones.items():
            at = clone_at(state, f)
            want = quat_normalize(quat_multiply(quat_from_axis_angle(dx[at:at + 3]), q0[row]))
            np.testing.assert_allclose(state.clone_q[row], want, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(state.clone_p[row], p0[row] + dx[at + 3:at + 6])
        np.testing.assert_array_equal(state.clone_q_fej, fej[0])
        np.testing.assert_array_equal(state.clone_p_fej, fej[1])
        for tid, row in state.slam.items():
            at = slam_at(state, tid)
            np.testing.assert_array_equal(state.slam_p[row], landmarks[0][row] + dx[at:at + 3])
        np.testing.assert_array_equal(state.slam_fej, landmarks[1])


class LayoutReference:
    """The error state rebuilt from scratch: covariance entries keyed by (row, column) label.

    A label is ``("nav", i)``, ``("calib", i)``, ``("clone", frame, i)`` or
    ``("slam", track_id, i)``; the layout orders clones by frame and
    landmarks by insertion.
    """

    def __init__(self, cov, calib_dim):
        self.base = [("nav", i) for i in range(15)] + [("calib", i) for i in range(calib_dim)]
        self.clones, self.slam = [], []
        self.entries = {
            (a, b): cov[i, j] for i, a in enumerate(self.base) for j, b in enumerate(self.base)
        }

    def labels(self):
        return (self.base
                + [("clone", f, i) for f in sorted(self.clones) for i in range(6)]
                + [("slam", t, i) for t in self.slam for i in range(3)])

    def cov(self):
        labels = self.labels()
        return np.array([[self.entries[a, b] for b in labels] for a in labels])

    def offsets(self, kind):
        labels = self.labels()
        return {lab[1]: k for k, lab in enumerate(labels) if lab[0] == kind and lab[2] == 0}

    def insert(self, new, cross, block):
        old = self.labels()
        for i, a in enumerate(new):
            for j, b in enumerate(old):
                self.entries[a, b] = self.entries[b, a] = cross[i, j]
            for j, b in enumerate(new):
                self.entries[a, b] = block[i, j]

    def clone(self, frame):
        nav = [("nav", i) for i in range(6)]
        cross = np.array([[self.entries[a, b] for b in self.labels()] for a in nav])
        block = np.array([[self.entries[a, b] for b in nav] for a in nav])
        self.insert([("clone", frame, i) for i in range(6)], cross, block)
        self.clones.append(frame)

    def add_landmark(self, tid, cross, block):
        self.insert([("slam", tid, i) for i in range(3)], cross, block)
        self.slam.append(tid)

    def drop(self, kind, key):
        (self.clones if kind == "clone" else self.slam).remove(key)
        self.entries = {
            (a, b): v for (a, b), v in self.entries.items()
            if (a[0], a[1]) != (kind, key) and (b[0], b[1]) != (kind, key)
        }


class TestLayout:
    @given(
        estimate_calib=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.tuples(st.sampled_from(["clone", "add", "marg", "remove"]),
                               st.integers(0, 99)), max_size=14),
    )
    def test_structural_ops_match_rebuilt_layout(self, estimate_calib, seed, ops):
        rng = np.random.default_rng(seed)
        state = FilterState(NavState(), default_calibration(),
                            FilterConfig(estimate_calibration=estimate_calib))
        A = rng.normal(size=state.cov.shape)
        state.cov = A @ A.T
        ref = LayoutReference(state.cov, state.calib_dim())
        landmarks = {}  # track id -> (position, first estimate, frame last seen)
        next_frame = next_tid = 0
        for op, pick in ops:
            if op == "clone":
                state.clone_pose(next_frame)
                ref.clone(next_frame)
                next_frame += 1
            elif op == "add":
                cross, block = rng.normal(size=(3, state.dim())), rng.normal(size=(3, 3))
                landmarks[next_tid] = (rng.normal(size=3), rng.normal(size=3), int(pick))
                state.add_landmark(next_tid, *landmarks[next_tid][:2], block, cross, pick)
                ref.add_landmark(next_tid, cross, block)
                next_tid += 1
            elif op == "marg" and state.clones:
                frame = sorted(state.clones)[pick % len(state.clones)]
                state.marginalize_clone(frame)
                ref.drop("clone", frame)
            elif op == "remove" and state.slam:
                tid = list(state.slam)[pick % len(state.slam)]
                state.remove_landmark(tid)
                ref.drop("slam", tid)
            assert {f: clone_at(state, f) for f in state.clones} == ref.offsets("clone")
            assert {t: slam_at(state, t) for t in state.slam} == ref.offsets("slam")
            np.testing.assert_array_equal(state.cov, ref.cov())
            assert list(state.slam) == ref.slam
            assert list(state.slam.values()) == list(range(len(ref.slam)))
            assert state.slam_p.shape == state.slam_fej.shape == (len(ref.slam), 3)
            assert state.slam_seen.shape == (len(ref.slam),)
            for tid, row in state.slam.items():
                position, fej, seen = landmarks[tid]
                np.testing.assert_array_equal(state.slam_p[row], position)
                np.testing.assert_array_equal(state.slam_fej[row], fej)
                assert state.slam_seen[row] == seen

    def test_clone_must_be_newest(self):
        state = make_state(3)
        with pytest.raises(ValueError):
            state.clone_pose(2)
        with pytest.raises(ValueError):
            state.clone_pose(1)


class TestRouteTracks:
    @staticmethod
    def live(starts, end):
        """A table with one track per entry of ``starts``, spawned then and seen through ``end``."""
        table = TrackTable(WIDTH)
        for f in range(min(starts), end + 1):
            if len(table):
                advance(table, f)
            if f in starts:
                table.spawn(f, np.full((starts.count(f), 2), 50.0), np.zeros(2))
        return table

    def route(self, table, died=(), max_clones=15, min_msckf_len=4, state=None):
        if state is None:
            cfg = FilterConfig(max_clones=max_clones, min_msckf_len=min_msckf_len)
            state = FilterState(NavState(), default_calibration(), cfg)
        promote, msckf = route_tracks(state, table, list(died))
        return table.ids[promote].tolist(), [t.id for t in msckf]

    def test_boundary_promotion(self):
        table = self.live([0, 1], 14)  # 15 and 14 observations
        assert table.length.tolist() == [15, 14]
        promote, msckf = self.route(table)
        assert promote == [0]
        assert msckf == []

    def test_dead_tracks_to_msckf(self):
        # three tracks die with 3, 7 and 14 observations
        table = self.live([0, 0, 0], 2)
        died = advance(table, 3, dies=[0])
        for f in range(4, 7):
            advance(table, f)
        died += advance(table, 7, dies=[0])
        for f in range(8, 14):
            advance(table, f)
        died += advance(table, 14, dies=[0])
        assert len(table) == 0
        assert [(t.id, t.length) for t in died] == [(0, 3), (1, 7), (2, 14)]
        promote, msckf = self.route(table, died, min_msckf_len=4)
        assert promote == []
        assert msckf == [1, 2]

    def test_empty_table(self):
        assert self.route(TrackTable(WIDTH)) == ([], [])

    def test_dead_track_longer_than_window_to_msckf(self):
        table = self.live([0], 19)
        died = advance(table, 20, dies=[0])
        assert died[0].length == 20
        assert self.route(table, died) == ([], [0])

    def test_live_track_longer_than_window_promoted_never_retired(self):
        # a promotion that fails leaves the track live and out of state
        table = self.live([1], 20)
        assert self.route(table) == ([0], [])
        state = FilterState(NavState(), default_calibration(), FilterConfig())
        noise = NoiseParams(2e-4, 2e-3, 2e-6, 3e-5, 9.81)
        process_frame(state, table, [], [], noise, 20, 0.08)
        assert table.ids.tolist() == [0]
        assert table.retry_after.tolist() == [25]
        assert 0 not in state.slam

    def test_track_with_landmark_not_promoted(self):
        # in state means a landmark under the track's id, nothing else
        table = self.live([0, 0], 14)
        state = FilterState(NavState(), default_calibration(), FilterConfig())
        state.add_landmark(0, np.zeros(3), np.zeros(3), np.eye(3), np.zeros((3, state.dim())), 0)
        assert self.route(table, state=state) == ([1], [])


class TestTriangulate:
    def test_noiseless_recovery(self):
        state = make_state(10)
        landmark = np.array([3.0, 0.4, 0.2])
        tr = make_track(state, landmark, range(10))
        out = triangulate_now(state, tr)
        assert out.shape == (3,)
        assert np.linalg.norm(out - landmark) < 1e-6

    def test_zero_baseline_rejected(self):
        state = make_state(3, spacing=0.0)
        # identical poses: rays are parallel
        for poses in (state.clone_q, state.clone_p, state.clone_q_fej, state.clone_p_fej):
            poses[:] = poses[state.clones[0]]
        landmark = np.array([3.0, 0.0, 0.0])
        tr = make_track(state, landmark, range(3))
        with pytest.raises(InsufficientBaseline):
            triangulate_now(state, tr)

    def test_behind_camera(self):
        state = make_state(4)
        landmark = np.array([3.0, 0.2, 0.1])
        # reflect the bearing: a consistent point behind every camera
        center = np.array([state.calib.cx, state.calib.cy])
        tr = record(0, [(f, 2 * center - z) for f, z in observe(state, landmark, range(4))])
        with pytest.raises((BehindCamera, InsufficientBaseline)):
            triangulate_now(state, tr)

    def test_non_finite_camera_raises_no_convergence(self):
        # the tracer counts failures by these exception types, and the filter
        # catches only them
        state = make_state(4)
        tr = make_track(state, np.array([3.0, 0.2, 0.1]), range(4))
        cam_poses = camera_poses_now(state)
        (window,) = _parallax_screen(tr.frames[None], tr.pixels[None], state, cam_poses)
        cam_poses[1][2] = np.nan
        with pytest.raises(NoConvergence):
            triangulate(window, cam_poses, state.calib)

    def test_gn_jacobian_matches_finite_differences(self):
        """The affine form's residual is the point's pixel, and its Jacobian that pixel's."""
        rng = np.random.default_rng(0)
        state = make_state(6)
        calib = state.calib
        R_anchor, c_anchor = camera_of(state, 0)
        R_ga = R_anchor.T
        for _ in range(50):
            cam = R_cam, c_cam = camera_of(state, int(rng.integers(0, 6)))
            w = np.array(
                [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.0)]
            )
            R_rel = R_cam @ R_ga
            t_rel = R_cam @ (c_anchor - c_cam)
            B = np.column_stack([R_rel[:, :2], t_rel])
            r, J = _inverse_depth_rows(w, B[None], R_rel[None, :, 2], np.zeros((1, 2)), calib)

            def pixel(wv):
                p_anchor = np.array([wv[0] / wv[2], wv[1] / wv[2], 1.0 / wv[2]])
                return pixel_of(R_ga @ p_anchor + c_anchor, cam, calib)

            np.testing.assert_allclose(-r, pixel(w), rtol=0, atol=1e-9)
            eps = 1e-7
            fd = np.zeros((2, 3))
            for i in range(3):
                d = np.zeros(3)
                d[i] = eps
                fd[:, i] = (pixel(w + d) - pixel(w - d)) / (2 * eps)
            assert np.abs(J - fd).max() / max(1.0, np.abs(fd).max()) < 1e-4


def window_rays(state, observations) -> np.ndarray:
    """Unit global rays of a track's in-window observations, computed here from scratch."""
    obs = [(f, z) for f, z in observations if f in state.clones]
    xn = undistort(np.array([z for _, z in obs]), state.calib, iters=8)
    d = np.column_stack([xn, np.ones(len(obs))])
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return np.stack([camera_of(state, f)[0].T @ di for (f, _), di in zip(obs, d)])


def ray_angle_deg(state, observations) -> float:
    """Largest angle between a track's in-window rays, computed here from scratch."""
    rays = window_rays(state, observations)
    return float(np.degrees(np.arccos(np.clip(rays @ rays.T, -1.0, 1.0).min())))


def rejects_for_baseline(state, observations):
    """Whether a track has under two in-window observations, or rays narrower than the baseline.

    None when the angle lies within rounding of the threshold: an arccos of a
    cosine that is off by 1e-15 is off by up to min(1e-15 / sin θ, sqrt(2e-15)),
    and the screen composes its camera rotations in another order than here.
    """
    if sum(f in state.clones for f, _ in observations) < 2:
        return True
    angle = ray_angle_deg(state, observations)
    theta = np.radians(angle)
    rounding = np.degrees(min(1e-15 / max(np.sin(theta), 1e-300), np.sqrt(2e-15)))
    if abs(angle - state.cfg.min_baseline_deg) <= rounding:
        return None
    return angle < state.cfg.min_baseline_deg


class TestParallaxScreen:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_verdict_matches_ray_angle(self, data):
        """One batch of tracks with mixed window lengths, thresholds at a track's own angle.

        Verdicts match an angle computed from scratch, except within rounding of
        the threshold; windows hold the track's in-window observations.
        """
        first = 3  # the oldest clone; observations of frames 0-2 lie outside the window
        n_clones = data.draw(st.integers(1, 6), label="clones")
        rotation_only = data.draw(st.booleans(), label="rotation only")
        small = st.floats(-0.3, 0.3)
        state = FilterState(NavState(), default_calibration(), FilterConfig(estimate_calibration=False))
        for k in range(n_clones):
            axis_angle = np.array(data.draw(st.tuples(small, small, small), label="rotation"))
            position = np.zeros(3)
            if not rotation_only:
                position = np.array(data.draw(st.tuples(small, small, small), label="position"))
            state.nav = NavState(quat_from_axis_angle(axis_angle), position)
            state.clone_pose(first + k)
        cam_poses = camera_poses_now(state)

        observations = []
        for _ in range(data.draw(st.integers(0, 6), label="tracks")):
            landmark = np.array(
                [data.draw(st.floats(2.0, 6.0)), 3 * data.draw(small), 3 * data.draw(small)]
            )
            seen = data.draw(
                st.lists(st.sampled_from(list(state.clones)), max_size=n_clones, unique=True)
            )
            before = data.draw(st.integers(0, first), label="frames before the window")
            observations.append([(f, np.array([100.0 + f, 90.0])) for f in range(before)]
                                + observe(state, landmark, sorted(seen)))

        viewed = [obs for obs in observations if sum(f in state.clones for f, _ in obs) >= 2]
        if viewed:
            # put the threshold at (or within 1e-6 deg of) one track's own angle
            angle = ray_angle_deg(state, data.draw(st.sampled_from(viewed)))
            offset = data.draw(st.sampled_from([0.0]) | st.floats(-1e-6, 1e-6), label="offset")
            state.cfg.min_baseline_deg = min(max(angle + offset, 0.0), 179.0)
        else:
            state.cfg.min_baseline_deg = data.draw(st.floats(0.0, 5.0))

        tracks = [record(tid, obs) for tid, obs in enumerate(observations)]
        frames = np.array([t.frames for t in tracks]).reshape(-1, WIDTH)
        pixels = np.array([t.pixels for t in tracks]).reshape(-1, WIDTH, 2)
        windows = _parallax_screen(frames, pixels, state, cam_poses)
        assert len(windows) == len(tracks)
        for obs, window in zip(observations, windows):
            rejects = rejects_for_baseline(state, obs)
            assert rejects is None or (window is None) == rejects
            if window is None:
                continue
            rows, pixels, rays = window
            in_window = [(f, z) for f, z in obs if f in state.clones]
            assert rows.tolist() == [state.clones[f] for f, _ in in_window]
            np.testing.assert_array_equal(pixels, [z for _, z in in_window])
            np.testing.assert_allclose(rays, window_rays(state, obs), rtol=0, atol=1e-14)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_table_rows_match_observation_lists(self, data):
        """Spawns, advances with KLT deaths, and stale retirements, against observation lists.

        After each step the table holds the live tracks in id order, every
        live row and death record screens to the in-window observations of
        its track's list under a clone set with gaps, and each record holds
        its track's length and last observations.
        """
        table = TrackTable(WIDTH)
        live = {}  # id -> [(frame, pixel)], in id order
        next_id = 0
        frame = -1
        coord = st.floats(0.0, 255.0)
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            frame += data.draw(st.integers(1, 3), label="frame step")
            op = data.draw(st.sampled_from(["spawn", "advance", "retire"]), label="op")
            n = len(table)
            died, expected = [], []
            if op == "spawn":
                points = data.draw(st.lists(st.tuples(coord, coord), max_size=4), label="spawns")
                table.spawn(frame, np.array(points, dtype=float).reshape(-1, 2), np.zeros(2))
                for point in points:
                    live[next_id] = [(frame, np.array(point))]
                    next_id += 1
            elif op == "advance" and n:
                ok = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                disp = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=n,
                                                   max_size=n))) - 128.0
                died = table.advance(frame, disp, ok, np.full(n, "oob", dtype=object))
                for tid, moved, d in zip(list(live), ok, disp):
                    if moved:
                        live[tid].append((frame, live[tid][-1][1] + d))
                    else:
                        expected.append((tid, live.pop(tid), "oob"))
            elif op == "retire" and n:
                rows = sorted(data.draw(st.sets(st.integers(0, n - 1)), label="stale rows"))
                died = table.retire(np.array(rows, dtype=int), "stale")
                ids = list(live)
                expected = [(ids[i], live.pop(ids[i]), "stale") for i in rows]

            assert table.next_id == next_id
            assert table.ids.tolist() == list(live)
            assert [t.id for t in died] == [tid for tid, _, _ in expected]
            for track, (_, obs, reason) in zip(died, expected):
                assert (track.status, track.death_reason) == (TrackStatus.DEAD, reason)
                assert track.length == len(obs)
                want = record(track.id, obs)
                np.testing.assert_array_equal(track.frames, want.frames)
                np.testing.assert_array_equal(track.pixels, want.pixels)

            # clones: a subset, with gaps, of the last WIDTH frames
            recent = range(max(frame - WIDTH + 1, 0), frame + 1)
            cloned = data.draw(st.lists(st.sampled_from(recent), unique=True), label="clones")
            state = FilterState(NavState(), default_calibration(),
                                FilterConfig(estimate_calibration=False, min_baseline_deg=0.0))
            for f in sorted(cloned):
                state.clone_pose(f)
            lists = list(live.values()) + [obs for _, obs, _ in expected]
            frames = np.concatenate([table.obs_frames] + [t.frames[None] for t in died])
            pixels = np.concatenate([table.obs_pixels] + [t.pixels[None] for t in died])
            windows = _parallax_screen(frames, pixels, state, camera_poses_now(state))
            for obs, window in zip(lists, windows):
                in_window = [(f, z) for f, z in obs if f in state.clones]
                assert (window is None) == (len(in_window) < 2)
                if window is not None:
                    assert window[0].tolist() == [state.clones[f] for f, _ in in_window]
                    np.testing.assert_array_equal(window[1], [z for _, z in in_window])


class TestMsckfUpdate:
    def test_zero_residual_fixed_point(self):
        state = make_state(10)
        landmarks = [np.array([3.0, 0.3 * i - 0.6, 0.15 * i - 0.3]) for i in range(5)]
        tracks = [
            make_track(state, lm, range(10), tid=i) for i, lm in enumerate(landmarks)
        ]
        pos_before = state.nav.position.copy()
        q_before = state.nav.orientation.copy()
        clone_pos = state.clone_p.copy()
        msckf_update(state, tracks)
        assert np.linalg.norm(state.nav.position - pos_before) < 1e-9
        np.testing.assert_allclose(
            quat_to_matrix(state.nav.orientation), quat_to_matrix(q_before), atol=1e-9
        )
        assert np.linalg.norm(state.clone_p - clone_pos, axis=1).max() < 1e-9

    def test_nullspace_annihilation(self, monkeypatch):
        state = make_state(10)
        tracks = [
            make_track(state, np.array([3.0, 0.2 * i, 0.1]), range(10), tid=i)
            for i in range(8)
        ]
        built = []

        def track_rows(state, windows, points, cam_poses):
            rows = _track_rows(state, windows, points, cam_poses)
            for built_rows, window, point in zip(rows, windows, points):
                _, H_f, *_ = _observation_jacobians(state, window[0], point, cam_poses)
                built.append((built_rows, H_f.reshape(-1, 3)))
            return rows

        monkeypatch.setattr(msckf, "_track_rows", track_rows)
        assert msckf_update(state, tracks) == len(tracks)  # every track was used
        assert len(built) == len(tracks)
        for rows, H_f in built:
            assert np.linalg.norm(rows.Q[:, 3:].T @ H_f) < 1e-9

    def test_budget_cap(self):
        state = make_state(10)
        tracks = [
            make_track(
                state, np.array([3.0, 0.01 * i - 1.0, 0.005 * i]), range(10), tid=i
            )
            for i in range(200)
        ]
        assert msckf_update(state, tracks) == 60

    def test_covariance_trace_never_increases(self):
        state = make_state(10)
        tracks = [
            make_track(state, np.array([3.0, 0.25 * i - 0.5, 0.2]), range(10), tid=i)
            for i in range(6)
        ]
        tr_before = np.trace(state.cov)
        msckf_update(state, tracks)
        assert np.trace(state.cov) <= tr_before + 1e-12

    def test_chi2_gate_monotonicity(self):
        # pixel noise at the filter's sigma_px: the gate's own confidence
        # sweeps every track from rejected to accepted
        def run(confidence):
            state = make_state(10, chi2_confidence=confidence)
            tracks = []
            rng = np.random.default_rng(1)
            for i in range(5):
                lm = np.array([3.0, 0.3 * i - 0.6, 0.1])
                tracks.append(record(i, [(f, z + rng.normal(scale=1.0, size=2))
                                         for f, z in observe(state, lm, range(10))]))
            return msckf_update(state, tracks)

        accepted = [run(c) for c in (1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9)]
        assert accepted[0] == 0       # everything rejected
        assert accepted[-1] == 5      # everything accepted
        assert accepted == sorted(accepted)

    def test_symmetry_maintained(self):
        state = make_state(10)
        tracks = [
            make_track(state, np.array([3.0, 0.3, 0.2]), range(10), tid=0)
        ]
        msckf_update(state, tracks)
        assert np.abs(state.cov - state.cov.T).max() < 1e-10
        assert np.linalg.eigvalsh(state.cov).min() >= -1e-9


def dense_joseph_update(P, H, r, sigma2):
    """Reference EKF step on a dense H: gain, correction and Joseph-form covariance."""
    S = H @ P @ H.T + sigma2 * np.eye(H.shape[0])
    K = P @ H.T @ np.linalg.inv(S)
    IKH = np.eye(P.shape[0]) - K @ H
    return K @ r, IKH @ P @ IKH.T + sigma2 * K @ K.T


def state_snapshot(state):
    nav = state.nav
    return [state.cov.copy(), state.clone_q.copy(), state.clone_p.copy(), nav.position.copy(),
            nav.orientation.copy(), nav.velocity.copy(), nav.bias_gyro.copy(),
            nav.bias_accel.copy()]


class TestEkfUpdate:
    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clones=st.integers(1, 9),
        n_landmarks=st.integers(0, 3),
        k=st.integers(1, 40),
        involved=st.floats(0.0, 1.0),
        sigma_px=st.floats(0.3, 3.0),
    )
    def test_matches_dense_joseph_form(self, seed, n_clones, n_landmarks, k, involved, sigma_px):
        rng = np.random.default_rng(seed)
        state = make_state(n_clones, sigma_px=sigma_px)
        for tid in range(n_landmarks):
            state.add_landmark(tid, np.zeros(3), np.zeros(3), np.eye(3),
                               np.zeros((3, state.dim())), 0)
        d = state.dim()
        assert 20 <= d <= 80
        A = rng.normal(size=(d, d))
        state.cov = A @ A.T / d + 0.1 * np.eye(d)
        P = state.cov.copy()
        cols = rng.choice(d, size=1 + int(involved * (d - 1)), replace=False)
        H = np.zeros((k, d))
        H[:, cols] = rng.normal(size=(k, cols.size))
        r = rng.normal(size=k)
        dx_want, P_want = dense_joseph_update(P, H, r, sigma_px**2)

        applied = []
        state.apply_correction = applied.append
        _ekf_update(state, H, r)
        (dx,) = applied
        assert np.abs(dx - dx_want).max() <= 1e-10 * np.abs(dx_want).max()
        assert np.abs(state.cov - P_want).max() <= 1e-10 * np.abs(P_want).max()
        np.testing.assert_array_equal(state.cov, state.cov.T)
        eig = np.linalg.eigvalsh(state.cov)
        assert eig.min() >= -1e-12 * eig.max()

    def test_work_buffers_match_fresh_arrays(self):
        """An update through the state's work buffers equals one with fresh arrays, bit for bit."""
        rng = np.random.default_rng(5)
        state = make_state(4)
        for n_clones in (4, 9, 6):  # the buffer grows, then serves a smaller state
            while len(state.clones) < n_clones:
                state.clone_pose(max(state.clones) + 1)
            while len(state.clones) > n_clones:
                state.marginalize_clone(min(state.clones))
            d = state.dim()
            A = rng.normal(size=(d, d))
            state.cov = A @ A.T / d + 0.1 * np.eye(d)
            state.cov = 0.5 * (state.cov + state.cov.T)
            H = np.zeros((7, d))
            cols = rng.choice(np.arange(15, d), size=20, replace=False)
            H[:, cols] = rng.normal(size=(7, 20))
            r = rng.normal(size=7)

            # the same steps, with a fresh array for X and for X + Xᵀ
            P = state.cov.copy()
            involved = np.flatnonzero(H.any(axis=0))
            At = H[:, involved] @ P[involved]
            S = At[:, involved] @ H[:, involved].T + np.eye(7)
            Kt = np.linalg.inv(S) @ At
            X = Kt.T @ (0.5 * (S @ Kt) - At)
            P += X + X.T

            applied = []
            state.apply_correction = applied.append
            _ekf_update(state, H, r)
            del state.apply_correction
            np.testing.assert_array_equal(applied[0], r @ Kt)
            assert np.array_equal(state.cov, P)
            assert np.array_equal(state.cov, state.cov.T)

    def test_nan_residual_skipped(self):
        state = make_state(10)
        before = state_snapshot(state)
        H = np.zeros((4, state.dim()))
        at = clone_at(state, 3)
        H[:, at:at + 6] = np.random.default_rng(0).normal(size=(4, 6))
        _ekf_update(state, H, np.array([0.1, np.nan, 0.2, 0.3]))
        for a, b in zip(before, state_snapshot(state)):
            np.testing.assert_array_equal(a, b)
        self.assert_next_frame_runs(state)

    def test_singular_innovation_skipped(self):
        state = make_state(10)
        state.cfg.sigma_px = 0.0  # no noise, so two equal rows make S singular
        before = state_snapshot(state)
        H = np.zeros((2, state.dim()))
        at = clone_at(state, 3)
        H[:, at:at + 6] = np.random.default_rng(0).normal(size=6)
        assert np.linalg.matrix_rank(H @ state.cov @ H.T) == 1
        _ekf_update(state, H, np.array([0.5, -0.5]))
        for a, b in zip(before, state_snapshot(state)):
            np.testing.assert_array_equal(a, b)
        state.cfg.sigma_px = 1.0
        self.assert_next_frame_runs(state)

    @staticmethod
    def assert_next_frame_runs(state):
        noise = NoiseParams(2e-4, 2e-3, 2e-6, 3e-5, 9.81)
        result = process_frame(state, TrackTable(WIDTH), [], [], noise, 10, 10 / 250.0)
        assert 10 in state.clones
        assert np.isfinite(result.position).all() and np.isfinite(state.cov).all()


class TestLandmarkGates:
    def test_batched_gates_match_dense_rows(self, monkeypatch):
        """Part (a)'s batched S, gate verdicts and update rows equal those of dense 2 x d rows."""
        rng = np.random.default_rng(3)
        state = make_state(10, estimate_calib=True)
        frame = 9
        offsets = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]  # pixel error of each observation
        seen = []
        for tid, offset in enumerate(offsets):
            lm = np.array([3.0, 0.3 * tid - 0.9, 0.1 * tid - 0.3])
            state.add_landmark(tid, lm + rng.normal(scale=0.01, size=3), lm, np.eye(3),
                               np.zeros((3, state.dim())), 0)
            z = pixel_of(lm, camera_of(state, frame), state.calib)
            seen.append([z + offset / np.sqrt(2.0)])
        table = observed_table(seen, [frame])  # track i observes landmark i in this frame only
        tids = table.ids.tolist()
        d = state.dim()
        A = rng.normal(size=(d, d))
        state.cov = (A @ A.T / d + 0.1 * np.eye(d)) * 1e-4
        P = state.cov.copy()
        cam_poses = camera_poses_now(state)
        fej = state.slam_fej[[state.slam[tid] for tid in tids]]
        rows = np.full(len(tids), state.clones[frame])
        _, H_f, H_clone, H_calib, _ = _observation_jacobians(state, rows, fej, cam_poses)

        batches, verdicts, updates = [], [], []
        monkeypatch.setattr(msckf, "_nis", lambda S, r: batches.append((S, r)) or _nis(S, r))
        monkeypatch.setattr(msckf, "_chi2_gate",
                            lambda *args: verdicts.append(_chi2_gate(*args)) or verdicts[-1])
        monkeypatch.setattr(msckf, "_ekf_update", lambda st, H, r: updates.append((H, r)))
        slam_update(state, table, NO_ROWS, frame_index=frame)

        (S, r), = batches
        threshold = chi2.ppf(state.cfg.chi2_confidence, 2)
        dense_rows, dense_verdicts = [], []
        for i, tid in enumerate(tids):
            dense = np.zeros((2, d))
            dense[:, 15:29] = H_calib[i]
            dense[:, clone_at(state, frame):clone_at(state, frame) + 6] = H_clone[i]
            dense[:, slam_at(state, tid):slam_at(state, tid) + 3] = H_f[i]
            S_dense = dense @ P @ dense.T + np.eye(2)
            np.testing.assert_allclose(S[i], S_dense, rtol=1e-12)
            dense_verdicts.append(r[i] @ np.linalg.solve(S_dense, r[i]) < threshold)
            if dense_verdicts[-1]:
                dense_rows.append(dense)
        assert verdicts == dense_verdicts
        assert set(verdicts) == {True, False}
        (H, r_update), = updates
        np.testing.assert_array_equal(H, np.vstack(dense_rows))
        np.testing.assert_array_equal(r_update, r[np.array(verdicts)].ravel())


class TestSlamUpdate:
    def add_landmark(self, state, landmark, tid):
        d = state.dim()
        cov_ff = np.eye(3) * 1e-4
        cov_fx = np.zeros((3, d))
        state.add_landmark(tid, landmark, landmark, cov_ff, cov_fx, frame_index=0)

    def test_zero_residual_landmark_unchanged(self):
        state = make_state(10)
        landmark = np.array([3.0, 0.1, -0.2])
        self.add_landmark(state, landmark, tid=0)
        table = observed_table(exact_pixels(state, [landmark], range(10)), range(10))
        slam_update(state, table, NO_ROWS, frame_index=9)
        assert np.linalg.norm(state.slam_p[state.slam[0]] - landmark) < 1e-9

    def test_landmark_behind_camera_retired(self):
        state = make_state(10)
        good = np.array([3.0, 0.1, -0.2])
        self.add_landmark(state, good, tid=0)
        self.add_landmark(state, np.array([-3.0, 0.1, -0.2]), tid=1)
        # track 1 claims to see the landmark behind the cameras at the image centre
        pixels = [exact_pixels(state, [good], range(10))[0], np.full((10, 2), 128.0)]
        slam_update(state, observed_table(pixels, range(10)), NO_ROWS, frame_index=9)
        assert 1 not in state.slam
        assert state.slam_seen[state.slam[0]] == 9
        assert state.slam == {0: 0} and slam_at(state, 0) == 15 + 6 * 10
        assert state.dim() == 15 + 6 * 10 + 3

    def test_retired_landmark_track_promotable_again(self):
        # once its landmark is retired, a live track is out of state
        state = make_state(10, max_clones=10)
        self.add_landmark(state, np.array([-3.0, 0.1, -0.2]), tid=0)
        table = observed_table([np.full((10, 2), 128.0)], range(10))
        promote, dead = route_tracks(state, table, [])
        assert promote.tolist() == [] and dead == []
        slam_update(state, table, promote, frame_index=9)
        assert state.slam == {}
        promote, dead = route_tracks(state, table, [])
        assert promote.tolist() == [0] and dead == []

    def test_promotion_initializes_landmark(self):
        state = make_state(15)
        landmark = np.array([3.0, -0.3, 0.25])
        table = observed_table(exact_pixels(state, [landmark], range(15)), range(15))
        slam_update(state, table, np.array([0]), frame_index=14)
        assert 0 in state.slam
        assert table.ids.tolist() == [0]
        assert np.linalg.norm(state.slam_p[state.slam[0]] - landmark) < 1e-6
        assert state.dim() == 15 + 6 * 15 + 3

    def test_in_state_cap(self):
        state = make_state(15)
        landmarks = [np.array([3.0, 0.05 * i - 1.0, 0.04 * i - 0.8]) for i in range(40)]
        table = observed_table(exact_pixels(state, landmarks, range(15)), range(15))
        slam_update(state, table, np.arange(40), frame_index=14)
        assert len(state.slam) <= 30

    def test_landmark_covariance_positive(self):
        state = make_state(15)
        landmark = np.array([3.0, 0.4, -0.1])
        table = observed_table(exact_pixels(state, [landmark], range(15)), range(15))
        slam_update(state, table, np.array([0]), frame_index=14)
        off = slam_at(state, 0)
        block = state.cov[off:off + 3, off:off + 3]
        assert np.linalg.eigvalsh(block).min() > 0.0


class TestCalibrationJacobians:
    def test_full_measurement_jacobian_fd(self):
        # perturb clone pose, landmark, and calibration as the filter's
        # correction moves them; compare row blocks
        state = make_state(4, estimate_calib=True, use_fej=False)
        landmark = np.array([3.0, 0.2, -0.1])
        rows = _observation_jacobians(state, np.array([state.clones[2]]), landmark,
                                      camera_poses_now(state))
        pred, H_f, H_clone, H_calib = (a[0] for a in rows[:4])
        eps = 1e-6

        def project_with(dtheta_c, dp_c, d_lm, d_ext_rot, d_ext_pos, d_intr):
            moved = copy.deepcopy(state)
            dx = np.zeros(state.dim())
            at = clone_at(state, 2)
            dx[at:at + 3], dx[at + 3:at + 6] = dtheta_c, dp_c
            dx[15:18], dx[18:21], dx[21:29] = d_ext_rot, d_ext_pos, d_intr
            moved.apply_correction(dx)
            return pixel_of(landmark + d_lm, camera_of(moved, 2), moved.calib)

        zeros = [np.zeros(3)] * 5 + [np.zeros(8)]

        def fd(block, idx, size):
            J = np.zeros((2, size))
            for i in range(size):
                args_p = [z.copy() for z in zeros]
                args_m = [z.copy() for z in zeros]
                args_p[idx][i] = eps
                args_m[idx][i] = -eps
                J[:, i] = (project_with(*args_p) - project_with(*args_m)) / (2 * eps)
            return J

        for analytic, idx, size in (
            (H_clone[:, 0:3], 0, 3),
            (H_clone[:, 3:6], 1, 3),
            (H_f, 2, 3),
            (H_calib[:, 0:3], 3, 3),
            (H_calib[:, 3:6], 4, 3),
            (H_calib[:, 6:14], 5, 8),
        ):
            num = fd(analytic, idx, size)
            scale = max(1.0, np.abs(num).max())
            assert np.abs(analytic - num).max() / scale < 1e-4
