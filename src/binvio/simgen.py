"""Synthetic data factory: trajectories, world model, IMU and frame rendering.

Trajectories are sums of per-axis sinusoids for position and for a
rotation vector; every derived quantity (velocity, acceleration, body
angular rate) is evaluated analytically.  The world is a room shell whose
walls carry jittered line grids: line crossings are the corner landmarks,
so every corner is backed by local edge structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .emulator import MAP_SIZE, BinaryMap, GrayFrame, MapKind
from .geometry import (
    CameraCalibration,
    Pose,
    UnitQuaternion,
    project_batch,
    quat_from_matrix,
    so3_exp,
    so3_right_jacobian,
)
from .imu import NoiseParams
from . import io as dataio

TWO_PI = 2.0 * np.pi


class InvalidSpec(ValueError):
    """A simulation preset or spec file failed validation."""


@dataclass(frozen=True)
class TrajectorySpec:
    """Per-axis sinusoid sets; each term is (amplitude, frequency_hz, phase).

    ``pos_terms``/``rot_terms`` hold one list of terms per axis.  The
    rotation vector parameterizes body-to-global orientation exp([phi]x).
    """

    pos_terms: tuple = ((), (), ())
    rot_terms: tuple = ((), (), ())
    duration: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise InvalidSpec("duration must be positive")
        for group in (self.pos_terms, self.rot_terms):
            if len(group) != 3:
                raise InvalidSpec("need exactly three axes of sinusoid terms")


def _eval_axis(terms, t):
    """Value, first and second derivative of a sinusoid sum at time(s) t."""
    t = np.asarray(t, dtype=float)
    x = np.zeros_like(t)
    dx = np.zeros_like(t)
    ddx = np.zeros_like(t)
    for amp, freq, phase in terms:
        w = TWO_PI * freq
        arg = w * t + phase
        x = x + amp * np.sin(arg)
        dx = dx + amp * w * np.cos(arg)
        ddx = ddx - amp * w * w * np.sin(arg)
    return x, dx, ddx


def _eval_vec(groups, t):
    vals = [_eval_axis(g, t) for g in groups]
    return (
        np.stack([v[0] for v in vals], axis=-1),
        np.stack([v[1] for v in vals], axis=-1),
        np.stack([v[2] for v in vals], axis=-1),
    )


@dataclass(frozen=True)
class GroundTruth:
    pose: Pose                 # orientation maps G into the IMU frame
    velocity: np.ndarray       # m/s in G
    angular_rate: np.ndarray   # rad/s in the IMU frame
    acceleration: np.ndarray   # m/s^2 in G


def sample_ground_truth(spec: TrajectorySpec, t: float) -> GroundTruth:
    """Exact pose/velocity/rate/acceleration at time ``t``."""
    if not 0.0 <= t <= spec.duration + 1e-9:
        raise ValueError("t outside trajectory duration")
    p, v, a = _eval_vec(spec.pos_terms, t)
    phi, dphi, _ = _eval_vec(spec.rot_terms, t)
    A = so3_exp(phi)                       # body-to-global
    omega_body = so3_right_jacobian(phi) @ dphi
    q = UnitQuaternion(quat_from_matrix(A.T))
    return GroundTruth(Pose(q, p), v, omega_body, a)


def peak_angular_rate(spec: TrajectorySpec, samples_per_second: int = 2000) -> float:
    """Max body-rate norm, from dense evaluation of the analytic rate."""
    t = np.linspace(0.0, spec.duration, int(spec.duration * samples_per_second) + 1)
    phi, dphi, _ = _eval_vec(spec.rot_terms, t)
    peaks = 0.0
    for i in range(len(t)):
        w = so3_right_jacobian(phi[i]) @ dphi[i]
        peaks = max(peaks, float(np.linalg.norm(w)))
    return peaks


def path_length(spec: TrajectorySpec, samples_per_second: int = 2000) -> float:
    t = np.linspace(0.0, spec.duration, int(spec.duration * samples_per_second) + 1)
    _, v, _ = _eval_vec(spec.pos_terms, t)
    speed = np.linalg.norm(v, axis=1)
    return float(np.trapezoid(speed, t))


def synthesize_imu(
    spec: TrajectorySpec,
    noise: NoiseParams,
    rate_hz: float = 400.0,
    seed: int | None = None,
) -> np.ndarray:
    """Forward IMU model sampled on the uniform grid, seeded and repeatable.

    Returns (N, 7) rows ``t, wx, wy, wz, ax, ay, az``, as ``imu.csv`` stores them.
    """
    if rate_hz <= 0:
        raise ValueError("rate must be positive")
    seed = spec.seed if seed is None else seed
    n = int(round(spec.duration * rate_hz))
    ts = np.arange(n + 1) / rate_hz
    phi, dphi, _ = _eval_vec(spec.rot_terms, ts)
    _, _, acc = _eval_vec(spec.pos_terms, ts)
    g_vec = noise.gravity_vector()

    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    white_g = rng.normal(size=(n + 1, 3)) * noise.gyro_noise * np.sqrt(rate_hz)
    white_a = rng.normal(size=(n + 1, 3)) * noise.accel_noise * np.sqrt(rate_hz)
    walk_g = np.cumsum(rng.normal(size=(n + 1, 3)) * noise.gyro_walk * np.sqrt(dt), axis=0)
    walk_a = np.cumsum(rng.normal(size=(n + 1, 3)) * noise.accel_walk * np.sqrt(dt), axis=0)

    samples = np.empty((n + 1, 7))
    samples[:, 0] = ts
    for i in range(n + 1):
        samples[i, 1:4] = so3_right_jacobian(phi[i]) @ dphi[i]
        samples[i, 4:7] = so3_exp(phi[i]).T @ (acc[i] - g_vec)
    samples[:, 1:4] = samples[:, 1:4] + walk_g + white_g
    samples[:, 4:7] = samples[:, 4:7] + walk_a + white_a
    return samples


@dataclass
class WorldModel:
    """Corner-generating landmarks plus edge-generating 3D segments."""

    landmarks: np.ndarray            # (N, 3)
    segments: np.ndarray             # (S, 2, 3) endpoint pairs


def _wall_frames(size):
    """Six face frames: (origin, u_dir, v_dir, u_half, v_half)."""
    hx, hy, hz = size[0] / 2, size[1] / 2, size[2] / 2
    ex, ey, ez = np.eye(3)
    return [
        (np.array([hx, 0, 0]), ey, ez, hy, hz),    # +x wall
        (np.array([-hx, 0, 0]), ey, ez, hy, hz),   # -x wall
        (np.array([0, hy, 0]), ex, ez, hx, hz),    # +y wall
        (np.array([0, -hy, 0]), ex, ez, hx, hz),   # -y wall
        (np.array([0, 0, hz]), ex, ey, hx, hy),    # ceiling
        (np.array([0, 0, -hz]), ex, ey, hx, hy),   # floor
    ]


def _face_lines(rng, u_half, v_half, budget):
    """Jittered full-span lines in face coordinates; returns (p0, p1) pairs."""
    n_h = max(2, int(round(budget * 0.4)))
    n_v = max(2, int(round(budget * 0.4)))
    n_d = max(1, budget - n_h - n_v)
    lines = []
    for k in range(n_h):
        v0 = -v_half + (k + 0.5) * (2 * v_half) / n_h
        j0, j1 = rng.uniform(-0.35, 0.35, size=2) * (2 * v_half) / n_h
        lines.append(((-u_half, v0 + j0), (u_half, v0 + j1)))
    for k in range(n_v):
        u0 = -u_half + (k + 0.5) * (2 * u_half) / n_v
        j0, j1 = rng.uniform(-0.35, 0.35, size=2) * (2 * u_half) / n_v
        lines.append(((u0 + j0, -v_half), (u0 + j1, v_half)))
    for _ in range(n_d):
        if rng.random() < 0.5:
            lines.append(
                ((-u_half, rng.uniform(-v_half, v_half)),
                 (u_half, rng.uniform(-v_half, v_half)))
            )
        else:
            lines.append(
                ((rng.uniform(-u_half, u_half), -v_half),
                 (rng.uniform(-u_half, u_half), v_half))
            )
    return lines


def _line_crossings(lines):
    """Pairwise intersections of 2D segments, in face coordinates."""
    pts = []
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
                pts.append((x1 + s * (x2 - x1), y1 + s * (y2 - y1)))
    return pts


def make_room_world(
    seed: int = 0,
    n_landmarks: int = 600,
    n_segments: int = 200,
    size=(6.0, 6.0, 3.0),
    poor_sector: tuple[float, float] | None = None,
    poor_density: float = 0.1,
    min_landmark_spacing: float = 0.25,
) -> WorldModel:
    """Room shell with jittered line grids on every face.

    ``poor_sector`` is an (azimuth_deg, half_width_deg) slice in which both
    segments and landmarks are decimated to ``poor_density``, producing a
    low-texture region for robustness experiments.
    """
    rng = np.random.default_rng(seed)
    faces = _wall_frames(size)
    budget_per_face = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
    segments = []
    landmarks = []
    for (origin, u_dir, v_dir, u_half, v_half), frac in zip(faces, budget_per_face):
        budget = max(4, int(round(n_segments * frac)))
        lines = _face_lines(rng, u_half, v_half, budget)
        for (a, b) in lines:
            p0 = origin + a[0] * u_dir + a[1] * v_dir
            p1 = origin + b[0] * u_dir + b[1] * v_dir
            segments.append((p0, p1))
        for (u, v) in _line_crossings(lines):
            landmarks.append(origin + u * u_dir + v * v_dir)

    segments = np.array(segments)
    landmarks = np.array(landmarks)

    if poor_sector is not None:
        center = np.deg2rad(poor_sector[0])
        half = np.deg2rad(poor_sector[1])

        def in_sector(xy):
            az = np.arctan2(xy[:, 1], xy[:, 0])
            d = np.abs((az - center + np.pi) % (2 * np.pi) - np.pi)
            return d <= half

        seg_mid = segments.mean(axis=1)
        keep_seg = ~in_sector(seg_mid) | (rng.random(len(segments)) < poor_density)
        segments = segments[keep_seg]
        keep_lm = ~in_sector(landmarks) | (rng.random(len(landmarks)) < poor_density)
        landmarks = landmarks[keep_lm]

    # spread-preserving subsample down to the landmark budget
    order = rng.permutation(len(landmarks))
    kept = []
    cell = max(min_landmark_spacing, 1e-6)
    occupied = {}
    for idx in order:
        p = landmarks[idx]
        key = tuple((p // cell).astype(int))
        ok = True
        for dk in np.ndindex(3, 3, 3):
            nb = (key[0] + dk[0] - 1, key[1] + dk[1] - 1, key[2] + dk[2] - 1)
            for q in occupied.get(nb, ()):
                if np.sum((p - q) ** 2) < min_landmark_spacing**2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(idx)
            occupied.setdefault(key, []).append(p)
        if len(kept) >= n_landmarks:
            break
    landmarks = landmarks[np.sort(np.array(kept, dtype=int))]
    return WorldModel(landmarks=landmarks, segments=segments)


MIN_SEGMENT_SAMPLES = 16
MAX_SEGMENT_SAMPLES = 512
SAMPLES_PER_PIXEL = 2


def _segment_samples(segments: np.ndarray, cam_pose: Pose, calib: CameraCalibration):
    """Sample each segment densely enough to cover every crossed pixel."""
    if len(segments) == 0:
        return np.zeros((0, 3))
    ends = segments.reshape(-1, 3)
    px, ok = project_batch(ends, cam_pose, calib)
    px = px.reshape(-1, 2, 2)
    ok = ok.reshape(-1, 2)
    lengths = np.linalg.norm(px[:, 1] - px[:, 0], axis=1)
    lengths[~ok.all(axis=1)] = MAX_SEGMENT_SAMPLES  # partly hidden: be generous
    counts = np.clip(
        (SAMPLES_PER_PIXEL * lengths).astype(int), MIN_SEGMENT_SAMPLES, MAX_SEGMENT_SAMPLES
    )
    seg_idx = np.repeat(np.arange(len(segments)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    frac = (np.arange(counts.sum()) - starts[seg_idx]) / (counts[seg_idx] - 1)
    p0 = segments[seg_idx, 0]
    p1 = segments[seg_idx, 1]
    return p0 + frac[:, None] * (p1 - p0)


def render_frame(
    world: WorldModel,
    cam_pose: Pose,
    calib: CameraCalibration,
    mode: str = "ideal-binary",
    timestamp: float = 0.0,
):
    """Render either binary maps or an anti-aliased grayscale frame.

    ``ideal-binary`` returns ``(corner_map, edge_map)`` exactly as the
    sensor front end would emit them; ``grayscale`` returns a GrayFrame of
    white wireframe on black for the emulator path.
    """
    if mode not in ("ideal-binary", "grayscale"):
        raise InvalidSpec(f"unknown render mode {mode!r}")

    seg_pts = _segment_samples(world.segments, cam_pose, calib)
    seg_px, seg_ok = project_batch(seg_pts, cam_pose, calib)

    if mode == "ideal-binary":
        edge_bits = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
        px = np.rint(seg_px[seg_ok]).astype(int)
        keep = (px[:, 0] >= 0) & (px[:, 0] < MAP_SIZE) & (px[:, 1] >= 0) & (px[:, 1] < MAP_SIZE)
        px = px[keep]
        edge_bits[px[:, 1], px[:, 0]] = 1

        corner_bits = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.uint8)
        lm_px, lm_ok = project_batch(world.landmarks, cam_pose, calib)
        lm = np.rint(lm_px[lm_ok]).astype(int)
        keep = (lm[:, 0] >= 0) & (lm[:, 0] < MAP_SIZE) & (lm[:, 1] >= 0) & (lm[:, 1] < MAP_SIZE)
        lm = lm[keep]
        corner_bits[lm[:, 1], lm[:, 0]] = 1
        return (
            BinaryMap(corner_bits, MapKind.CORNER, timestamp),
            BinaryMap(edge_bits, MapKind.EDGE, timestamp),
        )

    img = np.zeros((MAP_SIZE, MAP_SIZE), dtype=np.float64)
    pts = seg_px[seg_ok]
    inside = (
        (pts[:, 0] >= 0) & (pts[:, 0] < MAP_SIZE - 1)
        & (pts[:, 1] >= 0) & (pts[:, 1] < MAP_SIZE - 1)
    )
    pts = pts[inside]
    x0 = np.floor(pts[:, 0]).astype(int)
    y0 = np.floor(pts[:, 1]).astype(int)
    wx = pts[:, 0] - x0
    wy = pts[:, 1] - y0
    np.add.at(img, (y0, x0), (1 - wx) * (1 - wy))
    np.add.at(img, (y0, x0 + 1), wx * (1 - wy))
    np.add.at(img, (y0 + 1, x0), (1 - wx) * wy)
    np.add.at(img, (y0 + 1, x0 + 1), wx * wy)
    img = np.clip(img * 255.0, 0, 255).astype(np.uint8)
    return GrayFrame(img, timestamp)


def default_calibration() -> CameraCalibration:
    """Wide-angle camera looking along +x of the IMU/global frame."""
    # camera axes: z_C = +x_G, x_C = -y_G, y_C = -z_G at identity attitude
    R_cam_from_imu = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    extrinsic = Pose(
        UnitQuaternion(quat_from_matrix(R_cam_from_imu)),
        np.array([0.02, 0.0, 0.0]),
    )
    return CameraCalibration(
        fx=128.0, fy=128.0, cx=128.0, cy=128.0,
        distortion=np.array([-0.05, 0.01, 0.0005, -0.0003]),
        extrinsic=extrinsic,
    )


@dataclass
class SimConfig:
    """Everything needed to materialize one dataset."""

    trajectory: TrajectorySpec
    mode: str = "ideal-binary"
    fps: float = 250.0
    imu_rate: float = 400.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    seed: int = 0
    n_landmarks: int = 600
    n_segments: int = 200
    poor_sector: tuple[float, float] | None = None
    poor_density: float = 0.1

    def world(self) -> WorldModel:
        return make_room_world(
            seed=self.seed,
            n_landmarks=self.n_landmarks,
            n_segments=self.n_segments,
            poor_sector=self.poor_sector,
            poor_density=self.poor_density,
        )


def camera_pose_at(gt: GroundTruth, calib: CameraCalibration) -> Pose:
    """Camera pose in G given the IMU ground truth and extrinsics."""
    return calib.extrinsic.compose(gt.pose)


class Dataset:
    """Unified view over an in-memory or on-disk dataset; ``imu`` is its (N, 7) IMU stream."""

    def __init__(self, config: SimConfig | None, calib, imu, gt_rows, meta, frame_dir=None):
        self.config = config
        self.calib = calib
        self.imu = imu
        self.gt = np.asarray(gt_rows)
        self.meta = meta
        self.frame_dir = Path(frame_dir) if frame_dir else None
        self._world = None

    @property
    def mode(self) -> str:
        return self.meta["mode"]

    @property
    def fps(self) -> float:
        return float(self.meta["fps"])

    def n_frames(self) -> int:
        return int(self.meta["n_frames"])

    def frame_time(self, k: int) -> float:
        return k / self.fps

    def iter_frames(self):
        """Yield (t, payload) where payload is (corners, edges) or GrayFrame."""
        if self.frame_dir is not None:
            for k in range(self.n_frames()):
                stamp = f"{int(round(self.frame_time(k) * 1e6)):012d}"
                if self.mode == "ideal-binary":
                    corners = dataio.load_binary_map(self.frame_dir / f"{stamp}.corners.tcbm")
                    edges = dataio.load_binary_map(self.frame_dir / f"{stamp}.edges.tcbm")
                    yield self.frame_time(k), (corners, edges)
                else:
                    yield self.frame_time(k), dataio.load_gray_frame(
                        self.frame_dir / f"{stamp}.gray.bin"
                    )
            return
        if self._world is None:
            self._world = self.config.world()
        for k in range(self.n_frames()):
            t = self.frame_time(k)
            gt = sample_ground_truth(self.config.trajectory, t)
            cam = camera_pose_at(gt, self.calib)
            yield t, render_frame(self._world, cam, self.calib, self.mode, t)


def _gt_rows(spec: TrajectorySpec, rate_hz: float = 1000.0) -> np.ndarray:
    n = int(round(spec.duration * rate_hz))
    rows = np.zeros((n + 1, 11))
    for i in range(n + 1):
        t = i / rate_hz
        gt = sample_ground_truth(spec, t)
        q = gt.pose.orientation.xyzw
        rows[i] = [t, *gt.pose.position, *q, *gt.velocity]
    return rows


def build_dataset(cfg: SimConfig) -> Dataset:
    """In-memory dataset; frames are rendered lazily during iteration."""
    spec = cfg.trajectory
    imu = synthesize_imu(spec, cfg.noise, cfg.imu_rate, cfg.seed)
    gt_rows = _gt_rows(spec)
    meta = {
        "mode": cfg.mode,
        "fps": repr(cfg.fps),
        "imu_rate": repr(cfg.imu_rate),
        "duration": repr(spec.duration),
        "seed": str(cfg.seed),
        "n_frames": str(int(round(spec.duration * cfg.fps))),
        "peak_angular_rate": f"{peak_angular_rate(spec):.6f}",
        "path_length": f"{path_length(spec):.6f}",
        "gravity": repr(cfg.noise.gravity),
        "gyro_noise": repr(cfg.noise.gyro_noise),
        "accel_noise": repr(cfg.noise.accel_noise),
        "gyro_walk": repr(cfg.noise.gyro_walk),
        "accel_walk": repr(cfg.noise.accel_walk),
    }
    calib = default_calibration()
    meta.update(_calib_meta(calib))
    return Dataset(cfg, calib, imu, gt_rows, meta)


def _calib_meta(calib: CameraCalibration) -> dict:
    e = calib.extrinsic
    return {
        "calib.fx": repr(float(calib.fx)),
        "calib.fy": repr(float(calib.fy)),
        "calib.cx": repr(float(calib.cx)),
        "calib.cy": repr(float(calib.cy)),
        "calib.distortion": ",".join(repr(float(v)) for v in calib.distortion),
        "calib.extrinsic_q": ",".join(repr(float(v)) for v in e.orientation.xyzw),
        "calib.extrinsic_p": ",".join(repr(float(v)) for v in e.position),
    }


def _calib_from_meta(meta: dict) -> CameraCalibration:
    q = np.array([float(v) for v in meta["calib.extrinsic_q"].split(",")])
    p = np.array([float(v) for v in meta["calib.extrinsic_p"].split(",")])
    return CameraCalibration(
        fx=float(meta["calib.fx"]),
        fy=float(meta["calib.fy"]),
        cx=float(meta["calib.cx"]),
        cy=float(meta["calib.cy"]),
        distortion=np.array([float(v) for v in meta["calib.distortion"].split(",")]),
        extrinsic=Pose(UnitQuaternion(q), p),
    )


def write_dataset(cfg: SimConfig, out_dir) -> Path:
    """Materialize a dataset on disk: gt.csv, imu.csv, frames/, meta.txt."""
    out = Path(out_dir)
    frames = out / "frames"
    frames.mkdir(parents=True, exist_ok=True)
    ds = build_dataset(cfg)

    dataio.write_imu_csv(ds.imu, out / "imu.csv")
    dataio.write_pose_csv(ds.gt, out / "gt.csv", extra_header=",vx,vy,vz")
    for t, payload in ds.iter_frames():
        stamp = f"{int(round(t * 1e6)):012d}"
        if cfg.mode == "ideal-binary":
            corners, edges = payload
            dataio.save_binary_map(corners, frames / f"{stamp}.corners.tcbm")
            dataio.save_binary_map(edges, frames / f"{stamp}.edges.tcbm")
        else:
            dataio.save_gray_frame(payload, frames / f"{stamp}.gray.bin")
    dataio.write_manifest(ds.meta, out / "meta.txt")
    return out


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not (path / "meta.txt").exists():
        raise dataio.DatasetCorrupt(f"no meta.txt under {path}")
    meta = dataio.read_manifest(path / "meta.txt")
    calib = _calib_from_meta(meta)
    imu = dataio.read_imu_csv(path / "imu.csv")
    gt = np.loadtxt(path / "gt.csv", delimiter=",", skiprows=1, ndmin=2)
    return Dataset(None, calib, imu, gt, meta, frame_dir=path / "frames")


# Trajectory presets.  Amplitudes are tuned so the "hostile" family matches
# the fast hand-shaken regime: double-digit peak body rates with a ~25 m
# path, inside a 6 m room.

def _preset_trajectory(name: str, duration: float, seed: int) -> TrajectorySpec:
    if name == "static":
        return TrajectorySpec(duration=duration, seed=seed)
    if name == "gentle":
        # z-only rotation and z-only translation commute with the midpoint
        # integrator: gravity and lever terms stay on the rotation axis, so
        # truncation cancels over whole periods instead of rectifying
        return TrajectorySpec(
            pos_terms=((), (), ((0.4, 0.5, 0.0),)),
            rot_terms=((), (), ((0.6, 0.4, 0.0),)),
            duration=duration,
            seed=seed,
        )
    # cosine-style phases: every rate starts at zero, like a handheld rig
    # picking up from rest, so the tracker warms up its flow history before
    # the fast regime hits
    HALF_PI = 0.5 * np.pi
    if name == "hostile":
        return TrajectorySpec(
            pos_terms=(
                ((0.35, 0.8, -HALF_PI),),
                ((0.30, 0.65, -HALF_PI + 1.1),),
                ((0.25, 0.5, -HALF_PI + 2.3),),
            ),
            rot_terms=(
                ((0.42, 2.1, -HALF_PI),),
                ((0.38, 1.7, -HALF_PI),),
                ((0.45, 2.3, -HALF_PI),),
            ),
            duration=duration,
            seed=seed,
        )
    if name == "hostile-rot":
        return TrajectorySpec(
            pos_terms=(
                ((0.28, 0.8, -HALF_PI),),
                ((0.24, 0.65, -HALF_PI + 1.1),),
                ((0.20, 0.5, -HALF_PI + 2.3),),
            ),
            rot_terms=(
                ((0.61, 2.1, -HALF_PI),),
                ((0.55, 1.7, -HALF_PI),),
                ((0.66, 2.3, -HALF_PI),),
            ),
            duration=duration,
            seed=seed,
        )
    if name == "low-texture":
        return TrajectorySpec(
            pos_terms=(
                ((0.3, 0.5, 0.0),),
                ((0.25, 0.4, 1.2),),
                ((0.15, 0.3, 2.1),),
            ),
            rot_terms=(
                ((0.15, 0.7, 0.4),),
                ((0.12, 0.6, 1.3),),
                ((1.3, 0.35, 0.0),),
            ),
            duration=duration,
            seed=seed,
        )
    raise InvalidSpec(f"unknown preset {name!r}")


PRESET_DURATIONS = {
    "static": 10.0,
    "gentle": 10.0,
    "hostile": 12.0,
    "hostile-rot": 20.0,
    "low-texture": 15.0,
}


def preset_config(name: str, seed: int = 0, duration: float | None = None, **overrides) -> SimConfig:
    if name not in PRESET_DURATIONS:
        raise InvalidSpec(f"unknown preset {name!r}; have {sorted(PRESET_DURATIONS)}")
    duration = PRESET_DURATIONS[name] if duration is None else duration
    cfg = SimConfig(trajectory=_preset_trajectory(name, duration, seed), seed=seed)
    if name == "low-texture":
        cfg = replace(cfg, poor_sector=(0.0, 60.0), poor_density=0.05)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
