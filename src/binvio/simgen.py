"""Synthetic data factory: trajectories, world model, IMU and frame rendering.

Trajectories are sums of per-axis sinusoids for position and for a
rotation vector; every derived quantity (velocity, acceleration, body
angular rate) is evaluated analytically, for all sample times of a stream
in one :func:`sample_ground_truth` call.  The world is a room shell whose
walls carry jittered line grids: line crossings are the corner landmarks,
so every corner is backed by local edge structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .emulator import MAP_SIZE, BinaryMap, GrayFrame, MapKind
from .geometry import (
    RENDER_MIN_DEPTH,
    CameraCalibration,
    project_batch,
    quat_from_axis_angle,
    quat_normalize,
    quat_to_matrix,
    so3_right_jacobian,
)
from .imu import NoiseParams
from . import io as dataio

TWO_PI = 2.0 * np.pi
RENDER_MODES = ("ideal-binary", "grayscale")


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

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise InvalidSpec(f"duration must be positive and finite, got {self.duration}")
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
    """The trajectory at one time, (4,) and (3,) fields, or at n times, (n, 4) and (n, 3)."""

    orientation: np.ndarray    # xyzw, maps G into the IMU frame
    position: np.ndarray       # m in G
    velocity: np.ndarray       # m/s in G
    angular_rate: np.ndarray   # rad/s in the IMU frame
    acceleration: np.ndarray   # m/s^2 in G


def sample_ground_truth(spec: TrajectorySpec, t) -> GroundTruth:
    """Exact pose/velocity/rate/acceleration at time ``t``, a scalar or an array of times."""
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t <= spec.duration + 1e-9)).all():
        raise ValueError("t outside trajectory duration")
    p, v, a = _eval_vec(spec.pos_terms, t)
    phi, dphi, _ = _eval_vec(spec.rot_terms, t)
    # phi rotates the body into G: exp(-[phi]x) = R(quat_from_axis_angle(phi)) maps G into it
    omega_body = (so3_right_jacobian(phi) @ dphi[..., None])[..., 0]
    return GroundTruth(quat_from_axis_angle(phi), p, v, omega_body, a)


def peak_angular_rate(spec: TrajectorySpec, samples_per_second: int = 2000) -> float:
    """Max body-rate norm, from dense evaluation of the analytic rate."""
    t = np.linspace(0.0, spec.duration, int(spec.duration * samples_per_second) + 1)
    return float(np.linalg.norm(sample_ground_truth(spec, t).angular_rate, axis=1).max())


def path_length(spec: TrajectorySpec, samples_per_second: int = 2000) -> float:
    t = np.linspace(0.0, spec.duration, int(spec.duration * samples_per_second) + 1)
    _, v, _ = _eval_vec(spec.pos_terms, t)
    speed = np.linalg.norm(v, axis=1)
    return float(np.trapezoid(speed, t))


def _grid_steps(duration: float, rate_hz: float) -> int:
    """Steps of the grid from t = 0 at ``rate_hz`` whose last sample is at or before ``duration``.

    1e-6 of a step is forgiven, so that a duration on the grid keeps its last
    sample when the product rounds just below an integer.
    """
    return math.floor(duration * rate_hz + 1e-6)


def synthesize_imu(
    spec: TrajectorySpec,
    noise: NoiseParams,
    rate_hz: float,
    seed: int,
) -> np.ndarray:
    """Forward IMU model sampled on the uniform grid, seeded and repeatable.

    Returns (N, 7) rows ``t, wx, wy, wz, ax, ay, az``, as ``imu.csv`` stores them.
    """
    if rate_hz <= 0:
        raise ValueError("rate must be positive")
    n = _grid_steps(spec.duration, rate_hz)
    ts = np.arange(n + 1) / rate_hz
    gt = sample_ground_truth(spec, ts)
    # specific force in the IMU frame, R(q) (a - g)
    g_vec = noise.gravity_vector()
    force = np.einsum("nij,nj->ni", quat_to_matrix(gt.orientation), gt.acceleration - g_vec)

    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    white_g = rng.normal(size=(n + 1, 3)) * noise.gyro_noise * np.sqrt(rate_hz)
    white_a = rng.normal(size=(n + 1, 3)) * noise.accel_noise * np.sqrt(rate_hz)
    walk_g = np.cumsum(rng.normal(size=(n + 1, 3)) * noise.gyro_walk * np.sqrt(dt), axis=0)
    walk_a = np.cumsum(rng.normal(size=(n + 1, 3)) * noise.accel_walk * np.sqrt(dt), axis=0)

    return np.column_stack(
        [ts, gt.angular_rate + walk_g + white_g, force + walk_a + white_a]
    )


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


def _line_crossings(lines: np.ndarray) -> np.ndarray:
    """Intersections (K, 2) of the segment pairs i < j of (L, 2, 2), in row-major pair order."""
    i, j = np.triu_indices(len(lines), 1)
    (x1, y1), (x2, y2) = lines[i, 0].T, lines[i, 1].T
    (x3, y3), (x4, y4) = lines[j, 0].T, lines[j, 1].T
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    ok = np.abs(den) >= 1e-12
    den = np.where(ok, den, 1.0)
    s = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    u = ((x1 - x3) * (y1 - y2) - (y1 - y3) * (x1 - x2)) / den
    ok &= (0.02 <= s) & (s <= 0.98) & (0.02 <= u) & (u <= 0.98)
    s = s[ok]
    return np.column_stack([x1[ok] + s * (x2[ok] - x1[ok]), y1[ok] + s * (y2[ok] - y1[ok])])


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
        lines = np.array(_face_lines(rng, u_half, v_half, budget))
        segments.append(origin + lines[..., :1] * u_dir + lines[..., 1:] * v_dir)
        uv = _line_crossings(lines)
        landmarks.append(origin + uv[:, :1] * u_dir + uv[:, 1:] * v_dir)

    segments = np.concatenate(segments)
    landmarks = np.concatenate(landmarks)

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

    # spread-preserving subsample: keep each candidate not within the spacing of a kept one
    order = rng.permutation(len(landmarks))
    chosen = np.empty_like(landmarks)  # the points kept so far, in order
    kept = []
    for idx, p in zip(order, landmarks[order]):
        d = chosen[:len(kept)] - p
        if not ((d * d).sum(axis=1) < min_landmark_spacing**2).any():
            chosen[len(kept)] = p
            kept.append(idx)
            if len(kept) >= n_landmarks:
                break
    landmarks = landmarks[np.sort(np.array(kept, dtype=int))]
    return WorldModel(landmarks=landmarks, segments=segments)


MIN_SEGMENT_SAMPLES = 16
MAX_SEGMENT_SAMPLES = 512
SAMPLES_PER_PIXEL = 2
DEPTH_MARGIN = 1e-6  # m; the cull's allowance for rounding in a sample's depth


def _segment_samples(segments: np.ndarray, cam_pose, calib: CameraCalibration):
    """Sample each segment densely enough to cover every crossed pixel, skipping what lies behind.

    Depth is affine along a segment, so of its ``counts`` samples at ``frac = i / (counts - 1)``
    those that can pass :func:`project_batch`'s depth test form one interval of ``i``.  Its ends
    come from the endpoint depths, with ``DEPTH_MARGIN`` for rounding and widened to whole indices,
    so every dropped sample would fail the test; the kept ones keep their bits and order.
    """
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
    z0, z1 = ((segments - cam_pose[1]) @ cam_pose[0][2]).T
    floor_z = RENDER_MIN_DEPTH - DEPTH_MARGIN
    last = counts - 1
    with np.errstate(all="ignore"):
        cut = (floor_z - z0) / (z1 - z0) * last  # index where the depth crosses floor_z
    lo = np.where(z1 > z0, np.clip(np.floor(cut), 0, last), 0).astype(int)
    hi = np.where(z1 < z0, np.clip(np.ceil(cut), 0, last), last).astype(int)
    kept = np.where((z0 > floor_z) | (z1 > floor_z), hi - lo + 1, 0)
    seg_idx = np.repeat(np.arange(len(segments)), kept)
    starts = np.concatenate([[0], np.cumsum(kept)[:-1]])
    frac = (np.arange(kept.sum()) - starts[seg_idx] + lo[seg_idx]) / last[seg_idx]
    p0 = segments[seg_idx, 0]
    p1 = segments[seg_idx, 1]
    return p0 + frac[:, None] * (p1 - p0)


def render_frame(
    world: WorldModel,
    cam_pose: tuple[np.ndarray, np.ndarray],
    calib: CameraCalibration,
    mode: str = "ideal-binary",
    timestamp: float = 0.0,
):
    """Render binary maps or an anti-aliased grayscale frame seen from ``cam_pose`` (R, centre).

    ``ideal-binary`` returns ``(corner_map, edge_map)`` exactly as the
    sensor front end would emit them; ``grayscale`` returns a GrayFrame of
    white wireframe on black for the emulator path.
    """
    if mode not in RENDER_MODES:
        raise InvalidSpec(f"unknown render mode {mode!r}")

    seg_pts = _segment_samples(world.segments, cam_pose, calib)
    seg_px, seg_ok = project_batch(seg_pts, cam_pose, calib)

    if mode == "ideal-binary":
        lm_px, lm_ok = project_batch(world.landmarks, cam_pose, calib)
        return (
            BinaryMap.from_points(lm_px[lm_ok], MapKind.CORNER, timestamp),
            BinaryMap.from_points(seg_px[seg_ok], MapKind.EDGE, timestamp),
        )

    pts = seg_px[seg_ok]
    pts = pts[((pts >= 0) & (pts < MAP_SIZE - 1)).all(axis=1)]
    base = np.floor(pts)
    (x0, y0), (wx, wy) = base.astype(int).T, (pts - base).T
    # bilinear splat, corner by corner: each pixel sums its weights in this order
    at = y0 * MAP_SIZE + x0
    img = np.bincount(
        np.concatenate([at, at + 1, at + MAP_SIZE, at + MAP_SIZE + 1]),
        np.concatenate([(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy]),
        minlength=MAP_SIZE * MAP_SIZE,
    ).reshape(MAP_SIZE, MAP_SIZE)
    img = np.clip(img * 255.0, 0, 255).astype(np.uint8)
    return GrayFrame(img, timestamp)


def default_calibration() -> CameraCalibration:
    """Wide-angle camera looking along +x of the IMU/global frame."""
    # camera axes: z_C = +x_G, x_C = -y_G, y_C = -z_G at identity attitude, so
    # R(extrinsic_q) = [[0, -1, 0], [0, 0, -1], [1, 0, 0]]
    return CameraCalibration(
        fx=128.0, fy=128.0, cx=128.0, cy=128.0,
        distortion=np.array([-0.05, 0.01, 0.0005, -0.0003]),
        extrinsic_q=np.array([-0.5, 0.5, -0.5, 0.5]),
        extrinsic_p=np.array([0.02, 0.0, 0.0]),
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

    def __post_init__(self):
        duration = self.trajectory.duration
        if self.n_frames() < 1:
            raise InvalidSpec(f"duration {duration} s holds no frame at {self.fps} fps")
        if _grid_steps(duration, self.imu_rate) < 1:
            raise InvalidSpec(f"duration {duration} s holds fewer than two IMU samples "
                              f"at {self.imu_rate} Hz")

    def n_frames(self) -> int:
        return int(round(self.trajectory.duration * self.fps))

    def world(self) -> WorldModel:
        return make_room_world(
            seed=self.seed,
            n_landmarks=self.n_landmarks,
            n_segments=self.n_segments,
            poor_sector=self.poor_sector,
            poor_density=self.poor_density,
        )


def camera_pose_at(gt: GroundTruth, calib: CameraCalibration):
    """Camera pose(s) (R, centre) in G of the IMU ground truth at one time or many."""
    return calib.camera_pose(gt.orientation, gt.position)


class Dataset:
    """Unified view over an in-memory or on-disk dataset; ``imu`` is its (N, 7) IMU stream."""

    def __init__(self, config: SimConfig | None, calib, noise, imu, gt_rows, meta, frame_dir=None):
        self.config = config
        self.calib = calib
        self.noise = noise  # the IMU noise the manifest states, None where it states none
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
        times = np.arange(self.n_frames()) / self.fps
        Rs, centres = camera_pose_at(sample_ground_truth(self.config.trajectory, times), self.calib)
        for t, R, centre in zip(times.tolist(), Rs, centres):
            yield t, render_frame(self._world, (R, centre), self.calib, self.mode, t)


def _gt_rows(spec: TrajectorySpec, rate_hz: float = 1000.0) -> np.ndarray:
    ts = np.arange(_grid_steps(spec.duration, rate_hz) + 1) / rate_hz
    gt = sample_ground_truth(spec, ts)
    return np.column_stack([ts, gt.position, gt.orientation, gt.velocity])


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
        "n_frames": str(cfg.n_frames()),
        "peak_angular_rate": f"{peak_angular_rate(spec):.6f}",
        "path_length": f"{path_length(spec):.6f}",
        **{key: repr(getattr(cfg.noise, key)) for key in NOISE_KEYS},
    }
    calib = default_calibration()
    meta.update(_calib_meta(calib))
    return Dataset(cfg, calib, cfg.noise, imu, gt_rows, meta)


def _calib_meta(calib: CameraCalibration) -> dict:
    meta = {f"calib.{key}": repr(float(getattr(calib, key))) for key in ("fx", "fy", "cx", "cy")}
    for key in ("distortion", "extrinsic_q", "extrinsic_p"):
        meta[f"calib.{key}"] = ",".join(repr(float(v)) for v in getattr(calib, key))
    return meta


def _calib_from_meta(meta: dict) -> CameraCalibration:
    """The manifest's camera; DatasetCorrupt unless every value is finite and fits a camera."""
    def values(key: str, n: int) -> np.ndarray:
        v = np.array([float(s) for s in meta[f"calib.{key}"].split(",")])
        if v.shape != (n,) or not np.isfinite(v).all():
            raise ValueError(f"calib.{key} must be {n} finite values, got {meta[f'calib.{key}']!r}")
        return v

    try:
        fx, fy, cx, cy = (float(values(key, 1)[0]) for key in ("fx", "fy", "cx", "cy"))
        return CameraCalibration(
            fx=fx, fy=fy, cx=cx, cy=cy,
            distortion=values("distortion", 4),
            extrinsic_q=quat_normalize(values("extrinsic_q", 4)),
            extrinsic_p=values("extrinsic_p", 3),
        )
    except (KeyError, ValueError) as e:
        raise dataio.DatasetCorrupt(f"bad camera calibration in meta.txt: {e}") from None


NOISE_KEYS = ("gravity", "gyro_noise", "accel_noise", "gyro_walk", "accel_walk")


def _noise_from_meta(meta: dict) -> NoiseParams | None:
    """The manifest's IMU noise, None if it has none; DatasetCorrupt unless all five are valid."""
    if not any(key in meta for key in NOISE_KEYS):
        return None
    values = {}
    for key in NOISE_KEYS:
        try:
            values[key] = float(meta[key])
        except (KeyError, ValueError):
            raise dataio.DatasetCorrupt(f"bad {key} in meta.txt: {meta.get(key)!r}") from None
    try:
        return NoiseParams(**values)
    except ValueError as e:  # its message names the key
        raise dataio.DatasetCorrupt(f"bad IMU noise in meta.txt: {e}") from None


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
    for key, valid in (("n_frames", lambda v: int(v) > 0),
                       ("fps", lambda v: 0 < float(v) < math.inf),
                       ("mode", lambda v: v in RENDER_MODES)):
        try:
            good = valid(meta[key])
        except (KeyError, ValueError):
            good = False
        if not good:
            raise dataio.DatasetCorrupt(f"bad {key} in meta.txt: {meta.get(key)!r}")
    calib = _calib_from_meta(meta)
    noise = _noise_from_meta(meta)
    imu = dataio.read_imu_csv(path / "imu.csv")
    gt = dataio.read_pose_csv(path / "gt.csv")
    if not np.isfinite(gt).all():
        raise dataio.DatasetCorrupt(f"{path / 'gt.csv'} holds a value that is not finite")
    return Dataset(None, calib, noise, imu, gt, meta, frame_dir=path / "frames")


# Trajectory presets.  Amplitudes are tuned so the "hostile" family matches
# the fast hand-shaken regime: double-digit peak body rates with a ~25 m
# path, inside a 6 m room.

def _preset_trajectory(name: str, duration: float) -> TrajectorySpec:
    if name == "static":
        return TrajectorySpec(duration=duration)
    if name == "gentle":
        # z-only rotation and z-only translation commute with the midpoint
        # integrator: gravity and lever terms stay on the rotation axis, so
        # truncation cancels over whole periods instead of rectifying
        return TrajectorySpec(
            pos_terms=((), (), ((0.4, 0.5, 0.0),)),
            rot_terms=((), (), ((0.6, 0.4, 0.0),)),
            duration=duration,
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
    if name == "low-texture":
        overrides = {"poor_sector": (0.0, 60.0), "poor_density": 0.05, **overrides}
    # one construction, so that the sampling checks see the overridden rates
    return SimConfig(trajectory=_preset_trajectory(name, duration), seed=seed, **overrides)
