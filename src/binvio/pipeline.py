"""End-to-end pipeline: dataset frames in, pose stream out, in two stages.

The sensor stage (``sensor_frames``) does everything a frame needs before
tracking: it obtains the binary maps (directly, or through the emulator for
grayscale datasets), feathers the edges into a (256, 256) uint8 map, and for
the Shi-Tomasi ablation picks the corners from that map.  The host stage
advances the KLT track table and runs one filter cycle fed with the (M, 7)
rows of the IMU stream that cover the frame interval.

The sensor stage runs in a worker thread, as the focal-plane array runs
beside the host: while the host tracks and filters frame k, the worker
works on frame k + 1.  The thread is a one-worker ``ThreadPoolExecutor``
with one pending future, which asks the dataset for frame k + 1 when the
host takes frame k, so no frame past k + 1 has been requested.  An error
of the sensor stage reaches the caller after the frames before it, with its
own type, and leaving the executor joins the worker before ``run_pipeline``
returns or raises.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import io as dataio
from .config import PipelineConfig
from .emulator import (
    MAP_SIZE, BinaryMap, GrayFrame, MapKind, detect_corners, detect_edges, inject_analog_noise,
)
from .evaluate import TrajectorySeries
from .geometry import quat_normalize
from .imu import NavState, NoiseParams, TimestampGap
from .msckf import FilterState, process_frame
from .simgen import Dataset
from .tracker import (
    FeatureSource,
    TrackTable,
    binary_to_intensity,
    dump_tracks_csv,
    feather,
    shi_tomasi_on_edges,
    track_frame,
)


@dataclass
class PipelineResult:
    pose_rows: np.ndarray
    diagnostics: np.ndarray        # t, trace, pos_sigma, rot_sigma, live, slam, msckf
    elapsed_seconds: float

    def trajectory(self) -> TrajectorySeries:
        return TrajectorySeries.from_rows(self.pose_rows)

    def mean_live_tracks(self) -> float:
        return float(self.diagnostics[:, 4].mean())


class _ImuSlicer:
    """Serves interpolated-boundary slices of the (N, 7) IMU stream per frame interval.

    Rows are ``t, wx, wy, wz, ax, ay, az``.  The stream must be finite with
    strictly increasing times, and its nominal period is its median sample
    spacing; a gap of more than three periods raises TimestampGap.  All are
    checked here, once for the whole stream.
    """

    def __init__(self, samples: np.ndarray):
        if len(samples) < 2:
            raise ValueError("need at least two IMU samples")
        self.samples = samples
        self.times = samples[:, 0]
        gaps = np.diff(self.times)
        if not (np.isfinite(samples).all() and (gaps > 0).all()):
            raise ValueError("IMU samples must be finite with strictly increasing times")
        worst = int(np.argmax(gaps))
        if gaps[worst] > 3.0 * float(np.median(gaps)):
            raise TimestampGap(
                f"gap {gaps[worst] * 1e3:.2f} ms at t={self.times[worst]:.6f} s exceeds "
                f"3x the median spacing {np.median(gaps) * 1e3:.2f} ms"
            )

    def _interp(self, t: float) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.times, t) - 1, 0, len(self.samples) - 2))
        s0, s1 = self.samples[i], self.samples[i + 1]
        a = (t - s0[0]) / (s1[0] - s0[0])
        a = float(np.clip(a, 0.0, 1.0))
        return np.concatenate([[t], (1 - a) * s0[1:] + a * s1[1:]])

    def slice(self, t0: float, t1: float) -> np.ndarray:
        """Rows (M, 7): samples at ``t0`` and ``t1`` interpolated, with the stream's between."""
        if t1 <= t0:
            return self.samples[:0]
        lo = int(np.searchsorted(self.times, t0, side="right"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        return np.vstack([self._interp(t0), self.samples[lo:hi], self._interp(t1)])


def initial_state_from_gt(dataset: Dataset, config: PipelineConfig) -> FilterState:
    row = dataset.gt[0]
    nav = NavState(
        quat_normalize(row[4:8]),
        row[1:4].copy(),
        row[8:11].copy() if dataset.gt.shape[1] >= 11 else np.zeros(3),
    )
    return FilterState(nav, dataset.calib, config.filter)


def dataset_noise_params(dataset: Dataset, config: PipelineConfig) -> NoiseParams:
    if config.noise.from_manifest and dataset.noise is not None:
        return dataset.noise
    return config.noise


def sensor_frames(dataset: Dataset, config: PipelineConfig):
    """Yield (t, corner map, feathered (256, 256) uint8 map) per frame, in order."""
    emulator_cfg, tracker_cfg = config.emulator, config.tracker
    planes = np.empty((2, MAP_SIZE, MAP_SIZE))  # feather's float64 passes, kept for the run
    for k, (t, payload) in enumerate(dataset.iter_frames()):
        if isinstance(payload, GrayFrame):
            edges = detect_edges(payload, emulator_cfg.edge_threshold)
            corners = detect_corners(
                payload, emulator_cfg.fast_threshold, tracker_cfg.n_points
            )
        else:
            corners, edges = payload
        if emulator_cfg.noise_flip_rate > 0.0:
            base = config.run.seed * 1_000_003 + k * 2
            corners = inject_analog_noise(corners, emulator_cfg.noise_flip_rate, base)
            edges = inject_analog_noise(edges, emulator_cfg.noise_flip_rate, base + 1)

        if tracker_cfg.feathering_enabled:
            feathered = feather(edges, tracker_cfg.sigma_e, planes)
        else:
            feathered = binary_to_intensity(edges)

        if tracker_cfg.feature_source is FeatureSource.SHI_TOMASI_ON_EDGES:
            pts = shi_tomasi_on_edges(feathered, tracker_cfg.n_points)
            corners = BinaryMap.from_points(pts, MapKind.CORNER, t)
        yield t, corners, feathered


def run_pipeline(
    dataset: Dataset,
    config: PipelineConfig | None = None,
    pose_path=None,
    diagnostics_path=None,
    tracks_path=None,
) -> PipelineResult:
    config = config if config is not None else PipelineConfig()
    tracker_cfg = config.tracker
    noise = dataset_noise_params(dataset, config)

    state = initial_state_from_gt(dataset, config)
    slicer = _ImuSlicer(dataset.imu)
    # a row keeps an update's worth of observations: the clones plus the frame being cloned
    table = TrackTable(config.filter.max_clones + 1, history=tracks_path is not None)

    prev_feather = None
    prev_t = 0.0
    pose_rows = []
    diag_rows = []
    started = time.perf_counter()

    frames = sensor_frames(dataset, config)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="binvio-sensor") as sensor:
        ahead = sensor.submit(next, frames, None)
        k = 0
        while (frame := ahead.result()) is not None:
            # frame k + 1, made while the host works on frame k
            ahead = sensor.submit(next, frames, None)
            t, corners, feathered = frame
            died = track_frame(table, prev_feather, feathered, corners, tracker_cfg, k)

            segment = slicer.slice(prev_t, t) if k > 0 else []
            result = process_frame(state, table, died, segment, noise, k, t)

            pose_rows.append(
                [t, *result.position, *result.orientation]
            )
            diag_rows.append(
                [t, result.trace, result.pos_sigma, result.rot_sigma,
                 result.live_tracks, result.slam_count, result.msckf_used]
            )
            prev_feather = feathered
            prev_t = t
            k += 1

    elapsed = time.perf_counter() - started
    pose_rows = np.array(pose_rows)
    diag_rows = np.array(diag_rows)

    if pose_path is not None:
        dataio.write_pose_csv(pose_rows, pose_path)
    if diagnostics_path is not None:
        np.savetxt(diagnostics_path, diag_rows, fmt=["%.9f"] * 4 + ["%d"] * 3, delimiter=",",
                   header="t,trace,pos_sigma,rot_sigma,live_tracks,slam_in_state,msckf_used",
                   comments="")
    if tracks_path is not None:
        dump_tracks_csv(table, state.slam, tracks_path)

    return PipelineResult(pose_rows, diag_rows, elapsed)
