"""End-to-end pipeline: dataset frames in, pose stream out.

Per frame: obtain binary maps (directly, or through the emulator for
grayscale datasets), feather the edges into a (256, 256) uint8 map, advance
the KLT track table, then run one filter cycle fed with the (M, 7) rows of
the IMU stream that cover the frame interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import io as dataio
from .config import PipelineConfig
from .emulator import GrayFrame, detect_corners, detect_edges, inject_analog_noise
from .evaluate import TrajectorySeries
from .geometry import UnitQuaternion
from .imu import NavState, NoiseParams, TimestampGap
from .msckf import FilterState, process_frame
from .simgen import Dataset
from .tracker import (
    FeatureSource,
    TrackTable,
    binary_to_intensity,
    corners_from_points,
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
        UnitQuaternion(row[4:8]),
        row[1:4].copy(),
        row[8:11].copy() if dataset.gt.shape[1] >= 11 else np.zeros(3),
    )
    return FilterState(nav, dataset.calib, config.filter)


def dataset_noise_params(dataset: Dataset, config: PipelineConfig) -> NoiseParams:
    if config.noise.from_manifest and "gyro_noise" in dataset.meta:
        m = dataset.meta
        return NoiseParams(
            float(m["gyro_noise"]), float(m["accel_noise"]),
            float(m["gyro_walk"]), float(m["accel_walk"]), float(m["gravity"]),
        )
    return config.noise


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
    table = TrackTable()

    prev_feather = None
    prev_t = 0.0
    pose_rows = []
    diag_rows = []
    started = time.perf_counter()

    for k, (t, payload) in enumerate(dataset.iter_frames()):
        if isinstance(payload, GrayFrame):
            edges = detect_edges(payload, config.emulator.edge_threshold)
            corners = detect_corners(
                payload, config.emulator.fast_threshold, tracker_cfg.n_points
            )
        else:
            corners, edges = payload
        if config.emulator.noise_flip_rate > 0.0:
            base = config.run.seed * 1_000_003 + k * 2
            corners = inject_analog_noise(corners, config.emulator.noise_flip_rate, base)
            edges = inject_analog_noise(edges, config.emulator.noise_flip_rate, base + 1)

        if tracker_cfg.feathering_enabled:
            feathered = feather(edges, tracker_cfg.sigma_e)
        else:
            feathered = binary_to_intensity(edges)

        if tracker_cfg.feature_source is FeatureSource.SHI_TOMASI_ON_EDGES:
            pts = shi_tomasi_on_edges(feathered, tracker_cfg.n_points)
            corners = corners_from_points(pts, t)

        died = track_frame(table, prev_feather, feathered, corners, tracker_cfg, k)

        segment = slicer.slice(prev_t, t) if k > 0 else []
        result = process_frame(state, table, died, segment, noise, k, t)

        pose_rows.append(
            [t, *result.position, *result.orientation.xyzw]
        )
        diag_rows.append(
            [t, result.trace, result.pos_sigma, result.rot_sigma,
             result.live_tracks, result.slam_count, result.msckf_used]
        )
        prev_feather = feathered
        prev_t = t

    elapsed = time.perf_counter() - started
    pose_rows = np.array(pose_rows)
    diag_rows = np.array(diag_rows)

    if pose_path is not None:
        dataio.write_pose_csv(pose_rows, pose_path)
    if diagnostics_path is not None:
        with open(diagnostics_path, "w") as f:
            f.write("t,trace,pos_sigma,rot_sigma,live_tracks,slam_in_state,msckf_used\n")
            for row in diag_rows:
                f.write(
                    f"{row[0]:.9f},{row[1]:.9f},{row[2]:.9f},{row[3]:.9f},"
                    f"{int(row[4])},{int(row[5])},{int(row[6])}\n"
                )
    if tracks_path is not None:
        dump_tracks_csv(table, state.slam, tracks_path)

    return PipelineResult(pose_rows, diag_rows, elapsed)
