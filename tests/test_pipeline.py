import hashlib
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from binvio import msckf, pipeline, tracker
from binvio import simgen as sg
from binvio.config import PipelineConfig
from binvio.evaluate import TrajectorySeries, associate, compute_ate_rte, write_series_csv
from binvio.imu import NoiseParams
from binvio.cli import main
from binvio.io import DatasetCorrupt
from binvio.pipeline import run_pipeline
from binvio.tracker import FeatureSource


def noise_free(cfg: sg.SimConfig) -> sg.SimConfig:
    from dataclasses import replace

    return replace(cfg, noise=NoiseParams(0.0, 0.0, 0.0, 0.0, 9.81))


class TestStationary:
    def test_zero_motion_500_frames_stays_at_origin(self, monkeypatch):
        # at rest no track has parallax: the screen keeps every doomed
        # triangulation from running
        baseline_failures = []
        triangulate = msckf.triangulate

        def counting_triangulate(*args, **kwargs):
            try:
                return triangulate(*args, **kwargs)
            except msckf.InsufficientBaseline as e:
                baseline_failures.append(str(e))
                raise

        monkeypatch.setattr(msckf, "triangulate", counting_triangulate)
        ds = sg.build_dataset(noise_free(sg.preset_config("static", duration=2.0)))
        res = run_pipeline(ds)
        assert len(res.pose_rows) == 500
        assert np.abs(res.pose_rows[:, 1:4]).max() < 1e-3
        assert baseline_failures == []


class TestDeadReckoning:
    def test_no_tracks_pure_propagation(self):
        # a world with no features: the filter must emit IMU-only poses
        cfg = noise_free(sg.preset_config("gentle", duration=1.0))
        ds = sg.build_dataset(cfg)
        empty_world = sg.WorldModel(np.zeros((0, 3)), np.zeros((0, 2, 3)))
        ds._world = empty_world
        res = run_pipeline(ds)
        assert res.mean_live_tracks() == 0.0
        assert res.diagnostics[:, 5].max() == 0  # nothing ever in state
        # noise-free gentle preset integrates cleanly: matches ground truth
        gt = ds.gt
        idx = np.clip(np.searchsorted(gt[:, 0], res.pose_rows[:, 0]), 0, len(gt) - 1)
        err = np.linalg.norm(res.pose_rows[:, 1:4] - gt[idx, 1:4], axis=1)
        assert err.max() < 1e-3


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def hostile_run(self):
        """The run, and ||N^T H_f|| of every track's rows the filter built in it."""
        ds = sg.build_dataset(sg.preset_config("hostile", duration=2.0, seed=1))
        residuals = []
        original = msckf._track_rows

        def track_rows(state, windows, points, cam_poses):
            built = original(state, windows, points, cam_poses)
            for rows, window, point in zip(built, windows, points):
                if rows is not None:
                    _, H_f, *_ = msckf._observation_jacobians(state, window[0], point, cam_poses)
                    residuals.append(float(np.linalg.norm(rows.Q[:, 3:].T @ H_f.reshape(-1, 3))))
            return built

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(msckf, "_track_rows", track_rows)
            res = run_pipeline(ds)
        return ds, res, residuals

    def test_tracks_and_updates_flow(self, hostile_run):
        ds, res, residuals = hostile_run
        assert res.mean_live_tracks() > 50
        assert res.diagnostics[:, 5].max() > 10      # landmarks promoted
        assert res.diagnostics[:, 6].sum() > 0       # MSCKF updates ran
        assert res.diagnostics[:, 6].max() <= 60
        assert residuals and max(residuals) < 1e-9

    def test_closed_loop_accuracy(self, hostile_run):
        ds, res, _ = hostile_run
        gt = TrajectorySeries.from_rows(ds.gt)
        rep = compute_ate_rte(associate(res.trajectory(), gt, 0.002), rte_delta=250)
        assert rep.ate_rmse < 0.15

    def test_in_state_budget_in_diagnostics(self, hostile_run):
        _, res, _ = hostile_run
        assert res.diagnostics[:, 5].max() <= 30

    def test_dimension_bookkeeping_held(self, hostile_run):
        # process_frame asserts internally; reaching here means it held
        _, res, _ = hostile_run
        assert len(res.pose_rows) == 500


class TestCovarianceHealth:
    def test_covariance_positive_semidefinite_every_frame(self, monkeypatch):
        ds = sg.build_dataset(sg.preset_config("hostile", duration=0.2, seed=1))
        min_eigenvalues = []
        symmetric = []
        original = pipeline.process_frame

        def process_frame(state, *args):
            result = original(state, *args)
            min_eigenvalues.append(float(np.linalg.eigvalsh(state.cov).min()))
            symmetric.append(np.array_equal(state.cov, state.cov.T))
            return result

        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        res = run_pipeline(ds)
        assert len(min_eigenvalues) == len(res.pose_rows) == 50
        assert min(min_eigenvalues) >= -1e-9
        # propagation symmetrizes only the navigation block: the rest stays exactly symmetric
        assert all(symmetric)
        assert res.diagnostics[:, 5].max() > 0  # landmarks entered the state


GOLDEN = Path(__file__).resolve().parent / "data"


def assert_matches_golden(got: np.ndarray, name: str) -> None:
    want = np.loadtxt(GOLDEN / name, delimiter=",", skiprows=1)
    assert got.shape == want.shape == (50, 8)
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:4], want[:, 1:4], rtol=0, atol=1e-9)
    np.testing.assert_allclose(got[:, 4:8], want[:, 4:8], rtol=0, atol=1e-9)


class TestGoldenPoses:
    """Poses of 0.2 s runs against the files they were written to.

    A change that only reorders arithmetic moves poses by rounding, far below
    these bounds; a change that moves poses on purpose rewrites the file with
    ``%.17g``, which round-trips float64 exactly.
    """

    def test_hostile_poses_match_the_pinned_file(self):
        """Hostile preset, seed 1, ideal binary maps rendered in memory."""
        got = run_pipeline(sg.build_dataset(sg.preset_config("hostile", duration=0.2, seed=1)))
        assert_matches_golden(got.pose_rows, "hostile_seed1_0.2s_poses.csv")

    def test_gentle_gray_on_disk_poses_match_the_pinned_file(self, tmp_path):
        """Gentle preset, seed 4, grayscale: through imu.csv, gray blobs, the emulator and feather."""
        from dataclasses import replace

        cfg = replace(sg.preset_config("gentle", duration=0.2, seed=4), mode="grayscale")
        got = run_pipeline(sg.load_dataset(sg.write_dataset(cfg, tmp_path / "ds")))
        assert_matches_golden(got.pose_rows, "gentle_gray_seed4_0.2s_poses.csv")


def csv_text(header: str, rows, n_float: int) -> str:
    """Reference text: ``n_float`` columns as ``f"{v:.9f}"``, then integers."""
    lines = [header]
    for row in rows:
        assert np.array_equal(row[n_float:], np.trunc(row[n_float:]))
        lines.append(",".join([f"{v:.9f}" for v in row[:n_float]]
                              + [f"{int(v)}" for v in row[n_float:]]))
    return "\n".join(lines) + "\n"


class TestCsvText:
    """The text of the per-frame tables, against a reference that formats each value."""

    def test_pose_diagnostics_and_series_text(self, tmp_path):
        ds = sg.build_dataset(sg.preset_config("hostile", duration=0.1, seed=1))
        pose, diag, series = tmp_path / "pose.csv", tmp_path / "diag.csv", tmp_path / "series.csv"
        res = run_pipeline(ds, pose_path=pose, diagnostics_path=diag)
        assert len(res.pose_rows) == 25
        assert pose.read_text() == csv_text("t,px,py,pz,qx,qy,qz,qw", res.pose_rows, 8)
        assert diag.read_text() == csv_text(
            "t,trace,pos_sigma,rot_sigma,live_tracks,slam_in_state,msckf_used", res.diagnostics, 4
        )

        report = compute_ate_rte(
            associate(res.trajectory(), TrajectorySeries.from_rows(ds.gt), 0.002), rte_delta=5
        )
        counts = res.diagnostics[:, 5]
        write_series_csv(report, series, counts)
        rows = np.column_stack([report.series_t, report.series_axis_error,
                                report.series_rotation_error, counts])
        assert series.read_text() == csv_text(
            "t,ex,ey,ez,rotation_error,in_state_count", rows, 5
        )


class TestLowRateImu:
    def test_100hz_imu_at_30fps_runs_every_frame(self):
        cfg = sg.preset_config("hostile", seed=1, duration=0.3, fps=30.0, imu_rate=100.0)
        res = run_pipeline(sg.build_dataset(cfg))
        assert len(res.pose_rows) == 9
        assert np.all(np.isfinite(res.pose_rows))


class TestAblationPaths:
    def test_feathering_off_runs_and_degrades_tracking(self):
        ds = sg.build_dataset(sg.preset_config("hostile", duration=1.0, seed=2))
        base_cfg = PipelineConfig()
        res_on = run_pipeline(ds, base_cfg)
        cfg_off = PipelineConfig()
        cfg_off.tracker.feathering_enabled = False
        res_off = run_pipeline(ds, cfg_off)
        assert res_off.mean_live_tracks() < res_on.mean_live_tracks()

    def test_shi_tomasi_source_runs(self):
        ds = sg.build_dataset(sg.preset_config("hostile", duration=0.5, seed=3))
        cfg = PipelineConfig()
        cfg.apply_override("tracker.feature_source", "shi-tomasi")
        assert cfg.tracker.feature_source is FeatureSource.SHI_TOMASI_ON_EDGES
        res = run_pipeline(ds, cfg)
        assert res.mean_live_tracks() > 10


class TestGrayscalePath:
    def test_emulator_pipeline_end_to_end(self):
        from dataclasses import replace

        cfg = replace(sg.preset_config("gentle", duration=0.4, seed=4), mode="grayscale")
        ds = sg.build_dataset(cfg)
        res = run_pipeline(ds)
        assert len(res.pose_rows) == 100
        assert res.mean_live_tracks() > 5
        # stays sane on a slow trajectory
        gt = ds.gt
        idx = np.clip(np.searchsorted(gt[:, 0], res.pose_rows[:, 0]), 0, len(gt) - 1)
        err = np.linalg.norm(res.pose_rows[:, 1:4] - gt[idx, 1:4], axis=1)
        assert err.max() < 0.5

    @pytest.mark.parametrize("mode", ["grayscale", "ideal-binary"])
    def test_analog_noise_injection_runs(self, mode):
        from dataclasses import replace

        cfg = replace(sg.preset_config("gentle", duration=0.2, seed=5), mode=mode)
        ds = sg.build_dataset(cfg)
        pc = PipelineConfig()
        pc.emulator.noise_flip_rate = 0.002
        res = run_pipeline(ds, pc)
        assert len(res.pose_rows) == 50


class TestSensorWorker:
    """The sensor stage runs one frame ahead in a thread that never outlives run_pipeline."""

    @pytest.fixture(scope="class")
    def short_hostile(self):
        return sg.build_dataset(sg.preset_config("hostile", duration=0.1, seed=1))

    @staticmethod
    def count_requests(monkeypatch, dataset):
        """Count each request for a frame from ``dataset.iter_frames``, the last one included."""
        requests = []
        frames = dataset.iter_frames

        def iter_frames():
            it = frames()
            while True:
                requests.append(None)
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item

        monkeypatch.setattr(dataset, "iter_frames", iter_frames)
        return requests

    @staticmethod
    def process_frames_seen(monkeypatch, fail_at=None, error=RuntimeError):
        """Record the frame index of each process_frame call; raise ``error`` at ``fail_at``."""
        seen = []
        original = pipeline.process_frame

        def process_frame(state, table, died, segment, noise, k, t):
            seen.append(k)
            if k == fail_at:
                raise error("filter failure")
            return original(state, table, died, segment, noise, k, t)

        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        return seen

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_host_error_reaches_caller_and_joins_worker(self, monkeypatch, short_hostile, error):
        seen = self.process_frames_seen(monkeypatch, fail_at=3, error=error)
        threads = threading.active_count()
        with pytest.raises(error, match="filter failure"):
            run_pipeline(short_hostile)
        assert seen == [0, 1, 2, 3]
        assert threading.active_count() == threads

    def test_truncated_map_raises_after_the_frames_before_it(self, monkeypatch, tmp_path):
        cfg = sg.preset_config("hostile", duration=0.1, seed=1)
        ds = sg.load_dataset(sg.write_dataset(cfg, tmp_path / "ds"))
        victim = sorted((tmp_path / "ds" / "frames").glob("*.edges.tcbm"))[2]
        victim.write_bytes(victim.read_bytes()[:-7])
        seen = self.process_frames_seen(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(DatasetCorrupt):
            run_pipeline(ds)
        assert seen == [0, 1]
        assert threading.active_count() == threads

    def test_worker_runs_exactly_one_frame_ahead(self, monkeypatch, short_hostile):
        requests = self.count_requests(monkeypatch, short_hostile)
        original = pipeline.process_frame
        ahead = []

        def process_frame(state, table, died, segment, noise, k, t):
            # frame k + 1 is requested while frame k is filtered ...
            deadline = time.monotonic() + 10.0
            while len(requests) < k + 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.005)
            # ... and frame k + 2 is not
            ahead.append(len(requests) - (k + 1))
            return original(state, table, died, segment, noise, k, t)

        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        threads = threading.active_count()
        res = run_pipeline(short_hostile)
        assert len(res.pose_rows) == len(ahead) == 25
        assert ahead == [1] * 25
        assert len(requests) == 26
        assert threading.active_count() == threads

    @pytest.mark.parametrize("feather_delay_s", [0.0, 0.002])
    def test_poses_do_not_depend_on_thread_interleaving(self, monkeypatch, short_hostile,
                                                        feather_delay_s):
        want = run_pipeline(short_hostile)
        original = pipeline.feather

        def slow_feather(*args):
            time.sleep(feather_delay_s)
            return original(*args)

        monkeypatch.setattr(pipeline, "feather", slow_feather)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads far more often than by default
        try:
            got = run_pipeline(short_hostile)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got.pose_rows, want.pose_rows)
        np.testing.assert_array_equal(got.diagnostics, want.diagnostics)


class TestTrackDump:
    def test_tracks_csv_matches_pinned_digest(self, tmp_path):
        # recorded with ``binvio run --tracks`` before tracks became rows of arrays
        want = (GOLDEN / "hostile_seed1_0.1s_tracks_sha256.txt").read_text().split()[0]
        assert main(["simulate", "--preset", "hostile", "--seed", "1", "--duration", "0.1",
                     "--out", str(tmp_path / "ds")]) == 0
        assert main(["run", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "poses.csv"),
                     "--tracks", str(tmp_path / "tracks.csv")]) == 0
        text = (tmp_path / "tracks.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == want
        statuses = {line.rsplit(b",", 1)[1] for line in text.splitlines()[1:]}
        assert statuses == {b"in_state", b"out_of_state"}

    def test_keeping_history_changes_no_pose(self, tmp_path):
        ds = sg.build_dataset(sg.preset_config("hostile", duration=0.1, seed=1))
        plain = run_pipeline(ds)
        dumped = run_pipeline(ds, tracks_path=tmp_path / "tracks.csv")
        np.testing.assert_array_equal(dumped.pose_rows, plain.pose_rows)
        np.testing.assert_array_equal(dumped.diagnostics, plain.diagnostics)


class TestPromotionRetries:
    def test_retry_frame_screens_each_due_candidate_once(self, monkeypatch):
        """At rest every promotion fails its screen and retries 5 frames later, with no update.

        So part (b) of ``slam_update`` screens each due candidate exactly once:
        ``capacity`` of them, then twice as many per pass while nothing changes
        the calibration.  Each track's window equals that of screening it alone.
        """
        ds = sg.build_dataset(sg.preset_config("static", duration=0.6, seed=1))
        screen, slam_update = msckf._parallax_screen, msckf.slam_update
        calls = []  # per slam_update: (due candidates, [candidates per screen pass])
        inside = []  # whether a slam_update call is running

        def counting_screen(frames, pixels, state, cam_poses):
            windows = screen(frames, pixels, state, cam_poses)
            for j, window in enumerate(windows):
                (alone,) = screen(frames[j:j + 1], pixels[j:j + 1], state, cam_poses)
                assert (window is None) == (alone is None)
                if window is not None:
                    for a, b in zip(window, alone):
                        np.testing.assert_array_equal(a, b)
            if inside:
                calls[-1][1].append(len(frames))
            return windows

        def counting_slam_update(state, table, promotions, frame_index):
            calls.append((int((table.retry_after[promotions] <= frame_index).sum()), []))
            inside.append(True)
            try:
                return slam_update(state, table, promotions, frame_index)
            finally:
                inside.pop()

        monkeypatch.setattr(msckf, "_parallax_screen", counting_screen)
        monkeypatch.setattr(msckf, "slam_update", counting_slam_update)
        run_pipeline(ds)
        capacity = PipelineConfig().filter.max_slam_update
        assert max(due for due, _ in calls) > 3 * capacity  # the parent screened these in 5 passes
        for due, passes in calls:
            assert sum(passes) == due
            assert len(passes) <= 3
            # capacity, then twice the last pass, while no update changes the calibration
            for k, n in enumerate(passes):
                assert n == capacity * 2**k or (k == len(passes) - 1 and n < capacity * 2**k)
