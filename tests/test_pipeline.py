from pathlib import Path

import numpy as np
import pytest

from binvio import msckf, pipeline
from binvio import simgen as sg
from binvio.config import PipelineConfig
from binvio.evaluate import TrajectorySeries, associate, compute_ate_rte
from binvio.imu import NoiseParams
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

        def track_rows(*args):
            built = original(*args)
            residuals.extend(
                float(np.linalg.norm(rows.Q[:, 3:].T @ rows.H_f))
                for rows in built if rows is not None
            )
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
