import dataclasses
import enum
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import binvio
from binvio import config
from binvio.cli import BLAS_THREAD_VARS, main
from binvio.config import ConfigInvalid, PipelineConfig, load_config, parse_config_text
from binvio.io import read_manifest, read_pose_csv
from binvio.simgen import NOISE_KEYS, load_dataset


def nonneg(strict=False):
    """Finite floats >= 0, or > 0 when ``strict``."""
    return st.floats(min_value=0.0, exclude_min=strict, allow_infinity=False)


# fields whose section validation limits their values; every other field is
# drawn from its whole type (finite, for floats)
CONSTRAINED = {
    ("tracker", "n_points"): st.integers(1, 800),
    ("tracker", "window"): st.integers(1, 1000).map(lambda k: 2 * k + 1),
    ("tracker", "sigma_e"): nonneg(strict=True),
    ("tracker", "epsilon"): nonneg(),
    ("tracker", "max_iters"): st.integers(min_value=1),
    ("tracker", "photometric_gate"): nonneg(strict=True),
    ("tracker", "min_separation"): nonneg(),
    ("filter", "max_clones"): st.integers(min_value=1),
    ("filter", "max_slam_update"): st.integers(min_value=1),
    ("filter", "max_msckf_update"): st.integers(min_value=1),
    ("filter", "sigma_px"): nonneg(strict=True),
    ("filter", "chi2_confidence"): st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ("filter", "min_msckf_len"): st.integers(min_value=2),
    ("filter", "min_baseline_deg"): st.floats(0.0, 180.0, exclude_max=True),
    ("emulator", "edge_threshold"): st.floats(0.0, 2040.0, exclude_min=True),
    ("emulator", "fast_threshold"): nonneg(),
    ("emulator", "noise_flip_rate"): st.floats(0.0, 0.05),
    ("noise", "gyro_noise"): nonneg(),
    ("noise", "accel_noise"): nonneg(),
    ("noise", "gyro_walk"): nonneg(),
    ("noise", "accel_walk"): nonneg(),
    ("noise", "gravity"): st.one_of(st.just(0.0), st.floats(9.31, 10.31)),
}


def values_of(section, field, kind):
    if (section, field) in CONSTRAINED:
        return CONSTRAINED[section, field]
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers()
    if kind is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if issubclass(kind, enum.Enum):
        return st.sampled_from(list(kind))
    raise TypeError(f"no strategy for {kind}")


def config_text(cfg: PipelineConfig) -> str:
    """``cfg`` as ``section.key = value`` lines, one per field, in declaration order."""
    lines = []
    for section in dataclasses.fields(cfg):
        for f in dataclasses.fields(getattr(cfg, section.name)):
            v = getattr(getattr(cfg, section.name), f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, enum.Enum):
                v = v.value
            lines.append(f"{section.name}.{f.name} = {v}")
    return "\n".join(lines) + "\n"


@st.composite
def pipeline_configs(draw):
    sections = {}
    for name, section_type in typing.get_type_hints(PipelineConfig).items():
        hints = typing.get_type_hints(section_type)
        sections[name] = section_type(**{
            f.name: draw(values_of(name, f.name, hints[f.name]))
            for f in dataclasses.fields(section_type)
        })
    return PipelineConfig(**sections)


class TestConfig:
    def test_table_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tracker.n_points == 800
        assert cfg.filter.max_clones == 15
        assert cfg.filter.max_slam_update == 30
        assert cfg.filter.max_msckf_update == 60
        assert cfg.tracker.sigma_e == 2.5
        assert cfg.tracker.window == 21

    def test_shipped_default_file_matches_table(self):
        shipped = Path(config.__file__).parent / "data" / "default.cfg"
        # the file sets every field exactly once
        keys = [line.split("=")[0].strip() for line in shipped.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
        fields = [line.split(" = ")[0] for line in config_text(PipelineConfig()).splitlines()]
        assert sorted(keys) == sorted(fields)
        assert len(keys) == 28
        cfg = load_config(shipped)
        assert cfg == PipelineConfig()
        assert cfg.tracker.n_points == 800
        assert cfg.filter.max_clones == 15
        assert cfg.filter.max_slam_update == 30
        assert cfg.filter.max_msckf_update == 60
        assert cfg.tracker.sigma_e == 2.5
        assert cfg.tracker.window == 21

    @given(pipeline_configs())
    def test_round_trip_any_valid_config(self, cfg):
        assert parse_config_text(config_text(cfg)) == cfg

    def test_round_trip(self):
        cfg = PipelineConfig()
        cfg.tracker.sigma_e = 3.25
        cfg.filter.estimate_calibration = False
        again = parse_config_text(config_text(cfg))
        assert again == cfg

    def test_override_types(self):
        cfg = PipelineConfig()
        cfg.apply_override("tracker.sigma-e", "1.75")
        assert cfg.tracker.sigma_e == 1.75
        cfg.apply_override("filter.use_fej", "false")
        assert cfg.filter.use_fej is False
        cfg.apply_override("tracker.n_points", "400")
        assert cfg.tracker.n_points == 400
        cfg.apply_override("filter.min_msckf_len", "6")
        assert cfg.filter.min_msckf_len == 6

    def test_bad_overrides(self):
        cfg = PipelineConfig()
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("tracker.no_such_key", "1")
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("nosection.sigma_e", "1")
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("tracker.sigma_e", "abc")
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("filter.use_fej", "maybe")
        # keys the file format no longer has
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("tracker.min_msckf_len", "4")
        with pytest.raises(ConfigInvalid):
            cfg.apply_override("filter.slam_before_msckf", "true")
        for gone in ("filter.integration", "filter.chi2_scale", "tracker.predict_with_prev_flow",
                     "filter.paranoid_checks"):
            with pytest.raises(ConfigInvalid):
                cfg.apply_override(gone, "1")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "tiny"
    rc = main([
        "simulate", "--preset", "hostile", "--seed", "3",
        "--duration", "0.6", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def static_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "static"
    assert main(["simulate", "--preset", "static", "--duration", "0.05", "--out", str(out)]) == 0
    return out


# manifest value that cannot drive a replay: (key, value)
BAD_MANIFEST_VALUES = [
    ("n_frames", "0"), ("n_frames", "-3"), ("n_frames", "abc"),
    ("fps", "0"), ("fps", "nan"), ("mode", "fancy"),
]

# manifest IMU noise that the filter cannot assume: (key, value), None deleting the key
BAD_NOISE_VALUES = [
    ("gyro_noise", "abc"), ("gyro_noise", "-1"), ("gravity", "3.0"), ("accel_walk", "nan"),
    ("accel_noise", None),
]


def edit_manifest(data: Path, edits: dict) -> None:
    """Set each key of ``data/meta.txt`` to its value in ``edits``, deleting it for None."""
    meta = read_manifest(data / "meta.txt")
    for key, value in edits.items():
        assert key in meta
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    (data / "meta.txt").write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


# manifest value that cannot describe the camera: (key, value)
BAD_CALIBRATIONS = {
    "nan-q": ("calib.extrinsic_q", "0,nan,0,1"),
    "zero-q": ("calib.extrinsic_q", "0,0,0,0"),
    "short-q": ("calib.extrinsic_q", "0,0,1"),
    "nan-p": ("calib.extrinsic_p", "0.05,nan,0"),
    "inf-cx": ("calib.cx", "inf"),
    "zero-fy": ("calib.fy", "0"),
    "word-fx": ("calib.fx", "wide"),
    "short-distortion": ("calib.distortion", "0,0,0"),
}


class TestCli:
    def test_simulate_static_identity_poses(self, tmp_path):
        out = tmp_path / "static"
        rc = main(["simulate", "--preset", "static", "--duration", "0.1",
                   "--out", str(out)])
        assert rc == 0
        gt = np.loadtxt(out / "gt.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.abs(gt[:, 1:4]).max() == 0.0
        np.testing.assert_array_equal(gt[:, 7], np.ones(len(gt)))

    def test_simulate_hostile_rot_manifest(self, tmp_path):
        out = tmp_path / "hr"
        rc = main(["simulate", "--preset", "hostile-rot", "--duration", "0.02",
                   "--out", str(out)])
        assert rc == 0
        meta = read_manifest(out / "meta.txt")
        # the preset's peak rate is a property of the trajectory shape, not
        # of the duration actually materialized
        from binvio.simgen import peak_angular_rate, preset_config
        pk = peak_angular_rate(preset_config("hostile-rot").trajectory)
        assert 13.0 <= pk <= 15.0
        assert float(meta["fps"]) == 250.0

    def test_unknown_preset_exit_2(self, tmp_path):
        rc = main(["simulate", "--preset", "static", "--duration", "-1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("duration", ["nan", "inf", "0.001", "0.002"])
    def test_simulate_duration_without_a_dataset_exit_2(self, tmp_path, duration):
        # not finite, or too short for a frame at 250 fps: nothing is written
        out = tmp_path / "x"
        rc = main(["simulate", "--preset", "hostile", "--duration", duration,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_run_and_eval(self, tiny_dataset, tmp_path):
        pose = tmp_path / "pose.csv"
        diag = tmp_path / "diag.csv"
        rc = main([
            "run", "--dataset", str(tiny_dataset), "--out", str(pose),
            "--diagnostics", str(diag),
        ])
        assert rc == 0
        rows = read_pose_csv(pose)
        assert len(rows) == load_dataset(tiny_dataset).n_frames()

        report = tmp_path / "report.csv"
        series = tmp_path / "series.csv"
        rc = main([
            "eval", "--est", str(pose), "--gt", str(tiny_dataset / "gt.csv"),
            "--out-report", str(report), "--out-series", str(series),
            "--diagnostics", str(diag),
        ])
        assert rc == 0
        body = report.read_text()
        assert "ate_rmse," in body and "rte_rmse," in body

    def test_eval_est_equals_gt_zero(self, tiny_dataset, tmp_path):
        report = tmp_path / "report.csv"
        series = tmp_path / "series.csv"
        rc = main([
            "eval", "--est", str(tiny_dataset / "gt.csv"),
            "--gt", str(tiny_dataset / "gt.csv"),
            "--out-report", str(report), "--out-series", str(series),
        ])
        assert rc == 0
        values = dict(
            line.split(",") for line in report.read_text().splitlines()[1:]
        )
        assert float(values["ate_rmse"]) < 1e-9
        assert float(values["rte_rmse"]) < 1e-9

    def test_eval_static_path_exit_0(self, tmp_path, capsys):
        # a path at rest gives align_se3 nothing to fit a rotation to
        data = tmp_path / "static"
        assert main(["simulate", "--preset", "static", "--duration", "0.1",
                     "--out", str(data)]) == 0
        rc = main([
            "eval", "--est", str(data / "gt.csv"), "--gt", str(data / "gt.csv"),
            "--out-report", str(tmp_path / "r.csv"),
            "--out-series", str(tmp_path / "s.csv"),
        ])
        assert rc == 0
        assert "alignment=translation" in capsys.readouterr().out

    def test_eval_missing_gt_exit_2(self, tiny_dataset, tmp_path):
        rc = main([
            "eval", "--est", str(tiny_dataset / "gt.csv"),
            "--gt", str(tmp_path / "nope.csv"),
            "--out-report", str(tmp_path / "r.csv"),
            "--out-series", str(tmp_path / "s.csv"),
        ])
        assert rc == 2

    def test_run_with_override_flag(self, tiny_dataset, tmp_path):
        rc = main([
            "run", "--dataset", str(tiny_dataset),
            "--out", str(tmp_path / "pose.csv"),
            "--tracker.sigma-e", "2.0",
            "--filter.estimate_calibration=false",
        ])
        assert rc == 0

    def test_run_bad_override_exit_2(self, tiny_dataset, tmp_path):
        rc = main([
            "run", "--dataset", str(tiny_dataset),
            "--out", str(tmp_path / "pose.csv"),
            "--tracker.bogus", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tracker.window", "20"),
        ("--filter.max_slam_update", "0"),
        ("--tracker.feature_source", "bogus"),
        ("--tracker.sigma_e", "-1"),
        ("--filter.integration", "bogus"),
        ("--filter.max_clones", "0"),
        ("--filter.sigma_px", "0"),
        ("--filter.chi2_confidence", "1.5"),
        ("--emulator.edge_threshold", "0"),
        ("--emulator.noise_flip_rate", "0.2"),
        ("--emulator.fast_threshold", "-5"),
        ("--tracker.n_points", "0"),
        ("--tracker.n_points", "1000"),
        ("--noise.gravity", "50"),
        ("--noise.gyro_noise", "-1"),
        ("--noise.gravity", "nan"),
        ("--noise.gyro_noise", "nan"),
        ("--tracker.sigma_e", "nan"),
        ("--tracker.max_iters", "-1"),
        ("--tracker.epsilon", "-1"),
        ("--tracker.photometric_gate", "nan"),
        ("--tracker.min_separation", "-5"),
        ("--filter.min_baseline_deg", "nan"),
        ("--filter.min_msckf_len", "-3"),
        ("--filter.sigma_px", "inf"),
    ])
    def test_run_invalid_value_exit_2(self, tiny_dataset, tmp_path, flag, value):
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(tiny_dataset), "--out", str(pose), flag, value])
        assert rc == 2
        assert not pose.exists()

    def test_run_missing_dataset_exit_2(self, tmp_path):
        rc = main(["run", "--dataset", str(tmp_path / "none"),
                   "--out", str(tmp_path / "pose.csv")])
        assert rc == 2

    def test_run_truncated_map_exit_2(self, tiny_dataset, tmp_path):
        data = tmp_path / "tiny"
        shutil.copytree(tiny_dataset, data)
        victim = sorted(data.rglob("*.edges.tcbm"))[2]
        victim.write_bytes(victim.read_bytes()[:-7])
        rc = main(["run", "--dataset", str(data), "--out", str(tmp_path / "pose.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "defect", ["five-columns", "nan", "repeated-time", "one-sample", "header-only"]
    )
    def test_run_bad_imu_csv_exit_2(self, tiny_dataset, tmp_path, capsys, defect):
        data = tmp_path / "tiny"
        shutil.copytree(tiny_dataset, data)
        rows = [line.split(",") for line in (data / "imu.csv").read_text().splitlines()]
        if defect == "five-columns":
            # one accel column, which numpy would broadcast to all three axes
            rows = [row[:5] for row in rows]
        elif defect == "nan":
            rows[10][4] = "nan"
        elif defect == "repeated-time":
            rows[11][0] = rows[10][0]
        else:
            rows = rows[:2] if defect == "one-sample" else rows[:1]
        (data / "imu.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(data), "--out", str(pose)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "imu csv" in err
        if defect in ("one-sample", "header-only"):
            assert f"has {len(rows) - 1} samples" in err
        assert not pose.exists()

    @pytest.mark.parametrize("defect", ["word", "header-only", "five-columns", "nan"])
    def test_run_bad_gt_exit_2(self, tiny_dataset, tmp_path, capsys, defect):
        data = tmp_path / "tiny"
        shutil.copytree(tiny_dataset, data)
        rows = [line.split(",") for line in (data / "gt.csv").read_text().splitlines()]
        if defect == "word":
            rows[10][3] = "wide"
        elif defect == "header-only":
            rows = rows[:1]
        elif defect == "five-columns":
            rows = [row[:5] for row in rows]
        else:
            rows[1][2] = "nan"  # a position of the first row, which seeds the filter
        (data / "gt.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(data), "--out", str(pose)])
        assert rc == 2
        assert "gt.csv" in capsys.readouterr().err
        assert not pose.exists()

    @pytest.mark.parametrize("defect", BAD_CALIBRATIONS)
    def test_run_bad_calibration_exit_2(self, tiny_dataset, tmp_path, capsys, defect):
        data = tmp_path / "tiny"
        shutil.copytree(tiny_dataset, data)
        edit_manifest(data, dict([BAD_CALIBRATIONS[defect]]))
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(data), "--out", str(pose)])
        assert rc == 2
        assert "calib" in capsys.readouterr().err
        assert not pose.exists()

    @pytest.mark.parametrize(
        "key, value", BAD_MANIFEST_VALUES, ids=[f"{k}={v}" for k, v in BAD_MANIFEST_VALUES]
    )
    def test_run_bad_manifest_exit_2(self, static_dataset, tmp_path, capsys, key, value):
        data = tmp_path / "static"
        shutil.copytree(static_dataset, data)
        edit_manifest(data, {key: value})
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(data), "--out", str(pose)])
        assert rc == 2
        assert f"bad {key} in meta.txt" in capsys.readouterr().err
        assert not pose.exists()

    @pytest.mark.parametrize(
        "key, value", BAD_NOISE_VALUES, ids=[f"{k}={v}" for k, v in BAD_NOISE_VALUES]
    )
    def test_run_bad_noise_exit_2(self, static_dataset, tmp_path, capsys, key, value):
        data = tmp_path / "static"
        shutil.copytree(static_dataset, data)
        edit_manifest(data, {key: value})
        pose = tmp_path / "pose.csv"
        rc = main(["run", "--dataset", str(data), "--out", str(pose)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "meta.txt" in err and key in err
        assert not pose.exists()

    def test_run_manifest_without_noise_uses_config(self, static_dataset, tmp_path):
        # with no noise key in the manifest, the noise.* settings drive the filter
        data = tmp_path / "static"
        shutil.copytree(static_dataset, data)
        edit_manifest(data, dict.fromkeys(NOISE_KEYS))
        flags = ["--noise.gyro_noise", "1e-3", "--noise.accel_walk", "1e-4"]
        bare, forced = tmp_path / "bare.csv", tmp_path / "forced.csv"
        assert main(["run", "--dataset", str(data), "--out", str(bare), *flags]) == 0
        assert main(["run", "--dataset", str(static_dataset), "--out", str(forced), *flags,
                     "--noise.from_manifest", "false"]) == 0
        assert bare.read_bytes() == forced.read_bytes()

    def test_ablation_flags(self, tiny_dataset, tmp_path):
        rc = main([
            "run", "--dataset", str(tiny_dataset),
            "--out", str(tmp_path / "p1.csv"),
            "--ablation", "feathering=off",
        ])
        assert rc == 0
        rc = main([
            "run", "--dataset", str(tiny_dataset),
            "--out", str(tmp_path / "p2.csv"),
            "--ablation", "features=shi-tomasi",
        ])
        assert rc == 0
        assert (tmp_path / "p1.csv").read_text() != (tmp_path / "p2.csv").read_text()

    def test_sweep(self, tiny_dataset, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--dataset", str(tiny_dataset), "--out", str(out),
            "--grid", "filter.sigma_px=0.8,1.2",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("filter.sigma_px,")
        assert len(lines) == 3

    def test_determinism_byte_identical(self, tiny_dataset, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", "--dataset", str(tiny_dataset), "--out", str(a)]) == 0
        assert main(["run", "--dataset", str(tiny_dataset), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBlasThreads:
    """``binvio.cli`` pins BLAS to one thread before numpy loads, unless the user chose."""

    def thread_vars_after_import(self, **chosen):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(chosen)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(binvio.__file__).resolve().parent.parent), env.get("PYTHONPATH", "")])
        code = (
            "import os, sys, binvio\n"
            "assert 'numpy' not in sys.modules\n"
            "import binvio.cli\n"
            "print(','.join(os.environ.get(v, '-') for v in binvio.cli.BLAS_THREAD_VARS))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        return out.stdout.strip().split(",")

    def test_unset_becomes_one(self):
        assert self.thread_vars_after_import() == ["1", "1", "1"]

    def test_user_value_kept(self):
        assert self.thread_vars_after_import(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="4") == [
            "2", "1", "4"]
