"""Command-line orchestration: simulate, run, eval, sweep.

Exit codes: 0 success, 1 pipeline failure, 2 usage or I/O error.  Any
config key can be overridden with ``--section.key value`` flags.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

# One BLAS thread unless the user set one: on a two-core host OpenBLAS's
# default threading doubles CPU time without a wall-clock gain.  This must
# run before numpy loads, and ``binvio/__init__.py`` imports none.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import io as dataio
from .config import ConfigInvalid, PipelineConfig, load_config
from .evaluate import (
    NoOverlap,
    TrajectorySeries,
    associate,
    compute_ate_rte,
    feature_error_correlation,
    write_report_csv,
    write_series_csv,
)
from .pipeline import run_pipeline
from .simgen import InvalidSpec, PRESET_DURATIONS, load_dataset, preset_config, write_dataset

USAGE_ERROR = 2
PIPELINE_ERROR = 1

# --ablation value -> the config override it stands for
ABLATIONS = {
    "feathering=off": ("tracker.feathering_enabled", "false"),
    "features=shi-tomasi": ("tracker.feature_source", "shi-tomasi"),
}


def _split_overrides(argv):
    """Peel off --section.key value pairs that double config fields."""
    known, overrides = [], []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--") and "." in arg.split("=")[0]:
            if "=" in arg:
                key, value = arg[2:].split("=", 1)
                overrides.append((key, value))
                i += 1
            else:
                if i + 1 >= len(argv):
                    raise ConfigInvalid(f"flag {arg} needs a value")
                overrides.append((arg[2:], argv[i + 1]))
                i += 2
        else:
            known.append(arg)
            i += 1
    return known, overrides


def _build_config(args, overrides) -> PipelineConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = PipelineConfig()
    for item in getattr(args, "ablation", None) or []:
        if item not in ABLATIONS:
            raise ConfigInvalid(f"unknown ablation {item!r}")
        cfg.apply_override(*ABLATIONS[item])
    for key, value in overrides:
        cfg.apply_override(key, value)
    return cfg


def cmd_simulate(args, overrides) -> int:
    if overrides:
        raise ConfigInvalid("simulate takes no config overrides")
    kwargs = {}
    if args.duration is not None:
        kwargs["duration"] = args.duration
    cfg = preset_config(args.preset, seed=args.seed, **kwargs)
    if args.mode:
        from dataclasses import replace

        cfg = replace(cfg, mode=args.mode)
    out = Path(args.out)
    write_dataset(cfg, out)
    print(f"dataset written to {out}")
    return 0


def cmd_run(args, overrides) -> int:
    cfg = _build_config(args, overrides)
    dataset = load_dataset(args.dataset)
    result = run_pipeline(
        dataset,
        cfg,
        pose_path=args.out,
        diagnostics_path=args.diagnostics,
        tracks_path=args.tracks,
    )
    print(
        f"{len(result.pose_rows)} frames in {result.elapsed_seconds:.1f}s | "
        f"mean live tracks {result.mean_live_tracks():.1f} | "
        f"max in-state {int(result.diagnostics[:, 5].max())}"
    )
    return 0


def cmd_eval(args, overrides) -> int:
    if overrides:
        raise ConfigInvalid("eval takes no config overrides")
    est = TrajectorySeries.from_rows(dataio.read_pose_csv(args.est))
    gt = TrajectorySeries.from_rows(dataio.read_pose_csv(args.gt))
    pairs = associate(est, gt, max_dt=args.max_dt)
    report = compute_ate_rte(pairs, rte_delta=args.rte_delta)
    counts = None
    if args.diagnostics:
        diag = np.loadtxt(args.diagnostics, delimiter=",", skiprows=1, ndmin=2)
        # nearest diagnostic row per paired timestamp
        idx = np.clip(np.searchsorted(diag[:, 0], report.series_t), 0, len(diag) - 1)
        counts = diag[idx, 5]
    write_report_csv(report, args.out_report)
    write_series_csv(report, args.out_series, counts)
    line = (
        f"ate_rmse={report.ate_rmse:.4f} ate_median={report.ate_median:.4f} "
        f"rte_rmse={report.rte_rmse:.4f} rte_median={report.rte_median:.4f} "
        f"alignment={report.alignment}"
    )
    if counts is not None and np.std(counts) > 1e-12:
        corr = feature_error_correlation(counts, report.series_ate)
        line += f" feature_error_corr={corr:.3f}"
    print(line)
    return 0


def cmd_sweep(args, overrides) -> int:
    if overrides:
        raise ConfigInvalid("sweep config values belong in --grid entries")
    dataset = load_dataset(args.dataset)
    gt = TrajectorySeries.from_rows(dataset.gt)
    axes = []
    for item in args.grid:
        if "=" not in item:
            raise ConfigInvalid(f"--grid needs key=v1,v2 entries, got {item!r}")
        key, values = item.split("=", 1)
        axes.append([(key, v) for v in values.split(",")])
    rows = []
    for cell in itertools.product(*axes):
        cfg = load_config(args.config) if args.config else PipelineConfig()
        for key, value in cell:
            cfg.apply_override(key, value)
        result = run_pipeline(dataset, cfg)
        report = compute_ate_rte(
            associate(result.trajectory(), gt, max_dt=args.max_dt),
            rte_delta=args.rte_delta,
        )
        rows.append((cell, report))
        desc = " ".join(f"{k}={v}" for k, v in cell)
        print(f"{desc}: ate_rmse={report.ate_rmse:.4f} rte_rmse={report.rte_rmse:.4f}")
    with open(args.out, "w") as f:
        keys = [a[0][0] for a in axes]
        f.write(",".join(keys) + ",ate_rmse,ate_median,rte_rmse,rte_median\n")
        for cell, report in rows:
            vals = ",".join(v for _, v in cell)
            f.write(
                f"{vals},{report.ate_rmse:.9f},{report.ate_median:.9f},"
                f"{report.rte_rmse:.9f},{report.rte_median:.9f}\n"
            )
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="binvio",
        description="Binary-feature visual-inertial odometry pipeline",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--preset", required=True, choices=sorted(PRESET_DURATIONS))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--duration", type=float, default=None)
    sim.add_argument("--mode", choices=["ideal-binary", "grayscale"], default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="run the pipeline on a dataset")
    run.add_argument("--dataset", required=True)
    run.add_argument("--config", default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--diagnostics", default=None)
    run.add_argument("--tracks", default=None)
    run.add_argument(
        "--ablation", action="append", default=None,
        help="feathering=off or features=shi-tomasi (repeatable)",
    )
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate a pose stream against ground truth")
    ev.add_argument("--est", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out-report", required=True)
    ev.add_argument("--out-series", required=True)
    ev.add_argument("--diagnostics", default=None)
    ev.add_argument("--max-dt", type=float, default=0.005)
    ev.add_argument("--rte-delta", type=int, default=250)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="grid of config overrides, one report row each")
    sw.add_argument("--dataset", required=True)
    sw.add_argument("--config", default=None)
    sw.add_argument("--grid", action="append", required=True,
                    help="section.key=v1,v2 (repeatable, cartesian product)")
    sw.add_argument("--out", required=True)
    sw.add_argument("--max-dt", type=float, default=0.005)
    sw.add_argument("--rte-delta", type=int, default=250)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        known, overrides = _split_overrides(argv)
        args = make_parser().parse_args(known)
        return args.func(args, overrides)
    except (ConfigInvalid, InvalidSpec, dataio.DatasetCorrupt, NoOverlap,
            FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # pipeline-level failure
        print(f"pipeline failure: {type(e).__name__}: {e}", file=sys.stderr)
        return PIPELINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
