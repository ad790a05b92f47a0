"""Benchmark for binvio: render a workload's dataset, run the pipeline on it, check the poses.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hostile-binary --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

For each workload the benchmark renders the dataset with ``simgen.write_dataset``
and reads it back with ``simgen.load_dataset`` (set-up), then replays it through
``pipeline.run_pipeline`` with the default ``PipelineConfig()`` in as many whole
rounds as fill ``--seconds`` at the workload's reference speed.  An untraced run
sets up three times in a row and reports the median.  Each round attempts one
operation per frame and one evaluation with ``evaluate.compute_ate_rte``.  The
poses are checked against ground truth that the benchmark computes itself.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics from ``tracing.py``, plus the
tracing overhead; it also writes one JSON record per traced frame under
``perfbench/results/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in this one process.  ``peak_rss_mb`` is
the process peak, so only the first workload of a process reports it.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed here rather than taken from the machine: on two cores
# OpenBLAS's default threading doubles CPU time without a wall-clock gain, and
# its scheduling noise moves frame times between runs.  Must precede numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import struct
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
RESULTS = ROOT / "perfbench" / "results"

# Set-ups per untraced run, in a row before the first round; setup_s is their
# median.  They come first because a set-up after the rounds can reuse heap the
# pipeline grew and skip the page faults a fresh ``binvio simulate`` pays
# (gentle-gray: 1.8k instead of 358k minor faults, and 25-35% less time).
SETUPS = 3
CHECK_FRAMES = 6    # frames whose on-disk maps are compared with a fresh render
GT_RATE_HZ = 1000.0  # simgen writes gt.csv at this rate
QUAT_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    mode: str
    duration: float      # seconds of sensor time, 250 frames per second
    sim_seed: int
    ref_frame_ms: float  # frame time on the reference host; plans the round count
    # Position-error bound: a share of the manifest's path_length for moving
    # workloads, an absolute drift in metres for the static one.
    max_err_share: float = 0.0
    max_err_m: float = 0.0


# Sim seeds are fixed per workload: on runs this short, the position error of
# one sim seed differs from the next by up to 4x (hostile 1 s, seeds 1-5: RMSE
# 0.012-0.047 m), which no regression bound could hold.  --seed picks the frames
# that the map round-trip check samples.
#
# Moving bound: 10% of the distance travelled.  MSCKF-class VIO drifts well under
# 1% of distance over long runs; on a sub-second run the start-up transient dominates,
# so allow ten times that.  A pose stream that fails it has lost track.
# Static bound: 1 cm.  At rest the filter never updates, so the estimate is dead
# reckoning.  Over T = 0.6 s the manifest's accel white noise (2e-3 m/s^2/sqrt(Hz))
# gives sigma_p = 2e-3 * T^1.5 / sqrt(3) = 0.5 mm per axis, and the gyro noise
# (2e-4 rad/s/sqrt(Hz)) tilting gravity adds 0.1 mm; 3 sigma of the 3-D error is
# about 3 mm, and 1 cm allows three times that.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hostile-binary", "hostile", "ideal-binary", 0.6, 1, 57.0, max_err_share=0.10),
        Workload("gentle-gray", "gentle", "grayscale", 0.4, 4, 135.0, max_err_share=0.10),
        Workload("static-binary", "static", "ideal-binary", 0.6, 1, 38.0, max_err_m=0.01),
    )
}

END_TO_END_UNITS = {
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "fps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pos_err_rmse_m": "m",
    "rot_err_rmse_rad": "rad",
    "sigma_mismatch": "ratio",
}


def _import_binvio():
    """Import binvio from this checkout's src/, never from anywhere else."""
    if not (SRC / "binvio" / "__init__.py").is_file():
        raise SystemExit(f"error: no binvio sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import binvio

    if Path(binvio.__file__).resolve().parent != SRC / "binvio":
        raise SystemExit(f"error: binvio imported from {binvio.__file__}, not {SRC}")


_import_binvio()

import numpy as np  # noqa: E402

from binvio import evaluate, io as dataio, pipeline, simgen  # noqa: E402
from binvio.config import PipelineConfig  # noqa: E402

import tracing  # noqa: E402


class CheckFailed(AssertionError):
    """The program's output is wrong."""


# -- set-up ---------------------------------------------------------------


def sim_config(w: Workload):
    return replace(simgen.preset_config(w.preset, seed=w.sim_seed, duration=w.duration), mode=w.mode)


def set_up(w: Workload, work: Path, repeats: int):
    """Render and reload the dataset ``repeats`` times; returns (dataset, dir, seconds each)."""
    sim = sim_config(w)
    times = []
    for i in range(repeats):
        out = work / f"dataset{i}"
        t0 = time.perf_counter()
        simgen.write_dataset(sim, out)
        dataset = simgen.load_dataset(out)
        times.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            shutil.rmtree(out)
    return dataset, out, times


# -- one round --------------------------------------------------------------


@dataclass
class Round:
    frame_ms: np.ndarray
    wall_s: float
    poses: np.ndarray | None     # None when run_pipeline raised
    diagnostics: np.ndarray | None
    frames_ok: int               # frames that produced a finite pose
    error: str = ""
    eval_error: str = ""
    eval_ms: float = 0.0


class FrameClock:
    """Replaces ``dataset.iter_frames`` to stamp each request for the next frame.

    Frame k's wall time runs from the request for frame k (its decode included)
    to the request for frame k + 1, which run_pipeline makes once frame k's pose
    is stored.
    """

    def __init__(self, dataset, on_stamp=None):
        self.frames = dataset.iter_frames
        self.on_stamp = on_stamp
        self.stamps: list[float] = []

    def __call__(self):
        it = self.frames()
        while True:
            now = time.perf_counter()
            self.stamps.append(now)
            if self.on_stamp is not None:
                self.on_stamp(now)
            try:
                item = next(it)
            except StopIteration:
                return
            yield item


def run_round(dataset, tracer=None) -> Round:
    clock = FrameClock(dataset, tracer.stamp if tracer else None)
    dataset.iter_frames = clock
    error = ""
    result = None
    t0 = time.perf_counter()
    try:
        result = pipeline.run_pipeline(dataset, PipelineConfig())
    except Exception as e:  # a failed frame is a counted operation, not a crash
        error = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    del dataset.iter_frames
    if tracer:
        tracer.end_round()
    stamps = np.array(clock.stamps)
    frames_ok = len(stamps) - 1
    rnd = Round(np.diff(stamps) * 1e3, wall, None, None, frames_ok, error)
    if result is not None:
        rnd.poses, rnd.diagnostics = result.pose_rows, result.diagnostics
        rnd.frames_ok = int(np.isfinite(rnd.poses).all(axis=1).sum())
        evaluate_round(rnd, dataset)
    else:
        rnd.eval_error = "no pose stream"
    return rnd


def evaluate_round(rnd: Round, dataset) -> None:
    """The program's own evaluation, as ``binvio eval`` runs it; one operation."""
    t0 = time.perf_counter()
    try:
        est = evaluate.TrajectorySeries.from_rows(rnd.poses)
        gt = evaluate.TrajectorySeries.from_rows(dataset.gt[:, :8])
        evaluate.compute_ate_rte(evaluate.associate(est, gt, max_dt=0.005), rte_delta=250)
    except Exception as e:
        rnd.eval_error = f"{type(e).__name__}: {e}"
    rnd.eval_ms = (time.perf_counter() - t0) * 1e3


# -- output checks -----------------------------------------------------------


def check_poses(poses: np.ndarray, n_frames: int, fps: float) -> None:
    """One pose per frame at k / fps; finite ones carry a unit quaternion.

    A non-finite pose is a failed operation, counted in ``Round.frames_ok``.
    """
    if poses.shape != (n_frames, 8):
        raise CheckFailed(f"pose array {poses.shape}, expected ({n_frames}, 8)")
    expected_t = np.array([k / fps for k in range(n_frames)])
    if not np.array_equal(poses[:, 0], expected_t):
        raise CheckFailed("pose timestamps are not k / fps")
    finite = poses[np.isfinite(poses).all(axis=1)]
    norm_err = np.abs(np.linalg.norm(finite[:, 4:8], axis=1) - 1.0).max(initial=0.0)
    if norm_err > QUAT_UNIT_TOL:
        raise CheckFailed(f"quaternion norm off by {norm_err:.3e}")


def check_maps(w: Workload, dataset_dir: Path, n_frames: int, seed: int) -> None:
    """On-disk frames must equal a fresh in-memory render bit for bit."""
    sim = sim_config(w)
    world = sim.world()
    calib = simgen.default_calibration()
    rng = np.random.default_rng(seed)
    picks = {0, n_frames - 1, *rng.choice(n_frames, CHECK_FRAMES - 2, replace=False).tolist()}
    for k in sorted(picks):
        t = k / sim.fps
        cam = simgen.camera_pose_at(simgen.sample_ground_truth(sim.trajectory, t), calib)
        rendered = simgen.render_frame(world, cam, calib, w.mode, t)
        stem = dataset_dir / "frames" / f"{int(round(t * 1e6)):012d}"
        if w.mode == "ideal-binary":
            for bmap, suffix in zip(rendered, ("corners", "edges")):
                decoded = dataio.load_binary_map(f"{stem}.{suffix}.tcbm")
                if (decoded.kind != bmap.kind or decoded.timestamp != t
                        or not np.array_equal(decoded.bits, bmap.bits)):
                    raise CheckFailed(f"frame {k} {suffix} map differs from its render")
        else:
            blob = Path(f"{stem}.gray.bin").read_bytes()
            if blob != struct.pack("<d", t) + rendered.pixels.tobytes():
                raise CheckFailed(f"frame {k} gray blob differs from its render")


def quat_angle(q_est: np.ndarray, q_gt: np.ndarray) -> np.ndarray:
    """Angle of q_est * q_gt^-1 per row, from the chord 2 sin(angle / 4)."""
    sign = np.where((q_est * q_gt).sum(axis=1) < 0.0, -1.0, 1.0)
    chord = np.linalg.norm(q_est - sign[:, None] * q_gt, axis=1)
    return 4.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def accuracy(w: Workload, dataset, poses: np.ndarray, diagnostics: np.ndarray) -> dict:
    """Errors of the finite poses against gt.csv.

    No alignment: every run starts at ground truth.
    """
    finite = np.isfinite(poses).all(axis=1)
    poses, diagnostics = poses[finite], diagnostics[finite]
    gt = dataset.gt
    idx = np.rint(poses[:, 0] * GT_RATE_HZ).astype(int)
    if idx.max() >= len(gt) or np.abs(gt[idx, 0] - poses[:, 0]).max() > 1e-9:
        raise CheckFailed("a pose has no ground-truth row at its timestamp")
    e_p = poses[:, 1:4] - gt[idx, 1:4]
    sq = (e_p**2).sum(axis=1)
    rot = quat_angle(poses[:, 4:8], gt[idx, 4:8])
    r = np.sqrt(sq.mean() / (diagnostics[:, 2] ** 2).mean())

    bound = w.max_err_m or w.max_err_share * float(dataset.meta["path_length"])
    worst = float(np.sqrt(sq.max()))
    if worst > bound:
        raise CheckFailed(f"position error {worst:.4f} m exceeds the {bound:.4f} m bound")
    return {
        "pos_err_rmse_m": float(np.sqrt(sq.mean())),
        "rot_err_rmse_rad": float(np.sqrt((rot**2).mean())),
        "sigma_mismatch": float(max(r, 1.0 / r)),
    }


# -- a whole run ----------------------------------------------------------------


def check_outputs(w: Workload, dataset, dataset_dir: Path, rounds, seed: int):
    """All output checks; returns (accuracy metrics or None, problems found)."""
    first = next((r for r in rounds if r.poses is not None), None)
    if first is None:
        return None, ["no round produced a pose stream"]
    try:
        check_maps(w, dataset_dir, dataset.n_frames(), seed)
        check_poses(first.poses, dataset.n_frames(), dataset.fps)
        if any(r.poses is not None and not np.array_equal(r.poses, first.poses, equal_nan=True)
               for r in rounds):
            raise CheckFailed("rounds on the same dataset gave different poses")
        return accuracy(w, dataset, first.poses, first.diagnostics), []
    except CheckFailed as e:
        return None, [str(e)]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, rss_own: bool) -> dict:
    """One workload.  ``rss_own``: no other workload has run in this process."""
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        dataset, dataset_dir, setup_times = set_up(w, work, 1 if trace else SETUPS)
        if tracer:
            tracer.uninstall()
        round_s = dataset.n_frames() * w.ref_frame_ms / 1e3 * (2 if trace else 1)
        rounds, traced = measure(dataset, max(1, int(seconds / round_s + 0.5)), tracer)
        acc, problems = check_outputs(w, dataset, dataset_dir, rounds, seed)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    n_frames = dataset.n_frames()
    if trace:
        metrics = tracing.per_layer(tracer, rounds, traced)
        write_trace(w, seed, tracer)
    else:
        frame_ms = np.concatenate([r.frame_ms for r in rounds])
        values = {
            "frame_ms_p50": float(np.percentile(frame_ms, 50)),
            "frame_ms_p90": float(np.percentile(frame_ms, 90)),
            "fps": sum(r.frames_ok for r in rounds) / sum(r.wall_s for r in rounds),
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **(acc or {}),
        }
        if not rss_own:
            del values["peak_rss_mb"]
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": acc is not None,
        "attempted": len(rounds) * (n_frames + 1),
        "failed": sum(n_frames - r.frames_ok + bool(r.eval_error) for r in rounds),
        "metrics": metrics,
        "_report": {
            "workload": w.name,
            "seed": seed,
            "rounds": len(rounds),
            "frames": n_frames,
            "errors": sorted({r.error for r in rounds if r.error}
                             | {r.eval_error for r in rounds if r.eval_error}),
            "problems": problems,
        },
    }


def measure(dataset, n_rounds: int, tracer):
    """Run ``n_rounds`` whole rounds, or as many pairs of rounds when traced.

    The count is planned from ``--seconds`` and the workload's reference frame
    time, not from the clock, so every run of a workload makes the same rounds
    however fast the host is at the moment.  Traced runs make pairs of an
    untraced and a traced round, so the tracing overhead is measured on the
    same frames in the same process.  Returns (all rounds, the traced indices).
    """
    rounds, traced = [], []
    for _ in range(n_rounds):
        rounds.append(run_round(dataset))
        if tracer:
            tracer.install()
            try:
                rounds.append(run_round(dataset, tracer))
            finally:
                tracer.uninstall()
            traced.append(len(rounds) - 1)
    return rounds, traced


def write_trace(w: Workload, seed: int, tracer) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"trace-{w.name}-seed{seed}.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"setup": tracer.setup}) + "\n")
        for rec in tracer.frames:
            f.write(json.dumps(rec) + "\n")


def print_report(result: dict) -> None:
    rep = result["_report"]
    print(f"{rep['workload']} seed {rep['seed']}: {rep['rounds']} rounds of {rep['frames']} frames, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for err in rep["errors"]:
        print(f"  failed operation: {err}")
    for prob in rep["problems"]:
        print(f"  check failed: {prob}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for i, name in enumerate(names):
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), i == 0)
        print_report(result)
        if not args.trace and i > 0:
            print(f"  peak_rss_mb not reported: the process peak includes {names[0]}; "
                  f"run {name} alone to measure it")
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        if len(names) > 1:
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
