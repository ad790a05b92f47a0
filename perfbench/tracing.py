"""Per-layer tracing for the benchmark, added around binvio's functions from outside.

``run_pipeline``, ``process_frame`` and ``Dataset.iter_frames`` look their callees
up as module attributes at call time, so replacing an attribute of
``binvio.pipeline``, ``binvio.msckf``, ``binvio.simgen`` or ``binvio.io`` puts a
timer or a counter around every call.  ``install`` swaps the wrappers in and
``uninstall`` puts the originals back, so untraced rounds run the program as is.

The tracer keeps one record per frame in memory: stage times in ms (inclusive,
so ``slam_update_ms`` contains the ``triangulate_ms`` and ``ekf_update_ms`` it
caused), track spawns, deaths by reason, triangulation outcomes by exception
type, chi-squared accepts and rejects, EKF updates with the state dimension at
each, live tracks and the state dimension at the end of the frame, and the
number of wrapper calls, from which the cost of tracing is estimated.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from binvio import io as dataio
from binvio import msckf, pipeline, simgen, tracker

# (owner, attribute, stage key) for functions that only get a timer
TIMED = [
    (simgen, "render_frame", "render_ms"),
    (dataio, "load_binary_map", "decode_ms"),
    (dataio, "load_gray_frame", "decode_ms"),
    (pipeline, "detect_edges", "edges_ms"),
    (pipeline, "detect_corners", "corners_ms"),
    (pipeline, "feather", "feather_ms"),
    (msckf, "propagate_block", "propagate_ms"),
    (msckf, "slam_update", "slam_update_ms"),
    (msckf, "msckf_update", "msckf_update_ms"),
]

# Stages that together make up a frame; the rest of the frame is pipeline glue.
FRAME_STAGES = ("decode_ms", "edges_ms", "corners_ms", "feather_ms", "track_ms", "filter_ms")
DEATH_REASONS = ("oob", "singular", "residual", "window-exit", "stale")
TRIANGULATION_FAILURES = ("InsufficientBaseline", "BehindCamera", "NoConvergence")


class Tracer:
    def __init__(self):
        self.setup = defaultdict(float)
        self.rec = self.setup          # record that wrappers write into
        self.frames: list[dict] = []   # closed frame records of traced rounds
        self.round = 0
        self._frame = -1
        self._opened = 0.0
        self._saved = []

    # -- frame boundaries ------------------------------------------------

    def stamp(self, now: float) -> None:
        """Called at each request for the next frame: close one record, open the next."""
        if self._frame >= 0:
            self.rec["frame_ms"] = (now - self._opened) * 1e3
            self.frames.append(dict(self.rec, round=self.round, frame=self._frame))
        self._frame += 1
        self._opened = now
        self.rec = defaultdict(float)

    def end_round(self) -> None:
        """Drop the record opened by the end-of-frames request; start a new round."""
        self.round += 1
        self._frame = -1
        self.rec = defaultdict(float)

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, name, key in TIMED:
            self._swap(owner, name, self._timed(getattr(owner, name), key))
        self._swap(pipeline, "track_frame", self._track_frame(pipeline.track_frame))
        self._swap(pipeline, "process_frame", self._process_frame(pipeline.process_frame))
        self._swap(msckf, "_ekf_update", self._ekf_update(msckf._ekf_update))
        self._swap(msckf, "triangulate", self._triangulate(msckf.triangulate))
        self._swap(msckf, "_chi2_gate", self._chi2_gate(msckf._chi2_gate))
        self._swap(tracker.FeatureTrack, "mark_dead",
                   self._mark_dead(tracker.FeatureTrack.mark_dead))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _swap(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _timed(self, fn, key):
        def timed(*args, **kwargs):
            self.rec["wrapper_calls"] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rec[key] += (time.perf_counter() - t0) * 1e3
                self.rec[key.replace("_ms", "_calls")] += 1
        return timed

    def _track_frame(self, fn):
        timed = self._timed(fn, "track_ms")

        def track_frame(table, *args, **kwargs):
            self.rec["wrapper_calls"] += 1
            before = table.next_id
            out = timed(table, *args, **kwargs)
            self.rec["spawned"] += table.next_id - before
            return out
        return track_frame

    def _process_frame(self, fn):
        timed = self._timed(fn, "filter_ms")

        def process_frame(state, *args, **kwargs):
            self.rec["wrapper_calls"] += 1
            result = timed(state, *args, **kwargs)
            self.rec["live_tracks"] = result.live_tracks
            self.rec["state_dim"] = state.dim()
            return result
        return process_frame

    def _ekf_update(self, fn):
        timed = self._timed(fn, "ekf_update_ms")

        def ekf_update(state, H, r):
            self.rec["wrapper_calls"] += 1
            self.rec["ekf_state_dim_sum"] += state.dim()
            return timed(state, H, r)
        return ekf_update

    def _triangulate(self, fn):
        timed = self._timed(fn, "triangulate_ms")

        def triangulate(*args, **kwargs):
            self.rec["wrapper_calls"] += 1
            try:
                return timed(*args, **kwargs)
            except Exception as e:
                self.rec[f"triangulate_failed.{type(e).__name__}"] += 1
                raise
        return triangulate

    def _chi2_gate(self, fn):
        def chi2_gate(*args, **kwargs):
            self.rec["wrapper_calls"] += 1
            accepted = fn(*args, **kwargs)
            self.rec["chi2_accepted" if accepted else "chi2_rejected"] += 1
            return accepted
        return chi2_gate

    def _mark_dead(self, fn):
        def mark_dead(track, reason=""):
            self.rec["wrapper_calls"] += 1
            if track.status is not tracker.TrackStatus.DEAD:
                self.rec[f"deaths.{reason or 'unspecified'}"] += 1
            return fn(track, reason)
        return mark_dead


COST_CALLS, COST_BATCHES = 20000, 5


def wrapper_cost_ms(tracer: Tracer) -> float:
    """What one wrapper call adds, in ms: a timed no-op against the bare no-op.

    The median of COST_BATCHES batches of COST_CALLS calls each.
    """
    def noop():
        pass

    wrapped = tracer._timed(noop, "probe_ms")
    saved, tracer.rec = tracer.rec, defaultdict(float)
    costs = []
    try:
        for _ in range(COST_BATCHES):
            t0 = time.perf_counter()
            for _ in range(COST_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(COST_CALLS):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / COST_CALLS * 1e3)
    finally:
        tracer.rec = saved
    return float(np.median(costs))


def paired_overhead_ms(rounds, traced: list[int]) -> float:
    """Median over frames of traced frame k minus untraced frame k of the same pair."""
    diffs = []
    for i in traced:
        on, off = rounds[i].frame_ms, rounds[i - 1].frame_ms
        n = min(len(on), len(off))
        diffs.append(on[:n] - off[:n])
    return float(np.median(np.concatenate(diffs)))


def per_layer(tracer: Tracer, rounds, traced: list[int]) -> dict:
    """Per-layer metrics: ms per traced frame, counts per round, overhead in ms."""
    frames = tracer.frames
    n_rounds = len(traced)

    def per_frame(key):
        return float(np.mean([f.get(key, 0.0) for f in frames]))

    def per_round(key):
        return sum(f.get(key, 0.0) for f in frames) / n_rounds

    frame_ms = per_frame("frame_ms")
    calls = per_round("triangulate_calls")
    failed = {name: per_round(f"triangulate_failed.{name}") for name in TRIANGULATION_FAILURES}
    failed_all = sum(v for f in frames for k, v in f.items()
                     if k.startswith("triangulate_failed.")) / n_rounds
    updates = per_round("ekf_update_calls")
    renders = tracer.setup.get("render_calls", 0.0)
    wrapper_calls = per_frame("wrapper_calls")

    m = {
        "simgen.render_ms": (tracer.setup["render_ms"] / renders if renders else 0.0, "ms"),
        "io.decode_ms": (per_frame("decode_ms"), "ms"),
        "emulator.edges_ms": (per_frame("edges_ms"), "ms"),
        "emulator.corners_ms": (per_frame("corners_ms"), "ms"),
        "tracker.feather_ms": (per_frame("feather_ms"), "ms"),
        "tracker.track_ms": (per_frame("track_ms"), "ms"),
        "tracker.live_tracks": (per_frame("live_tracks"), "count"),
        "tracker.spawned": (per_round("spawned"), "count"),
    }
    for reason in DEATH_REASONS:
        m[f"tracker.deaths_{reason}"] = (per_round(f"deaths.{reason}"), "count")
    m.update({
        "imu.propagate_ms": (per_frame("propagate_ms"), "ms"),
        "msckf.filter_ms": (per_frame("filter_ms"), "ms"),
        "msckf.slam_update_ms": (per_frame("slam_update_ms"), "ms"),
        "msckf.msckf_update_ms": (per_frame("msckf_update_ms"), "ms"),
        "msckf.ekf_update_ms": (per_frame("ekf_update_ms"), "ms"),
        "msckf.ekf_updates": (updates, "count"),
        "msckf.state_dim": (per_round("ekf_state_dim_sum") / updates if updates else 0.0, "dim"),
        "msckf.triangulate_ms": (per_frame("triangulate_ms"), "ms"),
        "msckf.triangulate_calls": (calls, "count"),
        "msckf.triangulate_failed": (failed_all, "count"),
    })
    for name, value in failed.items():
        m[f"msckf.triangulate_failed_{name}"] = (value, "count")
    m.update({
        "msckf.triangulate_ok_ratio": ((calls - failed_all) / calls if calls else 1.0, "ratio"),
        "msckf.chi2_accepted": (per_round("chi2_accepted"), "count"),
        "msckf.chi2_rejected": (per_round("chi2_rejected"), "count"),
        "pipeline.frame_ms": (frame_ms, "ms"),
        "pipeline.glue_ms": (frame_ms - sum(per_frame(k) for k in FRAME_STAGES), "ms"),
        "evaluate.ate_ms": (float(np.mean([r.eval_ms for r in rounds])), "ms"),
        "trace.wrapper_calls": (wrapper_calls, "count"),
        "trace.wrapper_cost_ms": (wrapper_calls * wrapper_cost_ms(tracer), "ms"),
        "trace.overhead_ms": (paired_overhead_ms(rounds, traced), "ms"),
    })
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

