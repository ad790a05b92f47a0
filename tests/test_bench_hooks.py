"""The benchmark's tracer (perfbench/tracing.py) swaps binvio attributes by name.

A rename in binvio that the tracer does not follow breaks the benchmark's
per-layer counts; these tests run the tracer as the benchmark does and fail first.
"""

import sys
from pathlib import Path

import pytest

from binvio import msckf, pipeline, tracker
from binvio import simgen as sg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

HOOKS = [(owner, name) for owner, name, _ in tracing.TIMED] + [
    (pipeline, "track_frame"),
    (pipeline, "process_frame"),
    (msckf, "_ekf_update"),
    (msckf, "triangulate"),
    (msckf, "_chi2_gate"),
    (tracker.FeatureTrack, "mark_dead"),
]


@pytest.fixture(scope="module")
def traced():
    """One 0.2 s hostile run under the tracer: (counts, originals, attributes after uninstall)."""
    ds = sg.build_dataset(sg.preset_config("hostile", duration=0.2, seed=1))
    originals = {(owner, name): getattr(owner, name) for owner, name in HOOKS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        swapped = [(o, n) for o, n in HOOKS if getattr(o, n) is not originals[o, n]]
        pipeline.run_pipeline(ds)
    finally:
        tracer.uninstall()
    after = {(owner, name): getattr(owner, name) for owner, name in HOOKS}
    # no frame stamps: the whole run is counted in one record
    return tracer.setup, originals, swapped, after


def test_every_death_counted_once(traced):
    rec, *_ = traced
    deaths = sum(v for k, v in rec.items() if k.startswith("deaths."))
    assert rec["spawned"] > 0
    assert deaths > 0
    assert deaths == rec["spawned"] - rec["live_tracks"]


def test_filter_hooks_fire(traced):
    rec, *_ = traced
    assert rec["ekf_update_calls"] > 0
    assert rec["chi2_accepted"] > 0
    assert rec["triangulate_calls"] > 0
    assert rec["state_dim"] > 0


def test_uninstall_restores_every_hook(traced):
    _, originals, swapped, after = traced
    assert swapped == HOOKS
    assert after == originals
