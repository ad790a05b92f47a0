from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binvio import simgen
from binvio.emulator import (
    FAST_ARC_LENGTH,
    FAST_CIRCLE,
    BinaryMap,
    GrayFrame,
    MapKind,
    _budgeted_selection,
    _fast_pass_and_score,
    detect_corners,
    detect_edges,
    inject_analog_noise,
    suppress_non_maxima,
)

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_Y = SOBEL_X.T


def brute_force_sobel_edges(pixels, threshold):
    """Direct 3x3 convolution oracle, border ring zero."""
    img = pixels.astype(np.int64)
    out = np.zeros_like(img, dtype=np.uint8)
    for r in range(1, img.shape[0] - 1):
        for c in range(1, img.shape[1] - 1):
            patch = img[r - 1:r + 2, c - 1:c + 2]
            gx = float((patch * SOBEL_X).sum())
            gy = float((patch * SOBEL_Y).sum())
            if abs(gx) + abs(gy) >= threshold:
                out[r, c] = 1
    return out


def ring_arcs(pixels, r, c, threshold):
    """(bright, dark) arcs at one pixel, by checking all 16 arc start positions."""
    img = pixels.astype(np.int64)
    center = img[r, c]
    ring = np.array([img[r + dr, c + dc] for dr, dc in FAST_CIRCLE])
    arcs = []
    for flags in (ring > center + threshold, ring < center - threshold):
        doubled = np.concatenate([flags, flags])
        arcs.append(any(doubled[s:s + FAST_ARC_LENGTH].all() for s in range(16)))
    return tuple(arcs)


def brute_force_segment_test(pixels, r, c, threshold):
    return any(ring_arcs(pixels, r, c, threshold))


def brute_force_score(pixels, r, c, threshold):
    """Sum of |diff| - threshold over the ring pixels of each arc that exists."""
    img = pixels.astype(np.int64)
    diffs = [img[r + dr, c + dc] - img[r, c] for dr, dc in FAST_CIRCLE]
    bright, dark = ring_arcs(pixels, r, c, threshold)
    score = 0
    if bright:
        score += sum(d - threshold for d in diffs if d > threshold)
    if dark:
        score += sum(-d - threshold for d in diffs if d < -threshold)
    return int(score)


def plane_stack_pass_and_score(pixels, threshold):
    """The segment test as 16 difference planes and 32 nine-deep reductions.

    Kept as the reference that the ring-code implementation must match
    bit for bit.
    """
    img = pixels.astype(np.int32)
    h, w = img.shape
    m = 3
    center = img[m:h - m, m:w - m]
    shape = (16,) + center.shape
    brighter = np.zeros(shape, dtype=bool)
    darker = np.zeros(shape, dtype=bool)
    diffs = np.zeros(shape, dtype=np.int32)
    for i, (dr, dc) in enumerate(FAST_CIRCLE):
        ring = img[m + dr:h - m + dr, m + dc:w - m + dc]
        diffs[i] = ring - center
        brighter[i] = diffs[i] > threshold
        darker[i] = diffs[i] < -threshold

    def has_arc(flags):
        doubled = np.concatenate([flags, flags[: FAST_ARC_LENGTH - 1]], axis=0)
        hit = np.zeros(center.shape, dtype=bool)
        for s in range(16):
            hit |= np.logical_and.reduce(doubled[s:s + FAST_ARC_LENGTH], axis=0)
        return hit

    bright_corner = has_arc(brighter)
    dark_corner = has_arc(darker)

    score_b = np.where(brighter, diffs - threshold, 0).sum(axis=0)
    score_d = np.where(darker, -diffs - threshold, 0).sum(axis=0)
    score_inner = np.where(bright_corner, score_b, 0) + np.where(dark_corner, score_d, 0)

    passes = np.zeros((h, w), dtype=bool)
    score = np.zeros((h, w), dtype=np.int64)
    passes[m:h - m, m:w - m] = bright_corner | dark_corner
    score[m:h - m, m:w - m] = score_inner
    return passes, score


def frame_from(pixels, t=0.0):
    return GrayFrame(np.asarray(pixels, dtype=np.uint8), t)


class TestDetectEdges:
    def test_uniform_frame_all_zero(self):
        out = detect_edges(frame_from(np.full((256, 256), 77)), threshold=80)
        assert out.bits.sum() == 0
        assert out.kind is MapKind.EDGE

    def test_vertical_step_edge(self):
        c = 100
        pixels = np.zeros((256, 256), dtype=np.uint8)
        pixels[:, c:] = 200
        out = detect_edges(frame_from(pixels), threshold=80)
        oracle = brute_force_sobel_edges(pixels, 80)
        np.testing.assert_array_equal(out.bits, oracle)
        # interior rows light up exactly on the two columns astride the step
        cols = np.unique(np.nonzero(out.bits)[1])
        np.testing.assert_array_equal(cols, [c - 1, c])
        rows = np.unique(np.nonzero(out.bits)[0])
        np.testing.assert_array_equal(rows, np.arange(1, 255))

    def test_checkerboard_matches_oracle(self):
        rr, cc = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        pixels = np.where((rr // 2 + cc // 2) % 2 == 0, 30, 220).astype(np.uint8)
        out = detect_edges(frame_from(pixels), threshold=80)
        np.testing.assert_array_equal(out.bits, brute_force_sobel_edges(pixels, 80))

    def test_random_frame_matches_oracle(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        out = detect_edges(frame_from(pixels), threshold=300)
        np.testing.assert_array_equal(out.bits, brute_force_sobel_edges(pixels, 300))

    def test_border_ring_zero(self):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        out = detect_edges(frame_from(pixels), threshold=10)
        assert out.bits[0].sum() == 0 and out.bits[-1].sum() == 0
        assert out.bits[:, 0].sum() == 0 and out.bits[:, -1].sum() == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            detect_edges(frame_from(np.zeros((256, 256))), threshold=0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        base = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        dx, dy = 5, 3
        shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
        a = detect_edges(frame_from(base), 120).bits
        b = detect_edges(frame_from(shifted), 120).bits
        margin = 8
        np.testing.assert_array_equal(
            a[margin:-margin, margin:-margin],
            b[margin + dy:256 - margin + dy, margin + dx:256 - margin + dx],
        )


class TestDetectCorners:
    def test_uniform_frame_empty(self):
        out = detect_corners(frame_from(np.full((256, 256), 128)), 20)
        assert out.bits.sum() == 0
        assert out.kind is MapKind.CORNER

    def test_bright_square_corners_pass_segment_test(self):
        pixels = np.full((256, 256), 20, dtype=np.uint8)
        r0, c0 = 100, 100
        pixels[r0:r0 + 3, c0:c0 + 3] = 220
        passes, _ = _fast_pass_and_score(pixels, 20)
        corners = [(r0, c0), (r0, c0 + 2), (r0 + 2, c0), (r0 + 2, c0 + 2)]
        for r, c in corners:
            assert brute_force_segment_test(pixels, r, c, 20), "oracle disagrees"
            assert passes[r, c]

    def test_segment_test_matches_oracle_on_random_patches(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        passes, _ = _fast_pass_and_score(pixels, 25)
        check = rng.integers(3, 253, size=(300, 2))
        for r, c in check:
            assert passes[r, c] == brute_force_segment_test(pixels, r, c, 25)

    def test_cap_never_exceeded(self):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        out = detect_corners(frame_from(pixels), fast_threshold=5, max_points=800)
        assert out.bits.sum() <= 800
        out_small = detect_corners(frame_from(pixels), fast_threshold=5, max_points=50)
        assert out_small.bits.sum() <= 50

    def test_max_points_validation(self):
        for bad in (801, 0, -1):
            with pytest.raises(ValueError):
                detect_corners(frame_from(np.zeros((256, 256))), 20, max_points=bad)

    def test_output_subset_of_segment_test(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        out = detect_corners(frame_from(pixels), fast_threshold=15)
        passes, _ = _fast_pass_and_score(pixels, 15)
        assert np.all(passes[out.bits.astype(bool)])

    def test_translation_equivariance(self):
        rng = np.random.default_rng(6)
        base = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        dx, dy = 4, 7
        shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
        # stay under the cap: the grid-bucketed budget is anchored to absolute
        # cells and is not expected to commute with shifts
        a = detect_corners(frame_from(base), 105).bits
        b = detect_corners(frame_from(shifted), 105).bits
        assert 0 < a.sum() < 800
        margin = 12
        np.testing.assert_array_equal(
            a[margin:-margin, margin:-margin],
            b[margin + dy:256 - margin + dy, margin + dx:256 - margin + dx],
        )

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        a = detect_corners(frame_from(pixels), 10, 300)
        b = detect_corners(frame_from(pixels), 10, 300)
        np.testing.assert_array_equal(a.bits, b.bits)

    @given(
        st.integers(7, 24).flatmap(
            lambda n: st.lists(st.integers(0, 255), min_size=n * n, max_size=n * n).map(
                lambda v: np.array(v, dtype=np.uint8).reshape(n, n)
            )
        ),
        st.one_of(st.integers(0, 60), st.integers(0, 240).map(lambda k: k / 4)),
    )
    def test_ring_code_matches_brute_force(self, pixels, threshold):
        passes, score = _fast_pass_and_score(pixels, threshold)
        ref_passes, ref_score = plane_stack_pass_and_score(pixels, threshold)
        assert passes.tobytes() == ref_passes.tobytes()
        assert score.tobytes() == ref_score.tobytes()
        n = pixels.shape[0]
        assert not passes[:3].any() and not passes[n - 3:].any()
        assert not passes[:, :3].any() and not passes[:, n - 3:].any()
        for r in range(3, n - 3):
            for c in range(3, n - 3):
                assert passes[r, c] == brute_force_segment_test(pixels, r, c, threshold)
                assert score[r, c] == brute_force_score(pixels, r, c, threshold)

    def test_maps_match_plane_stack_on_gentle_frames(self):
        cfg = replace(simgen.preset_config("gentle", seed=4, duration=0.06), mode="grayscale")
        frames = [frame for _, frame in simgen.build_dataset(cfg).iter_frames()]
        assert len(frames) == 15
        for frame in frames:
            for threshold in (0, 13.37, 20.0, 20.5, 25, 300, float("inf")):
                passes, score = plane_stack_pass_and_score(frame.pixels, threshold)
                got_passes, got_score = _fast_pass_and_score(frame.pixels, threshold)
                np.testing.assert_array_equal(got_passes, passes)
                np.testing.assert_array_equal(got_score, score)
                assert got_score.dtype == score.dtype
                keep = suppress_non_maxima(passes, score)
                for cap in (800, 100):
                    expected = _budgeted_selection(keep, score, cap).astype(np.uint8)
                    got = detect_corners(frame, threshold, cap).bits
                    assert got.tobytes() == expected.tobytes()


class TestSuppressNonMaxima:
    @pytest.mark.parametrize("first, second", [
        ((3, 3), (3, 4)), ((3, 3), (4, 3)), ((3, 3), (4, 4)), ((3, 4), (4, 3)),
    ], ids=["horizontal", "vertical", "diagonal", "anti-diagonal"])
    def test_tie_keeps_the_later_pixel_in_raster_order(self, first, second):
        passes = np.zeros((8, 8), dtype=bool)
        score = np.zeros((8, 8), dtype=np.int64)
        for pixel in (first, second):
            passes[pixel] = True
            score[pixel] = 40
        keep = suppress_non_maxima(passes, score)
        assert np.argwhere(keep).tolist() == [list(second)]

    def test_stronger_neighbour_wins_either_way(self):
        passes = np.zeros((8, 8), dtype=bool)
        passes[3, 3] = passes[3, 4] = True
        score = np.zeros((8, 8), dtype=np.int64)
        score[3, 3], score[3, 4] = 41, 40
        assert np.argwhere(suppress_non_maxima(passes, score)).tolist() == [[3, 3]]


class TestInjectAnalogNoise:
    def make_map(self, seed=0):
        rng = np.random.default_rng(seed)
        return BinaryMap((rng.random((256, 256)) < 0.05).astype(np.uint8), MapKind.EDGE)

    def test_zero_rate_identity(self):
        m = self.make_map()
        out = inject_analog_noise(m, 0.0, seed=42)
        np.testing.assert_array_equal(out.bits, m.bits)

    def test_flip_count_binomial(self):
        m = self.make_map()
        out = inject_analog_noise(m, 0.01, seed=42)
        flipped = int((out.bits != m.bits).sum())
        mean = 65536 * 0.01
        sigma = np.sqrt(65536 * 0.01 * 0.99)
        assert abs(flipped - mean) < 5 * sigma

    def test_deterministic_per_seed(self):
        m = self.make_map()
        a = inject_analog_noise(m, 0.02, seed=9)
        b = inject_analog_noise(m, 0.02, seed=9)
        np.testing.assert_array_equal(a.bits, b.bits)
        c = inject_analog_noise(m, 0.02, seed=10)
        assert (a.bits != c.bits).any()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            inject_analog_noise(self.make_map(), 0.2, seed=0)


class TestBinaryMapFromPoints:
    def test_rounds_and_drops_points_off_the_map(self):
        pts = [(3.4, 7.6), (255.4, 0.0), (-0.6, 10.0), (255.5, 3.0), (12.0, -0.4), (12.0, 256.2)]
        m = BinaryMap.from_points(np.array(pts), MapKind.CORNER, 1.5)
        want = np.zeros((256, 256), dtype=np.uint8)
        want[8, 3] = want[0, 255] = want[0, 12] = 1  # (u, v) lands at [v, u]
        np.testing.assert_array_equal(m.bits, want)
        assert m.kind is MapKind.CORNER and m.timestamp == 1.5

    def test_no_points_empty_map(self):
        assert not BinaryMap.from_points(np.zeros((0, 2)), MapKind.EDGE).bits.any()
