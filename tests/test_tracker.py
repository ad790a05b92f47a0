import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from binvio import tracker as tk
from binvio.emulator import MAP_SIZE, MAX_CORNER_POINTS, BinaryMap, MapKind
from binvio.tracker import (
    TrackerConfig,
    TrackStatus,
    TrackTable,
    feather,
    shi_tomasi_on_edges,
    track_frame,
)


WIDTH = 16  # observations a track table row keeps, as the pipeline sizes it


def edge_map(bits):
    return BinaryMap(np.asarray(bits, dtype=np.uint8), MapKind.EDGE)


def brute_force_feather(bits, sigma):
    """Direct 2-D convolution with the normalized truncated Gaussian."""
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kern = np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2) / sigma**2)
    kern /= kern.sum()
    img = bits.astype(float) * 128.0
    out = np.zeros_like(img)
    h, w = img.shape
    rows, cols = np.nonzero(bits)
    for r, c in zip(rows, cols):
        for dr in range(-radius, radius + 1):
            for dc in range(-radius, radius + 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    out[rr, cc] += 128.0 * kern[dr + radius, dc + radius]
    return np.clip(np.rint(out), 0, 128).astype(np.uint8)


def feather_with_copies(bits, sigma):
    """The separable feather formula with a fresh array for every step."""
    k = tk.gaussian_kernel_1d(sigma)
    img = bits.astype(np.float64) * tk.EDGE_INTENSITY
    out = ndimage.correlate1d(img, k, axis=0, mode="constant", cval=0.0)
    out = ndimage.correlate1d(out, k, axis=1, mode="constant", cval=0.0)
    return np.clip(np.rint(out), 0, tk.EDGE_INTENSITY).astype(np.uint8)


def window_offsets(window):
    r = window // 2
    dv, du = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    return du.ravel().astype(float), dv.ravel().astype(float)


def bilinear(img, x, y):
    """Per-sample bilinear lookup; caller guarantees 0 <= x,y <= size-1."""
    x0 = np.clip(np.floor(x).astype(np.intp), 0, MAP_SIZE - 2)
    y0 = np.clip(np.floor(y).astype(np.intp), 0, MAP_SIZE - 2)
    wx = x - x0
    wy = y - y0
    flat = img.ravel()
    base = y0 * MAP_SIZE + x0
    v00 = flat[base]
    v01 = flat[base + 1]
    v10 = flat[base + MAP_SIZE]
    v11 = flat[base + MAP_SIZE + 1]
    return (v00 * (1 - wx) + v01 * wx) * (1 - wy) + (v10 * (1 - wx) + v11 * wx) * wy


def in_bounds(x, y, margin):
    lim = MAP_SIZE - 1 - margin
    return (x.min(axis=-1) >= margin) & (x.max(axis=-1) <= lim) & \
           (y.min(axis=-1) >= margin) & (y.max(axis=-1) <= lim)


# Displacements of the float32 KLT against the float64 per-sample reference:
# the largest gap measured was 1.5e-6 px, over the 11,711 stable surviving
# tracks of 300 generated examples like TestPatchSampler's (18,000 tracks,
# every verdict equal), so the bound has a margin of 6x.
KLT_FLOAT32_TOL_PX = 1e-5


def reference_batch_track(prev_f, next_f, points, guesses, cfg):
    """Per-sample lockstep KLT in float64: every window sample is its own bilinear gather.

    Same contract as ``tracker._batch_track``; gradients are sampled as
    central differences of bilinear lookups one pixel apart.

    A fourth array, ``stable``, marks the tracks whose displacement is a
    rounding-stable function of the inputs: their iteration stopped on the
    epsilon test, or ``max_iters`` is 1, and no step came within
    ``KLT_FLOAT32_TOL_PX`` of epsilon.  A step that close to epsilon may stop
    one iteration earlier or later under other rounding.  A track still
    stepping after several iterations has not contracted, so rounding grows
    as its iteration amplifies it (2.6 px after 30 steps on one measured
    example); a single step cannot amplify it.
    """
    n = points.shape[0]
    du_off, dv_off = window_offsets(cfg.window)
    xs = points[:, 0:1] + du_off[None, :]
    ys = points[:, 1:2] + dv_off[None, :]

    ok = np.ones(n, dtype=bool)
    reason = np.array([""] * n, dtype=object)

    template_ok = in_bounds(xs, ys, 1.0)
    ok &= template_ok
    reason[~template_ok] = "oob"

    t = bilinear(prev_f, xs, ys)
    gx = 0.5 * (bilinear(prev_f, xs + 1.0, ys) - bilinear(prev_f, xs - 1.0, ys))
    gy = 0.5 * (bilinear(prev_f, xs, ys + 1.0) - bilinear(prev_f, xs, ys - 1.0))
    h00 = (gx * gx).sum(axis=-1)
    h01 = (gx * gy).sum(axis=-1)
    h11 = (gy * gy).sum(axis=-1)
    H = np.stack([h00, h01, h01, h11], axis=-1).reshape(n, 2, 2)
    singular = tk._min_eigenvalue(h00, h01, h11) < tk.MIN_EIGENVALUE
    reason[ok & singular] = "singular"
    ok &= ~singular

    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2
    det[~ok] = 1.0

    u = guesses.copy()
    stopped = np.zeros(n, dtype=bool)
    near_epsilon = np.zeros(n, dtype=bool)
    active_idx = np.nonzero(ok)[0]
    for _ in range(cfg.max_iters):
        if active_idx.size == 0:
            break
        sx = xs[active_idx] + u[active_idx, 0:1]
        sy = ys[active_idx] + u[active_idx, 1:2]
        inside = in_bounds(sx, sy, 0.0)
        out_ids = active_idx[~inside]
        reason[out_ids] = "oob"
        ok[out_ids] = False
        active_idx = active_idx[inside]
        if active_idx.size == 0:
            break
        sx = sx[inside]
        sy = sy[inside]
        i1 = bilinear(next_f, sx, sy)
        r = t[active_idx] - i1
        g0 = (gx[active_idx] * r).sum(axis=1)
        g1 = (gy[active_idx] * r).sum(axis=1)
        Ha = H[active_idx]
        da = det[active_idx]
        du0 = (Ha[:, 1, 1] * g0 - Ha[:, 0, 1] * g1) / da
        du1 = (-Ha[:, 0, 1] * g0 + Ha[:, 0, 0] * g1) / da
        u[active_idx, 0] += du0
        u[active_idx, 1] += du1
        step2 = du0 * du0 + du1 * du1
        near_epsilon[active_idx] |= np.abs(np.sqrt(step2) - cfg.epsilon) <= KLT_FLOAT32_TOL_PX
        still = step2 >= cfg.epsilon**2
        stopped[active_idx[~still]] = True
        active_idx = active_idx[still]

    sx = xs + u[:, 0:1]
    sy = ys + u[:, 1:2]
    inside = in_bounds(sx, sy, 0.0)
    newly_out = ok & ~inside
    reason[newly_out] = "oob"
    ok &= inside
    i1 = bilinear(next_f, np.clip(sx, 0, MAP_SIZE - 1), np.clip(sy, 0, MAP_SIZE - 1))
    mean_resid = np.abs(t - i1).mean(axis=1)
    gated = ok & (mean_resid > cfg.photometric_gate)
    reason[gated] = "residual"
    ok &= ~gated
    return u, ok, reason, (stopped | (cfg.max_iters == 1)) & ~near_epsilon


def track_one(prev, nxt, point, cfg, guess=(0.0, 0.0)):
    """``_batch_track`` on a single point: (displacement, ok, reason)."""
    disp, ok, reason = tk._batch_track(
        prev, nxt, np.array([point], dtype=float),
        np.array([guess], dtype=float), cfg, tk.KltWorkspace(),
    )
    return disp[0], bool(ok[0]), reason[0]


def exhaustive_ssd(prev, nxt, point, window, search=5):
    """Integer SSD search with parabolic sub-pixel refinement."""
    du_off, dv_off = window_offsets(window)
    xs = point[0] + du_off
    ys = point[1] + dv_off
    t = bilinear(prev, xs, ys)
    shifts = np.arange(-search, search + 1)
    ssd = np.zeros((len(shifts), len(shifts)))
    for i, dy in enumerate(shifts):
        for j, dx in enumerate(shifts):
            v = bilinear(nxt, xs + dx, ys + dy)
            ssd[i, j] = ((t - v) ** 2).sum()
    i, j = np.unravel_index(np.argmin(ssd), ssd.shape)

    def refine(m1, m0, p1):
        denom = m1 - 2 * m0 + p1
        return 0.0 if abs(denom) < 1e-12 else 0.5 * (m1 - p1) / denom

    dx = shifts[j] + (refine(ssd[i, j - 1], ssd[i, j], ssd[i, j + 1]) if 0 < j < len(shifts) - 1 else 0.0)
    dy = shifts[i] + (refine(ssd[i - 1, j], ssd[i, j], ssd[i + 1, j]) if 0 < i < len(shifts) - 1 else 0.0)
    return np.array([dx, dy])


def random_edge_bits(rng, density=0.03):
    return (rng.random((256, 256)) < density).astype(np.uint8)


class TestFeather:
    def test_empty_map_zero(self):
        out = feather(edge_map(np.zeros((256, 256))), 2.5)
        assert out.sum() == 0

    def test_single_pixel_matches_brute_force(self):
        bits = np.zeros((256, 256), dtype=np.uint8)
        bits[100, 120] = 1
        out = feather(edge_map(bits), 2.5)
        oracle = brute_force_feather(bits, 2.5)
        np.testing.assert_array_equal(out, oracle)
        # center keeps the peak weight of the normalized kernel times 128
        radius = int(np.ceil(3 * 2.5))
        xs = np.arange(-radius, radius + 1, dtype=float)
        kern = np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2) / 2.5**2)
        kern /= kern.sum()
        assert out[100, 120] == round(128 * kern[radius, radius])

    def test_straight_line_matches_brute_force(self):
        bits = np.zeros((256, 256), dtype=np.uint8)
        bits[:, 128] = 1
        out = feather(edge_map(bits), 2.5)
        np.testing.assert_array_equal(out, brute_force_feather(bits, 2.5))
        # cross-section is symmetric and peaks on the line
        row = out[128].astype(int)
        assert row.argmax() == 128
        np.testing.assert_array_equal(row[128 - 8:128], row[129:129 + 8][::-1])

    def test_random_map_matches_brute_force(self):
        rng = np.random.default_rng(3)
        bits = random_edge_bits(rng, 0.01)
        np.testing.assert_array_equal(
            feather(edge_map(bits), 2.5), brute_force_feather(bits, 2.5)
        )

    def test_disjoint_support_linearity(self):
        a = np.zeros((256, 256), dtype=np.uint8)
        b = np.zeros((256, 256), dtype=np.uint8)
        a[60, 60] = 1
        b[200, 200] = 1  # far beyond kernel diameter
        fa = feather(edge_map(a), 2.5).astype(int)
        fb = feather(edge_map(b), 2.5).astype(int)
        fab = feather(edge_map(a | b), 2.5).astype(int)
        np.testing.assert_array_equal(fab, np.clip(fa + fb, 0, 128))

    @pytest.mark.parametrize("sigma", [0.7, 2.5, 4.0])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.2, 1.0])
    def test_in_place_passes_match_copies(self, sigma, density):
        bits = random_edge_bits(np.random.default_rng(16), density)
        np.testing.assert_array_equal(feather(edge_map(bits), sigma),
                                      feather_with_copies(bits, sigma))

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        out = feather(edge_map(random_edge_bits(rng, 0.5)), 2.5)
        assert out.max() <= 128

    def test_run_owned_planes_match_fresh(self):
        # one pair of planes through maps of every density and three sigmas:
        # each map has the bits of a fresh feather, and is a new array
        rng = np.random.default_rng(22)
        planes = np.full((2, MAP_SIZE, MAP_SIZE), np.nan)
        maps = []
        for density in (0.2, 0.0, 1.0, 0.01, 0.5):
            for sigma in (0.7, 2.5, 4.0):
                bits = random_edge_bits(rng, density)
                out = feather(edge_map(bits), sigma, planes)
                np.testing.assert_array_equal(out, feather(edge_map(bits), sigma))
                assert not np.shares_memory(out, planes)
                maps.append(out)
        assert len({id(m) for m in maps}) == len(maps)


ONE_STEP = TrackerConfig(max_iters=1, epsilon=1e-12, photometric_gate=1e9)
CONVERGE = TrackerConfig(max_iters=50, epsilon=1e-4, photometric_gate=1e9)


class TestKltStep:
    def make_feathered(self, seed=0, density=0.03):
        rng = np.random.default_rng(seed)
        return feather(edge_map(random_edge_bits(rng, density)), 2.5)

    def test_identical_frames_zero_step(self):
        f = self.make_feathered()
        du, ok, _ = track_one(f, f, [128.0, 128.0], ONE_STEP)
        assert ok
        np.testing.assert_allclose(du, [0.0, 0.0], atol=1e-12)

    def test_hessian_symmetric_psd(self):
        f = self.make_feathered(1)
        rng = np.random.default_rng(5)
        pts = rng.uniform(30, 225, size=(50, 2))
        ws = tk.KltWorkspace()
        _, gx, gy = tk._template(f, pts - 21 // 2, 21, ws)
        for H in tk._hessian(gx, gy, ws):
            if tk._min_eigenvalue(H[0, 0], H[0, 1], H[1, 1]) < tk.MIN_EIGENVALUE:
                continue
            assert abs(H[0, 1] - H[1, 0]) < 1e-9
            assert np.linalg.eigvalsh(H).min() >= -1e-9

    def test_integer_shift_vs_ssd_oracle(self):
        f0 = self.make_feathered(2)
        f1 = np.roll(f0, 2, axis=1)
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10:
            pt = rng.uniform(40, 215, size=2)
            u, ok, _ = track_one(f0, f1, pt, CONVERGE)
            if not ok:
                continue
            oracle = exhaustive_ssd(f0.astype(np.float64), f1.astype(np.float64), pt, 21)
            if np.linalg.norm(oracle - [2, 0]) > 0.2:
                continue  # locally ambiguous patch, oracle itself unsure
            assert np.linalg.norm(u - [2.0, 0.0]) < 0.05
            assert np.linalg.norm(u - oracle) < 0.05
            checked += 1

    def test_constant_region_singular(self):
        flat = np.zeros((256, 256), dtype=np.uint8)
        _, ok, reason = track_one(flat, flat, [128.0, 128.0], ONE_STEP)
        assert not ok and reason == "singular"

    def test_out_of_bounds(self):
        f = self.make_feathered(3)
        _, ok, reason = track_one(f, f, [3.0, 128.0], ONE_STEP)
        assert not ok and reason == "oob"

    def test_batch_matches_single(self):
        f0 = self.make_feathered(7)
        f1 = np.roll(f0, 1, axis=0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(40, 215, size=(20, 2))
        disp, ok, _ = tk._batch_track(
            f0, f1, pts, np.zeros_like(pts), ONE_STEP, tk.KltWorkspace()
        )
        for i, pt in enumerate(pts):
            du, single_ok, _ = track_one(f0, f1, pt, ONE_STEP)
            if not single_ok:
                assert not ok[i]
                continue
            assert ok[i]
            np.testing.assert_allclose(disp[i], du, atol=1e-9)


def assert_matches_reference(prev, nxt, points, guesses, cfg):
    """``_batch_track`` on the uint8 maps against the float64 reference on float copies.

    Every verdict and death reason is equal; every surviving track that the
    reference marks stable lies within ``KLT_FLOAT32_TOL_PX`` of its displacement.
    """
    points = np.asarray(points, dtype=float)
    guesses = np.asarray(guesses, dtype=float)
    disp, ok, reason = tk._batch_track(prev, nxt, points, guesses, cfg,
                                       tk.KltWorkspace())
    ref_disp, ref_ok, ref_reason, stable = reference_batch_track(
        prev.astype(np.float64), nxt.astype(np.float64), points, guesses, cfg)
    np.testing.assert_array_equal(ok, ref_ok)
    np.testing.assert_array_equal(reason, ref_reason)
    checked = ok & stable
    np.testing.assert_allclose(disp[checked], ref_disp[checked], rtol=0, atol=KLT_FLOAT32_TOL_PX)
    return ok


class TestPatchSampler:
    """The patch sampler against the per-sample reference."""

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.002, 0.01, 0.04]),
        shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        gate=st.sampled_from([0.5, 1.0, 20.0]),
        integer_points=st.booleans(),
        integer_guesses=st.booleans(),
    )
    def test_matches_reference(self, seed, density, shift, gate, integer_points,
                               integer_guesses):
        # sparse maps give singular windows, flipped bits in the next map
        # give residual deaths, points over the whole image give oob deaths
        rng = np.random.default_rng(seed)
        bits = random_edge_bits(rng, density)
        moved = np.roll(bits, shift, axis=(1, 0)) ^ random_edge_bits(rng, 0.003)
        prev = feather(edge_map(bits), 2.5)
        nxt = feather(edge_map(moved), 2.5)
        pts = rng.uniform(0, MAP_SIZE - 1, size=(60, 2))
        guesses = rng.uniform(-4, 4, size=(60, 2))
        if integer_points:
            pts = np.floor(pts)
        if integer_guesses:
            guesses = np.rint(guesses)
        assert_matches_reference(prev, nxt, pts, guesses, TrackerConfig(photometric_gate=gate))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_window_ending_on_last_pixel(self, axis):
        # the first iteration samples a window whose last column (row) is
        # exactly 255.0, where the patch origin is clamped and the fraction is 1
        rng = np.random.default_rng(15)
        f = feather(edge_map(random_edge_bits(rng, 0.04)), 2.5)
        point = np.full(2, 128.0)
        point[axis] = MAP_SIZE - 2 - 10
        guess = np.zeros(2)
        guess[axis] = 1.0
        assert point[axis] + 10 + guess[axis] == MAP_SIZE - 1
        ok = assert_matches_reference(f, f, [point], [guess], ONE_STEP)
        assert ok[0]


class TestTrackFrame:
    def static_scene(self, seed=0):
        rng = np.random.default_rng(seed)
        bits = random_edge_bits(rng, 0.04)
        corners = np.zeros((256, 256), dtype=np.uint8)
        pts = rng.integers(30, 226, size=(120, 2))
        corners[pts[:, 0], pts[:, 1]] = 1
        return feather(edge_map(bits), 2.5), BinaryMap(corners, MapKind.CORNER)

    def test_static_scene_stationary_tracks(self):
        fmap, corners = self.static_scene()
        cfg = TrackerConfig()
        table = TrackTable(WIDTH)
        track_frame(table, None, fmap, corners, cfg, 0)
        first = dict(zip(table.ids.tolist(), table.pos.copy()))
        assert len(first) > 20
        for k in range(1, 11):
            track_frame(table, fmap, fmap, None, cfg, k)
        assert (table.length == 11).all()
        for tid, pos in zip(table.ids.tolist(), table.pos):
            assert np.linalg.norm(pos - first[tid]) < 0.05

    def test_translating_scene_median_flow(self):
        rng = np.random.default_rng(9)
        bits = random_edge_bits(rng, 0.04)
        cfg = TrackerConfig()
        maps = [feather(edge_map(np.roll(bits, s, axis=1)), 2.5) for s in range(6)]
        corners = np.zeros((256, 256), dtype=np.uint8)
        pts = rng.integers(40, 216, size=(150, 2))
        corners[pts[:, 0], pts[:, 1]] = 1
        table = TrackTable(WIDTH)
        track_frame(table, None, maps[0], BinaryMap(corners, MapKind.CORNER), cfg, 0)
        for k in range(1, 6):
            track_frame(table, maps[k - 1], maps[k], None, cfg, k)
        full = table.length == 6
        flows = np.diff(table.obs_pixels[full, -6:], axis=1).reshape(-1, 2)
        assert len(flows) > 50
        med = np.median(flows, axis=0)
        np.testing.assert_allclose(med, [1.0, 0.0], atol=0.05)

    def test_live_cap(self):
        rng = np.random.default_rng(10)
        bits = random_edge_bits(rng, 0.08)
        fmap = feather(edge_map(bits), 2.5)
        corners = (rng.random((256, 256)) < 0.3).astype(np.uint8)
        cfg = TrackerConfig(min_separation=1.0)
        table = TrackTable(WIDTH)
        track_frame(table, None, fmap, BinaryMap(corners, MapKind.CORNER), cfg, 0)
        assert len(table) <= 800

    def test_min_separation_enforced(self):
        fmap, _ = self.static_scene(11)
        corners = np.zeros((256, 256), dtype=np.uint8)
        corners[100, 100] = 1
        corners[100, 104] = 1  # closer than min_separation
        corners[100, 140] = 1
        table = TrackTable(WIDTH)
        track_frame(table, None, fmap, BinaryMap(corners, MapKind.CORNER), TrackerConfig(), 0)
        assert len(table) == 2

    def test_observations_append_only(self):
        fmap, corners = self.static_scene(12)
        table = TrackTable(WIDTH)
        cfg = TrackerConfig()
        track_frame(table, None, fmap, corners, cfg, 0)
        snapshot = dict(zip(table.ids.tolist(), table.obs_pixels.copy()))
        track_frame(table, fmap, fmap, None, cfg, 1)
        assert len(table) > 0
        for tid, frames, pixels in zip(table.ids.tolist(), table.obs_frames, table.obs_pixels):
            # each row moved one column left, and gained this frame's observation
            np.testing.assert_array_equal(pixels[:-1], snapshot[tid][1:])
            assert frames[-2:].tolist() == [0, 1]

    def test_dead_tracks_leave_table_and_are_returned(self):
        # every window leaves the image when the map shifts by 300 px
        fmap, corners = self.static_scene(14)
        cfg = TrackerConfig()
        table = TrackTable(WIDTH)
        assert track_frame(table, None, fmap, corners, cfg, 0) == []
        spawned = table.ids.tolist()
        table.flow[:] = [300.0, 0.0]
        died = track_frame(table, fmap, fmap, None, cfg, 1)
        assert [t.id for t in died] == spawned
        assert len(table) == 0
        assert all(t.status is TrackStatus.DEAD and t.death_reason == "oob" for t in died)
        assert all(t.length == 1 and t.frames[-1] == 0 for t in died)

    def test_feathering_off_degrades_convergence(self):
        # raw 0/128 edges give near-empty gradients: failure rate must rise
        rng = np.random.default_rng(13)
        bits = random_edge_bits(rng, 0.04)
        shifted_bits = np.roll(bits, 2, axis=1)
        pts = rng.uniform(40, 215, size=(150, 2))

        cfg = TrackerConfig(max_iters=30, epsilon=0.01, photometric_gate=1e9)

        def failure_rate(m0, m1):
            fails = 0
            for pt in pts:
                u, ok, _ = track_one(m0, m1, pt, cfg)
                if not ok or np.linalg.norm(u - [2.0, 0.0]) > 0.5:
                    fails += 1
            return fails / len(pts)

        rate_feathered = failure_rate(
            feather(edge_map(bits), 2.5), feather(edge_map(shifted_bits), 2.5)
        )
        rate_raw = failure_rate(
            tk.binary_to_intensity(edge_map(bits)),
            tk.binary_to_intensity(edge_map(shifted_bits)),
        )
        assert rate_raw > rate_feathered


def reference_spawn(table, corners, cfg, frame_index, initial_flow):
    """Spawning by a dense candidates-by-live distance matrix and a cell-hash greedy loop.

    Same contract as ``tracker._spawn_tracks``.
    """
    budget = cfg.n_points - len(table)
    if budget <= 0:
        return
    rows, cols = np.nonzero(corners.bits)
    if rows.size == 0:
        return
    cand = np.column_stack([cols, rows]).astype(float)

    live_pos = table.pos
    sep2 = cfg.min_separation ** 2
    if live_pos.size:
        d2 = ((cand[:, None, :] - live_pos[None, :, :]) ** 2).sum(axis=2)
        cand = cand[d2.min(axis=1) >= sep2]

    cell = max(cfg.min_separation, 1.0)
    occupied = {}
    for p in cand:
        if budget <= 0:
            break
        key = (int(p[0] // cell), int(p[1] // cell))
        clash = any(
            ((p - q) ** 2).sum() < sep2
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for q in occupied.get((key[0] + dx, key[1] + dy), ())
        )
        if clash:
            continue
        table.spawn(frame_index, p[None], initial_flow)
        occupied.setdefault(key, []).append(p)
        budget -= 1


class TestSpawn:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_corners=st.one_of(st.integers(0, 60), st.integers(700, 1200)),
        n_live=st.integers(0, 300),
        n_touching=st.integers(0, 30),
        sep=st.sampled_from([0.0, 0.5, 1.0, 10.0, 37.5, 300.0]),
        budget=st.integers(1, 800),
    )
    def test_matches_reference(self, seed, n_corners, n_live, n_touching, sep, budget):
        rng = np.random.default_rng(seed)
        bits = np.zeros(MAP_SIZE * MAP_SIZE, dtype=np.uint8)
        bits[rng.choice(bits.size, n_corners, replace=False)] = 1
        corners = BinaryMap(bits.reshape(MAP_SIZE, MAP_SIZE), MapKind.CORNER)
        live = rng.uniform(0, MAP_SIZE - 1, size=(n_live, 2))
        if n_corners and n_touching:
            # live tracks exactly ``sep`` from a corner along an axis, or along
            # a 3-4-5 direction where sep / 5 is exact
            rows, cols = np.nonzero(corners.bits)
            picks = rng.integers(0, rows.size, n_touching)
            dirs = np.array([[5, 0], [-5, 0], [0, 5], [0, -5], [3, 4], [-4, 3]])
            step = dirs[rng.integers(0, len(dirs), n_touching)] * (sep / 5)
            live = np.vstack([live, np.column_stack([cols[picks], rows[picks]]) + step])
        cfg = TrackerConfig(n_points=min(MAX_CORNER_POINTS, len(live) + budget), min_separation=sep)
        flow = rng.normal(size=2)

        tables = []
        for spawn in (reference_spawn, tk._spawn_tracks):
            table = TrackTable(WIDTH)
            table.spawn(0, live, np.zeros(2))
            spawn(table, corners, cfg, 1, flow)
            tables.append(table)
        ref, got = tables
        assert got.next_id == ref.next_id
        for name in TrackTable.COLUMNS:
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


class TestMedian:
    @given(rows=st.lists(st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=1,
                         max_size=50))
    def test_matches_numpy_median(self, rows):
        a = np.array(rows)
        np.testing.assert_array_equal(tk._median(a), np.median(a, axis=0))

    def test_even_count_takes_the_mean_of_the_middle_two(self):
        a = np.array([[0.1, 3.0], [0.2, -1.0], [0.7, 5.0], [0.4, 2.0]])
        np.testing.assert_array_equal(tk._median(a), [(0.2 + 0.4) / 2, (2.0 + 3.0) / 2])


class TestKltWorkspace:
    def test_reuse_matches_fresh(self):
        # batches that grow past and shrink below a block, and a window that
        # changes from 21 to 9 and back, through one workspace
        rng = np.random.default_rng(17)
        bits = random_edge_bits(rng, 0.03)
        prev = feather(edge_map(bits), 2.5)
        nxt = feather(edge_map(np.roll(bits, (1, 2), axis=(0, 1))), 2.5)
        ws = tk.KltWorkspace()
        for n, window in [(30, 21), (300, 21), (7, 21), (150, 9), (3, 9), (400, 21), (1, 21)]:
            pts = rng.uniform(0, MAP_SIZE - 1, size=(n, 2))
            guesses = rng.uniform(-3, 3, size=(n, 2))
            cfg = TrackerConfig(window=window)
            got = tk._batch_track(prev, nxt, pts, guesses, cfg, ws)
            fresh = tk._batch_track(prev, nxt, pts, guesses, cfg, tk.KltWorkspace())
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)


def float32_blend(img, corner, window):
    """One grid of ``_sample`` with every operand float32: x blend, then y blend."""
    p = window + 1
    u0, v0 = np.minimum(np.floor(corner).astype(np.intp), MAP_SIZE - p)
    fx, fy = np.float32(corner[0] - u0), np.float32(corner[1] - v0)
    patch = img[v0:v0 + p, u0:u0 + p].astype(np.float32)
    rows = patch[:, :-1] * (1 - fx) + patch[:, 1:] * fx
    return rows[:-1] * (1 - fy) + rows[1:] * fy


class TestFloat32:
    """The KLT's per-pixel arrays are float32: a float64 operand would double their cost."""

    def test_workspace_and_template_are_float32(self):
        rng = np.random.default_rng(19)
        f = feather(edge_map(random_edge_bits(rng, 0.03)), 2.5)
        ws = tk.KltWorkspace()
        assert ws.view("probe", 3, 4).dtype == np.float32
        corners = rng.uniform(20, 200, size=(5, 2))
        assert all(a.dtype == np.float32 for a in tk._template(f, corners, 21, ws))

    def test_samples_are_float32_blends(self):
        # a float64 weight would compute in float64 and round into the float32
        # buffer, which changes the bits; the last grid ends on pixel 255
        rng = np.random.default_rng(21)
        f = feather(edge_map(random_edge_bits(rng, 0.03)), 2.5)
        corners = np.vstack([rng.uniform(0, MAP_SIZE - 22, size=(40, 2)), [MAP_SIZE - 21.0] * 2])
        ws = tk.KltWorkspace()
        got = tk._sample(f, corners, 21, ws.view("samples", len(corners), 21, 21), ws)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, [float32_blend(f, c, 21) for c in corners])

    def test_hessian_and_displacements_stay_float64(self):
        rng = np.random.default_rng(20)
        f = feather(edge_map(random_edge_bits(rng, 0.03)), 2.5)
        ws = tk.KltWorkspace()
        _, gx, gy = tk._template(f, rng.uniform(20, 200, size=(5, 2)), 21, ws)
        assert tk._hessian(gx, gy, ws).dtype == np.float64
        pts = rng.uniform(40, 215, size=(5, 2))
        disp, _, _ = tk._batch_track(f, f, pts, np.zeros_like(pts), TrackerConfig(), ws)
        assert disp.dtype == np.float64


class TestAllocation:
    def test_frame_allocates_under_one_megabyte(self):
        # a warm table of ~300 tracks and 800 spawn candidates a frame: the
        # frame's traced peak counts every temporary, in bytes not time
        rng = np.random.default_rng(18)
        fmap = feather(edge_map(random_edge_bits(rng, 0.04)), 2.5)
        bits = np.zeros(MAP_SIZE * MAP_SIZE, dtype=np.uint8)
        bits[rng.choice(bits.size, MAX_CORNER_POINTS, replace=False)] = 1
        corners = BinaryMap(bits.reshape(MAP_SIZE, MAP_SIZE), MapKind.CORNER)
        cfg = TrackerConfig()
        table = TrackTable(WIDTH)
        for k in range(3):
            track_frame(table, fmap if k else None, fmap, corners, cfg, k)
        assert 250 <= len(table) <= 400
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            track_frame(table, fmap, fmap, corners, cfg, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 2**20


class TestTrackStatus:
    def test_status_transitions(self):
        # a track leaves a record when it dies, and only then
        table = TrackTable(WIDTH)
        table.spawn(0, np.array([[50.0, 50.0], [60.0, 50.0]]), np.zeros(2))
        (t,) = table.retire(np.array([0]), "done")
        assert t.status is TrackStatus.DEAD
        assert t.death_reason == "done"
        assert (t.id, t.length) == (0, 1)
        assert table.ids.tolist() == [1]
        record = tk.FeatureTrack(5, 1, t.frames, t.pixels)
        assert record.status is TrackStatus.LIVE
        record.mark_dead("oob")
        assert (record.status, record.death_reason) == (TrackStatus.DEAD, "oob")


class TestShiTomasi:
    def test_empty_map(self):
        out = shi_tomasi_on_edges(np.zeros((256, 256), dtype=np.uint8), 50)
        assert out.shape == (0, 2)

    def test_l_junction_peak_matches_eigen_oracle(self):
        bits = np.zeros((256, 256), dtype=np.uint8)
        bits[100, 100:140] = 1   # horizontal arm
        bits[100:140, 100] = 1   # vertical arm
        fmap = feather(edge_map(bits), 2.5)
        pts = shi_tomasi_on_edges(fmap, 10)
        assert len(pts) > 0
        # brute-force min-eigenvalue response near the junction; the arm
        # endpoints are also legitimate corners, so check the local peak
        img = fmap.astype(np.float64)
        best, best_resp = None, -1.0
        for v in range(95, 106):
            for u in range(95, 106):
                sxx = sxy = syy = 0.0
                for dv in range(-2, 3):
                    for du in range(-2, 3):
                        gx = 0.5 * (img[v + dv, u + du + 1] - img[v + dv, u + du - 1])
                        gy = 0.5 * (img[v + dv + 1, u + du] - img[v + dv - 1, u + du])
                        sxx += gx * gx / 25.0
                        sxy += gx * gy / 25.0
                        syy += gy * gy / 25.0
                resp = 0.5 * (sxx + syy) - np.sqrt(0.25 * (sxx - syy) ** 2 + sxy**2)
                if resp > best_resp:
                    best_resp, best = resp, (u, v)
        d = np.linalg.norm(pts - np.array(best), axis=1).min()
        assert d <= 2.0, f"no detection near oracle peak {best}; got {pts}"

    def test_cap_respected(self):
        rng = np.random.default_rng(14)
        fmap = feather(edge_map(random_edge_bits(rng, 0.05)), 2.5)
        assert len(shi_tomasi_on_edges(fmap, 25)) <= 25
        assert len(shi_tomasi_on_edges(fmap, 800)) <= 800

    def test_validation(self):
        with pytest.raises(ValueError):
            shi_tomasi_on_edges(np.zeros((256, 256), dtype=np.uint8), 0)
