import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from binvio.evaluate import (
    Degenerate,
    NoOverlap,
    TrajectorySeries,
    ZeroVariance,
    align_se3,
    associate,
    compute_ate_rte,
    feature_error_correlation,
)
from binvio.geometry import (
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)


def make_series(t, positions, quats=None):
    t = np.asarray(t, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if quats is None:
        quats = np.tile([0.0, 0.0, 0.0, 1.0], (len(t), 1))
    return TrajectorySeries(t, positions, quats)


def random_trajectory(rng, n=200, dt=0.004):
    t = np.arange(n) * dt
    pos = np.cumsum(rng.normal(scale=0.01, size=(n, 3)), axis=0)
    quats = np.zeros((n, 4))
    q = np.array([0.0, 0.0, 0.0, 1.0])
    for i in range(n):
        q = quat_multiply(quat_from_axis_angle(rng.normal(scale=0.01, size=3)), q)
        quats[i] = q / np.linalg.norm(q)
    return TrajectorySeries(t, pos, quats)


class TestAssociate:
    def test_identical_grids_all_matched(self):
        t = np.arange(100) * 0.004
        a = make_series(t, np.random.default_rng(0).normal(size=(100, 3)))
        b = make_series(t, np.random.default_rng(1).normal(size=(100, 3)))
        pairs = associate(a, b, max_dt=0.001)
        assert len(pairs) == 100

    def test_mixed_rates_match_brute_force(self):
        rng = np.random.default_rng(2)
        est = make_series(np.arange(50) / 250.0, rng.normal(size=(50, 3)))
        gt = make_series(np.arange(61) / 300.0, rng.normal(size=(61, 3)))
        pairs = associate(est, gt, max_dt=0.002)
        kept = 0
        for i, te in enumerate(est.t):
            j = int(np.argmin(np.abs(gt.t - te)))
            if abs(gt.t[j] - te) <= 0.002:
                np.testing.assert_array_equal(pairs.gt_positions[kept], gt.positions[j])
                kept += 1
        assert kept == len(pairs)

    def test_disjoint_ranges_raise(self):
        a = make_series([0.0, 0.1, 0.2], np.zeros((3, 3)))
        b = make_series([10.0, 10.1, 10.2], np.zeros((3, 3)))
        with pytest.raises(NoOverlap):
            associate(a, b, max_dt=0.01)


class TestAlign:
    def test_identity_for_equal_series(self):
        rng = np.random.default_rng(3)
        tr = random_trajectory(rng)
        pairs = associate(tr, tr, max_dt=1e-6)
        R, t = align_se3(pairs)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(t, np.zeros(3), atol=1e-10)

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(4)
        gt = random_trajectory(rng)
        R_true = quat_to_matrix(quat_normalize(rng.normal(size=4)))
        t_true = rng.normal(size=3)
        # est positions are gt mapped into another frame: gt = R est + t
        est_pos = (gt.positions - t_true) @ R_true
        est = TrajectorySeries(gt.t, est_pos, gt.quaternions)
        pairs = associate(est, gt, max_dt=1e-6)
        R, t = align_se3(pairs)
        np.testing.assert_allclose(R, R_true, atol=1e-9)
        np.testing.assert_allclose(t, t_true, atol=1e-9)

    def test_two_points_degenerate(self):
        a = make_series([0.0, 1.0], [[0, 0, 0], [1, 0, 0]])
        pairs = associate(a, a, max_dt=1e-6)
        with pytest.raises(Degenerate):
            align_se3(pairs)

    def test_collinear_degenerate(self):
        t = np.arange(10) * 1.0
        pos = np.outer(np.arange(10), [1.0, 2.0, 3.0])
        a = make_series(t, pos)
        pairs = associate(a, a, max_dt=1e-6)
        with pytest.raises(Degenerate):
            align_se3(pairs)


class TestAteRte:
    def test_perfect_estimate_zero_errors(self):
        rng = np.random.default_rng(5)
        tr = random_trajectory(rng)
        pairs = associate(tr, tr, max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=10)
        assert rep.ate_rmse < 1e-12
        assert rep.rte_rmse < 1e-12
        assert rep.rotation_rmse < 1e-12

    def test_rigid_offset_absorbed(self):
        rng = np.random.default_rng(6)
        gt = random_trajectory(rng)
        est = TrajectorySeries(gt.t, gt.positions + np.array([1.0, -2.0, 0.5]), gt.quaternions)
        pairs = associate(est, gt, max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=10)
        assert rep.ate_rmse < 1e-12
        assert rep.rte_rmse < 1e-12

    def test_full_rigid_transform_invariance(self):
        rng = np.random.default_rng(7)
        gt = random_trajectory(rng)
        q_R = quat_normalize(rng.normal(size=4))
        R = quat_to_matrix(q_R)
        t = rng.normal(size=3)
        est_pos = gt.positions @ R.T + t
        # a body sees est-frame vectors through R(q_gt) R^T, and R^T = R(q_R^-1)
        q_R_inv = q_R * np.array([-1.0, -1.0, -1.0, 1.0])
        est_q = np.array([quat_multiply(gt.quaternions[i], q_R_inv) for i in range(len(gt))])
        est = TrajectorySeries(gt.t, est_pos, est_q)
        pairs = associate(est, gt, max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=20)
        assert rep.ate_rmse < 1e-9
        assert rep.rotation_rmse < 1e-12
        assert rep.rte_rmse < 1e-12

    @pytest.mark.parametrize("rte_delta", [1, 25, 199, 200, 250])
    def test_rte_matches_per_pair_loop(self, rte_delta):
        # the per-pair loop the array pass replaced; the einsum sums in another order
        rng = np.random.default_rng(12)
        gt = random_trajectory(rng)
        est = random_trajectory(rng)
        pairs = associate(est, gt, max_dt=1e-6)
        want = [
            np.linalg.norm(
                quat_to_matrix(pairs.est_quaternions[i])
                @ (pairs.est_positions[i + rte_delta] - pairs.est_positions[i])
                - quat_to_matrix(pairs.gt_quaternions[i])
                @ (pairs.gt_positions[i + rte_delta] - pairs.gt_positions[i]))
            for i in range(len(pairs) - rte_delta)
        ]
        rep = compute_ate_rte(pairs, rte_delta=rte_delta)
        assert rep.rte_rmse == pytest.approx(np.sqrt(np.mean(np.square(want))) if want else 0.0,
                                             rel=1e-14, abs=1e-15)

    def test_rte_delta_zero_is_zero(self):
        rng = np.random.default_rng(8)
        gt = random_trajectory(rng)
        est = TrajectorySeries(
            gt.t, gt.positions + rng.normal(scale=0.05, size=gt.positions.shape),
            gt.quaternions,
        )
        pairs = associate(est, gt, max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=0)
        assert rep.rte_rmse == 0.0

    def test_gaussian_noise_rmse_statistics(self):
        rng = np.random.default_rng(9)
        n = 10_000
        t = np.arange(n) * 0.004
        gt_pos = np.column_stack(
            [np.sin(t), np.cos(0.7 * t), 0.1 * t]
        )
        sigma = 0.03
        est_pos = gt_pos + rng.normal(scale=sigma, size=(n, 3))
        gt = make_series(t, gt_pos)
        est = make_series(t, est_pos)
        pairs = associate(est, gt, max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=0)
        expected = sigma * np.sqrt(3)
        assert abs(rep.ate_rmse - expected) / expected < 0.1

    def test_permutation_determinism(self):
        rng = np.random.default_rng(10)
        gt = random_trajectory(rng)
        est = TrajectorySeries(
            gt.t, gt.positions + rng.normal(scale=0.01, size=gt.positions.shape),
            gt.quaternions,
        )
        pairs = associate(est, gt, max_dt=1e-6)
        a = compute_ate_rte(pairs, rte_delta=25)
        b = compute_ate_rte(pairs, rte_delta=25)
        assert a.ate_rmse == b.ate_rmse and a.rte_rmse == b.rte_rmse
        assert a.alignment == "se3"

    def test_collinear_path_aligned_by_translation(self):
        # a straight path fixes no rotation about itself: align_se3 raises,
        # and the centroid shift absorbs the offset but not the zero-mean error
        n = 50
        t = np.arange(n) * 0.004
        gt_pos = np.outer(np.arange(n), [0.01, 0.02, 0.03])
        err = np.random.default_rng(11).normal(scale=0.01, size=(n, 3))
        err -= err.mean(axis=0)
        est = make_series(t, gt_pos + np.array([0.5, -1.0, 2.0]) + err)
        pairs = associate(est, make_series(t, gt_pos), max_dt=1e-6)
        with pytest.raises(Degenerate):
            align_se3(pairs)
        rep = compute_ate_rte(pairs, rte_delta=10)
        assert rep.alignment == "translation"
        np.testing.assert_allclose(rep.series_axis_error, err, atol=1e-12)
        assert abs(rep.ate_rmse - np.sqrt((err**2).sum(axis=1).mean())) < 1e-12
        assert rep.rotation_rmse == 0.0

    def test_single_pair_aligned_by_translation(self):
        est = make_series([0.0], [[1.0, 2.0, 3.0]])
        gt = make_series([0.0], [[0.0, 0.0, 0.0]])
        rep = compute_ate_rte(associate(est, gt, max_dt=1e-6), rte_delta=250)
        assert rep.alignment == "translation"
        assert rep.ate_rmse == 0.0 and rep.rte_rmse == 0.0


class TestRotationError:
    @given(
        st.lists(st.floats(0.0, np.pi - 1e-9), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_up_to_pi(self, angles, seed):
        # every pose at the origin fixes no rotation, so the alignment is R = I exactly
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(len(angles), 3))
        offsets = axes / np.linalg.norm(axes, axis=1, keepdims=True) * np.array(angles)[:, None]
        r_gt = Rotation.from_quat(rng.normal(size=(len(angles), 4)))
        q_gt = r_gt.as_quat()
        q_est = (r_gt * Rotation.from_rotvec(offsets)).as_quat()
        t = np.arange(len(angles)) * 0.004
        pairs = associate(make_series(t, np.zeros((len(t), 3)), q_est),
                          make_series(t, np.zeros((len(t), 3)), q_gt), max_dt=1e-6)
        rep = compute_ate_rte(pairs, rte_delta=1)
        assert rep.alignment == "translation"
        want = (Rotation.from_quat(q_est).inv() * Rotation.from_quat(q_gt)).magnitude()
        np.testing.assert_allclose(rep.series_rotation_error, want, rtol=0, atol=1e-14)


class TestCorrelation:
    def test_constant_counts_raise(self):
        with pytest.raises(ZeroVariance):
            feature_error_correlation(np.full(10, 5.0), np.arange(10.0))

    def test_affine_anticorrelation(self):
        counts = np.arange(100.0)
        errors = -counts + 42.0
        assert abs(feature_error_correlation(counts, errors) - (-1.0)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            feature_error_correlation(np.arange(5.0), np.arange(6.0))
