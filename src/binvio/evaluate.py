"""Trajectory evaluation: association, rigid alignment, ATE/RTE metrics.

Estimates are associated to ground truth by nearest timestamp, aligned
with a least-squares rigid transform on positions (or by translation alone
when the positions are too few or collinear to fix a rotation), and reduced
to RMSE and median of absolute and relative errors, plus per-axis and
rotation error series for plotting.

The rotation error of a pair is the angle of ``M = R_est R^T R_gt^T`` (``R``
the alignment's rotation), ``atan2(|vee(M - M^T)| / 2, (tr M - 1) / 2)``.  Its
arguments are the angle's sine and cosine, each exact to rounding where the
other loses digits, so the one formula is within about 1e-15 rad of the exact
angle from 0 to pi; an arccos of the trace alone loses half the digits near 0
and near pi.  That holds for unit quaternions: one whose norm is 1 + e moves
the angle by about e (gt.csv's nine decimals leave e up to about 5e-10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import quat_to_matrix


class NoOverlap(RuntimeError):
    """No timestamp pairs within tolerance between the two series."""


class Degenerate(RuntimeError):
    """Not enough geometric spread to determine the alignment."""


class ZeroVariance(RuntimeError):
    """Correlation of a constant series is undefined."""


@dataclass
class TrajectorySeries:
    """Time-ordered poses: positions (N,3) and scalar-last quaternions (N,4)."""

    t: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.quaternions = np.asarray(self.quaternions, dtype=float)
        if len(self.t) == 0:
            raise ValueError("series must be non-empty")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    @staticmethod
    def from_rows(rows: np.ndarray) -> "TrajectorySeries":
        rows = np.asarray(rows, dtype=float)
        return TrajectorySeries(rows[:, 0], rows[:, 1:4], rows[:, 4:8])

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class PairedSamples:
    t: np.ndarray
    est_positions: np.ndarray
    est_quaternions: np.ndarray
    gt_positions: np.ndarray
    gt_quaternions: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def associate(est: TrajectorySeries, gt: TrajectorySeries, max_dt: float = 0.005) -> PairedSamples:
    """Nearest-neighbor timestamp pairing; unpaired estimates are dropped."""
    idx = np.searchsorted(gt.t, est.t)
    idx = np.clip(idx, 1, len(gt.t) - 1)
    left = gt.t[idx - 1]
    right = gt.t[idx]
    nearest = np.where(np.abs(est.t - left) <= np.abs(right - est.t), idx - 1, idx)
    dt = np.abs(gt.t[nearest] - est.t)
    keep = dt <= max_dt
    if not keep.any():
        raise NoOverlap(f"no pairs within {max_dt} s")
    sel = nearest[keep]
    return PairedSamples(
        est.t[keep],
        est.positions[keep],
        est.quaternions[keep],
        gt.positions[sel],
        gt.quaternions[sel],
    )


def align_se3(pairs: PairedSamples) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation and translation mapping est onto gt positions."""
    if len(pairs) < 3:
        raise Degenerate("need at least three pairs")
    e = pairs.est_positions
    g = pairs.gt_positions
    mu_e = e.mean(axis=0)
    mu_g = g.mean(axis=0)
    H = (e - mu_e).T @ (g - mu_g)
    U, S, Vt = np.linalg.svd(H)
    if S[1] < 1e-9 * max(S[0], 1e-12):
        raise Degenerate("positions are collinear")
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    t = mu_g - R @ mu_e
    return R, t


@dataclass
class ErrorReport:
    ate_rmse: float
    ate_median: float
    rte_rmse: float
    rte_median: float
    per_axis_rmse: np.ndarray
    rotation_rmse: float
    alignment: str  # "se3", or "translation" when align_se3 found the path degenerate
    series_t: np.ndarray = field(repr=False, default=None)
    series_axis_error: np.ndarray = field(repr=False, default=None)
    series_rotation_error: np.ndarray = field(repr=False, default=None)
    series_ate: np.ndarray = field(repr=False, default=None)


def compute_ate_rte(pairs: PairedSamples, rte_delta: int = 250) -> ErrorReport:
    """Absolute and relative errors after rigid alignment.

    A path that ``align_se3`` finds degenerate (a straight line, a point, or
    fewer than three pairs) is aligned by translation alone: R = I, and t
    moves the estimate's centroid onto ground truth's.  RTE compares the
    relative motion over ``rte_delta`` paired frames, so it is invariant to
    the alignment; ``rte_delta=0`` is identically zero.
    """
    alignment = "se3"
    try:
        R, t = align_se3(pairs)
    except Degenerate:
        alignment = "translation"
        R = np.eye(3)
        t = pairs.gt_positions.mean(axis=0) - pairs.est_positions.mean(axis=0)
    est_aligned = pairs.est_positions @ R.T + t
    diff = est_aligned - pairs.gt_positions
    ate = np.linalg.norm(diff, axis=1)

    # M = R_est R^T R_gt^T for every pair; its angle from its antisymmetric part and trace
    M = quat_to_matrix(pairs.est_quaternions) @ R.T
    M = M @ quat_to_matrix(pairs.gt_quaternions).transpose(0, 2, 1)
    vee = np.stack([M[:, 2, 1] - M[:, 1, 2], M[:, 0, 2] - M[:, 2, 0], M[:, 1, 0] - M[:, 0, 1]], 1)
    rot_err = np.arctan2(0.5 * np.linalg.norm(vee, axis=1), 0.5 * (np.trace(M, 0, 1, 2) - 1.0))

    n = len(pairs)
    if rte_delta <= 0:
        rte = np.zeros(n)
    else:
        # each side's step from pair i to pair i + rte_delta, in body i's frame
        i, j = slice(0, max(n - rte_delta, 0)), slice(rte_delta, None)
        pe, pg = pairs.est_positions, pairs.gt_positions
        R_i = np.stack([quat_to_matrix(pairs.est_quaternions[i]),
                        quat_to_matrix(pairs.gt_quaternions[i])])
        d_est, d_gt = np.einsum("knij,knj->kni", R_i, np.stack([pe[j] - pe[i], pg[j] - pg[i]]))
        rte = np.linalg.norm(d_est - d_gt, axis=1)

    def rmse(x):
        return float(np.sqrt(np.mean(x**2))) if len(x) else 0.0

    def median(x):
        return float(np.median(x)) if len(x) else 0.0

    return ErrorReport(
        ate_rmse=rmse(ate),
        ate_median=median(ate),
        rte_rmse=rmse(rte),
        rte_median=median(rte),
        per_axis_rmse=np.sqrt(np.mean(diff**2, axis=0)),
        rotation_rmse=rmse(rot_err),
        alignment=alignment,
        series_t=pairs.t,
        series_axis_error=diff,
        series_rotation_error=rot_err,
        series_ate=ate,
    )


def feature_error_correlation(in_state_counts: np.ndarray, errors: np.ndarray) -> float:
    """Pearson correlation between feature counts and error magnitudes."""
    c = np.asarray(in_state_counts, dtype=float)
    e = np.asarray(errors, dtype=float)
    if c.shape != e.shape:
        raise ValueError("series must have equal length")
    if np.std(c) < 1e-12 or np.std(e) < 1e-12:
        raise ZeroVariance("a series is constant")
    return float(np.corrcoef(c, e)[0, 1])


def write_report_csv(report: ErrorReport, path) -> None:
    rows = [
        ("ate_rmse", report.ate_rmse), ("ate_median", report.ate_median),
        ("rte_rmse", report.rte_rmse), ("rte_median", report.rte_median),
        *zip(("rmse_x", "rmse_y", "rmse_z"), report.per_axis_rmse),
        ("rotation_rmse", report.rotation_rmse),
    ]
    with open(path, "w") as f:
        f.write("metric,value\n")
        for name, value in rows:
            f.write(f"{name},{value:.9f}\n")


def write_series_csv(report: ErrorReport, path, in_state_counts=None) -> None:
    counts = np.zeros(len(report.series_t)) if in_state_counts is None else in_state_counts
    rows = np.column_stack([report.series_t, report.series_axis_error,
                            report.series_rotation_error, counts])
    np.savetxt(path, rows, fmt=["%.9f"] * 5 + ["%d"], delimiter=",",
               header="t,ex,ey,ez,rotation_error,in_state_count", comments="")
