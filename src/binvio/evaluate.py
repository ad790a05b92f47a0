"""Trajectory evaluation: association, rigid alignment, ATE/RTE metrics.

Estimates are associated to ground truth by nearest timestamp, aligned
with a least-squares rigid transform on positions (or by translation alone
when the positions are too few or collinear to fix a rotation), and reduced
to RMSE and median of absolute and relative errors, plus per-axis and
rotation error series for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import quat_to_matrix, so3_log


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


def _body_to_world(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return quat_to_matrix(q).T, p


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

    rot_err = np.zeros(len(pairs))
    for i in range(len(pairs)):
        R_e = quat_to_matrix(pairs.est_quaternions[i]) @ R.T
        R_g = quat_to_matrix(pairs.gt_quaternions[i])
        rot_err[i] = np.linalg.norm(so3_log(R_e @ R_g.T))

    n = len(pairs)
    if rte_delta <= 0 or rte_delta >= n:
        rte = np.zeros(max(n - max(rte_delta, 1), 0)) if rte_delta > 0 else np.zeros(n)
    else:
        rte = np.zeros(n - rte_delta)
        for i in range(n - rte_delta):
            j = i + rte_delta
            Re0, pe0 = _body_to_world(pairs.est_quaternions[i], pairs.est_positions[i])
            Re1, pe1 = _body_to_world(pairs.est_quaternions[j], pairs.est_positions[j])
            Rg0, pg0 = _body_to_world(pairs.gt_quaternions[i], pairs.gt_positions[i])
            Rg1, pg1 = _body_to_world(pairs.gt_quaternions[j], pairs.gt_positions[j])
            d_est = Re0.T @ (pe1 - pe0)
            d_gt = Rg0.T @ (pg1 - pg0)
            rte[i] = np.linalg.norm(d_est - d_gt)

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
    with open(path, "w") as f:
        f.write("metric,value\n")
        f.write(f"ate_rmse,{report.ate_rmse:.9f}\n")
        f.write(f"ate_median,{report.ate_median:.9f}\n")
        f.write(f"rte_rmse,{report.rte_rmse:.9f}\n")
        f.write(f"rte_median,{report.rte_median:.9f}\n")
        f.write(f"rmse_x,{report.per_axis_rmse[0]:.9f}\n")
        f.write(f"rmse_y,{report.per_axis_rmse[1]:.9f}\n")
        f.write(f"rmse_z,{report.per_axis_rmse[2]:.9f}\n")
        f.write(f"rotation_rmse,{report.rotation_rmse:.9f}\n")


def write_series_csv(report: ErrorReport, path, in_state_counts=None) -> None:
    counts = np.zeros(len(report.series_t)) if in_state_counts is None else in_state_counts
    rows = np.column_stack([report.series_t, report.series_axis_error,
                            report.series_rotation_error, counts])
    np.savetxt(path, rows, fmt=["%.9f"] * 5 + ["%d"], delimiter=",",
               header="t,ex,ey,ez,rotation_error,in_state_count", comments="")
