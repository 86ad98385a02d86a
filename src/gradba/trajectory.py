"""Trajectory records, TUM-format I/O, and ATE/ARE metrics.

TUM lines are "timestamp tx ty tz qx qy qz qw": eight finite numbers, space
separated, with '#' comments, increasing timestamps and unit quaternions.
Metrics align the estimate onto the reference with the closed-form
least-squares (Umeyama) transform: similarity by default for monocular
output, rigid when scale is known, or no alignment at all for raw errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import align, apply_alignment
from .errors import LengthMismatch, SceneFormatError, TimestampMismatch
from .geometry import Pose, normalized, quat_to_matrix

TIMESTAMP_TOL = 1e-6


@dataclass
class TrajectoryRecord:
    timestamp: float
    t: np.ndarray        # translation, scene units
    q_xyzw: np.ndarray   # unit quaternion, TUM component order

    def pose(self):
        x, y, z, w = self.q_xyzw
        return Pose([w, x, y, z], self.t)


def records_from_poses(poses, stamps):
    return [TrajectoryRecord(float(ts), p.t.copy(), p.q[[1, 2, 3, 0]])
            for ts, p in zip(stamps, poses)]


def write_tum(records, path):
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for r in records:
        vals = [r.timestamp, *r.t, *r.q_xyzw]
        lines.append(" ".join(f"{v:.12g}" for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_tum(path):
    """Records of a TUM file; a missing file and a line that breaks the
    format (see the module docstring) raise SceneFormatError."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise SceneFormatError(f"trajectory {path}: {exc.strerror}") from exc
    records = []
    last = -np.inf
    with fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise SceneFormatError(f"{path}:{ln}: expected 8 fields")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise SceneFormatError(f"{path}:{ln}: {exc}") from exc
            if not np.all(np.isfinite(vals)):
                raise SceneFormatError(f"{path}:{ln}: non-finite value")
            ts = vals[0]
            if ts <= last:
                raise SceneFormatError(
                    f"{path}:{ln}: timestamps must be strictly increasing")
            last = ts
            q = np.array(vals[4:8])
            if abs(np.linalg.norm(q) - 1.0) > 1e-6:
                raise SceneFormatError(f"{path}:{ln}: quaternion norm off unit")
            records.append(TrajectoryRecord(ts, np.array(vals[1:4]), q))
    return records


def _paired_positions(estimated, ground_truth):
    if len(estimated) != len(ground_truth):
        raise LengthMismatch(f"{len(estimated)} vs {len(ground_truth)} records")
    for a, b in zip(estimated, ground_truth):
        if abs(a.timestamp - b.timestamp) > TIMESTAMP_TOL:
            raise TimestampMismatch(f"{a.timestamp} vs {b.timestamp}")
    est = np.array([r.t for r in estimated])
    gt = np.array([r.t for r in ground_truth])
    return est, gt


def compute_ate(estimated, ground_truth, alignment="sim"):
    """RMSE of translation residuals after least-squares alignment."""
    est, gt = _paired_positions(estimated, ground_truth)
    s, R, t = align(est, gt, alignment)
    res = apply_alignment(est, s, R, t) - gt
    return float(np.sqrt((res ** 2).sum(axis=1).mean()))


def compute_are(estimated, ground_truth, alignment="sim"):
    """RMSE of per-frame geodesic rotation distance, degrees, after alignment."""
    est, gt = _paired_positions(estimated, ground_truth)
    s, R, t = align(est, gt, alignment)
    # the unit [w, x, y, z] quaternions that TrajectoryRecord.pose() gives
    Ra, Rb = (quat_to_matrix(normalized(np.array([r.q_xyzw for r in recs])[:, [3, 0, 1, 2]]))
              for recs in (estimated, ground_truth))
    cosang = 0.5 * (np.trace((R @ Ra).swapaxes(1, 2) @ Rb, axis1=1, axis2=2) - 1.0)
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.sqrt(np.mean(np.square(angles))))
