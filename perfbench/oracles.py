"""Reference computations written apart from gradba, for the benchmark checks.

Conventions follow the gradba README: poses are world-from-camera
(``x_world = R x_cam + t``) with quaternions ``[w, x, y, z]``, residuals are
``e = observation - projection``, and the Huber cost of a squared residual
``s`` is ``s`` inside ``delta**2`` and ``2 delta sqrt(s) - delta**2`` outside.
Nothing here imports gradba.
"""

import json

import numpy as np

DEPTH_EPS = 1e-9


def quat_wxyz_to_matrix(q):
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def pinhole_project(q_wxyz, t, points, fx, fy, cx, cy):
    """Pixels and camera-frame depths of world points seen from one pose."""
    R = quat_wxyz_to_matrix(q_wxyz)
    cam = (np.asarray(points, dtype=float).reshape(-1, 3)
           - np.asarray(t, dtype=float)) @ R
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = np.column_stack([fx * cam[:, 0] / z + cx, fy * cam[:, 1] / z + cy])
    return pix, z


def huber_rho(s, delta):
    s = np.asarray(s, dtype=float)
    if delta is None:
        return s
    with np.errstate(invalid="ignore"):
        return np.where(s <= delta * delta, s,
                        2.0 * delta * np.sqrt(s) - delta * delta)


def reprojection_energy(poses, landmarks, frames, lms, pixels, intrinsics,
                        delta=None):
    """Sum of Huber costs of ``pixels - projection`` over the observations.

    ``poses`` is a list of ``(q_wxyz, t)``; observation k sees landmark row
    ``lms[k]`` from pose ``frames[k]``. Observations with the point behind
    the camera contribute nothing.
    """
    fx, fy, cx, cy = intrinsics
    frames = np.asarray(frames, dtype=int)
    lms = np.asarray(lms, dtype=int)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
    s = np.zeros(len(frames))
    active = np.zeros(len(frames), dtype=bool)
    for i, (q, t) in enumerate(poses):
        rows = np.flatnonzero(frames == i)
        if not rows.size:
            continue
        pix, z = pinhole_project(q, t, landmarks[lms[rows]], fx, fy, cx, cy)
        ok = z > DEPTH_EPS
        e = pixels[rows[ok]] - pix[ok]
        s[rows[ok]] = np.einsum("ka,ka->k", e, e)
        active[rows[ok]] = True
    return float(huber_rho(s[active], delta).sum())


def baseline_prior_energy(t0, t1, target, weight):
    """``weight * (|t1 - t0| - target)**2``: the monocular scale gauge."""
    r = float(np.linalg.norm(np.asarray(t1, float) - np.asarray(t0, float))) - target
    return weight * r * r


def umeyama_sim3(src, dst):
    """(s, R, t) minimizing sum |dst_i - (s R src_i + t)|^2 (Umeyama 1991)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - mu_s, dst - mu_d
    U, D, Vt = np.linalg.svd(b.T @ a / len(src))
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U) * np.linalg.det(Vt)) or 1.0])
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S) / ((a * a).sum() / len(src)))
    return s, R, mu_d - s * R @ mu_s


def sim3_ate(est, ref):
    """RMSE of positions after similarity-aligning ``est`` onto ``ref``."""
    s, R, t = umeyama_sim3(est, ref)
    res = s * np.asarray(est, float) @ R.T + t - np.asarray(ref, float)
    return float(np.sqrt((res * res).sum(axis=1).mean()))


def parse_tum(text):
    """(timestamps, positions (N,3), quaternions xyzw (N,4)) of a TUM file.

    Lines are ``timestamp tx ty tz qx qy qz qw``; blank lines and ``#``
    comments are skipped. Raises ValueError on any other line shape.
    """
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"line {ln}: expected 8 fields, got {len(parts)}")
        rows.append([float(p) for p in parts])
    arr = np.array(rows, dtype=float).reshape(-1, 8)
    return arr[:, 0], arr[:, 1:4], arr[:, 4:8]


def format_tum(stamps, positions, quats_xyzw):
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for ts, p, q in zip(stamps, positions, quats_xyzw):
        lines.append(" ".join(repr(float(v)) for v in (ts, *p, *q)))
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json_loads(text):
    """json.loads that refuses NaN and Infinity, which JSON does not allow."""
    return json.loads(text, parse_constant=_reject_constant)


def directional_central_difference(f, x, v, h):
    """(f(x + h v) - f(x - h v)) / (2 h): the derivative of f along v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (f(x + h * v) - f(x - h * v)) / (2.0 * h)


def rel_close(a, b, rtol):
    """|a - b| <= rtol * max(|a|, |b|)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b))
