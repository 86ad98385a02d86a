"""SE(3) poses, pinhole projection and their analytic jacobians.

Conventions, fixed once for the whole package:

- A ``Pose`` stores the world-from-camera transform: ``x_world = R x_cam + t``
  (same convention as TUM trajectory files, which store body-in-world).
- Quaternions are ``[w, x, y, z]`` and are renormalized after every operation.
- Tangent vectors are 6-vectors ``[omega, v]``: rotation part first (axis-angle,
  radians), translation part second (scene units).
- The retraction is left-multiplicative: ``retract(T, d) = se3_exp(d) * T``,
  exact for all tangent magnitudes; all pose jacobians are taken with respect
  to this tangent at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheiralityViolation

DEPTH_EPS = 1e-9


# ---------------------------------------------------------------------------
# quaternion helpers ([w, x, y, z])
# ---------------------------------------------------------------------------

def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _cross3(a, b):
    # np.cross has large overhead for single 3-vectors
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def quat_rotate(q, v):
    # v + 2w (u x v) + 2 u x (u x v), u = vector part
    u = q[1:]
    uv = _cross3(u, v)
    return v + 2.0 * (q[0] * uv + _cross3(u, uv))


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_to_matrix_many(q):
    """Stacked rotation matrices of (N, 4) quaternions, with the arithmetic of
    ``quat_to_matrix``."""
    w, x, y, z = np.asarray(q, dtype=float).reshape(-1, 4).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(-1, 3, 3)


def quat_from_rotvec(w):
    theta2 = float(np.dot(w, w))
    theta = np.sqrt(theta2)
    if theta < 1e-8:
        # sin(t/2)/t = 1/2 - t^2/48 + O(t^4)
        s = 0.5 - theta2 / 48.0
        c = 1.0 - theta2 / 8.0
    else:
        s = np.sin(0.5 * theta) / theta
        c = np.cos(0.5 * theta)
    return np.array([c, s * w[0], s * w[1], s * w[2]])


def quat_to_rotvec(q):
    if q[0] < 0.0:
        q = -q
    u = q[1:]
    s = float(np.linalg.norm(u))
    if s < 1e-8:
        # theta/sin(theta/2) ~ 2 + s^2/(3 w^2) for small angles
        return u * (2.0 / q[0]) * (1.0 - s * s / (3.0 * q[0] * q[0]))
    theta = 2.0 * np.arctan2(s, q[0])
    return u * (theta / s)


def so3_hat(w):
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def _so3_left_jacobian(w):
    """V(w) with t = V(w) v in the SE(3) exponential."""
    theta2 = float(np.dot(w, w))
    W = so3_hat(w)
    if theta2 < 1e-16:
        return np.eye(3) + 0.5 * W + W @ W / 6.0
    theta = np.sqrt(theta2)
    return (np.eye(3)
            + W * ((1.0 - np.cos(theta)) / theta2)
            + W @ W * ((theta - np.sin(theta)) / (theta2 * theta)))


def _so3_left_jacobian_inv(w):
    theta2 = float(np.dot(w, w))
    W = so3_hat(w)
    if theta2 < 1e-16:
        return np.eye(3) - 0.5 * W + W @ W / 12.0
    theta = np.sqrt(theta2)
    coef = 1.0 / theta2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * W + W @ W * coef


# ---------------------------------------------------------------------------
# pose
# ---------------------------------------------------------------------------

class Pose:
    """Rigid world-from-camera transform on SE(3)."""

    __slots__ = ("q", "t")

    def __init__(self, q=None, t=None):
        q = np.array([1.0, 0.0, 0.0, 0.0]) if q is None else np.asarray(q, dtype=float)
        self.q = q / np.linalg.norm(q)
        self.t = np.zeros(3) if t is None else np.asarray(t, dtype=float).copy()

    @staticmethod
    def identity():
        return Pose()

    def rotation_matrix(self):
        return quat_to_matrix(self.q)

    def rotate(self, v):
        return quat_rotate(self.q, v)

    def rotate_inv(self, v):
        return quat_rotate(quat_conj(self.q), v)

    def apply(self, p_cam):
        """Map a camera-frame point into world coordinates."""
        return self.rotate(p_cam) + self.t

    def world_to_camera(self, p_world):
        return self.rotate_inv(np.asarray(p_world, dtype=float) - self.t)

    def compose(self, other):
        """self * other (apply ``other`` first, then ``self``)."""
        return Pose(quat_mul(self.q, other.q), self.rotate(other.t) + self.t)

    def inverse(self):
        qc = quat_conj(self.q)
        return Pose(qc, -quat_rotate(qc, self.t))

    def copy(self):
        return Pose(self.q, self.t)

    def __repr__(self):
        return f"Pose(q={self.q.tolist()}, t={self.t.tolist()})"


def quat_from_matrix(R):
    """Shepperd's method; returns [w, x, y, z]."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------------------
# SE(3) exponential / logarithm / retraction
# ---------------------------------------------------------------------------

def se3_exp(delta):
    """Group exponential of a tangent [omega, v] -> Pose."""
    delta = np.asarray(delta, dtype=float)
    w, v = delta[:3], delta[3:]
    return Pose(quat_from_rotvec(w), _so3_left_jacobian(w) @ v)


def se3_log(pose):
    """Inverse of se3_exp; returns the tangent [omega, v]."""
    w = quat_to_rotvec(pose.q)
    return np.concatenate([w, _so3_left_jacobian_inv(w) @ pose.t])


def se3_retract(pose, delta):
    """Left-multiplicative update se3_exp(delta) * pose."""
    return se3_exp(delta).compose(pose)


# ---------------------------------------------------------------------------
# pinhole camera
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def matrix(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


def camera_point(pose, point):
    """World point in the camera frame (applies the pose inverse).

    Uses the same matrix arithmetic as ``problem.project_factors`` so scalar
    and batched evaluations of the same point agree bitwise.
    """
    return (np.asarray(point, dtype=float) - pose.t) @ quat_to_matrix(pose.q)


def project(pose, intr, point):
    """Pinhole projection of a world point; raises behind the camera."""
    c = camera_point(pose, point)
    if c[2] <= DEPTH_EPS:
        raise CheiralityViolation(f"depth {c[2]:.3e} <= {DEPTH_EPS}")
    iz = 1.0 / c[2]
    return np.array([intr.fx * c[0] * iz + intr.cx,
                     intr.fy * c[1] * iz + intr.cy])


def projection_jacobians(pose, intr, point):
    """Jacobians of ``project`` w.r.t. the pose tangent at zero and the point.

    Returns (J_pose 2x6, J_point 2x3). Tangent ordering is [omega, v] and the
    retraction is left-multiplicative, so the translation block of J_pose is
    exactly -J_point.
    """
    point = np.asarray(point, dtype=float)
    c = camera_point(pose, point)
    if c[2] <= DEPTH_EPS:
        raise CheiralityViolation(f"depth {c[2]:.3e} <= {DEPTH_EPS}")
    iz = 1.0 / c[2]
    dh_dc = np.array([[intr.fx * iz, 0.0, -intr.fx * c[0] * iz * iz],
                      [0.0, intr.fy * iz, -intr.fy * c[1] * iz * iz]])
    Rt = quat_to_matrix(quat_conj(pose.q))
    J_point = dh_dc @ Rt
    J_pose = np.empty((2, 6))
    J_pose[:, :3] = dh_dc @ (Rt @ so3_hat(point))
    J_pose[:, 3:] = -J_point
    return J_pose, J_point
