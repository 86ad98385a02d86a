"""SE(3) poses, pinhole projection and their analytic jacobians.

Conventions, fixed once for the whole package:

- A ``Pose`` stores the world-from-camera transform: ``x_world = R x_cam + t``
  (same convention as TUM trajectory files, which store body-in-world).
- Quaternions are ``[w, x, y, z]``, normalized when built from outside values
  (``Pose(q)``, a ``StateVector`` of poses) and after each retraction, never
  elsewhere: a copy keeps every bit (``q / |q|`` can move a unit q's last bit).
- The quaternion and SO(3) helpers broadcast over leading axes, and each row
  rounds as it does alone; ``retract`` moves many poses in one call.
- Tangent vectors are 6-vectors ``[omega, v]``: rotation part first (axis-angle,
  radians), translation part second (scene units).
- The retraction is left-multiplicative: ``retract(T, d) = exp(d) * T``,
  exact for all tangent magnitudes; all pose jacobians are taken with respect
  to this tangent at zero.
- ``pinhole`` is the one world -> camera -> pixel map: the solver's factors,
  the scene generator, the initializer and ``project`` all call it, so a
  point projects to the same bits on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheiralityViolation

DEPTH_EPS = 1e-9


# ---------------------------------------------------------------------------
# quaternion and SO(3) helpers ([w, x, y, z]), broadcast over leading axes
# ---------------------------------------------------------------------------

def _split(a):
    """The entries of a's last axis: floats for a single row (cheaper than
    arrays, and rounded alike), arrays otherwise."""
    return a.tolist() if a.ndim == 1 else [a[..., k] for k in range(a.shape[-1])]


def _join(shape, parts):
    """``parts`` (arrays or scalars) broadcast to ``shape``, as a new last axis."""
    if not shape:
        return np.array(parts)
    out = np.empty((*shape, len(parts)))
    for k, part in enumerate(parts):
        out[..., k] = part
    return out


def _away_from(small, x):
    """x with its ``small`` rows, whose series replaces a closed form, set to 1."""
    return np.where(small, 1.0, x) if np.count_nonzero(small) else x


def cross(a, b):
    """a x b over the last axis, by components (the bits of ``np.cross``)."""
    (a0, a1, a2), (b0, b1, b2) = _split(a), _split(b)
    c0 = a1 * b2 - a2 * b1
    return _join(np.shape(c0), (c0, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def quat_mul(a, b):
    (aw, ax, ay, az), (bw, bx, by, bz) = _split(np.asarray(a, float)), _split(np.asarray(b, float))
    w = aw * bw - ax * bx - ay * by - az * bz
    return _join(np.shape(w), (w,
                               aw * bx + ax * bw + ay * bz - az * by,
                               aw * by - ax * bz + ay * bw + az * bx,
                               aw * bz + ax * by - ay * bx + az * bw))


def quat_conj(q):
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def _sqnorm(a):
    """Squared norms over the last axis, each rounded as ``np.dot`` rounds a
    lone row: BLAS sums the entries of a strided row in another order."""
    a = np.ascontiguousarray(a)
    return np.vecdot(a, a)


def normalized(q):
    """Rows of q over their norms, each rounded as ``q / np.linalg.norm(q)``."""
    return q / np.sqrt(_sqnorm(q))[..., None]


def quat_rotate(q, v):
    # v + 2w (u x v) + 2 u x (u x v), u = vector part
    q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    u = q[..., 1:]
    uv = cross(u, v)
    return v + 2.0 * (q[..., :1] * uv + cross(u, uv))


def quat_to_matrix(q):
    w, x, y, z = _split(np.asarray(q, dtype=float))
    shape = np.shape(q)[:-1]
    return _join(shape, (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )).reshape(*shape, 3, 3)


def quat_from_rotvec(w):
    w = np.asarray(w, dtype=float)
    theta2 = _sqnorm(w)
    small = np.sqrt(theta2) < 1e-8
    theta = np.sqrt(_away_from(small, theta2))
    s, c = np.sin(0.5 * theta) / theta, np.cos(0.5 * theta)
    if np.count_nonzero(small):
        # sin(t/2)/t = 1/2 - t^2/48 + O(t^4)
        s = np.where(small, 0.5 - theta2 / 48.0, s)
        c = np.where(small, 1.0 - theta2 / 8.0, c)
    return _join(np.shape(c), (c, *(s * wk for wk in _split(w))))


def quat_to_rotvec(q):
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    w, u = q[..., :1], q[..., 1:]
    s = np.sqrt(_sqnorm(u))[..., None]
    small = s < 1e-8
    rotvec = u * (2.0 * np.arctan2(s, w) / _away_from(small, s))
    if np.count_nonzero(small):
        # theta/sin(theta/2) ~ 2 + s^2/(3 w^2) for small angles
        rotvec = np.where(small, u * (2.0 / w) * (1.0 - s * s / (3.0 * w * w)), rotvec)
    return rotvec


def so3_hat(w):
    w0, w1, w2 = _split(np.asarray(w, dtype=float))
    shape = np.shape(w)[:-1]
    return _join(shape, (0.0, -w2, w1, w2, 0.0, -w0, -w1, w0, 0.0)).reshape(*shape, 3, 3)


def _so3_left_jacobian(w):
    """V(w) with t = V(w) v in the SE(3) exponential."""
    theta2 = _sqnorm(w)
    small = theta2 < 1e-16
    t2 = _away_from(small, theta2)
    theta = np.sqrt(t2)
    a, b = (((1.0 - np.cos(theta)) / t2)[..., None, None],
            ((theta - np.sin(theta)) / (t2 * theta))[..., None, None])
    W = so3_hat(w)
    WW = W @ W
    V = np.eye(3) + W * a + WW * b
    if np.count_nonzero(small):
        V = np.where(small[..., None, None], np.eye(3) + 0.5 * W + WW / 6.0, V)
    return V


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
    def of_unit(q, t):
        """The pose of unit quaternion q and translation t as they are: no copy."""
        pose = Pose.__new__(Pose)
        pose.q, pose.t = q, t
        return pose

    def rotation_matrix(self):
        return quat_to_matrix(self.q)

    def rotate(self, v):
        return quat_rotate(self.q, v)

    def apply(self, p_cam):
        """Map a camera-frame point into world coordinates."""
        return self.rotate(p_cam) + self.t

    def world_to_camera(self, p_world):
        return quat_rotate(quat_conj(self.q), np.asarray(p_world, dtype=float) - self.t)

    def compose(self, other):
        """self * other (apply ``other`` first, then ``self``)."""
        return Pose(quat_mul(self.q, other.q), self.rotate(other.t) + self.t)

    def inverse(self):
        qc = quat_conj(self.q)
        return Pose(qc, -quat_rotate(qc, self.t))

    def copy(self):
        return Pose.of_unit(self.q.copy(), self.t.copy())

    def __repr__(self):
        return f"Pose(q={self.q.tolist()}, t={self.t.tolist()})"


def quat_from_matrix(R):
    """Shepperd's method; returns [w, x, y, z]."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        # i is the largest diagonal entry, (i, j, k) a cyclic order of the axes
        i = 0 if R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2] else 1 if R[1, 1] >= R[2, 2] else 2
        j, k = (i + 1) % 3, (i + 2) % 3
        a, b = sorted((j, k))
        s = np.sqrt(1.0 + R[i, i] - R[a, a] - R[b, b]) * 2.0
        q = np.empty(4)
        q[0], q[1 + i] = (R[k, j] - R[j, k]) / s, 0.25 * s
        q[1 + j], q[1 + k] = (R[i, j] + R[j, i]) / s, (R[i, k] + R[k, i]) / s
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------------------
# SE(3) retraction
# ---------------------------------------------------------------------------

def retract(q, t, delta):
    """Left-multiplicative update exp(delta) * (q, t) of unit quaternions
    q (..., 4) and translations t (..., 3) by tangents delta (..., 6). Each
    row rounds as it does alone, and the new q is normalized once."""
    if q.ndim == 2 and len(q) == 1:  # a lone row runs as cheaper scalar arithmetic
        return tuple(a[None] for a in retract(q[0], t[0], delta[0]))
    w, v = delta[..., :3], np.ascontiguousarray(delta[..., 3:])
    dq = normalized(quat_from_rotvec(w))
    dt = np.matmul(_so3_left_jacobian(w), v[..., None])[..., 0]
    return normalized(quat_mul(dq, q)), quat_rotate(dq, t) + dt


def se3_retract(pose, delta):
    """Left-multiplicative update exp(delta) * pose."""
    return Pose.of_unit(*retract(pose.q, pose.t, np.asarray(delta, dtype=float)))


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

    def row(self):
        """``[fx, fy, cx, cy]``, the intrinsics row of ``pinhole``."""
        return np.array([self.fx, self.fy, self.cx, self.cy])

    def matrix(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


def pinhole(rot, t, intrinsics, points):
    """Pixels (..., 2), camera points c = (X - t) R (..., 3) and in-front mask
    c_z > DEPTH_EPS (...) of world points X (..., 3), broadcast against
    world-from-camera rotations (..., 3, 3), translations (..., 3) and
    ``[fx, fy, cx, cy]`` rows (..., 4). Each row is its own 1x3 by 3x3 product
    with pixel f c (1 / c_z) + c0, so it rounds alike alone or in any batch.
    Behind the camera the pixel is whatever the division gives."""
    points = np.asarray(points, dtype=float)
    intrinsics = np.asarray(intrinsics, dtype=float)
    c = np.matmul((points - t)[..., None, :], rot)[..., 0, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = intrinsics[..., :2] * c[..., :2] * (1.0 / c[..., 2:]) + intrinsics[..., 2:]
    return pix, c, c[..., 2] > DEPTH_EPS


def project(pose, intr, point):
    """Pinhole projection of a world point; raises behind the camera."""
    pix, c, _ = pinhole(pose.rotation_matrix(), pose.t, intr.row(), point)
    if c[2] <= DEPTH_EPS:
        raise CheiralityViolation(f"depth {c[2]:.3e} <= {DEPTH_EPS}")
    return pix


def projection_jacobians(pose, intr, point):
    """Jacobians of ``project`` w.r.t. the pose tangent at zero and the point.

    Returns (J_pose 2x6, J_point 2x3). Tangent ordering is [omega, v] and the
    retraction is left-multiplicative, so the translation block of J_pose is
    exactly -J_point.
    """
    point = np.asarray(point, dtype=float)
    _, c, _ = pinhole(pose.rotation_matrix(), pose.t, intr.row(), point)
    if c[2] <= DEPTH_EPS:
        raise CheiralityViolation(f"depth {c[2]:.3e} <= {DEPTH_EPS}")
    iz = 1.0 / c[2]
    dh_dc = np.array([[intr.fx * iz, 0.0, -intr.fx * c[0] * iz * iz],
                      [0.0, intr.fy * iz, -intr.fy * c[1] * iz * iz]])
    Rt = quat_to_matrix(quat_conj(pose.q))
    J_point = dh_dc @ Rt
    return np.hstack([dh_dc @ (Rt @ so3_hat(point)), -J_point]), J_point
