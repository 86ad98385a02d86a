"""Monocular geometric initialization over a short window.

Pipeline: terminal-frame selection (co-visibility / parallax / reprojection
gates), relative pose from the essential matrix (five-point RANSAC),
triangulation with a median-depth gate, Bayesian inverse-depth fusion, PnP
for the remaining frames with a constant-velocity fallback, and a per-frame
re-triangulation / fusion sweep against the anchor frame.

``run_initialization`` holds the window as one table with a column per
track, in ascending track id: a (T, n) ``seen`` mask and (T, n, 2) pixels.
Each stage works on columns and masks over it. The candidates of frame t are
``seen[0] & seen[t]``; the inverse-depth beliefs are ``mu`` and ``var``
arrays, fused in one ``fuse_inverse_depth`` call per PnP frame; the retained
observations are one (T, n) ``kept`` mask, which the PnP rejection, the
3-sigma fusion gate and the final in-front, two-view filter clear.

``triangulate`` and ``sigma_obs_from_reproj`` take every pixel pair of one
pose pair at once and flag failed pairs instead of raising: one call per
candidate frame, one for the anchor-terminal pair and one per PnP frame.

Pixels, depths and reprojection errors come from ``geometry.pinhole``, as the
solver's do. The resulting state is gauge-normalized: the anchor pose is the
identity and the anchor-to-terminal baseline has unit length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fivepoint
from .errors import (DegenerateGeometry, Diverged, InitializationFailed,
                     NoValidTerminal, TooFewCorrespondences, TooFewPoints)
from .geometry import (CameraIntrinsics, Pose, pinhole, quat_from_matrix,
                       quat_to_matrix, quat_to_rotvec, quat_mul, quat_conj)
from .problem import Problem, StateVector, StaticModel
from .solver import SolverSettings, optimize

RAY_PARALLEL_EPS = 1e-6  # rad
UNIT_INTRINSICS = np.array([1.0, 1.0, 0.0, 0.0])  # for depths, which need none
PROBE_PX = 1.0           # epipolar disparity of the inverse-depth probe, px
REJECT_FACTOR = 3.0      # PnP rejects observations off by more than this x eps_max
JUMP_ROT = np.deg2rad(30.0)  # largest PnP rotation away from its start, rad
JUMP_TRANS_FACTOR = 5.0  # largest PnP translation, in median inter-frame motions


@dataclass
class WindowConfig:
    n_min: int = 30              # minimum correspondences with the anchor
    theta_min: float = 0.01745   # minimum rotation-compensated parallax, rad
    eps_max: float = 2.0         # maximum mean reprojection error, px
    r_min: float = 0.9           # minimum positive-depth ratio
    stability_factor: float = 0.05  # stable when var < (factor * mu)^2

    def __post_init__(self):
        if self.n_min < 8:
            raise ValueError("n_min must be >= 8")
        if self.theta_min <= 0 or self.eps_max <= 0:
            raise ValueError("theta_min and eps_max must be positive")
        if not 0 < self.r_min <= 1:
            raise ValueError("r_min must be in (0, 1]")


@dataclass
class RansacConfig:
    max_iterations: int = 200
    threshold: float = 8e-3      # angular epipolar error, rad
    confidence: float = 0.999
    seed: int = 0
    min_parallax: float = 1e-4   # degeneracy gate on median inlier parallax, rad

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")


@dataclass
class InverseDepthEstimate:
    mu: float      # inverse depth, 1 / scene-unit
    var: float     # variance of the inverse depth
    stable: bool = False


@dataclass
class CandidateStats:
    """Per-candidate gate quantities for terminal-frame selection."""

    frame: int
    count: int = 0
    parallax: float = 0.0
    mean_reproj: float = np.inf
    pos_depth_ratio: float = 0.0
    usable: bool = True  # relative pose and triangulation succeeded


def select_terminal_frame(stats, config):
    """Best candidate among those passing all four gates.

    Score: normalized parallax + normalized correspondence count - normalized
    mean reprojection error, each criterion divided by its maximum over the
    passing candidates (equal weights). Ties break to the earliest frame.
    """
    passing = [s for s in stats
               if s.usable and s.count >= config.n_min
               and s.parallax >= config.theta_min
               and s.mean_reproj <= config.eps_max
               and s.pos_depth_ratio >= config.r_min]
    if not passing:
        raise NoValidTerminal("no candidate frame passed the selection gates")
    max_par = max(s.parallax for s in passing)
    max_cnt = max(s.count for s in passing)
    max_err = max(s.mean_reproj for s in passing)
    best = None
    best_score = -np.inf
    for s in sorted(passing, key=lambda s: s.frame):
        score = (s.parallax / max_par if max_par > 0 else 0.0) \
            + (s.count / max_cnt if max_cnt > 0 else 0.0) \
            - (s.mean_reproj / max_err if max_err > 0 else 0.0)
        if score > best_score + 1e-15:
            best, best_score = s.frame, score
    return best


def normalize_bearings(pixels, K):
    """Unit-norm bearing vectors K^-1 [u, v, 1] / ||.||; third component > 0."""
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    Kinv = np.linalg.inv(np.asarray(K, dtype=float))
    h = np.column_stack([pixels, np.ones(len(pixels))]) @ Kinv.T
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def _eight_point(q_a, q_b):
    """Normalized linear solver projected onto the essential manifold."""
    A = np.einsum("ni,nj->nij", q_b, q_a).reshape(len(q_a), 9)
    _, _, Vt = np.linalg.svd(A)
    E0 = Vt[-1].reshape(3, 3)
    U, s, Vt2 = np.linalg.svd(E0)
    m = 0.5 * (s[0] + s[1])
    E = U @ np.diag([m, m, 0.0]) @ Vt2
    return E / np.linalg.norm(E)


def _cheirality_depths(R, t, q_a, q_b):
    """Per-pair depths (z_a, z_b) for X_b = R X_a + t: the least-squares
    solution of z_a R q_a - z_b q_b = -t, a closed-form 2x2 solve of
    determinant |R q_a x q_b|^2. Below lstsq's rank cutoff (det <= (6 eps)^2)
    the rays are parallel and the pair gets (0, 0): not in front, as lstsq's
    minimum-norm solution of opposite signs was."""
    ra = q_a @ R.T                      # rotated anchor rays, rows
    c = np.vecdot(ra, q_b)
    det = np.sum(np.cross(ra, q_b) ** 2, axis=1)
    r_a, r_b = -(ra @ t), q_b @ t
    inv = np.divide(1.0, det, out=np.zeros_like(det),
                    where=det > (6.0 * np.finfo(float).eps) ** 2)
    za = (np.vecdot(q_b, q_b) * r_a + c * r_b) * inv
    zb = (c * r_a + np.vecdot(ra, ra) * r_b) * inv
    return za, zb


def rotation_compensated_parallax(q_a, q_b, R):
    """Angle between anchor bearings and candidate bearings with the
    candidate rotation removed."""
    back = q_b @ R  # rows R^T q_b
    dots = np.clip(np.einsum("ni,ni->n", q_a, back), -1.0, 1.0)
    return np.arccos(dots)


def estimate_relative_pose(bearings_anchor, bearings_terminal, cfg,
                           min_parallax=None):
    """Relative pose of the terminal camera: X_term = R X_anchor + t.

    Five-point minimal solver inside seeded RANSAC (a counter-based Philox
    generator keeps hypothesis sampling deterministic), linear refit on the
    inlier set projected back onto the essential manifold, cheirality
    disambiguation among the four decompositions by majority positive depth.
    t is returned with unit norm; the scale is unobservable.
    """
    q_a = np.asarray(bearings_anchor, dtype=float)
    q_b = np.asarray(bearings_terminal, dtype=float)
    n = len(q_a)
    if n < 5:
        raise TooFewCorrespondences(f"{n} < 5 correspondences")
    if min_parallax is None:
        min_parallax = cfg.min_parallax

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    best_E = None
    best_mask = None
    best_count = -1
    max_iter = cfg.max_iterations
    it = 0
    while it < max_iter:
        it += 1
        sample = rng.choice(n, size=5, replace=False)
        sols = fivepoint.essential_from_five(q_a[sample], q_b[sample])
        if not sols:
            continue
        masks = fivepoint.epipolar_errors(np.stack(sols), q_a, q_b) < cfg.threshold
        for E, mask, count in zip(sols, masks, masks.sum(axis=1).tolist()):
            if count > best_count:
                best_E, best_mask, best_count = E, mask, count
                ratio = count / n
                if 0 < ratio < 1:
                    denom = np.log(max(1.0 - ratio ** 5, 1e-16))
                    needed = int(np.ceil(np.log(1.0 - cfg.confidence) / denom))
                    max_iter = min(cfg.max_iterations, max(needed, 1))
                elif ratio == 1.0:
                    max_iter = it
    if best_E is None or best_count < 5:
        raise DegenerateGeometry("RANSAC produced no valid essential matrix")

    # linear refit on the inliers, then re-score
    if best_count >= 8:
        E_ref = _eight_point(q_a[best_mask], q_b[best_mask])
        errs = fivepoint.epipolar_errors(E_ref, q_a, q_b)
        mask = errs < cfg.threshold
        if int(mask.sum()) >= best_count:
            best_E, best_mask, best_count = E_ref, mask, int(mask.sum())

    ia, ib = q_a[best_mask], q_b[best_mask]
    best_pose = None
    best_pos = -1
    for R, t in fivepoint.decompose_essential(best_E):
        za, zb = _cheirality_depths(R, t, ia, ib)
        pos = int(((za > 0) & (zb > 0)).sum())
        if pos > best_pos:
            best_pos, best_pose = pos, (R, t)
    if best_pos <= 0:
        raise DegenerateGeometry("no decomposition passes cheirality")
    R, t = best_pose
    parallax = rotation_compensated_parallax(ia, ib, R)
    if float(np.median(parallax)) < min_parallax:
        raise DegenerateGeometry(
            f"median inlier parallax {np.median(parallax):.2e} < {min_parallax:.2e}")
    return R, t / np.linalg.norm(t), best_mask


def _depth(pose, points):
    """Depth of world points in the camera of ``pose``, by ``pinhole``."""
    return pinhole(pose.rotation_matrix(), pose.t, UNIT_INTRINSICS, points)[1][:, 2]


def triangulate(p0, p1, pose0, pose1, K):
    """Linear two-view triangulation of n pixel pairs (n, 2) from one pose
    pair, in one batch: a ray of world direction d from camera centre c adds
    (I - d d^T)(X - c) = 0, the normal equations of the cross-product
    constraints [q]x (R X + t) = 0 (Hartley & Zisserman, Multiple View
    Geometry, 12.2), and the 3x3 sums are solved as one stack.

    Returns (X (n, 3), ok (n,)); ok is False, and X meaningless, where X has
    non-positive depth in either view or the rays are within
    RAY_PARALLEL_EPS of parallel or anti-parallel (singular equations).
    """
    d0 = normalize_bearings(np.reshape(p0, (-1, 2)), K) @ pose0.rotation_matrix().T
    d1 = normalize_bearings(np.reshape(p1, (-1, 2)), K) @ pose1.rotation_matrix().T
    ok = np.linalg.norm(np.cross(d0, d1), axis=1) >= np.sin(RAY_PARALLEL_EPS)
    P0 = np.eye(3) - d0[:, :, None] * d0[:, None, :]
    P1 = np.eye(3) - d1[:, :, None] * d1[:, None, :]
    A = P0 + P1
    A[~ok] = np.eye(3)  # parallel rays: a stand-in keeps the stack regular
    X = np.linalg.solve(A, (P0 @ pose0.t + P1 @ pose1.t)[:, :, None])[:, :, 0]
    ok &= (_depth(pose0, X) > 0) & (_depth(pose1, X) > 0)
    return X, ok


def depth_gate(z_values):
    """Mask of the anchor depths ``z_values`` in [0.1, 10] x median depth.

    The median is taken over the positive depths only. Never raises; an
    all-False mask signals that nothing survived.
    """
    z = np.asarray(z_values, dtype=float)
    pos = z > 0
    if not pos.any():
        return np.zeros(len(z), dtype=bool)
    z_med = float(np.median(z[pos]))
    return (z >= 0.1 * z_med) & (z <= 10.0 * z_med)


def fuse_inverse_depth(prior, rho_obs, var_obs, stability_factor=0.05):
    """Gaussian product posterior of two inverse-depth beliefs, elementwise
    over arrays of beliefs and observations."""
    if np.any(np.asarray(var_obs) <= 0):
        raise ValueError("var_obs must be positive")
    var = 1.0 / (1.0 / prior.var + 1.0 / var_obs)
    mu = var * (prior.mu / prior.var + rho_obs / var_obs)
    return InverseDepthEstimate(mu, var, var < np.square(stability_factor * mu))


def sigma_obs_from_reproj(p0, p1, pose0, pose1, K, sigma_pix):
    """Inverse-depth observation variances of n pixel pairs from a
    one-pixel-disparity probe: each second-view pixel is perturbed by
    +-sigma_pix along its epipolar direction and re-triangulated, and the
    half-spread of the two inverse depths is the observation sigma.

    Returns (var (n,), X (n, 3), ok (n,)), X and ok as ``triangulate``'s; ok
    is also False where the probe fails (no epipolar direction, a probe point
    behind the second camera, a perturbed pair not triangulated). var is 0
    where not ok, and everywhere for sigma_pix 0.
    """
    p0 = np.reshape(p0, (-1, 2)).astype(float)
    p1 = np.reshape(p1, (-1, 2)).astype(float)
    X, ok = triangulate(p0, p1, pose0, pose1, K)
    var = np.zeros(len(X))
    if sigma_pix == 0:
        return var, X, ok
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    q0 = normalize_bearings(p0, K)
    unit, z0 = q0 / q0[:, 2:], _depth(pose0, X)
    R0 = pose0.rotation_matrix()
    R1 = pose1.rotation_matrix()
    u_near, near = _pixels(R1, pose1.t, intr, (unit * (0.95 * z0)[:, None]) @ R0.T + pose0.t)
    u_far, far = _pixels(R1, pose1.t, intr, (unit * (1.05 * z0)[:, None]) @ R0.T + pose0.t)
    d = u_far - u_near
    nd = np.linalg.norm(d, axis=1)
    ok &= near & far & (nd >= 1e-12)
    d = np.where(ok[:, None], d, 0.0) / np.where(ok, nd, 1.0)[:, None]
    Xp, okp = triangulate(np.vstack([p0, p0]),
                          np.vstack([p1 + sigma_pix * d, p1 - sigma_pix * d]),
                          pose0, pose1, K)
    n = len(X)
    ok &= okp[:n] & okp[n:]
    rho = 1.0 / np.where(okp, _depth(pose0, Xp), 1.0)
    sigma = 0.5 * np.abs(rho[:n] - rho[n:])
    var[ok] = sigma[ok] * sigma[ok]
    return var, X, ok


def _pose_jump(pose, ref):
    rot = quat_to_rotvec(quat_mul(pose.q, quat_conj(ref.q)))
    return float(np.linalg.norm(rot)), float(np.linalg.norm(pose.t - ref.t))


def constant_velocity_extrapolation(prev_poses):
    """P_next = P_last * P_prev^-1 * P_last."""
    if len(prev_poses) < 2:
        raise TooFewPoints("need two previous poses for the motion prediction")
    p1, p2 = prev_poses[-1], prev_poses[-2]
    return p1.compose(p2.inverse()).compose(p1)


def pnp_pose(landmarks, pixels, K, pose_init, prev_poses=(), eps_max=2.0):
    """Gauss-Newton pose-only refinement with a constant-velocity fallback.

    Falls back to the motion prediction when the refinement diverges, its
    mean reprojection error exceeds eps_max, or the pose jumps too far from
    pose_init (rotation above JUMP_ROT or translation above
    JUMP_TRANS_FACTOR times the median inter-frame motion of prev_poses).
    """
    landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    fallback = None
    if len(prev_poses) >= 2:
        fallback = constant_velocity_extrapolation(prev_poses)
    if len(landmarks) < 4:
        if fallback is not None:
            return fallback
        raise TooFewPoints(f"{len(landmarks)} correspondences and no motion history")

    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    n = len(landmarks)
    state = StateVector([pose_init], landmarks,
                        fixed_poses=[False], fixed_landmarks=[True] * n)
    frames, rows = np.zeros(n, dtype=int), np.arange(n)
    prob = Problem(state, intr, frames, rows, rows, StaticModel(frames, rows, pixels))
    try:
        solved, report = optimize(prob, state, settings=SolverSettings(max_iterations=50))
    except Diverged:
        solved = None
    pose = solved.poses[0] if solved is not None else None

    if pose is not None and np.mean(
            reprojection_errors(pose, landmarks, pixels, intr)) > eps_max:
        pose = None
    if pose is not None and fallback is not None:
        rot, trans = _pose_jump(pose, pose_init)
        steps = [np.linalg.norm(b.t - a.t) for a, b in zip(prev_poses, prev_poses[1:])]
        med = float(np.median(steps)) if steps else np.inf
        if rot > JUMP_ROT or (np.isfinite(med) and trans > JUMP_TRANS_FACTOR * max(med, 1e-12)):
            pose = None
    if pose is None:
        if fallback is not None:
            return fallback
        raise TooFewPoints("refinement failed and no motion history available")
    return pose


def _pixels(rot, t, intr, points):
    """Pixels (n, 2) of world points by ``pinhole``, from one pose or one pose
    per point, and whether each lies in front (depth > DEPTH_EPS); a point
    behind gets a NaN pixel."""
    uv, _, front = pinhole(rot, t, intr.row(), points)
    return np.where(front[:, None], uv, np.nan), front


def reprojection_errors(pose, points, pixels, intr):
    """Pixel error of each point seen from one pose, in one batch. A point
    behind the camera (depth <= DEPTH_EPS) counts as infinitely far off."""
    uv, front = _pixels(pose.rotation_matrix(), pose.t, intr, points)
    return np.where(front, np.linalg.norm(uv - pixels, axis=1), np.inf)


@dataclass
class InitResult:
    state: StateVector
    track_ids: list          # the state's landmark rows, ascending track id
    observations: dict       # kept (frame, track) -> pixel, frame-major, by track
    terminal_index: int
    diagnostics: dict = field(default_factory=dict)


def mean_reprojection_error(state, K, track_ids, observations):
    """Mean pixel error of the (frame, track) -> pixel observations at the
    state, in one batch; a point behind its camera counts as infinitely off."""
    if not observations:
        return np.inf
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    index = {tr: k for k, tr in enumerate(track_ids)}
    frames = np.array([f for f, _ in observations], dtype=int)
    rows = np.array([index[tr] for _, tr in observations], dtype=int)
    uv, front = _pixels(quat_to_matrix(state.q)[frames], state.t[frames], intr,
                        state.landmarks[rows])
    pixels = np.array(list(observations.values()))
    return float(np.mean(np.where(front, np.linalg.norm(uv - pixels, axis=1), np.inf)))


def _window_table(window):
    """The window as one table with a column per track, in ascending track
    id: the track ids, a (T, n) mask of which frame sees which track and the
    (T, n, 2) pixels, NaN where unseen."""
    ids = sorted(set().union(*window))
    column = {tr: k for k, tr in enumerate(ids)}
    seen = np.zeros((len(window), len(ids)), dtype=bool)
    pixels = np.full((len(window), len(ids), 2), np.nan)
    for f, frame in enumerate(window):
        cols = [column[tr] for tr in frame]
        seen[f, cols] = True
        pixels[f, cols] = np.reshape(list(frame.values()), (-1, 2))
    return ids, seen, pixels


def run_initialization(window, K, cfg=None, ransac_cfg=None):
    """Full window initialization; see the module docstring for the stages.

    ``window`` is a list of per-frame dicts mapping track id -> pixel (2,).
    Raises InitializationFailed with a stage tag on unrecoverable errors and
    on a non-finite pixel.
    """
    cfg = WindowConfig() if cfg is None else cfg
    ransac_cfg = RansacConfig() if ransac_cfg is None else ransac_cfg
    K = np.asarray(K, dtype=float)
    T = len(window)
    if T < 3:
        raise InitializationFailed("window-too-short", f"{T} frames")

    ids, seen, pix = _window_table(window)
    bad = np.argwhere(seen & ~np.isfinite(pix).all(axis=2))
    if len(bad):
        f, col = bad[0]
        raise InitializationFailed("non-finite-pixel",
                                   f"frame {f}, track {ids[col]}: {pix[f, col].tolist()}")
    n = len(ids)
    anchor_pose = Pose()
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])

    # --- candidate evaluation and terminal selection -----------------------
    stats, cache = [], {}
    for t in range(1, T):
        common = np.flatnonzero(seen[0] & seen[t])
        st = CandidateStats(frame=t)
        stats.append(st)
        if len(common) < 5:
            st.usable = False
            continue
        px0, px1 = pix[0, common], pix[t, common]
        b0, b1 = normalize_bearings(px0, K), normalize_bearings(px1, K)
        try:
            R, tdir, mask = estimate_relative_pose(
                b0, b1, ransac_cfg, min_parallax=min(ransac_cfg.min_parallax, cfg.theta_min))
        except (DegenerateGeometry, TooFewCorrespondences):
            st.usable = False
            continue
        pose_t = Pose(quat_from_matrix(R.T), -R.T @ tdir)
        X, ok = triangulate(px0[mask], px1[mask], anchor_pose, pose_t, K)
        errs = 0.5 * (reprojection_errors(anchor_pose, X[ok], px0[mask][ok], intr)
                      + reprojection_errors(pose_t, X[ok], px1[mask][ok], intr))
        st.count = int(mask.sum())
        st.parallax = float(np.median(rotation_compensated_parallax(b0[mask], b1[mask], R)))
        st.mean_reproj = float(np.mean(errs)) if len(errs) else np.inf
        st.pos_depth_ratio = float(ok.mean())
        cache[t] = (pose_t, common[mask][ok], X[ok])

    try:
        t_star = select_terminal_frame(stats, cfg)
    except NoValidTerminal as exc:
        raise InitializationFailed("no-valid-terminal", str(exc)) from exc

    pose_term, cols, X = cache[t_star]
    poses = [anchor_pose] + [None] * (T - 1)
    poses[t_star] = pose_term

    # --- landmarks and inverse depths from the anchor-terminal pair --------
    depths = _depth(anchor_pose, X)
    keep = depth_gate(depths)
    cols, depths = cols[keep], depths[keep]
    var_obs, _, ok = sigma_obs_from_reproj(pix[0, cols], pix[t_star, cols],
                                           anchor_pose, pose_term, K, PROBE_PX)
    good = ok & (var_obs > 0)
    lm = cols[good]                   # the landmark columns, ascending
    if len(lm) < 4:
        raise InitializationFailed("triangulation", "fewer than 4 gated landmarks")
    mu, var = np.zeros(n), np.zeros(n)
    mu[lm], var[lm] = 1.0 / depths[good], var_obs[good]
    kept = np.zeros((T, n), dtype=bool)
    kept[0, lm] = kept[t_star, lm] = True

    q0 = normalize_bearings(pix[0, lm], K)
    unit_ray = np.zeros((n, 3))
    unit_ray[lm] = q0 / q0[:, 2:]

    def landmarks_from_depth(c):
        """World points of columns c at their inverse depths along anchor rays."""
        pts = unit_ray[c] * (1.0 / mu[c])[:, None]
        return pts @ anchor_pose.rotation_matrix().T + anchor_pose.t

    # --- PnP for the remaining frames with re-triangulation sweeps ---------
    for j in range(1, T):
        if j == t_star:
            continue
        prev = poses[max(j - 2, 0):j]
        stable = var[lm] < np.square(cfg.stability_factor * mu[lm])
        usable = lm[seen[j, lm] & stable]
        if len(usable) < 4:
            usable = lm[seen[j, lm]]
        pts, pix_j = landmarks_from_depth(usable), pix[j, usable]
        try:
            # lenient first fit, one rejection pass against gross outliers,
            # then the gated refit on the surviving observations
            pose_j = pnp_pose(pts, pix_j, K, poses[j - 1], prev, eps_max=np.inf)
            good = np.ones(len(usable), dtype=bool)
            if len(usable) >= 4:
                good = (reprojection_errors(pose_j, pts, pix_j, intr)
                        <= REJECT_FACTOR * cfg.eps_max)
                if good.sum() >= 4 and not good.all():
                    pose_j = pnp_pose(pts[good], pix_j[good], K, pose_j, prev,
                                      eps_max=cfg.eps_max)
        except TooFewPoints as exc:
            raise InitializationFailed("pnp", f"frame {j}: {exc}") from exc
        poses[j] = pose_j
        sweep = usable[good]
        kept[j, sweep] = True

        # fusion sweep against the anchor reference; an observation
        # inconsistent with its track's running belief is dropped
        var_obs, X, ok = sigma_obs_from_reproj(pix[0, sweep], pix[j, sweep],
                                               anchor_pose, pose_j, K, PROBE_PX)
        good = ok & (var_obs > 0)
        c, rho, v = sweep[good], 1.0 / _depth(anchor_pose, X[good]), var_obs[good]
        drop = np.square(rho - mu[c]) > 9.0 * (var[c] + v)
        kept[j, c[drop]] = False
        c, rho, v = c[~drop], rho[~drop], v[~drop]
        post = fuse_inverse_depth(InverseDepthEstimate(mu[c], var[c]), rho, v,
                                  cfg.stability_factor)
        mu[c], var[c] = post.mu, post.var

    # --- final track filtering and state assembly --------------------------
    # a track keeps the frames that see its landmark in front, if two or more
    points = np.zeros((n, 3))
    points[lm] = landmarks_from_depth(lm)
    f, c = np.nonzero(kept)
    _, front = _pixels(quat_to_matrix(np.array([p.q for p in poses]))[f],
                       np.array([p.t for p in poses])[f], intr, points[c])
    kept[f[~front], c[~front]] = False
    kept &= kept.sum(axis=0) >= 2
    cols = np.flatnonzero(kept.any(axis=0))
    if not len(cols):
        raise InitializationFailed("filtering", "no track observed in 2+ frames")

    track_ids = [ids[k] for k in cols]
    state = StateVector(poses, points[cols], fixed_poses=[True] + [False] * (T - 1))
    f, c = np.nonzero(kept)
    observations = {(i, ids[k]): pix[i, k] for i, k in zip(f.tolist(), c.tolist())}
    mean = mean_reprojection_error(state, K, track_ids, observations)
    return InitResult(state, track_ids, observations, t_star,
                      {"mean_reprojection_px": mean, "n_tracks": len(track_ids)})
