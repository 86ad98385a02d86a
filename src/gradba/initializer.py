"""Monocular geometric initialization over a short window.

Pipeline: terminal-frame selection (co-visibility / parallax / reprojection
gates), relative pose from the essential matrix (five-point RANSAC),
triangulation with a median-depth gate, Bayesian inverse-depth fusion, PnP
for the remaining frames with a constant-velocity fallback, and a per-frame
re-triangulation / fusion sweep against the anchor frame.

The resulting state is gauge-normalized: the anchor pose is the identity and
the anchor-to-terminal baseline has unit length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fivepoint
from .errors import (DegenerateGeometry, Diverged, InitializationFailed,
                     LowParallax, NegativeDepth, NoValidTerminal,
                     TooFewCorrespondences, TooFewPoints)
from .geometry import (DEPTH_EPS, CameraIntrinsics, Pose, project,
                       quat_from_matrix, quat_to_rotvec, quat_mul, quat_conj,
                       so3_hat)
from .problem import Problem, StateVector, StaticModel
from .solver import SolverSettings, optimize

RAY_PARALLEL_EPS = 1e-6  # rad


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
    use_eight_point: bool = False  # cross-checking solver behind a switch

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")


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
    return [E / np.linalg.norm(E)]


def _cheirality_depths(R, t, q_a, q_b):
    """Per-pair depths (z_a, z_b) for X_b = R X_a + t via two-ray least squares."""
    ra = q_a @ R.T                      # rotated anchor rays, rows
    za = np.empty(len(q_a))
    zb = np.empty(len(q_a))
    for k in range(len(q_a)):
        A = np.column_stack([ra[k], -q_b[k]])
        sol, *_ = np.linalg.lstsq(A, -t, rcond=None)
        za[k], zb[k] = sol[0], sol[1]
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
    min_sample = 8 if cfg.use_eight_point else 5
    if n < min_sample:
        raise TooFewCorrespondences(f"{n} < {min_sample} correspondences")
    if min_parallax is None:
        min_parallax = cfg.min_parallax

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    solver = _eight_point if cfg.use_eight_point else fivepoint.essential_from_five
    best_E = None
    best_mask = None
    best_count = -1
    max_iter = cfg.max_iterations
    it = 0
    while it < max_iter:
        it += 1
        sample = rng.choice(n, size=min_sample, replace=False)
        for E in solver(q_a[sample], q_b[sample]):
            errs = fivepoint.epipolar_errors(E, q_a, q_b)
            mask = errs < cfg.threshold
            count = int(mask.sum())
            if count > best_count:
                best_E, best_mask, best_count = E, mask, count
                ratio = count / n
                if 0 < ratio < 1:
                    denom = np.log(max(1.0 - ratio ** min_sample, 1e-16))
                    needed = int(np.ceil(np.log(1.0 - cfg.confidence) / denom))
                    max_iter = min(cfg.max_iterations, max(needed, 1))
                elif ratio == 1.0:
                    max_iter = it
    if best_E is None or best_count < min_sample:
        raise DegenerateGeometry("RANSAC produced no valid essential matrix")

    # linear refit on the inliers, then re-score
    if best_count >= 8:
        E_ref = _eight_point(q_a[best_mask], q_b[best_mask])[0]
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


def _world_to_cam(pose):
    R = pose.rotation_matrix().T
    return R, -R @ pose.t


def triangulate(p0, p1, pose0, pose1, K):
    """Linear least squares on the stacked ray cross-product constraints.

    Requires rays separated by more than RAY_PARALLEL_EPS and positive depth
    in both views.
    """
    q0 = normalize_bearings(p0, K)[0]
    q1 = normalize_bearings(p1, K)[0]
    d0 = pose0.rotate(q0)
    d1 = pose1.rotate(q1)
    cosang = np.clip(d0 @ d1, -1.0, 1.0)
    if np.arccos(cosang) < RAY_PARALLEL_EPS:
        raise LowParallax("rays are (near) parallel")
    R0, t0 = _world_to_cam(pose0)
    R1, t1 = _world_to_cam(pose1)
    A = np.vstack([so3_hat(q0) @ R0, so3_hat(q1) @ R1])
    b = -np.concatenate([so3_hat(q0) @ t0, so3_hat(q1) @ t1])
    X, *_ = np.linalg.lstsq(A, b, rcond=None)
    z0 = (R0 @ X + t0)[2]
    z1 = (R1 @ X + t1)[2]
    if z0 <= 0 or z1 <= 0:
        raise NegativeDepth(f"depths ({z0:.3g}, {z1:.3g})")
    return X


def depth_gate(points, z_values):
    """Retain points whose anchor depth lies in [0.1, 10] x median depth.

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
    """Gaussian product posterior of two inverse-depth beliefs."""
    if var_obs <= 0:
        raise ValueError("var_obs must be positive")
    var = 1.0 / (1.0 / prior.var + 1.0 / var_obs)
    mu = var * (prior.mu / prior.var + rho_obs / var_obs)
    stable = var < (stability_factor * mu) ** 2
    return InverseDepthEstimate(mu, var, stable)


def sigma_obs_from_reproj(p0, p1, pose0, pose1, K, sigma_pix):
    """Inverse-depth observation variance from a one-pixel-disparity probe.

    The second-view pixel is perturbed by +-sigma_pix along the epipolar
    direction, each perturbation is re-triangulated, and the half-spread of
    the resulting inverse depths is the observation sigma.
    """
    if sigma_pix == 0:
        return 0.0
    X = triangulate(p0, p1, pose0, pose1, K)
    R0, t0 = _world_to_cam(pose0)
    z0 = (R0 @ X + t0)[2]
    q0 = normalize_bearings(p0, K)[0]
    ray_pt = lambda z: pose0.apply(q0 / q0[2] * z)
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    u_near = project(pose1, intr, ray_pt(0.95 * z0))
    u_far = project(pose1, intr, ray_pt(1.05 * z0))
    d = u_far - u_near
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise LowParallax("epipolar direction undefined")
    d = d / nd
    rhos = []
    for sgn in (+1.0, -1.0):
        Xp = triangulate(p0, np.asarray(p1, float) + sgn * sigma_pix * d,
                         pose0, pose1, K)
        rhos.append(1.0 / (R0 @ Xp + t0)[2])
    sigma = 0.5 * abs(rhos[0] - rhos[1])
    return sigma * sigma


def _pose_jump(pose, ref):
    dq = quat_mul(pose.q, quat_conj(ref.q))
    rot = float(np.linalg.norm(quat_to_rotvec(dq)))
    trans = float(np.linalg.norm(pose.t - ref.t))
    return rot, trans


def constant_velocity_extrapolation(prev_poses):
    """P_next = P_last * P_prev^-1 * P_last."""
    if len(prev_poses) < 2:
        raise TooFewPoints("need two previous poses for the motion prediction")
    p1, p2 = prev_poses[-1], prev_poses[-2]
    return p1.compose(p2.inverse()).compose(p1)


def pnp_pose(landmarks, pixels, K, pose_init, prev_poses=(),
             eps_max=2.0, jump_rot=np.deg2rad(30.0), jump_trans_factor=5.0,
             settings=None):
    """Gauss-Newton pose-only refinement with a constant-velocity fallback.

    Falls back to the motion prediction when the refinement diverges, its
    mean reprojection error exceeds eps_max, or the pose jumps too far from
    pose_init (rotation above jump_rot or translation above
    jump_trans_factor times the median inter-frame motion of prev_poses).
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
    if settings is None:
        settings = SolverSettings(max_iterations=50)
    try:
        solved, report = optimize(prob, state, settings=settings)
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
        if rot > jump_rot or (np.isfinite(med) and trans > jump_trans_factor * max(med, 1e-12)):
            pose = None
    if pose is None:
        if fallback is not None:
            return fallback
        raise TooFewPoints("refinement failed and no motion history available")
    return pose


def reprojection_errors(pose, points, pixels, intr):
    """Pixel error of each point seen from one pose, in one batch. A point
    behind the camera (depth <= DEPTH_EPS) counts as infinitely far off."""
    c = (points - pose.t) @ pose.rotation_matrix()
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.array([intr.fx, intr.fy]) * c[:, :2] / c[:, 2:] + [intr.cx, intr.cy]
        err = np.linalg.norm(uv - pixels, axis=1)
    return np.where(c[:, 2] > DEPTH_EPS, err, np.inf)


@dataclass
class InitResult:
    state: StateVector
    track_ids: list                   # landmark order in the state
    estimates: dict                   # track -> InverseDepthEstimate
    observations: dict                # retained (frame, track) -> pixel
    terminal_index: int
    inlier_tracks: list               # anchor-terminal RANSAC inlier track ids
    diagnostics: dict = field(default_factory=dict)


def mean_reprojection_error(state, K, track_ids, observations):
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    index = {t: k for k, t in enumerate(track_ids)}
    errs = []
    for (frame, track), pix in observations.items():
        errs.append(np.linalg.norm(
            project(state.poses[frame], intr, state.landmarks[index[track]]) - pix))
    return float(np.mean(errs)) if errs else np.inf


def run_initialization(window, K, cfg=None, ransac_cfg=None,
                       sigma_pix=1.0, reject_px=None):
    """Full window initialization; see the module docstring for the stages.

    ``window`` is a list of per-frame dicts mapping track id -> pixel (2,).
    Raises InitializationFailed with a stage tag on unrecoverable errors.
    """
    cfg = WindowConfig() if cfg is None else cfg
    ransac_cfg = RansacConfig() if ransac_cfg is None else ransac_cfg
    if reject_px is None:
        reject_px = 3.0 * cfg.eps_max
    K = np.asarray(K, dtype=float)
    T = len(window)
    if T < 3:
        raise InitializationFailed("window-too-short", f"{T} frames")

    anchor = window[0]
    anchor_pose = Pose.identity()

    # --- candidate evaluation and terminal selection -----------------------
    stats = []
    cache = {}
    for t in range(1, T):
        common = sorted(set(anchor) & set(window[t]))
        st = CandidateStats(frame=t)
        if len(common) < (8 if ransac_cfg.use_eight_point else 5):
            st.usable = False
            stats.append(st)
            continue
        px0 = np.array([anchor[k] for k in common])
        px1 = np.array([window[t][k] for k in common])
        b0 = normalize_bearings(px0, K)
        b1 = normalize_bearings(px1, K)
        try:
            R, tdir, mask = estimate_relative_pose(b0, b1, ransac_cfg,
                                                   min_parallax=min(
                                                       ransac_cfg.min_parallax,
                                                       cfg.theta_min))
        except (DegenerateGeometry, TooFewCorrespondences):
            st.usable = False
            stats.append(st)
            continue
        pose_t = Pose(quat_from_matrix(R.T), -R.T @ tdir)
        tri = {}
        errs = []
        n_pos = 0
        n_tri = 0
        for k, track in enumerate(common):
            if not mask[k]:
                continue
            n_tri += 1
            try:
                X = triangulate(px0[k], px1[k], anchor_pose, pose_t, K)
            except (LowParallax, NegativeDepth):
                continue
            n_pos += 1
            tri[track] = X
            intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
            e0 = np.linalg.norm(project(anchor_pose, intr, X) - px0[k])
            e1 = np.linalg.norm(project(pose_t, intr, X) - px1[k])
            errs.append(0.5 * (e0 + e1))
        st.count = int(mask.sum())
        st.parallax = float(np.median(
            rotation_compensated_parallax(b0[mask], b1[mask], R)))
        st.mean_reproj = float(np.mean(errs)) if errs else np.inf
        st.pos_depth_ratio = n_pos / n_tri if n_tri else 0.0
        stats.append(st)
        cache[t] = (R, tdir, mask, common, pose_t, tri)

    try:
        t_star = select_terminal_frame(stats, cfg)
    except NoValidTerminal as exc:
        raise InitializationFailed("no-valid-terminal", str(exc)) from exc

    R, tdir, mask, common, pose_term, tri = cache[t_star]
    poses = {0: anchor_pose, t_star: pose_term}
    inlier_tracks = [tr for k, tr in enumerate(common) if mask[k]]

    # --- landmarks and inverse depths from the anchor-terminal pair --------
    R0, t0 = _world_to_cam(anchor_pose)
    tracks = [tr for tr in inlier_tracks if tr in tri]
    depths = np.array([(R0 @ tri[tr] + t0)[2] for tr in tracks])
    keep = depth_gate(tracks, depths)
    estimates = {}
    landmarks = {}
    observations = {}
    for k, tr in enumerate(tracks):
        if not keep[k]:
            continue
        z = depths[k]
        try:
            var_obs = sigma_obs_from_reproj(anchor[tr], window[t_star][tr],
                                            anchor_pose, pose_term, K, sigma_pix)
        except (LowParallax, NegativeDepth):
            continue
        if var_obs <= 0:
            continue
        mu = 1.0 / z
        est = InverseDepthEstimate(mu, var_obs)
        est.stable = est.var < (cfg.stability_factor * est.mu) ** 2
        estimates[tr] = est
        landmarks[tr] = tri[tr]
        observations[(0, tr)] = np.asarray(anchor[tr], float)
        observations[(t_star, tr)] = np.asarray(window[t_star][tr], float)
    if len(landmarks) < 4:
        raise InitializationFailed("triangulation", "fewer than 4 gated landmarks")

    q0_of = {tr: normalize_bearings(anchor[tr], K)[0] for tr in landmarks}

    def landmark_from_depth(tr):
        q = q0_of[tr]
        return anchor_pose.apply(q / q[2] * (1.0 / estimates[tr].mu))

    # --- PnP for the remaining frames with re-triangulation sweeps ---------
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    for j in range(1, T):
        if j in poses:
            continue
        initialized = sorted(i for i in poses if i < j)
        pose_init = poses[initialized[-1]] if initialized else anchor_pose
        prev = [poses[i] for i in sorted(poses) if i < j][-2:]
        usable = [tr for tr in landmarks
                  if tr in window[j] and estimates[tr].stable]
        if len(usable) < 4:
            usable = [tr for tr in landmarks if tr in window[j]]
        pts = np.array([landmark_from_depth(tr) for tr in usable]) \
            if usable else np.zeros((0, 3))
        pix = np.array([window[j][tr] for tr in usable]) \
            if usable else np.zeros((0, 2))
        try:
            # lenient first fit, one rejection pass against gross outliers,
            # then the gated refit on the surviving observations
            pose_j = pnp_pose(pts, pix, K, pose_init, prev, eps_max=np.inf)
            good = np.ones(len(usable), dtype=bool)
            if len(usable) >= 4:
                good = reprojection_errors(pose_j, pts, pix, intr) <= reject_px
                if good.sum() >= 4 and not good.all():
                    pose_j = pnp_pose(pts[good], pix[good], K, pose_j, prev,
                                      eps_max=cfg.eps_max)
        except TooFewPoints as exc:
            raise InitializationFailed("pnp", f"frame {j}: {exc}") from exc
        poses[j] = pose_j
        for k, tr in enumerate(usable):
            if good[k]:
                observations[(j, tr)] = np.asarray(window[j][tr], float)

        # fusion sweep against the anchor reference
        for tr in landmarks:
            if tr not in window[j] or (j, tr) not in observations:
                continue
            try:
                X = triangulate(anchor[tr], window[j][tr], anchor_pose, poses[j], K)
                var_obs = sigma_obs_from_reproj(anchor[tr], window[j][tr],
                                                anchor_pose, poses[j], K, sigma_pix)
            except (LowParallax, NegativeDepth):
                continue
            if var_obs <= 0:
                continue
            rho = 1.0 / (R0 @ X + t0)[2]
            est = estimates[tr]
            if (rho - est.mu) ** 2 > 9.0 * (est.var + var_obs):
                # inconsistent with the running belief; drop this observation
                observations.pop((j, tr), None)
                continue
            estimates[tr] = fuse_inverse_depth(est, rho, var_obs,
                                               cfg.stability_factor)

    # --- final track filtering and state assembly --------------------------
    track_ids = []
    final_landmarks = []
    for tr in sorted(landmarks):
        pos = landmark_from_depth(tr)
        frames = [f for f in range(T) if (f, tr) in observations]
        ok_frames = []
        for f in frames:
            Rf, tf = _world_to_cam(poses[f])
            if (Rf @ pos + tf)[2] > 0:
                ok_frames.append(f)
            else:
                observations.pop((f, tr), None)
        if len(ok_frames) >= 2:
            track_ids.append(tr)
            final_landmarks.append(pos)
        else:
            for f in ok_frames:
                observations.pop((f, tr), None)
    if not track_ids:
        raise InitializationFailed("filtering", "no track observed in 2+ frames")

    state = StateVector([poses[i] for i in range(T)],
                        np.array(final_landmarks),
                        fixed_poses=[True] + [False] * (T - 1))
    result = InitResult(state, track_ids, estimates, observations, t_star,
                        inlier_tracks)
    result.diagnostics["mean_reprojection_px"] = mean_reprojection_error(
        state, K, track_ids, observations)
    result.diagnostics["n_tracks"] = len(track_ids)
    return result
