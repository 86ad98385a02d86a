"""Per-factor loop versions of the batched factor kernel, kept as references.

These are the per-observation problem assembly, the per-row observation
predictor, the frame-by-frame projection, the factor-by-factor block
assembly and exact-Hessian correction, and the jacobian-row contractions of
the theta gradients that ``gradba.scene``, ``gradba.solver``,
``gradba.problem`` and ``gradba.implicit`` used before they became array
code. ``test_batched_kernel`` and ``test_properties`` compare the library
against them.
``fd_tangent_gradient`` is the central-difference oracle of the analytic
state-loss gradients, ``loop_drifting_grid`` the cell-by-cell draw of a
synthetic descriptor grid, and ``loop_generate_scene`` the scene generator
that draws and tests one landmark candidate at a time. ``loop_retract`` is
the per-pose retraction with the scalar arithmetic ``gradba.geometry`` had
before it broadcast.
``loop_triangulate``, ``loop_sigma_obs`` and ``loop_cheirality_depths`` are
the initializer's two-view geometry one pixel pair at a time, as
``gradba.initializer`` solved it before its batched normal equations: a 6x3
or 3x2 ``lstsq`` per pair. ``loop_run_initialization`` is the window
initialization on per-frame dicts, per-track inverse-depth estimates and an
observation dict, as it ran before the (frame x track) table.
``loop_essential_from_five`` is the five-point solver as a 30x30 QZ pencil
in the hidden variable z, validating one root at a time, as
``gradba.fivepoint`` solved it before its 10x10 action matrix.

The library runs none of the following; the tests use them as oracles.
``se3_exp`` and ``se3_log`` are the SE(3) group exponential and logarithm
(``se3_log`` through ``_so3_left_jacobian_inv``), with which tests draw poses
and measure pose differences. ``optimality_residual`` is the infinity norm
of the energy gradient at a state, and ``LandmarkTargetLoss`` a squared
landmark-to-target distance with an analytic tangent gradient: the
implicit-gradient tests' stationarity check and downstream loss.
"""

import copy
from itertools import compress

import numpy as np
import scipy.linalg

from gradba import temporal
from gradba.errors import (CheiralityViolation, DegenerateGeometry, InfeasibleConfig,
                           InitializationFailed, NoValidTerminal, TooFewCorrespondences,
                           TooFewPoints)
from gradba.fivepoint import _CUBIC, _constraint_matrix
from gradba.geometry import (DEPTH_EPS, CameraIntrinsics, Pose, pinhole, project, quat_conj,
                             quat_from_matrix, quat_rotate, quat_to_matrix, quat_to_rotvec,
                             se3_retract, so3_hat)
from gradba.initializer import (PROBE_PX, RAY_PARALLEL_EPS, REJECT_FACTOR, CandidateStats,
                                InitResult, InverseDepthEstimate, RansacConfig, WindowConfig,
                                _depth, _pixels, depth_gate, estimate_relative_pose,
                                fuse_inverse_depth, mean_reprojection_error,
                                normalize_bearings, pnp_pose, reprojection_errors,
                                rotation_compensated_parallax, select_terminal_frame,
                                sigma_obs_from_reproj, triangulate)
from gradba.problem import StateVector
from gradba.problem import DescriptorFieldModel, TrackBiasModel, softargmax
from gradba.scene import SCENE_VERSION, _trajectory_poses, inject_noise
from gradba.solver import (LinearizedSystem, SystemLayout,
                           _translation_curvature, apply_step, linearize)


def loop_observe(model, frame, track, theta):
    """One prediction: a scan of the table for the stored pixel plus the
    track's offset, the descriptor field's from one soft-argmax of that
    track's grid alone."""
    (row,) = np.flatnonzero((model.frames == frame) & (model.tracks == track))
    pixel = model.pixels[row]
    if isinstance(model, TrackBiasModel):
        s = model.track_ids.index(track)
        return pixel + theta[2 * s:2 * s + 2]
    if isinstance(model, DescriptorFieldModel):
        s = model.track_ids.index(track)
        size = int(np.prod(model.grid_shape))
        grid = theta[s * size:(s + 1) * size].reshape(model.grid_shape)
        sim = temporal.similarity_map(grid, model.refs[s])
        H, W = sim.shape
        u = float((sim.sum(axis=0) @ np.arange(W)) / sim.sum())
        v = float((sim.sum(axis=1) @ np.arange(H)) / sim.sum())
        return pixel + np.array([u, v])
    return pixel.copy()


def loop_factor_info(cov):
    """Information matrix of one factor's pixel covariance (identity for
    None), checked and inverted as a lone 2x2."""
    cov = np.eye(2) if cov is None else np.asarray(cov, dtype=float)
    if cov.shape != (2, 2) or np.abs(cov - cov.T).max() > 1e-12:
        raise ValueError("covariance must be 2x2 symmetric")
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ValueError("covariance must be positive definite")
    return np.linalg.inv(cov)


def loop_problem_table(scene, model, kernel=None, track_ids=None):
    """What ``gradba.scene.build_problem`` makes of a scene, assembled one
    observation at a time through a (frame, track) -> pixel dict: a dict of
    the factor rows ``frame_idx``, ``track_idx``, ``lm_idx``, their
    ``info_stack`` and ``huber_delta``, and the ``predictions`` of the
    observation model at its theta0. ``track_ids`` lists the landmark rows
    of the state, all of the scene's landmarks by default."""
    frame_order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    if track_ids is None:
        track_ids = [l["id"] for l in scene["landmarks"]]
    lm_index = {t: k for k, t in enumerate(track_ids)}
    observations = {}
    rows, infos = [], []
    for o in scene["observations"]:
        t = o["track"]
        if t not in lm_index:
            continue
        fi = frame_order[o["frame"]]
        observations[(fi, t)] = np.array([o["u"], o["v"]])
        cov = None if o.get("sigma") is None else (o["sigma"] ** 2) * np.eye(2)
        rows.append((fi, t, lm_index[t]))
        infos.append(loop_factor_info(cov))

    tracks = sorted(lm_index)
    slot = {t: k for k, t in enumerate(tracks)}
    offsets = np.zeros((len(tracks), 2))
    if model == "trackbias" and "track_bias" in scene:
        values = scene["track_bias"]["values"]
        offsets = np.array([values.get(str(t), [0.0, 0.0]) for t in tracks], dtype=float)
    if model == "descfield":
        blk = scene["descriptor_field"]
        grids = np.array([blk["grids"][str(t)] for t in tracks],
                         dtype=float).reshape(-1, *blk["grid_shape"])
        refs = np.array([blk["refs"][str(t)] for t in tracks], dtype=float)
        offsets = softargmax(grids, refs)[2]
        for (f, t), pixel in observations.items():
            observations[(f, t)] = pixel - offsets[slot[t]]  # the patch origin
    predictions = [observations[(f, t)].astype(float) for f, t, _ in rows]
    if model != "static":
        predictions = [p + offsets[slot[t]] for p, (_, t, _) in zip(predictions, rows)]

    huber = kernel is not None and kernel.kind == "huber"
    return {"frame_idx": np.array([r[0] for r in rows], dtype=int),
            "track_idx": np.array([r[1] for r in rows], dtype=int),
            "lm_idx": np.array([r[2] for r in rows], dtype=int),
            "info_stack": np.array(infos).reshape(-1, 2, 2),
            "huber_delta": np.array([kernel.delta if huber else np.inf for _ in rows]),
            "predictions": np.array(predictions).reshape(-1, 2)}


def loop_predictions(problem, theta):
    return np.array([loop_observe(problem.obs_model, f, t, theta)
                     for f, t in zip(problem.frame_idx, problem.track_idx)]).reshape(-1, 2)


def residual(problem, k, state, theta):
    """e = predicted observation - projection of factor ``k``, in pixels.

    Raises CheiralityViolation when the landmark is behind the camera.
    """
    frame = int(problem.frame_idx[k])
    pred = loop_observe(problem.obs_model, frame, problem.track_idx[k], theta)
    proj = project(state.poses[frame], problem.intrinsics,
                   state.landmarks[problem.lm_idx[k]])
    return pred - proj


def _project_frame(pose, intr, points):
    """Projection of the points seen by one camera: (pixels, camera points)."""
    c = (np.asarray(points, dtype=float) - pose.t) @ quat_to_matrix(pose.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        iz = np.where(c[:, 2] > DEPTH_EPS, 1.0 / c[:, 2], 0.0)
    pix = np.column_stack([intr.fx * c[:, 0] * iz + intr.cx,
                           intr.fy * c[:, 1] * iz + intr.cy])
    return pix, c


def huber_deltas(problem):
    """Huber threshold per factor from the problem's kernel; inf for the
    plain quadratic cost."""
    k = problem.kernel
    delta = k.delta if k is not None and k.kind == "huber" else np.inf
    return np.array([delta for _ in problem.frame_idx], dtype=float)


def _by_frame(problem):
    return {i: np.flatnonzero(problem.frame_idx == i)
            for i in np.unique(problem.frame_idx)}


def loop_residuals(problem, state, theta):
    """(e, s, active) with one projection per camera."""
    nf = len(problem.frame_idx)
    preds = loop_predictions(problem, theta)
    e = np.zeros((nf, 2))
    active = np.zeros(nf, dtype=bool)
    for i, idx in _by_frame(problem).items():
        pix, c = _project_frame(state.poses[i], problem.intrinsics,
                                state.landmarks[problem.lm_idx[idx]])
        ok = c[:, 2] > DEPTH_EPS
        active[idx] = ok
        e[idx[ok]] = preds[idx[ok]] - pix[ok]
    s = np.einsum("ka,kab,kb->k", e, problem.info_stack, e)
    return e, s, active


def slot_maps(state):
    """Free-variable slots as dicts, as the loop versions looked them up."""
    free_p = [i for i in range(state.n_poses) if not state.fixed_poses[i]]
    free_l = [j for j in range(state.n_landmarks) if not state.fixed_landmarks[j]]
    return ({i: k for k, i in enumerate(free_p)},
            {j: k for k, j in enumerate(free_l)})


def loop_assemble(sys_, pose_slot, lm_slot, bpp, bll, bpl, gp, gl):
    """Add per-factor blocks into ``sys_`` one factor at a time."""
    has_p = pose_slot >= 0
    has_l = lm_slot >= 0
    np_ = sys_.layout.n_pose_params
    for k in np.flatnonzero(has_p):
        a = 6 * pose_slot[k]
        sys_.Hpp[a:a + 6, a:a + 6] += bpp[k]
        sys_.g[a:a + 6] += gp[k]
    if has_l.any():
        np.add.at(sys_.Hll, lm_slot[has_l], bll[has_l])
        gl_view = sys_.g[np_:].reshape(-1, 3)
        np.add.at(gl_view, lm_slot[has_l], gl[has_l])
    for k in np.flatnonzero(has_p & has_l):
        a, o = 6 * pose_slot[k], 3 * lm_slot[k]
        sys_.Hpl[a:a + 6, o:o + 3] += bpl[k]


def loop_linearize(problem, state, theta):
    """Frame-by-frame jacobians and factor-by-factor assembly."""
    layout = SystemLayout(state)
    pslot, lslot = slot_maps(state)
    sys_ = LinearizedSystem(layout)
    nf = len(problem.frame_idx)
    preds = loop_predictions(problem, theta)

    e_all = np.zeros((nf, 2))
    Jp_all = np.zeros((nf, 2, 6))
    Jl_all = np.zeros((nf, 2, 3))
    axis_all = np.zeros((nf, 3))
    active = np.zeros(nf, dtype=bool)
    for i, idx in _by_frame(problem).items():
        pose = state.poses[i]
        intr = problem.intrinsics
        pts = state.landmarks[problem.lm_idx[idx]]
        pix, c = _project_frame(pose, intr, pts)
        ok = c[:, 2] > DEPTH_EPS
        if not ok.any():
            continue
        sub = idx[ok]
        csub = c[ok]
        iz = 1.0 / csub[:, 2]
        dh_dc = np.zeros((len(sub), 2, 3))
        dh_dc[:, 0, 0] = intr.fx * iz
        dh_dc[:, 0, 2] = -intr.fx * csub[:, 0] * iz * iz
        dh_dc[:, 1, 1] = intr.fy * iz
        dh_dc[:, 1, 2] = -intr.fy * csub[:, 1] * iz * iz
        Rt = quat_to_matrix(pose.q).T
        axis_all[sub] = Rt[2] * iz[:, None]
        dh_dc_Rt = dh_dc @ Rt
        Jl = -dh_dc_Rt
        Jp = np.empty((len(sub), 2, 6))
        Jp[:, :, :3] = -np.einsum("kab,kbc->kac", dh_dc_Rt, _hat_many(pts[ok]))
        Jp[:, :, 3:] = -Jl
        active[sub] = True
        e_all[sub] = preds[sub] - pix[ok]
        Jp_all[sub] = Jp
        Jl_all[sub] = Jl

    sys_.inactive_count = int(nf - active.sum())
    sel = np.flatnonzero(active)
    e = e_all[sel]
    Jp = Jp_all[sel]
    Jl = Jl_all[sel]
    info = problem.info_stack[sel]
    s = np.einsum("ka,kab,kb->k", e, info, e)
    delta = huber_deltas(problem)[sel]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(s > delta ** 2, delta / np.sqrt(s), 1.0)
    W = w[:, None, None] * info

    pose_slot = np.array([pslot.get(problem.frame_idx[k], -1) for k in sel], dtype=int)
    lm_slot = np.array([lslot.get(int(problem.lm_idx[k]), -1) for k in sel], dtype=int)
    WJp = np.einsum("kab,kbc->kac", W, Jp)
    WJl = np.einsum("kab,kbc->kac", W, Jl)
    loop_assemble(sys_, pose_slot, lm_slot,
                  np.einsum("kba,kbc->kac", Jp, WJp),
                  np.einsum("kba,kbc->kac", Jl, WJl),
                  np.einsum("kba,kbc->kac", Jp, WJl),
                  np.einsum("kab,ka->kb", WJp, e),
                  np.einsum("kab,ka->kb", WJl, e))

    sys_.rec_factor = sel
    sys_.rec_frame = problem.frame_idx[sel]
    sys_.rec_pose_slot = pose_slot
    sys_.rec_lm_slot = lm_slot
    sys_.rec_A = -Jl
    sys_.rec_axis = axis_all[sel]
    sys_.rec_W = W
    sys_.rec_point = state.landmarks[problem.lm_idx[sel]]
    sys_.Jp, sys_.Jl = Jp, Jl  # the residual jacobian rows, kept for reference
    sys_.residuals = e
    sys_.weights = w

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        r = sp.residual(state)
        jacs = dict(zip((sp.i, sp.j), sp.jacobians(state)))
        rows = [(pslot[i], J) for i, J in jacs.items() if i in pslot]
        for slot_a, Ja in rows:
            a = 6 * slot_a
            sys_.g[a:a + 6] += sp.weight * r * Ja.ravel()
            for slot_b, Jb in rows:
                b = 6 * slot_b
                sys_.Hpp[a:a + 6, b:b + 6] += sp.weight * (Ja.T @ Jb)
    return sys_


def _hat3(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _hat_many(v):
    """The hat matrices of stacked v (k, 3), (k, 3, 3)."""
    return np.array([_hat3(vk) for vk in v]).reshape(-1, 3, 3)


def loop_exact_hessian(problem, state, sys_):
    """Exact-Hessian copy of ``sys_``, one 9x9 correction block per factor.

    The camera point and the jacobian rows of each factor are computed here
    from the state; ``sys_`` gives only the active factors, their slots,
    residuals and robust weights."""
    out = copy.copy(sys_)
    out.Hpp = sys_.Hpp.copy()
    out.Hll = sys_.Hll.copy()
    out.Hpl = sys_.Hpl.copy()
    pslot, _ = slot_maps(state)

    hub_delta = huber_deltas(problem)[sys_.rec_factor]
    for k in range(len(sys_.rec_factor)):
        e = sys_.residuals[k]
        info = problem.info_stack[sys_.rec_factor[k]]
        w = sys_.weights[k]
        kap = w * (info @ e)
        frame = int(sys_.rec_frame[k])
        pose = state.poses[frame]
        p = state.landmarks[problem.lm_idx[sys_.rec_factor[k]]]
        intr = problem.intrinsics
        R = quat_to_matrix(pose.q)
        c = R.T @ (p - pose.t)
        X, Y, Z = c
        iz = 1.0 / Z
        dh_dc = np.array([[intr.fx * iz, 0.0, -intr.fx * X * iz * iz],
                          [0.0, intr.fy * iz, -intr.fy * Y * iz * iz]])
        G = np.zeros((3, 3))
        G[0, 2] = G[2, 0] = -intr.fx * kap[0] * iz * iz
        G[1, 2] = G[2, 1] = -intr.fy * kap[1] * iz * iz
        G[2, 2] = 2.0 * (intr.fx * X * kap[0] + intr.fy * Y * kap[1]) * iz ** 3
        Dc = np.hstack([R.T @ _hat3(p), -R.T, R.T])
        T = Dc.T @ G @ Dc
        psi = R @ (dh_dc.T @ kap)
        hat_psi = _hat3(psi)
        T2 = np.zeros((9, 9))
        T2[:3, :3] = 0.5 * (np.outer(psi, p) + np.outer(p, psi)) - (psi @ p) * np.eye(3)
        T2[:3, 3:6] = -0.5 * hat_psi
        T2[3:6, :3] = -0.5 * hat_psi.T
        T2[:3, 6:] = hat_psi
        T2[6:, :3] = hat_psi.T
        C9 = -(T + T2)
        s = float(e @ info @ e)
        if s > hub_delta[k] ** 2:
            rho2 = -hub_delta[k] / (2.0 * s ** 1.5)
            A = dh_dc @ R.T
            Jp, Jl = np.hstack([-A @ _hat3(p), A]), -A
            u9 = np.concatenate([Jp.T @ (info @ e), Jl.T @ (info @ e)])
            C9 += 2.0 * rho2 * np.outer(u9, u9)
        ps, ls = sys_.rec_pose_slot[k], sys_.rec_lm_slot[k]
        if ps >= 0:
            out.Hpp[6 * ps:6 * ps + 6, 6 * ps:6 * ps + 6] += C9[:6, :6]
        if ls >= 0:
            out.Hll[ls] += C9[6:, 6:]
        if ps >= 0 and ls >= 0:
            out.Hpl[6 * ps:6 * ps + 6, 3 * ls:3 * ls + 3] += C9[:6, 6:]

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        ti = state.poses[sp.i].t
        tj = state.poses[sp.j].t
        d = tj - ti
        n = float(np.linalg.norm(d))
        u = d / n
        P = (np.eye(3) - np.outer(u, u)) / n
        r = n - sp.target
        Dti = np.hstack([-_hat3(ti), np.eye(3)])
        Dtj = np.hstack([-_hat3(tj), np.eye(3)])
        blocks = {}
        blocks[(sp.i, sp.i)] = Dti.T @ P @ Dti + _translation_curvature(-u, ti)
        blocks[(sp.j, sp.j)] = Dtj.T @ P @ Dtj + _translation_curvature(u, tj)
        blocks[(sp.i, sp.j)] = -Dti.T @ P @ Dtj
        blocks[(sp.j, sp.i)] = -Dtj.T @ P @ Dti
        for (a, b), blk in blocks.items():
            sa, sb = pslot.get(a), pslot.get(b)
            if sa is not None and sb is not None:
                out.Hpp[6 * sa:6 * sa + 6, 6 * sb:6 * sb + 6] += sp.weight * r * blk
    return out


def loop_observe_vjp(model, frames, tracks, theta, v):
    """sum_k v[k] @ observe_jacobian(frames[k], tracks[k]), one dense
    jacobian row per observation."""
    g = np.zeros(model.theta_dim)
    for f, t, vk in zip(frames, tracks, v):
        g += vk @ model.observe_jacobian(int(f), t, theta)
    return g


def loop_temporal_theta_gradient(problem, theta):
    """d(lambda_t * sum phi)/d theta, one jacobian row per temporal track."""
    from gradba import temporal
    att = problem.temporal_terms
    transitions = att.build(problem.obs_model, theta)
    res = temporal.temporal_energy(att.terms, transitions)
    g = np.zeros(problem.obs_model.theta_dim)
    for frame, track, gk in zip(att.frames, att.tracks, np.concatenate(res.grad_endpoints)):
        g += gk @ problem.obs_model.observe_jacobian(int(frame), int(track), theta)
    return att.terms.lambda_t * g


def fd_tangent_gradient(value_fn, state, layout, h=1e-6):
    """Central-difference gradient of a state loss in tangent coordinates."""
    g = np.zeros(layout.dim)
    for k in range(layout.dim):
        d = np.zeros(layout.dim)
        d[k] = h
        up = value_fn(apply_step(state, layout, d))
        dn = value_fn(apply_step(state, layout, -d))
        g[k] = (up - dn) / (2.0 * h)
    return g


def optimality_residual(problem, state, theta=None):
    """Infinity norm of the energy gradient over the free variables.

    Computed through the same IRLS-weighted linearization the solver uses, so
    the solver's gradient-tolerance termination bounds this quantity.
    """
    return linearize(problem, state, theta).gradient_inf_norm()


class LandmarkTargetLoss:
    """L = ||landmark - target||^2 with an analytic tangent gradient."""

    def __init__(self, landmark_index, target):
        self.landmark_index = landmark_index
        self.target = np.asarray(target, dtype=float)

    def value(self, state):
        d = state.landmarks[self.landmark_index] - self.target
        return float(d @ d)

    def grad_tangent(self, state, layout):
        g = np.zeros(layout.dim)
        slot = layout.lm_slot[self.landmark_index]
        if slot < 0:
            raise ValueError(f"landmark {self.landmark_index} is fixed")
        o = layout.lm_offset(slot)
        g[o:o + 3] = 2.0 * (state.landmarks[self.landmark_index] - self.target)
        return g


def loop_drifting_grid(rng, grid_shape, base, slope):
    """``gradba.scene._drifting_grid`` drawn and normalized one cell at a time."""
    H, W, C = grid_shape
    ref = rng.normal(size=C)
    ref /= np.linalg.norm(ref)
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    grid = np.empty((H, W, C))
    for y in range(H):
        for x in range(W):
            d = np.hypot(y - cy, x - cx)
            noise = rng.normal(size=C)
            noise /= np.linalg.norm(noise)
            grid[y, x] = ref + (base + slope * d) * noise
    return ref, grid


def loop_generate_scene(cfg):
    """``gradba.scene.generate_scene`` one candidate at a time: each drawn
    alone (three scalar draws for ``line``), tested by rotating it into
    every camera by quaternions, and kept or counted as one attempt; the
    observations are then projected by ``pinhole``."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    intr = CameraIntrinsics(cfg.fx, cfg.fy, cfg.cx, cfg.cy)
    poses, (center, _, _) = _trajectory_poses(cfg)
    half = 0.5 * (cfg.depth_max - cfg.depth_min)

    qs = np.array([P.q for P in poses])
    conj = quat_conj(qs)
    centres = np.array([P.t for P in poses])

    def visible(p):  # in each pose's image, as Pose.world_to_camera rounds
        c = quat_rotate(conj, p - centres)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cfg.fx * c[:, 0] / c[:, 2] + cfg.cx
            v = cfg.fy * c[:, 1] / c[:, 2] + cfg.cy
        return ((c[:, 2] > DEPTH_EPS) & (0.0 <= u) & (u <= cfg.width - 1)
                & (0.0 <= v) & (v <= cfg.height - 1))

    landmarks = []
    seen = []
    attempts = 0
    while len(landmarks) < cfg.n_landmarks:
        if attempts >= 1000:
            raise InfeasibleConfig(
                f"could not place landmark {len(landmarks)} in 1000 attempts")
        attempts += 1
        if cfg.trajectory == "line":
            p = np.array([rng.uniform(-0.6 * half - 1, 0.6 * half + 1),
                          rng.uniform(-0.5 * half, 0.5 * half),
                          rng.uniform(cfg.depth_min, cfg.depth_max)])
        else:
            p = center + rng.uniform(-half, half, size=3)
        vis = visible(p)
        if vis.sum() >= 2:
            landmarks.append(p)
            seen.append(vis)
            attempts = 0

    frame, track = np.nonzero(np.array(seen).T)
    pix, _, _ = pinhole(quat_to_matrix(qs)[frame],
                        centres[frame], intr.row(), np.array(landmarks)[track])
    observations = [{"frame": i, "track": j, "u": u, "v": v} for i, j, (u, v) in
                    zip(frame.tolist(), track.tolist(), pix.tolist())]

    scene = {
        "version": SCENE_VERSION,
        "intrinsics": {"fx": cfg.fx, "fy": cfg.fy, "cx": cfg.cx, "cy": cfg.cy,
                       "width": cfg.width, "height": cfg.height},
        "frames": [{"id": i, "timestamp": round(0.1 * i, 6),
                    "pose_gt": {"q_wxyz": P.q.tolist(), "t": P.t.tolist()}}
                   for i, P in enumerate(poses)],
        "landmarks": [{"id": j, "position_gt": p.tolist()}
                      for j, p in enumerate(landmarks)],
        "observations": observations,
        "outlier_indices": [],
    }
    if cfg.pixel_sigma > 0 or cfg.outlier_ratio > 0:
        scene = inject_noise(scene, cfg.pixel_sigma, cfg.outlier_ratio,
                             cfg.outlier_px, cfg.seed + 1)
    return scene


# cubic-coefficient partition by z-degree onto the (x, y)-monomial basis
# m = [x^3, x^2 y, x y^2, y^3, x^2, x y, y^2, x, y, 1], the z-free cubics
_XY = [(i, j) for i, j, k in _CUBIC if k == 0]
_Z_PARTS = tuple(([c for c, (_, _, k) in enumerate(_CUBIC) if k == d],
                  [_XY.index((i, j)) for i, j, k in _CUBIC if k == d]) for d in range(4))


def loop_essential_from_five(q_a, q_b):
    """All real essential matrices of five bearing pairs, from the finite
    eigenvalues z of the pencil C0 + z C1 + z^2 C2 + z^3 C3 acting on the
    ten (x, y)-monomials, in its companion linearization."""
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    if q_a.shape[0] < 5 or q_b.shape[0] != q_a.shape[0]:
        raise TooFewCorrespondences("five bearing pairs required")

    A = np.einsum("ni,nj->nij", q_b, q_a).reshape(len(q_a), 9)
    _, _, Vt = np.linalg.svd(A)
    basis = Vt[-4:][::-1].reshape(4, 3, 3)  # E = x B1 + y B2 + z B3 + B4

    C = _constraint_matrix(basis)
    C0 = np.zeros((10, 10))
    C1 = np.zeros((10, 10))
    C2 = np.zeros((10, 10))
    C3 = np.zeros((10, 10))
    for mat, (src, dst) in zip((C0, C1, C2, C3), _Z_PARTS):
        mat[:, dst] = C[:, src]

    Al = np.zeros((30, 30))
    Bl = np.zeros((30, 30))
    Al[:10, 10:20] = np.eye(10)
    Al[10:20, 20:] = np.eye(10)
    Al[20:, :10] = -C0
    Al[20:, 10:20] = -C1
    Al[20:, 20:] = -C2
    Bl[:10, :10] = np.eye(10)
    Bl[10:20, 10:20] = np.eye(10)
    Bl[20:, 20:] = C3
    try:
        w, vr = scipy.linalg.eig(Al, Bl, right=True, check_finite=False,
                                 homogeneous_eigvals=True)
    except (scipy.linalg.LinAlgError, ValueError):
        return []
    alpha, beta = w[0], w[1]

    out = []
    scale = max(np.abs(A).max(), 1.0)
    for k in range(30):
        if abs(beta[k]) < 1e-12 * max(abs(alpha[k]), 1.0):
            continue  # infinite pencil eigenvalue
        z = alpha[k] / beta[k]
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        m = vr[:10, k]
        j = int(np.argmax(np.abs(m)))
        if abs(m[j]) < 1e-12:
            continue
        m = (m / m[j]).real
        if abs(m[9]) < 1e-10:
            continue
        x = m[7] / m[9]
        y = m[8] / m[9]
        E = x * basis[0] + y * basis[1] + z.real * basis[2] + basis[3]
        norm = np.linalg.norm(E)
        if not np.isfinite(norm) or norm < 1e-12:
            continue
        E = E / norm
        if np.abs(np.einsum("ni,ij,nj->n", q_b, E, q_a)).max() > 1e-7 * scale:
            continue
        EEt = E @ E.T
        internal = 2.0 * EEt @ E - np.trace(EEt) * E
        if abs(np.linalg.det(E)) > 1e-7 or np.abs(internal).max() > 1e-6:
            continue
        if any(min(np.abs(E - F).max(), np.abs(E + F).max()) < 1e-8 for F in out):
            continue
        out.append(E)
    return out


def se3_exp(delta):
    """Group exponential of a tangent [omega, v] -> Pose."""
    return se3_retract(Pose(), delta)


def _so3_left_jacobian_inv(w):
    theta2 = float(np.dot(w, w))
    W = so3_hat(w)
    if theta2 < 1e-16:
        return np.eye(3) - 0.5 * W + W @ W / 12.0
    theta = np.sqrt(theta2)
    coef = 1.0 / theta2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * W + W @ W * coef


def se3_log(pose):
    """Inverse of se3_exp; returns the tangent [omega, v]."""
    w = quat_to_rotvec(pose.q)
    return np.concatenate([w, _so3_left_jacobian_inv(w) @ pose.t])


def loop_retract(pose, delta):
    """se3_exp(delta) * pose for one pose, with the scalar arithmetic of
    ``gradba.geometry`` before it broadcast: float dot products, a branch at
    each series cutoff, 3x3 hat and V matrices and ``np.cross``."""
    w, v = np.asarray(delta[:3], dtype=float), np.asarray(delta[3:], dtype=float)
    theta2 = float(np.dot(w, w))
    theta = np.sqrt(theta2)
    if theta < 1e-8:
        s, c = 0.5 - theta2 / 48.0, 1.0 - theta2 / 8.0
    else:
        s, c = np.sin(0.5 * theta) / theta, np.cos(0.5 * theta)
    W = _hat3(w)
    if theta2 < 1e-16:
        V = np.eye(3) + 0.5 * W + W @ W / 6.0
    else:
        V = (np.eye(3) + W * ((1.0 - np.cos(theta)) / theta2)
             + W @ W * ((theta - np.sin(theta)) / (theta2 * theta)))
    dq = np.array([c, s * w[0], s * w[1], s * w[2]])
    dw, dx, dy, dz = dq / np.linalg.norm(dq)
    pw, px, py, pz = pose.q
    q = np.array([dw * pw - dx * px - dy * py - dz * pz,
                  dw * px + dx * pw + dy * pz - dz * py,
                  dw * py - dx * pz + dy * pw + dz * px,
                  dw * pz + dx * py - dy * px + dz * pw])
    u = np.array([dx, dy, dz])
    uv = np.cross(u, pose.t)
    return Pose(q, pose.t + 2.0 * (dw * uv + np.cross(u, uv)) + V @ v)


def _world_to_cam(pose):
    R = pose.rotation_matrix().T
    return R, -R @ pose.t


def loop_triangulate(p0, p1, pose0, pose1, K):
    """One pixel pair by linear least squares on the stacked ray
    cross-product constraints; None where the rays are within
    RAY_PARALLEL_EPS of parallel or the point has non-positive depth in
    either view."""
    q0 = normalize_bearings(p0, K)[0]
    q1 = normalize_bearings(p1, K)[0]
    cosang = np.clip(pose0.rotate(q0) @ pose1.rotate(q1), -1.0, 1.0)
    if np.arccos(cosang) < RAY_PARALLEL_EPS:
        return None
    R0, t0 = _world_to_cam(pose0)
    R1, t1 = _world_to_cam(pose1)
    A = np.vstack([so3_hat(q0) @ R0, so3_hat(q1) @ R1])
    b = -np.concatenate([so3_hat(q0) @ t0, so3_hat(q1) @ t1])
    X, *_ = np.linalg.lstsq(A, b, rcond=None)
    if (R0 @ X + t0)[2] <= 0 or (R1 @ X + t1)[2] <= 0:
        return None
    return X


def loop_sigma_obs(p0, p1, pose0, pose1, K, sigma_pix):
    """One pixel pair's one-pixel-disparity probe: (variance, X), or None
    where a triangulation fails, the epipolar direction is undefined or a
    probe point falls behind the second camera."""
    X = loop_triangulate(p0, p1, pose0, pose1, K)
    if X is None:
        return None
    R0, t0 = _world_to_cam(pose0)
    z0 = (R0 @ X + t0)[2]
    q0 = normalize_bearings(p0, K)[0]
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
    try:
        u_near = project(pose1, intr, pose0.apply(q0 / q0[2] * (0.95 * z0)))
        u_far = project(pose1, intr, pose0.apply(q0 / q0[2] * (1.05 * z0)))
    except CheiralityViolation:
        return None
    d = u_far - u_near
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        return None
    d = d / nd
    rhos = []
    for sgn in (+1.0, -1.0):
        Xp = loop_triangulate(p0, np.asarray(p1, float) + sgn * sigma_pix * d,
                              pose0, pose1, K)
        if Xp is None:
            return None
        rhos.append(1.0 / (R0 @ Xp + t0)[2])
    sigma = 0.5 * abs(rhos[0] - rhos[1])
    return sigma * sigma, X


def loop_cheirality_depths(R, t, q_a, q_b):
    """Per-pair depths (z_a, z_b) for X_b = R X_a + t, one two-ray lstsq
    per pair."""
    ra = q_a @ R.T
    za = np.empty(len(q_a))
    zb = np.empty(len(q_a))
    for k in range(len(q_a)):
        A = np.column_stack([ra[k], -q_b[k]])
        sol, *_ = np.linalg.lstsq(A, -t, rcond=None)
        za[k], zb[k] = sol[0], sol[1]
    return za, zb


def _loop_observed(q, t, track_ids, points, observations, intr):
    """Pixels and in-front flags of every (frame, track) key of
    ``observations``, in order, and the row of each key's track."""
    index = {tr: k for k, tr in enumerate(track_ids)}
    frames = np.array([f for f, _ in observations], dtype=int)
    rows = np.array([index[tr] for _, tr in observations], dtype=int)
    uv, front = _pixels(quat_to_matrix(q)[frames], t[frames], intr, points[rows])
    return uv, front, rows


def loop_run_initialization(window, K, cfg=None, ransac_cfg=None):
    """``run_initialization`` over dict windows, one track at a time."""
    cfg = WindowConfig() if cfg is None else cfg
    ransac_cfg = RansacConfig() if ransac_cfg is None else ransac_cfg
    reject_px = REJECT_FACTOR * cfg.eps_max
    K = np.asarray(K, dtype=float)
    T = len(window)
    if T < 3:
        raise InitializationFailed("window-too-short", f"{T} frames")

    anchor = window[0]
    anchor_pose = Pose()
    intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])

    stats = []
    cache = {}
    for t in range(1, T):
        common = sorted(set(anchor) & set(window[t]))
        st = CandidateStats(frame=t)
        if len(common) < 5:
            st.usable = False
            stats.append(st)
            continue
        px0 = np.array([anchor[k] for k in common])
        px1 = np.array([window[t][k] for k in common])
        b0 = normalize_bearings(px0, K)
        b1 = normalize_bearings(px1, K)
        try:
            R, tdir, mask = estimate_relative_pose(
                b0, b1, ransac_cfg, min_parallax=min(ransac_cfg.min_parallax, cfg.theta_min))
        except (DegenerateGeometry, TooFewCorrespondences):
            st.usable = False
            stats.append(st)
            continue
        pose_t = Pose(quat_from_matrix(R.T), -R.T @ tdir)
        X, ok = triangulate(px0[mask], px1[mask], anchor_pose, pose_t, K)
        errs = 0.5 * (reprojection_errors(anchor_pose, X[ok], px0[mask][ok], intr)
                      + reprojection_errors(pose_t, X[ok], px1[mask][ok], intr))
        st.count = int(mask.sum())
        st.parallax = float(np.median(rotation_compensated_parallax(b0[mask], b1[mask], R)))
        st.mean_reproj = float(np.mean(errs)) if len(errs) else np.inf
        st.pos_depth_ratio = float(ok.mean())
        stats.append(st)
        cache[t] = (pose_t, list(compress(compress(common, mask), ok)), X[ok])

    try:
        t_star = select_terminal_frame(stats, cfg)
    except NoValidTerminal as exc:
        raise InitializationFailed("no-valid-terminal", str(exc)) from exc

    pose_term, tracks, X = cache[t_star]
    poses = {0: anchor_pose, t_star: pose_term}

    depths = _depth(anchor_pose, X)
    keep = depth_gate(depths)
    tracks, depths = list(compress(tracks, keep)), depths[keep]
    var, _, ok = sigma_obs_from_reproj([anchor[tr] for tr in tracks],
                                       [window[t_star][tr] for tr in tracks],
                                       anchor_pose, pose_term, K, PROBE_PX)
    good = ok & (var > 0)
    estimates = {}
    observations = {}
    for tr, z, var_obs in zip(compress(tracks, good), depths[good], var[good]):
        est = InverseDepthEstimate(1.0 / z, var_obs)
        est.stable = est.var < (cfg.stability_factor * est.mu) ** 2
        estimates[tr] = est
        observations[(0, tr)] = np.asarray(anchor[tr], float)
        observations[(t_star, tr)] = np.asarray(window[t_star][tr], float)
    landmarks = list(estimates)
    if len(landmarks) < 4:
        raise InitializationFailed("triangulation", "fewer than 4 gated landmarks")

    q0 = normalize_bearings([anchor[tr] for tr in landmarks], K)
    unit_ray = dict(zip(landmarks, q0 / q0[:, 2:]))

    def landmarks_from_depth(trs):
        pts = np.reshape([unit_ray[tr] * (1.0 / estimates[tr].mu) for tr in trs],
                         (-1, 3))
        return pts @ anchor_pose.rotation_matrix().T + anchor_pose.t

    for j in range(1, T):
        if j in poses:
            continue
        before = sorted(i for i in poses if i < j)
        pose_init, prev = poses[before[-1]], [poses[i] for i in before[-2:]]
        usable = [tr for tr in landmarks
                  if tr in window[j] and estimates[tr].stable]
        if len(usable) < 4:
            usable = [tr for tr in landmarks if tr in window[j]]
        pts = landmarks_from_depth(usable)
        pix = np.reshape([window[j][tr] for tr in usable], (-1, 2))
        try:
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

        sweep = [tr for tr in landmarks if (j, tr) in observations]
        var, X, ok = sigma_obs_from_reproj([anchor[tr] for tr in sweep],
                                           [window[j][tr] for tr in sweep],
                                           anchor_pose, poses[j], K, PROBE_PX)
        good = ok & (var > 0)
        rhos = 1.0 / _depth(anchor_pose, X[good])
        for tr, rho, var_obs in zip(compress(sweep, good), rhos, var[good]):
            est = estimates[tr]
            if (rho - est.mu) ** 2 > 9.0 * (est.var + var_obs):
                observations.pop((j, tr), None)
                continue
            estimates[tr] = fuse_inverse_depth(est, rho, var_obs,
                                               cfg.stability_factor)

    track_ids = sorted(landmarks)
    positions = landmarks_from_depth(track_ids)
    _, front, rows = _loop_observed(np.array([poses[f].q for f in range(T)]),
                                    np.array([poses[f].t for f in range(T)]), track_ids,
                                    positions, observations, intr)
    kept = np.bincount(rows[front], minlength=len(track_ids)) >= 2
    for key in compress(list(observations), ~(front & kept[rows])):
        observations.pop(key)
    track_ids = list(compress(track_ids, kept))
    if not track_ids:
        raise InitializationFailed("filtering", "no track observed in 2+ frames")

    state = StateVector([poses[i] for i in range(T)], positions[kept],
                        fixed_poses=[True] + [False] * (T - 1))
    mean = mean_reprojection_error(state, K, track_ids, observations)
    return InitResult(state, track_ids, observations, t_star,
                      {"mean_reprojection_px": mean, "n_tracks": len(track_ids)})
