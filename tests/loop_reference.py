"""Per-factor loop versions of the batched factor kernel, kept as references.

These are the per-row observation predictor, the frame-by-frame projection,
the factor-by-factor block assembly and exact-Hessian correction, and the
jacobian-row contractions of the theta gradients that ``gradba.solver``,
``gradba.problem`` and ``gradba.implicit`` used before they became array
code. ``test_batched_kernel`` compares the library against them.
"""

import copy

import numpy as np

from gradba import temporal
from gradba.geometry import DEPTH_EPS, project, quat_to_matrix
from gradba.problem import DescriptorFieldModel, TrackBiasModel
from gradba.solver import (LinearizedSystem, SystemLayout, _so3_hat_many,
                           _translation_curvature)


def loop_observe(model, frame, track, theta):
    """One prediction: a dict lookup of the stored pixel plus the track's
    offset, the descriptor field's from one soft-argmax of that track's grid
    alone."""
    pixel = model.observations[(frame, track)]
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


def loop_predictions(problem, theta):
    return np.array([loop_observe(problem.obs_model, f, t, theta)
                     for f, t in zip(problem.frame_idx, problem.track_idx)]).reshape(-1, 2)


def residual(factor, state, intr, obs_model, theta):
    """e = predicted observation - projection, in pixels.

    Raises CheiralityViolation when the landmark is behind the camera.
    """
    pred = loop_observe(obs_model, factor.frame, factor.track, theta)
    proj = project(state.poses[factor.frame], intr, state.landmarks[factor.landmark])
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
    """Huber threshold per factor from the factors' own kernels; inf for the
    plain quadratic cost."""
    return np.array([f.kernel.delta if f.kernel is not None and f.kernel.kind == "huber"
                     else np.inf for f in problem.factors])


def _by_frame(problem):
    return {i: np.flatnonzero(problem.frame_idx == i)
            for i in np.unique(problem.frame_idx)}


def loop_residuals(problem, state, theta):
    """(e, s, active) with one projection per camera."""
    nf = len(problem.factors)
    preds = loop_predictions(problem, theta)
    e = np.zeros((nf, 2))
    active = np.zeros(nf, dtype=bool)
    for i, idx in _by_frame(problem).items():
        pix, c = _project_frame(state.poses[i], problem.intrinsics[i],
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
    nf = len(problem.factors)
    preds = loop_predictions(problem, theta)

    e_all = np.zeros((nf, 2))
    Jp_all = np.zeros((nf, 2, 6))
    Jl_all = np.zeros((nf, 2, 3))
    cam_all = np.zeros((nf, 3))
    active = np.zeros(nf, dtype=bool)
    for i, idx in _by_frame(problem).items():
        pose = state.poses[i]
        intr = problem.intrinsics[i]
        pts = state.landmarks[problem.lm_idx[idx]]
        pix, c = _project_frame(pose, intr, pts)
        ok = c[:, 2] > DEPTH_EPS
        if not ok.any():
            continue
        sub = idx[ok]
        csub = c[ok]
        cam_all[sub] = csub
        iz = 1.0 / csub[:, 2]
        dh_dc = np.zeros((len(sub), 2, 3))
        dh_dc[:, 0, 0] = intr.fx * iz
        dh_dc[:, 0, 2] = -intr.fx * csub[:, 0] * iz * iz
        dh_dc[:, 1, 1] = intr.fy * iz
        dh_dc[:, 1, 2] = -intr.fy * csub[:, 1] * iz * iz
        Rt = quat_to_matrix(pose.q).T
        dh_dc_Rt = dh_dc @ Rt
        Jl = -dh_dc_Rt
        Jp = np.empty((len(sub), 2, 6))
        Jp[:, :, :3] = -np.einsum("kab,kbc->kac", dh_dc_Rt, _so3_hat_many(pts[ok]))
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
    sys_.rec_Jp = Jp
    sys_.rec_Jl = Jl
    sys_.rec_W = W
    sys_.rec_point = state.landmarks[problem.lm_idx[sel]]
    sys_.rec_campoint = cam_all[sel]
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


def loop_exact_hessian(problem, state, theta, sys_):
    """Exact-Hessian copy of ``sys_``, one 9x9 correction block per factor."""
    out = copy.copy(sys_)
    out.Hpp = sys_.Hpp.copy()
    out.Hll = sys_.Hll.copy()
    out.Hpl = sys_.Hpl.copy()
    pslot, _ = slot_maps(state)

    R_of = {i: quat_to_matrix(state.poses[i].q) for i in np.unique(sys_.rec_frame)}
    hub_delta = huber_deltas(problem)[sys_.rec_factor]
    for k in range(len(sys_.rec_factor)):
        e = sys_.residuals[k]
        info = problem.info_stack[sys_.rec_factor[k]]
        w = sys_.weights[k]
        kap = w * (info @ e)
        c = sys_.rec_campoint[k]
        p = sys_.rec_point[k]
        intr = problem.intrinsics[int(sys_.rec_frame[k])]
        R = R_of[int(sys_.rec_frame[k])]
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
            u9 = np.concatenate([sys_.rec_Jp[k].T @ (info @ e),
                                 sys_.rec_Jl[k].T @ (info @ e)])
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
    for obs_list, gep in zip(att.transitions, res.grad_endpoints):
        for k, ob in enumerate(obs_list):
            J = problem.obs_model.observe_jacobian(ob.frame, ob.track, theta)
            g += gep[k] @ J
    return att.terms.lambda_t * g
