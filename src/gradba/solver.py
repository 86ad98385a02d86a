"""Damped Gauss-Newton / Levenberg-Marquardt over the BA normal equations.

The linearized system is kept in block form: a dense pose-pose block (poses
couple only through gauge priors), block-diagonal 3x3 landmark blocks, and a
pose-landmark coupling matrix of 6x3 blocks. ``schur_solve`` eliminates the
landmark blocks and must agree with the dense ``lm_step`` solution.

Sign conventions: residual jacobians are d e / d tangent (so they carry the
minus sign of e = observation - projection), the stored gradient is
g = J^T W e, and steps solve (H + lambda D^2) dx = -g. The true energy
gradient is 2 g; ``gradient_inf_norm`` reports it that way.

Factor evaluation and block assembly are vectorized over factors: one
evaluation (``problem.evaluate_residuals``) gives the residuals, camera
points and robust-kernel terms that the jacobians are built from, and
``scatter_blocks`` adds the per-factor blocks of ``linearize`` and of
``exact_hessian_system`` with ``np.add.at``. Summation order is fixed by the
factor list, so results are bitwise reproducible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import Diverged, SingularSystem
from .geometry import se3_retract, so3_hat
from .problem import evaluate_residuals, temporal_term, total_energy

DAMPING_FLOOR = 1e-6  # lower bound on the diagonal scaling D
ENERGY_RESOLUTION = 1e-12  # relative rounding resolution of the summed energy
STEP_RESOLUTION = 1e-13    # float resolution of the state coordinates
GRADIENT_DECREASE = 1e-3   # least relative gradient fall of a gradient-ranked step


@dataclass
class SolverSettings:
    lm_lambda_init: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    step_tolerance: float = 1e-10

    def __post_init__(self):
        if self.lambda_up <= 1 or self.lambda_down <= 1:
            raise ValueError("lambda factors must be > 1")
        if min(self.gradient_tolerance, self.step_tolerance) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    energies: list            # start energy plus every accepted non-raising total
    final_gradient_norm: float
    termination: str
    inactive_factors: int


class SystemLayout:
    """Mapping between free variables and tangent-stack coordinates.

    ``pose_slot`` and ``lm_slot`` map every pose and landmark index to its
    slot among the free variables, or to -1 where the variable is fixed.
    """

    def __init__(self, state):
        self.free_pose_ids = np.flatnonzero(~state.fixed_poses)
        self.free_lm_ids = np.flatnonzero(~state.fixed_landmarks)
        self.pose_slot = np.full(state.n_poses, -1)
        self.pose_slot[self.free_pose_ids] = np.arange(len(self.free_pose_ids))
        self.lm_slot = np.full(state.n_landmarks, -1)
        self.lm_slot[self.free_lm_ids] = np.arange(len(self.free_lm_ids))
        self.n_pose_params = 6 * len(self.free_pose_ids)
        self.n_lm_params = 3 * len(self.free_lm_ids)
        self.dim = self.n_pose_params + self.n_lm_params

    def lm_offset(self, slot):
        return self.n_pose_params + 3 * slot


class LinearizedSystem:
    """H = J^T W J and g = J^T W e in block form over the free variables.

    Per-factor record arrays (residual jacobian blocks, robust-kernel terms,
    residuals) are kept for the exact Hessian and the adjoint solve of the
    implicit-gradient module.
    """

    def __init__(self, layout):
        self.layout = layout
        self.Hpp = np.zeros((layout.n_pose_params, layout.n_pose_params))
        self.Hll = np.zeros((len(layout.free_lm_ids), 3, 3))
        self.Hpl = np.zeros((layout.n_pose_params, layout.n_lm_params))
        self.g = np.zeros(layout.dim)
        self.inactive_count = 0
        # active-factor records
        self.rec_factor = np.zeros(0, dtype=int)
        self.rec_frame = np.zeros(0, dtype=int)
        self.rec_pose_slot = np.zeros(0, dtype=int)   # -1 where fixed
        self.rec_lm_slot = np.zeros(0, dtype=int)     # -1 where fixed
        self.rec_Jp = np.zeros((0, 2, 6))
        self.rec_Jl = np.zeros((0, 2, 3))
        self.rec_W = np.zeros((0, 2, 2))
        self.rec_point = np.zeros((0, 3))      # landmark position, world frame
        self.rec_campoint = np.zeros((0, 3))   # landmark position, camera frame
        self.rec_rot = np.zeros((0, 3, 3))     # world-from-camera rotation
        self.residuals = np.zeros((0, 2))
        self.weights = np.zeros(0)             # IRLS weights rho'
        self.rec_curvature = np.zeros(0)       # rho''

    # -- dense views -------------------------------------------------------

    def dense_hessian(self):
        lay = self.layout
        H = np.zeros((lay.dim, lay.dim))
        np_ = lay.n_pose_params
        H[:np_, :np_] = self.Hpp
        for s in range(len(lay.free_lm_ids)):
            o = lay.lm_offset(s)
            H[o:o + 3, o:o + 3] = self.Hll[s]
        H[:np_, np_:] = self.Hpl
        H[np_:, :np_] = self.Hpl.T
        return H

    def matvec(self, y):
        """H y computed blockwise (no dense assembly)."""
        lay = self.layout
        np_ = lay.n_pose_params
        out = np.zeros_like(y)
        yl = y[np_:].reshape(-1, 3)
        out[:np_] = self.Hpp @ y[:np_] + self.Hpl @ y[np_:]
        out[np_:] = (np.einsum("lab,lb->la", self.Hll, yl).ravel()
                     + self.Hpl.T @ y[:np_])
        return out

    def damping_scale(self):
        """D with D^2 the floored diagonal of H."""
        d = np.concatenate([np.diag(self.Hpp),
                            np.einsum("laa->la", self.Hll).ravel()])
        return np.maximum(np.sqrt(np.maximum(d, 0.0)), DAMPING_FLOOR)

    def gradient_inf_norm(self):
        """Infinity norm of the true energy gradient 2 J^T W e."""
        return 2.0 * float(np.abs(self.g).max()) if self.layout.dim else 0.0


def _so3_hat_many(p):
    out = np.zeros((len(p), 3, 3))
    out[:, 0, 1] = -p[:, 2]
    out[:, 0, 2] = p[:, 1]
    out[:, 1, 0] = p[:, 2]
    out[:, 1, 2] = -p[:, 0]
    out[:, 2, 0] = -p[:, 1]
    out[:, 2, 1] = p[:, 0]
    return out


def _matvec(A, x):
    """Stacked matrix-vector products A[k] @ x[k]."""
    return (A @ x[:, :, None])[:, :, 0]


def _projection_jacobian(focal, c):
    """d pixel / d camera point, (k, 2, 3), at camera-frame points c."""
    iz = 1.0 / c[:, 2]
    out = np.zeros((len(c), 2, 3))
    out[:, 0, 0] = focal[:, 0] * iz
    out[:, 0, 2] = -focal[:, 0] * c[:, 0] * iz * iz
    out[:, 1, 1] = focal[:, 1] * iz
    out[:, 1, 2] = -focal[:, 1] * c[:, 1] * iz * iz
    return out


def scatter_blocks(sys_, pose_slot, lm_slot, bpp, bll, bpl, gp=None, gl=None):
    """Add per-factor blocks into the system, in factor order.

    ``bpp`` (k, 6, 6) goes to the diagonal pose blocks of ``Hpp``, ``bll``
    (k, 3, 3) to ``Hll``, ``bpl`` (k, 6, 3) to ``Hpl`` and the optional
    ``gp`` (k, 6) / ``gl`` (k, 3) to ``g``. A slot of -1 marks a fixed
    variable, whose blocks are dropped. ``np.add.at`` accumulates repeated
    slots one factor at a time, so the sums are those of a loop over factors.
    """
    lay = sys_.layout
    np_ = lay.n_pose_params
    n_p, n_l = len(lay.free_pose_ids), len(lay.free_lm_ids)
    has_p = _rows(pose_slot >= 0)
    has_l = _rows(lm_slot >= 0)
    both = _rows((pose_slot >= 0) & (lm_slot >= 0))
    ps, ls = pose_slot[has_p], lm_slot[has_l]
    pair_ps, pair_ls = pose_slot[both], lm_slot[both]
    if len(ps):
        Hpp = sys_.Hpp.reshape(n_p, 6, n_p, 6)
        np.add.at(Hpp, (ps, slice(None), ps, slice(None)), bpp[has_p])
        if gp is not None:
            np.add.at(sys_.g[:np_].reshape(-1, 6), ps, gp[has_p])
    if len(ls):
        np.add.at(sys_.Hll, ls, bll[has_l])
        if gl is not None:
            np.add.at(sys_.g[np_:].reshape(-1, 3), ls, gl[has_l])
    if len(pair_ps):
        Hpl = sys_.Hpl.reshape(n_p, 6, n_l, 3)
        np.add.at(Hpl, (pair_ps, slice(None), pair_ls, slice(None)), bpl[both])


def _rows(mask):
    """Index of the true rows; a slice, which copies nothing, when they are one
    contiguous run (factors are usually grouped by frame)."""
    idx = np.flatnonzero(mask)
    if len(idx) and idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    return idx


def linearize(problem, state, theta=None):
    """Evaluate residuals, IRLS weights and jacobian blocks at the state.

    Factors behind a camera are soft-deactivated (zero contribution) and
    counted; fixed variables are excluded from the system.
    """
    theta = problem.theta0() if theta is None else theta
    layout = SystemLayout(state)
    sys_ = LinearizedSystem(layout)
    ev = evaluate_residuals(problem, state, theta)

    sel = np.flatnonzero(ev.active)
    sys_.inactive_count = int(len(ev.active) - len(sel))
    frames = problem.frame_idx[sel]
    e = ev.e[sel]
    c = ev.campoint[sel]
    rot = ev.rot[sel]
    p = state.landmarks[problem.lm_idx[sel]]
    # d pixel / d world point = dh/dc R^T; residual jacobians carry the minus
    # sign of e = obs - projection
    dh_dc = _projection_jacobian(problem.intrinsics_table[frames, :2], c)
    dh_dc_Rt = dh_dc @ np.swapaxes(rot, 1, 2)
    Jl = -dh_dc_Rt
    Jp = np.empty((len(sel), 2, 6))
    Jp[:, :, :3] = -np.einsum("kab,kbc->kac", dh_dc_Rt, _so3_hat_many(p))
    Jp[:, :, 3:] = dh_dc_Rt

    w = ev.weight[sel]
    W = w[:, None, None] * problem.info_stack[sel]

    pose_slot = layout.pose_slot[frames]
    lm_slot = layout.lm_slot[problem.lm_idx[sel]]
    WJp = np.einsum("kab,kbc->kac", W, Jp)
    WJl = np.einsum("kab,kbc->kac", W, Jl)
    scatter_blocks(sys_, pose_slot, lm_slot,
                   np.einsum("kba,kbc->kac", Jp, WJp),
                   np.einsum("kba,kbc->kac", Jl, WJl),
                   np.einsum("kba,kbc->kac", Jp, WJl),
                   np.einsum("kab,ka->kb", WJp, e),
                   np.einsum("kab,ka->kb", WJl, e))

    sys_.rec_factor = sel
    sys_.rec_frame = frames
    sys_.rec_pose_slot = pose_slot
    sys_.rec_lm_slot = lm_slot
    sys_.rec_Jp = Jp
    sys_.rec_Jl = Jl
    sys_.rec_W = W
    sys_.rec_point = p
    sys_.rec_campoint = c
    sys_.rec_rot = rot
    sys_.residuals = e
    sys_.weights = w
    sys_.rec_curvature = ev.curvature[sel]

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        r = sp.residual(state)
        rows = [(layout.pose_slot[i], J) for i, J in zip((sp.i, sp.j), sp.jacobians(state))
                if layout.pose_slot[i] >= 0]
        for slot_a, Ja in rows:
            a = 6 * slot_a
            sys_.g[a:a + 6] += sp.weight * r * Ja.ravel()
            for slot_b, Jb in rows:
                b = 6 * slot_b
                sys_.Hpp[a:a + 6, b:b + 6] += sp.weight * (Ja.T @ Jb)
    return sys_


def exact_hessian_system(problem, state, theta, sys_):
    """Copy of a linearized system with exact second-order energy terms.

    The Gauss-Newton H drops the residual-curvature term
    rho' * sum_c (Sigma^-1 e)_c * grad^2 e_c and, on the Huber outlier branch,
    the rho'' rank-one term; both read the records of ``sys_``. Both vanish with the residuals, but at noisy
    optima they shift the sensitivity dX*/dtheta well above the oracle
    tolerance, so the implicit-gradient adjoint solve uses this corrected H.
    All corrections are factor-local 9x9 blocks over (pose, landmark) and
    preserve the Schur block sparsity. The scale prior contributes its own
    r * grad^2 r curvature.
    """
    out = copy.copy(sys_)
    out.Hpp = sys_.Hpp.copy()
    out.Hll = sys_.Hll.copy()
    out.Hpl = sys_.Hpl.copy()
    lay = sys_.layout

    # stacked matmuls round like the per-factor matrix products they replace
    rec = sys_.rec_factor
    e = sys_.residuals
    ie = _matvec(problem.info_stack[rec], e)
    kap = sys_.weights[:, None] * ie
    c = sys_.rec_campoint
    p = sys_.rec_point
    focal = problem.intrinsics_table[sys_.rec_frame, :2]
    R = sys_.rec_rot
    Rt = np.swapaxes(R, 1, 2)
    iz = 1.0 / c[:, 2]
    dh_dc = _projection_jacobian(focal, c)
    # second derivative of the pinhole map, contracted with kappa
    G = np.zeros((len(rec), 3, 3))
    G[:, 0, 2] = G[:, 2, 0] = -focal[:, 0] * kap[:, 0] * iz * iz
    G[:, 1, 2] = G[:, 2, 1] = -focal[:, 1] * kap[:, 1] * iz * iz
    G[:, 2, 2] = 2.0 * (focal[:, 0] * c[:, 0] * kap[:, 0]
                        + focal[:, 1] * c[:, 1] * kap[:, 1]) * iz ** 3
    # d cam-point / d (w, v, p)
    Dc = np.concatenate([Rt @ _so3_hat_many(p), -Rt, Rt], axis=2)
    T = np.swapaxes(Dc, 1, 2) @ G @ Dc
    # second derivative of the camera point, contracted with psi = R dh^T kappa
    psi = _matvec(R, _matvec(np.swapaxes(dh_dc, 1, 2), kap))
    hat_psi = _so3_hat_many(psi)
    outer = psi[:, :, None] * p[:, None, :]
    T2 = np.zeros((len(rec), 9, 9))
    T2[:, :3, :3] = (0.5 * (outer + np.swapaxes(outer, 1, 2))
                     - (psi[:, None, :] @ p[:, :, None]) * np.eye(3))
    T2[:, :3, 3:6] = -0.5 * hat_psi
    T2[:, 3:6, :3] = -0.5 * np.swapaxes(hat_psi, 1, 2)
    T2[:, :3, 6:] = hat_psi
    T2[:, 6:, :3] = np.swapaxes(hat_psi, 1, 2)
    C9 = -(T + T2)
    # rho'' rank-one term on the Huber outlier branch
    outl = np.flatnonzero(sys_.rec_curvature)
    if len(outl):
        u9 = np.concatenate([_matvec(np.swapaxes(sys_.rec_Jp[outl], 1, 2), ie[outl]),
                             _matvec(np.swapaxes(sys_.rec_Jl[outl], 1, 2), ie[outl])],
                            axis=1)
        C9[outl] += ((2.0 * sys_.rec_curvature[outl])[:, None, None]
                     * (u9[:, :, None] * u9[:, None, :]))
    scatter_blocks(out, sys_.rec_pose_slot, sys_.rec_lm_slot,
                   C9[:, :6, :6], C9[:, 6:, 6:], C9[:, :6, 6:])

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        ti = state.poses[sp.i].t
        tj = state.poses[sp.j].t
        d = tj - ti
        n = float(np.linalg.norm(d))
        u = d / n
        P = (np.eye(3) - np.outer(u, u)) / n
        r = n - sp.target
        Dti = np.hstack([-so3_hat(ti), np.eye(3)])  # d world-translation / d tangent
        Dtj = np.hstack([-so3_hat(tj), np.eye(3)])
        blocks = {}
        blocks[(sp.i, sp.i)] = Dti.T @ P @ Dti + _translation_curvature(-u, ti)
        blocks[(sp.j, sp.j)] = Dtj.T @ P @ Dtj + _translation_curvature(u, tj)
        blocks[(sp.i, sp.j)] = -Dti.T @ P @ Dtj
        blocks[(sp.j, sp.i)] = -Dtj.T @ P @ Dti
        for (a, b), blk in blocks.items():
            sa, sb = lay.pose_slot[a], lay.pose_slot[b]
            if sa >= 0 and sb >= 0:
                out.Hpp[6 * sa:6 * sa + 6, 6 * sb:6 * sb + 6] += sp.weight * r * blk
    return out


def _translation_curvature(cvec, t):
    """sum_m c_m * d^2(world translation)_m / d tangent^2 for one pose."""
    out = np.zeros((6, 6))
    out[:3, :3] = 0.5 * (np.outer(cvec, t) + np.outer(t, cvec)) - (cvec @ t) * np.eye(3)
    out[:3, 3:] = -0.5 * so3_hat(cvec)
    out[3:, :3] = -0.5 * so3_hat(cvec).T
    return out


def _chol_solve(A, b):
    try:
        c, low = scipy.linalg.cho_factor(A, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(str(exc)) from exc
    return scipy.linalg.cho_solve((c, low), b, check_finite=False)


def lm_step(system, lam):
    """Dense reference solve of (H + lambda D^2) dx = -g."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    H = system.dense_hessian()
    d2 = system.damping_scale() ** 2
    return _chol_solve(H + lam * np.diag(d2), -system.g)


def schur_solve(system, lam):
    """Eliminate landmark blocks, solve the reduced camera system, back-substitute."""
    return schur_solve_rhs(system, lam, -system.g)


def schur_solve_rhs(system, lam, b):
    """Solve (H + lambda D^2) x = b by landmark elimination."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lay = system.layout
    np_ = lay.n_pose_params
    nl = len(lay.free_lm_ids)
    d2 = system.damping_scale() ** 2

    A = system.Hpp + lam * np.diag(d2[:np_])
    bp = b[:np_]
    if nl == 0:
        x = np.zeros(lay.dim)
        if np_:
            x[:np_] = _chol_solve(A, bp)
        return x

    C = system.Hll.copy()
    dl = (lam * d2[np_:]).reshape(nl, 3)
    C[:, 0, 0] += dl[:, 0]
    C[:, 1, 1] += dl[:, 1]
    C[:, 2, 2] += dl[:, 2]
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("landmark block not positive definite") from exc
    Cinv = np.linalg.inv(C)
    bl = b[np_:].reshape(nl, 3)

    x = np.zeros(lay.dim)
    if np_ == 0:
        x[np_:] = np.einsum("lab,lb->la", Cinv, bl).ravel()
        return x

    Br = system.Hpl.reshape(np_, nl, 3)
    T = np.einsum("alc,lcd->ald", Br, Cinv)
    S = A - np.einsum("ald,bld->ab", T, Br)
    rhs = bp - np.einsum("ald,ld->a", T, bl)
    xp = _chol_solve(S, rhs)
    xl = np.einsum("lcd,ld->lc", Cinv, bl - np.einsum("alc,a->lc", Br, xp))
    x[:np_] = xp
    x[np_:] = xl.ravel()
    return x


def apply_step(state, layout, delta):
    """Retract a tangent-stack update onto a copy of the state."""
    new = state.copy()
    for slot, i in enumerate(layout.free_pose_ids):
        new.poses[i] = se3_retract(state.poses[i], delta[6 * slot:6 * slot + 6])
    for slot, j in enumerate(layout.free_lm_ids):
        o = layout.lm_offset(slot)
        new.landmarks[j] = state.landmarks[j] + delta[o:o + 3]
    return new


def _finite(value, what):
    if not math.isfinite(value):
        raise Diverged(f"{what} is not finite ({value})")
    return value


def optimize(problem, x0, theta=None, settings=None):
    """LM loop: linearize, Schur-solve, retract, then rank the trial.

    A trial that lowers the total energy by more than ``ENERGY_RESOLUTION``
    (relative) is accepted and the damping falls. One within that resolution,
    where the true decrease rounds away near a noisy optimum, is ranked by
    its gradient infinity norm: accepted on a ``GRADIENT_DECREASE`` fall, with
    the next step undamped, and otherwise the solve ends
    ``converged_stationary``. Any other trial is rejected and the damping
    grows. The solve also ends ``converged_gradient``, ``converged_step`` (a
    step below ``STEP_RESOLUTION``, or a rejected one within
    ``step_tolerance``) or ``max_iterations``.

    Returns (optimized state, SolveReport). ``iterations`` counts every Schur
    solve tried; ``energies`` holds the start energy and every accepted total
    that did not raise it, so it is non-increasing. Raises Diverged when the
    damped system stays singular over 10 consecutive lambda increases, and
    when the start energy or a gradient is not finite.
    """
    theta = problem.theta0() if theta is None else theta
    settings = SolverSettings() if settings is None else settings
    state = x0.copy()
    sys_ = linearize(problem, state, theta)
    temporal_value = temporal_term(problem, theta)[0]  # theta alone: once per solve
    energy = _finite(total_energy(problem, state, theta, temporal_value), "energy at the start")
    energies = [energy]
    grad_norm = _finite(sys_.gradient_inf_norm(), "gradient at the start")

    lam = settings.lm_lambda_init
    n_singular = 0
    reason = "converged_gradient"
    it = 0
    while grad_norm > settings.gradient_tolerance:
        if it >= settings.max_iterations:
            reason = "max_iterations"
            break
        it += 1
        try:
            delta = schur_solve(sys_, lam)
        except SingularSystem:
            n_singular += 1
            lam = _raise_damping(lam, settings)
            if n_singular >= 10:
                raise Diverged("damped system singular after 10 lambda increases")
            continue
        n_singular = 0
        step_norm = float(np.linalg.norm(delta))
        if step_norm < STEP_RESOLUTION:
            reason = "converged_step"
            break
        trial = apply_step(state, sys_.layout, delta)
        trial_energy = total_energy(problem, trial, theta, temporal_value)
        lowest = energies[-1]
        resolution = ENERGY_RESOLUTION * lowest
        if trial_energy < lowest - resolution:
            state, energy = trial, trial_energy
            energies.append(energy)
            lam /= settings.lambda_down
            sys_ = linearize(problem, state, theta)
            grad_norm = _finite(sys_.gradient_inf_norm(), f"gradient at iteration {it}")
        elif trial_energy <= lowest + resolution:
            trial_sys = linearize(problem, trial, theta)
            trial_grad = _finite(trial_sys.gradient_inf_norm(),
                                 f"gradient at iteration {it}")
            if trial_grad >= grad_norm * (1.0 - GRADIENT_DECREASE):
                reason = "converged_stationary"
                break
            state, energy, sys_, grad_norm = trial, trial_energy, trial_sys, trial_grad
            if energy <= lowest:
                energies.append(energy)
            lam = 0.0
        else:
            lam = _raise_damping(lam, settings)
            if step_norm <= settings.step_tolerance:
                # damping already pushed the trial step below resolution
                reason = "converged_step"
                break

    return state, SolveReport(it, energy, energies, grad_norm, reason,
                              sys_.inactive_count)


def _raise_damping(lam, settings):
    """Damping after a rejected or singular step; zero restarts the ladder."""
    return lam * settings.lambda_up if lam else settings.lm_lambda_init
