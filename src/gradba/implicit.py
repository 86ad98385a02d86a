"""Gradients through the converged solver via the implicit function theorem.

At a stationary point of the robust energy, d(grad_X E)/d theta = 0 links the
sensitivity of the optimum to the observation-model parameters:

    dX*/dtheta = -H^-1 @ d2E/dX dtheta

so for a downstream loss L(X*),

    dL/dtheta = -(dL/dX*) @ H^-1 @ d2E/dX dtheta

realized as one adjoint solve H y = (dL/dX*)^T reusing the forward solver's
Schur elimination; the inverse Hessian is never formed. H is the
Gauss-Newton approximation J^T W J with IRLS weights frozen at the optimum,
and the mixed term is J^T W (d obs/d theta) because the projection jacobian
does not depend on theta. Temporal factors attach to the energy through the
observation model only, so they contribute nothing to either X-derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import align, apply_alignment
from .errors import NonUniqueAlignment, NotAtOptimum
from .geometry import (quat_conj, quat_from_matrix, quat_mul, quat_to_rotvec,
                       so3_hat)
from .problem import StateVector
from .solver import (apply_step, exact_hessian_system, linearize,
                     optimize, schur_solve, schur_solve_rhs)


def max_rel_error(a, b, floor=1e-12):
    """max |a - b| over the larger of the two magnitudes (with a floor)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    denom = max(np.abs(a).max(), np.abs(b).max(), floor)
    return float(np.abs(a - b).max() / denom)


def optimality_residual(problem, state, theta=None):
    """Infinity norm of the energy gradient over the free variables.

    Computed through the same IRLS-weighted linearization the solver uses, so
    the solver's gradient-tolerance termination bounds this quantity.
    """
    return linearize(problem, state, theta).gradient_inf_norm()


@dataclass
class ImplicitGradRequest:
    """Inputs of one implicit-gradient evaluation.

    Deliberately holds only the converged state, never a solver iterate
    history: the gradient depends on the fixed point alone.
    """

    problem: object
    state: object                 # converged state X*
    theta: np.ndarray
    dldx: np.ndarray              # tangent-space row vector over free variables
    gradient_tolerance: float = 1e-8
    linearization: object = None  # optional reuse of the last solver system
    hessian_mode: str = "exact"   # "exact" | "gauss_newton"


@dataclass
class ImplicitGradReport:
    dldtheta: np.ndarray
    solve_residual: float         # ||H y - (dL/dX*)^T||_inf
    hessian_condition: float      # ratio of extreme landmark-block eigenvalues


def implicit_gradient(request):
    """dL/dtheta for a loss with tangent gradient dL/dX* at the optimum.

    ``hessian_mode='exact'`` (the default) augments the Gauss-Newton H with
    the factor-local second-order residual terms; at zero residuals the two
    modes coincide, and at noisy optima only the exact mode tracks the true
    sensitivity of the solution to the oracle tolerances.
    """
    problem = request.problem
    theta = request.theta
    sys_ = request.linearization
    if sys_ is None:
        sys_ = linearize(problem, request.state, theta)
    res = sys_.gradient_inf_norm()
    if res > request.gradient_tolerance:
        raise NotAtOptimum(
            f"optimality residual {res:.3e} > tolerance {request.gradient_tolerance:.3e}")
    dldx = np.asarray(request.dldx, dtype=float).ravel()
    if dldx.shape != (sys_.layout.dim,):
        raise ValueError(f"dL/dX* must have {sys_.layout.dim} entries")

    if request.hessian_mode == "exact":
        hsys = exact_hessian_system(problem, request.state, sys_)
    elif request.hessian_mode == "gauss_newton":
        hsys = sys_
    else:
        raise ValueError(f"unknown hessian_mode {request.hessian_mode!r}")
    y = schur_solve_rhs(hsys, 0.0, dldx)
    solve_residual = float(np.abs(hsys.matvec(y) - dldx).max()) if dldx.size else 0.0

    # dL/dtheta = -y^T J^T W (d obs/d theta), one vector-jacobian product
    jy = sys_.jacobian_times(y)
    v = np.einsum("kab,kb->ka", sys_.rec_W, jy)
    if request.hessian_mode == "exact" and sys_.rec_curvature.any():
        # rho'' part of the mixed Hessian on the Huber outlier branch
        ie = np.einsum("kab,kb->ka", problem.info_stack[sys_.rec_factor], sys_.residuals)
        a = np.einsum("ka,ka->k", jy, ie)
        v = v + 2.0 * (sys_.rec_curvature * a)[:, None] * ie
    dldtheta = -problem.obs_model.observe_vjp(
        sys_.rec_frame, problem.track_idx[sys_.rec_factor], theta, v)

    cond = 0.0
    if len(sys_.layout.free_lm_ids):
        eigs = np.linalg.eigvalsh(hsys.Hll)
        lo = float(eigs.min())
        cond = float(eigs.max() / lo) if lo > 0 else np.inf
    return ImplicitGradReport(dldtheta, solve_residual, cond)


# ---------------------------------------------------------------------------
# downstream losses
# ---------------------------------------------------------------------------

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


class PoseErrorLoss:
    """Gauge-aligned squared pose error against reference poses.

    Camera centres c_i are similarity-aligned to the reference centres r_i
    (Umeyama), then the loss sums the squared aligned-position errors and the
    squared geodesic rotation angles |w_i|^2, w_i = log(q_A q_i q_ref,i^*),
    where q_A is the alignment rotation R_A.

    The tangent gradient is analytic. The position term is at its minimum
    over the alignment (s, R_A, t), so by the envelope theorem its gradient
    is 2 s R_A^T (s R_A c_i + t - r_i). The rotation term depends on the
    centres only through R_A; the implicit function theorem on the
    stationarity of the position term in (s, phi, t), phi a left rotation
    increment of R_A, gives that part from one 7x7 solve. Both reach the
    left-retraction tangent [omega, v] of a world-from-camera pose as
    g_v = G_i and g_omega = c_i x G_i + 2 R_A^T w_i; landmark entries are
    zero. The alignment must be unique (see ``check_unique_alignment``).
    """

    def __init__(self, ref_poses):
        ref = StateVector(ref_poses, np.zeros((0, 3)))
        self.ref_q, self.ref_t = ref.q, ref.t

    def _alignment(self, state):
        """(estimated centres, reference centres, s, R_A, t, rotation errors
        w_i as an (N, 3) array)."""
        est, ref = state.t, self.ref_t
        check_unique_alignment(est, ref)
        s, R, t = align(est, ref)
        w = quat_to_rotvec(quat_mul(quat_mul(quat_from_matrix(R), state.q),
                                    quat_conj(self.ref_q)))
        return est, ref, s, R, t, w

    def value(self, state):
        est, ref, s, R, t, w = self._alignment(state)
        pos = apply_alignment(est, s, R, t)
        total = float(((pos - ref) ** 2).sum())
        for wi in w:
            total += float(wi @ wi)
        return total

    def grad_tangent(self, state, layout):
        est, ref, s, R, t, w = self._alignment(state)
        a = est @ R.T                  # R_A c_i
        e = s * a + t - ref            # aligned - reference
        # Hessian of sum |s exp(phi) R_A c_i + t - r_i|^2 over (s, phi, t)
        H = np.zeros((7, 7))
        H[0, 0] = 2.0 * (a * a).sum()
        H[0, 1:4] = H[1:4, 0] = 2.0 * np.cross(a, e).sum(axis=0)
        H[0, 4:] = H[4:, 0] = 2.0 * a.sum(axis=0)
        ea = np.einsum("ka,kb->ab", e, a)
        aa = np.einsum("ka,kb->ab", a, a)
        H[1:4, 1:4] = (s * (ea + ea.T - 2.0 * np.trace(ea) * np.eye(3))
                       + 2.0 * s * s * (np.trace(aa) * np.eye(3) - aa))
        H[1:4, 4:] = 2.0 * s * so3_hat(a.sum(axis=0))
        H[4:, 1:4] = H[1:4, 4:].T
        H[4:, 4:] = 2.0 * len(est) * np.eye(3)
        # the rotation term moves with phi as 2 sum w_i
        lam = np.linalg.solve(H, np.concatenate([[0.0], 2.0 * w.sum(axis=0), np.zeros(3)]))
        ls, lp, lt = lam[0], lam[1:4], lam[4:]
        # dL/dc_i: envelope term minus d/dc_i of lam . grad_(s, phi, t)
        G = 2.0 * (s * e - ls * (s * a + e) - s * np.cross(e, lp)
                   - s * s * np.cross(lp, a) - s * lt) @ R
        ids = layout.free_pose_ids
        g = np.zeros(layout.dim)
        gp = g[:layout.n_pose_params].reshape(-1, 6)
        gp[:, :3] = np.cross(est[ids], G[ids]) + 2.0 * w[ids] @ R
        gp[:, 3:] = G[ids]
        return g


# singular values of the centres' cross-covariance below this fraction of the
# largest count as zero: the 7x7 solve of PoseErrorLoss.grad_tangent amplifies
# rounding by about their ratio, which leaves 1e-7 relative at the threshold
ALIGNMENT_RANK_RTOL = 1e-9


def check_unique_alignment(est, ref):
    """Raise NonUniqueAlignment unless the centred estimated and reference
    centres have a cross-covariance of rank >= 2.

    Below rank 2 (fewer than three distinct centres, or collinear ones) the
    similarity rotation about the line is free, so an aligned loss has no
    gradient with respect to it.
    """
    cov = (ref - ref.mean(axis=0)).T @ (est - est.mean(axis=0))
    sv = np.linalg.svd(cov, compute_uv=False)
    if not sv[1] > ALIGNMENT_RANK_RTOL * sv[0]:
        raise NonUniqueAlignment(
            f"similarity alignment of {len(est)} camera centres is not unique "
            f"(cross-covariance singular values {sv[0]:.3e}, {sv[1]:.3e}, "
            f"{sv[2]:.3e}): collinear or coincident centres")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fd_gradient(problem, x0, theta, settings, loss, h=1e-5, indices=None):
    """Central finite differences of theta -> L(X*(theta)), re-solving fully.

    ``indices`` selects the theta coordinates to differentiate (all by
    default); the result holds one entry per selected coordinate.
    """
    theta = np.asarray(theta, dtype=float)
    indices = np.arange(theta.size) if indices is None else indices
    g = np.zeros(len(indices))
    for n, k in enumerate(indices):
        dt = np.zeros_like(theta)
        dt[k] = h
        xp, _ = optimize(problem, x0, theta + dt, settings)
        xm, _ = optimize(problem, x0, theta - dt, settings)
        g[n] = (loss.value(xp) - loss.value(xm)) / (2.0 * h)
    return g


def _fixed_schedule_solve(problem, x0, theta, n_iters, lam):
    """n_iters damped Gauss-Newton updates, every step applied (no gating).

    A smooth map of theta, suitable for numerical differentiation of the
    unrolled solve.
    """
    state = x0.copy()
    for _ in range(n_iters):
        sys_ = linearize(problem, state, theta)
        delta = schur_solve(sys_, lam)
        state = apply_step(state, sys_.layout, delta)
    return state


def unrolled_gradient_oracle(problem, x0, theta, settings, loss,
                             h=1e-5, n_iters=8, lam=1e-12, indices=None):
    """Differentiate the unrolled solve numerically; test oracle only.

    Runs a fixed iteration schedule per perturbation so the map stays smooth.
    ``indices`` selects the theta coordinates as in ``fd_gradient``; without
    it the oracle is restricted to small problems.
    """
    if indices is None and (problem.state.n_poses > 10
                            or problem.state.n_landmarks > 100):
        raise ValueError("unrolled oracle over all of theta is restricted "
                         "to small problems")
    theta = np.asarray(theta, dtype=float)
    indices = np.arange(theta.size) if indices is None else indices
    g = np.zeros(len(indices))
    for n, k in enumerate(indices):
        dt = np.zeros_like(theta)
        dt[k] = h
        xp = _fixed_schedule_solve(problem, x0, theta + dt, n_iters, lam)
        xm = _fixed_schedule_solve(problem, x0, theta - dt, n_iters, lam)
        g[n] = (loss.value(xp) - loss.value(xm)) / (2.0 * h)
    return g
