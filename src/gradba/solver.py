"""Damped Gauss-Newton / Levenberg-Marquardt over the BA normal equations.

The linearized system is kept in block form: a dense pose-pose block (poses
couple only through gauge priors), block-diagonal 3x3 landmark blocks, and a
pose-landmark coupling matrix of 6x3 blocks. ``schur_solve`` eliminates the
landmark blocks and must agree with the dense ``lm_step`` solution.

Sign conventions: residual jacobians are d e / d tangent (so they carry the
minus sign of e = observation - projection), the stored gradient is
g = J^T W e, and steps solve (H + lambda D^2) dx = -g. The true energy
gradient is 2 g; ``gradient_inf_norm`` reports it that way.

``linearize`` forms one 3x3 block M = A^T W A and one 3-vector b = A^T W e
per active factor, where A = dh/dc R^T is the factor's d pixel / d world
point; every pose and landmark block follows from them in closed form.
The blocks are summed per variable in factor order (``np.bincount`` in
``segment_sum`` and ``linearize``), so results are the same from run to run
for a fixed BLAS thread count. ``exact_hessian_system`` derives its
second-order correction the same way, from one symmetric 3x3 X per factor,
and the adjoint's J y is A (v - y_l - p x omega); both read only A, the
optical axis and the landmark from the records. The reduced camera system
S = Hpp - Hpl C^-1 Hpl^T is one matrix product, whose rounding depends on
the number of BLAS threads.

``optimize`` evaluates the factors once per trial state: the trial's
``evaluate_residuals`` serves both its energy test and, when the trial is
kept or ranked by its gradient, its linearization. Theta is fixed during a
solve, so the model's predictions are made once per solve. The structure of
``linearize`` (layout, slots, bins, the Hpl index of each factor's block) and
the scratch of its per-factor intermediates are a LinearizationPlan that
``optimize`` holds for the solve and rebuilds only when the active mask
changes. A system owns its arrays; each concurrent solve needs its own plan.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import Diverged, SingularSystem
from .geometry import retract, so3_hat
from .problem import evaluate_residuals, predictions, temporal_term, total_energy

DAMPING_FLOOR = 1e-6  # lower bound on the diagonal scaling D
ENERGY_RESOLUTION = 1e-12  # relative rounding resolution of the summed energy
STEP_RESOLUTION = 1e-13    # float resolution of the state coordinates
GRADIENT_DECREASE = 1e-3   # least relative gradient fall of a gradient-ranked step
_UPPER = np.array([0, 1, 2, 4, 5, 8])          # upper triangle of a raveled 3x3
_SYMMETRIC = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])  # that triangle back to a 3x3
# per-pose sums [upper -PMP, PM, upper M] to the 6x6 block [[-PMP, PM], [(PM)^T, M]]
_POSE_BLOCK = np.block([[_SYMMETRIC.reshape(3, 3), 6 + np.arange(9).reshape(3, 3)],
                        [6 + np.arange(9).reshape(3, 3).T, 15 + _SYMMETRIC.reshape(3, 3)]]).ravel()


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

    Per-factor records of the active factors are kept for the exact Hessian
    and the adjoint of the implicit-gradient module: A = dh/dc R^T (d pixel /
    d world point, from which with P = [p]x the residual jacobians are
    Jp = [-A P, A] and Jl = -A), the optical axis over the depth, the
    landmark, the robust-kernel terms and the residuals.
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
        self.rec_A = np.zeros((0, 2, 3))       # d pixel / d world point
        self.rec_axis = np.zeros((0, 3))       # R[:, 2] / z, world frame
        self.rec_point = np.zeros((0, 3))      # landmark position, world frame
        self.residuals = np.zeros((0, 2))
        self.weights = np.zeros(0)             # IRLS weights rho'
        self.rec_curvature = np.zeros(0)       # rho''

    # -- dense views -------------------------------------------------------

    def dense_hessian(self):
        H = scipy.linalg.block_diag(self.Hpp, *self.Hll)
        np_ = self.layout.n_pose_params
        H[:np_, np_:] = self.Hpl
        H[np_:, :np_] = self.Hpl.T
        return H

    def matvec(self, y):
        """H y computed blockwise (no dense assembly)."""
        np_ = self.layout.n_pose_params
        out = np.zeros_like(y)
        yl = y[np_:].reshape(-1, 3)
        out[:np_] = self.Hpp @ y[:np_] + self.Hpl @ y[np_:]
        out[np_:] = (np.einsum("lab,lb->la", self.Hll, yl).ravel()
                     + self.Hpl.T @ y[:np_])
        return out

    def jacobian_times(self, y):
        """J y per active factor, (k, 2): A (v - y_l - p x omega) for a
        tangent y over the free variables, fixed ones reading a zero row."""
        np_ = self.layout.n_pose_params
        yp = np.vstack([y[:np_].reshape(-1, 6), np.zeros((1, 6))])[self.rec_pose_slot]
        yl = np.vstack([y[np_:].reshape(-1, 3), np.zeros((1, 3))])[self.rec_lm_slot]
        u = yp[:, 3:] - yl - np.cross(self.rec_point, yp[:, :3])
        return np.einsum("kab,kb->ka", self.rec_A, u)

    def damping_scale(self):
        """D with D^2 the floored diagonal of H."""
        d = np.concatenate([np.diag(self.Hpp),
                            np.einsum("laa->la", self.Hll).ravel()])
        return np.maximum(np.sqrt(np.maximum(d, 0.0)), DAMPING_FLOOR)

    def gradient_inf_norm(self):
        """Infinity norm of the true energy gradient 2 J^T W e."""
        return 2.0 * float(np.abs(self.g).max()) if self.layout.dim else 0.0


def _hat_times(p, X, out=None, tmp=None):
    """[p]x X, p crossed with every column of X, for factor-last p (3, k) and
    X (3, m, k); into ``out``, with ``tmp`` (m, k) for products, when given."""
    out = np.empty(X.shape) if out is None else out
    for r, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(p[a], X[b], out=out[r])
        np.subtract(out[r], np.multiply(p[b], X[a], out=tmp), out=out[r])
    return out


def segment_sum(slots, values, start):
    """``start`` (n, ...) plus the rows of ``values`` (k, ...) summed by slot.

    Row r is added to ``start[slots[r]]``; a slot of -1 drops it. Each sum
    begins at its start value and adds its rows in row order, as a loop over
    rows does: ``np.bincount`` accumulates its input sequentially.
    """
    n, m = len(start), math.prod(start.shape[1:])
    bins = np.concatenate([np.arange(n), np.where(slots < 0, n, slots)])
    cols = np.concatenate([start.reshape(n, m).T, values.reshape(len(slots), m).T], axis=1)
    return _bin_sums(bins, n, cols).reshape(start.shape)


def _bin_sums(bins, n, cols):
    """(n, len(cols)) sums of each of the rows ``cols`` by ``bins``, in row
    order from zero; bin n collects the dropped entries."""
    return np.array([np.bincount(bins, col, minlength=n + 1)[:n] for col in cols]).T


class PairIndex:
    """The flat Hpl index (6, 3, kb), factor-last, of the 6x3 block of each
    factor in ``both``, whose pose and landmark are free; with a repeated
    pair, each factor's pair number ``order`` and each pair's ``first`` index."""

    def __init__(self, n_l, pose_slot, lm_slot):
        self.both = _rows((pose_slot >= 0) & (lm_slot >= 0))
        ps, ls = pose_slot[self.both], lm_slot[self.both]
        self.idx = (3 * n_l * np.arange(6)[:, None, None] + np.arange(3)[:, None]
                    + (18 * n_l * ps + 3 * ls))
        pairs, self.order = ps * n_l + ls, None
        if len(pairs) and np.bincount(pairs).max() > 1:
            _, first, self.order = np.unique(pairs, return_index=True, return_inverse=True)
            self.first = self.idx[..., first]


def _add_pair_blocks(Hpl, pairs, blocks):
    """Add factor-last (6, 3, k) blocks to ``Hpl`` at the places a PairIndex
    gives, dropping those with a fixed side. A pair holds one block, added in
    place one entry of the 6x3 at a time, so that no gathered copy is near
    Hpl's size, unless the problem repeats a row; repeated pairs are summed
    in factor order."""
    flat = Hpl.reshape(-1)
    if pairs.order is None:
        for i in np.ndindex(6, 3):
            flat[pairs.idx[i]] += blocks[i][pairs.both]
    else:
        idx = pairs.first
        flat[idx] = segment_sum(pairs.order, blocks[..., pairs.both].transpose(2, 0, 1),
                                flat[idx].transpose(2, 0, 1)).transpose(1, 2, 0)


def _rows(mask):
    """Index of the true rows; a slice, which copies nothing, when they are contiguous."""
    idx = np.flatnonzero(mask)
    if len(idx) and idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    return idx


class LinearizationPlan:
    """The structure of ``linearize`` for one active mask: the layout, the
    active factors' rows, slots, information, segment-sum bins and Hpl
    PairIndex, and a scratch for their intermediates. It reads the state's
    fixed masks, not its values, so one plan serves every state of a solve
    with the active mask ``active``. Systems own their arrays, but the
    scratch serves one call at a time: each concurrent solve needs its plan.
    """

    def __init__(self, problem, state, active):
        self.active = active
        self.layout = lay = SystemLayout(state)
        self.sel = np.flatnonzero(active)
        self.rows = _rows(active)
        self.frames, self.lms = problem.frame_idx[self.rows], problem.lm_idx[self.rows]
        self.pose_slot, self.lm_slot = lay.pose_slot[self.frames], lay.lm_slot[self.lms]
        self.info_t = np.ascontiguousarray(problem.info_stack[self.rows].transpose(1, 2, 0))
        n_p, n_l = len(lay.free_pose_ids), len(lay.free_lm_ids)
        self.pose_bins = np.where(self.pose_slot < 0, n_p, self.pose_slot)
        self.lm_bins = np.where(self.lm_slot < 0, n_l, self.lm_slot)
        self.pairs = PairIndex(n_l, self.pose_slot, self.lm_slot)

        # Factor-last scratch: Z = [PM | Pb; M | b] in rows 0-23, which hold R
        # and 1/z, then W rho' and WA, before it; -PMP in 24-32 and products in
        # 24-35. The bincount rows, read in place, are per pose [upper -PMP,
        # PM, upper M, Pb, b] and per landmark [upper M, -b].
        k = len(self.sel)
        w = np.empty((36, k))
        self.Z, self.R, self.iz = w[:24].reshape(6, 4, k), w[:9].reshape(3, 3, k), w[9]
        self.Wt, self.WA = w[:4].reshape(2, 2, k), w[4:10].reshape(2, 3, k)
        self.PMP, self.tmp = w[24:33].reshape(3, 3, k), w[24:]
        m_upper = [self.Z[3 + u // 3, u % 3] for u in _UPPER]
        self.lm_rows = m_upper + list(self.Z[3:, 3])
        self.pose_rows = ([self.PMP[u // 3, u % 3] for u in _UPPER]
                          + [r for X in self.Z[:3, :3] for r in X] + m_upper + list(self.Z[:, 3]))

    def fits(self, active):
        return np.array_equal(self.active, active)


def linearize(problem, state, theta=None, ev=None, plan=None):
    """Evaluate residuals, IRLS weights and jacobian blocks at the state.

    Factors behind a camera are soft-deactivated (zero contribution) and
    counted; fixed variables are excluded from the system. ``ev``, when
    given, is ``evaluate_residuals`` at (state, theta), and ``plan`` a
    LinearizationPlan that fits its active mask; both are made here
    otherwise.
    """
    theta = problem.theta0() if theta is None else theta
    ev = evaluate_residuals(problem, state, theta) if ev is None else ev
    plan = LinearizationPlan(problem, state, ev.active) if plan is None else plan
    layout = plan.layout
    sys_ = LinearizedSystem(layout)
    sys_.inactive_count = int(len(ev.active) - len(plan.sel))
    rows = plan.rows
    e, c, w = ev.e[rows], ev.campoint[rows], ev.weight[rows]
    p = state.landmarks[plan.lms]

    # Factor-last (k on the last axis), so that every array operation below
    # runs along the factors. A = dh/dc R^T is d pixel / d world point:
    # At[r, i] = A[i, r] = f_i / z (R[r, i] - c_i / z R[r, 2]). With P = [p]x
    # the residual jacobians, which carry the minus sign of e = obs -
    # projection, are Jl = -A and Jp = [-A P, A], so every block of J^T W J
    # and J^T W e follows from M = A^T W A and b = A^T W e.
    R, iz, Z, tmp = plan.R, plan.iz, plan.Z, plan.tmp
    np.copyto(R, ev.rot[rows].transpose(1, 2, 0))
    et, pt, ct = e.T, p.T, c.T
    np.divide(1.0, ct[2], out=iz)
    At = np.multiply(np.multiply(ct[:2], iz, out=tmp[:2]), R[:, 2:])
    np.subtract(R[:, :2], At, out=At)
    At *= np.multiply(problem.intrinsics.row()[:2, None], iz, out=tmp[:2])
    rec_axis = (R[:, 2] * iz).T
    Wt, WA = np.multiply(plan.info_t, w, out=plan.Wt), plan.WA  # R is spent
    np.add(np.multiply(Wt[:, :1], At[None, :, 0], out=WA),
           np.multiply(Wt[:, 1:], At[None, :, 1], out=tmp[:6].reshape(WA.shape)), out=WA)
    PM, M, b = Z[:3, :3], Z[3:, :3], Z[3:, 3]
    np.add(np.multiply(At[:, :1], WA[None, 0], out=M),
           np.multiply(At[:, 1:], WA[None, 1], out=tmp[:9].reshape(M.shape)), out=M)
    np.add(np.multiply(WA[0], et[0], out=b), np.multiply(WA[1], et[1], out=tmp[:3]), out=b)
    # P M and P b in one product, then -PMP
    _hat_times(pt, Z[3:], Z[:3], tmp[:4])
    _hat_times(pt, PM.swapaxes(0, 1), plan.PMP, tmp[9:])

    # Hpp = [[-PMP, PM], [(PM)^T, M]] and gp = [p x b, b] per pose; the
    # symmetric -PMP and M are summed by their upper triangles
    n_p, n_l = len(layout.free_pose_ids), len(layout.free_lm_ids)
    per_pose = _bin_sums(plan.pose_bins, n_p, plan.pose_rows)
    d = np.arange(n_p)
    sys_.Hpp.reshape(n_p, 6, n_p, 6)[d, :, d, :] = per_pose[:, _POSE_BLOCK].reshape(-1, 6, 6)
    sys_.g[:layout.n_pose_params] = per_pose[:, 21:].ravel()
    # Hll = M and gl = -b per landmark; Hpl = [-PM; -M] per pair
    np.negative(b, out=b)
    per_lm = _bin_sums(plan.lm_bins, n_l, plan.lm_rows)
    sys_.Hll = per_lm[:, _SYMMETRIC].reshape(n_l, 3, 3)
    sys_.g[layout.n_pose_params:] = per_lm[:, 6:].ravel()
    _add_pair_blocks(sys_.Hpl, plan.pairs, np.negative(Z[:, :3], out=Z[:, :3]))

    vars(sys_).update(
        rec_factor=plan.sel, rec_frame=plan.frames, rec_pose_slot=plan.pose_slot,
        rec_lm_slot=plan.lm_slot, rec_A=At.T, rec_axis=rec_axis, rec_point=p,
        residuals=e, weights=w, rec_curvature=ev.curvature[rows])

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        r = sp.residual(state)
        rows = [(layout.pose_slot[i], J) for i, J in zip((sp.i, sp.j), sp.jacobians(state))
                if layout.pose_slot[i] >= 0]
        for a, Ja in rows:
            sys_.g[6 * a:6 * a + 6] += sp.weight * r * Ja.ravel()
            for b, Jb in rows:
                sys_.Hpp[6 * a:6 * a + 6, 6 * b:6 * b + 6] += sp.weight * (Ja.T @ Jb)
    return sys_


def exact_hessian_system(problem, state, sys_):
    """Copy of a linearized system with exact second-order energy terms.

    The Gauss-Newton H drops the residual-curvature term
    rho' * sum_c (Sigma^-1 e)_c * grad^2 e_c and, on the Huber outlier branch,
    the rho'' rank-one term; both read the records of ``sys_``. Both vanish
    with the residuals, but at noisy optima they shift the sensitivity
    dX*/dtheta well above the oracle tolerance, so the implicit-gradient
    adjoint solve uses this corrected H. The corrections are factor-local
    and preserve the Schur block sparsity. The scale prior contributes its
    own r * grad^2 r curvature.

    With q = A^T Sigma^-1 e, psi = rho' q and a = R[:, 2] / z (the optical
    axis over the depth), the pinhole curvature and the rho'' term are one
    symmetric 3x3 per factor, X = a psi^T + psi a^T + 2 rho'' q q^T. X enters
    the blocks as M does in ``linearize``, and the curvature of the camera
    point adds T2 = sym(psi p^T) - (psi . p) I and [psi]x: Hll += X,
    Hpl += [-PX - [psi]x; -X] and the pose block
    += [[-PXP - T2, PX + [psi]x / 2], [., X]].
    """
    out = copy.copy(sys_)
    out.Hpp = sys_.Hpp.copy()
    out.Hpl = sys_.Hpl.copy()

    # factor-last, as in linearize
    At, et, pt, a = sys_.rec_A.T, sys_.residuals.T, sys_.rec_point.T, sys_.rec_axis.T
    info = problem.info_stack[sys_.rec_factor].transpose(1, 2, 0)
    ie = info[:, 0] * et[0] + info[:, 1] * et[1]
    q = At[:, 0] * ie[0] + At[:, 1] * ie[1]
    psi = sys_.weights * q
    X = a[:, None] * psi + psi[:, None] * a + (2.0 * sys_.rec_curvature * q)[:, None] * q
    X9, PX = X.reshape(9, -1), _hat_times(pt, X).reshape(9, -1)
    hat_psi = so3_hat(psi.T).reshape(-1, 9).T
    outer = psi[:, None] * pt
    T2 = (0.5 * (outer + outer.swapaxes(0, 1))).reshape(9, -1)
    T2[[0, 4, 8]] -= psi[0] * pt[0] + psi[1] * pt[1] + psi[2] * pt[2]

    # summed by upper triangles, as linearize sums M
    lay = sys_.layout
    n_p, n_l = len(lay.free_pose_ids), len(lay.free_lm_ids)
    ps, ls = sys_.rec_pose_slot, sys_.rec_lm_slot
    X6 = X9[_UPPER]
    PXP = _hat_times(pt, PX.reshape(3, 3, -1).swapaxes(0, 1)).reshape(9, -1)  # -P X P
    per_pose = _bin_sums(np.where(ps < 0, n_p, ps), n_p,
                         np.concatenate([(PXP - T2)[_UPPER], PX + 0.5 * hat_psi, X6]))
    d = np.arange(n_p)
    out.Hpp.reshape(n_p, 6, n_p, 6)[d, :, d, :] += per_pose[:, _POSE_BLOCK].reshape(-1, 6, 6)
    per_lm = _bin_sums(np.where(ls < 0, n_l, ls), n_l, X6)
    out.Hll = sys_.Hll + per_lm[:, _SYMMETRIC].reshape(n_l, 3, 3)
    _add_pair_blocks(out.Hpl, PairIndex(n_l, ps, ls),
                     -np.concatenate([PX + hat_psi, X9]).reshape(6, 3, -1))

    if problem.scale_prior is not None:
        sp = problem.scale_prior
        ti, tj = state.t[sp.i], state.t[sp.j]
        d = tj - ti
        n = float(np.linalg.norm(d))
        u = d / n
        P = (np.eye(3) - np.outer(u, u)) / n
        r = n - sp.target
        # d world-translation / d tangent of each pose
        Dti, Dtj = (np.hstack([-so3_hat(x), np.eye(3)]) for x in (ti, tj))
        blocks = {(sp.i, sp.i): Dti.T @ P @ Dti + _translation_curvature(-u, ti),
                  (sp.j, sp.j): Dtj.T @ P @ Dtj + _translation_curvature(u, tj),
                  (sp.i, sp.j): -Dti.T @ P @ Dtj, (sp.j, sp.i): -Dtj.T @ P @ Dti}
        for (a, b), blk in blocks.items():
            sa, sb = sys_.layout.pose_slot[a], sys_.layout.pose_slot[b]
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
        return _chol_solve(A, bp) if np_ else np.zeros(0)

    C = system.Hll + (lam * d2[np_:]).reshape(nl, 3)[:, :, None] * np.eye(3)
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("landmark block not positive definite") from exc
    Cinv = np.linalg.inv(C)
    bl = b[np_:].reshape(nl, 3)

    if np_ == 0:
        return np.einsum("lab,lb->la", Cinv, bl).ravel()

    # T = Hpl C^-1, one 3x3 product per landmark; S = A - T Hpl^T is one GEMM
    Br = system.Hpl.reshape(np_, nl, 3).swapaxes(0, 1)
    T = (Br @ Cinv).swapaxes(0, 1).reshape(np_, -1)
    xp = _chol_solve(A - T @ system.Hpl.T, bp - T @ b[np_:])
    xl = np.einsum("lcd,ld->lc", Cinv, bl - (system.Hpl.T @ xp).reshape(nl, 3))
    return np.concatenate([xp, xl.ravel()])


def apply_step(state, layout, delta):
    """Retract a tangent-stack update onto a copy of the state."""
    new = state.copy()
    ids = layout.free_pose_ids
    new.q[ids], new.t[ids] = retract(state.q[ids], state.t[ids],
                                     delta[:layout.n_pose_params].reshape(-1, 6))
    lms = layout.free_lm_ids
    new.landmarks[lms] = state.landmarks[lms] + delta[layout.n_pose_params:].reshape(-1, 3)
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
    # theta alone: the predictions and the temporal term, once per solve
    preds = predictions(problem, theta)
    temporal_value = temporal_term(problem, theta)[0]
    ev = evaluate_residuals(problem, state, theta, preds)
    plan = LinearizationPlan(problem, state, ev.active)
    sys_ = linearize(problem, state, theta, ev, plan)
    energy = _finite(total_energy(problem, state, theta, temporal_value, ev),
                     "energy at the start")
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
        ev = evaluate_residuals(problem, trial, theta, preds)
        trial_energy = total_energy(problem, trial, theta, temporal_value, ev)
        lowest = energies[-1]
        resolution = ENERGY_RESOLUTION * lowest
        if trial_energy <= lowest + resolution and not plan.fits(ev.active):
            plan = LinearizationPlan(problem, trial, ev.active)  # for the trial's system
        if trial_energy < lowest - resolution:
            state, energy = trial, trial_energy
            energies.append(energy)
            lam /= settings.lambda_down
            sys_ = linearize(problem, state, theta, ev, plan)
            grad_norm = _finite(sys_.gradient_inf_norm(), f"gradient at iteration {it}")
        elif trial_energy <= lowest + resolution:
            trial_sys = linearize(problem, trial, theta, ev, plan)
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
