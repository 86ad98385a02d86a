from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import gradba.problem as problem_mod
import gradba.solver as solver_mod
from gradba import scene as scn
from gradba import temporal
from gradba.alignment import align, apply_alignment
from gradba.errors import Diverged, SingularSystem
from gradba.geometry import (CameraIntrinsics, Pose, projection_jacobians,
                             se3_exp, se3_retract)
from gradba.problem import (Problem, RobustKernel, StateVector, StaticModel,
                            total_energy)
from gradba.solver import (SolverSettings, apply_step, exact_hessian_system,
                           linearize, lm_step, optimize, schur_solve)

from conftest import build_ba_problem, problem_like
from loop_reference import residual

# a unit quaternion that six repeated renormalizations q / |q| each move in
# its last bits (found by a seeded search over random unit quaternions)
DRIFTING_Q = np.array([0.6288710630375454, -0.12535512980647598,
                       -0.5211404920799978, 0.563222749025505])


def dense_reference(problem, state, theta=None):
    """Naive dense J^T W J / J^T W e assembly, one factor row at a time."""
    theta = problem.theta0() if theta is None else theta
    lay_free_p = [i for i in range(state.n_poses) if not state.fixed_poses[i]]
    lay_free_l = [j for j in range(state.n_landmarks) if not state.fixed_landmarks[j]]
    pslot = {i: k for k, i in enumerate(lay_free_p)}
    lslot = {j: k for k, j in enumerate(lay_free_l)}
    dim = 6 * len(lay_free_p) + 3 * len(lay_free_l)
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    kernel = problem.kernel
    for k, info in enumerate(problem.info_stack):
        frame, landmark = int(problem.frame_idx[k]), int(problem.lm_idx[k])
        e = residual(problem, k, state, theta)
        Jp, Jx = projection_jacobians(state.poses[frame], problem.intrinsics[frame],
                                      state.landmarks[landmark])
        # Huber IRLS weight, written out independently of gradba.problem
        root = np.sqrt(float(e @ info @ e))
        huber = kernel is not None and kernel.kind == "huber"
        w = kernel.delta / root if huber and root > kernel.delta else 1.0
        W = w * info
        J = np.zeros((2, dim))
        if frame in pslot:
            J[:, 6 * pslot[frame]:6 * pslot[frame] + 6] = -Jp
        if landmark in lslot:
            o = 6 * len(lay_free_p) + 3 * lslot[landmark]
            J[:, o:o + 3] = -Jx
        H += J.T @ W @ J
        g += J.T @ W @ e
    if problem.scale_prior is not None:
        sp = problem.scale_prior
        Ji, Jj = sp.jacobians(state)
        J = np.zeros((1, dim))
        if sp.i in pslot:
            J[:, 6 * pslot[sp.i]:6 * pslot[sp.i] + 6] = Ji
        if sp.j in pslot:
            J[:, 6 * pslot[sp.j]:6 * pslot[sp.j] + 6] = Jj
        H += sp.weight * (J.T @ J)
        g += sp.weight * sp.residual(state) * J.ravel()
    return H, g


class TestLinearize:
    def test_zero_residuals_zero_gradient(self):
        prob, x0, *_ = build_ba_problem(0, sigma=0.0, pose_noise=0.0,
                                        lm_noise=0.0)
        sys_ = linearize(prob, prob.state)
        assert np.abs(sys_.g).max() < 1e-9

    def test_matches_dense_naive_oracle(self):
        prob, x0, *_ = build_ba_problem(1, sigma=1.0,
                                        kernel=RobustKernel("huber", 2.0))
        sys_ = linearize(prob, x0)
        H_ref, g_ref = dense_reference(prob, x0)
        H = sys_.dense_hessian()
        scale = np.abs(H_ref).max()
        assert np.abs(H - H_ref).max() < 1e-12 * scale
        assert np.abs(sys_.g - g_ref).max() < 1e-12 * max(np.abs(g_ref).max(), 1.0)

    def test_duplicated_factor_doubles_contribution(self):
        prob, x0, *_ = build_ba_problem(2, n_cams=3, n_lms=8, sigma=0.5)
        rows = np.append(np.arange(len(prob.frame_idx)), 5)
        prob2 = problem_like(prob, rows, scale_prior=prob.scale_prior)
        H1, g1 = dense_reference(prob, x0)
        H2, g2 = dense_reference(prob2, x0)
        sys2 = linearize(prob2, x0)
        np.testing.assert_allclose(sys2.dense_hessian(), H2, atol=1e-9)
        # the difference between the two references is one factor's block
        sys1 = linearize(prob, x0)
        dH = sys2.dense_hessian() - sys1.dense_hessian()
        np.testing.assert_allclose(dH, H2 - H1, atol=1e-9)

    def test_matvec_matches_dense(self, rng):
        prob, x0, *_ = build_ba_problem(3, sigma=0.5)
        sys_ = linearize(prob, x0)
        H = sys_.dense_hessian()
        for _ in range(5):
            y = rng.normal(size=sys_.layout.dim)
            np.testing.assert_allclose(sys_.matvec(y), H @ y, rtol=1e-12,
                                       atol=1e-9)


class TestLmStep:
    def test_gauss_newton_matches_dense_solve(self):
        prob, x0, *_ = build_ba_problem(4, sigma=0.5)
        sys_ = linearize(prob, x0)
        H_ref, g_ref = dense_reference(prob, x0)
        delta = lm_step(sys_, 0.0)
        ref = np.linalg.solve(H_ref, -g_ref)
        assert np.abs(delta - ref).max() < 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_scalar_hand_system(self):
        # J = [2], e = [4], lambda = 1, D = [2]: (4 + 4) d = -8 -> d = -1
        fake = SimpleNamespace(
            dense_hessian=lambda: np.array([[4.0]]),
            damping_scale=lambda: np.array([2.0]),
            g=np.array([8.0]))
        delta = lm_step(fake, 1.0)
        np.testing.assert_allclose(delta, [-1.0])

    def test_huge_damping_kills_step(self):
        prob, x0, *_ = build_ba_problem(5, sigma=0.5)
        sys_ = linearize(prob, x0)
        gn = lm_step(sys_, 0.0)
        tiny = lm_step(sys_, 1e12)
        assert np.linalg.norm(tiny) < 1e-8 * np.linalg.norm(gn)

    def test_negative_lambda_rejected(self):
        prob, x0, *_ = build_ba_problem(5)
        sys_ = linearize(prob, x0)
        with pytest.raises(ValueError):
            lm_step(sys_, -1.0)


class TestSchur:
    @pytest.mark.parametrize("lam", [0.0, 1e-4, 1.0])
    def test_matches_dense_over_seeds(self, lam):
        rng = np.random.default_rng(77)
        for _ in range(12):
            n_cams = int(rng.integers(2, 11))
            n_lms = int(rng.integers(8, 101))
            prob, x0, *_ = build_ba_problem(int(rng.integers(1 << 30)),
                                            n_cams=n_cams, n_lms=n_lms,
                                            sigma=0.5)
            sys_ = linearize(prob, x0)
            np.testing.assert_allclose(schur_solve(sys_, lam),
                                       lm_step(sys_, lam), atol=1e-8)

    def test_zero_coupling_reduces_to_pose_block(self):
        prob, x0, *_ = build_ba_problem(6, sigma=0.5)
        sys_ = linearize(prob, x0)
        sys_.Hpl = np.zeros_like(sys_.Hpl)
        lam = 1e-3
        delta = schur_solve(sys_, lam)
        np_ = sys_.layout.n_pose_params
        d2 = sys_.damping_scale() ** 2
        ref = np.linalg.solve(sys_.Hpp + lam * np.diag(d2[:np_]), -sys_.g[:np_])
        np.testing.assert_allclose(delta[:np_], ref, atol=1e-10)

    def test_two_cameras_one_landmark_dense(self):
        # 15-parameter system: both poses free plus one landmark; damped
        intr = CameraIntrinsics(120.0, 120.0, 0.0, 0.0)
        pa, pb = Pose(t=[-0.4, 0, 0]), Pose(t=[0.4, 0.1, 0])
        lm = np.array([[0.05, -0.1, 2.5]])
        from gradba.geometry import project
        pixels = [project(pa, intr, lm[0]) + [0.4, -0.2],
                  project(pb, intr, lm[0]) + [-0.1, 0.3]]
        state = StateVector([pa, pb], lm)
        prob = Problem(state, intr, [0, 1], [0, 0], [0, 0],
                       StaticModel([0, 1], [0, 0], pixels))
        sys_ = linearize(prob, state)
        assert sys_.layout.dim == 15
        np.testing.assert_allclose(schur_solve(sys_, 0.5), lm_step(sys_, 0.5),
                                   atol=1e-10)

    def test_singular_landmark_block_raises(self):
        prob, x0, *_ = build_ba_problem(7, n_cams=3, n_lms=8)
        sys_ = linearize(prob, x0)
        sys_.Hll[2] = 0.0
        with pytest.raises(SingularSystem):
            schur_solve(sys_, 0.0)


class TestOptimize:
    def test_noise_free_recovery(self):
        prob, x0, gt_poses, gt_lms, _ = build_ba_problem(
            8, n_cams=6, n_lms=50, sigma=0.0)
        xs, rep = optimize(prob, x0)
        est = np.array([p.t for p in xs.poses])
        ref = np.array([p.t for p in gt_poses])
        s, R, t = align(est, ref, "sim")
        ate = np.sqrt(((apply_alignment(est, s, R, t) - ref) ** 2).sum(1).mean())
        assert ate < 1e-6
        assert rep.termination == "converged_gradient"

    def test_already_optimal_stops_immediately(self):
        prob, x0, *_ = build_ba_problem(9, sigma=0.0, pose_noise=0.0,
                                        lm_noise=0.0)
        xs, rep = optimize(prob, prob.state)
        assert rep.iterations <= 1
        assert rep.termination == "converged_gradient"

    def test_energy_monotone_over_20_noisy_solves(self):
        for seed in range(20):
            prob, x0, *_ = build_ba_problem(seed, sigma=1.0,
                                            kernel=RobustKernel("huber", 2.0))
            _, rep = optimize(prob, x0)
            diffs = np.diff(rep.energies)
            assert np.all(diffs <= 0.0), f"seed {seed}: energy increased"

    def test_final_gradient_below_tolerance(self):
        settings = SolverSettings()
        for seed in (0, 5, 11):
            prob, x0, *_ = build_ba_problem(seed, sigma=0.7)
            xs, rep = optimize(prob, x0, settings=settings)
            assert rep.final_gradient_norm <= settings.gradient_tolerance

    def test_noisy_tight_solve_ends_stationary(self):
        # no noisy solve reaches a 1e-11 gradient: it ends when the energy is
        # flat to rounding and a step no longer lowers the gradient. Rounding
        # decides it: the last step, which the gradient test rejects, has
        # norm 1.196e-13, just above STEP_RESOLUTION (22 iterations)
        tight = SolverSettings(gradient_tolerance=1e-11, max_iterations=300)
        prob, x0, *_ = build_ba_problem(18, sigma=0.5, outlier_ratio=0.1,
                                        kernel=RobustKernel("huber", 2.0))
        _, rep = optimize(prob, x0, settings=tight)
        assert rep.termination == "converged_stationary"
        assert rep.final_gradient_norm <= 1e-9
        assert rep.iterations < tight.max_iterations
        assert np.all(np.diff(rep.energies) <= 0.0)

    def test_gauge_invariance(self):
        prob, x0, gt_poses, gt_lms, _ = build_ba_problem(10, sigma=0.8)
        _, rep_a = optimize(prob, x0)
        g = se3_exp(np.array([0.2, -0.1, 0.3, 1.0, -2.0, 0.5]))
        poses_t = [g.compose(p) for p in gt_poses]
        lms_t = np.array([g.apply(p) for p in gt_lms])
        state_t = StateVector(poses_t, lms_t, fixed_poses=prob.state.fixed_poses)
        # same pixel observations: the projections are invariant under a
        # global transform applied to both cameras and points
        prob_t = problem_like(prob, state=state_t, scale_prior=prob.scale_prior)
        poses0_t = [g.compose(p) for p in x0.poses]
        lms0_t = np.array([g.apply(p) for p in x0.landmarks])
        x0_t = StateVector(poses0_t, lms0_t, fixed_poses=x0.fixed_poses)
        _, rep_b = optimize(prob_t, x0_t)
        assert abs(rep_a.final_energy - rep_b.final_energy) <= \
            1e-9 * max(rep_a.final_energy, 1.0)

    def test_divergence_after_persistent_singularity(self, monkeypatch):
        prob, x0, *_ = build_ba_problem(11, n_cams=3, n_lms=8)

        def always_singular(system, lam):
            raise SingularSystem("forced")

        monkeypatch.setattr(solver_mod, "schur_solve", always_singular)
        with pytest.raises(Diverged):
            solver_mod.optimize(prob, x0)

    def test_temporal_term_evaluated_once_per_solve(self, monkeypatch):
        # the temporal term depends on theta alone, so a solve evaluates it
        # once and adds it to every trial total
        sc = scn.generate_scene(scn.SyntheticSceneConfig(
            n_cameras=6, n_landmarks=30, trajectory="orbit", pixel_sigma=0.5,
            seed=14))
        scn.attach_descriptor_field(sc, seed=16)
        scn.attach_temporal(sc, seed=17)
        prob = scn.build_problem(sc, model="descfield")
        theta = prob.theta0()
        assert all(tr.dense for tr in prob.temporal_terms.build(prob.obs_model, theta))
        x0 = StateVector([p if fixed else se3_retract(p, np.full(6, 0.004))
                          for p, fixed in zip(prob.state.poses, prob.state.fixed_poses)],
                         prob.state.landmarks + 0.01, prob.state.fixed_poses)
        evaluate = temporal.temporal_energy
        calls = []
        monkeypatch.setattr(temporal, "temporal_energy",
                            lambda *args: calls.append(args) or evaluate(*args))
        xs, rep = optimize(prob, x0, theta,
                           SolverSettings(gradient_tolerance=1e-11, max_iterations=300))
        assert len(calls) == 1
        assert rep.iterations > 2 and rep.termination.startswith("converged_")
        assert rep.final_energy == total_energy(prob, xs, theta)

    def test_one_evaluation_per_trial(self, monkeypatch):
        # theta is fixed during a solve: the predictions are made once, and
        # each trial's evaluation serves its energy and its linearization
        prob, x0, *_ = build_ba_problem(18, sigma=0.5, outlier_ratio=0.1,
                                        kernel=RobustKernel("huber", 2.0))
        calls = Counter()

        def count(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, **k: calls.update([name]) or fn(*a, **k))

        count(problem_mod, "project_factors")
        count(prob.obs_model, "observe_all")
        count(solver_mod, "total_energy")
        _, rep = solver_mod.optimize(prob, x0)
        assert rep.termination == "converged_gradient"
        # the start, then one energy test per Schur step
        assert calls["project_factors"] == calls["total_energy"] == 1 + rep.iterations
        assert calls["observe_all"] == 1
        solver_mod.optimize(prob, x0)
        assert calls["observe_all"] == 2

    def test_fixed_pose_keeps_its_bits(self):
        # DRIFTING_Q moves in its last bits under every one of six repeated
        # renormalizations; a fixed pose with it must still keep its q and t
        # bits through copies, steps and a default solve
        sc = scn.generate_scene(scn.SyntheticSceneConfig(
            n_cameras=8, n_landmarks=60, trajectory="arc", pixel_sigma=0.5, seed=0))
        gt = scn.gt_state(sc)
        anchor = Pose(DRIFTING_Q, [0.3, -0.2, 0.1])
        g = anchor.compose(gt.poses[0].inverse())
        poses = [anchor] + [g.compose(p) for p in gt.poses[1:]]
        state = StateVector(poses, [g.apply(p) for p in gt.landmarks], gt.fixed_poses)
        prob = scn.build_problem(sc, kernel=RobustKernel("huber", 2.0), state=state,
                                 track_ids=[l["id"] for l in sc["landmarks"]])
        start = state.poses[0]
        assert Pose(start.q).q.tobytes() != start.q.tobytes()
        layout = solver_mod.SystemLayout(state)
        step = apply_step(state, layout, np.full(layout.dim, 1e-3))
        xs, rep = optimize(prob, state)
        assert rep.termination.startswith("converged_") and rep.iterations > 1
        for moved in (state.copy(), step, xs):
            assert moved.poses[0].q.tobytes() == start.q.tobytes()
            assert moved.poses[0].t.tobytes() == start.t.tobytes()

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(lambda_up=1.0)
        with pytest.raises(ValueError):
            SolverSettings(gradient_tolerance=0.0)


class TestExactHessian:
    def test_matches_fd_of_gradient(self):
        for kernel in (None, RobustKernel("huber", 1.0)):
            prob, x0, *_ = build_ba_problem(12, n_cams=3, n_lms=10, sigma=1.0,
                                            kernel=kernel)
            sys_ = linearize(prob, x0)
            hsys = exact_hessian_system(prob, x0, sys_)
            Ha = hsys.dense_hessian()
            lay = sys_.layout
            h = 1e-6
            Hf = np.zeros((lay.dim, lay.dim))
            for k in range(lay.dim):
                d = np.zeros(lay.dim)
                d[k] = h
                gp = linearize(prob, apply_step(x0, lay, d), prob.theta0()).g
                gm = linearize(prob, apply_step(x0, lay, -d), prob.theta0()).g
                Hf[:, k] = (gp - gm) / (2 * h)
            Hf = 0.5 * (Hf + Hf.T)
            assert np.abs(Ha - Hf).max() / np.abs(Hf).max() < 1e-6
