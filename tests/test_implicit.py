import dataclasses

import numpy as np
import pytest

from gradba import scene as scn
from gradba.errors import NonUniqueAlignment, NotAtOptimum
from gradba.geometry import CameraIntrinsics, Pose, project, projection_jacobians
from gradba.implicit import (ImplicitGradRequest, PoseErrorLoss, fd_gradient,
                             implicit_gradient, max_rel_error,
                             unrolled_gradient_oracle)
from gradba.problem import Problem, StateVector, TrackBiasModel
from gradba.solver import SolverSettings, SystemLayout, linearize, optimize

from conftest import build_ba_problem, problem_like
from loop_reference import LandmarkTargetLoss, fd_tangent_gradient, optimality_residual

TIGHT = SolverSettings(gradient_tolerance=1e-11, max_iterations=300)


def solve_and_grad(problem, x0, loss, theta=None, mode="exact"):
    theta = problem.theta0() if theta is None else theta
    xs, rep = optimize(problem, x0, theta, TIGHT)
    sys_ = linearize(problem, xs, theta)
    dldx = loss.grad_tangent(xs, sys_.layout)
    req = ImplicitGradRequest(problem, xs, theta, dldx, 1e-7,
                              linearization=sys_, hessian_mode=mode)
    return xs, implicit_gradient(req)


class TestOptimalityResidual:
    def test_zero_at_noise_free_truth(self):
        prob, *_ = build_ba_problem(0, sigma=0.0)
        assert optimality_residual(prob, prob.state) < 1e-12

    def test_bounded_after_solve(self):
        prob, x0, *_ = build_ba_problem(1, sigma=0.6)
        settings = SolverSettings()
        xs, rep = optimize(prob, x0, settings=settings)
        assert optimality_residual(prob, xs) <= settings.gradient_tolerance

    def test_perturbation_increases_residual(self):
        prob, x0, *_ = build_ba_problem(2, sigma=0.6)
        xs, _ = optimize(prob, x0, settings=TIGHT)
        base = optimality_residual(prob, xs)
        bumped = xs.copy()
        bumped.landmarks[3] = bumped.landmarks[3] + np.array([0.1, 0.0, 0.0])
        assert optimality_residual(prob, bumped) > base * 100


def closed_form_problem():
    intr = CameraIntrinsics(300.0, 300.0, 0.0, 0.0)
    pose0, pose1 = Pose(t=[-0.5, 0, 0]), Pose(t=[0.5, 0, 0])
    lm = np.array([[0.1, 0.2, 3.0]])
    pixels = [project(pose0, intr, lm[0]), project(pose1, intr, lm[0])]
    state = StateVector([pose0, pose1], lm, fixed_poses=[True, True])
    model = TrackBiasModel([0, 1], [7, 7], pixels, [7])
    return Problem(state, intr, [0, 1], [7, 7], [0, 0], model), state


class TestPoseErrorLoss:
    # fixed before the analytic gradient was written
    FD_RTOL = 1e-6

    @pytest.mark.parametrize("trajectory", ["orbit", "arc"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_analytic_gradient_matches_fd(self, trajectory, seed):
        sc = scn.generate_scene(scn.SyntheticSceneConfig(
            n_cameras=7, n_landmarks=30, trajectory=trajectory,
            pixel_sigma=0.5, seed=seed))
        prob = scn.build_problem(sc, model="trackbias")
        xs, _ = optimize(prob, prob.state, prob.theta0(), TIGHT)
        assert xs.fixed_poses[0] and not xs.fixed_poses[1:].any()
        loss = PoseErrorLoss(scn.gt_poses(sc))
        layout = SystemLayout(xs)
        g = loss.grad_tangent(xs, layout)
        assert max_rel_error(g, fd_tangent_gradient(loss.value, xs, layout)) < self.FD_RTOL
        assert not g[layout.n_pose_params:].any()
        assert np.abs(g).max() > 0

    def test_collinear_centres_have_no_unique_alignment(self):
        poses = [Pose(t=[0.3 * k, 0.0, 0.0]) for k in range(5)]
        state = StateVector(poses, np.zeros((1, 3)),
                            fixed_poses=[True] + [False] * 4)
        # estimated centres off the line: the collinear reference alone
        # leaves the rotation about it free
        est = [Pose(p.q, p.t + [0.0, 0.01 * k * k, 0.0]) for k, p in enumerate(poses)]
        loss = PoseErrorLoss(poses)
        for st in (state, StateVector(est, np.zeros((1, 3)))):
            with pytest.raises(NonUniqueAlignment) as info:
                loss.value(st)
            assert info.value.stage == "implicit"
            with pytest.raises(NonUniqueAlignment):
                loss.grad_tangent(st, SystemLayout(st))


class TestImplicitGradient:
    def test_closed_form_small_system(self):
        # two fixed cameras, one free landmark, bias theta on the track:
        # dX*/dtheta = (J^T J)^-1 J^T dp/dtheta evaluated at the optimum
        prob, state = closed_form_problem()
        target = np.array([0.0, 0.0, 3.1])
        loss = LandmarkTargetLoss(0, target)
        xs, rep = solve_and_grad(prob, state, loss)
        _, J0 = projection_jacobians(prob.state.poses[0], prob.intrinsics,
                                     xs.landmarks[0])
        _, J1 = projection_jacobians(prob.state.poses[1], prob.intrinsics,
                                     xs.landmarks[0])
        J = np.vstack([J0, J1])
        dp = np.vstack([np.eye(2), np.eye(2)])
        hand = (2.0 * (xs.landmarks[0] - target)) @ np.linalg.solve(J.T @ J,
                                                                    J.T @ dp)
        assert max_rel_error(rep.dldtheta, hand) < 1e-6

    def test_unread_theta_entries_are_zero(self):
        prob, x0, gt_poses, *_ = build_ba_problem(3, n_cams=4, n_lms=10,
                                                  sigma=0.4)
        # a bias model with one extra track no factor reads
        m = prob.obs_model
        model = TrackBiasModel(m.frames, m.tracks, m.pixels, list(range(10)) + [99])
        prob2 = problem_like(prob, obs_model=model, scale_prior=prob.scale_prior)
        loss = PoseErrorLoss(gt_poses)
        xs, rep = solve_and_grad(prob2, x0, loss)
        np.testing.assert_array_equal(rep.dldtheta[-2:], [0.0, 0.0])

    def test_zero_dim_theta(self):
        prob, x0, gt_poses, *_ = build_ba_problem(4, model="static", sigma=0.4)
        loss = PoseErrorLoss(gt_poses)
        xs, rep = solve_and_grad(prob, x0, loss)
        assert rep.dldtheta.shape == (0,)
        g = unrolled_gradient_oracle(prob, xs, prob.theta0(), TIGHT, loss)
        assert g.shape == (0,)

    def test_matches_fd_and_unrolled(self):
        for seed in range(4):
            prob, x0, gt_poses, *_ = build_ba_problem(seed, sigma=0.5)
            loss = PoseErrorLoss(gt_poses)
            theta = prob.theta0()
            xs, rep = solve_and_grad(prob, x0, loss)
            gfd = fd_gradient(prob, xs, theta, TIGHT, loss, h=1e-5)
            guo = unrolled_gradient_oracle(prob, xs, theta, TIGHT, loss)
            assert max_rel_error(rep.dldtheta, gfd) < 1e-4
            assert max_rel_error(rep.dldtheta, guo) < 1e-3

    def test_near_quadratic_problem_tight_agreement(self):
        # consistent observations: zero residuals at the optimum, the solve
        # is a single Gauss-Newton step and both gradients are essentially
        # exact
        prob, state = closed_form_problem()
        loss = LandmarkTargetLoss(0, [0.05, 0.1, 2.9])
        theta = prob.theta0()
        xs, rep = solve_and_grad(prob, state, loss)
        # the map is quadratic to rounding here, so a wider step only
        # suppresses roundoff without adding truncation error
        guo = unrolled_gradient_oracle(prob, xs, theta, TIGHT, loss, h=1e-4,
                                       n_iters=3)
        assert max_rel_error(rep.dldtheta, guo) < 1e-10

    def test_adjoint_solve_residual_small(self):
        prob, x0, gt_poses, *_ = build_ba_problem(5, sigma=0.5)
        loss = PoseErrorLoss(gt_poses)
        _, rep = solve_and_grad(prob, x0, loss)
        assert rep.solve_residual < 1e-8

    def test_hessian_condition_reported(self):
        prob, x0, gt_poses, *_ = build_ba_problem(6, sigma=0.5)
        _, rep = solve_and_grad(prob, x0, PoseErrorLoss(gt_poses))
        assert np.isfinite(rep.hessian_condition)
        assert rep.hessian_condition >= 1.0

    def test_rejects_non_optimal_state(self):
        prob, x0, gt_poses, *_ = build_ba_problem(7, sigma=0.5)
        sys_ = linearize(prob, x0, prob.theta0())
        req = ImplicitGradRequest(prob, x0, prob.theta0(),
                                  np.zeros(sys_.layout.dim), 1e-8, sys_)
        with pytest.raises(NotAtOptimum):
            implicit_gradient(req)

    def test_gauss_newton_mode_exists(self):
        # at a zero-residual optimum the two Hessian modes coincide
        prob, state = closed_form_problem()
        loss = LandmarkTargetLoss(0, [0.0, 0.0, 3.1])
        _, rep_exact = solve_and_grad(prob, state, loss, mode="exact")
        _, rep_gn = solve_and_grad(prob, state, loss, mode="gauss_newton")
        assert max_rel_error(rep_exact.dldtheta, rep_gn.dldtheta) < 1e-10

    def test_request_consumes_only_final_state(self):
        # memory contract: the request carries the converged state, never a
        # solver iterate history
        names = {f.name for f in dataclasses.fields(ImplicitGradRequest)}
        assert names == {"problem", "state", "theta", "dldx",
                         "gradient_tolerance", "linearization", "hessian_mode"}
        assert not any("histor" in n or "iterate" in n or "trajectory" in n
                       for n in names)


class TestWeightedCovariances:
    def test_fd_agreement_with_anisotropic_covariances_and_huber(self):
        # the mixed-Hessian chain with W = IRLS weight * Sigma^-1 must track
        # the oracle when covariances vary per factor and the kernel is robust
        from gradba.problem import RobustKernel
        rng = np.random.default_rng(77)
        prob, x0, gt_poses, *_ = build_ba_problem(14, sigma=0.5)
        covs = [A @ A.T + 0.3 * np.eye(2)
                for A in rng.normal(size=(len(prob.frame_idx), 2, 2))]
        prob2 = problem_like(prob, covs=covs, kernel=RobustKernel("huber", 3.0),
                             scale_prior=prob.scale_prior)
        loss = PoseErrorLoss(gt_poses)
        theta = prob2.theta0()
        xs, rep = solve_and_grad(prob2, x0, loss)
        gfd = fd_gradient(prob2, xs, theta, TIGHT, loss, h=1e-5)
        assert max_rel_error(rep.dldtheta, gfd) < 1e-4

    def test_fd_agreement_with_huber_outliers_at_the_optimum(self):
        # factors left on the Huber outlier branch at the optimum bring the
        # rho'' terms into both the Hessian and the mixed term
        from gradba.problem import RobustKernel
        prob, x0, gt_poses, *_ = build_ba_problem(
            18, sigma=0.5, kernel=RobustKernel("huber", 2.0), outlier_ratio=0.1)
        loss = PoseErrorLoss(gt_poses)
        theta = prob.theta0()
        xs, rep = solve_and_grad(prob, x0, loss)
        assert (linearize(prob, xs, theta).rec_curvature < 0).sum() >= 5
        idx = np.sort(np.argsort(np.abs(rep.dldtheta))[-8:])
        gfd = fd_gradient(prob, xs, theta, TIGHT, loss, h=1e-5, indices=idx)
        assert max_rel_error(rep.dldtheta[idx], gfd) < 1e-4

    def test_huber_outlier_stall_reaches_the_implicit_tolerance(self):
        # IRLS on Huber outliers converges linearly here, with energy gains
        # far below the start energy's scale; the solve must still reach a
        # state that implicit_gradient accepts
        from gradba.problem import RobustKernel
        prob, x0, gt_poses, *_ = build_ba_problem(
            16, sigma=0.5, kernel=RobustKernel("huber", 2.0), outlier_ratio=0.1)
        xs, rep = solve_and_grad(prob, x0, PoseErrorLoss(gt_poses))
        assert optimality_residual(prob, xs) <= 1e-7
        assert np.all(np.isfinite(rep.dldtheta))

    def test_energy_scales_with_information(self):
        from gradba.problem import total_energy
        prob, x0, *_ = build_ba_problem(15, sigma=0.8)
        prob2 = problem_like(prob, covs=np.tile(4.0 * np.eye(2), (len(prob.frame_idx), 1, 1)))
        prob1 = problem_like(prob)
        e1 = total_energy(prob1, x0)
        e2 = total_energy(prob2, x0)
        assert e2 == pytest.approx(e1 / 4.0, rel=1e-12)


class TestWithTemporalTerms:
    def _attach(self, prob, seed, beta=0.0):
        from gradba.problem import TemporalAttachment
        from gradba.temporal import TemporalEnergy, TrackPair, Transition, build_dense_item
        rng = np.random.default_rng(seed)
        transitions = []
        for frame in (1, 2):
            pairs, dense = [], []
            for k, t in enumerate((0, 1, 2)):
                pixel = prob.obs_model.observe(frame, t, prob.theta0())
                long = pixel + rng.normal(scale=0.3, size=2)
                pairs.append(TrackPair(pixel, long))
                if beta:
                    grid = rng.normal(size=(9, 9, 4)) * 0.3
                    dense.append(build_dense_item(k, grid, long - np.array([4.0, 4.0]), long))
            transitions.append(Transition(pairs, dense))
        return TemporalAttachment(TemporalEnergy(alpha=1.0, beta=beta, lambda_t=0.2),
                                  transitions, [1, 1, 1, 2, 2, 2], [0, 1, 2] * 2)

    def test_fd_agreement_with_temporal_terms(self):
        prob, x0, gt_poses, *_ = build_ba_problem(8, sigma=0.4)
        prob2 = problem_like(prob, temporal_terms=self._attach(prob, 8),
                             scale_prior=prob.scale_prior)
        loss = PoseErrorLoss(gt_poses)
        theta = prob2.theta0()
        xs, rep = solve_and_grad(prob2, x0, loss)
        gfd = fd_gradient(prob2, xs, theta, TIGHT, loss, h=1e-5)
        assert max_rel_error(rep.dldtheta, gfd) < 1e-4

    def test_fd_agreement_with_dense_temporal_terms(self):
        prob, x0, gt_poses, *_ = build_ba_problem(9, sigma=0.4)
        prob2 = problem_like(prob, temporal_terms=self._attach(prob, 9, beta=1.0),
                             scale_prior=prob.scale_prior)
        loss = PoseErrorLoss(gt_poses)
        theta = prob2.theta0()
        xs, rep = solve_and_grad(prob2, x0, loss)
        gfd = fd_gradient(prob2, xs, theta, TIGHT, loss, h=1e-5)
        assert max_rel_error(rep.dldtheta, gfd) < 1e-4

    def test_theta_gradient_of_temporal_energy(self):
        # the direct d(lambda * sum Phi)/d theta path matches FD of the
        # temporal part of the total energy
        from gradba.problem import temporal_theta_gradient, total_energy
        prob, x0, *_ = build_ba_problem(10, sigma=0.4)
        prob2 = problem_like(prob, temporal_terms=self._attach(prob, 10, beta=1.0),
                             scale_prior=prob.scale_prior)
        theta = prob2.theta0()
        g = temporal_theta_gradient(prob2, theta)
        h = 1e-6
        rng = np.random.default_rng(0)
        for k in rng.choice(theta.size, size=6, replace=False):
            d = np.zeros_like(theta)
            d[k] = h
            # only the temporal term depends on theta through the model here,
            # so difference the full energies at a fixed state
            vp = total_energy(prob2, x0, theta + d)
            vm = total_energy(prob2, x0, theta - d)
            base_p = total_energy(prob, x0, theta + d)
            base_m = total_energy(prob, x0, theta - d)
            fd = ((vp - base_p) - (vm - base_m)) / (2 * h)
            assert abs(g[k] - fd) < 1e-5 * max(np.abs(g).max(), 1.0)


class TestDescriptorFieldImplicit:
    def test_matches_fd_on_subset(self):
        from gradba.scene import (SyntheticSceneConfig, attach_descriptor_field,
                                  build_problem, generate_scene, gt_poses)
        scene = generate_scene(SyntheticSceneConfig(
            n_cameras=5, n_landmarks=20, trajectory="orbit", pixel_sigma=0.5,
            seed=31))
        attach_descriptor_field(scene, grid_shape=(5, 5, 4), seed=2)
        prob = build_problem(scene, model="descfield")
        theta = prob.theta0()
        xs, rep = optimize(prob, prob.state, theta, TIGHT)
        loss = PoseErrorLoss(gt_poses(scene))
        sys_ = linearize(prob, xs, theta)
        grad = implicit_gradient(ImplicitGradRequest(
            prob, xs, theta, loss.grad_tangent(xs, sys_.layout), 1e-7, sys_))
        rng = np.random.default_rng(3)
        idx = np.sort(rng.choice(theta.size, size=16, replace=False))
        gfd = np.zeros(len(idx))
        for n, k in enumerate(idx):
            d = np.zeros_like(theta)
            d[k] = 1e-5
            xp, _ = optimize(prob, xs, theta + d, TIGHT)
            xm, _ = optimize(prob, xs, theta - d, TIGHT)
            gfd[n] = (loss.value(xp) - loss.value(xm)) / 2e-5
        assert max_rel_error(grad.dldtheta[idx], gfd) < 1e-4
