import numpy as np
import pytest

from gradba.geometry import CameraIntrinsics, Pose, project
from gradba.problem import (DescriptorFieldModel, Problem, RobustKernel,
                            ScalePrior, StateVector, StaticModel,
                            TrackBiasModel, robust_terms, total_energy)
from gradba.solver import linearize

from gradba.scene import SyntheticSceneConfig, build_problem, generate_scene

from conftest import build_ba_problem, problem_like
from loop_reference import loop_observe, residual


def two_view_problem(pixels, kernel=None):
    """Frames 0 and 1 each seeing track 0 (landmark 0) at ``pixels``."""
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    poses = [Pose(t=[-0.5, 0, 0]), Pose(t=[0.5, 0, 0])]
    state = StateVector(poses, np.array([[0.0, 0.0, 2.0]]), fixed_poses=[True, True])
    frames, tracks = [0, 1], [0, 0]
    return Problem(state, intr, frames, tracks, tracks,
                   StaticModel(frames, tracks, pixels), kernel=kernel), state


class TestResidual:
    def test_exact_observation_is_zero(self):
        intr = CameraIntrinsics(100.0, 100.0, 10.0, 20.0)
        pose = Pose(t=[0.2, -0.1, 0.0])
        lm = np.array([[0.3, 0.2, 4.0]])
        pixels = [project(pose, intr, lm[0]), project(pose, intr, lm[0])]
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        prob = Problem(state, intr, [0, 1], [0, 0], [0, 0],
                       StaticModel([0, 1], [0, 0], pixels))
        e = residual(prob, 0, state, prob.theta0())
        np.testing.assert_allclose(e, [0.0, 0.0], atol=1e-12)

    def test_static_subtraction(self):
        # stored pixel (10, 10), projection (8, 9) -> (2, 1)
        intr = CameraIntrinsics(8.0, 9.0, 0.0, 0.0)
        pose = Pose()
        lm = np.array([[1.0, 1.0, 1.0]])  # projects to (8, 9)
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        model = StaticModel([0, 1], [5, 5], [[10.0, 10.0], [10.0, 10.0]])
        prob = Problem(state, intr, [0, 1], [5, 5], [0, 0], model)
        e = residual(prob, 0, state, prob.theta0())
        np.testing.assert_allclose(e, [2.0, 1.0])

    def test_trackbias_shifts_residual(self):
        intr = CameraIntrinsics(8.0, 9.0, 0.0, 0.0)
        pose = Pose()
        lm = np.array([[1.0, 1.0, 1.0]])
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        model = TrackBiasModel([0, 1], [5, 5], [[10.0, 10.0], [10.0, 10.0]], [5])
        prob = Problem(state, intr, [0, 1], [5, 5], [0, 0], model)
        theta = np.array([1.0, 0.0])
        e = residual(prob, 0, state, theta)
        np.testing.assert_allclose(e, [3.0, 1.0])


class TestRobustKernel:
    def test_inlier_branch(self):
        assert robust_terms(0.25, 1.0) == (0.25, 1.0, 0.0)

    def test_outlier_branch(self):
        assert robust_terms(4.0, 1.0)[1] == pytest.approx(0.5)

    def test_none_kernel(self):
        # kind "none" and no kernel at all both give the quadratic cost
        for kernel in (RobustKernel("none"), None):
            prob, _ = two_view_problem([[0.0, 0.0], [0.0, 0.0]], kernel=kernel)
            rho, weight, curvature = robust_terms(np.full(2, 123.0),
                                                  prob.huber_delta)
            assert rho.tolist() == [123.0, 123.0]
            assert weight.tolist() == [1.0, 1.0]
            assert curvature.tolist() == [0.0, 0.0]

    def test_nan_takes_quadratic_branch(self):
        rho, weight, curvature = robust_terms(np.array([np.nan]), np.array([1.0]))
        assert np.isnan(rho[0]) and weight[0] == 1.0 and curvature[0] == 0.0

    def test_weight_continuous_at_threshold(self):
        lo = robust_terms(1.5 ** 2 - 1e-9, 1.5)[1]
        hi = robust_terms(1.5 ** 2 + 1e-9, 1.5)[1]
        assert abs(lo - hi) < 1e-6

    def test_rho_continuous_at_threshold(self):
        assert abs(robust_terms(4.0 - 1e-9, 2.0)[0]
                   - robust_terms(4.0 + 1e-9, 2.0)[0]) < 1e-6

    def test_derivatives_match_central_differences(self):
        # both branches and the quadratic cost, away from s = delta^2
        s = np.array([0.3, 2.0, 5.0, 40.0, 900.0, 7.0])
        delta = np.array([1.0, 2.0, 2.0, 2.0, 3.0, np.inf])
        h = 1e-5 * s
        rho_p, w_p, _ = robust_terms(s + h, delta)
        rho_m, w_m, _ = robust_terms(s - h, delta)
        _, weight, curvature = robust_terms(s, delta)
        np.testing.assert_allclose(weight, (rho_p - rho_m) / (2 * h), rtol=1e-7)
        np.testing.assert_allclose(curvature, (w_p - w_m) / (2 * h), rtol=1e-6,
                                   atol=1e-12)
        assert (curvature < 0).tolist() == [False, False, True, True, True, False]

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            RobustKernel("huber", 0.0)


class TestTotalEnergy:
    def _problem_with_offsets(self, offsets, kernel=None):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        pose = Pose()
        n = len(offsets)
        lms = np.tile([0.0, 0.0, 1.0], (n, 1))
        state = StateVector([pose, pose.copy()], lms, fixed_poses=[True, True])
        pixels = []
        for j, off in enumerate(offsets):
            base = project(pose, intr, lms[j])
            pixels += [base + np.asarray(off, dtype=float), base]
        frames = np.tile([0, 1], n)
        tracks = np.repeat(np.arange(n), 2)
        return Problem(state, intr, frames, tracks, tracks,
                       StaticModel(frames, tracks, pixels), kernel=kernel)

    def test_zero_residuals(self):
        prob = self._problem_with_offsets([(0.0, 0.0)])
        assert total_energy(prob, prob.state) == 0.0

    def test_single_unit_residual(self):
        prob = self._problem_with_offsets([(1.0, 0.0)])
        assert total_energy(prob, prob.state) == pytest.approx(1.0, abs=1e-12)

    def test_huber_formula(self):
        # ||e|| = 2, delta = 1 -> 2 * 1 * 2 - 1 = 3
        prob = self._problem_with_offsets([(2.0, 0.0)],
                                          kernel=RobustKernel("huber", 1.0))
        assert total_energy(prob, prob.state) == pytest.approx(3.0, abs=1e-12)

    def test_reorder_invariance(self):
        prob, x0, *_ = build_ba_problem(3, sigma=1.0)
        e1 = total_energy(prob, x0)
        prob2 = problem_like(prob, slice(None, None, -1), scale_prior=prob.scale_prior)
        e2 = total_energy(prob2, x0)
        assert abs(e1 - e2) <= 1e-12 * max(abs(e1), 1.0)

    def test_matches_naive_double_sum(self):
        prob, x0, *_ = build_ba_problem(4, sigma=1.0, kernel=None)
        theta = prob.theta0()
        naive = 0.0
        for k, info in enumerate(prob.info_stack):
            e = residual(prob, k, x0, theta)
            naive += float(e @ info @ e)
        naive += prob.scale_prior.weight * prob.scale_prior.residual(x0) ** 2
        assert total_energy(prob, x0, theta) == pytest.approx(naive, rel=1e-12)

    def test_cheirality_soft_deactivation(self):
        prob = self._problem_with_offsets([(0.0, 0.0)])
        state = prob.state.copy()
        state.landmarks[0] = np.array([0.0, 0.0, -1.0])  # behind both views
        assert total_energy(prob, state) == 0.0
        sys_ = linearize(prob, state)
        assert sys_.inactive_count == 2


class TestObservationModels:
    def test_static_jacobian_empty(self):
        m = StaticModel([0], [0], [[1.0, 2.0]])
        assert m.observe_jacobian(0, 0, m.theta0()).shape == (2, 0)
        assert m.theta_dim == 0

    def _fd_jacobian(self, model, frame, track, theta, h=1e-6):
        J = np.zeros((2, model.theta_dim))
        for k in range(model.theta_dim):
            d = np.zeros_like(theta)
            d[k] = h
            J[:, k] = (model.observe(frame, track, theta + d)
                       - model.observe(frame, track, theta - d)) / (2 * h)
        return J

    def test_trackbias_jacobian_fd(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = TrackBiasModel(np.zeros(n), np.arange(n), rng.normal(size=(n, 2)),
                               list(range(n)))
            theta = rng.normal(size=m.theta_dim)
            t = int(rng.integers(n))
            J = m.observe_jacobian(0, t, theta)
            Jf = self._fd_jacobian(m, 0, t, theta)
            assert np.abs(J - Jf).max() < 1e-6

    def test_descfield_jacobian_fd(self, rng):
        for trial in range(100):
            r = np.random.default_rng(500 + trial)
            tracks = [0, 1]
            grids = r.normal(size=(2, 4, 4, 3)) * 0.4
            refs = r.normal(size=(2, 3))
            origins = r.normal(size=(2, 2)) * 5
            m = DescriptorFieldModel([0, 0], tracks, origins, tracks, grids, refs)
            theta = m.theta0() + 0.01 * r.normal(size=m.theta_dim)
            t = int(r.integers(2))
            J = m.observe_jacobian(0, t, theta)
            Jf = self._fd_jacobian(m, 0, t, theta)
            denom = max(np.abs(Jf).max(), np.abs(J).max(), 1e-9)
            assert np.abs(J - Jf).max() / denom < 1e-6

    def test_descfield_observe_all_matches_observe(self, rng):
        r = np.random.default_rng(9)
        tracks = [3, 4]
        grids = r.normal(size=(2, 4, 4, 3))
        refs = r.normal(size=(2, 3))
        origins = r.normal(size=(4, 2))
        m = DescriptorFieldModel([0, 0, 1, 1], tracks * 2, origins, tracks, grids, refs)
        theta = m.theta0()
        frames = np.array([0, 0, 1, 1])
        trs = [3, 4, 3, 4]
        stacked = m.observe_all(frames, trs, theta)
        for k, (f, t) in enumerate(zip(frames, trs)):
            np.testing.assert_allclose(stacked[k], loop_observe(m, f, t, theta),
                                       rtol=1e-12)
            assert np.array_equal(m.observe(f, t, theta), stacked[k])

    def test_descfield_rejects_grids_of_two_shapes(self):
        grids = [np.zeros((4, 4, 3)), np.zeros((4, 5, 3))]
        with pytest.raises(ValueError, match="one H x W x C grid shape"):
            DescriptorFieldModel([0, 0], [0, 1], np.zeros((2, 2)), [0, 1], grids,
                                 np.ones((2, 3)))


class TestScalePrior:
    def test_jacobian_matches_fd(self, rng):
        from gradba.geometry import se3_retract
        from loop_reference import se3_exp
        for _ in range(20):
            pa = se3_exp(rng.normal(scale=0.5, size=6))
            pb = se3_exp(rng.normal(scale=0.5, size=6))
            state = StateVector([pa, pb], np.zeros((0, 3)))
            sp = ScalePrior(0, 1, 0.7)
            Ji, Jj = sp.jacobians(state)
            h = 1e-7
            for k in range(6):
                d = np.zeros(6)
                d[k] = h
                sp_state = StateVector([se3_retract(pa, d), pb], np.zeros((0, 3)))
                sm_state = StateVector([se3_retract(pa, -d), pb], np.zeros((0, 3)))
                fd = (sp.residual(sp_state) - sp.residual(sm_state)) / (2 * h)
                assert abs(Ji[0, k] - fd) < 1e-6
                sp_state = StateVector([pa, se3_retract(pb, d)], np.zeros((0, 3)))
                sm_state = StateVector([pa, se3_retract(pb, -d)], np.zeros((0, 3)))
                fd = (sp.residual(sp_state) - sp.residual(sm_state)) / (2 * h)
                assert abs(Jj[0, k] - fd) < 1e-6


class TestValidation:
    def test_single_frame_free_track_rejected(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        state = StateVector([Pose(), Pose(t=[1, 0, 0])],
                            np.array([[0.0, 0.0, 2.0]]),
                            fixed_poses=[True, True])
        with pytest.raises(ValueError, match="fewer than 2 frames"):
            Problem(state, intr, [0], [0], [0], StaticModel([0], [0], [[0.0, 0.0]]))

    def test_covariance_must_be_spd(self):
        prob, _ = two_view_problem([[0.0, 0.0], [0.0, 0.0]])
        for cov, match in (([[1.0, 0.0], [0.0, -1.0]], "positive definite"),
                           ([[1.0, 0.5], [0.0, 1.0]], "symmetric")):
            with pytest.raises(ValueError, match=match):
                problem_like(prob, covs=[np.eye(2), cov])
        with pytest.raises(ValueError, match="symmetric"):
            problem_like(prob, covs=[np.eye(2)])  # one covariance for two factors

    def test_bad_indices(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        state = StateVector([Pose(), Pose()], np.array([[0.0, 0.0, 2.0]]),
                            fixed_poses=[True, True])
        with pytest.raises(ValueError, match="out of range: 5, 0"):
            Problem(state, intr, [5, 1], [0, 0], [0, 0],
                    StaticModel([5, 1], [0, 0], [[0, 0], [0, 0]]))

    def test_first_short_track_named(self):
        # tracks 4 and 2 each have one view; track 4 comes first
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        state = StateVector([Pose(), Pose(t=[1, 0, 0])], np.tile([0.0, 0.0, 2.0], (3, 1)),
                            fixed_poses=[True, True])
        frames, tracks, lms = [0, 0, 1, 1], [9, 4, 9, 2], [0, 1, 0, 2]
        model = StaticModel(frames, tracks, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="track 4 observed"):
            Problem(state, intr, frames, tracks, lms, model)
        # a held-fixed landmark may be seen once
        fixed = StateVector(state.poses, state.landmarks, [True, True], [False, True, True])
        Problem(fixed, intr, frames, tracks, lms, model)

    def test_repeated_observation_key_rejected(self):
        frames, tracks = [0, 1, 0], [7, 7, 7]
        pixels = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        for make in (lambda: StaticModel(frames, tracks, pixels),
                     lambda: TrackBiasModel(frames, tracks, pixels, [7]),
                     lambda: DescriptorFieldModel(frames, tracks, pixels, [7],
                                                  np.zeros((1, 2, 2, 1)), np.ones((1, 1)))):
            with pytest.raises(ValueError, match=r"\(0, 7\) is repeated"):
                make()

    def test_build_problem_rejects_a_repeated_observation(self):
        # both factors of a repeated key would read the later pixel
        scene = generate_scene(SyntheticSceneConfig(n_cameras=6, trajectory="arc", seed=3))
        first = scene["observations"][0]
        scene["observations"].append(dict(first, u=first["u"] + 50.0))
        with pytest.raises(ValueError, match="is repeated"):
            build_problem(scene)
