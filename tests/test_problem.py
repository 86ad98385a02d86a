import numpy as np
import pytest

from gradba.geometry import CameraIntrinsics, Pose, project
from gradba.problem import (DescriptorFieldModel, Problem, ReprojectionFactor,
                            RobustKernel, ScalePrior, StateVector, StaticModel,
                            TrackBiasModel, residual, robust_terms, total_energy)
from gradba.solver import linearize

from conftest import build_ba_problem


def two_view_problem(pixels_by_key, lm=((0.0, 0.0, 2.0),), kernel=None,
                     model_cls=StaticModel, intr=None):
    intr = intr or CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    poses = [Pose(t=[-0.5, 0, 0]), Pose(t=[0.5, 0, 0])]
    state = StateVector(poses, np.array(lm), fixed_poses=[True, True])
    factors = [ReprojectionFactor(f, t, 0, kernel=kernel)
               for (f, t) in pixels_by_key]
    model = model_cls(pixels_by_key) if model_cls is StaticModel else None
    return Problem(state, intr, factors, model), state


class TestResidual:
    def test_exact_observation_is_zero(self):
        intr = CameraIntrinsics(100.0, 100.0, 10.0, 20.0)
        pose = Pose(t=[0.2, -0.1, 0.0])
        lm = np.array([[0.3, 0.2, 4.0]])
        obs = {(0, 0): project(pose, intr, lm[0]), (1, 0): project(pose, intr, lm[0])}
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        factors = [ReprojectionFactor(0, 0, 0), ReprojectionFactor(1, 0, 0)]
        prob = Problem(state, intr, factors, StaticModel(obs))
        e = residual(factors[0], state, intr, prob.obs_model, prob.theta0())
        np.testing.assert_allclose(e, [0.0, 0.0], atol=1e-12)

    def test_static_subtraction(self):
        # stored pixel (10, 10), projection (8, 9) -> (2, 1)
        intr = CameraIntrinsics(8.0, 9.0, 0.0, 0.0)
        pose = Pose()
        lm = np.array([[1.0, 1.0, 1.0]])  # projects to (8, 9)
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        factors = [ReprojectionFactor(0, 5, 0), ReprojectionFactor(1, 5, 0)]
        model = StaticModel({(0, 5): [10.0, 10.0], (1, 5): [10.0, 10.0]})
        prob = Problem(state, intr, factors, model)
        e = residual(factors[0], state, intr, model, prob.theta0())
        np.testing.assert_allclose(e, [2.0, 1.0])

    def test_trackbias_shifts_residual(self):
        intr = CameraIntrinsics(8.0, 9.0, 0.0, 0.0)
        pose = Pose()
        lm = np.array([[1.0, 1.0, 1.0]])
        state = StateVector([pose, pose.copy()], lm, fixed_poses=[True, True])
        factors = [ReprojectionFactor(0, 5, 0), ReprojectionFactor(1, 5, 0)]
        model = TrackBiasModel({(0, 5): [10.0, 10.0], (1, 5): [10.0, 10.0]}, [5])
        Problem(state, intr, factors, model)
        theta = np.array([1.0, 0.0])
        e = residual(factors[0], state, intr, model, theta)
        np.testing.assert_allclose(e, [3.0, 1.0])


class TestRobustKernel:
    def test_inlier_branch(self):
        assert robust_terms(0.25, 1.0) == (0.25, 1.0, 0.0)

    def test_outlier_branch(self):
        assert robust_terms(4.0, 1.0)[1] == pytest.approx(0.5)

    def test_none_kernel(self):
        # kind "none" and no kernel at all both give the quadratic cost
        for kernel in (RobustKernel("none"), None):
            prob, _ = two_view_problem({(0, 0): [0.0, 0.0], (1, 0): [0.0, 0.0]},
                                       kernel=kernel)
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
        obs = {}
        factors = []
        for j, off in enumerate(offsets):
            base = project(pose, intr, lms[j])
            obs[(0, j)] = base + np.asarray(off, dtype=float)
            obs[(1, j)] = base
            factors.append(ReprojectionFactor(0, j, j, kernel=kernel))
            factors.append(ReprojectionFactor(1, j, j, kernel=kernel))
        return Problem(state, intr, factors, StaticModel(obs))

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
        factors = list(prob.factors)[::-1]
        prob2 = Problem(prob.state, prob.intrinsics, factors, prob.obs_model,
                        scale_prior=prob.scale_prior)
        e2 = total_energy(prob2, x0)
        assert abs(e1 - e2) <= 1e-12 * max(abs(e1), 1.0)

    def test_matches_naive_double_sum(self):
        prob, x0, *_ = build_ba_problem(4, sigma=1.0, kernel=None)
        theta = prob.theta0()
        naive = 0.0
        for f in prob.factors:
            e = residual(f, x0, prob.intrinsics[f.frame], prob.obs_model, theta)
            naive += float(e @ f.info @ e)
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
        m = StaticModel({(0, 0): [1.0, 2.0]})
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
            obs = {(0, t): rng.normal(size=2) for t in range(n)}
            m = TrackBiasModel(obs, list(range(n)))
            theta = rng.normal(size=m.theta_dim)
            t = int(rng.integers(n))
            J = m.observe_jacobian(0, t, theta)
            Jf = self._fd_jacobian(m, 0, t, theta)
            assert np.abs(J - Jf).max() < 1e-6

    def test_descfield_jacobian_fd(self, rng):
        for trial in range(100):
            r = np.random.default_rng(500 + trial)
            tracks = [0, 1]
            grids = {t: r.normal(size=(4, 4, 3)) * 0.4 for t in tracks}
            refs = {t: r.normal(size=3) for t in tracks}
            origins = {(0, t): r.normal(size=2) * 5 for t in tracks}
            m = DescriptorFieldModel(tracks, grids, refs, origins)
            theta = m.theta0() + 0.01 * r.normal(size=m.theta_dim)
            t = int(r.integers(2))
            J = m.observe_jacobian(0, t, theta)
            Jf = self._fd_jacobian(m, 0, t, theta)
            denom = max(np.abs(Jf).max(), np.abs(J).max(), 1e-9)
            assert np.abs(J - Jf).max() / denom < 1e-6

    def test_descfield_observe_all_matches_observe(self, rng):
        r = np.random.default_rng(9)
        tracks = [3, 4]
        grids = {t: r.normal(size=(4, 4, 3)) for t in tracks}
        refs = {t: r.normal(size=3) for t in tracks}
        origins = {(f, t): r.normal(size=2) for f in (0, 1) for t in tracks}
        m = DescriptorFieldModel(tracks, grids, refs, origins)
        theta = m.theta0()
        frames = np.array([0, 0, 1, 1])
        trs = [3, 4, 3, 4]
        stacked = m.observe_all(frames, trs, theta)
        for k, (f, t) in enumerate(zip(frames, trs)):
            np.testing.assert_allclose(stacked[k], m.observe(f, t, theta))


class TestScalePrior:
    def test_jacobian_matches_fd(self, rng):
        from gradba.geometry import se3_exp, se3_retract
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
        factors = [ReprojectionFactor(0, 0, 0)]
        with pytest.raises(ValueError, match="fewer than 2 frames"):
            Problem(state, intr, factors, StaticModel({(0, 0): [0.0, 0.0]}))

    def test_covariance_must_be_spd(self):
        with pytest.raises(ValueError):
            ReprojectionFactor(0, 0, 0, cov=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_bad_indices(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        state = StateVector([Pose(), Pose()], np.array([[0.0, 0.0, 2.0]]),
                            fixed_poses=[True, True])
        factors = [ReprojectionFactor(5, 0, 0), ReprojectionFactor(1, 0, 0)]
        with pytest.raises(ValueError, match="out of range"):
            Problem(state, intr, factors, StaticModel({(5, 0): [0, 0], (1, 0): [0, 0]}))
