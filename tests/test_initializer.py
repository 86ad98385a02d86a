import numpy as np
import pytest

from gradba import scene as scn
from gradba.errors import (DegenerateGeometry, InitializationFailed,
                           NoValidTerminal, TooFewPoints)
from gradba.geometry import (CameraIntrinsics, Pose, project, quat_conj,
                             quat_from_matrix, quat_mul, quat_to_rotvec,
                             se3_retract)
from gradba.fivepoint import decompose_essential, essential_from_five
from gradba.initializer import (CandidateStats, InverseDepthEstimate,
                                RansacConfig, WindowConfig, _eight_point,
                                constant_velocity_extrapolation, depth_gate,
                                estimate_relative_pose, fuse_inverse_depth,
                                mean_reprojection_error, normalize_bearings,
                                pnp_pose, reprojection_errors,
                                run_initialization,
                                select_terminal_frame, sigma_obs_from_reproj,
                                triangulate)

from conftest import build_window
from loop_reference import loop_run_initialization


def bearings_for_pair(rng, n, R, t, noise=0.0, f=500.0):
    K = np.array([[f, 0, 320.0], [0, f, 240.0], [0, 0, 1]])
    pts = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                           rng.uniform(3, 8, n)])
    pa = pts / pts[:, 2:]
    ua = (K @ pa.T).T[:, :2] + rng.normal(scale=noise, size=(n, 2))
    pb = pts @ R.T + t
    ub = (K @ (pb / pb[:, 2:]).T).T[:, :2] + rng.normal(scale=noise, size=(n, 2))
    return normalize_bearings(ua, K), normalize_bearings(ub, K), K, pts


class TestSelectTerminalFrame:
    def _stat(self, frame, count=50, parallax=0.05, err=0.5, ratio=1.0):
        return CandidateStats(frame, count, parallax, err, ratio)

    def test_single_passer(self):
        cfg = WindowConfig(n_min=30)
        stats = [self._stat(1, count=10), self._stat(2), self._stat(3, ratio=0.2)]
        assert select_terminal_frame(stats, cfg) == 2

    def test_none_pass(self):
        cfg = WindowConfig(n_min=30)
        with pytest.raises(NoValidTerminal):
            select_terminal_frame([self._stat(1, count=5)], cfg)

    def test_growing_parallax_prefers_last(self):
        # lateral translation: parallax grows with index, equal counts/errors
        cfg = WindowConfig(n_min=30)
        stats = [self._stat(i, parallax=0.02 * i) for i in range(1, 6)]
        assert select_terminal_frame(stats, cfg) == 5

    def test_tie_breaks_to_earliest(self):
        cfg = WindowConfig(n_min=30)
        stats = [self._stat(3), self._stat(1), self._stat(2)]
        assert select_terminal_frame(stats, cfg) == 1


class TestNormalizeBearings:
    def test_principal_point(self):
        K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
        np.testing.assert_allclose(normalize_bearings([[320.0, 240.0]], K)[0],
                                   [0, 0, 1], atol=1e-15)

    def test_identity_intrinsics(self):
        b = normalize_bearings([[1.0, 0.0]], np.eye(3))[0]
        np.testing.assert_allclose(b, np.array([1.0, 0.0, 1.0]) / np.sqrt(2))

    def test_unit_norm(self, rng):
        K = np.array([[400.0, 0, 300], [0, 420.0, 200], [0, 0, 1]])
        pix = rng.uniform(0, 600, size=(100, 2))
        b = normalize_bearings(pix, K)
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-14)
        assert np.all(b[:, 2] > 0)


class TestEstimateRelativePose:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(0)
        from loop_reference import se3_exp
        Rgt = se3_exp(np.array([0.05, -0.1, 0.08, 0, 0, 0])).rotation_matrix()
        tgt = np.array([1.0, 0.2, -0.1])
        tgt = tgt / np.linalg.norm(tgt)
        ba, bb, _, _ = bearings_for_pair(rng, 50, Rgt, tgt)
        R, t, mask = estimate_relative_pose(ba, bb, RansacConfig(seed=1))
        rot_err = np.linalg.norm(quat_to_rotvec(
            quat_mul(quat_from_matrix(R), quat_conj(quat_from_matrix(Rgt)))))
        assert rot_err < 1e-6
        assert np.arccos(np.clip(abs(t @ tgt), -1, 1)) < 1e-6
        assert mask.all()

    def test_outliers_recovered_exactly(self):
        rng = np.random.default_rng(3)
        from loop_reference import se3_exp
        Rgt = se3_exp(np.array([0.03, -0.06, 0.02, 0, 0, 0])).rotation_matrix()
        tgt = np.array([1.0, 0.0, 0.2])
        tgt = tgt / np.linalg.norm(tgt)
        ba, bb, K, _ = bearings_for_pair(rng, 60, Rgt, tgt)
        # 30% outliers: replace bearings of chosen indices with displaced pixels
        idx = rng.choice(60, size=18, replace=False)
        ub = (K @ (bb / bb[:, 2:]).T).T[:, :2]
        for k in idx:
            ang = rng.uniform(0, 2 * np.pi)
            ub[k] += 40.0 * np.array([np.cos(ang), np.sin(ang)])
        bb2 = normalize_bearings(ub, K)
        R, t, mask = estimate_relative_pose(ba, bb2, RansacConfig(seed=5))
        expected = np.ones(60, dtype=bool)
        expected[idx] = False
        np.testing.assert_array_equal(mask, expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pure_rotation_degenerate(self):
        rng = np.random.default_rng(1)
        from loop_reference import se3_exp
        Rgt = se3_exp(np.array([0.1, 0.2, -0.05, 0, 0, 0])).rotation_matrix()
        ba, bb, *_ = bearings_for_pair(rng, 40, Rgt, np.zeros(3))
        with pytest.raises(DegenerateGeometry):
            estimate_relative_pose(ba, bb, RansacConfig(seed=2))

    def test_eight_point_on_inliers_agrees(self):
        # the linear solver on the five-point RANSAC's inliers: one of its
        # four decompositions is the relative pose the RANSAC returned, and
        # one of the five-point solver's own, on five of those inliers
        rng = np.random.default_rng(4)
        from loop_reference import se3_exp
        Rgt = se3_exp(np.array([0.04, -0.02, 0.06, 0, 0, 0])).rotation_matrix()
        tgt = np.array([0.5, -0.3, 0.1])
        tgt = tgt / np.linalg.norm(tgt)
        ba, bb, *_ = bearings_for_pair(rng, 50, Rgt, tgt)
        R5, t5, mask = estimate_relative_pose(ba, bb, RansacConfig(seed=6))
        poses8 = decompose_essential(_eight_point(ba[mask], bb[mask]))
        poses5 = [(R, t) for E in essential_from_five(ba[mask][:5], bb[mask][:5])
                  for R, t in decompose_essential(E)]
        assert any(np.abs(R5 - R8).max() < 1e-8 and np.abs(t5 - t8).max() < 1e-8
                   for R8, t8 in poses8)
        assert any(np.abs(R - R8).max() < 1e-8 and np.abs(t - t8).max() < 1e-8
                   for R, t in poses5 for R8, t8 in poses8)


class TestTriangulate:
    def test_symmetric_configuration(self):
        K = np.eye(3)
        p0 = Pose(t=[-0.5, 0, 0])
        p1 = Pose(t=[0.5, 0, 0])
        X, ok = triangulate(np.array([0.5, 0.0]), np.array([-0.5, 0.0]), p0, p1, K)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(X[0], [0, 0, 1], atol=1e-10)

    def test_noise_free_random_scenes(self, rng):
        f = 400.0
        K = np.array([[f, 0, 320], [0, f, 240], [0, 0, 1.0]])
        intr = CameraIntrinsics(f, f, 320, 240)
        for _ in range(50):
            p0 = Pose(t=rng.normal(scale=0.3, size=3))
            p1 = se3_retract(p0, rng.normal(scale=0.2, size=6))
            X_gt = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(3, 7)])
            u0 = project(p0, intr, X_gt)
            u1 = project(p1, intr, X_gt)
            (X,), (ok,) = triangulate(u0, u1, p0, p1, K)
            assert ok
            assert np.linalg.norm(X - X_gt) / np.linalg.norm(X_gt) < 1e-6

    def test_identical_poses_low_parallax(self):
        K = np.eye(3)
        P = Pose(t=[0.1, 0.2, 0.3])
        _, ok = triangulate(np.array([0.0, 0.0]), np.array([0.0, 0.0]), P, P.copy(), K)
        assert ok.tolist() == [False]

    def test_anti_parallel_rays_fail_alone(self):
        # two cameras facing each other see a point on their baseline along
        # opposite rays: singular normal equations, flagged, not raised
        K = np.eye(3)
        p0 = Pose()
        p1 = Pose(quat_from_matrix(np.diag([-1.0, 1.0, -1.0])), [0.0, 0.0, 2.0])
        X, ok = triangulate(np.array([[0.0, 0.0], [0.5, 0.0]]),
                            np.array([[0.0, 0.0], [-0.5, 0.0]]), p0, p1, K)
        assert ok.tolist() == [False, True]
        np.testing.assert_allclose(X[1], [0.5, 0.0, 1.0], atol=1e-12)

    def test_batch_is_row_by_row(self, rng):
        f = 400.0
        K = np.array([[f, 0, 320], [0, f, 240], [0, 0, 1.0]])
        p0 = Pose(t=[0.1, 0.0, 0.0])
        p1 = se3_retract(p0, [0.02, -0.05, 0.01, 0.6, 0.1, 0.0])
        u0 = rng.uniform(0, 640, size=(20, 2))
        u1 = u0 + rng.normal(scale=20.0, size=(20, 2))
        X, ok = triangulate(u0, u1, p0, p1, K)
        assert 0 < ok.sum() < 20
        for k in range(20):
            (Xk,), (okk,) = triangulate(u0[k], u1[k], p0, p1, K)
            assert okk == ok[k]
            np.testing.assert_allclose(Xk, X[k], rtol=1e-12, atol=1e-12)


class TestDepthGate:
    def test_all_equal_depths_retained(self):
        z = np.array([2.0, 2.0, 2.0])
        assert depth_gate(None, z).all()

    def test_far_outlier_rejected(self):
        z = np.array([1.0, 1.0, 1.0, 100.0])
        np.testing.assert_array_equal(depth_gate(None, z),
                                      [True, True, True, False])

    def test_near_bound_hand_median(self):
        # median over positive depths {1, 0.05} is 0.525; lower bound 0.0525
        z = np.array([1.0, 0.05])
        np.testing.assert_array_equal(depth_gate(None, z), [True, False])

    def test_negative_depths_never_retained_median_over_positive(self):
        z = np.array([-3.0, 2.0, 2.2])
        mask = depth_gate(None, z)
        assert not mask[0] and mask[1] and mask[2]


class TestFuseInverseDepth:
    def test_diffuse_prior(self):
        prior = InverseDepthEstimate(0.123, 1e12)
        post = fuse_inverse_depth(prior, 0.8, 0.04)
        assert post.mu == pytest.approx(0.8, rel=1e-9)
        assert post.var == pytest.approx(0.04, rel=1e-9)

    def test_equal_variances(self):
        post = fuse_inverse_depth(InverseDepthEstimate(1.0, 0.1), 0.6, 0.1)
        assert post.mu == pytest.approx(0.8)
        assert post.var == pytest.approx(0.05)

    def test_formula_arithmetic(self):
        post = fuse_inverse_depth(InverseDepthEstimate(1.0, 0.04), 0.8, 0.04)
        assert post.mu == pytest.approx(0.9, abs=1e-12)
        assert post.var == pytest.approx(0.02, abs=1e-12)

    def test_posterior_variance_bounded(self, rng):
        for _ in range(1000):
            pv = rng.uniform(1e-6, 10.0)
            ov = rng.uniform(1e-6, 10.0)
            post = fuse_inverse_depth(InverseDepthEstimate(rng.normal(), pv),
                                      rng.normal(), ov)
            assert post.var <= min(pv, ov)
            assert post.var < min(pv, ov) or not np.isfinite(pv + ov)

    def test_stability_flag(self):
        post = fuse_inverse_depth(InverseDepthEstimate(1.0, 1e-8), 1.0, 1e-8)
        assert post.stable
        post2 = fuse_inverse_depth(InverseDepthEstimate(1.0, 1.0), 1.0, 1.0)
        assert not post2.stable


class TestSigmaObs:
    def _setup(self, baseline, rng):
        f = 500.0
        K = np.array([[f, 0, 320], [0, f, 240], [0, 0, 1.0]])
        intr = CameraIntrinsics(f, f, 320, 240)
        p0 = Pose()
        p1 = Pose(t=[baseline, 0, 0])
        X = np.array([0.3, -0.2, 5.0])
        return p0, p1, K, project(p0, intr, X), project(p1, intr, X)

    def test_larger_baseline_reduces_variance(self, rng):
        p0, p1, K, u0, u1 = self._setup(0.5, rng)
        (v_small,), _, _ = sigma_obs_from_reproj(u0, u1, p0, p1, K, 1.0)
        p0, p1, K, u0, u1 = self._setup(1.0, rng)
        (v_large,), _, _ = sigma_obs_from_reproj(u0, u1, p0, p1, K, 1.0)
        assert 0 < v_large < v_small

    def test_zero_perturbation(self, rng):
        p0, p1, K, u0, u1 = self._setup(0.5, rng)
        var, X, ok = sigma_obs_from_reproj(u0, u1, p0, p1, K, 0.0)
        assert var.tolist() == [0.0] and ok.tolist() == [True]
        np.testing.assert_array_equal(X, triangulate(u0, u1, p0, p1, K)[0])

    def test_matches_direct_retriangulation(self, rng):
        # independent oracle: redo the two perturbed triangulations directly
        p0, p1, K, u0, u1 = self._setup(0.7, rng)
        (var,), (X,), (ok,) = sigma_obs_from_reproj(u0, u1, p0, p1, K, 1.0)
        assert ok
        z = X[2]
        intr = CameraIntrinsics(500, 500, 320, 240)
        q0 = normalize_bearings(u0, K)[0]
        ray = lambda s: p0.apply(q0 / q0[2] * s)
        d = project(p1, intr, ray(1.05 * z)) - project(p1, intr, ray(0.95 * z))
        d /= np.linalg.norm(d)
        rp = 1.0 / triangulate(u0, u1 + d, p0, p1, K)[0][0, 2]
        rm = 1.0 / triangulate(u0, u1 - d, p0, p1, K)[0][0, 2]
        assert var == pytest.approx((0.5 * abs(rp - rm)) ** 2, rel=1e-12)


class TestPnp:
    def _scene(self, rng, n=30):
        f = 450.0
        K = np.array([[f, 0, 320], [0, f, 240], [0, 0, 1.0]])
        intr = CameraIntrinsics(f, f, 320, 240)
        pose = Pose(quat_from_matrix(np.eye(3)), [0.3, -0.2, 0.1])
        pts = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                               rng.uniform(3, 8, n)])
        pix = np.array([project(pose, intr, p) for p in pts])
        return K, pose, pts, pix

    def test_exact_start_is_fixed_point(self, rng):
        K, pose, pts, pix = self._scene(rng)
        est = pnp_pose(pts, pix, K, pose)
        assert np.linalg.norm(est.t - pose.t) < 1e-10
        assert np.linalg.norm(quat_to_rotvec(
            quat_mul(est.q, quat_conj(pose.q)))) < 1e-10

    def test_constant_velocity_fallback(self):
        K = np.eye(3)
        prev = [Pose(), Pose(t=[1.0, 0.0, 0.0])]
        est = pnp_pose(np.zeros((3, 3)), np.zeros((3, 2)), K, prev[-1], prev)
        np.testing.assert_allclose(est.t, [2.0, 0.0, 0.0], atol=1e-12)

    def test_extrapolation_formula(self):
        p1 = Pose(t=[1.0, 0.5, 0.0])
        p0 = Pose()
        pred = constant_velocity_extrapolation([p0, p1])
        np.testing.assert_allclose(pred.t, [2.0, 1.0, 0.0], atol=1e-12)

    def test_recovers_from_perturbed_start(self, rng):
        K, pose, pts, pix = self._scene(rng)
        delta = np.concatenate([rng.normal(size=3) * 0.0, np.zeros(3)])
        delta[:3] = np.deg2rad(5.0) * np.array([1.0, 0, 0])
        delta[3:] = [0.1, 0.0, 0.0]
        start = se3_retract(pose, delta)
        est = pnp_pose(pts, pix, K, start)
        assert np.linalg.norm(est.t - pose.t) < 1e-8
        assert np.linalg.norm(quat_to_rotvec(
            quat_mul(est.q, quat_conj(pose.q)))) < 1e-8

    def test_too_few_points_no_history(self):
        with pytest.raises(TooFewPoints):
            pnp_pose(np.zeros((2, 3)), np.zeros((2, 2)), np.eye(3), Pose())

    def test_landmark_behind_refined_pose_falls_back(self, rng):
        K, pose, pts, pix = self._scene(rng)
        prev = [Pose(t=[0.1, -0.2, 0.1]), Pose(t=[0.2, -0.2, 0.1])]
        fallback = constant_velocity_extrapolation(prev)
        # control: without the landmark behind it, the refinement is kept
        est = pnp_pose(pts, pix, K, pose, prev)
        assert np.linalg.norm(est.t - pose.t) < 1e-10
        behind = np.vstack([pts, pose.t + [0.0, 0.0, -3.0]])
        est = pnp_pose(behind, np.vstack([pix, [320.0, 240.0]]), K, pose, prev)
        np.testing.assert_array_equal(est.t, fallback.t)
        np.testing.assert_array_equal(est.q, fallback.q)


    def test_rejection_errors_count_a_landmark_behind_as_infinite(self, rng):
        # the lenient fit keeps its refined pose with a landmark behind it;
        # the rejection pass's errors must reject that observation, not raise
        K, pose, pts, pix = self._scene(rng)
        intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
        behind = np.vstack([pts, pose.t + [0.0, 0.0, -3.0]])
        pixels = np.vstack([pix, [320.0, 240.0]])
        est = pnp_pose(behind, pixels, K, pose, eps_max=np.inf)
        assert np.linalg.norm(est.t - pose.t) < 1e-10
        errs = reprojection_errors(est, behind, pixels, intr)
        assert errs[-1] == np.inf
        ref = [np.linalg.norm(project(est, intr, p) - u) for p, u in zip(pts, pix)]
        np.testing.assert_allclose(errs[:-1], ref, rtol=0, atol=1e-12)


class TestRunInitialization:
    def test_short_window_rejected(self):
        window, K, *_ = build_window(0, n_frames=2)
        with pytest.raises(InitializationFailed) as exc:
            run_initialization(window, K)
        assert exc.value.tag == "window-too-short"

    def test_noise_free_window(self):
        window, K, gt_poses, *_ = build_window(1, sigma=0.0)
        res = run_initialization(window, K)
        assert res.diagnostics["mean_reprojection_px"] < 1e-6
        # gauge normalization is exact
        np.testing.assert_array_equal(res.state.poses[0].t, np.zeros(3))
        base = np.linalg.norm(res.state.poses[res.terminal_index].t)
        assert base == pytest.approx(1.0, abs=1e-12)

    def test_noisy_window_under_eps_max(self):
        window, K, *_ = build_window(2, sigma=1.0)
        res = run_initialization(window, K)
        assert res.diagnostics["mean_reprojection_px"] < 2.0
        # the per-frame batches average what per-point projections do
        intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
        index = {t: k for k, t in enumerate(res.track_ids)}
        ref = np.mean([np.linalg.norm(project(res.state.poses[f], intr,
                                              res.state.landmarks[index[t]]) - pix)
                       for (f, t), pix in res.observations.items()])
        assert mean_reprojection_error(res.state, K, res.track_ids, res.observations) \
            == pytest.approx(ref, rel=1e-12)

    def test_solver_refines_initialization(self):
        from gradba.solver import optimize
        from gradba.problem import total_energy
        window, K, gt_poses, lms, _ = build_window(3, sigma=1.0)
        res = run_initialization(window, K)
        # assemble a problem over the initializer's tracks and observations
        from gradba.geometry import CameraIntrinsics
        from gradba.problem import Problem, ScalePrior, StaticModel
        intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
        lm_index = {t: k for k, t in enumerate(res.track_ids)}
        keys = sorted(res.observations)
        frames, tracks = [f for f, _ in keys], [t for _, t in keys]
        model = StaticModel(frames, tracks, [res.observations[k] for k in keys])
        prior = ScalePrior(0, 1, float(np.linalg.norm(
            res.state.poses[1].t - res.state.poses[0].t)))
        prob = Problem(res.state, intr, frames, tracks, [lm_index[t] for t in tracks],
                       model, scale_prior=prior)
        e0 = total_energy(prob, res.state)
        xs, rep = optimize(prob, res.state)
        assert rep.final_energy < e0

    def test_bit_identical_determinism(self):
        window, K, *_ = build_window(4, sigma=0.8, outlier_ratio=0.1)
        r1 = run_initialization(window, K)
        r2 = run_initialization(window, K)
        np.testing.assert_array_equal(r1.state.landmarks, r2.state.landmarks)
        for a, b in zip(r1.state.poses, r2.state.poses):
            np.testing.assert_array_equal(a.q, b.q)
            np.testing.assert_array_equal(a.t, b.t)
        assert r1.track_ids == r2.track_ids

    def test_tracks_have_two_views_positive_depth(self):
        window, K, *_ = build_window(5, sigma=1.0, outlier_ratio=0.15)
        res = run_initialization(window, K)
        per_track = {}
        for (f, t) in res.observations:
            per_track.setdefault(t, []).append(f)
        index = {t: k for k, t in enumerate(res.track_ids)}
        for t, frames in per_track.items():
            assert len(frames) >= 2
            for f in frames:
                pose = res.state.poses[f]
                c = pose.world_to_camera(res.state.landmarks[index[t]])
                assert c[2] > 0

    def test_final_filter_drops_a_landmark_behind_a_fallback_pose(self):
        # frame 2 sees only 3 landmark tracks, so PnP takes the
        # constant-velocity pose and keeps all three observations; the camera
        # has moved past the near landmark, and its pixel there, the anchor's,
        # gives parallel rays that the fusion sweep skips
        intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
        rng = np.random.default_rng(7)
        lms = np.column_stack([rng.uniform(-2, 2, 40), rng.uniform(-1.5, 1.5, 40),
                               rng.uniform(4, 9, 40)])
        lms[0] = [0.1, 0.05, 0.8]
        poses = [Pose(t=[0.3 * i, 0.0, 0.5 * i]) for i in range(3)]
        window = [{t: project(P, intr, X) for t, X in enumerate(lms)} for P in poses[:2]]
        window.append({0: window[0][0], 1: project(poses[2], intr, lms[1]),
                       2: project(poses[2], intr, lms[2])})
        res = run_initialization(window, intr.matrix())
        assert res.terminal_index == 1 and 0 in res.track_ids
        assert (2, 0) not in res.observations
        assert (2, 1) in res.observations and (2, 2) in res.observations


# acceptance 11's arc scenes, and cli-pipeline's with 3 % outliers: tracks
# enter and leave the view
SCENES = {"arc": dict(n_cameras=7, n_landmarks=45, pixel_sigma=0.8),
          "arc-outliers": dict(n_cameras=12, n_landmarks=160, pixel_sigma=0.5,
                               outlier_ratio=0.03, outlier_px=20.0)}


@pytest.mark.parametrize("kind, seed", [("window", s) for s in range(6)]
                         + [("far", 2), ("far", 4)]
                         + [("arc", s) for s in range(100, 104)]
                         + [("arc-outliers", 3), ("arc-outliers", 4)])
def test_matches_loop_reference(kind, seed):
    """The (frame x track) table gives the state, tracks, terminal frame and
    kept observations of the per-track dict version, bit for bit; only the
    mean reprojection, averaged over the observations in another order, may
    round apart."""
    if kind == "window":  # every frame sees every track; 10-20 % displaced pixels
        window, K, *_ = build_window(seed, sigma=1.0, outlier_ratio=(0.1, 0.15, 0.2)[seed % 3])
    elif kind == "far":  # every other landmark 8x deeper, so some beliefs stay unstable
        _, K, poses, lms, _ = build_window(seed)
        lms[::2, 2] *= 8.0
        intr = CameraIntrinsics(K[0, 0], K[1, 1], K[0, 2], K[1, 2])
        rng = np.random.default_rng(seed)
        window = [{t: project(P, intr, X) + rng.normal(scale=1.0, size=2)
                   for t, X in enumerate(lms)} for P in poses]
    else:
        scene = scn.generate_scene(scn.SyntheticSceneConfig(trajectory="arc", seed=seed,
                                                            **SCENES[kind]))
        window, K = scn.scene_window(scene), scn.scene_intrinsics(scene)[1]
    res, ref = run_initialization(window, K), loop_run_initialization(window, K)
    for attr in ("q", "t", "landmarks", "fixed_poses"):
        assert getattr(res.state, attr).tobytes() == getattr(ref.state, attr).tobytes()
    assert res.track_ids == ref.track_ids
    assert res.terminal_index == ref.terminal_index
    keys = sorted(ref.observations)
    assert list(res.observations) == keys  # frame-major, then by track id
    assert (np.array([res.observations[k] for k in keys]).tobytes()
            == np.array([ref.observations[k] for k in keys]).tobytes())
    assert res.diagnostics["mean_reprojection_px"] == pytest.approx(
        ref.diagnostics["mean_reprojection_px"], rel=1e-12)
