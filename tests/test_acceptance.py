"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from gradba.alignment import align, apply_alignment
from gradba.geometry import (CameraIntrinsics, Pose, project,
                             projection_jacobians, quat_conj, quat_from_matrix,
                             quat_mul, quat_to_rotvec, se3_retract)
from gradba.implicit import (ImplicitGradRequest, PoseErrorLoss, fd_gradient,
                             implicit_gradient, max_rel_error,
                             unrolled_gradient_oracle)
from gradba.initializer import (InverseDepthEstimate, RansacConfig,
                                estimate_relative_pose, fuse_inverse_depth,
                                normalize_bearings, run_initialization)
from gradba.problem import (DescriptorFieldModel, Problem, RobustKernel,
                            StateVector, TrackBiasModel, TemporalAttachment)
from gradba.solver import SolverSettings, linearize, lm_step, optimize, schur_solve
from gradba.temporal import (TemporalEnergy, TrackPair, Transition, gaussian_target,
                             loss_hot, loss_mrp, loss_sim, temporal_energy)

from conftest import build_ba_problem, build_window, problem_like
from loop_reference import LandmarkTargetLoss, se3_exp
from test_temporal import random_transition

TIGHT = SolverSettings(gradient_tolerance=1e-11, max_iterations=300)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def sim_ate(poses_est, poses_gt):
    est = np.array([p.t for p in poses_est])
    ref = np.array([p.t for p in poses_gt])
    s, R, t = align(est, ref, "sim")
    return float(np.sqrt(((apply_alignment(est, s, R, t) - ref) ** 2)
                         .sum(axis=1).mean()))


def sim_are_deg(poses_est, poses_gt):
    est = np.array([p.t for p in poses_est])
    ref = np.array([p.t for p in poses_gt])
    _, R, _ = align(est, ref, "sim")
    angs = []
    for a, b in zip(poses_est, poses_gt):
        Ra = R @ a.rotation_matrix()
        c = 0.5 * (np.trace(Ra.T @ b.rotation_matrix()) - 1.0)
        angs.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return float(np.sqrt(np.mean(np.square(angs))))


def test_01_implicit_gradient_correctness():
    t0 = time.time()
    worst_fd = worst_uo = 0.0
    for seed in range(20):
        prob, x0, gt_poses, *_ = build_ba_problem(seed, n_cams=5, n_lms=20,
                                                  sigma=0.5)
        assert prob.obs_model.theta_dim == 40
        theta = prob.theta0()
        xs, _ = optimize(prob, x0, theta, TIGHT)
        loss = PoseErrorLoss(gt_poses)
        sys_ = linearize(prob, xs, theta)
        grad = implicit_gradient(ImplicitGradRequest(
            prob, xs, theta, loss.grad_tangent(xs, sys_.layout), 1e-7, sys_))
        gfd = fd_gradient(prob, xs, theta, TIGHT, loss, h=1e-5)
        guo = unrolled_gradient_oracle(prob, xs, theta, TIGHT, loss)
        worst_fd = max(worst_fd, max_rel_error(grad.dldtheta, gfd))
        worst_uo = max(worst_uo, max_rel_error(grad.dldtheta, guo))
    dt = time.time() - t0
    ok = worst_fd < 1e-4 and worst_uo < 1e-3 and dt < 60.0
    report(1, ok, f"implicit vs FD {worst_fd:.2e} (<1e-4), vs unrolled "
                  f"{worst_uo:.2e} (<1e-3), {dt:.1f}s (<60s), 20 seeds")


def test_02_closed_form_small_system():
    intr = CameraIntrinsics(300.0, 300.0, 0.0, 0.0)
    pose0, pose1 = Pose(t=[-0.5, 0, 0]), Pose(t=[0.5, 0, 0])
    lm = np.array([[0.1, 0.2, 3.0]])
    pixels = [project(pose0, intr, lm[0]), project(pose1, intr, lm[0])]
    state = StateVector([pose0, pose1], lm, fixed_poses=[True, True])
    prob = Problem(state, intr, [0, 1], [7, 7], [0, 0],
                   TrackBiasModel([0, 1], [7, 7], pixels, [7]))
    theta = prob.theta0()
    xs, _ = optimize(prob, state, theta, TIGHT)
    target = np.array([0.0, 0.0, 3.1])
    loss = LandmarkTargetLoss(0, target)
    sys_ = linearize(prob, xs, theta)
    grad = implicit_gradient(ImplicitGradRequest(
        prob, xs, theta, loss.grad_tangent(xs, sys_.layout), 1e-8, sys_))
    _, J0 = projection_jacobians(pose0, intr, xs.landmarks[0])
    _, J1 = projection_jacobians(pose1, intr, xs.landmarks[0])
    J = np.vstack([J0, J1])
    dp = np.vstack([np.eye(2), np.eye(2)])
    hand = (2.0 * (xs.landmarks[0] - target)) @ np.linalg.solve(J.T @ J,
                                                                J.T @ dp)
    err = max_rel_error(grad.dldtheta, hand)
    report(2, err < 1e-6,
           f"implicit vs hand (J^T J)^-1 J^T dp/dtheta chain: {err:.2e} (<1e-6)")


def test_03_schur_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(50):
        n_cams = int(rng.integers(2, 11))
        n_lms = int(rng.integers(8, 101))
        lam = float(rng.choice([0.0, 1e-4, 1e-2, 1.0]))
        prob, x0, *_ = build_ba_problem(int(rng.integers(1 << 30)),
                                        n_cams=n_cams, n_lms=n_lms, sigma=0.8)
        sys_ = linearize(prob, x0)
        worst = max(worst, float(np.abs(schur_solve(sys_, lam)
                                        - lm_step(sys_, lam)).max()))
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 10.0
    report(3, ok, f"schur vs dense max abs diff {worst:.2e} (<1e-8) over 50 "
                  f"systems, {dt:.1f}s (<10s)")


def test_04_exact_recovery():
    t0 = time.time()
    prob, x0, gt_poses, gt_lms, _ = build_ba_problem(
        2024, n_cams=6, n_lms=50, sigma=0.0, pose_noise=0.01, lm_noise=0.01)
    xs, rep = optimize(prob, x0)
    ate = sim_ate(xs.poses, gt_poses)
    are = sim_are_deg(xs.poses, gt_poses)
    dt = time.time() - t0
    ok = ate < 1e-6 and are < 1e-5 and dt < 5.0
    report(4, ok, f"noise-free recovery: ATE {ate:.2e} (<1e-6), ARE "
                  f"{are:.2e} deg (<1e-5), {dt:.2f}s (<5s)")


def test_05_robustness_ordering():
    wins = 0
    for seed in range(10):
        prob_h, x0, gt_poses, *_ = build_ba_problem(
            seed, n_cams=6, n_lms=40, sigma=0.5, outlier_ratio=0.10,
            outlier_px=20.0, kernel=RobustKernel("huber", 2.0))
        prob_n = problem_like(prob_h, kernel=RobustKernel("none"),
                              scale_prior=prob_h.scale_prior)
        xh, _ = optimize(prob_h, x0)
        xn, _ = optimize(prob_n, x0)
        if sim_ate(xh.poses, gt_poses) < sim_ate(xn.poses, gt_poses):
            wins += 1
    report(5, wins >= 9,
           f"huber ATE < kernel-none ATE in {wins}/10 trials (need >=9)")


def test_06_monotonicity():
    violations = 0
    for seed in range(20):
        prob, x0, *_ = build_ba_problem(seed, sigma=1.0,
                                        kernel=RobustKernel("huber", 2.0))
        _, rep = optimize(prob, x0)
        if np.any(np.diff(rep.energies) > 0.0):
            violations += 1
    report(6, violations == 0,
           f"accepted-iteration energy non-increasing: {violations} "
           f"violations over 20 seeded noisy solves (exact assertion)")


def test_07_initialization_fidelity():
    # noise-free window
    window, K, gt_poses, lms, _ = build_window(1, sigma=0.0)
    res = run_initialization(window, K)
    reproj_clean = res.diagnostics["mean_reprojection_px"]

    # five-point accuracy on the anchor-terminal pair of that window
    t_star = res.terminal_index
    common = sorted(set(window[0]) & set(window[t_star]))
    b0 = normalize_bearings(np.array([window[0][t] for t in common]), K)
    b1 = normalize_bearings(np.array([window[t_star][t] for t in common]), K)
    R, tdir, mask = estimate_relative_pose(b0, b1, RansacConfig(seed=3))
    Rgt = (gt_poses[t_star].rotation_matrix().T
           @ gt_poses[0].rotation_matrix())
    tgt = gt_poses[t_star].rotation_matrix().T @ (gt_poses[0].t
                                                  - gt_poses[t_star].t)
    tgt = tgt / np.linalg.norm(tgt)
    rot_err = np.linalg.norm(quat_to_rotvec(quat_mul(
        quat_from_matrix(R), quat_conj(quat_from_matrix(Rgt)))))
    tdir_err = float(np.arccos(np.clip(abs(tdir @ tgt), -1.0, 1.0)))

    # noisy window with outliers: exact inlier recovery on the selected pair
    window_n, K2, _, _, outliers = build_window(21, sigma=1.0,
                                                outlier_ratio=0.2)
    res_n = run_initialization(window_n, K2)
    t2 = res_n.terminal_index
    common2 = sorted(set(window_n[0]) & set(window_n[t2]))
    b0n = normalize_bearings(np.array([window_n[0][t] for t in common2]), K2)
    b1n = normalize_bearings(np.array([window_n[t2][t] for t in common2]), K2)
    _, _, mask_n = estimate_relative_pose(b0n, b1n, RansacConfig(seed=0))
    true_inliers = np.array([(t2, t) not in outliers for t in common2])
    inliers_exact = bool(np.array_equal(mask_n, true_inliers))
    reproj_noisy = res_n.diagnostics["mean_reprojection_px"]

    ok = (reproj_clean < 1e-6 and rot_err < 1e-6 and tdir_err < 1e-6
          and inliers_exact and reproj_noisy < 2.0)
    report(7, ok,
           f"init: clean reproj {reproj_clean:.2e}px (<1e-6), five-point rot "
           f"{rot_err:.2e} rad / tdir {tdir_err:.2e} rad (<1e-6), inlier set "
           f"exact={inliers_exact}, noisy reproj {reproj_noisy:.3f}px (<2)")


def test_08_bayesian_fusion():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(1000):
        pv = float(rng.uniform(1e-6, 10.0))
        ov = float(rng.uniform(1e-6, 10.0))
        post = fuse_inverse_depth(InverseDepthEstimate(rng.normal(), pv),
                                  rng.normal(), ov)
        if not (post.var <= min(pv, ov)):
            ok = False
            break
    ex1 = fuse_inverse_depth(InverseDepthEstimate(0.5, 1e12), 0.8, 0.04)
    ex2 = fuse_inverse_depth(InverseDepthEstimate(1.0, 0.3), 0.6, 0.3)
    ex3 = fuse_inverse_depth(InverseDepthEstimate(1.0, 0.04), 0.8, 0.04)
    analytic = (abs(ex1.mu - 0.8) < 1e-9 * 0.8
                and abs(ex1.var - 0.04) < 1e-9 * 0.04
                and abs(ex2.mu - 0.8) < 1e-12 and abs(ex2.var - 0.15) < 1e-12
                and abs(ex3.mu - 0.9) < 1e-12 and abs(ex3.var - 0.02) < 1e-12)
    report(8, ok and analytic,
           f"posterior variance <= min(prior, obs) on 1000 fusions "
           f"(exact)={ok}; three analytic examples to 1e-12={analytic}")


def test_09_temporal_energy_correctness():
    # fixed points are exactly zero
    pairs = [TrackPair(np.array([3.0, 4.0]), np.array([3.0, 4.0]))]
    zero_mrp = loss_mrp(pairs, 5.0).value == 0.0
    c = np.random.default_rng(0).uniform(0.2, 1.0, size=(6, 6))
    zero_sim = loss_sim(c, c.copy(), 0.5) == 0.0
    g = gaussian_target((2.5, 2.5), 2.0, 6, 6)
    zero_hot = loss_hot(g.copy(), g, 0.5) == 0.0

    # analytic gradients vs FD on 50 seeded descriptor grids
    terms = TemporalEnergy(alpha=1.0, beta=1.0, tau=10.0, mask_threshold=2.0,
                           sigma=2.0)
    h = 1e-6
    worst = 0.0
    for seed in range(50):
        tr = random_transition(seed, H=6, W=6, C=4, n=2)
        res = temporal_energy(terms, [tr])
        r = np.random.default_rng(1000 + seed)
        for k in range(len(tr.pairs)):
            cpt = int(r.integers(2))
            orig = tr.pairs[k].recursive.copy()
            tr.pairs[k].recursive = orig + np.eye(2)[cpt] * h
            vp = temporal_energy(terms, [tr]).value
            tr.pairs[k].recursive = orig - np.eye(2)[cpt] * h
            vm = temporal_energy(terms, [tr]).value
            tr.pairs[k].recursive = orig
            fd = (vp - vm) / (2 * h)
            an = res.grad_endpoints[0][k][cpt]
            scale = max(np.abs(res.grad_endpoints[0]).max(), 1e-9)
            worst = max(worst,
                        abs(an - fd) / max(abs(fd), abs(an), 1e-3 * scale))
        for idx, item in enumerate(tr.dense):
            gm = res.grad_grids[0][idx]
            for _ in range(3):
                y = int(r.integers(item.grid.shape[0]))
                x = int(r.integers(item.grid.shape[1]))
                cc = int(r.integers(item.grid.shape[2]))
                orig = item.grid[y, x, cc]
                item.grid[y, x, cc] = orig + h
                vp = temporal_energy(terms, [tr]).value
                item.grid[y, x, cc] = orig - h
                vm = temporal_energy(terms, [tr]).value
                item.grid[y, x, cc] = orig
                fd = (vp - vm) / (2 * h)
                scale = max(np.abs(gm).max(), 1e-9)
                worst = max(worst,
                            abs(gm[y, x, cc] - fd) / max(abs(fd),
                                                         abs(gm[y, x, cc]),
                                                         1e-3 * scale))

    # zero-weight attachment leaves optimize() bit-identical
    prob, x0, *_ = build_ba_problem(42, sigma=0.6)
    longs = [prob.obs_model.observe(1, t, prob.theta0()) for t in (0, 1, 2)]
    attach = TemporalAttachment(TemporalEnergy(alpha=0.0, beta=0.0, lambda_t=0.0),
                                [Transition([TrackPair(p, p) for p in longs])],
                                [1, 1, 1], [0, 1, 2])
    prob2 = problem_like(prob, temporal_terms=attach, scale_prior=prob.scale_prior)
    xa, ra = optimize(prob, x0)
    xb, rb = optimize(prob2, x0)
    bit_identical = (ra.energies == rb.energies
                     and np.array_equal(xa.landmarks, xb.landmarks)
                     and all(np.array_equal(a.q, b.q)
                             and np.array_equal(a.t, b.t)
                             for a, b in zip(xa.poses, xb.poses)))
    ok = zero_mrp and zero_sim and zero_hot and worst < 1e-5 and bit_identical
    report(9, ok,
           f"fixed points exact={zero_mrp and zero_sim and zero_hot}, "
           f"gradients vs FD {worst:.2e} (<1e-5) over 50 grids, zero-weight "
           f"attach bit-identical={bit_identical}")


def test_10_jacobian_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)
    intr = CameraIntrinsics(480.0, 500.0, 320.0, 240.0)
    worst = 0.0
    for _ in range(1000):
        pose = se3_exp(rng.normal(scale=0.5, size=6))
        c = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.5, 8.0)])
        point = pose.apply(c)
        Jp, Jx = projection_jacobians(pose, intr, point)
        h = 1e-6
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            fd = (project(se3_retract(pose, d), intr, point)
                  - project(se3_retract(pose, -d), intr, point)) / (2 * h)
            worst = max(worst, np.abs(Jp[:, k] - fd).max()
                        / max(np.abs(fd).max(), 1.0))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            fd = (project(pose, intr, point + d)
                  - project(pose, intr, point - d)) / (2 * h)
            worst = max(worst, np.abs(Jx[:, k] - fd).max()
                        / max(np.abs(fd).max(), 1.0))
    # observation-model jacobians
    worst_obs = 0.0
    for trial in range(60):
        r = np.random.default_rng(3000 + trial)
        mb = TrackBiasModel(np.zeros(4), np.arange(4), r.normal(size=(4, 2)), list(range(4)))
        theta = r.normal(size=mb.theta_dim)
        t = int(r.integers(4))
        J = mb.observe_jacobian(0, t, theta)
        for k in range(mb.theta_dim):
            d = np.zeros_like(theta)
            d[k] = 1e-6
            fd = (mb.observe(0, t, theta + d) - mb.observe(0, t, theta - d)) / 2e-6
            worst_obs = max(worst_obs, np.abs(J[:, k] - fd).max())
        grids = r.normal(size=(1, 4, 4, 3)) * 0.4
        md = DescriptorFieldModel([0], [0], np.zeros((1, 2)), [0], grids,
                                  r.normal(size=(1, 3)))
        th = md.theta0()
        J = md.observe_jacobian(0, 0, th)
        for _ in range(6):
            k = int(r.integers(md.theta_dim))
            d = np.zeros_like(th)
            d[k] = 1e-6
            fd = (md.observe(0, 0, th + d) - md.observe(0, 0, th - d)) / 2e-6
            denom = max(np.abs(fd).max(), np.abs(J[:, k]).max(), 1.0)
            worst_obs = max(worst_obs, np.abs(J[:, k] - fd).max() / denom)
    dt = time.time() - t0
    ok = worst < 1e-6 and worst_obs < 1e-6 and dt < 5.0
    report(10, ok, f"projection jacobians {worst:.2e}, observation-model "
                   f"jacobians {worst_obs:.2e} (<1e-6), {dt:.1f}s (<5s)")


def test_11_pipeline_determinism_and_metrics(tmp_path):
    from gradba.cli import main as cli_main
    from gradba import scene as scn
    from gradba import trajectory as trj

    # byte-identical metrics across two runs of the full pipeline
    config = {"scene": {"n_cameras": 6, "n_landmarks": 40, "trajectory": "arc",
                        "seed": 5},
              "noise": {"sigma": 0.6, "outlier_ratio": 0.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    metric_files = []
    for tag in ("a", "b"):
        sc = str(tmp_path / f"scene{tag}.json")
        st = str(tmp_path / f"state{tag}.json")
        et = str(tmp_path / f"est{tag}.tum")
        mt = str(tmp_path / f"metrics{tag}.json")
        assert cli_main(["synth", "--config", str(cfg), "--out", sc]) == 0
        assert cli_main(["init", "--scene", sc, "--out-state", st,
                         "--out-traj", str(tmp_path / f"init{tag}.tum")]) == 0
        assert cli_main(["solve", "--scene", sc, "--state", st,
                         "--out-traj", et]) == 0
        scene = scn.load_scene(sc)
        gt = str(tmp_path / f"gt{tag}.tum")
        trj.write_tum(trj.records_from_poses(scn.gt_poses(scene),
                                             scn.timestamps(scene)), gt)
        assert cli_main(["eval", "--est", et, "--gt", gt, "--align", "sim",
                         "--report", mt]) == 0
        metric_files.append((tmp_path / f"metrics{tag}.json").read_bytes())
    deterministic = metric_files[0] == metric_files[1]

    # BA refines the initialization on seeded noisy scenes
    improved = 0
    for seed in range(10):
        scene = scn.generate_scene(scn.SyntheticSceneConfig(
            n_cameras=7, n_landmarks=45, trajectory="arc",
            pixel_sigma=0.8, seed=100 + seed))
        _, K = scn.scene_intrinsics(scene)
        res = run_initialization(scn.scene_window(scene), K)
        prob = scn.build_problem(scene, kernel=RobustKernel("huber", 2.0),
                                 state=res.state, track_ids=res.track_ids)
        xs, _ = optimize(prob, res.state)
        gt_pose_list = scn.gt_poses(scene)
        if sim_ate(xs.poses, gt_pose_list) <= sim_ate(res.state.poses,
                                                      gt_pose_list):
            improved += 1
    ok = deterministic and improved >= 9
    report(11, ok, f"metrics byte-identical across runs={deterministic}; "
                   f"solve ATE <= init ATE in {improved}/10 scenes (need >=9)")
