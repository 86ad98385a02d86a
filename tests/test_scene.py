import hashlib
import json

import numpy as np
import pytest

from gradba import scene as scn
from gradba.errors import InfeasibleConfig, SceneFormatError
from gradba.geometry import pinhole, project
from gradba.problem import RobustKernel
from gradba.scene import (SyntheticSceneConfig, attach_descriptor_field,
                          attach_temporal, build_problem, dumps_scene,
                          generate_scene, gt_poses, gt_state, inject_noise,
                          load_scene, load_state, save_scene, save_state,
                          scene_intrinsics, scene_window, temporal_transitions)

from loop_reference import loop_generate_scene, loop_problem_table


class TestGenerateScene:
    def test_deterministic_bytes(self):
        cfg = SyntheticSceneConfig(seed=7, pixel_sigma=0.5, outlier_ratio=0.05)
        a = dumps_scene(generate_scene(cfg))
        b = dumps_scene(generate_scene(cfg))
        assert a == b

    @pytest.mark.parametrize("fields, attach, sha256", [
        (dict(n_cameras=12, n_landmarks=160, trajectory="arc", seed=3,
              pixel_sigma=0.5, outlier_ratio=0.03, outlier_px=20.0), False,
         "17896b5502550d8b73f8f6a19429fb7040c022602fe294d242777b7c151a105b"),
        (dict(n_cameras=24, n_landmarks=400, trajectory="orbit", seed=1), False,
         "329824e721bff5a2201ca8ddc601e5bf332aa1f268d8f9ef47b1642d5fab1bc2"),
        (dict(n_cameras=8, n_landmarks=60, trajectory="orbit", seed=2,
              pixel_sigma=0.3), True,
         "008216064ca59b508b5dbe7722efedf0cd8de433b904cf770bd43d2e3e7cff2d"),
        (dict(n_cameras=20, n_landmarks=300, trajectory="line", seed=4), False,
         "2db60c09377e64274dbe5a6fac4aa07cfa185f9731a71990b350f9c17a834d1b"),
    ])
    def test_pinned_bytes(self, fields, attach, sha256):
        # digests of the per-landmark, per-pose generator these scenes were
        # first written with: a faster generator must draw the same scenes.
        # The third scene's temporal section holds one chained endpoint that
        # the patch clamp moved onto its patch's edge.
        scene = generate_scene(SyntheticSceneConfig(**fields))
        if attach:
            scene = attach_temporal(attach_descriptor_field(scene, seed=2), seed=2)
        assert hashlib.sha256(dumps_scene(scene).encode()).hexdigest() == sha256

    def test_noise_free_observations_exact(self):
        cfg = SyntheticSceneConfig(seed=1)
        scene = generate_scene(cfg)
        intr, _ = scene_intrinsics(scene)
        poses = gt_poses(scene)
        lms = {l["id"]: np.array(l["position_gt"]) for l in scene["landmarks"]}
        for o in scene["observations"]:
            expected = project(poses[o["frame"]], intr, lms[o["track"]])
            assert o["u"] == expected[0] and o["v"] == expected[1]

    @pytest.mark.parametrize("traj", ["line", "arc", "orbit"])
    def test_track_lengths_and_cheirality(self, traj):
        cfg = SyntheticSceneConfig(n_cameras=10, n_landmarks=100,
                                   trajectory=traj, seed=3)
        scene = generate_scene(cfg)
        counts = {}
        intr, _ = scene_intrinsics(scene)
        poses = gt_poses(scene)
        lms = {l["id"]: np.array(l["position_gt"]) for l in scene["landmarks"]}
        for o in scene["observations"]:
            counts[o["track"]] = counts.get(o["track"], 0) + 1
            c = poses[o["frame"]].world_to_camera(lms[o["track"]])
            assert c[2] > 0
        assert len(counts) == 100
        assert min(counts.values()) >= 2
        assert np.mean(list(counts.values())) >= 2.0

    @pytest.mark.parametrize("traj", ["line", "arc", "orbit"])
    @pytest.mark.parametrize("noise", [{}, dict(pixel_sigma=0.5, outlier_ratio=0.05)])
    def test_equals_loop_reference(self, traj, noise):
        for seed in range(4):
            cfg = SyntheticSceneConfig(n_cameras=8, n_landmarks=60, trajectory=traj,
                                       seed=seed, **noise)
            assert dumps_scene(generate_scene(cfg)) == dumps_scene(loop_generate_scene(cfg))

    @pytest.mark.parametrize("traj", ["line", "arc", "orbit"])
    def test_many_blocks_equal_loop_reference(self, traj, monkeypatch):
        # a small image rejects most candidates, so placement takes many blocks
        blocks = []
        monkeypatch.setattr(scn, "pinhole", lambda *a: blocks.append(a) or pinhole(*a))
        cfg = SyntheticSceneConfig(n_cameras=5, n_landmarks=40, trajectory=traj, width=160,
                                   height=120, cx=80.0, cy=60.0, seed=6)
        scene = generate_scene(cfg)
        assert len(blocks) > 3
        assert dumps_scene(scene) == dumps_scene(loop_generate_scene(cfg))

    @pytest.mark.parametrize("size, seed, landmark", [(16, 2, 2), (2, 2, 0), (32, 5, 1)])
    def test_infeasible_message_equals_loop_reference(self, size, seed, landmark):
        # (32, 5): the 1000th rejection in a row falls in a block that keeps a
        # later candidate; (16, 2) and (2, 2): the rest of that block is rejected too
        cfg = SyntheticSceneConfig(n_cameras=2, n_landmarks=8, trajectory="orbit",
                                   width=size, height=size, cx=size / 2, cy=size / 2,
                                   seed=seed)
        message = f"could not place landmark {landmark} in 1000 attempts"
        for generate in (generate_scene, loop_generate_scene):
            with pytest.raises(InfeasibleConfig) as info:
                generate(cfg)
            assert str(info.value) == message

    def test_infeasible_config(self):
        cfg = SyntheticSceneConfig(n_cameras=2, n_landmarks=8, width=2,
                                   height=2, cx=1.0, cy=1.0, seed=0)
        with pytest.raises(InfeasibleConfig):
            generate_scene(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticSceneConfig(n_cameras=1)
        with pytest.raises(ValueError):
            SyntheticSceneConfig(outlier_ratio=1.5)
        with pytest.raises(ValueError):
            SyntheticSceneConfig(trajectory="spiral")


class TestInjectNoise:
    def test_zero_noise_is_identity(self):
        scene = generate_scene(SyntheticSceneConfig(seed=2))
        out = inject_noise(scene, 0.0, 0.0, 20.0, seed=5)
        assert dumps_scene(out) == dumps_scene(scene)

    def test_outlier_count_rounding(self):
        scene = generate_scene(SyntheticSceneConfig(n_cameras=5,
                                                    n_landmarks=40, seed=4))
        n = len(scene["observations"])
        ratio = 0.1
        out = inject_noise(scene, 0.0, ratio, 20.0, seed=6)
        assert len(out["outlier_indices"]) == int(round(ratio * n))
        # displaced observations are exactly the recorded ones
        moved = [k for k, (a, b) in enumerate(zip(scene["observations"],
                                                  out["observations"]))
                 if (a["u"], a["v"]) != (b["u"], b["v"])]
        assert moved == out["outlier_indices"]

    def test_seeded_determinism(self):
        scene = generate_scene(SyntheticSceneConfig(seed=8))
        a = inject_noise(scene, 1.0, 0.2, 15.0, seed=9)
        b = inject_noise(scene, 1.0, 0.2, 15.0, seed=9)
        assert dumps_scene(a) == dumps_scene(b)

    def test_input_untouched(self):
        """The input scene keeps its bytes, and edits of the output's
        observations do not reach it."""
        scene = generate_scene(SyntheticSceneConfig(seed=13))
        before = dumps_scene(scene)
        out = inject_noise(scene, 1.5, 0.2, 20.0, seed=14)
        assert dumps_scene(scene) == before
        out["observations"][0]["u"] = -1.0
        out["observations"].append(dict(out["observations"][1]))
        out["outlier_indices"].append(len(scene["observations"]))
        assert dumps_scene(scene) == before

    def test_ground_truth_untouched(self):
        scene = generate_scene(SyntheticSceneConfig(seed=10))
        out = inject_noise(scene, 2.0, 0.3, 25.0, seed=11)
        assert out["frames"] == scene["frames"]
        assert out["landmarks"] == scene["landmarks"]


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        scene = generate_scene(SyntheticSceneConfig(seed=12, pixel_sigma=0.7))
        attach_descriptor_field(scene, seed=1)
        attach_temporal(scene, seed=2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scene(scene, p1)
        save_scene(load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_required(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"frames": []}))
        with pytest.raises(SceneFormatError):
            load_scene(p)

    def test_dangling_reference_rejected(self, tmp_path):
        scene = generate_scene(SyntheticSceneConfig(seed=13))
        scene["observations"][0]["track"] = 9999
        p = tmp_path / "bad.json"
        save_scene(scene, p)
        with pytest.raises(SceneFormatError):
            load_scene(p)

    @pytest.mark.parametrize("what", ["frame", "landmark"])
    def test_repeated_id_rejected(self, tmp_path, what):
        # a repeated id would map to its last copy and strand the first
        scene = generate_scene(SyntheticSceneConfig(seed=13))
        items = scene[what + "s"]
        repeated = items[-2]["id"]
        if what == "frame":
            scene["observations"] = [o for o in scene["observations"]
                                     if o["frame"] != items[-1]["id"]]
        items[-1]["id"] = repeated
        p = tmp_path / "bad.json"
        save_scene(scene, p)
        with pytest.raises(SceneFormatError, match=f"^{what} id {repeated} is repeated$"):
            load_scene(p)

    @pytest.mark.parametrize("sigma, ok", [(None, True), (2, True), (0.5, True),
                                           (0, False), (-1, False), (True, False),
                                           ("x", False), (float("nan"), False),
                                           (float("inf"), False), (1e200, False),
                                           (1e-200, False)])
    def test_sigma_rule(self, tmp_path, sigma, ok):
        # a positive finite number whose square is a positive finite variance
        scene = generate_scene(SyntheticSceneConfig(seed=13))
        scene["observations"][0]["sigma"] = sigma
        p = tmp_path / "scene.json"
        save_scene(scene, p)
        if ok:
            load_scene(p)
        else:
            with pytest.raises(SceneFormatError, match="sigma"):
                load_scene(p)

    def test_state_round_trip(self, tmp_path):
        scene = generate_scene(SyntheticSceneConfig(seed=14))
        state = gt_state(scene)
        tracks = [l["id"] for l in scene["landmarks"]]
        p = tmp_path / "state.json"
        save_state(state, tracks, p)
        loaded, tr = load_state(p)
        assert tr == tracks
        np.testing.assert_array_equal(loaded.landmarks, state.landmarks)
        for a, b in zip(loaded.poses, state.poses):
            np.testing.assert_array_equal(a.q, b.q)
            np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(loaded.fixed_poses, state.fixed_poses)


class TestBuildProblem:
    def test_observation_sigma_feeds_covariance(self):
        scene = generate_scene(SyntheticSceneConfig(seed=15))
        scene["observations"][0]["sigma"] = 2.0
        prob = build_problem(scene, kernel=RobustKernel("huber", 2.0))
        # the information matrices of covariances 4 I and I
        np.testing.assert_allclose(prob.info_stack[0], 0.25 * np.eye(2))
        np.testing.assert_allclose(prob.info_stack[1], np.eye(2))

    def test_sigma_is_squared_per_observation(self):
        # sigma ** 2 in Python; NumPy's array squaring rounds some of these
        # draws one ulp apart, which would move their information matrices
        scene = generate_scene(SyntheticSceneConfig(n_cameras=4, n_landmarks=30, seed=17))
        pool = np.random.default_rng(0).uniform(0.2, 4.0, 20000)
        apart = pool[pool ** 2 != np.array([s ** 2 for s in pool.tolist()])]
        sigmas = np.concatenate([apart, pool])[:len(scene["observations"])]
        for o, sigma in zip(scene["observations"], sigmas.tolist()):
            o["sigma"] = sigma
        ref = loop_problem_table(scene, "static")["info_stack"]
        assert build_problem(scene).info_stack.tobytes() == ref.tobytes()

    def test_window_matches_observations(self):
        scene = generate_scene(SyntheticSceneConfig(seed=16))
        window = scene_window(scene)
        assert len(window) == len(scene["frames"])
        total = sum(len(w) for w in window)
        assert total == len(scene["observations"])

    def test_descfield_model_reproduces_observations_at_theta0(self):
        scene = generate_scene(SyntheticSceneConfig(n_cameras=3,
                                                    n_landmarks=10, seed=17))
        attach_descriptor_field(scene, grid_shape=(5, 5, 4), seed=3)
        prob = build_problem(scene, model="descfield")
        theta0 = prob.theta0()
        for o in scene["observations"][:20]:
            pred = prob.obs_model.observe(o["frame"], o["track"], theta0)
            np.testing.assert_allclose(pred, [o["u"], o["v"]], atol=1e-9)

    def test_track_bias_block_feeds_theta0(self):
        scene = generate_scene(SyntheticSceneConfig(n_cameras=3,
                                                    n_landmarks=10, seed=19))
        scene["track_bias"] = {"values": {"2": [0.5, -0.25]}}
        prob = build_problem(scene, model="trackbias")
        theta0 = prob.theta0()
        slot = prob.obs_model.slots([2])[0]
        np.testing.assert_allclose(theta0[2 * slot:2 * slot + 2], [0.5, -0.25])
        assert np.count_nonzero(theta0) == 2

    def test_temporal_transitions_load(self):
        scene = generate_scene(SyntheticSceneConfig(seed=18))
        attach_temporal(scene, n_transitions=2, seed=4)
        transitions = temporal_transitions(scene)
        assert len(transitions) == 2
        assert all(len(t.pairs) >= 1 for t in transitions)
        assert all(len(t.dense) == len(t.pairs) for t in transitions)
