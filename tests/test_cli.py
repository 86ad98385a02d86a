import json

import numpy as np
import pytest

from gradba import scene as scn
from gradba import trajectory as trj
from gradba.cli import _kernel, main


@pytest.fixture
def workdir(tmp_path):
    config = {
        "scene": {"n_cameras": 6, "n_landmarks": 40, "trajectory": "arc",
                  "seed": 11},
        "noise": {"sigma": 0.6, "outlier_ratio": 0.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return tmp_path, str(cfg)


def run_pipeline(tmp_path, cfg, tag):
    sc = str(tmp_path / f"scene{tag}.json")
    st = str(tmp_path / f"state{tag}.json")
    it = str(tmp_path / f"init{tag}.tum")
    et = str(tmp_path / f"est{tag}.tum")
    rp = str(tmp_path / f"report{tag}.json")
    gt = str(tmp_path / f"gt{tag}.tum")
    mi = str(tmp_path / f"metrics{tag}.json")
    assert main(["synth", "--config", cfg, "--out", sc]) == 0
    assert main(["init", "--scene", sc, "--config", cfg,
                 "--out-state", st, "--out-traj", it]) == 0
    assert main(["solve", "--scene", sc, "--state", st, "--config", cfg,
                 "--out-traj", et, "--report", rp]) == 0
    scene = scn.load_scene(sc)
    trj.write_tum(trj.records_from_poses(scn.gt_poses(scene),
                                         scn.timestamps(scene)), gt)
    assert main(["eval", "--est", et, "--gt", gt, "--align", "sim",
                 "--report", mi]) == 0
    return sc, mi, rp


class TestPipeline:
    def test_full_pipeline_and_determinism(self, workdir):
        tmp_path, cfg = workdir
        sc1, m1, r1 = run_pipeline(tmp_path, cfg, "a")
        sc2, m2, r2 = run_pipeline(tmp_path, cfg, "b")
        assert (tmp_path / "scenea.json").read_bytes() == \
            (tmp_path / "sceneb.json").read_bytes()
        assert (tmp_path / "metricsa.json").read_bytes() == \
            (tmp_path / "metricsb.json").read_bytes()
        assert (tmp_path / "reporta.json").read_bytes() == \
            (tmp_path / "reportb.json").read_bytes()
        metrics = json.loads((tmp_path / "metricsa.json").read_text())
        assert metrics["ate"] < 0.05
        report = json.loads((tmp_path / "reporta.json").read_text())
        assert np.all(np.diff(report["energies"]) <= 0)

    def test_gradcheck_static_and_trackbias(self, workdir):
        tmp_path, cfg = workdir
        sc = str(tmp_path / "scene.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        rep = str(tmp_path / "grad_static.json")
        assert main(["gradcheck", "--scene", sc, "--model", "static",
                     "--report", rep]) == 0
        payload = json.loads((tmp_path / "grad_static.json").read_text())
        assert payload["theta_dim"] == 0
        rep2 = str(tmp_path / "grad_tb.json")
        assert main(["gradcheck", "--scene", sc, "--model", "trackbias",
                     "--fd-step", "1e-5", "--fd-subset", "12",
                     "--report", rep2]) == 0
        payload = json.loads((tmp_path / "grad_tb.json").read_text())
        assert payload["max_rel_err_fd"] < 1e-4
        assert payload["max_rel_err_unrolled"] < 1e-3

    def test_gradcheck_descfield(self, workdir, tmp_path):
        _, cfg = workdir
        sc = str(tmp_path / "scene_df.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        scene = scn.load_scene(sc)
        scn.attach_descriptor_field(scene, grid_shape=(4, 4, 3), seed=9)
        scn.save_scene(scene, sc)
        rep = str(tmp_path / "grad_df.json")
        assert main(["gradcheck", "--scene", sc, "--model", "descfield",
                     "--fd-subset", "8", "--report", rep]) == 0
        payload = json.loads((tmp_path / "grad_df.json").read_text())
        assert payload["max_rel_err_fd"] < 1e-4
        assert len(payload["checked_indices"]) == 8

    def test_temporal_loss_subcommand(self, workdir, tmp_path):
        _, cfg = workdir
        sc = str(tmp_path / "scene_t.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        scene = scn.load_scene(sc)
        scn.attach_temporal(scene, seed=5)
        scn.save_scene(scene, sc)
        rep = str(tmp_path / "temporal.json")
        assert main(["temporal-loss", "--scene", sc, "--report", rep]) == 0
        payload = json.loads((tmp_path / "temporal.json").read_text())
        assert payload["phi_sum"] >= 0
        assert len(payload["transitions"]) == 3

    def test_synth_scenes_pass_temporal_loss(self, tmp_path):
        # the chained endpoints of every synthesized temporal section lie in
        # their patches; unclamped, seeds 5, 6, 11, 21, 26, 31, 34 and 35 failed
        cfg, sc = tmp_path / "config.json", str(tmp_path / "scene.json")
        for seed in range(40):
            cfg.write_text(json.dumps({
                "scene": {"n_cameras": 6, "n_landmarks": 40, "trajectory": "arc",
                          "seed": seed},
                "temporal": {"attach": True}, "descriptor_field": {"attach": True}}))
            assert main(["synth", "--config", str(cfg), "--out", sc]) == 0
            assert main(["temporal-loss", "--scene", sc]) == 0, seed

    def test_error_path_stage_tagged(self, tmp_path, capsys):
        # a two-frame window cannot be initialized: expect exit 1 with a
        # stage-tagged line on stderr
        scene = scn.generate_scene(scn.SyntheticSceneConfig(
            n_cameras=2, n_landmarks=8, seed=0))
        p = tmp_path / "tiny.json"
        scn.save_scene(scene, p)
        rc = main(["init", "--scene", str(p), "--out-state",
                   str(tmp_path / "s.json"), "--out-traj",
                   str(tmp_path / "t.tum")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[init]" in err


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line]


def _repeat_frame_id(sc):
    """The last frame takes the id of the one before it; its observations go."""
    last = sc["frames"][-1]
    sc["observations"] = [o for o in sc["observations"] if o["frame"] != last["id"]]
    last["id"] = sc["frames"][-2]["id"]


# each edit of a synthesized scene that init must refuse with error[harness]:
# ids are unique JSON integers, timestamps finite and strictly increasing numbers
SCENE_EDITS = {
    "landmark_id_list": lambda sc: sc["landmarks"][0].update(id=[0]),
    "frame_id_dict": lambda sc: sc["frames"][0].update(id={"id": 0}),
    "frame_id_bool": lambda sc: sc["frames"][1].update(id=True),
    "frame_id_float": lambda sc: sc["frames"][0].update(id=0.0),
    "frame_id_repeated": _repeat_frame_id,
    "landmark_id_repeated": lambda sc: sc["landmarks"].append(dict(sc["landmarks"][0])),
    "observation_track_list": lambda sc: sc["observations"][0].update(track=[0]),
    "observation_frame_bool": lambda sc: sc["observations"][0].update(frame=False),
    "timestamp_string": lambda sc: sc["frames"][1].update(timestamp="0.1"),
    "timestamp_nan": lambda sc: sc["frames"][1].update(timestamp=float("nan")),
    "timestamp_repeated": lambda sc: sc["frames"][1].update(timestamp=0.0),
    "timestamp_decreasing": lambda sc: sc["frames"][2].update(timestamp=0.05),
}

# each edit of an init state file that solve must refuse with error[harness]
STATE_EDITS = {
    "q_wxyz": lambda doc: doc["poses"][1].pop("q_wxyz"),
    "q_wxyz_not_numbers": lambda doc: doc["poses"][1].update(q_wxyz="abc"),
    "short_position": lambda doc: doc["landmarks"][0].update(position=[1, 2]),
    "pose_fixed_string": lambda doc: doc["poses"][1].update(fixed="yes"),
    "landmark_fixed_string": lambda doc: doc["landmarks"][0].update(fixed="no"),
    "pose_fixed_list": lambda doc: doc["poses"][1].update(fixed=[1]),
    "track_list": lambda doc: doc["landmarks"][0].update(track=[3]),
    "track_string": lambda doc: doc["landmarks"][0].update(track="3"),
    "track_repeated": lambda doc: doc["landmarks"][1].update(track=doc["landmarks"][0]["track"]),
    "track_not_in_scene": lambda doc: doc["landmarks"][0].update(track=10 ** 6),
    "extra_pose": lambda doc: doc["poses"].append(dict(doc["poses"][-1])),
    "missing_pose": lambda doc: doc["poses"].pop(),
}


class TestFailureContract:
    def test_nan_observation_fails_in_solver(self, workdir, capsys):
        tmp_path, cfg = workdir
        sc, st = str(tmp_path / "scene.json"), str(tmp_path / "state.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        assert main(["init", "--scene", sc, "--config", cfg,
                     "--out-state", st, "--out-traj",
                     str(tmp_path / "init.tum")]) == 0
        scene = scn.load_scene(sc)
        scene["observations"][0]["u"] = float("nan")
        scn.save_scene(scene, sc)
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main(["solve", "--scene", sc, "--state", st, "--config", cfg,
                   "--out-traj", str(tmp_path / "est.tum"),
                   "--report", str(report)])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[solver]: ")
        assert not report.exists()

    def test_non_unique_alignment_is_stage_tagged(self, tmp_path, capsys):
        # collinear camera centres leave the alignment rotation about the
        # line free, so the pose loss has no gradient
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps({"scene": {
            "n_cameras": 6, "n_landmarks": 40, "trajectory": "line", "seed": 3}}))
        sc = str(tmp_path / "line_scene.json")
        assert main(["synth", "--config", str(cfg), "--out", sc]) == 0
        capsys.readouterr()
        report = tmp_path / "grad.json"
        rc = main(["gradcheck", "--scene", sc, "--model", "trackbias",
                   "--fd-subset", "8", "--report", str(report)])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[implicit]: ")
        assert not report.exists()

    @pytest.mark.parametrize("case", ["unknown_key", "missing", "malformed",
                                      "energy_relative_tolerance"])
    def test_config_errors_are_stage_tagged(self, tmp_path, capsys, case):
        cfg = tmp_path / "config.json"
        if case == "unknown_key":
            cfg.write_text(json.dumps({"solver": {"bogus_key": 1}}))
        elif case == "energy_relative_tolerance":
            # a removed solver setting is an unknown key
            cfg.write_text(json.dumps({"solver": {case: 1e-10}}))
        elif case == "malformed":
            cfg.write_text('{"solver": {"max_iterations": 5,')
        sc = str(tmp_path / "scene.json")
        rc = main(["synth", "--config", str(cfg), "--out", sc])
        if case in ("unknown_key", "energy_relative_tolerance"):
            # synth does not read the solver section; solve does
            assert rc == 0
            st = str(tmp_path / "state.json")
            assert main(["init", "--scene", sc, "--out-state", st,
                         "--out-traj", str(tmp_path / "init.tum")]) == 0
            capsys.readouterr()
            rc = main(["solve", "--scene", sc, "--state", st,
                       "--config", str(cfg), "--out-traj",
                       str(tmp_path / "est.tum")])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")

    @pytest.mark.parametrize("case", ["frame", "track", "u", "v", "missing",
                                      "malformed", "frame_id", "negative_fx",
                                      "u_not_a_number", "nan_cx", "repeated_observation",
                                      "sigma_zero", "sigma_string", "sigma_negative",
                                      "sigma_nan", "track_bias_empty", "track_bias_short",
                                      *sorted(SCENE_EDITS)])
    def test_scene_errors_are_stage_tagged(self, workdir, capsys, case):
        tmp_path, cfg = workdir
        sc = tmp_path / "scene.json"
        assert main(["synth", "--config", cfg, "--out", str(sc)]) == 0
        if case == "missing":
            sc.unlink()
        elif case == "malformed":
            sc.write_text(sc.read_text()[:-10])
        else:
            scene = json.loads(sc.read_text())
            if case == "frame_id":
                del scene["frames"][0]["id"]
            elif case == "negative_fx":
                scene["intrinsics"]["fx"] = -500.0
            elif case == "u_not_a_number":
                scene["observations"][0]["u"] = "abc"
            elif case == "nan_cx":
                scene["intrinsics"]["cx"] = float("nan")
            elif case == "repeated_observation":
                first = scene["observations"][0]
                scene["observations"].append(dict(first, u=first["u"] + 50.0))
            elif case in SCENE_EDITS:
                SCENE_EDITS[case](scene)
            elif case == "track_bias_empty":
                scene["track_bias"] = {}
            elif case == "track_bias_short":
                scene["track_bias"] = {"values": {"0": [1.0]}}
            elif case.startswith("sigma_"):
                scene["observations"][0]["sigma"] = {
                    "sigma_zero": 0, "sigma_string": "x", "sigma_negative": -1,
                    "sigma_nan": float("nan")}[case]
            else:
                del scene["observations"][0][case]
            sc.write_text(json.dumps(scene))
        capsys.readouterr()
        rc = main(["init", "--scene", str(sc), "--out-state",
                   str(tmp_path / "state.json"), "--out-traj",
                   str(tmp_path / "init.tum")])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")

    @pytest.mark.parametrize("case", ["missing", "malformed"] + sorted(STATE_EDITS))
    def test_state_errors_are_stage_tagged(self, workdir, capsys, case):
        tmp_path, cfg = workdir
        sc, st = str(tmp_path / "scene.json"), tmp_path / "state.json"
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        assert main(["init", "--scene", sc, "--config", cfg, "--out-state",
                     str(st), "--out-traj", str(tmp_path / "init.tum")]) == 0
        if case == "missing":
            st.unlink()
        elif case == "malformed":
            st.write_text(st.read_text()[:-10])
        else:
            doc = json.loads(st.read_text())
            STATE_EDITS[case](doc)
            st.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["solve", "--scene", sc, "--state", str(st),
                   "--out-traj", str(tmp_path / "est.tum")])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")

    @pytest.mark.parametrize("case", ["short_grid", "missing_grid",
                                      "missing_grid_shape", "nan_grid",
                                      "short_ref"])
    def test_descriptor_field_errors_are_stage_tagged(self, workdir, capsys, case):
        tmp_path, cfg = workdir
        sc = str(tmp_path / "scene.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        scene = scn.load_scene(sc)
        scn.attach_descriptor_field(scene, grid_shape=(4, 4, 3), seed=9)
        blk = scene["descriptor_field"]
        if case == "short_grid":
            blk["grids"]["0"].pop()
        elif case == "missing_grid":
            del blk["grids"]["1"]
        elif case == "missing_grid_shape":
            del blk["grid_shape"]
        elif case == "nan_grid":
            blk["grids"]["2"][5] = float("nan")
        else:
            blk["refs"]["0"].pop()
        scn.save_scene(scene, sc)
        capsys.readouterr()
        rc = main(["gradcheck", "--scene", sc, "--model", "descfield",
                   "--fd-subset", "8"])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")

    @pytest.mark.parametrize("case", ["missing_long", "short_grid",
                                      "transitions_not_a_list", "unknown_frame",
                                      "unknown_track", "nan_long", "inf_origin",
                                      "two_entry_grid_shape", "one_row_grid_shape"])
    @pytest.mark.parametrize("command", ["temporal-loss", "gradcheck"])
    def test_temporal_errors_are_stage_tagged(self, workdir, capsys, command, case):
        tmp_path, cfg = workdir
        sc = str(tmp_path / "scene.json")
        assert main(["synth", "--config", cfg, "--out", sc]) == 0
        scene = scn.load_scene(sc)
        scn.attach_temporal(scene, grid_shape=(5, 5, 3), seed=5)
        blk = scene["temporal"]
        item = blk["transitions"][0]["items"][0]
        if case == "missing_long":
            del item["long"]
        elif case == "short_grid":
            item["grid"].pop()
        elif case == "transitions_not_a_list":
            blk["transitions"] = "x"
        elif case == "unknown_frame":
            blk["transitions"][0]["frame"] = 99
        elif case == "unknown_track":
            item["track"] = 9999
        elif case == "nan_long":
            item["long"][0] = float("nan")
        elif case == "inf_origin":
            item["origin"][1] = float("inf")
        elif case == "two_entry_grid_shape":
            item["grid_shape"] = [5, 15]
        else:
            item["grid_shape"] = [1, 25, 3]
        scn.save_scene(scene, sc)
        capsys.readouterr()
        args = {"temporal-loss": [],
                "gradcheck": ["--model", "trackbias", "--fd-subset", "8"]}[command]
        rc = main([command, "--scene", sc, *args])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")

    @pytest.mark.parametrize("case", ["missing", "nan"])
    def test_trajectory_errors_are_stage_tagged(self, tmp_path, capsys, case):
        rows = [f"{k}.0 {k} {k * k} 0 0 0 0 1" for k in range(4)]
        gt, est = tmp_path / "gt.tum", tmp_path / "est.tum"
        gt.write_text("\n".join(rows) + "\n")
        if case == "nan":
            rows[2] = "2.0 2 nan 0 0 0 0 1"
            est.write_text("\n".join(rows) + "\n")
        rc = main(["eval", "--est", str(est), "--gt", str(gt)])
        assert rc == 1
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error[harness]: ")


@pytest.mark.parametrize("config, expected", [
    ({}, ("huber", 2.0)),
    ({"kernel": {}}, ("huber", 2.0)),
    ({"kernel": {"delta": 3.0}}, ("huber", 3.0)),
    ({"kernel": {"kind": "none"}}, None),
])
def test_kernel_section_without_kind_means_huber(config, expected):
    kernel = _kernel(config)
    assert (kernel and (kernel.kind, kernel.delta)) == expected
