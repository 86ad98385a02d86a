"""The three benchmark workloads: inputs from a seed, one operation, checks.

A workload has ``n_inputs`` distinct inputs, and a round runs one operation
on each, so every run of a seed does the same mix of work. It has

- ``setup(k)``: generates input ``k`` from the seed and assembles its problem;
- ``run(k, inp)``: one operation; returns (its wall seconds, its output);
- ``check(k, inp, output)``: a list of failed checks, empty when the output
  is right.

gradba is reached through its modules (``scene.generate_scene``, not a name
imported here), so the wrappers of a traced run see every call.
"""

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

from gradba import cli, implicit, problem, scene, solver, temporal
from gradba.geometry import se3_retract

import oracles

HUBER_DELTA = 2.0
# gradba's gradcheck settings: the optimum the implicit gradient needs
TIGHT = dict(gradient_tolerance=1e-11, max_iterations=300)
FD_STEP = 1e-5
FD_RTOL = 1e-4          # acceptance criterion 1 of the gradba test suite
ENERGY_RTOL = 1e-9
SOLVE_RESIDUAL_MAX = 1e-12   # rounding level: 8.1e-16 at worst over 126 windows


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def perturbed_start(state, rng, pose_sigma, lm_sigma):
    """Ground truth with every free pose retracted and every landmark moved
    by seeded Gaussian noise."""
    poses = [p if fixed else se3_retract(p, rng.normal(scale=pose_sigma, size=6))
             for p, fixed in zip(state.poses, state.fixed_poses)]
    lms = state.landmarks + rng.normal(scale=lm_sigma, size=state.landmarks.shape)
    return problem.StateVector(poses, lms, state.fixed_poses, state.fixed_landmarks)


def scene_positions(sc):
    return np.array([f["pose_gt"]["t"] for f in sc["frames"]])


def state_positions(state):
    return np.array([p.t for p in state.poses])


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def input_seed(self, k):
        """Scene seed of input k: no two seeds share a scene."""
        return self.seed * self.n_inputs + k

    def close(self):
        pass


class SolveLarge(Workload):
    """Static-model Huber solves of large orbit scenes, each from a seeded
    perturbation of its ground truth, with default tolerances."""

    name = "solve-large"
    n_inputs = 4
    n_cameras = 24
    n_landmarks = 400

    def setup(self, k):
        s = self.input_seed(k)
        sc = scene.generate_scene(scene.SyntheticSceneConfig(
            n_cameras=self.n_cameras, n_landmarks=self.n_landmarks,
            trajectory="orbit", pixel_sigma=0.5, outlier_ratio=0.03,
            outlier_px=20.0, seed=s))
        prob = scene.build_problem(
            sc, model="static", kernel=problem.RobustKernel("huber", HUBER_DELTA))
        return {"scene": sc, "problem": prob,
                "x0": perturbed_start(prob.state, _rng(s, 1), 0.01, 0.03)}

    def run(self, k, inp):
        t0 = time.perf_counter()
        out = solver.optimize(inp["problem"], inp["x0"])
        return time.perf_counter() - t0, out

    def check(self, k, inp, output):
        sc, prob, x0 = inp["scene"], inp["problem"], inp["x0"]
        xs, rep = output
        errors = []
        it = sc["intrinsics"]
        row = {l["id"]: j for j, l in enumerate(sc["landmarks"])}
        col = {f["id"]: i for i, f in enumerate(sc["frames"])}
        obs = sc["observations"]
        gt = scene_positions(sc)
        energy = oracles.reprojection_energy(
            [(p.q, p.t) for p in xs.poses], xs.landmarks,
            [col[o["frame"]] for o in obs], [row[o["track"]] for o in obs],
            [(o["u"], o["v"]) for o in obs],
            (it["fx"], it["fy"], it["cx"], it["cy"]), HUBER_DELTA)
        energy += oracles.baseline_prior_energy(
            xs.poses[0].t, xs.poses[1].t, float(np.linalg.norm(gt[1] - gt[0])),
            prob.scale_prior.weight)
        if not oracles.rel_close(energy, rep.final_energy, ENERGY_RTOL):
            errors.append(f"oracle energy {energy!r} != reported "
                          f"{rep.final_energy!r}")
        if any(b > a for a, b in zip(rep.energies, rep.energies[1:])):
            errors.append("accepted energies increase")
        if not rep.termination.startswith("converged_"):
            errors.append(f"termination {rep.termination}")
        ate0 = oracles.sim3_ate(state_positions(x0), gt)
        ate = oracles.sim3_ate(state_positions(xs), gt)
        if not ate < ate0:
            errors.append(f"solved ATE {ate:.3e} not below start ATE {ate0:.3e}")
        return errors


class TrainWindows(Workload):
    """A seeded stream of small descriptor-field windows with temporal terms;
    each operation is one training step on one window."""

    name = "train-windows"
    n_inputs = 6
    n_cameras = 8
    n_landmarks = 60

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first_outputs = {}

    def setup(self, k):
        s = self.input_seed(k)
        sc = scene.generate_scene(scene.SyntheticSceneConfig(
            n_cameras=self.n_cameras, n_landmarks=self.n_landmarks,
            trajectory="orbit", pixel_sigma=0.5, seed=s))
        scene.attach_descriptor_field(sc, seed=s + 2)
        scene.attach_temporal(sc, seed=s + 3)
        prob = scene.build_problem(sc, model="descfield")
        return {"problem": prob, "theta": prob.theta0(),
                "x0": perturbed_start(prob.state, _rng(s, 1), 0.005, 0.01),
                "loss": implicit.PoseErrorLoss(scene.gt_poses(sc))}

    def run(self, k, inp):
        prob, theta, loss = inp["problem"], inp["theta"], inp["loss"]
        t0 = time.perf_counter()
        xs, rep = solver.optimize(prob, inp["x0"], theta,
                                  solver.SolverSettings(**TIGHT))
        dldx = loss.grad_tangent(xs, solver.SystemLayout(xs))
        grad = implicit.implicit_gradient(implicit.ImplicitGradRequest(
            prob, xs, theta, dldx, gradient_tolerance=1e-7,
            hessian_mode="exact"))
        g_temporal = problem.temporal_theta_gradient(prob, theta)
        return time.perf_counter() - t0, (xs, rep, grad, g_temporal)

    def check(self, k, inp, output):
        """The first output of each window is checked against the oracles;
        later ones must repeat it bit for bit."""
        if k in self.first_outputs:
            return self._same_as_first(k, output)
        self.first_outputs[k] = output
        prob, theta, loss = inp["problem"], inp["theta"], inp["loss"]
        xs, rep, grad, g_temporal = output
        errors = []
        tight = solver.SolverSettings(**TIGHT)

        def resolved_loss(th):
            return loss.value(solver.optimize(prob, xs, th, tight)[0])

        g = grad.dldtheta
        v = g / np.linalg.norm(g)
        fd = oracles.directional_central_difference(resolved_loss, theta, v, FD_STEP)
        if not oracles.rel_close(float(g @ v), fd, FD_RTOL):
            errors.append(f"dL/dtheta . v = {g @ v!r}, re-solved central "
                          f"difference {fd!r}")

        att = prob.temporal_terms

        def temporal_term(th):
            tr = att.build(prob.obs_model, th)
            return att.terms.lambda_t * temporal.temporal_energy(att.terms, tr).value

        vt = g_temporal / np.linalg.norm(g_temporal)
        fdt = oracles.directional_central_difference(temporal_term, theta, vt, FD_STEP)
        if not oracles.rel_close(float(g_temporal @ vt), fdt, FD_RTOL):
            errors.append(f"temporal gradient . v = {g_temporal @ vt!r}, central "
                          f"difference {fdt!r}")
        if not grad.solve_residual <= SOLVE_RESIDUAL_MAX:
            errors.append(f"adjoint solve residual {grad.solve_residual:.3e}")
        if not rep.termination.startswith("converged_"):
            errors.append(f"termination {rep.termination}")
        return errors

    def _same_as_first(self, k, output):
        xs, rep, grad, g_temporal = output
        xs0, rep0, grad0, g_temporal0 = self.first_outputs[k]
        same = (rep.energies == rep0.energies
                and np.array_equal(state_positions(xs), state_positions(xs0))
                and np.array_equal(xs.landmarks, xs0.landmarks)
                and np.array_equal(grad.dldtheta, grad0.dldtheta)
                and np.array_equal(g_temporal, g_temporal0))
        return [] if same else ["step output differs from the window's first step"]


class CliPipeline(Workload):
    """``synth -> init -> solve -> eval`` through ``gradba.cli.main`` on noisy
    arc scenes with outliers, each in its own work directory."""

    name = "cli-pipeline"
    n_inputs = 3
    n_cameras = 12
    n_landmarks = 160
    noise = {"sigma": 0.5, "outlier_ratio": 0.03, "outlier_px": 20.0}

    def setup(self, k):
        """The config file, and the scene synth will write, generated
        in-process for the reference trajectory and for the synth check."""
        fields = {"n_cameras": self.n_cameras, "n_landmarks": self.n_landmarks,
                  "trajectory": "arc", "seed": self.input_seed(k)}
        sc = scene.generate_scene(scene.SyntheticSceneConfig(
            **fields, pixel_sigma=self.noise["sigma"],
            outlier_ratio=self.noise["outlier_ratio"],
            outlier_px=self.noise["outlier_px"]))
        quats = [[*f["pose_gt"]["q_wxyz"][1:], f["pose_gt"]["q_wxyz"][0]]
                 for f in sc["frames"]]
        gt_text = oracles.format_tum([f["timestamp"] for f in sc["frames"]],
                                     scene_positions(sc), quats)
        d = os.path.join(self.dir, str(k))
        os.makedirs(d, exist_ok=True)
        for name, text in (("config.json", json.dumps(
                {"scene": fields, "noise": self.noise})), ("gt.tum", gt_text)):
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return {"dir": d, "scene_text": scene.dumps_scene(sc), "gt_text": gt_text}

    def run(self, k, inp):
        def p(name):
            return os.path.join(inp["dir"], name)

        for name in ("scene.json", "state.json", "init.tum", "est.tum",
                     "report.json", "metrics.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(p(name))
        commands = [
            ["synth", "--config", p("config.json"), "--out", p("scene.json")],
            ["init", "--scene", p("scene.json"), "--config", p("config.json"),
             "--out-state", p("state.json"), "--out-traj", p("init.tum")],
            ["solve", "--scene", p("scene.json"), "--state", p("state.json"),
             "--config", p("config.json"), "--out-traj", p("est.tum"),
             "--report", p("report.json")],
            ["eval", "--est", p("est.tum"), "--gt", p("gt.tum"), "--align",
             "sim", "--report", p("metrics.json")],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            codes = [cli.main(argv) for argv in commands]
            return time.perf_counter() - t0, codes

    def check(self, k, inp, output):
        errors = [f"{cmd} exited {rc}" for cmd, rc in
                  zip(("synth", "init", "solve", "eval"), output) if rc != 0]
        if errors:
            return errors
        texts = {}
        for name in ("scene.json", "state.json", "report.json", "metrics.json",
                     "est.tum"):
            with open(os.path.join(inp["dir"], name), encoding="utf-8") as fh:
                texts[name] = fh.read()
        try:
            report = oracles.strict_json_loads(texts["report.json"])
            metrics = oracles.strict_json_loads(texts["metrics.json"])
        except ValueError as exc:
            return [f"report is not valid JSON: {exc}"]
        _, gt, _ = oracles.parse_tum(inp["gt_text"])
        _, est, _ = oracles.parse_tum(texts["est.tum"])
        ate = oracles.sim3_ate(est, gt)
        if not oracles.rel_close(ate, metrics["ate"], ENERGY_RTOL):
            errors.append(f"oracle ATE {ate!r} != metrics.json {metrics['ate']!r}")
        start = self._start_energy(texts["scene.json"], texts["state.json"])
        energies = report["energies"]
        if not oracles.rel_close(start, energies[0], ENERGY_RTOL):
            errors.append(f"oracle energy at the initializer state {start!r} "
                          f"!= reported {energies[0]!r}")
        if any(b > a for a, b in zip(energies, energies[1:])):
            errors.append("accepted energies increase")
        if not report["termination"].startswith("converged_"):
            errors.append(f"termination {report['termination']}")
        if texts["scene.json"] != inp["scene_text"]:
            errors.append("synth scene differs from the in-process scene")
        reread = scene.dumps_scene(scene.load_scene(os.path.join(inp["dir"], "scene.json")))
        if reread != texts["scene.json"]:
            errors.append("scene write -> read -> write is not byte-identical")
        return errors

    @staticmethod
    def _start_energy(scene_text, state_text):
        """Oracle Huber energy of the initializer's state over the scene's
        observations of its tracks, as ``solve`` assembles them. The scale
        prior is zero there: its target is the state's own baseline."""
        sc = oracles.strict_json_loads(scene_text)
        st = oracles.strict_json_loads(state_text)
        row = {l["track"]: j for j, l in enumerate(st["landmarks"])}
        col = {f["id"]: i for i, f in enumerate(sc["frames"])}
        obs = [o for o in sc["observations"] if o["track"] in row]
        it = sc["intrinsics"]
        return oracles.reprojection_energy(
            [(p["q_wxyz"], p["t"]) for p in st["poses"]],
            [l["position"] for l in st["landmarks"]],
            [col[o["frame"]] for o in obs], [row[o["track"]] for o in obs],
            [(o["u"], o["v"]) for o in obs],
            (it["fx"], it["fy"], it["cx"], it["cy"]), HUBER_DELTA)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SolveLarge, TrainWindows, CliPipeline)}
