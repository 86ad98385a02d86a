"""Command-line interface: synth / init / solve / gradcheck / temporal-loss / eval.

All subcommands exit 0 on success and 1 with a stage-tagged error line on
failure, a malformed command line included. The shared config file is JSON
with optional sections

    solver / window / ransac / temporal / noise / scene / kernel / descriptor_field

where each field falls back to the package defaults. ``scene`` configures the
synthetic generator geometry; ``noise`` configures the pixel noise and
outliers applied by ``synth``; ``kernel`` selects the robust kernel used by
``solve``, Huber unless ``"kind": "none"``. A missing or malformed config
file, an unknown section or key, a value not of its field's JSON type (an
integer, not a boolean, for an int field; a finite number for a float
field; a boolean or a string for a bool or str field) and a value the
section's settings reject fail with ``error[harness]``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing

import numpy as np

from . import scene as scn
from . import temporal as tmp
from . import trajectory as trj
from .errors import GradbaError, SceneFormatError
from .implicit import (ImplicitGradRequest, PoseErrorLoss, fd_gradient,
                       implicit_gradient, max_rel_error,
                       unrolled_gradient_oracle)
from .initializer import RansacConfig, WindowConfig, run_initialization
from .problem import RobustKernel
from .solver import SolverSettings, linearize, optimize

GRADCHECK_SETTINGS = dict(gradient_tolerance=1e-11, max_iterations=300)
CONFIG_SECTIONS = ("scene", "noise", "solver", "window", "ransac", "temporal",
                   "kernel", "descriptor_field")
_NOISE_TYPES = {"sigma": float, "outlier_ratio": float, "outlier_px": float, "seed": int}
_ATTACH_TYPES = {"attach": bool}
_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}


def load_config(path):
    """The config file as a dict; a missing or malformed file raises
    SceneFormatError."""
    if path is None:
        return {}
    config = scn.read_json(path, "config")
    _check_keys(config, "config", CONFIG_SECTIONS)
    return config


def _check_keys(fields, where, known):
    if not isinstance(fields, dict):
        raise SceneFormatError(f"{where}: must be an object")
    unknown = sorted(set(fields) - set(known))
    if unknown:
        raise SceneFormatError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _of_json_type(value, kind):
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind)


def _fields(config, name, types):
    """The config section ``name``, whose keys must be those of ``types``
    and whose values must be of their key's JSON type; raises
    SceneFormatError otherwise."""
    fields, where = config.get(name, {}), f"config section {name!r}"
    _check_keys(fields, where, types)
    for key, value in fields.items():
        if not _of_json_type(value, types[key]):
            raise SceneFormatError(f"{where}: {key} must be {_JSON_TYPES[types[key]]}, "
                                   f"not {json.dumps(value)}")
    return fields


def _section(config, name, cls, extra=None, **defaults):
    """Build ``cls`` from a config section; unknown keys, values not of their
    field's type and rejected values raise SceneFormatError. ``extra`` maps
    keys read elsewhere to their types; they are checked and skipped."""
    hints = typing.get_type_hints(cls)
    known = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    fields = _fields(config, name, {**known, **(extra or {})})
    kwargs = {**defaults, **{k: v for k, v in fields.items() if k in known}}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"config section {name!r}: {exc}") from exc


def _settings(config, tight=False):
    return _section(config, "solver", SolverSettings,
                    **(GRADCHECK_SETTINGS if tight else {}))


def _kernel(config):
    kernel = _section(config, "kernel", RobustKernel, kind="huber")
    return None if kernel.kind == "none" else kernel


def _temporal_terms(config):
    return _section(config, "temporal", tmp.TemporalEnergy, extra=_ATTACH_TYPES)


def _write_json(payload, path):
    # serialized first: a non-finite value raises before the file is opened
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_synth(args):
    config = load_config(args.config)
    noise = _fields(config, "noise", _NOISE_TYPES)
    defaults = {"pixel_sigma": noise.get("sigma", 0.0),
                "outlier_ratio": noise.get("outlier_ratio", 0.0),
                "outlier_px": noise.get("outlier_px", 20.0)}
    if "seed" in noise:
        defaults["seed"] = noise["seed"]
    cfg = _section(config, "scene", scn.SyntheticSceneConfig, **defaults)
    _temporal_terms(config)  # synth reads only its attach, but checks it all
    field = _fields(config, "descriptor_field", _ATTACH_TYPES).get("attach")
    scene = scn.generate_scene(cfg)
    if field:
        scn.attach_descriptor_field(scene, seed=cfg.seed + 2)
    if config.get("temporal", {}).get("attach"):
        scn.attach_temporal(scene, seed=cfg.seed + 3)
    scn.save_scene(scene, args.out)
    print(f"synth: {cfg.n_cameras} cameras, {cfg.n_landmarks} landmarks, "
          f"{len(scene['observations'])} observations -> {args.out}")
    return 0


def cmd_init(args):
    config = load_config(args.config)
    scene = scn.load_scene(args.scene)
    _, K = scn.scene_intrinsics(scene)
    window = scn.scene_window(scene)
    wcfg = _section(config, "window", WindowConfig)
    rcfg = _section(config, "ransac", RansacConfig)
    result = run_initialization(window, K, wcfg, rcfg)
    scn.save_state(result.state, result.track_ids, args.out_state)
    trj.write_tum(trj.records_from_poses(result.state.poses, scn.timestamps(scene)),
                  args.out_traj)
    print(f"init: terminal frame {result.terminal_index}, "
          f"{len(result.track_ids)} tracks, mean reprojection "
          f"{result.diagnostics['mean_reprojection_px']:.4f} px")
    return 0


def cmd_solve(args):
    config = load_config(args.config)
    scene = scn.load_scene(args.scene)
    state, track_ids = scn.load_state(args.state)
    scn.check_state_fits(scene, state, track_ids)
    problem = scn.build_problem(scene, model="static", kernel=_kernel(config),
                                state=state, track_ids=track_ids)
    solved, report = optimize(problem, state, settings=_settings(config))
    trj.write_tum(trj.records_from_poses(solved.poses, scn.timestamps(scene)), args.out_traj)
    if args.report:
        _write_json(dataclasses.asdict(report), args.report)
    print(f"solve: {report.termination} after {report.iterations} iterations, "
          f"energy {report.final_energy:.6g}")
    return 0


def cmd_gradcheck(args):
    if not (math.isfinite(args.fd_step) and args.fd_step > 0):
        raise SceneFormatError(f"--fd-step must be finite and > 0, not {args.fd_step}")
    if args.fd_subset < 1:
        raise SceneFormatError(f"--fd-subset must be >= 1, not {args.fd_subset}")
    config = load_config(args.config)
    scene = scn.load_scene(args.scene)
    problem = scn.build_problem(scene, model=args.model, kernel=None)
    settings = _settings(config, tight=True)
    theta = problem.theta0()
    solved, report = optimize(problem, problem.state, theta, settings)
    loss = PoseErrorLoss(scn.gt_poses(scene))
    sys_ = linearize(problem, solved, theta)
    dldx = loss.grad_tangent(solved, sys_.layout)
    grad = implicit_gradient(ImplicitGradRequest(
        problem, solved, theta, dldx, gradient_tolerance=1e-7,
        linearization=sys_))

    dim = problem.obs_model.theta_dim
    if dim and dim > args.fd_subset:
        # check the most significant coordinates: tiny entries sit at the
        # finite-difference noise floor and say nothing about correctness
        idx = np.sort(np.argsort(np.abs(grad.dldtheta))[-args.fd_subset:])
    else:
        idx = np.arange(dim)
    gfd = fd_gradient(problem, solved, theta, settings, loss, args.fd_step, idx)
    guo = unrolled_gradient_oracle(problem, solved, theta, settings, loss,
                                   args.fd_step, indices=idx)
    err_fd = max_rel_error(grad.dldtheta[idx], gfd)
    err_uo = max_rel_error(grad.dldtheta[idx], guo)
    payload = {
        "model": args.model,
        "theta_dim": int(dim),
        "fd_step": args.fd_step,
        "checked_indices": idx.tolist(),
        "max_rel_err_fd": err_fd,
        "max_rel_err_unrolled": err_uo,
        "solve_residual": grad.solve_residual,
        "hessian_condition": grad.hessian_condition,
        "solver_termination": report.termination,
        "solver_gradient_norm": report.final_gradient_norm,
    }
    if args.report:
        _write_json(payload, args.report)
    print(f"gradcheck[{args.model}]: dim={dim} rel-err fd={err_fd:.3e} "
          f"unrolled={err_uo:.3e}")
    return 0


def cmd_temporal_loss(args):
    config = load_config(args.config)
    scene = scn.load_scene(args.scene)
    transitions = scn.temporal_transitions(scene)
    terms = _temporal_terms(config)
    res = tmp.temporal_energy(terms, transitions)
    payload = {
        "phi_sum": res.value,
        "lambda_t": terms.lambda_t,
        "weighted": terms.lambda_t * res.value,
        "transitions": [
            {"l_mrp": res.l_mrp[k], "l_sim": res.l_sim[k],
             "l_hot": res.l_hot[k], "mrp_empty": bool(res.mrp_empty[k])}
            for k in range(len(transitions))
        ],
    }
    if args.report:
        _write_json(payload, args.report)
    print(f"temporal-loss: phi_sum={res.value:.6g} over "
          f"{len(transitions)} transitions")
    return 0


def cmd_eval(args):
    est = trj.read_tum(args.est)
    gt = trj.read_tum(args.gt)
    payload = {
        "ate": trj.compute_ate(est, gt, args.align),
        "are_deg": trj.compute_are(est, gt, args.align),
        "alignment": args.align,
        "n_frames": len(est),
    }
    if args.report:
        _write_json(payload, args.report)
    print(f"eval: ate={payload['ate']:.6g} are_deg={payload['are_deg']:.6g} "
          f"({args.align} alignment, {len(est)} frames)")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise SceneFormatError, so that ``main``
    reports them as every other failure, instead of exiting 2 with usage."""

    def error(self, message):
        raise SceneFormatError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(
        prog="gradba",
        description="differentiable sparse bundle adjustment toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic scene")
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("init", help="monocular window initialization")
    s.add_argument("--scene", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out-state", required=True)
    s.add_argument("--out-traj", required=True)
    s.set_defaults(fn=cmd_init)

    s = sub.add_parser("solve", help="bundle adjustment from a state file")
    s.add_argument("--scene", required=True)
    s.add_argument("--state", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out-traj", required=True)
    s.add_argument("--report", default=None)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("gradcheck",
                       help="implicit gradients vs finite-difference oracles")
    s.add_argument("--scene", required=True)
    s.add_argument("--model", choices=["static", "trackbias", "descfield"],
                   default="trackbias")
    s.add_argument("--fd-step", type=float, default=1e-5)
    s.add_argument("--fd-subset", type=int, default=40)
    s.add_argument("--config", default=None)
    s.add_argument("--report", default=None)
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("temporal-loss",
                       help="evaluate the temporal consistency energies")
    s.add_argument("--scene", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--report", default=None)
    s.set_defaults(fn=cmd_temporal_loss)

    s = sub.add_parser("eval", help="trajectory error metrics")
    s.add_argument("--est", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--align", choices=["rigid", "sim"], default="sim")
    s.add_argument("--report", default=None)
    s.set_defaults(fn=cmd_eval)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except GradbaError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
