"""One sha256 per benchmark workload over everything its operations output.

    python3 tests/output_digest.py 1 2 16401

Run from the root of a gradba checkout: gradba is imported from its
``src/`` and the workloads from its ``perfbench/``, which this script only
reads. For each seed it sets up every input of each workload and runs one
operation on each, then hashes

- ``solve-large``: the solved state and the SolveReport;
- ``train-windows``: the solved state, the SolveReport, dL/dtheta, the
  adjoint solve residual and condition number, and the temporal gradient;
- ``cli-pipeline``: the exit codes and the bytes of every file the pipeline
  writes;
- ``gradcheck``, which no workload runs: the exit codes, the scene and the
  ``gradcheck`` reports (``trackbias`` and ``descfield``, ``--fd-subset 6``)
  of a 6-camera arc scene with a descriptor field, drawn with the seed;
- ``scenes``, only when asked for: the ``dumps_scene`` bytes of every scene
  that ``scene.generate_scene`` returns while each workload sets up its
  inputs. It runs no operation, so it checks the generator alone, quickly:

    python3 tests/output_digest.py --workload scenes 1 2 16401

Two checkouts whose digests agree on a seed produced byte-identical outputs
on it. The file is not named ``test_*``, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CLI_FILES = ("scene.json", "state.json", "init.tum", "est.tum", "report.json",
             "metrics.json")


def _state(h, xs):
    for a in (xs.q, xs.t, xs.landmarks, xs.fixed_poses, xs.fixed_landmarks):
        h.update(a.tobytes())


def _report(h, rep):
    h.update(repr((rep.iterations, rep.final_energy, rep.energies,
                   rep.final_gradient_norm, rep.termination,
                   rep.inactive_factors)).encode())


def _solve_large(h, k, inp, output):
    xs, rep = output
    _state(h, xs)
    _report(h, rep)


def _train_windows(h, k, inp, output):
    xs, rep, grad, g_temporal = output
    _state(h, xs)
    _report(h, rep)
    h.update(grad.dldtheta.tobytes())
    h.update(repr((grad.solve_residual, grad.hessian_condition)).encode())
    h.update(g_temporal.tobytes())


def _cli_pipeline(h, k, inp, output):
    h.update(repr(output).encode())
    for name in CLI_FILES:
        with open(os.path.join(inp["dir"], name), "rb") as fh:
            h.update(fh.read())


DIGESTS = {"solve-large": _solve_large, "train-windows": _train_windows,
           "cli-pipeline": _cli_pipeline}
GRADCHECK_MODELS = ("trackbias", "descfield")


def digest(workload_cls, seeds, workdir):
    h = hashlib.sha256()
    for seed in seeds:
        wl = workload_cls(seed, os.path.join(workdir, f"{workload_cls.name}-{seed}"))
        try:
            for k in range(wl.n_inputs):
                inp = wl.setup(k)
                _, output = wl.run(k, inp)
                DIGESTS[wl.name](h, k, inp, output)
        finally:
            wl.close()
    return h.hexdigest()


def gradcheck_digest(seeds, workdir):
    from gradba.cli import main as cli

    h = hashlib.sha256()
    for seed in seeds:
        base = os.path.join(workdir, f"gradcheck-{seed}")
        os.makedirs(base)
        config, scene = os.path.join(base, "config.json"), os.path.join(base, "scene.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"scene": {"n_cameras": 6, "n_landmarks": 40, "trajectory": "arc",
                                 "seed": seed},
                       "noise": {"sigma": 0.6}, "descriptor_field": {"attach": True}}, fh)
        reports = [os.path.join(base, f"{model}.json") for model in GRADCHECK_MODELS]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli(["synth", "--config", config, "--out", scene])]
            codes += [cli(["gradcheck", "--scene", scene, "--model", model,
                           "--fd-subset", "6", "--report", report])
                      for model, report in zip(GRADCHECK_MODELS, reports)]
        h.update(repr(codes).encode())
        for path in [scene] + reports:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def scenes_digest(workloads, seeds, workdir):
    from gradba import scene

    h = hashlib.sha256()
    generate = scene.generate_scene

    def recorded(cfg):
        sc = generate(cfg)
        h.update(scene.dumps_scene(sc).encode())
        return sc

    scene.generate_scene = recorded
    try:
        for seed in seeds:
            for cls in workloads:
                wl = cls(seed, os.path.join(workdir, f"scenes-{cls.name}-{seed}"))
                try:
                    for k in range(wl.n_inputs):
                        wl.setup(k)
                finally:
                    wl.close()
    finally:
        scene.generate_scene = generate
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    p.add_argument("--workload", choices=sorted(DIGESTS) + ["gradcheck", "scenes"],
                   action="append",
                   help="digest only this workload, gradcheck or scenes (repeatable)")
    args = p.parse_args(argv)
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or [*DIGESTS, "gradcheck"]:
            if name == "gradcheck":
                value = gradcheck_digest(args.seeds, workdir)
            elif name == "scenes":
                value = scenes_digest(WORKLOADS.values(), args.seeds, workdir)
            else:
                value = digest(WORKLOADS[name], args.seeds, workdir)
            print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
