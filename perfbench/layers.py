"""Where the traced run wraps gradba, and the per-layer metrics it reports.

A function imported by name into several modules is wrapped in each of them
(``linearize`` in ``solver``, ``implicit`` and ``cli``), because that is where
its callers look it up.
"""

import statistics

import numpy as np

from gradba import (cli, fivepoint, implicit, initializer, problem, scene,
                    solver, trajectory)


def _solve_report(tracer, result):
    _, report = result
    tracer.add("solver.lm_iterations", report.iterations)
    tracer.add("solver.accepted_steps", len(report.energies) - 1)


def _relative_pose(tracer, result):
    mask = result[2]
    tracer.add("initializer.inliers", int(np.count_nonzero(mask)))
    tracer.add("initializer.correspondences", len(mask))


def targets():
    """(owner, attribute, span name, "span" | "count", on_result) tuples."""
    span = [
        (scene, "generate_scene", "scene.generate"),
        (scene, "attach_descriptor_field", "scene.generate"),
        (scene, "attach_temporal", "scene.generate"),
        (scene, "build_problem", "scene.build_problem"),
        (scene, "save_scene", "scene.io"),
        (scene, "load_scene", "scene.io"),
        (scene, "save_state", "scene.io"),
        (scene, "load_state", "scene.io"),
        (problem, "total_energy", "problem.total_energy"),
        (solver, "total_energy", "problem.total_energy"),
        (problem.ObservationModel, "observe_all", "problem.observe_all"),
        (problem.DescriptorFieldModel, "observe_all", "problem.observe_all"),
        (problem, "temporal_theta_gradient", "problem.temporal_theta_gradient"),
        (solver, "linearize", "solver.linearize"),
        (implicit, "linearize", "solver.linearize"),
        (cli, "linearize", "solver.linearize"),
        (solver, "schur_solve_rhs", "solver.schur_solve"),
        (solver, "apply_step", "solver.apply_step"),
        (implicit, "apply_step", "solver.apply_step"),
        (solver, "exact_hessian_system", "solver.exact_hessian"),
        (implicit, "exact_hessian_system", "solver.exact_hessian"),
        (implicit.PoseErrorLoss, "grad_tangent", "implicit.dldx"),
        (implicit, "schur_solve_rhs", "implicit.adjoint"),
        (implicit, "implicit_gradient", "implicit.gradient"),
        (cli, "run_initialization", "initializer.run"),
        (initializer, "run_initialization", "initializer.run"),
        (initializer, "triangulate", "initializer.triangulate"),
        (initializer, "sigma_obs_from_reproj", "initializer.sigma_obs"),
        (initializer, "pnp_pose", "initializer.pnp"),
        (fivepoint, "essential_from_five", "fivepoint.essential"),
        (trajectory, "write_tum", "trajectory.io"),
        (trajectory, "read_tum", "trajectory.io"),
        (trajectory, "compute_ate", "trajectory.eval"),
        (trajectory, "compute_are", "trajectory.eval"),
        (cli, "main", "cli.main"),
    ]
    out = [(owner, attr, name, "span", None) for owner, attr, name in span]
    out += [(module, "optimize", "solver.optimize", "span", _solve_report)
            for module in (solver, implicit, initializer, cli)]
    out.append((initializer, "estimate_relative_pose", "initializer.relative_pose",
                "span", _relative_pose))
    out += [(model, "observe_jacobian", "problem.observe_jacobian", "count", None)
            for model in (problem.StaticModel, problem.TrackBiasModel,
                          problem.DescriptorFieldModel)]
    return out


# metric -> span whose self time it reports, and the phases it is taken over
SELF_TIMES = {
    "scene.generate_s": ("scene.generate", "setup"),
    "scene.build_problem_s": ("scene.build_problem", "setup"),
    "scene.io_s": ("scene.io", "op"),
    "problem.total_energy_s": ("problem.total_energy", "op"),
    "problem.observe_all_s": ("problem.observe_all", "op"),
    "problem.temporal_theta_gradient_s": ("problem.temporal_theta_gradient", "op"),
    "solver.optimize_s": ("solver.optimize", "op"),
    "solver.linearize_s": ("solver.linearize", "op"),
    "solver.schur_solve_s": ("solver.schur_solve", "op"),
    "solver.apply_step_s": ("solver.apply_step", "op"),
    "solver.exact_hessian_s": ("solver.exact_hessian", "op"),
    "implicit.dldx_s": ("implicit.dldx", "op"),
    "implicit.adjoint_s": ("implicit.adjoint", "op"),
    "implicit.gradient_s": ("implicit.gradient", "op"),
    "initializer.run_s": ("initializer.run", "op"),
    "initializer.relative_pose_s": ("initializer.relative_pose", "op"),
    "initializer.triangulate_s": ("initializer.triangulate", "op"),
    "initializer.sigma_obs_s": ("initializer.sigma_obs", "op"),
    "initializer.pnp_s": ("initializer.pnp", "op"),
    "fivepoint.essential_s": ("fivepoint.essential", "op"),
    "trajectory.io_s": ("trajectory.io", "op"),
    "trajectory.eval_s": ("trajectory.eval", "op"),
    "cli.self_s": ("cli.main", "op"),
}

# counts per timed operation
COUNTS = [
    "problem.total_energy_calls", "problem.observe_jacobian_calls",
    "solver.optimize_calls", "solver.linearize_calls", "solver.schur_solve_calls",
    "solver.apply_step_calls", "solver.lm_iterations", "solver.accepted_steps",
    "initializer.relative_pose_calls", "initializer.triangulate_calls",
    "initializer.pnp_calls", "fivepoint.essential_calls",
]

# ratio -> (numerator count, denominator count), over all timed operations
RATIOS = {
    "solver.accept_ratio": ("solver.accepted_steps", "solver.lm_iterations"),
    "initializer.inlier_ratio": ("initializer.inliers",
                                 "initializer.correspondences"),
}

UNITS = {**{m: "s" for m in SELF_TIMES}, **{m: "count" for m in COUNTS},
         **{m: "ratio" for m in RATIOS}, "trace.overhead_s": "s"}


def metrics(tracer):
    """Self times as medians over the phases of their kind, counts per timed
    operation, ratios over all timed operations; a layer a workload does not
    reach reads 0."""
    kinds = {}
    for phase, kind in tracer.phases:
        kinds.setdefault(kind, []).append(phase)
    self_times = tracer.self_times()
    out = {}
    for metric, (name, kind) in SELF_TIMES.items():
        phases = kinds.get(kind, [])
        values = [self_times.get((ph, name), 0.0) for ph in phases]
        out[metric] = (statistics.median(values) if values else 0.0, "s")
    ops = kinds.get("op", [])

    def total(name):
        return sum(tracer.counts.get((ph, name), 0) for ph in ops)

    for metric in COUNTS:
        out[metric] = (total(metric) / len(ops) if ops else 0.0, "count")
    for metric, (num, den) in RATIOS.items():
        d = total(den)
        out[metric] = (total(num) / d if d else 0.0, "ratio")
    return out
