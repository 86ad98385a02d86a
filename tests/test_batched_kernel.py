"""The batched factor kernel and theta gradients against their per-factor
loop references.

Where the arithmetic is unchanged (the segment sums that assemble the
blocks, the observation lookups) the results must be equal bit for bit.
Elsewhere the tolerance is RTOL, relative to the largest reference entry; it
was fixed before the batched code was written and must not be loosened.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import gradba.solver as solver_mod
from gradba import scene as scn
from gradba.geometry import quat_to_matrix
from gradba.implicit import (ImplicitGradRequest, PoseErrorLoss,
                             implicit_gradient)
from gradba.problem import (DescriptorFieldModel, RobustKernel, StateVector,
                            StaticModel, evaluate_residuals,
                            temporal_theta_gradient)
from gradba.solver import (_POSE_BLOCK, _SYMMETRIC, LinearizationPlan,
                           LinearizedSystem, SolverSettings, _add_blocks,
                           exact_hessian_system, linearize, optimize)

from conftest import build_ba_problem, problem_like
from loop_reference import (loop_assemble, loop_exact_hessian, loop_linearize,
                            loop_observe, loop_observe_vjp, loop_residuals,
                            loop_temporal_theta_gradient)

RTOL = 1e-12
FIXED_LM = 3
BEHIND_LM, BEHIND_CAM = 7, 2
DUPLICATE = 25  # frame 1 (free), landmark 5 (free)


def assert_rel(actual, reference):
    reference = np.asarray(reference, dtype=float)
    assert actual.shape == reference.shape
    scale = max(np.abs(reference).max(initial=0.0), 1e-300)
    assert np.abs(actual - reference).max(initial=0.0) <= RTOL * scale


def edge_case_problem(seed):
    """A fixed pose, a fixed landmark, a duplicated factor, a landmark behind
    one camera, the scale prior and Huber outliers, with a nonzero theta."""
    prob, x0, *_ = build_ba_problem(seed, n_cams=5, n_lms=20, sigma=1.0,
                                    kernel=RobustKernel("huber", 1.0),
                                    outlier_ratio=0.2)
    fixed_lm = np.zeros(prob.state.n_landmarks, dtype=bool)
    fixed_lm[FIXED_LM] = True
    state = StateVector(prob.state.poses, prob.state.landmarks,
                        prob.state.fixed_poses, fixed_lm)
    rows = np.append(np.arange(len(prob.frame_idx)), DUPLICATE)
    prob = problem_like(prob, rows, state=state, scale_prior=prob.scale_prior)
    lms = x0.landmarks.copy()
    cam = x0.poses[BEHIND_CAM]
    lms[BEHIND_LM] = cam.t - 2.0 * quat_to_matrix(cam.q)[:, 2]
    x0 = StateVector(x0.poses, lms, x0.fixed_poses, fixed_lm)
    theta = np.random.default_rng(seed).normal(scale=0.3,
                                               size=prob.obs_model.theta_dim)
    return prob, x0, theta


@pytest.fixture(params=[0, 1, 2])
def case(request):
    return edge_case_problem(request.param)


def test_case_covers_the_edge_cases(case):
    prob, x0, theta = case
    sys_ = linearize(prob, x0, theta)
    assert sys_.inactive_count >= 1
    assert (sys_.weights < 1.0).any()
    assert prob.scale_prior is not None
    assert sys_.layout.pose_slot[0] == -1
    assert sys_.layout.lm_slot[FIXED_LM] == -1
    assert (sys_.rec_lm_slot == -1).any() and (sys_.rec_pose_slot == -1).any()
    rows = np.column_stack([prob.frame_idx, prob.track_idx, prob.lm_idx])
    assert (rows == rows[DUPLICATE]).all(axis=1).sum() == 2
    assert sys_.layout.pose_slot[prob.frame_idx[DUPLICATE]] >= 0
    assert sys_.layout.lm_slot[prob.lm_idx[DUPLICATE]] >= 0


@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_scatter_is_bit_identical_to_loop(case, start):
    """The block adder, through the plan of ``linearize``, adds random rows as
    the factor loop does. Each pose and landmark sum starts at +0.0 and is
    added to the block once; each Hpl entry, the duplicated pair's included,
    is added to in factor order."""
    prob, x0, theta = case
    ref = linearize(prob, x0, theta)
    plan = ref.plan
    assert plan.pair_repeats
    ps, ls = plan.pose_slot, plan.lm_slot
    rng = np.random.default_rng(5)
    k = len(ps)
    pose_rows, lm_rows = rng.normal(size=(27, k)), rng.normal(size=(9, k))
    pair_blocks = rng.normal(size=(6, 3, k))
    blocks = (pose_rows[_POSE_BLOCK].T.reshape(k, 6, 6),
              lm_rows[_SYMMETRIC].T.reshape(k, 3, 3),
              -pair_blocks.transpose(2, 0, 1), pose_rows[21:].T, lm_rows[6:].T)
    new, old, summed = (LinearizedSystem(ref.layout) for _ in range(3))
    init = {n: np.zeros_like(getattr(ref, n)) for n in ("Hpp", "Hll", "Hpl")}
    if start == "nonzero":
        init = {n: rng.normal(size=a.shape) for n, a in init.items()}
        for s in (new, old):
            vars(s).update({n: a.copy() for n, a in init.items()})
    per_pose, per_lm = _add_blocks(new, plan, pose_rows, lm_rows, pair_blocks)
    loop_assemble(old, ps, ls, *blocks)
    loop_assemble(summed, ps, ls, *blocks)
    for name in ("Hpp", "Hll"):
        assert np.array_equal(getattr(new, name), init[name] + getattr(summed, name)), name
    assert np.array_equal(new.Hpl, old.Hpl)
    npp = new.layout.n_pose_params
    assert np.array_equal(per_pose[:, 21:].ravel(), summed.g[:npp])
    assert np.array_equal(per_lm[:, 6:].ravel(), summed.g[npp:])


def test_linearize_matches_loop(case):
    prob, x0, theta = case
    new = linearize(prob, x0, theta)
    ref = loop_linearize(prob, x0, theta)
    assert new.inactive_count == ref.inactive_count
    for name in ("rec_factor", "rec_frame", "rec_pose_slot", "rec_lm_slot"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("Hpp", "Hll", "Hpl", "g", "residuals", "weights",
                 "rec_A", "rec_axis", "rec_point"):
        assert_rel(getattr(new, name), getattr(ref, name))
    # the weighted information the adjoint forms from the records
    assert_rel(new.weights[:, None, None] * prob.info_stack[new.rec_factor], ref.rec_W)


def test_jacobian_times_matches_loop(case):
    """The A-form J y equals the loop's Jp y_p + Jl y_l, fixed variables
    contributing nothing."""
    prob, x0, theta = case
    new = linearize(prob, x0, theta)
    ref = loop_linearize(prob, x0, theta)
    y = np.random.default_rng(3).normal(size=new.layout.dim)
    np_ = new.layout.n_pose_params
    yp, yl = y[:np_].reshape(-1, 6), y[np_:].reshape(-1, 3)
    jy = np.zeros((len(ref.rec_factor), 2))
    for k, (ps, ls) in enumerate(zip(ref.rec_pose_slot, ref.rec_lm_slot)):
        if ps >= 0:
            jy[k] += ref.Jp[k] @ yp[ps]
        if ls >= 0:
            jy[k] += ref.Jl[k] @ yl[ls]
    assert_rel(new.jacobian_times(y), jy)


def assert_same_system(actual, reference):
    """Every array of two linearized systems equal bit for bit."""
    assert actual.inactive_count == reference.inactive_count
    names = ["Hpp", "Hll", "Hpl", "g", "residuals", "weights",
             *(n for n in vars(reference) if n.startswith("rec_"))]
    for name in names:
        a, r = getattr(actual, name), getattr(reference, name)
        assert (a.dtype, a.shape) == (r.dtype, r.shape), name
        assert a.tobytes() == r.tobytes(), name


def test_solve_reuses_evaluations_and_plans_exactly(monkeypatch):
    """Every linearization of a solve, made from the trial's evaluation and
    the solve's plan, equals a fresh one bit for bit, before and after the
    landmark behind a camera comes back in front of it."""
    prob, x0, theta = edge_case_problem(0)
    real = solver_mod.linearize
    inactive = []

    def checked(problem, state, th, ev, plan):
        sys_ = real(problem, state, th, ev, plan)
        fresh = real(problem, state, th)
        assert_same_system(sys_, fresh)
        assert_same_system(real(problem, state, th, ev), fresh)
        inactive.append(sys_.inactive_count)
        return sys_

    monkeypatch.setattr(solver_mod, "linearize", checked)
    optimize(prob, x0, theta, SolverSettings(max_iterations=6))
    assert inactive[0] > 0 and inactive[-1] == 0


def test_systems_own_their_arrays(case):
    """Two states linearized with one plan: the first system is left as a
    fresh linearization of its own state by the second call and by the
    exact Hessian of either, though the plan's scratch was written again."""
    prob, x0, theta = case
    x1 = x0.copy()
    x1.landmarks[:] += np.random.default_rng(7).normal(scale=1e-3, size=x1.landmarks.shape)
    ev0, ev1 = (evaluate_residuals(prob, x, theta) for x in (x0, x1))
    plan = LinearizationPlan(prob, x0, ev0.active)
    assert plan.fits(ev1.active)
    first = linearize(prob, x0, theta, ev0, plan)
    second = linearize(prob, x1, theta, ev1, plan)
    assert not np.array_equal(first.Hpl, second.Hpl)
    assert_same_system(first, linearize(prob, x0, theta))
    exact_hessian_system(prob, x1, second)
    exact_hessian_system(prob, x0, first)
    assert_same_system(first, linearize(prob, x0, theta))
    assert_same_system(second, linearize(prob, x1, theta))


def test_linearize_allocates_little_beyond_its_system():
    """On a warm plan, the allocation peak of a linearize of 24 cameras and
    400 landmarks stays near the bytes its system keeps: the per-factor
    intermediates go to the plan's scratch. No timing is involved."""
    sc = scn.generate_scene(scn.SyntheticSceneConfig(
        n_cameras=24, n_landmarks=400, trajectory="orbit", pixel_sigma=0.5, seed=1))
    prob = scn.build_problem(sc, model="static")
    theta = prob.theta0()
    ev = evaluate_residuals(prob, prob.state, theta)
    plan = LinearizationPlan(prob, prob.state, ev.active)
    linearize(prob, prob.state, theta, ev, plan)
    tracemalloc.start()
    try:
        sys_ = linearize(prob, prob.state, theta, ev, plan)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in vars(sys_).values() if isinstance(a, np.ndarray))
    assert sys_.Hpl.nbytes < kept <= held
    assert peak <= 1.5 * kept


@pytest.fixture(params=[0, 1, 2, "window"])
def hessian_case(request):
    """The edge-case problems, and a descriptor-field window at its tight
    noisy optimum, where the curvature terms are what matter."""
    if request.param == "window":
        return window_problem(4, "descfield")[:3]
    return edge_case_problem(request.param)


def test_exact_hessian_matches_loop(hessian_case):
    prob, x0, theta = hessian_case
    sys_ = linearize(prob, x0, theta)
    new = exact_hessian_system(prob, x0, sys_)
    ref = loop_exact_hessian(prob, x0, sys_)
    for name in ("Hpp", "Hll", "Hpl"):
        assert_rel(getattr(new, name), getattr(ref, name))
    # the Gauss-Newton system it copies is left as it was
    assert_same_system(sys_, linearize(prob, x0, theta))


def test_exact_hessian_adds_through_the_linearize_plan(case, monkeypatch):
    """The exact Hessian builds no LinearizationPlan of its own: it adds its
    blocks through the plan that ``linearize`` keeps on the system, whose
    repeated pair it sums as linearize does."""
    prob, x0, theta = case
    sys_ = linearize(prob, x0, theta)

    def refuse(*args):
        raise AssertionError("LinearizationPlan built after linearize")

    monkeypatch.setattr(solver_mod, "LinearizationPlan", refuse)
    new = exact_hessian_system(prob, x0, sys_)
    ref = loop_exact_hessian(prob, x0, sys_)
    for name in ("Hpp", "Hll", "Hpl"):
        assert_rel(getattr(new, name), getattr(ref, name))
    assert sys_.plan.pair_repeats


def test_residuals_match_loop(case):
    prob, x0, theta = case
    ev = evaluate_residuals(prob, x0, theta)
    e_ref, s_ref, active_ref = loop_residuals(prob, x0, theta)
    assert np.array_equal(ev.active, active_ref)
    assert not ev.active.all()
    assert_rel(ev.e, e_ref)
    assert_rel(ev.s, s_ref)


def all_models(prob, theta):
    """(model, theta) of the three observation models over the table of
    ``prob``, whose own model is the track-bias one."""
    r = np.random.default_rng(5)
    m = prob.obs_model
    n = len(m.track_ids)
    field = DescriptorFieldModel(m.frames, m.tracks, m.pixels, m.track_ids,
                                 r.normal(size=(n, 3, 4, 2)), r.normal(size=(n, 2)))
    return [(m, theta), (StaticModel(m.frames, m.tracks, m.pixels), None),
            (field, field.theta0() + 0.1 * r.normal(size=field.theta_dim))]


def test_observe_all_matches_observe(case):
    prob, _, theta = case
    frames, tracks = prob.frame_idx, prob.track_idx
    for model, th in all_models(prob, theta):
        stacked = model.observe_all(frames, tracks, th)
        loop = np.array([loop_observe(model, f, t, th) for f, t in zip(frames, tracks)])
        if isinstance(model, DescriptorFieldModel):
            assert_rel(stacked, loop)
        else:
            assert np.array_equal(stacked, loop)


def test_observe_all_rejects_unknown_pairs(case):
    prob, _, theta = case
    last = int(prob.obs_model.tracks.max())
    for model, th in all_models(prob, theta):
        # (0, last + 1) would alias (1, first track) if track ids were not range-checked
        for frames, tracks in (([0], [last + 1]), ([99], [0]), ([1, 0], [0, -5])):
            with pytest.raises(KeyError):
                model.observe_all(np.array(frames), tracks, th)


def window_problem(seed, model):
    """A noisy orbit window with descriptor fields and temporal terms, solved
    tight, as one online training step sees it."""
    sc = scn.generate_scene(scn.SyntheticSceneConfig(
        n_cameras=6, n_landmarks=30, trajectory="orbit", pixel_sigma=0.5,
        seed=seed))
    scn.attach_descriptor_field(sc, seed=seed + 2)
    scn.attach_temporal(sc, seed=seed + 3)
    prob = scn.build_problem(sc, model=model)
    theta = prob.theta0()
    xs, _ = optimize(prob, prob.state, theta,
                     SolverSettings(gradient_tolerance=1e-11, max_iterations=300))
    return prob, xs, theta, PoseErrorLoss(scn.gt_poses(sc))


@pytest.mark.parametrize("model", ["trackbias", "descfield"])
def test_theta_gradients_match_loop(model, monkeypatch):
    prob, xs, theta, loss = window_problem(4, model)
    sys_ = linearize(prob, xs, theta)
    request = ImplicitGradRequest(prob, xs, theta,
                                  loss.grad_tangent(xs, sys_.layout), 1e-7)
    dldtheta = implicit_gradient(request).dldtheta
    g_temporal = temporal_theta_gradient(prob, theta)
    assert_rel(g_temporal, loop_temporal_theta_gradient(prob, theta))
    monkeypatch.setattr(prob.obs_model, "observe_vjp",
                        functools.partial(loop_observe_vjp, prob.obs_model))
    assert_rel(dldtheta, implicit_gradient(request).dldtheta)
    assert np.abs(dldtheta).max() > 0 and np.abs(g_temporal).max() > 0


def test_observe_vjp_matches_loop(case):
    prob, _, theta = case
    frames, tracks = prob.frame_idx, prob.track_idx
    v = np.random.default_rng(0).normal(size=(len(frames), 2))
    for model, th in all_models(prob, theta):
        assert_rel(model.observe_vjp(frames, tracks, th, v),
                   loop_observe_vjp(model, frames, tracks, th, v))
