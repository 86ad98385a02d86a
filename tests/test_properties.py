"""Property tests: the analytic pose-loss gradient, the batched
vector-jacobian products, the problem table of ``build_problem`` and the
Schur solve against their references on generated inputs, and the scene
file round trip with descriptor-field and temporal sections.

Examples are derandomized and bounded in number, so a run does the same work
every time. Tolerances were fixed before the code under test was written.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gradba import scene as scn  # noqa: E402
from gradba.geometry import Pose, se3_exp, se3_retract  # noqa: E402
from gradba.implicit import PoseErrorLoss, max_rel_error  # noqa: E402
from gradba.problem import (DescriptorFieldModel, RobustKernel,  # noqa: E402
                            StateVector, StaticModel, TrackBiasModel)
from gradba.solver import (LinearizedSystem, SystemLayout, lm_step,  # noqa: E402
                           schur_solve_rhs)

from loop_reference import (fd_tangent_gradient, loop_drifting_grid,  # noqa: E402
                            loop_observe_vjp, loop_problem_table)

GRAD_RTOL = 1e-6
VJP_RTOL = 1e-12
SCHUR_RTOL = 1e-9
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


@PROPERTY
@given(n_poses=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.3, 3.0), noise=st.floats(0.05, 0.3))
def test_pose_loss_gradient_matches_fd(n_poses, seed, scale, noise):
    """Random non-degenerate trajectories against a similarity-transformed,
    perturbed copy of themselves, with the first pose fixed. The noise is
    bounded away from zero: an unperturbed copy is the loss's minimum, where
    the gradient is rounding and a relative error says nothing."""
    rng = np.random.default_rng(seed)
    poses = [se3_exp(rng.normal(size=6)) for _ in range(n_poses)]
    gauge = se3_exp(rng.normal(size=6))
    ref = []
    for p in poses:
        moved = gauge.compose(Pose(p.q, scale * p.t))
        ref.append(se3_retract(moved, noise * rng.normal(size=6)))
    state = StateVector(poses, rng.normal(size=(4, 3)),
                        fixed_poses=[True] + [False] * (n_poses - 1))
    loss = PoseErrorLoss(ref)
    layout = SystemLayout(state)
    g = loss.grad_tangent(state, layout)
    assert not g[layout.n_pose_params:].any()
    assert max_rel_error(g, fd_tangent_gradient(loss.value, state, layout)) < GRAD_RTOL


N_FRAMES, N_TRACKS = 4, 5


def models(rng):
    frames = np.repeat(np.arange(N_FRAMES), N_TRACKS)
    tracks = np.tile(np.arange(N_TRACKS), N_FRAMES)
    pixels = rng.normal(size=(len(frames), 2))
    ids = list(range(N_TRACKS))
    field = DescriptorFieldModel(frames, tracks, pixels, ids,
                                 rng.normal(size=(N_TRACKS, 3, 4, 2)),
                                 rng.normal(size=(N_TRACKS, 2)))
    return [(StaticModel(frames, tracks, pixels), None),
            (TrackBiasModel(frames, tracks, pixels, ids), rng.normal(size=2 * N_TRACKS)),
            (field, field.theta0() + 0.1 * rng.normal(size=field.theta_dim))]


@PROPERTY
@given(pairs=st.lists(st.tuples(st.integers(0, N_FRAMES - 1),
                                st.integers(0, N_TRACKS - 1)), max_size=30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_observe_vjp_matches_jacobian_rows(pairs, seed):
    """Lists of (frame, track) pairs, tracks repeated, for all three models."""
    rng = np.random.default_rng(seed)
    frames = [f for f, _ in pairs]
    tracks = [t for _, t in pairs]
    v = rng.normal(size=(len(pairs), 2))
    for model, theta in models(rng):
        got = model.observe_vjp(frames, tracks, theta, v)
        assert got.shape == (model.theta_dim,)
        assert max_rel_error(got, loop_observe_vjp(model, frames, tracks, theta, v)) \
            < VJP_RTOL


@PROPERTY
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12)),
       seed=st.integers(0, 2 ** 32 - 1), base=st.floats(0.0, 1.0),
       slope=st.floats(0.0, 1.0))
def test_drifting_grid_matches_cell_loop(shape, seed, base, slope):
    """The whole-grid draw is the cell-by-cell draw, bit for bit."""
    def draw(fn):
        return fn(np.random.Generator(np.random.Philox(key=seed)), shape, base, slope)

    for got, ref in zip(draw(scn._drifting_grid), draw(loop_drifting_grid)):
        np.testing.assert_array_equal(got, ref)


@PROPERTY
@given(n_cameras=st.integers(3, 7), n_landmarks=st.integers(8, 24),
       trajectory=st.sampled_from(["arc", "orbit"]), seed=st.integers(0, 2 ** 16),
       field_shape=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(1, 4)),
       patch_shape=st.tuples(st.integers(5, 9), st.integers(5, 9), st.integers(1, 8)),
       n_transitions=st.integers(1, 4), tracks_per_transition=st.integers(1, 5))
def test_scene_round_trip_with_sections(tmp_path_factory, n_cameras, n_landmarks,
                                        trajectory, seed, field_shape, patch_shape,
                                        n_transitions, tracks_per_transition):
    """write -> read -> write is byte-identical, and the temporal section read
    back parses to the endpoints written."""
    sc = scn.generate_scene(scn.SyntheticSceneConfig(
        n_cameras=n_cameras, n_landmarks=n_landmarks, trajectory=trajectory,
        pixel_sigma=0.5, seed=seed))
    scn.attach_descriptor_field(sc, grid_shape=field_shape, seed=seed + 1)
    scn.attach_temporal(sc, n_transitions=n_transitions,
                        tracks_per_transition=tracks_per_transition,
                        grid_shape=patch_shape, seed=seed + 2)
    first = tmp_path_factory.mktemp("round_trip") / "scene.json"
    scn.save_scene(sc, first)
    loaded = scn.load_scene(first)
    assert scn.dumps_scene(loaded) == first.read_text()
    transitions = scn.temporal_transitions(loaded)
    for tr, written in zip(transitions, sc["temporal"]["transitions"], strict=True):
        assert [p.long.tolist() for p in tr.pairs] == [it["long"] for it in written["items"]]
        assert [p.recursive.tolist() for p in tr.pairs] == \
            [it["recursive"] for it in written["items"]]
        assert len(tr.dense) == len(written["items"])
    prob = scn.build_problem(loaded, model="descfield")
    assert len(prob.temporal_terms.frames) == sum(len(tr.pairs) for tr in transitions)


def assert_bits(actual, reference):
    assert actual.dtype == reference.dtype and actual.shape == reference.shape
    assert actual.tobytes() == reference.tobytes()


@PROPERTY
@given(n_cameras=st.integers(3, 6), n_landmarks=st.integers(8, 16),
       trajectory=st.sampled_from(["arc", "orbit"]), seed=st.integers(0, 2 ** 16),
       sigma_share=st.floats(0.0, 1.0), track_share=st.floats(0.2, 1.0),
       huber=st.booleans())
def test_problem_table_matches_per_observation_assembly(n_cameras, n_landmarks, trajectory,
                                                        seed, sigma_share, track_share,
                                                        huber):
    """``build_problem``'s factor rows, information matrices, Huber thresholds
    and predictions at theta0 equal the observation-by-observation assembly
    bit for bit, for all three models, with ``sigma`` (float or int) on a
    random subset of the observations and a state over a shuffled subset of
    the tracks."""
    sc = scn.generate_scene(scn.SyntheticSceneConfig(
        n_cameras=n_cameras, n_landmarks=n_landmarks, trajectory=trajectory,
        pixel_sigma=0.5, seed=seed))
    rng = np.random.default_rng(seed)
    # random grids: attach_descriptor_field's are symmetric about the patch
    # centre, so every track would have the same soft-argmax offset
    sc["descriptor_field"] = {
        "grid_shape": [3, 3, 2],
        "grids": {str(t): rng.normal(size=18).tolist() for t in range(n_landmarks)},
        "refs": {str(t): rng.normal(size=2).tolist() for t in range(n_landmarks)}}
    for o in sc["observations"]:
        if rng.uniform() < sigma_share:
            o["sigma"] = int(rng.integers(1, 4)) if rng.uniform() < 0.3 \
                else float(rng.uniform(0.2, 4.0))
    sc["track_bias"] = {"values": {str(t): rng.normal(size=2).tolist()
                                   for t in range(0, n_landmarks, 2)}}
    gt = scn.gt_state(sc)
    keep = rng.permutation(n_landmarks)[:max(1, round(track_share * n_landmarks))].tolist()
    state = StateVector(gt.poses, gt.landmarks[keep], gt.fixed_poses)
    kernel = RobustKernel("huber", 1.5) if huber else None
    for model in ("static", "trackbias", "descfield"):
        prob = scn.build_problem(sc, model=model, kernel=kernel, state=state, track_ids=keep)
        ref = loop_problem_table(sc, model, kernel, keep)
        for name in ("frame_idx", "track_idx", "lm_idx", "info_stack", "huber_delta"):
            assert_bits(getattr(prob, name), ref[name])
        assert_bits(prob.obs_model.observe_all(prob.frame_idx, prob.track_idx, prob.theta0()),
                    ref["predictions"])


@PROPERTY
@given(n_free_poses=st.integers(0, 4), n_fixed_poses=st.integers(0, 2),
       n_free_lms=st.integers(0, 6), n_fixed_lms=st.integers(0, 2),
       n_obs=st.integers(0, 30), ridge=st.floats(1e-2, 1.0),
       lam=st.sampled_from([0.0, 1e-4, 1.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))
def test_schur_solve_matches_dense_lm_step(n_free_poses, n_fixed_poses, n_free_lms,
                                          n_fixed_lms, n_obs, ridge, lam, seed):
    """Landmark elimination solves the damped system of the dense reference
    solve, on random SPD systems whose landmark-landmark coupling is block
    diagonal, as a bundle adjustment's is: each observation row touches one
    free pose and one free landmark."""
    hypothesis.assume(n_free_poses + n_free_lms > 0)
    rng = np.random.default_rng(seed)
    state = StateVector([Pose()] * (n_free_poses + n_fixed_poses),
                        np.zeros((n_free_lms + n_fixed_lms, 3)),
                        [False] * n_free_poses + [True] * n_fixed_poses,
                        [False] * n_free_lms + [True] * n_fixed_lms)
    layout = SystemLayout(state)
    np_, dim = layout.n_pose_params, layout.dim
    H = ridge * np.eye(dim)
    for _ in range(n_obs):
        J = np.zeros((2, dim))
        if n_free_poses:
            a = 6 * int(rng.integers(n_free_poses))
            J[:, a:a + 6] = rng.normal(size=(2, 6))
        if n_free_lms:
            o = layout.lm_offset(int(rng.integers(n_free_lms)))
            J[:, o:o + 3] = rng.normal(size=(2, 3))
        H += J.T @ J
    sys_ = LinearizedSystem(layout)
    sys_.Hpp, sys_.Hpl = H[:np_, :np_], H[:np_, np_:]
    sys_.Hll = np.array([H[o:o + 3, o:o + 3] for o in range(np_, dim, 3)]).reshape(-1, 3, 3)
    sys_.g = rng.normal(size=dim)
    assert np.array_equal(sys_.dense_hessian(), H)
    assert max_rel_error(schur_solve_rhs(sys_, lam, -sys_.g), lm_step(sys_, lam)) < SCHUR_RTOL
