"""Property tests: the analytic pose-loss gradient and the batched
vector-jacobian products against their references on generated inputs, and
the scene file round trip with descriptor-field and temporal sections.

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
from gradba.problem import (DescriptorFieldModel, StateVector,  # noqa: E402
                            StaticModel, TrackBiasModel)
from gradba.solver import SystemLayout  # noqa: E402

from loop_reference import (fd_tangent_gradient, loop_drifting_grid,  # noqa: E402
                            loop_observe_vjp)

GRAD_RTOL = 1e-6
VJP_RTOL = 1e-12
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
    obs = {(f, t): rng.normal(size=2) for f in range(N_FRAMES)
           for t in range(N_TRACKS)}
    tracks = list(range(N_TRACKS))
    grids = {t: rng.normal(size=(3, 4, 2)) for t in tracks}
    refs = {t: rng.normal(size=2) for t in tracks}
    field = DescriptorFieldModel(tracks, grids, refs, obs)
    return [(StaticModel(obs), None),
            (TrackBiasModel(obs, tracks), rng.normal(size=2 * N_TRACKS)),
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
