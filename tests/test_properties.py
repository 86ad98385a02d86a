"""Property tests: the analytic pose-loss gradient and the batched
vector-jacobian products against their references on generated inputs.

Examples are derandomized and bounded in number, so a run does the same work
every time. Tolerances were fixed before the code under test was written.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gradba.geometry import Pose, se3_exp, se3_retract  # noqa: E402
from gradba.implicit import (PoseErrorLoss, fd_tangent_gradient,  # noqa: E402
                             max_rel_error)
from gradba.problem import (DescriptorFieldModel, StateVector,  # noqa: E402
                            StaticModel, TrackBiasModel)
from gradba.solver import SystemLayout  # noqa: E402

from loop_reference import loop_observe_vjp  # noqa: E402

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
