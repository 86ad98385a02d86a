"""Property tests: the pinhole kernel's batches against its one-row calls
and its depth boundary, the broadcasting retraction and quaternion helpers
against their one-row calls, the component cross product against
``np.cross``, the analytic pose-loss gradient, the batched vector-jacobian
products, the problem table of ``build_problem``, the Schur solve and the
initializer's batched two-view geometry against their references on
generated inputs, the broadcasting inverse-depth fusion against its scalar
calls, and the round trips of the scene file (with descriptor-field and
temporal sections), of the TUM trajectory file and of se3_exp / se3_log.

Examples are derandomized and bounded in number, so a run does the same work
every time. Tolerances were fixed before the code under test was written.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gradba import scene as scn  # noqa: E402
from gradba.errors import CheiralityViolation  # noqa: E402
from gradba.geometry import (DEPTH_EPS, CameraIntrinsics, Pose,  # noqa: E402
                             _so3_left_jacobian, cross, normalized, pinhole, project,
                             quat_conj, quat_from_rotvec, quat_mul, quat_rotate,
                             quat_to_matrix, quat_to_rotvec, retract, se3_retract,
                             so3_hat)
from gradba.implicit import PoseErrorLoss, max_rel_error  # noqa: E402
from gradba.initializer import (InverseDepthEstimate, _cheirality_depths,  # noqa: E402
                                fuse_inverse_depth, normalize_bearings,
                                reprojection_errors, sigma_obs_from_reproj,
                                triangulate)
from gradba.problem import (DescriptorFieldModel, RobustKernel,  # noqa: E402
                            StateVector, StaticModel, TrackBiasModel)
from gradba.solver import (LinearizedSystem, SystemLayout, lm_step,  # noqa: E402
                           schur_solve_rhs)
from gradba.trajectory import read_tum, records_from_poses, write_tum  # noqa: E402

from loop_reference import (fd_tangent_gradient, loop_cheirality_depths,  # noqa: E402
                            loop_drifting_grid, loop_observe_vjp,
                            loop_problem_table, loop_retract, loop_sigma_obs,
                            loop_triangulate, se3_exp, se3_log)

GRAD_RTOL = 1e-6
VJP_RTOL = 1e-12
SCHUR_RTOL = 1e-9
# a two-ray solve at line angle theta loses about eps / theta^2 relative
COND_TOL = 1e4 * np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


# camera depths on and around the in-front boundary, behind and far in front
BOUNDARY_DEPTHS = [DEPTH_EPS, np.nextafter(DEPTH_EPS, 0.0), np.nextafter(DEPTH_EPS, 1.0),
                   0.0, -0.0, -DEPTH_EPS, -3.0, 1e-3, 40.0]


def _kernel_rows(seed, n, identity):
    """n poses, intrinsics rows and world points whose camera depths mix
    BOUNDARY_DEPTHS with random ones. Under the identity pose the camera
    point is the world point, so each depth is exact."""
    rng = np.random.default_rng(seed)
    poses = [Pose() if identity else se3_exp(rng.normal(size=6)) for _ in range(n)]
    intr = np.column_stack([rng.uniform(50.0, 900.0, (n, 2)), rng.uniform(-50.0, 700.0, (n, 2))])
    depth = np.where(rng.random(n) < 0.5, rng.choice(BOUNDARY_DEPTHS, n), rng.uniform(-5.0, 20.0, n))
    cam = np.column_stack([rng.normal(size=(n, 2)), depth])
    pts = np.array([cam[i] if identity else p.apply(cam[i]) for i, p in enumerate(poses)])
    return poses, intr, pts.reshape(-1, 3), depth


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24), identity=st.booleans())
def test_pinhole_batch_equals_one_row_calls(seed, n, identity):
    """An n-row call, with one pose per row or one pose for all, returns the
    bits of n one-row calls."""
    poses, intr, pts, _ = _kernel_rows(seed, n, identity)
    rot = np.array([p.rotation_matrix() for p in poses])
    t = np.array([p.t for p in poses])
    batch = pinhole(rot, t, intr, pts)
    shared = pinhole(rot[0], t[0], intr[0], pts)
    for i in range(n):
        assert _bits(*pinhole(rot[i], t[i], intr[i], pts[i])) == _bits(*(a[i] for a in batch))
        assert _bits(*pinhole(rot[0], t[0], intr[0], pts[i])) == _bits(*(a[i] for a in shared))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24), identity=st.booleans())
def test_pinhole_front_project_and_errors_agree_on_depth(seed, n, identity):
    """``front`` is False exactly where the camera depth is <= DEPTH_EPS (the
    drawn depth itself under the identity pose); ``project`` raises and
    ``reprojection_errors`` is inf exactly there, and elsewhere both give the
    kernel's pixel."""
    poses, intr, pts, depth = _kernel_rows(seed, n, identity)
    for pose, row, X, z in zip(poses, intr, pts, depth):
        pix, c, front = pinhole(pose.rotation_matrix(), pose.t, row, X)
        assert front == (c[2] > DEPTH_EPS)
        if identity:
            assert c[2] == z and front == (z > DEPTH_EPS)
        K = CameraIntrinsics(*row)
        err = reprojection_errors(pose, X[None], np.zeros((1, 2)), K)[0]
        if front:
            assert _bits(project(pose, K, X)) == _bits(pix)
            assert err == np.linalg.norm(pix[None], axis=1)[0]
        else:
            with pytest.raises(CheiralityViolation):
                project(pose, K, X)
            assert err == np.inf


# rotation angles on both sides of the series cutoffs of the exponential:
# angle < 1e-8 in quat_from_rotvec and angle^2 < 1e-16 in the left jacobian
CUTOFF_ANGLES = [0.0, 1e-12, *(1e-8 * (1.0 + k * np.finfo(float).eps) for k in range(-4, 5)),
                 1e-6, 1e-3, 1.0]


def _rotation_rows(rng, n):
    """n rotation vectors: random directions, whose lengths are a cutoff
    angle or 10^-12..1, and single-axis ones whose squares fall on either side
    of 1e-16 exactly."""
    w = rng.normal(size=(n, 3))
    w /= np.linalg.norm(w, axis=1)[:, None]
    w *= np.where(rng.random(n) < 0.5, rng.choice(CUTOFF_ANGLES, n),
                  10.0 ** rng.uniform(-12.0, 0.0, n))[:, None]
    axis = rng.random(n) < 0.25
    k = axis.sum()
    w[axis] = np.eye(3)[rng.integers(0, 3, k)] * rng.choice(CUTOFF_ANGLES, k)[:, None]
    return w


def _layout(a, strided):
    """a itself, or a copy in Fortran order, whose rows are strided."""
    return np.asfortranarray(a) if strided else a


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24), strided=st.booleans())
def test_retract_rows_equal_per_pose_calls(seed, n, strided):
    """n poses retracted in one call keep the bits of n se3_retract calls and
    of the scalar reference, for tangents of 10^-12..1, zero tangents and
    rotations at the series cutoffs."""
    rng = np.random.default_rng(seed)
    q = normalized(rng.normal(size=(n, 4)))
    t = rng.normal(scale=5.0, size=(n, 3))
    delta = np.column_stack([_rotation_rows(rng, n),
                             rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-12.0, 0.0, (n, 1))])
    delta[rng.random(n) < 0.1] = 0.0
    delta = _layout(delta, strided)
    new_q, new_t = retract(q, t, delta)
    for i in range(n):
        pose = Pose.of_unit(q[i], t[i])
        one, ref = se3_retract(pose, delta[i]), loop_retract(pose, delta[i])
        assert _bits(one.q, one.t) == _bits(new_q[i], new_t[i]) == _bits(ref.q, ref.t)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24), strided=st.booleans())
def test_quaternion_helpers_rows_equal_one_row_calls(seed, n, strided):
    """Each broadcasting quaternion and SO(3) helper returns on (n, ...) rows
    the bits of n one-row calls: quaternions of either sign of w, near the
    identity and at it, and rotation vectors at the series cutoffs."""
    rng = np.random.default_rng(seed)
    w = _rotation_rows(rng, n)
    q = np.where(rng.random((n, 1)) < 0.3, quat_from_rotvec(w), normalized(rng.normal(size=(n, 4))))
    q *= np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
    p = normalized(rng.normal(size=(n, 4)))
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
    q, p, v, w = (_layout(a, strided) for a in (q, p, v, w))
    cases = [(quat_mul, (q, p)), (lambda b: quat_mul(q[0], b), (p,)), (quat_conj, (q,)),
             (quat_rotate, (q, v)), (lambda u: quat_rotate(q[0], u), (v,)),
             (quat_to_matrix, (q,)), (quat_from_rotvec, (w,)), (quat_to_rotvec, (q,)),
             (so3_hat, (w,)), (_so3_left_jacobian, (w,)), (normalized, (10.0 * p,))]
    for fn, args in cases:
        rows = fn(*args)
        for i in range(n):
            assert _bits(fn(*(a[i] for a in args))) == _bits(rows[i])
    # the arithmetic of Pose(q), whose norm sums a contiguous copy of the row
    rows = normalized(10.0 * p)
    for i in range(n):
        assert _bits(rows[i]) == _bits(Pose(10.0 * p[i]).q)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24))
def test_cross_matches_np_cross(seed, n):
    """The component cross product has the bits of ``np.cross``, on rows, on
    one row against many and on lone rows; entries span 10^-150..10^150 and
    include signed zeros."""
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 3))
            for _ in range(2))
    a[rng.random((n, 3)) < 0.1] = 0.0
    b[rng.random((n, 3)) < 0.1] = -0.0
    assert _bits(cross(a, b)) == _bits(np.cross(a, b))
    assert _bits(cross(a[0], b)) == _bits(np.cross(a[0], b))
    for i in range(n):
        assert _bits(cross(a[i], b[i])) == _bits(np.cross(a[i], b[i]))


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


F_PX = 450.0
K_PX = np.array([[F_PX, 0.0, 320.0], [0.0, F_PX, 240.0], [0.0, 0.0, 1.0]])


def two_view_rows(seed, n_free, n_near, n_parallel, ahead):
    """A pose pair, pixel pairs (n, 2) and the line angle of each pair's
    world rays. The second camera sits 3 units ahead of (or behind) the first
    along its axis, so free points at depths -4 to 10 include points behind
    either camera. Near points lie 100 to 3000 units out (near-parallel
    rays); parallel ones at infinity, without the 0.3 px second-view noise
    of the others."""
    rng = np.random.default_rng(seed)
    pose0 = se3_exp(rng.normal(size=6))
    pose1 = pose0.compose(se3_exp(np.concatenate([
        rng.normal(scale=0.1, size=3),
        [rng.uniform(0.2, 1.0), rng.normal(scale=0.2), 3.0 if ahead else -3.0]])))
    p0, p1 = [], []
    for kind in ["free"] * n_free + ["near"] * n_near + ["parallel"] * n_parallel:
        ray = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), 1.0])
        z = {"free": rng.choice([-1, 1]) * rng.uniform(0.2, 10.0),
             "near": 10 ** rng.uniform(2.0, 3.5), "parallel": 1e30}[kind]
        X = pose0.apply(ray * z)
        for pose, pix in ((pose0, p0), (pose1, p1)):
            c = pose.world_to_camera(X)
            pix.append(F_PX * c[:2] / c[2] + [320.0, 240.0])
        if kind != "parallel":
            p1[-1] = p1[-1] + rng.normal(scale=0.3, size=2)
    p0, p1 = np.reshape(p0, (-1, 2)), np.reshape(p1, (-1, 2))
    d0 = normalize_bearings(p0, K_PX) @ pose0.rotation_matrix().T
    d1 = normalize_bearings(p1, K_PX) @ pose1.rotation_matrix().T
    return pose0, pose1, p0, p1, np.linalg.norm(np.cross(d0, d1), axis=1)


TWO_VIEW = dict(seed=st.integers(0, 2 ** 32 - 1), n_free=st.integers(0, 8),
                n_near=st.integers(0, 3), n_parallel=st.integers(0, 2),
                ahead=st.booleans())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(**TWO_VIEW)
def test_triangulate_matches_per_point_oracle(seed, n_free, n_near, n_parallel,
                                              ahead):
    """Every pair succeeds exactly where the per-point lstsq does, at the
    same point to the conditioning of the pair; n = 0 included."""
    pose0, pose1, p0, p1, theta = two_view_rows(seed, n_free, n_near,
                                                n_parallel, ahead)
    X, ok = triangulate(p0, p1, pose0, pose1, K_PX)
    assert X.shape == (len(p0), 3) and ok.shape == (len(p0),)
    for k in range(len(p0)):
        ref = loop_triangulate(p0[k], p1[k], pose0, pose1, K_PX)
        assert ok[k] == (ref is not None)
        if ref is not None:
            assert np.linalg.norm(X[k] - ref) \
                <= COND_TOL * np.linalg.norm(ref - pose0.t) / theta[k] ** 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(**TWO_VIEW, sigma_pix=st.sampled_from([0.0, 0.01, 1.0]))
def test_sigma_obs_matches_per_point_oracle(seed, n_free, n_near, n_parallel,
                                            ahead, sigma_pix):
    """The disparity probe fails exactly where the per-point probe does, and
    returns triangulate's X. Its sigma is compared where the probe is well
    conditioned, the +-sigma_pix perturbation shifting the ray angle by at
    most a quarter: there each inverse depth carries eps / theta^2 of it."""
    pose0, pose1, p0, p1, theta = two_view_rows(seed, n_free, n_near,
                                                n_parallel, ahead)
    var, X, ok = sigma_obs_from_reproj(p0, p1, pose0, pose1, K_PX, sigma_pix)
    X_tri, ok_tri = triangulate(p0, p1, pose0, pose1, K_PX)
    np.testing.assert_array_equal(X, X_tri)
    assert not var[~ok].any()
    if sigma_pix == 0:
        np.testing.assert_array_equal(ok, ok_tri)
        return
    for k in range(len(p0)):
        ref = loop_sigma_obs(p0[k], p1[k], pose0, pose1, K_PX, sigma_pix)
        assert ok[k] == (ref is not None)
        if ref is not None and theta[k] >= 4.0 * sigma_pix / F_PX:
            rho = 1.0 / pose0.world_to_camera(ref[1])[2]
            assert abs(np.sqrt(var[k]) - np.sqrt(ref[0])) \
                <= COND_TOL * rho / theta[k] ** 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12),
       pure_rotation=st.booleans())
def test_cheirality_depths_match_per_pair_lstsq(seed, n, pure_rotation):
    """The closed-form 2x2 solve puts the same pairs in front of both
    cameras as one lstsq per pair. Under pure rotation every pair's rays are
    parallel (det = 0) and none is in front, without a warning."""
    rng = np.random.default_rng(seed)
    R = se3_exp(np.concatenate([rng.normal(scale=0.2, size=3), np.zeros(3)])
                ).rotation_matrix()
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    X = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                         rng.uniform(2, 8, n)]) * rng.choice([-1, 1], size=(n, 1))
    X_b = X @ R.T + (0.0 if pure_rotation else t)
    if not pure_rotation:
        X_b += rng.normal(scale=1e-3, size=(n, 3))
    q_a = X / np.linalg.norm(X, axis=1, keepdims=True)
    q_b = X_b / np.linalg.norm(X_b, axis=1, keepdims=True)
    za, zb = _cheirality_depths(R, t, q_a, q_b)
    ra, rb = loop_cheirality_depths(R, t, q_a, q_b)
    front = (za > 0) & (zb > 0)
    np.testing.assert_array_equal(front, (ra > 0) & (rb > 0))
    if pure_rotation:
        assert not front.any()
        return
    theta = np.linalg.norm(np.cross(q_a @ R.T, q_b), axis=1)
    err = np.hypot(za - ra, zb - rb)
    assert np.all(err <= COND_TOL * np.hypot(ra, rb) / theta ** 2)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 16),
       factor=st.sampled_from([0.01, 0.05, 0.3]))
def test_fuse_inverse_depth_rows_equal_scalar_calls(seed, n, factor):
    """One broadcasting fusion of n beliefs gives the mu, var and stable of n
    scalar calls bit for bit, with stable and unstable posteriors mixed; an
    observation variance <= 0 anywhere raises ValueError."""
    rng = np.random.default_rng(seed)
    mu, rho = rng.normal(size=(2, n))
    var, var_obs = 10.0 ** rng.uniform(-8.0, 2.0, size=(2, n))
    post = fuse_inverse_depth(InverseDepthEstimate(mu, var), rho, var_obs, factor)
    for k in range(n):
        ref = fuse_inverse_depth(InverseDepthEstimate(float(mu[k]), float(var[k])),
                                 float(rho[k]), float(var_obs[k]), factor)
        assert post.mu[k].tobytes() == np.float64(ref.mu).tobytes()
        assert post.var[k].tobytes() == np.float64(ref.var).tobytes()
        assert post.stable[k] == ref.stable
    if n:
        var_obs[rng.integers(n)] = rng.choice([0.0, -0.0, -1e-300, -1.0])
        with pytest.raises(ValueError):
            fuse_inverse_depth(InverseDepthEstimate(mu, var), rho, var_obs, factor)


EPS = np.finfo(float).eps
SERIES_CUTOFF = 1e-8  # rotation angle below which geometry uses its series
PRINTED_RTOL = 5e-12  # half a unit in the twelfth digit that write_tum prints


@PROPERTY
@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
       angle=st.floats(0.0, np.pi - 1e-3) | st.floats(-12.0, 0.0).map(lambda x: 10.0 ** x),
       v=st.tuples(*[st.floats(-100.0, 100.0)] * 3))
def test_se3_log_inverts_exp(axis, angle, v):
    """se3_log(se3_exp(delta)) recovers delta for rotation angles below
    pi - 1e-3. Above the series cutoff the translation loses up to about
    eps / angle relative: the exponential's (1 - cos angle) / angle^2
    cancels, and the bound says so (6.6e-9 at worst over angles 3e-9..1e-7
    in a sweep of 3,000 draws)."""
    w = angle * np.array(axis) / np.linalg.norm(axis)
    v = np.array(v)
    back = se3_log(se3_exp(np.concatenate([w, v])))
    assert np.abs(back[:3] - w).max() <= 8 * EPS * angle
    loss = 1.0 + (1.0 / angle if angle >= SERIES_CUTOFF else 0.0)
    assert np.abs(back[3:] - v).max() <= 8 * EPS * loss * np.abs(v).max()


@PROPERTY
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3), origin=st.floats(0.0, 1e6))
def test_tum_round_trip(tmp_path_factory, n, seed, scale, origin):
    """write_tum -> read_tum keeps stamps, positions and unit quaternions
    (up to sign) to the precision written."""
    rng = np.random.default_rng(seed)
    stamps = origin + np.cumsum(rng.uniform(1e-3, 10.0, n))
    poses = [se3_exp(np.concatenate([rng.normal(size=3), scale * rng.normal(size=3)]))
             for _ in range(n)]
    path = tmp_path_factory.mktemp("tum") / "traj.tum"
    write_tum(records_from_poses(poses, stamps), path)
    back = read_tum(path)
    assert len(back) == n
    for rec, ts, pose in zip(back, stamps, poses):
        assert abs(rec.timestamp - ts) <= PRINTED_RTOL * ts
        assert np.all(np.abs(rec.t - pose.t) <= PRINTED_RTOL * np.abs(pose.t))
        q = rec.pose().q
        assert min(np.abs(q - pose.q).max(), np.abs(q + pose.q).max()) <= 1e-11
