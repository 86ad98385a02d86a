"""Shared synthetic builders for the test suite."""

import numpy as np
import pytest

from gradba.geometry import (CameraIntrinsics, Pose, project,
                             quat_from_matrix, se3_retract)
from gradba.problem import (Problem, ScalePrior, StateVector, StaticModel,
                            TrackBiasModel)


def look_at(eye, target, up=(0.0, 1.0, 0.0)):
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(target, dtype=float) - eye
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(quat_from_matrix(np.column_stack([x, y, z])), eye)


def orbit_poses(n_cams, radius=4.0, sweep=0.9 * np.pi):
    angles = np.linspace(0.0, sweep, n_cams)
    return [look_at(radius * np.array([np.sin(a), 0.12 * np.sin(2 * a) / radius * 4,
                                       -np.cos(a)]), np.zeros(3))
            for a in angles]


def build_ba_problem(seed, n_cams=5, n_lms=20, sigma=0.5, model="trackbias",
                     kernel=None, f=500.0, pose_noise=0.01, lm_noise=0.02,
                     outlier_ratio=0.0, outlier_px=20.0):
    """Orbit-geometry BA problem with ground truth and a perturbed start.

    Returns (problem, x0, gt_poses, gt_landmarks, outlier_flags).
    """
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(f, f, 0.0, 0.0)
    poses_gt = orbit_poses(n_cams)
    lms_gt = rng.uniform(-1.0, 1.0, size=(n_lms, 3))
    pixels = []
    outliers = {}
    for i, P in enumerate(poses_gt):
        for j in range(n_lms):
            px = project(P, intr, lms_gt[j]) + rng.normal(scale=sigma, size=2)
            is_out = rng.uniform() < outlier_ratio
            if is_out:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                px = px + outlier_px * np.array([np.cos(ang), np.sin(ang)])
            pixels.append(px)
            outliers[(i, j)] = is_out
    # one factor per (frame, landmark), frame-major; track j is landmark j
    frames = np.repeat(np.arange(n_cams), n_lms)
    tracks = np.tile(np.arange(n_lms), n_cams)
    state_gt = StateVector(poses_gt, lms_gt,
                           fixed_poses=[True] + [False] * (n_cams - 1))
    if model == "static":
        obs_model = StaticModel(frames, tracks, pixels)
    elif model == "trackbias":
        obs_model = TrackBiasModel(frames, tracks, pixels, list(range(n_lms)))
    else:
        raise ValueError(model)
    prior = ScalePrior(0, 1, float(np.linalg.norm(
        poses_gt[1].t - poses_gt[0].t)))
    problem = Problem(state_gt, intr, frames, tracks, tracks, obs_model,
                      kernel=kernel, scale_prior=prior)
    poses0 = [poses_gt[0]] + [se3_retract(P, rng.normal(scale=pose_noise, size=6))
                              for P in poses_gt[1:]]
    lms0 = lms_gt + rng.normal(scale=lm_noise, size=lms_gt.shape)
    x0 = StateVector(poses0, lms0, fixed_poses=state_gt.fixed_poses)
    return problem, x0, poses_gt, lms_gt, outliers


def problem_like(prob, rows=slice(None), **changes):
    """A Problem over the factors ``rows`` of ``prob`` (all by default) with
    its kernel and identity covariances. ``changes`` replace any other
    Problem argument (state, intrinsics, obs_model, covs, kernel); the scale
    prior and temporal terms are left out unless given."""
    args = dict(state=prob.state, intrinsics=prob.intrinsics, frames=prob.frame_idx[rows],
                tracks=prob.track_idx[rows], landmarks=prob.lm_idx[rows],
                obs_model=prob.obs_model, kernel=prob.kernel)
    return Problem(**{**args, **changes})


def build_window(seed, n_frames=8, n_tracks=60, sigma=0.0, outlier_ratio=0.0,
                 outlier_px=20.0, f=500.0):
    """Synthetic tracking window for initializer tests.

    Returns (window, K, gt_poses, gt_landmarks, outlier_set) where the
    outlier set holds (frame, track) pairs whose observation was displaced.
    """
    rng = np.random.default_rng(seed)
    K = np.array([[f, 0.0, 320.0], [0.0, f, 240.0], [0.0, 0.0, 1.0]])
    intr = CameraIntrinsics(f, f, 320.0, 240.0)

    def orient(i):
        ang = 0.02 * i
        c, s = np.cos(ang), np.sin(ang)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

    poses = [Pose(quat_from_matrix(orient(i)), [0.25 * i, 0.02 * i, 0.01 * i])
             for i in range(n_frames)]
    lms = np.column_stack([rng.uniform(-2, 4, n_tracks),
                           rng.uniform(-1.5, 1.5, n_tracks),
                           rng.uniform(4, 9, n_tracks)])
    window = []
    outliers = set()
    for i, P in enumerate(poses):
        frame = {}
        for t in range(n_tracks):
            px = project(P, intr, lms[t])
            if sigma > 0:
                px = px + rng.normal(scale=sigma, size=2)
            if i > 0 and rng.uniform() < outlier_ratio:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                px = px + outlier_px * np.array([np.cos(ang), np.sin(ang)])
                outliers.add((i, t))
            frame[t] = px
        window.append(frame)
    return window, K, poses, lms, outliers


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
