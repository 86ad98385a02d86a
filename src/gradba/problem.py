"""Factor-graph data model: states, reprojection factors, observation models.

The residual convention is ``e = observe(frame, track) - project(pose, point)``:
the parameterized observation model predicts where a track is seen, and the
geometric projection is subtracted from it.

``evaluate_residuals`` is the one place where factors are evaluated: it
predicts, projects, and applies the robust kernel to the squared Mahalanobis
norm ``s = e^T Sigma^-1 e`` of every factor at once. ``robust_terms`` is the
one place where the kernel is computed: the cost rho(s), the IRLS weight
rho'(s) that multiplies Sigma^-1 in the normal equations, and the curvature
rho''(s) of the exact Hessian. The energy, the solver's linearization, the
exact Hessian and the implicit gradient all read these. Only the Huber kernel
is shipped; a factor without one has the plain quadratic cost.

A Problem is immutable once validated; residual and energy evaluation is a
pure map-reduce over factors with a fixed summation order, so results are
reproducible and distinct problems can be evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import temporal
from .geometry import (DEPTH_EPS, CameraIntrinsics, Pose, project,
                       quat_to_matrix_many, so3_hat)

DEFAULT_HUBER_DELTA = 2.0  # pixels


# ---------------------------------------------------------------------------
# robust kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustKernel:
    kind: str = "none"  # "none" | "huber"
    delta: float = DEFAULT_HUBER_DELTA

    def __post_init__(self):
        if self.kind not in ("none", "huber"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "huber" and self.delta <= 0:
            raise ValueError("huber delta must be positive")


def robust_terms(s, delta):
    """Huber kernel of squared Mahalanobis norms ``s`` with thresholds ``delta``.

    Returns the arrays (rho, rho', rho''); rho' is the IRLS weight that
    multiplies Sigma^-1. ``delta = inf`` gives the plain quadratic cost
    (rho = s, rho' = 1, rho'' = 0), and so does a NaN ``s``.
    """
    s, delta = np.broadcast_arrays(np.asarray(s, dtype=float), delta)
    out = s > delta ** 2
    rho, weight, curvature = s.copy(), np.ones(s.shape), np.zeros(s.shape)
    root, d = np.sqrt(s[out]), delta[out]
    rho[out] = 2.0 * d * root - d ** 2
    weight[out] = d / root
    curvature[out] = -d / (2.0 * s[out] ** 1.5)
    return rho, weight, curvature


# ---------------------------------------------------------------------------
# state vector
# ---------------------------------------------------------------------------

class StateVector:
    """Poses first, landmarks second, with per-variable gauge-fix flags."""

    def __init__(self, poses, landmarks, fixed_poses=None, fixed_landmarks=None):
        self.poses = [p.copy() for p in poses]
        self.landmarks = np.array(landmarks, dtype=float).reshape(-1, 3)
        n, m = len(self.poses), len(self.landmarks)
        self.fixed_poses = (np.zeros(n, dtype=bool) if fixed_poses is None
                            else np.asarray(fixed_poses, dtype=bool).copy())
        self.fixed_landmarks = (np.zeros(m, dtype=bool) if fixed_landmarks is None
                                else np.asarray(fixed_landmarks, dtype=bool).copy())
        if self.fixed_poses.shape != (n,) or self.fixed_landmarks.shape != (m,):
            raise ValueError("fixed-mask shapes do not match the variables")

    @property
    def n_poses(self):
        return len(self.poses)

    @property
    def n_landmarks(self):
        return len(self.landmarks)

    def copy(self):
        return StateVector(self.poses, self.landmarks,
                           self.fixed_poses, self.fixed_landmarks)


# ---------------------------------------------------------------------------
# factors and priors
# ---------------------------------------------------------------------------

@dataclass
class ReprojectionFactor:
    frame: int
    track: int
    landmark: int
    cov: np.ndarray = None          # 2x2 observation covariance, pixels^2
    kernel: RobustKernel = field(default_factory=RobustKernel)

    def __post_init__(self):
        self.cov = np.eye(2) if self.cov is None else np.asarray(self.cov, dtype=float)
        if self.cov.shape != (2, 2) or np.abs(self.cov - self.cov.T).max() > 1e-12:
            raise ValueError("covariance must be 2x2 symmetric")
        w = np.linalg.eigvalsh(self.cov)
        if w.min() <= 0:
            raise ValueError("covariance must be positive definite")
        self.info = np.linalg.inv(self.cov)


@dataclass
class ScalePrior:
    """Pins the distance between two camera centers (monocular scale gauge).

    The weight is deliberately moderate: the gradient entry of this prior is
    weight * r * dr/dx with rounding noise ~ weight * eps * |t|, so an overly
    stiff prior puts a floor under the reachable stationarity residual.
    """

    i: int
    j: int
    target: float
    weight: float = 1e4  # information of the 1-d residual

    def residual(self, state):
        d = state.poses[self.j].t - state.poses[self.i].t
        return float(np.linalg.norm(d)) - self.target

    def jacobians(self, state):
        """d residual / d tangent for poses i and j (1x6 each)."""
        d = state.poses[self.j].t - state.poses[self.i].t
        norm = np.linalg.norm(d)
        u = d / norm if norm > 0 else np.zeros(3)
        Ji = np.zeros((1, 6))
        Jj = np.zeros((1, 6))
        # translation of a retracted pose: t' = R_d t + V v, so dt/dw = -[t]x, dt/dv = I
        Jj[0, :3] = -u @ so3_hat(state.poses[self.j].t)
        Jj[0, 3:] = u
        Ji[0, :3] = u @ so3_hat(state.poses[self.i].t)
        Ji[0, 3:] = -u
        return Ji, Jj


# ---------------------------------------------------------------------------
# observation models
# ---------------------------------------------------------------------------

class ObservationModel:
    """Differentiable map (frame, track, theta) -> predicted pixel."""

    theta_dim = 0

    def theta0(self):
        return np.zeros(self.theta_dim)

    def observe(self, frame, track, theta):
        raise NotImplementedError

    def observe_jacobian(self, frame, track, theta):
        """2 x theta_dim derivative of observe w.r.t. theta."""
        raise NotImplementedError

    def observe_vjp(self, frames, tracks, theta, v):
        """sum_k v[k] @ observe_jacobian(frames[k], tracks[k], theta) for
        parallel (frame, track) arrays and (n, 2) cotangents ``v``, without
        forming a jacobian row."""
        raise NotImplementedError

    def observe_all(self, frames, tracks, theta):
        """Stacked predictions for parallel (frame, track) arrays."""
        return np.array([self.observe(f, t, theta) for f, t in zip(frames, tracks)])


class StaticModel(ObservationModel):
    """Fixed stored pixels; theta is empty.

    Frames and tracks are integers. The pixels are also stacked in one array,
    sorted by the integer code of their (frame, track) key, so ``observe_all``
    is a binary search and a gather; the stored observations must not change
    after construction.
    """

    def __init__(self, observations):
        self.observations = {k: np.asarray(v, dtype=float) for k, v in observations.items()}
        keys = np.array(list(self.observations), dtype=np.int64).reshape(-1, 2)
        self._track_range = ((int(keys[:, 1].min()), int(keys[:, 1].max()))
                             if len(keys) else (0, -1))
        codes = self._codes(keys[:, 0], keys[:, 1])
        order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[order]
        self._pixels = np.array(list(self.observations.values())).reshape(-1, 2)[order]

    def _codes(self, frames, tracks):
        lo, hi = self._track_range
        return frames * (hi - lo + 1) + (tracks - lo)

    def observe(self, frame, track, theta=None):
        return self.observations[(frame, track)].copy()

    def observe_all(self, frames, tracks, theta=None):
        frames = np.asarray(frames, dtype=np.int64)
        tracks = np.asarray(tracks, dtype=np.int64)
        lo, hi = self._track_range
        codes = self._codes(frames, tracks)
        rows = np.searchsorted(self._sorted_codes, codes)
        found = ((tracks >= lo) & (tracks <= hi) & (rows < len(self._sorted_codes)))
        found[found] = self._sorted_codes[rows[found]] == codes[found]
        if not found.all():
            k = int(np.argmin(found))
            raise KeyError((int(frames[k]), int(tracks[k])))
        return self._pixels[rows]

    def observe_jacobian(self, frame, track, theta=None):
        return np.zeros((2, 0))

    def observe_vjp(self, frames, tracks, theta, v):
        return np.zeros(0)


class TrackBiasModel(StaticModel):
    """Stored pixels plus one learned 2-vector bias per track."""

    def __init__(self, observations, track_ids, theta_init=None):
        super().__init__(observations)
        self.track_ids = list(track_ids)
        self.track_slot = {t: i for i, t in enumerate(self.track_ids)}
        self.theta_dim = 2 * len(self.track_ids)
        self._theta0 = (np.zeros(self.theta_dim) if theta_init is None
                        else np.asarray(theta_init, dtype=float).copy())
        if self._theta0.shape != (self.theta_dim,):
            raise ValueError("theta_init must hold one 2-vector per track")

    def theta0(self):
        return self._theta0.copy()

    def observe(self, frame, track, theta):
        s = self.track_slot[track]
        return self.observations[(frame, track)] + theta[2 * s:2 * s + 2]

    def observe_all(self, frames, tracks, theta):
        slots = np.fromiter(map(self.track_slot.__getitem__, tracks), dtype=int,
                            count=len(tracks))
        return super().observe_all(frames, tracks) + theta.reshape(-1, 2)[slots]

    def observe_jacobian(self, frame, track, theta):
        J = np.zeros((2, self.theta_dim))
        s = self.track_slot[track]
        J[0, 2 * s] = 1.0
        J[1, 2 * s + 1] = 1.0
        return J

    def observe_vjp(self, frames, tracks, theta, v):
        slots = np.fromiter(map(self.track_slot.__getitem__, tracks), dtype=int,
                            count=len(tracks))
        out = np.zeros((len(self.track_ids), 2))
        np.add.at(out, slots, np.reshape(v, (-1, 2)))
        return out.ravel()


class DescriptorFieldModel(ObservationModel):
    """Soft-argmax over a similarity map built from learned descriptor grids.

    theta holds one flattened H x W x C descriptor grid per track. The
    predicted pixel is the patch origin plus the similarity-weighted mean cell
    coordinate; the similarity map compares the grid against a fixed reference
    descriptor per track. Temperature is fixed at one: the similarity map is
    already exponential.
    """

    def __init__(self, track_ids, grids, refs, origins):
        self.track_ids = list(track_ids)
        self.grid_shape = {t: np.asarray(grids[t]).shape for t in self.track_ids}
        self.refs = {t: np.asarray(refs[t], dtype=float) for t in self.track_ids}
        self.origins = {k: np.asarray(v, dtype=float) for k, v in origins.items()}
        self._grids0 = {t: np.asarray(grids[t], dtype=float) for t in self.track_ids}
        self._offsets = {}
        off = 0
        for t in self.track_ids:
            size = int(np.prod(self.grid_shape[t]))
            self._offsets[t] = (off, off + size)
            off += size
        self.theta_dim = off

    def theta0(self):
        return np.concatenate([self._grids0[t].ravel() for t in self.track_ids])

    def _grid(self, track, theta):
        a, b = self._offsets[track]
        return theta[a:b].reshape(self.grid_shape[track])

    def _softargmax(self, track, theta):
        grid = self._grid(track, theta)
        sim = temporal.similarity_map(grid, self.refs[track])
        s = sim.sum()
        H, W = sim.shape
        xs = np.arange(W)
        ys = np.arange(H)
        u = float((sim.sum(axis=0) @ xs) / s)
        v = float((sim.sum(axis=1) @ ys) / s)
        return grid, sim, s, u, v

    def observe(self, frame, track, theta):
        _, _, _, u, v = self._softargmax(track, theta)
        return self.origins[(frame, track)] + np.array([u, v])

    def observe_all(self, frames, tracks, theta):
        out = np.empty((len(frames), 2))
        cache = {}
        for k, (f, t) in enumerate(zip(frames, tracks)):
            if t not in cache:
                _, _, _, u, v = self._softargmax(t, theta)
                cache[t] = np.array([u, v])
            out[k] = self.origins[(f, t)] + cache[t]
        return out

    def _softargmax_jacobian(self, track, theta):
        """d u / dG and d v / dG of a track's soft-argmax, flattened like
        its grid block of theta."""
        grid, sim, s, u, v = self._softargmax(track, theta)
        H, W, _ = grid.shape
        diff = grid - self.refs[track]
        r = np.linalg.norm(diff, axis=2)
        unit = np.where(r[..., None] > 1e-12, diff / np.where(r > 1e-12, r, 1.0)[..., None], 0.0)
        dsim_dgrid = -sim[..., None] * unit            # dC(y,x)/dG(y,x,c)
        xs = np.arange(W)[None, :, None]
        ys = np.arange(H)[:, None, None]
        du = ((xs - u) / s) * dsim_dgrid               # d u / dG
        dv = ((ys - v) / s) * dsim_dgrid
        return du.ravel(), dv.ravel()

    def observe_jacobian(self, frame, track, theta):
        J = np.zeros((2, self.theta_dim))
        a, b = self._offsets[track]
        J[0, a:b], J[1, a:b] = self._softargmax_jacobian(track, theta)
        return J

    def observe_vjp(self, frames, tracks, theta, v):
        """A prediction depends on theta only through its track's grid, so
        ``v`` is summed per track and contracted once with that track's
        soft-argmax jacobian."""
        uniq, inverse = np.unique(np.asarray(tracks, dtype=np.int64), return_inverse=True)
        vsum = np.zeros((len(uniq), 2))
        np.add.at(vsum, inverse, np.reshape(v, (-1, 2)))
        out = np.zeros(self.theta_dim)
        for track, (vu, vv) in zip(uniq.tolist(), vsum):
            du, dv = self._softargmax_jacobian(track, theta)
            a, b = self._offsets[track]
            out[a:b] = vu * du + vv * dv
        return out


# ---------------------------------------------------------------------------
# temporal attachment
# ---------------------------------------------------------------------------

@dataclass
class TemporalObservation:
    """One track inside an attached transition.

    The chained endpoint is produced by the observation model at (frame,
    track); the long-baseline endpoint and any dense descriptor data are
    frozen constants supplied with the scene.
    """

    frame: int
    track: int
    long_endpoint: np.ndarray
    grid: np.ndarray = None     # optional H x W x C patch for the dense losses
    origin: np.ndarray = None   # image pixel of grid cell (0, 0)


@dataclass
class TemporalAttachment:
    terms: temporal.TemporalEnergy
    transitions: list  # list of lists of TemporalObservation

    def build(self, obs_model, theta):
        """Materialize Transition structures with model-predicted endpoints."""
        out = []
        for obs_list in self.transitions:
            pairs = []
            dense = []
            for k, ob in enumerate(obs_list):
                rec = obs_model.observe(ob.frame, ob.track, theta)
                pairs.append(temporal.TrackPair(rec, np.asarray(ob.long_endpoint, float)))
                if ob.grid is not None:
                    dense.append(temporal.build_dense_item(
                        k, ob.grid, ob.origin, ob.long_endpoint))
            out.append(temporal.Transition(pairs, dense))
        return out


# ---------------------------------------------------------------------------
# problem
# ---------------------------------------------------------------------------

class Problem:
    """A reprojection factor graph with optional temporal terms."""

    def __init__(self, state, intrinsics, factors, obs_model,
                 temporal_terms=None, scale_prior=None):
        self.state = state
        if isinstance(intrinsics, CameraIntrinsics):
            intrinsics = [intrinsics] * state.n_poses
        self.intrinsics = list(intrinsics)
        self.factors = list(factors)
        self.obs_model = obs_model
        self.temporal_terms = temporal_terms
        self.scale_prior = scale_prior
        self.validate()

    def validate(self):
        n, m = self.state.n_poses, self.state.n_landmarks
        if len(self.intrinsics) != n:
            raise ValueError("need one intrinsics entry per pose")
        per_track = {}
        free_track = {}
        for f in self.factors:
            if not (0 <= f.frame < n and 0 <= f.landmark < m):
                raise ValueError(f"factor indices out of range: {f.frame}, {f.landmark}")
            per_track.setdefault(f.track, set()).add(f.frame)
            free_track[f.track] = not self.state.fixed_landmarks[f.landmark]
        for track, frames in per_track.items():
            # single-frame tracks are fine when the landmark is held fixed
            # (pose-only problems); a free landmark needs two views
            if free_track[track] and len(frames) < 2:
                raise ValueError(f"track {track} observed in fewer than 2 frames")
        self._build_cache()

    def _build_cache(self):
        """Per-factor arrays; the factor list is immutable after validation."""
        nf = len(self.factors)
        self.frame_idx = np.array([f.frame for f in self.factors], dtype=int)
        self.track_idx = [f.track for f in self.factors]
        self.lm_idx = np.array([f.landmark for f in self.factors], dtype=int)
        self.info_stack = (np.stack([f.info for f in self.factors])
                           if nf else np.zeros((0, 2, 2)))
        # Huber threshold per factor; inf selects the plain quadratic cost
        self.huber_delta = np.array(
            [f.kernel.delta if (f.kernel is not None and f.kernel.kind == "huber") else np.inf
             for f in self.factors])
        # fx, fy, cx, cy of every camera
        self.intrinsics_table = np.array([[c.fx, c.fy, c.cx, c.cy]
                                          for c in self.intrinsics]).reshape(-1, 4)

    def theta0(self):
        return self.obs_model.theta0()


def project_factors(problem, state):
    """Pinhole projection of every factor's landmark in one batch.

    Returns (pixels (nf, 2), camera-frame points (nf, 3), world-from-camera
    rotations of the observing poses (nf, 3, 3), active mask). A factor whose
    landmark is behind the camera (depth <= DEPTH_EPS) is inactive, and its
    pixel is (0, 0).
    """
    rot = quat_to_matrix_many([p.q for p in state.poses])[problem.frame_idx]
    t = np.array([p.t for p in state.poses]).reshape(-1, 3)[problem.frame_idx]
    d = state.landmarks[problem.lm_idx] - t
    # d @ R per factor: the rounding of geometry.camera_point, bit for bit
    c = np.matmul(d[:, None, :], rot)[:, 0]
    active = c[:, 2] > DEPTH_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        iz = np.where(active, 1.0 / c[:, 2], 0.0)
    intr = problem.intrinsics_table[problem.frame_idx]
    pix = intr[:, :2] * c[:, :2] * iz[:, None] + intr[:, 2:]
    return pix, c, rot, active


@dataclass
class FactorEvaluation:
    """Every factor of a problem evaluated at one state, in factor order.

    An inactive factor (landmark behind the camera) has a zero residual; sums
    over factors leave it out through ``active``.
    """

    e: np.ndarray          # (nf, 2) residuals, observation - projection
    s: np.ndarray          # (nf,) squared Mahalanobis norms e^T Sigma^-1 e
    active: np.ndarray     # (nf,) landmark in front of the camera
    rho: np.ndarray        # (nf,) robust costs rho(s)
    weight: np.ndarray     # (nf,) IRLS weights rho'(s)
    curvature: np.ndarray  # (nf,) rho''(s), nonzero on the Huber outlier branch
    campoint: np.ndarray   # (nf, 3) landmarks in the camera frame
    rot: np.ndarray        # (nf, 3, 3) world-from-camera rotations


def evaluate_residuals(problem, state, theta):
    """Predictions, projections, residuals and robust-kernel terms of every
    factor in one batch; see FactorEvaluation."""
    preds = problem.obs_model.observe_all(problem.frame_idx, problem.track_idx, theta)
    pix, cam, rot, active = project_factors(problem, state)
    e = np.where(active[:, None], preds - pix, 0.0)
    s = np.einsum("ka,kab,kb->k", e, problem.info_stack, e)
    return FactorEvaluation(e, s, active, *robust_terms(s, problem.huber_delta),
                            cam, rot)


def residual(factor, state, intr, obs_model, theta):
    """e = predicted observation - projection, in pixels.

    Raises CheiralityViolation when the landmark is behind the camera; the
    solver soft-deactivates such factors for the current linearization.
    """
    pred = obs_model.observe(factor.frame, factor.track, theta)
    proj = project(state.poses[factor.frame], intr, state.landmarks[factor.landmark])
    return pred - proj


def total_energy(problem, state, theta=None):
    """Robust reprojection energy plus gauge priors plus temporal terms."""
    theta = problem.theta0() if theta is None else theta
    ev = evaluate_residuals(problem, state, theta)
    total = float(ev.rho[ev.active].sum())
    if problem.scale_prior is not None:
        r = problem.scale_prior.residual(state)
        total += problem.scale_prior.weight * r * r
    if problem.temporal_terms is not None and problem.temporal_terms.transitions:
        terms = problem.temporal_terms.terms
        if terms.lambda_t != 0.0:
            transitions = problem.temporal_terms.build(problem.obs_model, theta)
            total += terms.lambda_t * temporal.temporal_energy(terms, transitions).value
    return total


def temporal_theta_gradient(problem, theta):
    """d(lambda_t * sum phi)/d theta through the model-predicted endpoints."""
    att = problem.temporal_terms
    if att is None or not att.transitions or att.terms.lambda_t == 0.0:
        return np.zeros(problem.obs_model.theta_dim)
    transitions = att.build(problem.obs_model, theta)
    res = temporal.temporal_energy(att.terms, transitions)
    observed = [ob for obs_list in att.transitions for ob in obs_list]
    g = problem.obs_model.observe_vjp([ob.frame for ob in observed],
                                      [ob.track for ob in observed], theta,
                                      np.concatenate(res.grad_endpoints))
    return att.terms.lambda_t * g
