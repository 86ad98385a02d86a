"""Factor-graph data model: states, observation models, and a Problem that
holds its reprojection factors as one table row per observation.

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

from dataclasses import dataclass

import numpy as np

from . import temporal
from .errors import DimensionMismatch
from .geometry import Pose, normalized, pinhole, quat_to_matrix, so3_hat

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
    """Poses first, landmarks second, with per-variable gauge-fix flags.

    Pose i is row i of ``q`` (N, 4), unit quaternions [w, x, y, z], and of
    ``t`` (N, 3), world-from-camera; ``landmarks`` is (M, 3). The constructor
    takes ``Pose`` objects and normalizes each q row once, as ``Pose(q)``
    does; ``copy`` keeps every bit. ``poses`` is a read-only tuple of
    ``Pose`` views of the rows, built once per state.
    """

    def __init__(self, poses, landmarks, fixed_poses=None, fixed_landmarks=None):
        poses = list(poses)
        self.q = normalized(np.array([p.q for p in poses], dtype=float).reshape(-1, 4))
        self.t = np.array([p.t for p in poses], dtype=float).reshape(-1, 3)
        self.landmarks = np.array(landmarks, dtype=float).reshape(-1, 3)
        n, m = len(self.q), len(self.landmarks)
        self.fixed_poses = (np.zeros(n, dtype=bool) if fixed_poses is None
                            else np.asarray(fixed_poses, dtype=bool).copy())
        self.fixed_landmarks = (np.zeros(m, dtype=bool) if fixed_landmarks is None
                                else np.asarray(fixed_landmarks, dtype=bool).copy())
        if self.fixed_poses.shape != (n,) or self.fixed_landmarks.shape != (m,):
            raise ValueError("fixed-mask shapes do not match the variables")
        self._poses = None

    @property
    def poses(self):
        if self._poses is None:
            q, t = self.q.view(), self.t.view()
            q.flags.writeable = t.flags.writeable = False
            self._poses = tuple(map(Pose.of_unit, q, t))
        return self._poses

    @property
    def n_poses(self):
        return len(self.q)

    @property
    def n_landmarks(self):
        return len(self.landmarks)

    def copy(self):
        new = object.__new__(StateVector)
        for name in ("q", "t", "landmarks", "fixed_poses", "fixed_landmarks"):
            setattr(new, name, getattr(self, name).copy())
        new._poses = None
        return new


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

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
        d = state.t[self.j] - state.t[self.i]
        return float(np.linalg.norm(d)) - self.target

    def jacobians(self, state):
        """d residual / d tangent for poses i and j (1x6 each)."""
        d = state.t[self.j] - state.t[self.i]
        norm = np.linalg.norm(d)
        u = d / norm if norm > 0 else np.zeros(3)
        # translation of a retracted pose: t' = R_d t + V v, so dt/dw = -[t]x, dt/dv = I
        return (np.concatenate([u @ so3_hat(state.t[self.i]), -u])[None],
                np.concatenate([-u @ so3_hat(state.t[self.j]), u])[None])


# ---------------------------------------------------------------------------
# observation models
# ---------------------------------------------------------------------------

def _find(sorted_keys, keys, columns, valid=True):
    """Positions of int ``keys`` in ``sorted_keys``; KeyError naming the
    first key (one entry of each of ``columns``) not there or not ``valid``."""
    pos = np.searchsorted(sorted_keys, keys)
    found = valid & (pos < len(sorted_keys))
    found[found] = sorted_keys[pos[found]] == keys[found]
    if not found.all():
        key = tuple(int(c[np.argmin(found)]) for c in columns)
        raise KeyError(key if len(key) > 1 else key[0])
    return pos


class ObservationModel:
    """Differentiable map (frame, track, theta) -> predicted pixel: the
    stored pixel of a (frame, track) key plus an offset of its track.

    The table is given as parallel arrays of frames, tracks and pixels, one
    row per key; a repeated key raises ValueError. theta holds one block per
    track, in ``track_ids`` order (by default the table's sorted tracks).
    The rows are kept as ``frames``, ``tracks`` and ``pixels``, sorted by the
    integer code of their key, so a lookup is a binary search and a gather;
    the table must not change after construction. Here the offsets are zero
    and theta is empty; a model with parameters defines ``track_offsets``
    and their cotangent ``_offsets_vjp``.
    """

    theta_dim = 0

    def __init__(self, frames, tracks, pixels, track_ids=None):
        frames, tracks = (np.asarray(a, dtype=np.int64).ravel() for a in (frames, tracks))
        pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        if not len(frames) == len(tracks) == len(pixels):
            raise ValueError("need one frame, track and pixel per observation")
        self._track_range = (int(tracks.min()), int(tracks.max())) if len(tracks) else (0, -1)
        codes = self._codes(frames, tracks)
        order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[order]
        self.frames, self.tracks, self.pixels = frames[order], tracks[order], pixels[order]
        repeated = np.flatnonzero(self._sorted_codes[1:] == self._sorted_codes[:-1])
        if len(repeated):
            k = repeated[0]
            raise ValueError(f"observation (frame, track) = ({self.frames[k]}, "
                             f"{self.tracks[k]}) is repeated")
        self.track_ids = np.unique(tracks).tolist() if track_ids is None else list(track_ids)
        ids = np.array(self.track_ids, dtype=np.int64)
        self._slot_order = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._slot_order]

    def theta0(self):
        return np.zeros(self.theta_dim)

    def _codes(self, frames, tracks):
        lo, hi = self._track_range
        return frames * (hi - lo + 1) + (tracks - lo)

    def _rows(self, frames, tracks):
        """Table rows of parallel (frame, track) arrays; KeyError on a pair
        the table does not hold."""
        frames, tracks = (np.asarray(a, dtype=np.int64) for a in (frames, tracks))
        lo, hi = self._track_range
        # an out-of-range track could alias the code of another key
        return _find(self._sorted_codes, self._codes(frames, tracks),
                     (frames, tracks), (tracks >= lo) & (tracks <= hi))

    def slots(self, tracks):
        """Positions of ``tracks`` in ``track_ids``; KeyError on another track."""
        tracks = np.asarray(tracks, dtype=np.int64)
        return self._slot_order[_find(self._sorted_ids, tracks, (tracks,))]

    def _offsets_vjp(self, theta, vsum):
        """theta cotangent of (n_tracks, 2) cotangents of ``track_offsets``."""
        return np.zeros(self.theta_dim)

    def observe_all(self, frames, tracks, theta=None):
        """Stacked predictions for parallel (frame, track) arrays."""
        pixels = self.pixels[self._rows(frames, tracks)]
        if not self.theta_dim:
            return pixels
        return pixels + self.track_offsets(theta)[self.slots(tracks)]

    def observe(self, frame, track, theta=None):
        return self.observe_all([frame], [track], theta)[0]

    def observe_vjp(self, frames, tracks, theta, v):
        """sum_k v[k] @ observe_jacobian(frames[k], tracks[k], theta) for
        parallel (frame, track) arrays and (n, 2) cotangents ``v``, without
        forming a jacobian row: ``v`` is summed per track, then contracted
        once with the offsets' jacobian."""
        vsum = np.zeros((len(self.track_ids), 2))
        np.add.at(vsum, self.slots(tracks), np.reshape(v, (-1, 2)))
        return self._offsets_vjp(theta, vsum)


class StaticModel(ObservationModel):
    """Fixed stored pixels; theta is empty."""

    def observe_jacobian(self, frame, track, theta=None):
        """2 x theta_dim derivative of observe w.r.t. theta."""
        return np.zeros((2, 0))


class TrackBiasModel(ObservationModel):
    """Stored pixels plus one learned 2-vector bias per track."""

    def __init__(self, frames, tracks, pixels, track_ids, theta_init=None):
        super().__init__(frames, tracks, pixels, track_ids)
        self.theta_dim = 2 * len(self.track_ids)
        self._theta0 = (np.zeros(self.theta_dim) if theta_init is None
                        else np.asarray(theta_init, dtype=float).copy())
        if self._theta0.shape != (self.theta_dim,):
            raise ValueError("theta_init must hold one 2-vector per track")

    def theta0(self):
        return self._theta0.copy()

    def track_offsets(self, theta):
        return np.reshape(theta, (-1, 2))

    def _offsets_vjp(self, theta, vsum):
        return vsum.ravel()

    def observe_jacobian(self, frame, track, theta):
        J = np.zeros((2, len(self.track_ids), 2))
        J[:, int(self.slots([track])[0])] = np.eye(2)
        return J.reshape(2, -1)


def softargmax(grids, refs):
    """Similarity maps (n, H, W), their sums (n,) and soft-argmax cell
    coordinates (n, 2) of descriptor grids (n, H, W, C) compared against
    reference descriptors (n, C)."""
    sim = np.exp(-np.linalg.norm(grids - refs[:, None, None], axis=3))
    s = sim.sum(axis=(1, 2))
    H, W = sim.shape[1:]
    # vecdot takes one dot product per grid, rounded as a lone grid's would be
    uv = np.column_stack([np.vecdot(sim.sum(axis=1), np.arange(W)),
                          np.vecdot(sim.sum(axis=2), np.arange(H))]) / s[:, None]
    return sim, s, uv


def _softargmax_jacobian(grids, refs):
    """(n, 2, H, W, C) derivatives of each grid's soft-argmax (u, v)."""
    sim, s, uv = softargmax(grids, refs)
    diff = grids - refs[:, None, None]
    r = np.linalg.norm(diff, axis=3, keepdims=True)
    unit = np.where(r > 1e-12, diff / np.where(r > 1e-12, r, 1.0), 0.0)
    dsim_dgrid = -sim[..., None] * unit            # dC(y,x)/dG(y,x,c)
    u, v, s = (a[:, None, None, None] for a in (uv[:, 0], uv[:, 1], s))
    xs, ys = np.arange(sim.shape[2])[:, None], np.arange(sim.shape[1])[:, None, None]
    return np.stack([((xs - u) / s) * dsim_dgrid,  # d u / dG
                     ((ys - v) / s) * dsim_dgrid], axis=1)


class DescriptorFieldModel(ObservationModel):
    """Soft-argmax over a similarity map built from learned descriptor grids.

    theta holds one flattened H x W x C descriptor grid per track, all of one
    shape. The stored pixel of a (frame, track) key is the origin of its
    patch, and the track's offset is the similarity-weighted mean cell
    coordinate; the similarity map compares the grid against a fixed
    reference descriptor per track. ``grids`` (n, H, W, C) and ``refs``
    (n, C) are given in ``track_ids`` order. Temperature is fixed at one: the
    similarity map is already exponential. A non-finite grid raises
    DimensionMismatch.
    """

    def __init__(self, frames, tracks, origins, track_ids, grids, refs):
        super().__init__(frames, tracks, origins, track_ids)
        shapes = {np.shape(g) for g in grids}
        if len(grids) != len(self.track_ids) or len(shapes) != 1 or len(next(iter(shapes))) != 3:
            raise ValueError(f"need one H x W x C grid shape for all tracks, got {shapes}")
        (self.grid_shape,) = shapes
        self._grids0 = np.array(grids, dtype=float)
        self.refs = np.array(refs, dtype=float)
        if self.refs.shape != (len(self.track_ids), self.grid_shape[2]):
            raise ValueError("need one reference descriptor of length C per track")
        self.theta_dim = self._grids0.size

    def theta0(self):
        return self._grids0.flatten()

    def _grids(self, theta):
        grids = np.reshape(theta, (-1, *self.grid_shape))
        if not np.isfinite(grids).all():
            raise DimensionMismatch("descriptor map has non-finite entries")
        return grids

    def track_offsets(self, theta):
        return softargmax(self._grids(theta), self.refs)[2]

    def _offsets_vjp(self, theta, vsum):
        J = _softargmax_jacobian(self._grids(theta), self.refs)
        return np.einsum("na,na...->n...", vsum, J).ravel()

    # its own attribute, so a per-class wrapper (perfbench's spans) finds it
    observe_all = ObservationModel.observe_all

    def observe_jacobian(self, frame, track, theta):
        """One track's grid alone, as a dense 2 x theta_dim row pair."""
        s = int(self.slots([track])[0])
        J = np.zeros((2, len(self.track_ids), self._grids0[0].size))
        J[:, s] = _softargmax_jacobian(self._grids(theta)[s:s + 1],
                                       self.refs[s:s + 1])[0].reshape(2, -1)
        return J.reshape(2, -1)


# ---------------------------------------------------------------------------
# temporal attachment
# ---------------------------------------------------------------------------

@dataclass
class TemporalAttachment:
    """Temporal terms whose chained endpoints the observation model predicts:
    ``temporal.Transition``s built once, whose TrackPairs carry the long
    endpoints and valid flags and whose DenseItems carry the frozen maps, and
    the (frame index, track) key of every pair in transition order, as int64
    arrays (ValueError unless there is one per pair). ``build`` swaps in the
    endpoints that the model predicts at those keys."""

    terms: temporal.TemporalEnergy
    transitions: list
    frames: np.ndarray
    tracks: np.ndarray

    def __post_init__(self):
        self.frames, self.tracks = (np.asarray(a, dtype=np.int64).ravel()
                                    for a in (self.frames, self.tracks))
        if not len(self.frames) == len(self.tracks) == sum(len(t.pairs) for t in self.transitions):
            raise ValueError("need one (frame, track) key per temporal pair")

    def build(self, obs_model, theta):
        """The transitions with the endpoints the model predicts at theta."""
        recs = iter(obs_model.observe_all(self.frames, self.tracks, theta))
        return [temporal.Transition([temporal.TrackPair(next(recs), p.long, p.valid)
                                     for p in tr.pairs], tr.dense)
                for tr in self.transitions]


# ---------------------------------------------------------------------------
# problem
# ---------------------------------------------------------------------------

class Problem:
    """A reprojection factor graph with optional temporal terms, held as one
    row per observation: parallel frame, track and landmark indices, an
    optional (k, 2, 2) stack of pixel covariances (identity without one),
    and one robust kernel for every factor (None for the plain quadratic
    cost). Every pose shares one CameraIntrinsics. The rows must not change
    after construction."""

    def __init__(self, state, intrinsics, frames, tracks, landmarks, obs_model,
                 covs=None, kernel=None, temporal_terms=None, scale_prior=None):
        self.state = state
        self.intrinsics = intrinsics
        self.frame_idx, self.track_idx, self.lm_idx = (
            np.array(a, dtype=int).ravel() for a in (frames, tracks, landmarks))
        nf = len(self.frame_idx)
        if not len(self.track_idx) == len(self.lm_idx) == nf:
            raise ValueError("need one frame, track and landmark per factor")
        self.info_stack = _information(covs, nf)
        self.kernel = kernel
        # Huber threshold per factor; inf selects the plain quadratic cost
        huber = kernel is not None and kernel.kind == "huber"
        self.huber_delta = np.full(nf, kernel.delta if huber else np.inf, dtype=float)
        self.obs_model = obs_model
        self.temporal_terms = temporal_terms
        self.scale_prior = scale_prior
        self.validate()

    def validate(self):
        n, m = self.state.n_poses, self.state.n_landmarks
        frames, tracks, lms = self.frame_idx, self.track_idx, self.lm_idx
        bad = (frames < 0) | (frames >= n) | (lms < 0) | (lms >= m)
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(f"factor indices out of range: {frames[k]}, {lms[k]}")
        # single-frame tracks are fine when the landmark is held fixed
        # (pose-only problems); a free landmark needs two views
        ids, slot = np.unique(tracks, return_inverse=True)
        views = np.bincount(np.unique(slot * n + frames) // n, minlength=len(ids))
        short = (views < 2)[slot] & ~self.state.fixed_landmarks[lms]
        if short.any():
            raise ValueError(f"track {tracks[np.argmax(short)]} observed in fewer than 2 frames")

    def theta0(self):
        return self.obs_model.theta0()


def _information(covs, nf):
    """Inverses of a (nf, 2, 2) stack of symmetric positive-definite pixel
    covariances; identities for None."""
    if covs is None:
        return np.tile(np.eye(2), (nf, 1, 1))
    covs = np.asarray(covs, dtype=float)
    if covs.shape != (nf, 2, 2) or np.abs(covs - covs.swapaxes(1, 2)).max(initial=0.0) > 1e-12:
        raise ValueError("covariance must be 2x2 symmetric")
    if (np.linalg.eigvalsh(covs).min(axis=1, initial=np.inf) <= 0).any():
        raise ValueError("covariance must be positive definite")
    return np.linalg.inv(covs)


def project_factors(problem, state):
    """Every factor's landmark through ``geometry.pinhole`` in one batch.

    Returns (pixels (nf, 2), camera-frame points (nf, 3), world-from-camera
    rotations of the observing poses (nf, 3, 3), active mask). A factor whose
    landmark is behind the camera (depth <= DEPTH_EPS) is inactive, and its
    pixel is (0, 0).
    """
    f = problem.frame_idx
    rot = quat_to_matrix(state.q)[f]
    pix, c, active = pinhole(rot, state.t[f], problem.intrinsics.row(),
                             state.landmarks[problem.lm_idx])
    return np.where(active[:, None], pix, 0.0), c, rot, active


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


def predictions(problem, theta):
    """The observation model's prediction of every factor at theta, (nf, 2)."""
    return problem.obs_model.observe_all(problem.frame_idx, problem.track_idx, theta)


def evaluate_residuals(problem, state, theta, preds=None):
    """Predictions, projections, residuals and robust-kernel terms of every
    factor in one batch; see FactorEvaluation. ``preds``, when given, is
    ``predictions`` at theta, which does not depend on the state."""
    preds = predictions(problem, theta) if preds is None else preds
    pix, cam, rot, active = project_factors(problem, state)
    e = np.where(active[:, None], preds - pix, 0.0)
    s = np.einsum("ka,kab,kb->k", e, problem.info_stack, e)
    return FactorEvaluation(e, s, active, *robust_terms(s, problem.huber_delta),
                            cam, rot)


def temporal_term(problem, theta):
    """The theta-only temporal term lambda_t * sum phi and its
    TemporalEnergyResult, or (0.0, None) when the problem has no temporal
    terms or lambda_t = 0. It does not depend on the state."""
    att = problem.temporal_terms
    if att is None or not att.transitions or att.terms.lambda_t == 0.0:
        return 0.0, None
    res = temporal.temporal_energy(att.terms, att.build(problem.obs_model, theta))
    return att.terms.lambda_t * res.value, res


def total_energy(problem, state, theta=None, temporal_value=None, ev=None):
    """Robust reprojection energy plus gauge priors plus temporal terms;
    ``temporal_value``, when given, is ``temporal_term`` at theta, and
    ``ev`` is ``evaluate_residuals`` at (state, theta)."""
    theta = problem.theta0() if theta is None else theta
    ev = evaluate_residuals(problem, state, theta) if ev is None else ev
    total = float(ev.rho[ev.active].sum())
    if problem.scale_prior is not None:
        r = problem.scale_prior.residual(state)
        total += problem.scale_prior.weight * r * r
    if temporal_value is None:
        temporal_value = temporal_term(problem, theta)[0]
    return total + temporal_value


def temporal_theta_gradient(problem, theta):
    """d(lambda_t * sum phi)/d theta through the model-predicted endpoints."""
    _, res = temporal_term(problem, theta)
    if res is None:
        return np.zeros(problem.obs_model.theta_dim)
    att = problem.temporal_terms
    return att.terms.lambda_t * problem.obs_model.observe_vjp(
        att.frames, att.tracks, theta, np.concatenate(res.grad_endpoints))
