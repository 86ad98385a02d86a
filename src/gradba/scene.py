"""Synthetic scenes: generation, noise injection, serialization, assembly.

A scene file is a versioned UTF-8 JSON document holding intrinsics, frames
(with optional ground-truth poses), landmarks (optional ground truth),
observations, recorded outlier indices, and optional observation-model and
temporal-consistency sections. Serialization is canonical (sorted keys), so
write -> read -> write is byte-identical.

All randomness flows through counter-based Philox generators seeded per
operation, which keeps generated scenes bit-identical across runs and
platforms. Pixel noise is drawn on arrays and written to new observation
records, so ``inject_noise`` leaves its input scene alone.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConfig, SceneFormatError
from .geometry import (CameraIntrinsics, Pose, pinhole, project, quat_from_matrix,
                       quat_to_matrix)
from .problem import (DescriptorFieldModel, Problem, ScalePrior, StateVector,
                      StaticModel, TemporalAttachment, TemporalObservation,
                      TrackBiasModel, softargmax)
from .temporal import TemporalEnergy, TrackPair, Transition, build_dense_item

SCENE_VERSION = 1


@dataclass
class SyntheticSceneConfig:
    n_cameras: int = 6
    n_landmarks: int = 50
    trajectory: str = "orbit"          # "line" | "arc" | "orbit"
    depth_min: float = 4.0
    depth_max: float = 9.0
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480
    pixel_sigma: float = 0.0
    outlier_ratio: float = 0.0
    outlier_px: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n_cameras < 2 or self.n_landmarks < 8:
            raise ValueError("need >= 2 cameras and >= 8 landmarks")
        if not 0.0 <= self.outlier_ratio <= 1.0:
            raise ValueError("outlier_ratio must be in [0, 1]")
        if self.trajectory not in ("line", "arc", "orbit"):
            raise ValueError(f"unknown trajectory {self.trajectory!r}")
        if not 0 < self.depth_min < self.depth_max:
            raise ValueError("need 0 < depth_min < depth_max")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("fx and fy must be positive")
        if self.pixel_sigma < 0 or self.outlier_px < 0:
            raise ValueError("pixel_sigma and outlier_px must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")


def _look_at(eye, target, up=(0.0, 1.0, 0.0)):
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(target, dtype=float) - eye
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(quat_from_matrix(np.column_stack([x, y, z])), eye)


def _trajectory_poses(cfg):
    """The camera poses, and the box (base, lo, hi) that landmarks are drawn
    from: base plus a uniform draw in [lo, hi) per axis."""
    n = cfg.n_cameras
    mid = 0.5 * (cfg.depth_min + cfg.depth_max)
    half = 0.5 * (cfg.depth_max - cfg.depth_min)
    if cfg.trajectory == "line":
        # lateral sweep looking down +z
        span = 0.35 * mid
        xs = np.linspace(-span / 2, span / 2, n)
        return [Pose(t=[x, 0.0, 0.0]) for x in xs], (
            0.0, [-0.6 * half - 1, -0.5 * half, cfg.depth_min],
            [0.6 * half + 1, 0.5 * half, cfg.depth_max])
    if cfg.trajectory == "arc":
        span = np.deg2rad(25.0)
        center = np.array([0.0, 0.0, mid])
        return [_look_at(center + mid * np.array([np.sin(a), 0.0, -np.cos(a)]), center)
                for a in np.linspace(-span / 2, span / 2, n)], (center, -half, half)
    # orbit: cameras on a circle around the scene, looking at its center
    return [_look_at(mid * np.array([np.sin(a), 0.12 * np.sin(2 * a), -np.cos(a)]), np.zeros(3))
            for a in np.linspace(0.0, 0.9 * np.pi, n)], (np.zeros(3), -half, half)


def generate_scene(cfg):
    """Scene with every landmark visible in at least two frames.

    Candidates are drawn in blocks, one per missing landmark, and projected
    into every frame by one ``pinhole`` call; a candidate in front of two or
    more cameras with its pixel in the image is kept, in draw order. A block
    holds the doubles of as many single draws and nothing draws after the
    last landmark, so the scene is the same as one drawn a candidate at a
    time, and deterministic given the seed. Raises InfeasibleConfig after
    1000 rejected candidates in a row.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    poses, (base, lo, hi) = _trajectory_poses(cfg)
    qs = np.array([P.q for P in poses])
    rot, centres = quat_to_matrix(qs), np.array([P.t for P in poses])
    row = CameraIntrinsics(cfg.fx, cfg.fy, cfg.cx, cfg.cy).row()
    blocks, placed, misses = [], 0, 0  # misses: rejections since the last landmark
    while placed < cfg.n_landmarks:
        cand = base + rng.uniform(lo, hi, size=(cfg.n_landmarks - placed, 3))
        pix, _, front = pinhole(rot, centres, row, cand[:, None, :])
        vis = front & ((0.0 <= pix) & (pix <= [cfg.width - 1, cfg.height - 1])).all(axis=-1)
        kept = np.flatnonzero(vis.sum(axis=1) >= 2)
        # attempts since the last landmark placed, at each kept candidate and the next draw
        tries = np.diff(kept, prepend=-1 - misses, append=len(cand))
        late = np.flatnonzero(tries > 1000)
        if late.size and placed + late[0] < cfg.n_landmarks:
            raise InfeasibleConfig(
                f"could not place landmark {placed + late[0]} in 1000 attempts")
        blocks.append((cand[kept], pix[kept], vis[kept]))
        placed, misses = placed + len(kept), tries[-1] - 1

    # every visible (pose, landmark) pair, pose-major
    landmarks, pix, seen = (np.concatenate(b) for b in zip(*blocks))
    frame, track = np.nonzero(seen.T)
    observations = [{"frame": i, "track": j, "u": u, "v": v} for i, j, (u, v) in
                    zip(frame.tolist(), track.tolist(), pix[track, frame].tolist())]

    scene = {
        "version": SCENE_VERSION,
        "intrinsics": {"fx": cfg.fx, "fy": cfg.fy, "cx": cfg.cx, "cy": cfg.cy,
                       "width": cfg.width, "height": cfg.height},
        "frames": [{"id": i, "timestamp": round(0.1 * i, 6),
                    "pose_gt": {"q_wxyz": P.q.tolist(), "t": P.t.tolist()}}
                   for i, P in enumerate(poses)],
        "landmarks": [{"id": j, "position_gt": p}
                      for j, p in enumerate(landmarks.tolist())],
        "observations": observations,
        "outlier_indices": [],
    }
    if cfg.pixel_sigma > 0 or cfg.outlier_ratio > 0:
        scene = inject_noise(scene, cfg.pixel_sigma, cfg.outlier_ratio,
                             cfg.outlier_px, cfg.seed + 1)
    return scene


def inject_noise(scene, sigma_pix, outlier_ratio, outlier_mag, seed):
    """Gaussian pixel noise plus uniformly-directed outlier offsets, drawn
    as arrays: an (n, 2) noise block, then the outlier positions and angles.

    Returns a new scene with new observation records and every other section
    shared with ``scene``, which is not modified. Outlier indices (positions
    in the observation list) are recorded for test oracles.
    """
    obs = scene["observations"]
    uv = np.array([(o["u"], o["v"]) for o in obs], dtype=float).reshape(-1, 2)
    rng = np.random.Generator(np.random.Philox(key=seed))
    if sigma_pix > 0:
        uv += rng.normal(scale=sigma_pix, size=(len(obs), 2))
    n_out = int(round(outlier_ratio * len(obs)))
    chosen = np.sort(rng.choice(len(obs), size=n_out, replace=False))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n_out)
    uv[chosen] += outlier_mag * np.column_stack([np.cos(ang), np.sin(ang)])
    out = dict(scene)
    out["observations"] = [{**o, "u": u, "v": v} for o, (u, v) in zip(obs, uv.tolist())]
    out["outlier_indices"] = sorted(set(scene.get("outlier_indices", []))
                                    | set(chosen.tolist()))
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps_scene(scene):
    return json.dumps(scene, sort_keys=True, indent=1) + "\n"


def save_scene(scene, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scene(scene))


def read_json(path, what):
    """The JSON object in a file; a missing file, malformed JSON and a top
    level that is not an object raise SceneFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneFormatError(f"{what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise SceneFormatError(f"{what} {path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{what} {path}: top level must be an object")
    return doc


def _records(doc, name, keys):
    """The list ``doc[name]``; a missing list, or an entry that is not an
    object holding ``keys``, raises SceneFormatError."""
    items = doc.get(name)
    if not isinstance(items, list):
        raise SceneFormatError(f"{name} must be a list")
    for item in items:
        if not isinstance(item, dict) or not set(keys) <= item.keys():
            raise SceneFormatError(f"each of {name} needs {', '.join(keys)}: {item}")
    return items


_JSON_NUMBERS = (int, float)  # the types json gives numbers; bool is not one


def _finite_numbers(value, n):
    """``value`` as a float array when it is a list of n finite numbers,
    otherwise None."""
    if not (isinstance(value, list) and len(value) == n
            and set(map(type, value)).issubset(_JSON_NUMBERS)):
        return None
    out = np.array(value, dtype=float)
    return out if np.isfinite(out).all() else None


def _finite_vector(item, key, n, where):
    """``item[key]`` as a float array when it is a list of n finite numbers;
    anything else raises SceneFormatError."""
    value = _finite_numbers(item.get(key), n)
    if value is None:
        raise SceneFormatError(f"{where}: {key} must be {n} finite numbers, "
                               f"got {reprlib.repr(item.get(key))}")
    return value


def _is_sigma(value):
    """True for a finite number > 0 whose square is a positive finite float."""
    try:
        return type(value) in _JSON_NUMBERS and value > 0 and 0.0 < float(value) ** 2 < math.inf
    except OverflowError:
        return False


def load_scene(path):
    """The scene in a file. Frame, landmark and observation ids must be
    integers, no frame id or landmark id repeated, frame timestamps finite
    and strictly increasing numbers (as TUM files need), observation pixels
    numbers, each (frame, track) pair is observed once, and a ``sigma`` is
    absent, null or a finite number > 0; a NaN pixel is left for the solver
    to reject."""
    scene = read_json(path, "scene")
    if "version" not in scene:
        raise SceneFormatError(f"{path}: missing version field")
    frames = _records(scene, "frames", ("id", "timestamp"))
    landmarks = _records(scene, "landmarks", ("id",))
    for item in frames + landmarks:
        if type(item["id"]) is not int:
            raise SceneFormatError(f"frame and landmark ids must be integers, "
                                   f"got {reprlib.repr(item['id'])}")
    stamps = [f["timestamp"] for f in frames]
    values = _finite_numbers(stamps, len(stamps))
    if values is None or (np.diff(values) <= 0).any():
        raise SceneFormatError("frame timestamps must be finite, strictly increasing "
                               f"numbers, got {reprlib.repr(stamps)}")
    ids = {f["id"] for f in frames}
    tracks = {l["id"] for l in landmarks}
    for what, items, unique in (("frame", frames, ids), ("landmark", landmarks, tracks)):
        if len(unique) < len(items):
            listed = [item["id"] for item in items]
            repeated = next(i for k, i in enumerate(listed) if i in listed[:k])
            raise SceneFormatError(f"{what} id {repeated} is repeated")
    seen = set()
    for o in _records(scene, "observations", ("frame", "track", "u", "v")):
        if type(o["frame"]) is not int or type(o["track"]) is not int:
            raise SceneFormatError(f"observation frame and track must be integers: {o}")
        if o["frame"] not in ids or o["track"] not in tracks:
            raise SceneFormatError(
                f"observation references unknown frame/track: {o}")
        if type(o["u"]) not in _JSON_NUMBERS or type(o["v"]) not in _JSON_NUMBERS:
            raise SceneFormatError(f"observation pixel must be numbers: {o}")
        if o.get("sigma") is not None and not _is_sigma(o["sigma"]):
            raise SceneFormatError(f"observation sigma must be a finite number > 0: {o}")
        if (o["frame"], o["track"]) in seen:
            raise SceneFormatError(f"observation of a (frame, track) pair is repeated: {o}")
        seen.add((o["frame"], o["track"]))
    track_bias_values(scene)
    return scene


def track_bias_values(scene):
    """The scene's ``track_bias`` offsets as a dict of track id (a string)
    to 2-vector, or None without the block. A block that is not a ``values``
    map of finite 2-vectors keyed by track ids of the scene raises
    SceneFormatError."""
    blk = scene.get("track_bias")
    if blk is None:
        return None
    values = blk.get("values") if isinstance(blk, dict) else None
    tracks = {str(l["id"]) for l in scene["landmarks"]}
    if not (isinstance(values, dict) and set(values) <= tracks):
        raise SceneFormatError("track_bias: values must map track ids of the scene to offsets")
    return {t: _finite_vector(values, t, 2, "track_bias") for t in values}


def scene_intrinsics(scene):
    """(CameraIntrinsics, K); missing or non-finite values and non-positive
    focal lengths raise SceneFormatError."""
    try:
        it = scene["intrinsics"]
        values = [it[k] for k in ("fx", "fy", "cx", "cy")]
        if _finite_numbers(values, 4) is None:
            raise ValueError(f"fx, fy, cx, cy must be finite numbers, got {values!r}")
        intr = CameraIntrinsics(*values)
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneFormatError(f"scene intrinsics: {exc!r}") from exc
    return intr, intr.matrix()


def scene_window(scene):
    """Per-frame dicts track -> pixel, ordered by frame list position."""
    order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    window = [{} for _ in scene["frames"]]
    for o in scene["observations"]:
        window[order[o["frame"]]][o["track"]] = np.array([o["u"], o["v"]])
    return window


def gt_state(scene):
    if any(f.get("pose_gt") is None for f in scene["frames"]):
        raise SceneFormatError("scene has no ground-truth poses")
    if any(l.get("position_gt") is None for l in scene["landmarks"]):
        raise SceneFormatError("scene has no ground-truth landmarks")
    lms = np.array([l["position_gt"] for l in scene["landmarks"]])
    fixed = [k == 0 for k in range(len(scene["frames"]))]
    return StateVector(gt_poses(scene), lms, fixed_poses=fixed)


def gt_poses(scene):
    return [Pose(f["pose_gt"]["q_wxyz"], f["pose_gt"]["t"])
            for f in scene["frames"]]


def timestamps(scene):
    return [f["timestamp"] for f in scene["frames"]]


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

def save_state(state, track_ids, path):
    doc = {
        "version": 1,
        "poses": [{"frame": i, "q_wxyz": q, "t": t, "fixed": fixed}
                  for i, (q, t, fixed) in enumerate(zip(state.q.tolist(), state.t.tolist(),
                                                        state.fixed_poses.tolist()))],
        "landmarks": [{"track": int(t), "position": state.landmarks[k].tolist(),
                       "fixed": bool(state.fixed_landmarks[k])}
                      for k, t in enumerate(track_ids)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_state(path):
    doc = read_json(path, "state")
    if doc.get("version") != 1:
        raise SceneFormatError(f"{path}: unsupported state version")
    pose_docs = _records(doc, "poses", ("q_wxyz", "t", "fixed"))
    lm_docs = _records(doc, "landmarks", ("track", "position", "fixed"))
    for p in pose_docs:
        if not any(_finite_vector(p, "q_wxyz", 4, f"{path}: pose")):
            raise SceneFormatError(f"{path}: pose q_wxyz must not be zero")
        _finite_vector(p, "t", 3, f"{path}: pose")
    for l in lm_docs:
        _finite_vector(l, "position", 3, f"{path}: landmark")
    if not all(isinstance(d["fixed"], bool) for d in pose_docs + lm_docs):
        raise SceneFormatError(f"{path}: each fixed must be true or false")
    tracks = [l["track"] for l in lm_docs]
    if not all(type(t) is int for t in tracks):
        raise SceneFormatError(f"{path}: each landmark track must be an integer")
    if len(set(tracks)) < len(tracks):
        raise SceneFormatError(f"{path}: a landmark track is repeated")
    state = StateVector([Pose(p["q_wxyz"], p["t"]) for p in pose_docs],
                        np.array([l["position"] for l in lm_docs]).reshape(-1, 3),
                        [p["fixed"] for p in pose_docs], [l["fixed"] for l in lm_docs])
    return state, tracks


def check_state_fits(scene, state, track_ids):
    """Raise SceneFormatError unless the state has one pose per scene frame
    and each of its tracks is a landmark id of the scene."""
    if state.n_poses != len(scene["frames"]):
        raise SceneFormatError(f"state has {state.n_poses} poses for "
                               f"{len(scene['frames'])} scene frames")
    unknown = set(track_ids) - {l["id"] for l in scene["landmarks"]}
    if unknown:
        raise SceneFormatError(f"state tracks {sorted(unknown)} are not landmark ids "
                               "of the scene")


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def build_problem(scene, model="static", kernel=None, state=None, track_ids=None):
    """Factor-graph problem over a scene's observations.

    ``state`` defaults to the ground-truth state (all landmarks). When an
    initializer state is supplied, pass its track_ids so factors map tracks
    onto the right landmark rows; observations of dropped tracks are skipped.
    ``kernel``: None for the plain quadratic cost or a RobustKernel.
    """
    if model not in ("static", "trackbias", "descfield"):
        raise ValueError(f"unknown observation model {model!r}")
    intr, _ = scene_intrinsics(scene)
    frame_order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    if state is None:
        state = gt_state(scene)
        track_ids = [l["id"] for l in scene["landmarks"]]
    elif track_ids is None:
        raise ValueError("track_ids required with an explicit state")
    lm_index = {t: k for k, t in enumerate(track_ids)}

    kept = [o for o in scene["observations"] if o["track"] in lm_index]
    frames = np.array([frame_order[o["frame"]] for o in kept], dtype=int)
    tracks = np.array([o["track"] for o in kept], dtype=int)
    landmarks = np.array([lm_index[o["track"]] for o in kept], dtype=int)
    pixels = np.array([[o["u"], o["v"]] for o in kept], dtype=float).reshape(-1, 2)
    # sigma ** 2 by Python per observation, rounded as a lone covariance's
    var = [1.0 if o.get("sigma") is None else o["sigma"] ** 2 for o in kept]
    covs = np.array(var, dtype=float)[:, None, None] * np.eye(2) if set(var) - {1.0} else None

    ids = sorted(lm_index)
    if model == "static":
        obs_model = StaticModel(frames, tracks, pixels)
    elif model == "trackbias":
        values = track_bias_values(scene)
        theta_init = None if values is None else np.concatenate(
            [values.get(str(t), np.zeros(2)) for t in ids])
        obs_model = TrackBiasModel(frames, tracks, pixels, ids, theta_init)
    else:
        obs_model = descriptor_field_model(scene, frames, tracks, pixels, ids)

    prior = None
    if state.n_poses >= 2 and not state.fixed_poses[1]:
        prior = ScalePrior(0, 1, float(np.linalg.norm(state.t[1] - state.t[0])))

    attachment = (temporal_attachment(scene, set(zip(frames.tolist(), tracks.tolist())))
                  if "temporal" in scene else None)
    return Problem(state, intr, frames, tracks, landmarks, obs_model, covs=covs,
                   kernel=kernel, temporal_terms=attachment, scale_prior=prior)


# ---------------------------------------------------------------------------
# descriptor-field section
# ---------------------------------------------------------------------------

def _drifting_grid(rng, grid_shape, base, slope):
    """A unit reference descriptor and an H x W x C grid whose descriptors
    drift away from it with distance to the grid center: each cell is the
    reference plus a random direction of length base + slope * distance."""
    H, W, C = grid_shape
    ref = rng.normal(size=C)
    ref /= np.linalg.norm(ref)
    dist = np.hypot(np.arange(H)[:, None] - (H - 1) / 2.0,
                    np.arange(W)[None, :] - (W - 1) / 2.0)
    noise = rng.normal(size=(H, W, C))
    # vecdot takes one dot product per cell, rounded as a lone cell's norm is
    noise /= np.sqrt(np.vecdot(noise, noise))[..., None]
    return ref, ref + (base + slope * dist)[..., None] * noise


def attach_descriptor_field(scene, grid_shape=(5, 5, 4), seed=0):
    """Write a descriptor-field block: one grid per track, origins per
    observation chosen so the soft-argmax reproduces the stored pixel at the
    initial parameters."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    H, W, C = grid_shape
    tracks = sorted(l["id"] for l in scene["landmarks"])
    drawn = {t: _drifting_grid(rng, grid_shape, 0.25, 0.45) for t in tracks}
    scene["descriptor_field"] = {
        "grid_shape": [H, W, C],
        "grids": {str(t): drawn[t][1].ravel().tolist() for t in tracks},
        "refs": {str(t): drawn[t][0].tolist() for t in tracks},
    }
    return scene


def _grid_shape(shape, where, min_hw):
    """``shape`` when it is integers [H, W, C] with H, W >= min_hw and C >= 1;
    anything else raises SceneFormatError."""
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(n) is int for n in shape)
            and min(shape[:2]) >= min_hw and shape[2] >= 1):
        raise SceneFormatError(f"{where}: grid_shape must be integers [H, W, C] with "
                               f"H, W >= {min_hw} and C >= 1, got {shape!r}")
    return shape


def _track_vectors(blk, name, track_ids, n):
    """(len(track_ids), n) array of the entries ``blk[name][str(track)]``; an
    entry that is missing or not n finite numbers raises SceneFormatError."""
    table = blk.get(name)
    out = np.empty((len(track_ids), n))
    for k, t in enumerate(track_ids):
        value = _finite_numbers(table.get(str(t)) if isinstance(table, dict) else None, n)
        if value is None:
            raise SceneFormatError(f"descriptor_field: {name} of track {t} "
                                   f"must be a list of {n} finite numbers")
        out[k] = value
    return out


def descriptor_field_model(scene, frames, tracks, pixels, track_ids):
    """The scene's descriptor-field model over parallel frame, track and
    pixel arrays, each observation's patch placed so the prediction at the
    stored grids equals its pixel. ``track_ids`` is ascending. A missing or
    malformed ``descriptor_field`` block raises SceneFormatError."""
    blk = scene.get("descriptor_field")
    if not isinstance(blk, dict):
        raise SceneFormatError("scene has no descriptor_field block")
    shape = _grid_shape(blk.get("grid_shape"), "descriptor_field", 1)
    grids = _track_vectors(blk, "grids", track_ids, math.prod(shape)).reshape(-1, *shape)
    refs = _track_vectors(blk, "refs", track_ids, shape[2])
    offsets = softargmax(grids, refs)[2][np.searchsorted(track_ids, tracks)]
    return DescriptorFieldModel(frames, tracks, pixels - offsets, track_ids, grids, refs)


# ---------------------------------------------------------------------------
# temporal section
# ---------------------------------------------------------------------------

DRIFT_PX = 1.5    # per-axis sigma of a chained endpoint about the truth, px
SIGMA_LONG = 0.2  # per-axis sigma of a long-baseline reference about the truth, px


def attach_temporal(scene, n_transitions=3, tracks_per_transition=4,
                    grid_shape=(9, 9, 8), seed=0):
    """Synthetic-tracker temporal section: chained endpoints that drift by
    DRIFT_PX against near-truth long-baseline references, plus descriptor
    patches centred on the references for the dense losses. A chained
    endpoint that drifts out of its patch is clamped to the patch's edge, so
    every endpoint can be sampled."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    intr, _ = scene_intrinsics(scene)
    poses = gt_poses(scene)
    lms = {l["id"]: np.array(l["position_gt"]) for l in scene["landmarks"]}
    observed = {}
    for o in scene["observations"]:
        observed.setdefault(o["frame"], {})[o["track"]] = np.array([o["u"], o["v"]])
    H, W, C = grid_shape
    reach = np.array([W - 1, H - 1], dtype=float)  # a patch's far corner from its origin
    transitions = []
    frames = sorted(observed)
    for k in range(n_transitions):
        frame = frames[min(1 + k, len(frames) - 1)]
        tracks = sorted(observed[frame])[:tracks_per_transition]
        items = []
        for t in tracks:
            true_px = project(poses[frame], intr, lms[t])
            rec = true_px + DRIFT_PX * rng.normal(size=2)
            long = true_px + SIGMA_LONG * rng.normal(size=2)
            _, grid = _drifting_grid(rng, grid_shape, 0.2, 0.3)
            origin = long - reach / 2.0
            # the chained endpoint is clamped into the patch; its far bound is
            # the float below origin + reach, which can round past the edge
            rec = np.clip(rec, origin, np.nextafter(origin + reach, origin))
            items.append({"track": int(t),
                          "recursive": rec.tolist(),
                          "long": long.tolist(),
                          "valid": True,
                          "grid": grid.ravel().tolist(),
                          "grid_shape": [H, W, C],
                          "origin": origin.tolist()})
        transitions.append({"frame": int(frame), "items": items})
    scene["temporal"] = {"transitions": transitions}
    return scene


def _known(value, ids):
    return type(value) is int and value in ids


def _temporal_item(item, tracks, where):
    """One parsed item of a temporal transition; see ``_temporal_section``."""
    if not (isinstance(item, dict) and _known(item.get("track"), tracks)):
        raise SceneFormatError(f"{where}: track must be a landmark id of the scene")
    valid = item.get("valid", True)
    if not isinstance(valid, bool):
        raise SceneFormatError(f"{where}: valid must be true or false")
    parsed = {"track": item["track"], "valid": valid, "grid": None, "origin": None,
              "recursive": _finite_vector(item, "recursive", 2, where),
              "long": _finite_vector(item, "long", 2, where)}
    if item.get("grid") is not None:
        shape = _grid_shape(item.get("grid_shape"), where, 2)
        parsed["grid"] = _finite_vector(item, "grid", math.prod(shape), where).reshape(shape)
        parsed["origin"] = _finite_vector(item, "origin", 2, where)
    return parsed


def _temporal_section(scene):
    """The scene's temporal section as one (frame index, items) pair per
    transition, or None without one. An item is a dict of its track, valid
    flag, recursive and long endpoints, and patch grid (H x W x C) and origin
    (both None without a patch). A malformed section raises SceneFormatError."""
    blk = scene.get("temporal")
    if blk is None:
        return None
    if not (isinstance(blk, dict) and isinstance(blk.get("transitions"), list)):
        raise SceneFormatError("temporal: transitions must be a list")
    frame_order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    tracks = {l["id"] for l in scene["landmarks"]}
    out = []
    for k, tr in enumerate(blk["transitions"]):
        where = f"temporal: transition {k}"
        if not (isinstance(tr, dict) and isinstance(tr.get("items"), list)):
            raise SceneFormatError(f"{where}: needs a frame and a list of items")
        if not _known(tr.get("frame"), frame_order):
            raise SceneFormatError(f"{where}: frame {tr.get('frame')!r} is not in the scene")
        items = [_temporal_item(item, tracks, f"{where}, item {i}")
                 for i, item in enumerate(tr["items"])]
        out.append((frame_order[tr["frame"]], items))
    return out


def temporal_transitions(scene):
    """Standalone Transition structures from the scene's temporal section."""
    section = _temporal_section(scene)
    if section is None:
        raise SceneFormatError("scene has no temporal block")
    return [Transition([TrackPair(it["recursive"], it["long"], it["valid"]) for it in items],
                       [build_dense_item(k, it["grid"], it["origin"], it["long"])
                        for k, it in enumerate(items) if it["grid"] is not None])
            for _, items in section]


def temporal_attachment(scene, observed):
    """Problem attachment: chained endpoints come from the observation model
    at (frame, track); frozen data comes from the scene section. Items whose
    (frame index, track) key is not in ``observed`` are left out."""
    section = _temporal_section(scene)
    if section is None:
        return None
    transitions = []
    for fi, items in section:
        obs_list = [TemporalObservation(fi, it["track"], it["long"], it["grid"], it["origin"],
                                        it["valid"])
                    for it in items if (fi, it["track"]) in observed]
        if obs_list:
            transitions.append(obs_list)
    if not transitions:
        return None
    return TemporalAttachment(TemporalEnergy(), transitions)
