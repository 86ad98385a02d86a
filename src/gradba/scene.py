"""Synthetic scenes: generation, noise injection, serialization, assembly.

A scene file is a versioned UTF-8 JSON document holding intrinsics, frames
(with optional ground-truth poses), landmarks (optional ground truth),
observations, recorded outlier indices, and optional observation-model and
temporal-consistency sections. Serialization is canonical (sorted keys), so
write -> read -> write is byte-identical.

All randomness flows through counter-based Philox generators seeded per
operation, which keeps generated scenes bit-identical across runs and
platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConfig, SceneFormatError
from .geometry import (CameraIntrinsics, DEPTH_EPS, Pose, project,
                       quat_from_matrix)
from .problem import (DescriptorFieldModel, Problem, ReprojectionFactor,
                      RobustKernel, ScalePrior, StateVector, StaticModel,
                      TemporalAttachment, TemporalObservation, TrackBiasModel,
                      softargmax)
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


def _look_at(eye, target, up=(0.0, 1.0, 0.0)):
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(target, dtype=float) - eye
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(quat_from_matrix(np.column_stack([x, y, z])), eye)


def _trajectory_poses(cfg):
    n = cfg.n_cameras
    mid = 0.5 * (cfg.depth_min + cfg.depth_max)
    if cfg.trajectory == "line":
        # lateral sweep looking down +z
        span = 0.35 * mid
        xs = np.linspace(-span / 2, span / 2, n)
        return [Pose(t=[x, 0.0, 0.0]) for x in xs], np.array([0.0, 0.0, mid])
    if cfg.trajectory == "arc":
        span = np.deg2rad(25.0)
        angles = np.linspace(-span / 2, span / 2, n)
        center = np.array([0.0, 0.0, mid])
        poses = []
        for a in angles:
            eye = center + mid * np.array([np.sin(a), 0.0, -np.cos(a)])
            poses.append(_look_at(eye, center))
        return poses, center
    # orbit: cameras on a circle around the scene, looking at its center
    angles = np.linspace(0.0, 0.9 * np.pi, n)
    poses = []
    for a in angles:
        eye = mid * np.array([np.sin(a), 0.12 * np.sin(2 * a), -np.cos(a)])
        poses.append(_look_at(eye, np.zeros(3)))
    return poses, np.zeros(3)


def generate_scene(cfg):
    """Scene with every landmark visible in at least two frames.

    Deterministic given the seed; raises InfeasibleConfig when a landmark
    cannot be placed after 1000 attempts.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    intr = CameraIntrinsics(cfg.fx, cfg.fy, cfg.cx, cfg.cy)
    poses, center = _trajectory_poses(cfg)
    half = 0.5 * (cfg.depth_max - cfg.depth_min)

    def visible(pose, p):
        c = pose.world_to_camera(p)
        if c[2] <= DEPTH_EPS:
            return False
        u = cfg.fx * c[0] / c[2] + cfg.cx
        v = cfg.fy * c[1] / c[2] + cfg.cy
        return 0.0 <= u <= cfg.width - 1 and 0.0 <= v <= cfg.height - 1

    landmarks = []
    attempts = 0
    while len(landmarks) < cfg.n_landmarks:
        if attempts >= 1000:
            raise InfeasibleConfig(
                f"could not place landmark {len(landmarks)} in 1000 attempts")
        attempts += 1
        if cfg.trajectory == "line":
            p = np.array([rng.uniform(-0.6 * half - 1, 0.6 * half + 1),
                          rng.uniform(-0.5 * half, 0.5 * half),
                          rng.uniform(cfg.depth_min, cfg.depth_max)])
        else:
            p = center + rng.uniform(-half, half, size=3)
        if sum(visible(P, p) for P in poses) >= 2:
            landmarks.append(p)
            attempts = 0

    observations = []
    for i, P in enumerate(poses):
        for j, p in enumerate(landmarks):
            if visible(P, p):
                u, v = project(P, intr, p)
                observations.append({"frame": i, "track": j,
                                     "u": float(u), "v": float(v)})

    scene = {
        "version": SCENE_VERSION,
        "intrinsics": {"fx": cfg.fx, "fy": cfg.fy, "cx": cfg.cx, "cy": cfg.cy,
                       "width": cfg.width, "height": cfg.height},
        "frames": [{"id": i, "timestamp": round(0.1 * i, 6),
                    "pose_gt": {"q_wxyz": P.q.tolist(), "t": P.t.tolist()}}
                   for i, P in enumerate(poses)],
        "landmarks": [{"id": j, "position_gt": p.tolist()}
                      for j, p in enumerate(landmarks)],
        "observations": observations,
        "outlier_indices": [],
    }
    if cfg.pixel_sigma > 0 or cfg.outlier_ratio > 0:
        scene = inject_noise(scene, cfg.pixel_sigma, cfg.outlier_ratio,
                             cfg.outlier_px, cfg.seed + 1)
    return scene


def inject_noise(scene, sigma_pix, outlier_ratio, outlier_mag, seed):
    """Gaussian pixel noise plus uniformly-directed outlier offsets.

    Outlier indices (positions in the observation list) are recorded in the
    returned scene for test oracles; ground truth is untouched.
    """
    out = json.loads(json.dumps(scene, sort_keys=True))
    obs = out["observations"]
    rng = np.random.Generator(np.random.Philox(key=seed))
    if sigma_pix > 0:
        noise = rng.normal(scale=sigma_pix, size=(len(obs), 2))
        for o, (du, dv) in zip(obs, noise):
            o["u"] = float(o["u"] + du)
            o["v"] = float(o["v"] + dv)
    n_out = int(round(outlier_ratio * len(obs)))
    chosen = sorted(rng.choice(len(obs), size=n_out, replace=False).tolist()) \
        if n_out else []
    for k in chosen:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        obs[k]["u"] = float(obs[k]["u"] + outlier_mag * np.cos(ang))
        obs[k]["v"] = float(obs[k]["v"] + outlier_mag * np.sin(ang))
    out["outlier_indices"] = sorted(set(out.get("outlier_indices", [])) | set(chosen))
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


def _is_finite_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _finite_vector(item, key, n, where):
    """``item[key]`` when it is a list of n finite numbers; anything else
    raises SceneFormatError."""
    value = item[key]
    if not (isinstance(value, list) and len(value) == n
            and all(map(_is_finite_number, value))):
        raise SceneFormatError(f"{where}: {key} must be {n} finite numbers, "
                               f"got {value!r}")
    return value


def load_scene(path):
    """The scene in a file. Observation pixels must be numbers; a NaN pixel
    is left for the solver to reject."""
    scene = read_json(path, "scene")
    if "version" not in scene:
        raise SceneFormatError(f"{path}: missing version field")
    ids = {f["id"] for f in _records(scene, "frames", ("id", "timestamp"))}
    tracks = {l["id"] for l in _records(scene, "landmarks", ("id",))}
    for o in _records(scene, "observations", ("frame", "track", "u", "v")):
        if o["frame"] not in ids or o["track"] not in tracks:
            raise SceneFormatError(
                f"observation references unknown frame/track: {o}")
        if type(o["u"]) not in _JSON_NUMBERS or type(o["v"]) not in _JSON_NUMBERS:
            raise SceneFormatError(f"observation pixel must be numbers: {o}")
    return scene


def scene_intrinsics(scene):
    """(CameraIntrinsics, K); missing or non-finite values and non-positive
    focal lengths raise SceneFormatError."""
    try:
        it = scene["intrinsics"]
        values = [it[k] for k in ("fx", "fy", "cx", "cy")]
        if not all(map(_is_finite_number, values)):
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


def gt_state(scene, fix_first=True):
    poses = []
    for f in scene["frames"]:
        if f.get("pose_gt") is None:
            raise SceneFormatError("scene has no ground-truth poses")
        poses.append(Pose(f["pose_gt"]["q_wxyz"], f["pose_gt"]["t"]))
    lms = []
    for l in scene["landmarks"]:
        if l.get("position_gt") is None:
            raise SceneFormatError("scene has no ground-truth landmarks")
        lms.append(l["position_gt"])
    fixed = [False] * len(poses)
    if fix_first:
        fixed[0] = True
    return StateVector(poses, np.array(lms), fixed_poses=fixed)


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
        "poses": [{"frame": i, "q_wxyz": p.q.tolist(), "t": p.t.tolist(),
                   "fixed": bool(state.fixed_poses[i])}
                  for i, p in enumerate(state.poses)],
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
    poses = [Pose(p["q_wxyz"], p["t"]) for p in pose_docs]
    fixed_p = [p["fixed"] for p in pose_docs]
    lms = np.array([l["position"] for l in lm_docs]).reshape(-1, 3)
    fixed_l = [l["fixed"] for l in lm_docs]
    tracks = [l["track"] for l in lm_docs]
    return StateVector(poses, lms, fixed_p, fixed_l), tracks


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def _check_model_kind(kind):
    if kind not in ("static", "trackbias", "descfield"):
        raise ValueError(f"unknown observation model {kind!r}")


def build_problem(scene, model="static", kernel=None, state=None,
                  track_ids=None, temporal_terms=None, scale_prior=True):
    """Factor-graph problem over a scene's observations.

    ``state`` defaults to the ground-truth state (all landmarks). When an
    initializer state is supplied, pass its track_ids so factors map tracks
    onto the right landmark rows; observations of dropped tracks are skipped.
    ``kernel``: None for the plain quadratic cost or a RobustKernel.
    """
    _check_model_kind(model)
    intr, _ = scene_intrinsics(scene)
    frame_order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    if state is None:
        state = gt_state(scene)
        track_ids = [l["id"] for l in scene["landmarks"]]
    elif track_ids is None:
        raise ValueError("track_ids required with an explicit state")
    lm_index = {t: k for k, t in enumerate(track_ids)}

    observations = {}
    factors = []
    for o in scene["observations"]:
        t = o["track"]
        if t not in lm_index:
            continue
        fi = frame_order[o["frame"]]
        observations[(fi, t)] = np.array([o["u"], o["v"]])
        cov = None
        if o.get("sigma") is not None:
            cov = (o["sigma"] ** 2) * np.eye(2)
        factors.append(ReprojectionFactor(fi, t, lm_index[t], cov=cov,
                                          kernel=kernel or RobustKernel("none")))

    if model == "static":
        obs_model = StaticModel(observations)
    elif model == "trackbias":
        tracks = sorted(lm_index)
        theta_init = None
        blk = scene.get("track_bias")
        if blk is not None:
            theta_init = np.concatenate(
                [np.asarray(blk["values"].get(str(t), [0.0, 0.0]), dtype=float)
                 for t in tracks])
        obs_model = TrackBiasModel(observations, tracks, theta_init)
    else:
        obs_model = descriptor_field_model(scene, observations, sorted(lm_index))

    prior = None
    if scale_prior and state.n_poses >= 2 and not state.fixed_poses[1]:
        prior = ScalePrior(0, 1, float(np.linalg.norm(
            state.poses[1].t - state.poses[0].t)))

    attachment = temporal_terms
    if attachment is None and "temporal" in scene:
        attachment = temporal_attachment(scene, lm_index,
                                         observed=set(observations))
    return Problem(state, intr, factors, obs_model,
                   temporal_terms=attachment, scale_prior=prior)


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
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    grid = np.empty((H, W, C))
    for y in range(H):
        for x in range(W):
            d = np.hypot(y - cy, x - cx)
            noise = rng.normal(size=C)
            noise /= np.linalg.norm(noise)
            grid[y, x] = ref + (base + slope * d) * noise
    return ref, grid


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


def _track_vectors(blk, name, track_ids, n):
    """(len(track_ids), n) array of the entries ``blk[name][str(track)]``; an
    entry that is missing or not n finite numbers raises SceneFormatError."""
    table = blk.get(name)
    out = np.empty((len(track_ids), n))
    for k, t in enumerate(track_ids):
        value = table.get(str(t)) if isinstance(table, dict) else None
        ok = (isinstance(value, list) and len(value) == n
              and set(map(type, value)).issubset(_JSON_NUMBERS))
        if ok:
            out[k] = value
        if not (ok and np.isfinite(out[k]).all()):
            raise SceneFormatError(f"descriptor_field: {name} of track {t} "
                                   f"must be a list of {n} finite numbers")
    return out


def descriptor_field_model(scene, observations, track_ids):
    """The scene's descriptor-field model, each observation's patch placed so
    the prediction at the stored grids equals its pixel. A missing or
    malformed ``descriptor_field`` block raises SceneFormatError."""
    blk = scene.get("descriptor_field")
    if not isinstance(blk, dict):
        raise SceneFormatError("scene has no descriptor_field block")
    shape = blk.get("grid_shape")
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(n) is int and n >= 1 for n in shape)):
        raise SceneFormatError("descriptor_field: grid_shape must be three "
                               f"positive integers [H, W, C], got {shape!r}")
    grids = _track_vectors(blk, "grids", track_ids, math.prod(shape)).reshape(-1, *shape)
    refs = _track_vectors(blk, "refs", track_ids, shape[2])
    offsets = dict(zip(track_ids, softargmax(grids, refs)[2]))
    origins = {k: p - offsets[k[1]] for k, p in observations.items()}
    return DescriptorFieldModel(track_ids, dict(zip(track_ids, grids)),
                                dict(zip(track_ids, refs)), origins)


# ---------------------------------------------------------------------------
# temporal section
# ---------------------------------------------------------------------------

def attach_temporal(scene, n_transitions=3, tracks_per_transition=4,
                    drift_px=1.5, grid_shape=(9, 9, 8), sigma_long=0.2,
                    seed=0):
    """Synthetic-tracker temporal section: chained endpoints with
    controllable drift against near-truth long-baseline references, plus
    descriptor patches for the dense losses."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    intr, _ = scene_intrinsics(scene)
    poses = gt_poses(scene)
    lms = {l["id"]: np.array(l["position_gt"]) for l in scene["landmarks"]}
    observed = {}
    for o in scene["observations"]:
        observed.setdefault(o["frame"], {})[o["track"]] = np.array([o["u"], o["v"]])
    H, W, C = grid_shape
    transitions = []
    frames = sorted(observed)
    for k in range(n_transitions):
        frame = frames[min(1 + k, len(frames) - 1)]
        tracks = sorted(observed[frame])[:tracks_per_transition]
        items = []
        for t in tracks:
            true_px = project(poses[frame], intr, lms[t])
            rec = true_px + drift_px * rng.normal(size=2)
            long = true_px + sigma_long * rng.normal(size=2)
            _, grid = _drifting_grid(rng, grid_shape, 0.2, 0.3)
            origin = long - np.array([(W - 1) / 2.0, (H - 1) / 2.0])
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


def temporal_transitions(scene):
    """Standalone Transition structures from the scene's temporal section."""
    blk = scene.get("temporal")
    if blk is None:
        raise SceneFormatError("scene has no temporal block")
    out = []
    for tr in blk["transitions"]:
        pairs = []
        dense = []
        for k, item in enumerate(tr["items"]):
            pairs.append(TrackPair(np.array(item["recursive"]),
                                   np.array(item["long"]),
                                   bool(item.get("valid", True))))
            if item.get("grid") is not None:
                H, W, C = item["grid_shape"]
                grid = np.array(item["grid"]).reshape(H, W, C)
                dense.append(build_dense_item(k, grid, np.array(item["origin"]),
                                              np.array(item["long"])))
        out.append(Transition(pairs, dense))
    return out


def temporal_attachment(scene, lm_index, observed=None, terms=None):
    """Problem attachment: chained endpoints come from the observation model
    at (frame, track); frozen data comes from the scene section."""
    blk = scene.get("temporal")
    if blk is None:
        return None
    frame_order = {f["id"]: k for k, f in enumerate(scene["frames"])}
    terms = TemporalEnergy() if terms is None else terms
    transitions = []
    for tr in blk["transitions"]:
        obs_list = []
        for item in tr["items"]:
            t = item["track"]
            fi = frame_order[tr["frame"]]
            if t not in lm_index:
                continue
            if observed is not None and (fi, t) not in observed:
                continue
            grid = None
            origin = None
            if item.get("grid") is not None:
                H, W, C = item["grid_shape"]
                grid = np.array(item["grid"]).reshape(H, W, C)
                origin = np.array(item["origin"])
            obs_list.append(TemporalObservation(fi, t, np.array(item["long"]),
                                                grid, origin))
        if obs_list:
            transitions.append(obs_list)
    if not transitions:
        return None
    return TemporalAttachment(terms, transitions)
