"""Multi-frame temporal consistency energies over descriptor grids.

Three losses are combined into the per-transition factor
``phi = alpha * L_mrp + beta * (L_sim + L_hot)``:

- ``loss_mrp``: mean distance between the endpoint reached by frame-to-frame
  chaining and the endpoint predicted directly from the first frame, with a
  distance gate that drops outlier pairs.
- ``loss_sim``: masked mean squared difference between the similarity map of
  the chained endpoint and a frozen long-baseline reference map. The frozen
  reference is an input constant; no gradient flows through it.
- ``loss_hot``: masked mean squared difference between the similarity map and
  a Gaussian unimodality target centered at the long-baseline endpoint.

Similarity maps follow ``C(x, y) = exp(-||D(x, y) - d||)`` for a descriptor
grid D and a reference descriptor d. All operations are pure; gradients with
respect to chained endpoints and descriptor-grid entries are analytic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, OutOfBounds

_TINY = 1e-300


def check_descriptor_map(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3:
        raise DimensionMismatch(f"descriptor map must be HxWxC, got shape {grid.shape}")
    if grid.shape[0] < 2 or grid.shape[1] < 2:
        raise DimensionMismatch("descriptor map needs H, W >= 2")
    if not np.all(np.isfinite(grid)):
        raise DimensionMismatch("descriptor map has non-finite entries")
    return grid


def _bilinear_setup(shape_hw, p):
    """Cell indices and weights for bilinear sampling at pixel p = (x, y).

    At integer coordinates the left/lower cell interval is used, so the
    sub-gradient at cell boundaries comes from the left cell.
    """
    H, W = shape_hw
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= W - 1 and 0.0 <= y <= H - 1):
        raise OutOfBounds(f"pixel ({x}, {y}) outside [0, {W - 1}] x [0, {H - 1}]")
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    if x0 == x and x0 >= 1:
        x0 -= 1
    if y0 == y and y0 >= 1:
        y0 -= 1
    x0 = min(x0, W - 2)
    y0 = min(y0, H - 2)
    ax, ay = x - x0, y - y0
    cells = [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]
    wts = np.array([(1 - ax) * (1 - ay), ax * (1 - ay), (1 - ax) * ay, ax * ay])
    # d(weights)/dx and /dy
    dwx = np.array([-(1 - ay), (1 - ay), -ay, ay])
    dwy = np.array([-(1 - ax), -ax, (1 - ax), ax])
    return cells, wts, dwx, dwy


def descriptor_at(grid, p):
    """Bilinearly interpolated descriptor at pixel p = (x, y)."""
    grid = check_descriptor_map(grid)
    cells, wts, _, _ = _bilinear_setup(grid.shape[:2], p)
    return sum(w * grid[cy, cx] for (cy, cx), w in zip(cells, wts))


def descriptor_at_with_jacobian(grid, p):
    """Descriptor plus its derivative w.r.t. p; also returns the cell stencil."""
    grid = check_descriptor_map(grid)
    cells, wts, dwx, dwy = _bilinear_setup(grid.shape[:2], p)
    vals = np.stack([grid[cy, cx] for cy, cx in cells])  # 4 x C
    d = wts @ vals
    dd_dp = np.stack([dwx @ vals, dwy @ vals], axis=1)  # C x 2
    return d, dd_dp, cells, wts


def similarity_map(grid, d):
    """C(x, y) = exp(-||D(x, y) - d||_2); values in (0, 1]."""
    grid = check_descriptor_map(grid)
    d = np.asarray(d, dtype=float)
    if d.shape != (grid.shape[2],):
        raise DimensionMismatch(f"descriptor dim {d.shape} vs grid C={grid.shape[2]}")
    return np.exp(-np.linalg.norm(grid - d, axis=2))


def gaussian_target(center, sigma, H, W):
    """Gaussian likelihood map on the integer grid, centered at (x_m, y_m)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    xs = np.arange(W) - float(center[0])
    ys = np.arange(H) - float(center[1])
    g = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / (2.0 * np.pi * sigma ** 2)


@dataclass
class TrackPair:
    """Endpoints of the two propagation paths for one feature track."""

    recursive: np.ndarray  # pixel reached by frame-to-frame chaining
    long: np.ndarray       # pixel from the direct first-to-last prediction
    valid: bool = True


@dataclass
class MrpResult:
    value: float
    retained: np.ndarray  # boolean mask over the input pairs
    empty: bool           # no pair survived the gate
    grad: np.ndarray      # (n_pairs, 2) d value / d recursive endpoints


def loss_mrp(pairs, tau):
    """Mean endpoint discrepancy over pairs that are valid and closer than
    tau, and its gradient with respect to the recursive endpoints."""
    n = len(pairs)
    retained = np.zeros(n, dtype=bool)
    dists = np.zeros(n)
    diffs = np.zeros((n, 2))
    for i, pr in enumerate(pairs):
        if not pr.valid:
            continue
        diffs[i] = np.asarray(pr.recursive, float) - np.asarray(pr.long, float)
        dists[i] = float(np.linalg.norm(diffs[i]))
        retained[i] = dists[i] < tau
    grad = np.zeros((n, 2))
    if not retained.any():
        return MrpResult(0.0, retained, True, grad)
    moving = retained & (dists > 0)
    grad[moving] = diffs[moving] / (dists[moving, None] * int(retained.sum()))
    return MrpResult(float(dists[retained].mean()), retained, False, grad)


def masked_square_loss(c_rec, target, mask_threshold):
    """(value, dL/dc_rec) of the mean squared difference between a similarity
    map and a constant target map, over the cells where they differ by at most
    ``mask_threshold``; no gradient flows into the target."""
    c_rec = np.asarray(c_rec, dtype=float)
    target = np.asarray(target, dtype=float)
    if c_rec.shape != target.shape:
        raise DimensionMismatch(f"{c_rec.shape} vs {target.shape}")
    diff = c_rec - target
    mask = np.abs(diff) <= mask_threshold
    m = int(mask.sum())
    grad = np.zeros_like(c_rec)
    if m == 0:
        return 0.0, grad
    grad[mask] = 2.0 * diff[mask] / m
    return float(np.mean(diff[mask] ** 2)), grad


def loss_sim(c_rec, c_long_frozen, mask_threshold):
    """Masked mean squared map difference; the reference map is frozen."""
    return masked_square_loss(c_rec, c_long_frozen, mask_threshold)[0]


def loss_hot(c_rec, g, mask_threshold):
    """Masked mean squared difference to the Gaussian unimodality target."""
    return masked_square_loss(c_rec, g, mask_threshold)[0]


# ---------------------------------------------------------------------------
# transition data and the combined factor
# ---------------------------------------------------------------------------

@dataclass
class TemporalEnergy:
    """Weights and thresholds of the temporal factor."""

    alpha: float = 1.0           # weight of the trajectory term
    beta: float = 1.0            # weight of the dense descriptor term
    lambda_t: float = 0.1        # weight of the summed factor inside the total energy
    tau: float = 5.0             # distance gate for loss_mrp, pixels
    mask_threshold: float = 0.5  # masked-difference gate for the dense losses
    sigma: float = 2.0           # Gaussian target width, pixels

    def __post_init__(self):
        if min(self.alpha, self.beta, self.lambda_t) < 0:
            raise ValueError("temporal weights must be >= 0")
        if self.tau <= 0 or self.sigma <= 0:
            raise ValueError("tau and sigma must be positive")


@dataclass
class DenseItem:
    """Dense descriptor-level data for one track within a transition.

    The frozen long-baseline similarity map is precomputed; gradients flow
    only through the chained-endpoint branch (endpoint and grid entries).
    """

    pair_index: int
    grid: np.ndarray            # H x W x C descriptor patch in the end frame
    origin: np.ndarray          # image pixel of grid cell (0, 0)
    frozen_long_sim: np.ndarray  # H x W constant reference map


@dataclass
class Transition:
    """One window transition: sparse endpoint pairs plus optional dense items."""

    pairs: list
    dense: list = field(default_factory=list)


def build_dense_item(pair_index, grid, origin, long_endpoint):
    """Precompute the frozen reference map for a transition's dense term."""
    grid = check_descriptor_map(grid)
    origin = np.asarray(origin, dtype=float)
    local = np.asarray(long_endpoint, dtype=float) - origin
    d_long = descriptor_at(grid, local)
    return DenseItem(pair_index, grid, origin, similarity_map(grid, d_long))


@dataclass
class TemporalEnergyResult:
    value: float                 # sum of phi over transitions (unweighted by lambda_t)
    l_mrp: list
    l_sim: list
    l_hot: list
    grad_endpoints: list         # per transition: (n_pairs, 2) d phi / d recursive
    grad_grids: list             # per transition: {dense item index: HxWxC}
    mrp_empty: list


def _dense_item_terms(item, pair, terms):
    """L_sim + L_hot for one item plus gradients w.r.t. endpoint and grid."""
    grid = item.grid
    H, W, _ = grid.shape
    local = np.asarray(pair.recursive, float) - item.origin
    d_rec, dd_dp, cells, wts = descriptor_at_with_jacobian(grid, local)

    diff = grid - d_rec                       # H x W x C
    r = np.linalg.norm(diff, axis=2)
    c_rec = np.exp(-r)
    safe_r = np.where(r > 1e-12, r, 1.0)
    unit = np.where(r[..., None] > 1e-12, diff / safe_r[..., None], 0.0)

    v_sim, a_sim = masked_square_loss(c_rec, item.frozen_long_sim, terms.mask_threshold)
    local_long = np.asarray(pair.long, float) - item.origin
    g_target = gaussian_target(local_long, terms.sigma, H, W)
    v_hot, a_hot = masked_square_loss(c_rec, g_target, terms.mask_threshold)

    a = a_sim + a_hot                         # dL/dC_rec
    ac = (a * c_rec)[..., None] * unit        # dL/d d_rec contributions per cell, and -dL/dD direct
    grad_grid = -ac                           # direct path: dC/dD(x,y,c) = -C * unit
    s = ac.sum(axis=(0, 1))                   # dL/d d_rec, (C,)
    for (cy, cx), w in zip(cells, wts):       # indirect path through the sampled descriptor
        grad_grid[cy, cx] += w * s
    grad_endpoint = s @ dd_dp                 # (2,)
    return v_sim, v_hot, grad_endpoint, grad_grid


def temporal_energy(terms, transitions):
    """Sum of phi = alpha * L_mrp + beta * (L_sim + L_hot) over transitions.

    Dense losses are averaged over a transition's dense items so the factor is
    insensitive to how many tracks carry descriptor patches. Returns analytic
    gradients w.r.t. the chained endpoints and the descriptor-grid entries.
    """
    total = 0.0
    all_mrp, all_sim, all_hot, all_empty = [], [], [], []
    all_gep, all_ggrid = [], []
    for tr in transitions:
        mrp_res = loss_mrp(tr.pairs, terms.tau)
        gep = terms.alpha * mrp_res.grad
        ggrid = {}
        sim_v = hot_v = 0.0
        if tr.dense:
            k = len(tr.dense)
            for idx, item in enumerate(tr.dense):
                vs, vh, ge, gg = _dense_item_terms(item, tr.pairs[item.pair_index], terms)
                sim_v += vs / k
                hot_v += vh / k
                gep[item.pair_index] += terms.beta * ge / k
                ggrid[idx] = terms.beta * gg / k
        phi = terms.alpha * mrp_res.value + terms.beta * (sim_v + hot_v)
        total += phi
        all_mrp.append(mrp_res.value)
        all_sim.append(sim_v)
        all_hot.append(hot_v)
        all_empty.append(mrp_res.empty)
        all_gep.append(gep)
        all_ggrid.append(ggrid)
    return TemporalEnergyResult(total, all_mrp, all_sim, all_hot, all_gep, all_ggrid, all_empty)
