import numpy as np
import pytest

from gradba.errors import DimensionMismatch, OutOfBounds
from gradba.temporal import (TemporalEnergy, TrackPair,
                             Transition, build_dense_item, descriptor_at,
                             descriptor_at_with_jacobian, gaussian_target,
                             loss_hot, loss_mrp, loss_sim, masked_square_loss,
                             similarity_map, temporal_energy)


def random_transition(seed, H=7, W=7, C=5, n=3, spread=0.8):
    r = np.random.default_rng(seed)
    origin = np.array([0.5, 0.7])
    # keep both endpoints strictly inside the patch, away from cell borders
    lo = origin + 0.3
    hi = origin + np.array([W, H]) - 1.3
    pairs, dense = [], []
    for k in range(n):
        mid = origin + np.array([(W - 1) / 2.0, (H - 1) / 2.0])
        long = np.clip(mid + r.normal(scale=0.4, size=2), lo, hi)
        rec = np.clip(long + r.normal(scale=spread, size=2), lo, hi)
        pairs.append(TrackPair(rec, long, True))
        grid = r.normal(size=(H, W, C)) * 0.3 + r.normal(size=C) * 0.2
        dense.append(build_dense_item(k, grid, origin, long))
    return Transition(pairs, dense)


class TestDescriptorAt:
    def test_integer_coordinates_exact(self, rng):
        grid = rng.normal(size=(4, 5, 3))
        for y in range(4):
            for x in range(5):
                np.testing.assert_allclose(descriptor_at(grid, (x, y)),
                                           grid[y, x], atol=1e-15)

    def test_patch_center_mean(self, rng):
        grid = rng.normal(size=(2, 2, 4))
        np.testing.assert_allclose(descriptor_at(grid, (0.5, 0.5)),
                                   grid.reshape(4, -1).mean(axis=0), atol=1e-15)

    def test_out_of_bounds(self, rng):
        grid = rng.normal(size=(3, 3, 2))
        with pytest.raises(OutOfBounds):
            descriptor_at(grid, (-0.1, 0.0))
        with pytest.raises(OutOfBounds):
            descriptor_at(grid, (0.0, 2.5))

    def test_jacobian_matches_fd_off_grid(self, rng):
        grid = rng.normal(size=(6, 6, 3))
        for _ in range(30):
            p = rng.uniform(0.1, 4.9, size=2)
            if min(abs(p - np.round(p))) < 0.02:
                continue
            _, dd, _, _ = descriptor_at_with_jacobian(grid, p)
            h = 1e-6
            for c in range(2):
                d = np.zeros(2)
                d[c] = h
                fd = (descriptor_at(grid, p + d) - descriptor_at(grid, p - d)) / (2 * h)
                assert np.abs(dd[:, c] - fd).max() < 1e-8

    def test_boundary_subgradient_uses_left_cell(self, rng):
        grid = rng.normal(size=(4, 4, 2))
        # at integer x=2 the derivative should come from cells 1 and 2
        _, dd, cells, _ = descriptor_at_with_jacobian(grid, (2.0, 1.5))
        xs = sorted({cx for _, cx in cells})
        assert xs == [1, 2]


class TestSimilarityMap:
    def test_identical_descriptor_all_ones(self):
        grid = np.tile([0.3, -0.2], (4, 4, 1))
        np.testing.assert_allclose(similarity_map(grid, [0.3, -0.2]),
                                   np.ones((4, 4)))

    def test_distance_one_cell(self):
        grid = np.zeros((2, 2, 2))
        grid[1, 1] = [1.0, 0.0]
        C = similarity_map(grid, [0.0, 0.0])
        assert C[1, 1] == pytest.approx(np.exp(-1.0))
        assert C[0, 0] == pytest.approx(1.0)

    def test_range(self, rng):
        grid = rng.normal(size=(5, 6, 8))
        C = similarity_map(grid, rng.normal(size=8))
        assert np.all(C > 0.0) and np.all(C <= 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            similarity_map(rng.normal(size=(4, 4, 3)), np.zeros(5))


class TestGaussianTarget:
    def test_center_value(self):
        g = gaussian_target((3.0, 2.0), 1.5, 5, 7)
        assert g[2, 3] == pytest.approx(1.0 / (2 * np.pi * 1.5 ** 2))

    def test_unit_offset(self):
        g = gaussian_target((3.0, 2.0), 1.0, 5, 7)
        assert g[2, 4] == pytest.approx(np.exp(-0.5) / (2 * np.pi))

    def test_reflection_symmetry(self):
        g = gaussian_target((3.0, 2.0), 2.0, 5, 7)
        np.testing.assert_allclose(g, g[::-1, :][::-1, :], atol=1e-15)
        np.testing.assert_allclose(g[:, 3 - 2:3 + 3], g[:, 3 + 2:3 - 3:-1],
                                   atol=1e-15)


class TestLossMrp:
    def test_identical_endpoints(self):
        pairs = [TrackPair(np.array([1.0, 2.0]), np.array([1.0, 2.0]))] * 4
        res = loss_mrp(pairs, 5.0)
        assert res.value == 0.0 and not res.empty

    def test_single_pair(self):
        pairs = [TrackPair(np.array([2.0, 0.0]), np.array([0.0, 0.0]))]
        assert loss_mrp(pairs, 5.0).value == pytest.approx(2.0)

    def test_outlier_excluded(self):
        pairs = [TrackPair(np.array([2.0, 0.0]), np.array([0.0, 0.0])),
                 TrackPair(np.array([100.0, 0.0]), np.array([0.0, 0.0]))]
        res = loss_mrp(pairs, 5.0)
        assert res.value == pytest.approx(2.0)
        assert res.retained.tolist() == [True, False]

    def test_empty_flag(self):
        pairs = [TrackPair(np.array([100.0, 0.0]), np.array([0.0, 0.0]))]
        res = loss_mrp(pairs, 5.0)
        assert res.value == 0.0 and res.empty

    def test_invalid_pairs_skipped(self):
        pairs = [TrackPair(np.array([1.0, 0.0]), np.array([0.0, 0.0]), valid=False),
                 TrackPair(np.array([3.0, 0.0]), np.array([0.0, 0.0]))]
        assert loss_mrp(pairs, 5.0).value == pytest.approx(3.0)

    def test_gradient_matches_fd(self, rng):
        pairs = [TrackPair(rng.normal(size=2) * 2, rng.normal(size=2))
                 for _ in range(5)]
        grad = loss_mrp(pairs, 5.0).grad
        h = 1e-7
        for k in range(5):
            for c in range(2):
                orig = pairs[k].recursive.copy()
                pairs[k].recursive = orig + np.eye(2)[c] * h
                vp = loss_mrp(pairs, 5.0).value
                pairs[k].recursive = orig - np.eye(2)[c] * h
                vm = loss_mrp(pairs, 5.0).value
                pairs[k].recursive = orig
                assert abs(grad[k, c] - (vp - vm) / (2 * h)) < 1e-6


class TestLossSim:
    def test_identical_maps(self, rng):
        c = rng.uniform(0.1, 1.0, size=(5, 5))
        assert loss_sim(c, c, 0.5) == 0.0

    def test_constant_difference(self):
        a = np.full((4, 4), 0.8)
        b = np.full((4, 4), 0.5)
        assert loss_sim(a, b, 0.5) == pytest.approx(0.3 ** 2)

    def test_masking_excludes_large_differences(self):
        a = np.array([[0.9, 0.9], [0.9, 0.1]])
        b = np.array([[0.8, 0.8], [0.8, 0.9]])
        # |diff| = 0.1 except one cell at 0.8 which is masked out
        assert loss_sim(a, b, 0.5) == pytest.approx(0.1 ** 2)

    def test_frozen_branch_gradient_zero(self, rng):
        # only the chained map carries a gradient; it matches central
        # differences of loss_sim in that map
        a = rng.uniform(0.1, 1.0, size=(5, 5))
        b = rng.uniform(0.1, 1.0, size=(5, 5))
        value, grad_rec = masked_square_loss(a, b, 2.0)
        assert value == loss_sim(a, b, 2.0)
        assert np.abs(grad_rec).max() > 0
        h = 1e-6
        for y, x in [(0, 0), (2, 3), (4, 1)]:
            d = np.zeros_like(a)
            d[y, x] = h
            fd = (loss_sim(a + d, b, 2.0) - loss_sim(a - d, b, 2.0)) / (2 * h)
            assert abs(grad_rec[y, x] - fd) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss_sim(np.zeros((3, 3)), np.zeros((4, 3)), 0.5)


class TestLossHot:
    def test_exact_target(self):
        g = gaussian_target((2.0, 2.0), 1.0, 5, 5)
        assert loss_hot(g.copy(), g, 0.5) == 0.0

    def test_zero_map_equals_mean_g_squared(self):
        g = gaussian_target((2.0, 2.0), 2.0, 6, 7)
        # direct summation oracle
        expected = float((g ** 2).sum() / g.size)
        assert loss_hot(np.zeros_like(g), g, 0.5) == pytest.approx(expected,
                                                                   rel=1e-12)

    def test_strictly_positive_when_different(self, rng):
        g = gaussian_target((2.0, 2.0), 2.0, 5, 5)
        c = g.copy()
        c[1, 1] += 0.01
        assert loss_hot(c, g, 0.5) > 0.0


class TestTemporalEnergy:
    def test_zero_weights(self):
        tr = random_transition(0)
        terms = TemporalEnergy(alpha=0.0, beta=0.0)
        assert temporal_energy(terms, [tr]).value == 0.0

    def test_beta_zero_is_pure_mrp(self):
        tr = random_transition(1)
        terms = TemporalEnergy(alpha=1.7, beta=0.0, tau=50.0)
        res = temporal_energy(terms, [tr])
        direct = loss_mrp(tr.pairs, 50.0).value
        assert res.value == pytest.approx(1.7 * direct, rel=1e-12)

    def test_losses_nonnegative(self):
        for seed in range(10):
            tr = random_transition(seed)
            res = temporal_energy(TemporalEnergy(), [tr])
            assert res.value >= 0.0
            assert all(v >= 0 for v in res.l_mrp + res.l_sim + res.l_hot)

    def test_endpoint_gradients_match_fd(self):
        terms = TemporalEnergy(alpha=1.0, beta=1.0, tau=8.0,
                               mask_threshold=2.0, sigma=2.0)
        h = 1e-6
        for seed in range(8):
            tr = random_transition(seed)
            res = temporal_energy(terms, [tr])
            for k in range(len(tr.pairs)):
                for c in range(2):
                    orig = tr.pairs[k].recursive.copy()
                    tr.pairs[k].recursive = orig + np.eye(2)[c] * h
                    vp = temporal_energy(terms, [tr]).value
                    tr.pairs[k].recursive = orig - np.eye(2)[c] * h
                    vm = temporal_energy(terms, [tr]).value
                    tr.pairs[k].recursive = orig
                    fd = (vp - vm) / (2 * h)
                    an = res.grad_endpoints[0][k][c]
                    scale = max(np.abs(res.grad_endpoints[0]).max(), 1e-9)
                    assert abs(an - fd) / max(abs(fd), abs(an), 1e-3 * scale) < 1e-5

    def test_grid_gradients_match_fd(self):
        terms = TemporalEnergy(alpha=1.0, beta=1.0, tau=8.0,
                               mask_threshold=2.0, sigma=2.0)
        h = 1e-6
        for seed in range(5):
            tr = random_transition(seed)
            res = temporal_energy(terms, [tr])
            r = np.random.default_rng(seed + 50)
            for idx, item in enumerate(tr.dense):
                g = res.grad_grids[0][idx]
                for _ in range(8):
                    y = int(r.integers(item.grid.shape[0]))
                    x = int(r.integers(item.grid.shape[1]))
                    c = int(r.integers(item.grid.shape[2]))
                    orig = item.grid[y, x, c]
                    item.grid[y, x, c] = orig + h
                    vp = temporal_energy(terms, [tr]).value
                    item.grid[y, x, c] = orig - h
                    vm = temporal_energy(terms, [tr]).value
                    item.grid[y, x, c] = orig
                    fd = (vp - vm) / (2 * h)
                    scale = max(np.abs(g).max(), 1e-9)
                    assert abs(g[y, x, c] - fd) / max(abs(fd), abs(g[y, x, c]),
                                                      1e-3 * scale) < 1e-5


class TestAttachmentValidFlag:
    def test_invalid_items_leave_the_mrp_loss(self):
        from gradba.problem import temporal_term
        from gradba.scene import (SyntheticSceneConfig, attach_temporal,
                                  build_problem, generate_scene)
        scene = attach_temporal(generate_scene(SyntheticSceneConfig(seed=8)), seed=9)
        prob = build_problem(scene)
        _, res = temporal_term(prob, prob.theta0())
        assert max(res.l_mrp) > 0 and not any(res.mrp_empty)
        for tr in scene["temporal"]["transitions"]:
            for item in tr["items"]:
                item["valid"] = False
        prob = build_problem(scene)
        _, res = temporal_term(prob, prob.theta0())
        assert res.l_mrp == [0.0] * len(res.l_mrp) and all(res.mrp_empty)


class TestZeroWeightAttachmentBitIdentical:
    def test_optimize_unchanged(self):
        from conftest import build_ba_problem, problem_like
        from gradba.problem import TemporalAttachment, TemporalObservation
        from gradba.solver import optimize

        prob, x0, *_ = build_ba_problem(13, sigma=0.6)
        obs_list = [TemporalObservation(1, t, prob.obs_model.observe(1, t, prob.theta0()))
                    for t in (0, 1)]
        attach = TemporalAttachment(TemporalEnergy(alpha=0.0, beta=0.0,
                                                   lambda_t=0.0), [obs_list])
        prob2 = problem_like(prob, temporal_terms=attach, scale_prior=prob.scale_prior)
        xa, ra = optimize(prob, x0)
        xb, rb = optimize(prob2, x0)
        assert ra.final_energy == rb.final_energy
        assert ra.energies == rb.energies
        np.testing.assert_array_equal(xa.landmarks, xb.landmarks)
        for pa, pb in zip(xa.poses, xb.poses):
            np.testing.assert_array_equal(pa.q, pb.q)
            np.testing.assert_array_equal(pa.t, pb.t)


class TestDescriptorFieldEquivariance:
    def test_whole_cell_shift_moves_softargmax_by_one(self):
        from gradba.problem import DescriptorFieldModel
        rng = np.random.default_rng(21)
        H, W, C = 7, 9, 4
        ref = rng.normal(size=C)
        d = rng.normal(size=C)
        # uniform background with negligible similarity, so no mass enters or
        # leaves the weighted mean at the patch edges under the shift
        far = ref + 25.0 * d / np.linalg.norm(d)
        grid = np.tile(far, (H, W, 1))
        # localized bump of reference-like descriptors away from both edges
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                grid[3 + dy, 3 + dx] = ref + 0.1 * rng.normal(size=C)
        shifted = np.roll(grid, 1, axis=1)  # rolled-in column equals background
        shifted[:, 0] = far
        m = DescriptorFieldModel([0, 0], [0, 1], np.zeros((2, 2)), [0, 1],
                                 [grid, shifted], [ref, ref])
        theta = m.theta0()
        p0 = m.observe(0, 0, theta)
        p1 = m.observe(0, 1, theta)
        np.testing.assert_allclose(p1 - p0, [1.0, 0.0], atol=1e-6)
