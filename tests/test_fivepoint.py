import numpy as np
import pytest

from gradba.errors import TooFewCorrespondences
from gradba.fivepoint import (decompose_essential, epipolar_errors,
                              essential_from_five)
from gradba.geometry import so3_hat

from loop_reference import se3_exp


def synthetic_pair(rng, n=5, rot_scale=0.3):
    R = se3_exp(np.concatenate([rng.normal(scale=rot_scale, size=3),
                                np.zeros(3)])).rotation_matrix()
    t = rng.normal(size=3)
    t = t / np.linalg.norm(t)
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                           rng.uniform(2, 6, n)])
    qa = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pb = pts @ R.T + t
    qb = pb / np.linalg.norm(pb, axis=1, keepdims=True)
    E = so3_hat(t) @ R
    return qa, qb, E / np.linalg.norm(E), R, t


class TestMinimalSolver:
    def test_reproduces_generating_essential_matrix(self):
        # sign-ambiguous match to 1e-8 on noise-free minimal samples
        rng = np.random.default_rng(0)
        for _ in range(100):
            qa, qb, Egt, _, _ = synthetic_pair(rng)
            sols = essential_from_five(qa, qb)
            assert sols, "no essential matrix returned"
            best = min(min(np.abs(E - Egt).max(), np.abs(E + Egt).max())
                       for E in sols)
            assert best < 1e-8

    def test_returns_internally_consistent_matrices(self):
        rng = np.random.default_rng(1)
        qa, qb, *_ = synthetic_pair(rng)
        for E in essential_from_five(qa, qb):
            assert abs(np.linalg.det(E)) < 1e-7
            EEt = E @ E.T
            assert np.abs(2 * EEt @ E - np.trace(EEt) * E).max() < 1e-6
            assert np.abs(np.einsum("ni,ij,nj->n", qb, E, qa)).max() < 1e-7

    def test_too_few_points(self):
        rng = np.random.default_rng(2)
        qa, qb, *_ = synthetic_pair(rng)
        with pytest.raises(TooFewCorrespondences):
            essential_from_five(qa[:4], qb[:4])


class TestDecomposition:
    def test_recovers_motion(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            qa, qb, Egt, Rgt, tgt = synthetic_pair(rng, n=30)
            sols = essential_from_five(qa[:5], qb[:5])
            E = min(sols, key=lambda E: epipolar_errors(E, qa, qb).sum())
            best = min(np.abs(R - Rgt).max() + np.abs(t - tgt).max()
                       for R, t in decompose_essential(E))
            assert best < 1e-9

    def test_rotations_proper(self):
        rng = np.random.default_rng(4)
        qa, qb, Egt, *_ = synthetic_pair(rng)
        for R, t in decompose_essential(Egt):
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)


class TestEpipolarErrors:
    def test_zero_for_consistent_pairs(self):
        rng = np.random.default_rng(5)
        qa, qb, Egt, *_ = synthetic_pair(rng, n=40)
        assert epipolar_errors(Egt, qa, qb).max() < 1e-10

    def test_positive_for_displaced_pairs(self):
        rng = np.random.default_rng(6)
        qa, qb, Egt, *_ = synthetic_pair(rng, n=10)
        qb2 = qb + 0.01 * rng.normal(size=qb.shape)
        qb2 = qb2 / np.linalg.norm(qb2, axis=1, keepdims=True)
        assert epipolar_errors(Egt, qa, qb2).max() > 1e-4
