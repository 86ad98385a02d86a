"""The action-matrix five-point solver against the QZ-pencil oracle, on
minimal and degenerate samples, and the stacked epipolar errors."""

import numpy as np
import pytest

from gradba.fivepoint import epipolar_errors, essential_from_five

from loop_reference import loop_essential_from_five, se3_exp
from test_fivepoint import synthetic_pair


def assert_valid(E, qa, qb):
    """The three checks every returned root passes: epipolar, det, internal."""
    scale = max(np.abs(np.einsum("ni,nj->nij", qb, qa)).max(), 1.0)
    assert np.abs(np.einsum("ni,ij,nj->n", qb, E, qa)).max() <= 1e-7 * scale
    assert abs(np.linalg.det(E)) <= 1e-7
    EEt = E @ E.T
    assert np.abs(2.0 * EEt @ E - np.trace(EEt) * E).max() <= 1e-6


def sign_distance(E, F):
    return min(np.abs(E - F).max(), np.abs(E + F).max())


def test_finds_every_oracle_root():
    # the action matrix may return a root the pencil drops, never the reverse
    rng = np.random.default_rng(27)
    for _ in range(300):
        qa, qb, *_ = synthetic_pair(rng)
        sols = essential_from_five(qa, qb)
        assert isinstance(sols, list)
        for F in loop_essential_from_five(qa, qb):
            assert min(sign_distance(E, F) for E in sols) < 1e-8
        for E in sols:
            assert_valid(E, qa, qb)


def _degenerate(case):
    rng = np.random.default_rng(3)
    qa, qb, *_ = synthetic_pair(rng)
    if case == "one_pair_five_times":
        return np.repeat(qa[:1], 5, axis=0), np.repeat(qb[:1], 5, axis=0)
    if case == "pure_rotation":
        R = se3_exp(np.array([0.1, -0.2, 0.05, 0.0, 0.0, 0.0])).rotation_matrix()
        return qa, qa @ R.T
    return np.zeros((5, 3)), np.zeros((5, 3))


@pytest.mark.parametrize("case", ["one_pair_five_times", "pure_rotation", "zero_bearings"])
def test_degenerate_samples_return_valid_roots(case):
    qa, qb = _degenerate(case)
    sols = essential_from_five(qa, qb)
    assert isinstance(sols, list)
    for E in sols:
        assert E.shape == (3, 3)
        assert_valid(E, qa, qb)


def test_stacked_epipolar_errors_equal_per_matrix_rows():
    rng = np.random.default_rng(7)
    for k in range(1, 11):
        for n in (5, 6, 17, 64, 300):
            E = rng.normal(size=(k, 3, 3))
            qa = rng.normal(size=(n, 3))
            qb = rng.normal(size=(n, 3))
            rows = epipolar_errors(E, qa, qb)
            assert rows.shape == (k, n)
            for j in range(k):
                assert np.array_equal(rows[j], epipolar_errors(E[j], qa, qb))
