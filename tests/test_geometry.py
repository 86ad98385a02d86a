import numpy as np
import pytest

from gradba.errors import CheiralityViolation
from gradba.geometry import (CameraIntrinsics, Pose, project,
                             projection_jacobians, quat_mul, quat_conj,
                             se3_retract)

from loop_reference import se3_exp, se3_log


def fd_projection_jacobians(pose, intr, point, h=1e-6):
    Jp = np.zeros((2, 6))
    Jx = np.zeros((2, 3))
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        up = project(se3_retract(pose, d), intr, point)
        dn = project(se3_retract(pose, -d), intr, point)
        Jp[:, k] = (up - dn) / (2 * h)
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        Jx[:, k] = (project(pose, intr, point + d)
                    - project(pose, intr, point - d)) / (2 * h)
    return Jp, Jx


class TestProject:
    def test_principal_point(self):
        px = project(Pose(), CameraIntrinsics(1, 1, 0, 0), [0, 0, 1])
        np.testing.assert_allclose(px, [0.0, 0.0], atol=1e-15)

    def test_forced_arithmetic(self):
        px = project(Pose(), CameraIntrinsics(100, 100, 50, 50), [1, 0, 2])
        np.testing.assert_allclose(px, [100.0, 50.0])

    def test_behind_camera(self):
        with pytest.raises(CheiralityViolation):
            project(Pose(), CameraIntrinsics(1, 1, 0, 0), [0, 0, -1])

    def test_depth_epsilon(self):
        with pytest.raises(CheiralityViolation):
            project(Pose(), CameraIntrinsics(1, 1, 0, 0), [0, 0, 5e-10])


class TestRetract:
    def test_zero_tangent(self):
        P = se3_exp(np.array([0.1, -0.2, 0.3, 1.0, 2.0, -0.5]))
        Q = se3_retract(P, np.zeros(6))
        np.testing.assert_allclose(Q.q, P.q, atol=1e-15)
        np.testing.assert_allclose(Q.t, P.t, atol=1e-15)

    def test_inverse_tangent(self, rng):
        for _ in range(50):
            P = se3_exp(rng.normal(scale=0.4, size=6))
            d = rng.normal(scale=0.3, size=6)
            Q = se3_retract(se3_retract(P, d), -d)
            rel = Q.compose(P.inverse())
            assert np.linalg.norm(se3_log(rel)) < 1e-12

    def test_quarter_turn(self):
        r = se3_retract(Pose(), np.array([0, 0, np.pi / 2, 0, 0, 0]))
        np.testing.assert_allclose(r.apply([1, 0, 0]), [0, 1, 0], atol=1e-15)

    def test_log_bijection_near_zero(self, rng):
        for _ in range(200):
            P = se3_exp(rng.normal(scale=0.4, size=6))
            d = rng.uniform(-1, 1, size=6)
            d = d / np.linalg.norm(d) * rng.uniform(0.0, 0.5)
            back = se3_log(se3_retract(P, d).compose(P.inverse()))
            assert np.linalg.norm(back - d) < 1e-10

    def test_quaternion_normalized(self, rng):
        P = Pose()
        for _ in range(2000):
            P = se3_retract(P, rng.normal(scale=0.2, size=6))
        assert abs(np.linalg.norm(P.q) - 1.0) < 1e-12


class TestPoseGroup:
    def test_compose_inverse_identity(self, rng):
        for _ in range(100):
            P = se3_exp(rng.normal(scale=1.0, size=6))
            I = P.compose(P.inverse())
            ang = np.linalg.norm(2 * np.arcsin(np.clip(np.linalg.norm(I.q[1:]), 0, 1)))
            assert ang < 1e-12
            assert np.linalg.norm(I.t) < 1e-12

    def test_compose_action_consistency(self, rng):
        A = se3_exp(rng.normal(size=6))
        B = se3_exp(rng.normal(size=6))
        p = rng.normal(size=3)
        np.testing.assert_allclose(A.compose(B).apply(p), A.apply(B.apply(p)),
                                   atol=1e-12)


class TestJacobians:
    def test_principal_axis_point(self):
        Jp, Jx = projection_jacobians(Pose(), CameraIntrinsics(1, 1, 0, 0),
                                      [0, 0, 1])
        np.testing.assert_allclose(Jx, [[1, 0, 0], [0, 1, 0]], atol=1e-15)

    def test_matches_finite_differences(self, rng):
        intr = CameraIntrinsics(400.0, 420.0, 320.0, 240.0)
        worst = 0.0
        for _ in range(200):
            pose = se3_exp(rng.normal(scale=0.5, size=6))
            c = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(0.8, 6.0)])
            point = pose.apply(c)
            Ja, Jxa = projection_jacobians(pose, intr, point)
            Jf, Jxf = fd_projection_jacobians(pose, intr, point)
            worst = max(worst,
                        np.abs(Ja - Jf).max() / max(np.abs(Jf).max(), 1.0),
                        np.abs(Jxa - Jxf).max() / max(np.abs(Jxf).max(), 1.0))
        assert worst < 1e-6

    def test_translation_block_is_negated_point_block(self, rng):
        # chain rule for the left-multiplicative tangent: the camera point is
        # R^T(p - translation-update), so d/dv = -d/dp exactly
        intr = CameraIntrinsics(500.0, 480.0, 10.0, -5.0)
        for _ in range(50):
            pose = se3_exp(rng.normal(scale=0.6, size=6))
            point = pose.apply([rng.uniform(-1, 1), rng.uniform(-1, 1),
                                rng.uniform(1, 5)])
            Jp, Jx = projection_jacobians(pose, intr, point)
            np.testing.assert_allclose(Jp[:, 3:], -Jx, atol=1e-12)

    def test_cheirality_propagates(self):
        with pytest.raises(CheiralityViolation):
            projection_jacobians(Pose(), CameraIntrinsics(1, 1, 0, 0), [0, 0, -2])

    def test_projection_continuous_in_delta(self, rng):
        intr = CameraIntrinsics(350.0, 350.0, 0.0, 0.0)
        pose = se3_exp(rng.normal(scale=0.3, size=6))
        point = pose.apply([0.2, -0.1, 3.0])
        base = project(pose, intr, point)
        for scale in (1e-3, 1e-5, 1e-7):
            d = rng.normal(size=6)
            d = d / np.linalg.norm(d) * scale
            moved = project(se3_retract(pose, d), intr, point)
            # Lipschitz-bounded change: |J| ~ f * depth scale
            assert np.linalg.norm(moved - base) < 1e4 * scale
