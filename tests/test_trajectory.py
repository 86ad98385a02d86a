import numpy as np
import pytest

from gradba.errors import LengthMismatch, SceneFormatError, TimestampMismatch
from gradba.geometry import Pose, quat_from_rotvec
from gradba.trajectory import (TrajectoryRecord, compute_are, compute_ate,
                               read_tum, records_from_poses, write_tum)

from loop_reference import se3_exp


def random_trajectory(rng, n=10):
    poses = []
    P = Pose()
    for _ in range(n):
        P = se3_exp(rng.normal(scale=0.2, size=6)).compose(P)
        poses.append(P)
    return records_from_poses(poses, np.arange(n) * 0.5)


def transform_records(records, g, scale=1.0):
    out = []
    for r in records:
        p = r.pose()
        q = np.array([*(g.compose(p).q[1:]), g.compose(p).q[0]])
        out.append(TrajectoryRecord(r.timestamp, scale * g.apply(p.t), q))
    return out


class TestTumIO:
    def test_round_trip_preserves_values(self, tmp_path, rng):
        recs = random_trajectory(rng)
        path = tmp_path / "t.tum"
        write_tum(recs, path)
        back = read_tum(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert abs(a.timestamp - b.timestamp) <= 1e-9 * max(abs(a.timestamp), 1)
            # 9 significant digits preserved
            np.testing.assert_allclose(b.t, a.t, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b.q_xyzw, a.q_xyzw, rtol=1e-9, atol=1e-9)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_text("# header\n\n0.0 1 2 3 0 0 0 1\n# mid\n1.0 4 5 6 0 0 0 1\n")
        recs = read_tum(path)
        assert len(recs) == 2
        np.testing.assert_allclose(recs[1].t, [4, 5, 6])

    def test_timestamps_must_increase(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(SceneFormatError):
            read_tum(path)

    def test_quaternion_norm_checked(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_text("0.0 0 0 0 0 0 0 2\n")
        with pytest.raises(SceneFormatError):
            read_tum(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_text("0.0 1 2 3\n")
        with pytest.raises(SceneFormatError):
            read_tum(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "x1"])
    def test_fields_must_be_finite_numbers(self, tmp_path, value):
        path = tmp_path / "t.tum"
        path.write_text(f"0.0 1 2 3 0 0 0 1\n1.0 4 {value} 6 0 0 0 1\n")
        with pytest.raises(SceneFormatError):
            read_tum(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneFormatError):
            read_tum(tmp_path / "absent.tum")


class TestAte:
    def test_identical_is_zero(self, rng):
        recs = random_trajectory(rng)
        assert compute_ate(recs, recs, "sim") < 1e-12
        assert compute_ate(recs, recs, "rigid") < 1e-12

    def test_rigid_transform_absorbed(self, rng):
        recs = random_trajectory(rng)
        g = se3_exp(np.array([0.3, -0.2, 0.5, 2.0, -1.0, 0.7]))
        moved = transform_records(recs, g)
        assert compute_ate(moved, recs, "rigid") < 1e-12

    def test_scale_handling(self, rng):
        recs = random_trajectory(rng)
        scaled = transform_records(recs, Pose(), scale=2.0)
        assert compute_ate(scaled, recs, "sim") < 1e-12
        assert compute_ate(scaled, recs, "rigid") > 0.01

    def test_rigid_symmetry(self, rng):
        a = random_trajectory(rng)
        g = se3_exp(np.array([0.1, 0.2, -0.3, 1.0, 0.0, -0.5]))
        b = transform_records(a, g)
        for r in b:
            r.t += rng.normal(scale=0.05, size=3)
        ab = compute_ate(a, b, "rigid")
        ba = compute_ate(b, a, "rigid")
        assert ab == pytest.approx(ba, rel=1e-9)

    def test_length_mismatch(self, rng):
        recs = random_trajectory(rng)
        with pytest.raises(LengthMismatch):
            compute_ate(recs[:-1], recs)

    def test_timestamp_mismatch(self, rng):
        recs = random_trajectory(rng)
        other = random_trajectory(rng)
        other[3].timestamp += 0.01
        with pytest.raises(TimestampMismatch):
            compute_ate(recs, other)


class TestAre:
    def test_identical_is_zero(self, rng):
        recs = random_trajectory(rng)
        assert compute_are(recs, recs, "sim") < 1e-7

    def test_single_frame_rotation_hand_rmse(self):
        # 4 frames, one rotated 10 degrees about z, no alignment:
        # RMSE = sqrt(10^2 / 4) = 5 degrees
        stamps = [0.0, 1.0, 2.0, 3.0]
        base = [Pose(t=[float(i), 0.0, 0.0]) for i in range(4)]
        rot = Pose(quat_from_rotvec(np.deg2rad(10.0) * np.array([0, 0, 1.0])),
                   base[2].t)
        est = records_from_poses([base[0], base[1], rot, base[3]], stamps)
        gt = records_from_poses(base, stamps)
        assert compute_are(est, gt, "none") == pytest.approx(5.0, abs=1e-9)

    def test_global_rotation_absorbed(self, rng):
        recs = random_trajectory(rng)
        g = se3_exp(np.array([0.4, -0.1, 0.2, 0.0, 0.0, 0.0]))
        moved = transform_records(recs, g)
        assert compute_are(moved, recs, "rigid") < 1e-5
