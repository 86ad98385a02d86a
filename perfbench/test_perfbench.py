"""Tests of the benchmark's own code: the oracles on hand-computed cases, the
span reduction, and the agreement of BENCHMARK.json with what run.py prints.

    python3 -m pytest perfbench
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402


def rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0],
                     [math.sin(a), math.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


# -- pinhole projection and Huber energy -------------------------------------

def test_projection_identity_pose():
    # x_cam = x_world; u = 500 * 0.2 / 2 + 320, v = 500 * -0.1 / 2 + 240
    pix, z = oracles.pinhole_project([1, 0, 0, 0], [0, 0, 0], [[0.2, -0.1, 2.0]],
                                     500.0, 500.0, 320.0, 240.0)
    assert pix.tolist() == [[370.0, 215.0]]
    assert z.tolist() == [2.0]


def test_projection_rotated_translated_pose():
    # world-from-camera: R = Rz(90 deg), t = (1, 2, 0); the world point
    # (1, 3, 4) is x_cam = R^T (x_w - t) = R^T (0, 1, 4) = (1, 0, 4)
    q = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
    assert np.allclose(oracles.quat_wxyz_to_matrix(q), rot_z(90), atol=1e-15)
    pix, z = oracles.pinhole_project(q, [1, 2, 0], [[1, 3, 4]], 400.0, 300.0, 10.0, 20.0)
    assert np.allclose(pix, [[400.0 * 1 / 4 + 10.0, 20.0]], atol=1e-12)
    assert z[0] == pytest.approx(4.0)


def test_huber_energy_one_camera_one_point():
    # projection (370, 215); observation (371, 213): e = (1, -2), s = 5
    args = ([([1, 0, 0, 0], [0, 0, 0])], [[0.2, -0.1, 2.0]], [0], [0],
            [[371.0, 213.0]], (500.0, 500.0, 320.0, 240.0))
    assert oracles.reprojection_energy(*args) == pytest.approx(5.0)
    assert oracles.reprojection_energy(*args, delta=3.0) == pytest.approx(5.0)
    # outside the kernel: 2 * 2 * sqrt(5) - 4
    assert oracles.reprojection_energy(*args, delta=2.0) == pytest.approx(
        4.0 * math.sqrt(5.0) - 4.0)


def test_points_behind_the_camera_are_inactive():
    e = oracles.reprojection_energy([([1, 0, 0, 0], [0, 0, 0])],
                                    [[0.0, 0.0, -2.0], [0.0, 0.0, 2.0]],
                                    [0, 0], [0, 1], [[9.0, 9.0], [320.0, 243.0]],
                                    (500.0, 500.0, 320.0, 240.0))
    assert e == pytest.approx(9.0)


def test_baseline_prior():
    assert oracles.baseline_prior_energy([0, 0, 0], [3, 4, 0], 4.0, 1e4) == 1e4


# -- Umeyama alignment and ATE ----------------------------------------------

def test_umeyama_recovers_a_known_similarity():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(10, 3))
    R, s, t = rot_z(30), 2.0, np.array([1.0, 2.0, 3.0])
    dst = s * src @ R.T + t
    s_, R_, t_ = oracles.umeyama_sim3(src, dst)
    assert s_ == pytest.approx(s, rel=1e-12)
    assert np.allclose(R_, R, atol=1e-12)
    assert np.allclose(t_, t, atol=1e-12)
    assert oracles.sim3_ate(src, dst) < 1e-12


def test_ate_of_a_twisted_square():
    # ref: square corners; est lifts them by +-d alternately. The cross
    # covariance is diag(1, 1, 0), so R = I, t = 0, s = 2 / (2 + d^2), and the
    # residual RMSE is d sqrt(2 / (2 + d^2)).
    d = 1.0
    ref = np.array([[1, 1, 0], [1, -1, 0], [-1, -1, 0], [-1, 1, 0]], float)
    est = ref + np.array([[0, 0, d], [0, 0, -d], [0, 0, d], [0, 0, -d]])
    s, R, t = oracles.umeyama_sim3(est, ref)
    assert s == pytest.approx(2.0 / (2.0 + d * d))
    assert np.allclose(R, np.eye(3), atol=1e-12)
    assert oracles.sim3_ate(est, ref) == pytest.approx(d * math.sqrt(2.0 / (2.0 + d * d)))


# -- TUM files and strict JSON -------------------------------------------------

def test_parse_tum():
    text = ("# timestamp tx ty tz qx qy qz qw\n\n"
            "0.0 1 2 3 0 0 0 1\n"
            "  0.1 -1.5 0 2e-3 0 0.6 0 0.8  \n")
    ts, pos, quat = oracles.parse_tum(text)
    assert ts.tolist() == [0.0, 0.1]
    assert pos.tolist() == [[1, 2, 3], [-1.5, 0, 0.002]]
    assert quat.tolist() == [[0, 0, 0, 1], [0, 0.6, 0, 0.8]]
    with pytest.raises(ValueError):
        oracles.parse_tum("0.0 1 2 3 0 0 1\n")


def test_tum_round_trip_is_exact():
    rng = np.random.default_rng(1)
    pos, quat = rng.normal(size=(3, 3)), rng.normal(size=(3, 4))
    ts, pos2, quat2 = oracles.parse_tum(oracles.format_tum([0.0, 0.1, 0.2], pos, quat))
    assert np.array_equal(pos, pos2) and np.array_equal(quat, quat2)


def test_strict_json_rejects_nan():
    assert oracles.strict_json_loads('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            oracles.strict_json_loads(bad)


# -- directional central difference ------------------------------------------

def test_directional_central_difference_of_a_cubic():
    # f = sum x^3: the central difference along v is 3 sum x^2 v + h^2 sum v^3
    x = np.array([1.0, -2.0, 0.5])
    v = np.array([0.6, 0.0, 0.8])
    h = 1e-2
    got = oracles.directional_central_difference(lambda y: float((y ** 3).sum()), x, v, h)
    assert got == pytest.approx(3 * (x * x) @ v + h * h * (v ** 3).sum(), rel=1e-12)


def test_rel_close():
    assert oracles.rel_close(1.0, 1.0 + 1e-10, 1e-9)
    assert not oracles.rel_close(1.0, 1.0 + 1e-8, 1e-9)


# -- spans ---------------------------------------------------------------------

class _Owner:
    def outer():
        time.sleep(0.02)
        _Owner.inner()
        return 7

    def inner():
        time.sleep(0.03)


def test_self_time_subtracts_children_and_wrappers_come_off():
    tracer = Tracer()
    originals = dict(_Owner.__dict__)
    tracer.install([(_Owner, "outer", "a.outer", "span", None),
                    (_Owner, "inner", "a.inner", "span", None)])
    _Owner.outer()                      # outside a phase: not recorded
    assert tracer.spans == []
    phase = tracer.begin_phase("op")
    assert _Owner.outer() == 7
    tracer.end_phase()
    tracer.uninstall()
    assert _Owner.__dict__["outer"] is originals["outer"]
    (_, o0, o1, o_parent, _), (_, i0, i1, i_parent, _) = tracer.spans
    assert (o_parent, i_parent) == (-1, 0)
    assert o0 <= i0 <= i1 <= o1
    self_times = tracer.self_times()
    assert self_times[(phase, "a.outer")] == pytest.approx((o1 - o0) - (i1 - i0))
    assert self_times[(phase, "a.outer")] >= 0.02
    assert self_times[(phase, "a.inner")] == i1 - i0 >= 0.03
    assert tracer.counts[(phase, "a.outer_calls")] == 1


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_names_what_run_prints():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "solve_s", "step_s", "pipeline_s", "setup_s", "peak_rss_mb"}
