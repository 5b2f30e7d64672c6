import numpy as np
import pytest

from curvebound.curvature import total_abs_curvature
from curvebound.teardrop import (build_sweep_profile, build_teardrop, save_teardrop,
                                 transition_function, transition_slope)


class TestTransitionFunction:
    def test_flat_zones(self):
        assert transition_function(0.05) <= 1e-12
        assert transition_function(0.95) >= 1.0 - 1e-12
        assert transition_function(0.0) <= 1e-15
        assert transition_function(1.0) >= 1.0 - 1e-15

    def test_midpoint_symmetry(self):
        assert abs(transition_function(0.5) - 0.5) <= 1e-12
        x = np.linspace(0.0, 1.0, 257)
        f = transition_function(x)
        assert np.max(np.abs(f + f[::-1] - 1.0)) < 1e-12

    def test_monotone(self):
        x = np.linspace(0.0, 1.0, 2001)
        f = transition_function(x)
        assert np.all(np.diff(f) >= -1e-15)

    def test_slope_bounded(self):
        # plateau-derivative profile: max slope stays near 1/plateau-width
        x = np.linspace(0.0, 1.0, 20001)
        assert transition_slope(x).max() < 1.2

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            transition_function(-0.01)
        with pytest.raises(ValueError):
            transition_function(np.array([0.2, 1.3]))


class TestTeardropInvariants:
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_endpoints_at_origin(self, k):
        td = build_teardrop(k)
        assert np.linalg.norm(td.points[0]) <= 1e-9
        assert np.linalg.norm(td.points[-1]) <= 1e-9

    @pytest.mark.parametrize("k", [10, 100])
    def test_endpoint_tangents_horizontal(self, k):
        td = build_teardrop(k)
        t_start = td.points[1] - td.points[0]
        t_end = td.points[-1] - td.points[-2]
        ang0 = np.arctan2(t_start[1], t_start[0])
        ang1 = np.arctan2(t_end[1], t_end[0])
        assert abs(ang0) <= 1e-6            # leaves along +x
        assert abs(abs(ang1) - np.pi) <= 1e-6  # returns along -x

    @pytest.mark.parametrize("k", [1, 7, 50, 300])
    def test_radius_bound(self, k):
        td = build_teardrop(k)
        assert td.max_radius() <= min(1.0 + 2.0 / k, 2.0) + 1e-12

    def test_unit_speed_parametrization(self):
        td = build_teardrop(20)
        speed = np.linalg.norm(np.diff(td.points, axis=0), axis=1) / np.diff(td.s)
        assert np.max(np.abs(speed - 1.0)) <= 1e-6

    def test_arclength_spacing_uniform(self):
        td = build_teardrop(20)
        ds = np.diff(td.s)
        assert ds.std() / ds.mean() < 1e-3

    def test_reflection_symmetry(self):
        td = build_teardrop(30)
        mirrored = td.points[::-1] * np.array([1.0, -1.0])
        assert np.max(np.abs(mirrored - td.points)) <= 1e-12

    def test_tangent_continuity_at_joins(self):
        # C^1 construction: no single sample turns sharply
        td = build_teardrop(50)
        seg = np.diff(td.points, axis=0)
        ang = np.arctan2(seg[:, 1], seg[:, 0])
        turn = np.abs(np.diff(np.unwrap(ang)))
        assert turn.max() < 0.01


class TestTeardropConvergence:
    def test_total_curvature_band_at_k100(self):
        td = build_teardrop(100)
        turn = total_abs_curvature(td.points)
        assert np.pi - 0.05 <= turn <= np.pi + 0.05

    def test_strictly_decreasing_deviation(self):
        devs = [abs(total_abs_curvature(build_teardrop(k).points) - np.pi)
                for k in (10, 100, 1000)]
        assert devs[0] > devs[1] > devs[2]

    def test_half_circle_segment_turns_pi(self):
        # tangent sweep of the cusp circle alone, at the default density floor
        td = build_teardrop(10)
        on_circle = td.points[:, 0] >= 1.0
        arc = td.points[on_circle]
        assert abs(total_abs_curvature(arc) - np.pi) <= 1e-3


class TestConstructionControls:
    def test_auto_refine_keeps_circle_resolved(self):
        td = build_teardrop(500)
        assert (td.points[:, 0] >= 1.0).sum() >= 32

    def test_bad_k(self):
        with pytest.raises(ValueError):
            build_teardrop(0)

    def test_sweep_profile_minimums(self):
        prof = build_sweep_profile(10)
        assert np.linalg.norm(prof.points[0]) == 0.0
        assert prof.max_radius() <= 1.0 + 2.0 / 10


class TestExport:
    def test_text_roundtrip(self, tmp_path):
        td = build_teardrop(25)
        path = tmp_path / "curve.txt"
        save_teardrop(td, path)
        with open(path) as fh:
            assert fh.readline().split()[:3] == ["#", "teardrop", "k=25"]
        back = np.loadtxt(path)
        assert back.shape == (len(td.s), 3)
        assert np.allclose(back[:, 1:], td.points, atol=1e-10)
        assert np.allclose(back[:, 0], td.s, atol=1e-10)
