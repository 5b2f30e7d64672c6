import numpy as np
import pytest

from conftest import dense_teardrop, teardrop_length_quad
from curvebound.curvature import total_abs_curvature
from curvebound.teardrop import (K_MAX, build_sweep_profile, save_teardrop,
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
        td = build_sweep_profile(k)
        assert np.linalg.norm(td.points[0]) <= 1e-9
        assert np.linalg.norm(td.points[-1]) <= 1e-9

    @pytest.mark.parametrize("k", [10, 100])
    def test_endpoint_tangents_horizontal(self, k):
        td = build_sweep_profile(k)
        t_start = td.points[1] - td.points[0]
        t_end = td.points[-1] - td.points[-2]
        ang0 = np.arctan2(t_start[1], t_start[0])
        ang1 = np.arctan2(t_end[1], t_end[0])
        assert abs(ang0) <= 1e-6            # leaves along +x
        assert abs(abs(ang1) - np.pi) <= 1e-6  # returns along -x

    @pytest.mark.parametrize("k", [1, 7, 50, 300, K_MAX])
    def test_radius_bound(self, k):
        td = build_sweep_profile(k)
        assert td.max_radius() <= min(1.0 + 2.0 / k, 2.0) + 1e-12
        assert td.max_radius() == 1.0 + 1.0 / k  # at the apex

    def test_unit_speed_parametrization(self):
        td = build_sweep_profile(20)
        speed = np.linalg.norm(np.diff(td.points, axis=0), axis=1) / np.diff(td.s)
        assert np.max(np.abs(speed - 1.0)) <= 1e-6

    def test_sample_spacing(self):
        # uniform in x on the graph pieces, uniform in angle on the half-circle
        # (the lower half mirrors the upper one, checked below), from the
        # graph's end at (1, 1/k) round to its mirror image at (1, -1/k)
        td = build_sweep_profile(20)
        x, y = td.points.T
        assert np.max(np.abs(np.diff(x[:65]) - 1.0 / 64)) <= 1e-15
        angle = np.arctan2(y[64:113], x[64:113] - 1.0)
        assert np.max(np.abs(np.diff(angle) + np.pi / 48)) <= 1e-12

    def test_reflection_symmetry(self):
        td = build_sweep_profile(30)
        mirrored = td.points[::-1] * np.array([1.0, -1.0])
        assert np.max(np.abs(mirrored - td.points)) <= 1e-12

    def test_tangent_continuity_at_joins(self):
        # no vertex turns by more than pi/24: the half-circle's vertices turn
        # by pi/48 each, the graph's by at most 2*atan(s_max/k) in all
        td = build_sweep_profile(50)
        seg = np.diff(td.points, axis=0)
        ang = np.arctan2(seg[:, 1], seg[:, 0])
        turn = np.abs(np.diff(np.unwrap(ang)))
        assert turn.max() < np.pi / 24


class TestTeardropConvergence:
    def test_total_curvature_band_at_k100(self):
        turn = build_sweep_profile(100).turning()
        assert np.pi - 0.05 <= turn <= np.pi + 0.05

    def test_strictly_decreasing_deviation(self):
        devs = [abs(build_sweep_profile(k).turning() - np.pi) for k in (10, 100, 1000)]
        assert devs[0] > devs[1] > devs[2]

    def test_half_circle_turns_pi_less_one_step(self):
        # the 49 vertices from graph end to graph end span an arc of pi in
        # steps of pi/48; the polyline misses half a step at each end
        td = build_sweep_profile(10)
        arc = td.points[td.points[:, 0] >= 1.0]
        assert len(arc) == 49
        assert abs(total_abs_curvature(arc) - (np.pi - np.pi / 48)) <= 1e-12

    @pytest.mark.parametrize("k", [10, 100])
    def test_turning_within_the_dense_oracles_error(self, k):
        # the dense resampler's error, measured as the change of its value
        # when its density doubles, bounds its distance from the profile's
        dense = total_abs_curvature(dense_teardrop(k))
        error = abs(total_abs_curvature(dense_teardrop(k, circle_samples=8192)) - dense)
        assert abs(build_sweep_profile(k).turning() - dense) <= error

    @pytest.mark.parametrize("k", [1, 10, 100, 1000])
    def test_length_matches_quadrature_oracle(self, k):
        want = teardrop_length_quad(k)
        assert abs(build_sweep_profile(k).total_length - want) <= 1e-12 * want


class TestConstructionControls:
    def test_keeps_circle_resolved(self):
        td = build_sweep_profile(500)
        assert (td.points[:, 0] >= 1.0).sum() >= 32

    @pytest.mark.parametrize("k", [0, -3, 2.5, float("nan"), K_MAX + 1, 10**400])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer from 1 to 4294967296"):
            build_sweep_profile(k)

    def test_sweep_profile_minimums(self):
        prof = build_sweep_profile(10)
        assert np.linalg.norm(prof.points[0]) == 0.0
        assert prof.max_radius() <= 1.0 + 2.0 / 10
        assert len(prof.points) == 177


class TestExport:
    def test_text_roundtrip(self, tmp_path):
        td = build_sweep_profile(25)
        path = tmp_path / "curve.txt"
        save_teardrop(td, path)
        with open(path) as fh:
            assert fh.readline().split() == ["#", "teardrop", "k=25",
                                             f"length={td.total_length:.12g}"]
        back = np.loadtxt(path)
        assert back.shape == (len(td.s), 3)
        assert np.allclose(back[:, 1:], td.points, atol=1e-10)
        assert np.allclose(back[:, 0], td.s, atol=1e-10)
