import numpy as np
import pytest

from conftest import random_rotation
from curvebound import generators as gen
from curvebound.curvature import (mean_curvature_field, total_abs_curvature,
                                  total_mean_curvature)
from curvebound.mesh import SurfaceMesh, extrinsic_diameter


class TestMeanCurvatureField:
    def test_cotangents_computed_once_per_field(self, monkeypatch):
        from curvebound import curvature

        calls = []
        original = curvature._corner_cotangents
        monkeypatch.setattr(curvature, "_corner_cotangents",
                            lambda m: calls.append(m) or original(m))
        mesh = gen.icosphere(2)
        mean_curvature_field(mesh)
        assert calls == [mesh]

    def test_computed_once_per_mesh(self, monkeypatch):
        from curvebound import curvature

        mesh = gen.icosphere(2)
        calls = []
        original = curvature._corner_cotangents
        monkeypatch.setattr(curvature, "_corner_cotangents",
                            lambda m: calls.append(m) or original(m))
        f = mean_curvature_field(mesh)
        assert mean_curvature_field(mesh) is f
        n_calls = len(calls)
        total_mean_curvature(mesh)
        assert len(calls) == n_calls
        for a in (f.vectors, f.areas, f.boundary_mask):
            with pytest.raises(ValueError):
                a[0] = a[1]
        # a new mesh over the same arrays gets its own field
        assert mean_curvature_field(SurfaceMesh(mesh.vertices, mesh.triangles)) is not f

    def test_flat_disk_interior_vanishes(self, unit_disk):
        f = mean_curvature_field(unit_disk)
        interior = ~f.boundary_mask
        assert f.magnitudes()[interior].max() <= 1e-9

    def test_unit_sphere_convention(self, icosphere4):
        # averaged convention: |H| = 1 on the unit sphere
        f = mean_curvature_field(icosphere4)
        mags = f.magnitudes()
        assert np.all(np.abs(mags - 1.0) < 0.02)

    def test_cylinder_half_over_radius(self):
        cyl = gen.open_cylinder(1.0, 4.0, segments=64)
        f = mean_curvature_field(cyl)
        away = ~f.boundary_mask & (np.abs(cyl.vertices[:, 2]) < 1.0)
        assert np.all(np.abs(f.magnitudes()[away] - 0.5) < 0.03 * 0.5)

    def test_areas_partition_total(self, icosphere4, unit_disk):
        for mesh in (icosphere4, unit_disk):
            f = mean_curvature_field(mesh)
            area = mesh.triangle_areas().sum()
            assert abs(f.areas.sum() - area) <= 1e-9 * area

    def test_boundary_vertices_flagged(self, unit_disk):
        f = mean_curvature_field(unit_disk)
        assert f.boundary_mask.sum() == len(unit_disk.boundary_loops[0])


class TestTotalMeanCurvature:
    def test_icosphere(self, icosphere4):
        tot = total_mean_curvature(icosphere4)
        assert abs(tot - 4 * np.pi) / (4 * np.pi) < 0.02

    def test_flat_disk(self, unit_disk):
        assert total_mean_curvature(unit_disk) <= 1e-6

    def test_capped_cylinder(self, capped_cyl_1_20):
        target = np.pi * 24.0
        tot = total_mean_curvature(capped_cyl_1_20)
        assert abs(tot - target) / target < 0.03

    def test_rigid_invariance(self, icosphere4):
        t0 = total_mean_curvature(icosphere4)
        rot = random_rotation(7)
        moved = SurfaceMesh(icosphere4.vertices @ rot.T + 4.2, icosphere4.triangles)
        assert abs(total_mean_curvature(moved) - t0) <= 1e-9 * t0

    def test_scaling_is_linear(self):
        ico = gen.icosphere(3)
        t1 = total_mean_curvature(ico)
        lam = 2.5
        t2 = total_mean_curvature(SurfaceMesh(ico.vertices * lam, ico.triangles))
        assert abs(t2 - lam * t1) <= 1e-9 * lam * t1

    def test_refinement_convergence_monotone(self):
        errs = []
        for sub in (2, 3, 4):
            tot = total_mean_curvature(gen.icosphere(sub))
            errs.append(abs(tot - 4 * np.pi) / (4 * np.pi))
        assert errs[0] > errs[1] > errs[2]

    def test_closed_shapes_curvature_diameter_floor(self):
        # the closed-surface constant floor pi/16, checked empirically
        for name, mesh in gen.closed_library_meshes().items():
            ratio = total_mean_curvature(mesh) / extrinsic_diameter(mesh.vertices)
            assert ratio >= np.pi / 16, name


class TestTotalAbsCurvature:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 360])
    def test_regular_polygon_turns_once(self, n):
        # n + 1 samples around the n-gon, back to the first: n - 1 interior turns
        t = 2 * np.pi * np.arange(n + 1) / n
        poly = np.column_stack([np.cos(t), np.sin(t)])
        assert abs(total_abs_curvature(poly) - (n - 1) * 2 * np.pi / n) < 1e-9

    def test_straight_polyline_is_flat(self):
        line = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
        assert total_abs_curvature(line) <= 1e-12

    def test_half_circle_estimator_bias(self):
        # chord-turning on an open arc of sweep S measures S*(N-2)/(N-1)
        for n, tol in ((200, 0.02), (4000, 1e-3)):
            t = np.linspace(0, np.pi, n)
            arc = np.column_stack([np.cos(t), np.sin(t)])
            v = total_abs_curvature(arc)
            assert abs(v - np.pi) < tol
            assert abs(v - (n - 2) / (n - 1) * np.pi) < 1e-9

    def test_3d_rejected(self):
        t = np.linspace(0, np.pi, 100)
        arc3 = np.column_stack([np.cos(t), np.sin(t), np.zeros(100)])
        with pytest.raises(ValueError):
            total_abs_curvature(arc3)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 2))
        v0 = total_abs_curvature(pts)
        a = rng.uniform(0.0, 2 * np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        v1 = total_abs_curvature(pts @ rot.T + np.array([2.0, -1.0]))
        assert abs(v0 - v1) < 1e-9

    def test_duplicate_samples_rejected(self):
        with pytest.raises(ValueError):
            total_abs_curvature([[0, 0], [0, 0], [1, 0]])

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            total_abs_curvature([[0, 0], [1, 0]])
