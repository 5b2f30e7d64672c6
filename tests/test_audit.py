import multiprocessing
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import (brute_force_intrinsic_diameter, curvature_in_ball, exit_abruptly,
                      intrinsic_ball_volume)
from curvebound import audit
from curvebound import generators as gen
from curvebound.audit import (DELTA_SHARP, R_SAMPLES, SIGMA_SHARP, comparison_identity_check,
                              covering_bound_check, ct_constants, m_kappa,
                              michael_simon_check, run_audit,
                              probe_function_library)
from curvebound.curvature import mean_curvature_field
from curvebound.mesh import SurfaceMesh, geodesic_distances


def reference_m_kappa(mesh, p, R, r_samples=50):
    """m and kappa from one curvature_in_ball and one intrinsic_ball_volume
    call per radius."""
    field = mean_curvature_field(mesh)
    d = geodesic_distances(mesh, p)
    m, kappa = -np.inf, np.inf
    for j in range(1, r_samples + 1):
        r = R * j / r_samples
        m = max(m, curvature_in_ball(mesh, field, d, r) / r)
        kappa = min(kappa, intrinsic_ball_volume(mesh, p, r, distances=d) / (r * r))
    return m, kappa


class TestMichaelSimon:
    def test_icosphere_constant_function(self, icosphere4):
        rec = michael_simon_check(icosphere4, np.ones(icosphere4.n_vertices), "const")
        # closed form: lhs = 2 sqrt(pi) sqrt(4 pi) = 4 pi, rhs = 2 * 4 pi
        assert rec.holds
        assert abs(rec.ratio - 0.5) < 0.01
        assert rec.grad_l1 < 1e-9

    def test_icosphere_annular_cutoff(self, icosphere4):
        d = geodesic_distances(icosphere4, 0)
        f = np.clip(1.0 - (d - 1.0) / 0.3, 0.0, 1.0)
        rec = michael_simon_check(icosphere4, f, "annular")
        assert rec.holds and rec.margin > 0

    def test_capped_cylinder_constant(self, capped_cyl_1_20):
        rec = michael_simon_check(capped_cyl_1_20,
                                  np.ones(capped_cyl_1_20.n_vertices), "const")
        assert rec.holds
        # lhs = sigma sqrt(area), rhs = 2 int|H| = 2 pi (L + 4r)
        area = capped_cyl_1_20.triangle_areas().sum()
        assert abs(rec.lhs - SIGMA_SHARP * np.sqrt(area)) < 1e-9

    def test_function_library_all_hold(self, icosphere4):
        for name, f in probe_function_library(icosphere4, seed=3):
            rec = michael_simon_check(icosphere4, f, name)
            assert rec.holds, name

    def test_negative_function_rejected(self, icosphere4):
        f = np.ones(icosphere4.n_vertices)
        f[0] = -1e-9
        with pytest.raises(ValueError):
            michael_simon_check(icosphere4, f)

    def test_open_mesh_rejected(self, unit_disk):
        with pytest.raises(ValueError):
            michael_simon_check(unit_disk, np.ones(unit_disk.n_vertices))


class TestDichotomy:
    def test_icosphere_probe(self, icosphere4):
        rec = m_kappa(icosphere4, 0, 1.0)
        assert rec.holds
        # |H| = 1 so m tracks V(r)/r; kappa analytic value 2 pi (1 - cos 1) =
        # 2.888 is shrunk ~16% by the edge-graph bias (frozen band)
        target = 2 * np.pi * (1 - np.cos(1.0))
        assert 0.78 * target <= rec.kappa <= 1.02 * target
        assert max(rec.m, rec.kappa) > DELTA_SHARP

    def test_flat_disk_probe(self):
        disk = gen.flat_disk(3.0, 36, 96)
        rec = m_kappa(disk, 0, 0.5)
        assert rec.m <= 1e-9
        assert abs(rec.kappa - np.pi) / np.pi < 0.05

    def test_small_radius_ratio_tends_to_pi(self):
        fine = gen.flat_disk(1.0, 60, 240)
        r = 0.02
        v = intrinsic_ball_volume(fine, 0, r)
        assert abs(v / r**2 - np.pi) / np.pi < 0.10

    def test_many_probes_all_hold(self, icosphere4):
        rng = np.random.default_rng(1)
        for p in rng.integers(0, icosphere4.n_vertices, size=8):
            rec = m_kappa(icosphere4, int(p), 1.0)
            assert rec.holds

    def test_radius_saturation_allowed(self, icosphere4):
        rec = m_kappa(icosphere4, 0, 50.0)  # far beyond the intrinsic radius
        assert np.isfinite(rec.m) and np.isfinite(rec.kappa)

    @pytest.mark.parametrize("shape,p,R,r_samples", [
        ("icosphere4", 0, 1.0, 50), ("icosphere4", 1234, 50.0, 50),
        ("capped", 17, 2.0, 50), ("disk", 0, 0.5, 50),
        # original icosahedron vertices: equidistant neighbour rings, tied corners
        ("icosphere3", 0, 1.0, 50), ("icosphere3", 11, 0.7, 50), ("icosphere4", 5, 2.0, 50),
        # far beyond the intrinsic radius
        ("icosphere3", 7, 1e3, 50), ("capped", 17, 1e6, 50),
        # the probe's component only; the other sphere is at infinite distance
        ("two_spheres", 0, 1.0, 50), ("two_spheres", 200, 10.0, 50)])
    def test_matches_reference_loop(self, shape, p, R, r_samples, icosphere4, unit_disk):
        mesh = self._mesh(shape, icosphere4, unit_disk)
        rec = m_kappa(mesh, p, R)
        assert (rec.m, rec.kappa) == reference_m_kappa(mesh, p, R, r_samples)

    @pytest.mark.parametrize("shape,p", [("icosphere3", 0), ("icosphere4", 0),
                                         ("capped", 17), ("two_spheres", 3)])
    def test_radius_equal_to_a_corner_distance(self, shape, p, icosphere4, unit_disk):
        mesh = self._mesh(shape, icosphere4, unit_disk)
        corners = geodesic_distances(mesh, p)[mesh.triangles]
        # R whose grid radius R * 50 / 50 is exactly a corner distance, ring by ring
        hits = [x for x in np.unique(corners[np.isfinite(corners)])[1:6]
                if x * R_SAMPLES / R_SAMPLES == x]
        assert hits
        for R in hits:
            rec = m_kappa(mesh, p, float(R))
            assert (rec.m, rec.kappa) == reference_m_kappa(mesh, p, float(R), R_SAMPLES)

    @staticmethod
    def _mesh(shape, icosphere4, unit_disk):
        if shape == "two_spheres":
            ico = gen.icosphere(2)
            return SurfaceMesh(np.vstack([ico.vertices, ico.vertices + 3.0]),
                               np.vstack([ico.triangles, ico.triangles + ico.n_vertices]))
        return {"icosphere3": lambda: gen.icosphere(3), "icosphere4": lambda: icosphere4,
                "disk": lambda: unit_disk,
                "capped": lambda: gen.capped_cylinder(0.5, 4.0, segments=48,
                                                      rings_cap=10)}[shape]()

    def test_argument_floors(self, icosphere4):
        with pytest.raises(ValueError):
            m_kappa(icosphere4, 0, -1.0)


class TestComparisonIdentity:
    def test_sharp_constants_null_the_coefficient(self):
        rec = comparison_identity_check()
        assert abs(rec.coefficient) <= 1e-12
        assert rec.max_grid_residual <= 1e-11
        assert rec.holds

    def test_perturbed_delta_breaks_it(self):
        rec = comparison_identity_check()
        assert rec.perturbed_delta == np.pi / 3
        # 4 delta' - sigma sqrt(delta') = (4/3) pi - 2 pi / sqrt(3)
        expected = (4.0 / 3.0) * np.pi - 2 * np.pi / np.sqrt(3)
        assert abs(rec.perturbed_coefficient - expected) < 1e-12
        assert abs(rec.perturbed_coefficient - 0.5612) < 1e-3


class TestCoveringBound:
    def test_icosphere(self, icosphere4):
        rec = covering_bound_check(icosphere4)
        assert rec.holds
        assert rec.d_int == brute_force_intrinsic_diameter(icosphere4)
        # worst-pair edge-graph bias measured at 6.2% on this lattice
        assert np.pi <= rec.d_int <= 1.07 * np.pi
        assert rec.bound > 60  # (16/pi) * 4 pi = 64 with huge slack

    def test_capped_cylinder(self, capped_cyl_1_20):
        rec = covering_bound_check(capped_cyl_1_20)
        assert rec.holds
        # exact over all 14,530 vertices (the value a 64-source sample found)
        assert rec.d_int == 23.139350203046863
        # pole-to-pole meridian: axial length plus two quarter-cap polylines
        # (the inscribed-polygon defect can dip slightly below 20 + pi)
        assert 0.999 * (20 + np.pi) <= rec.d_int <= 1.1 * (20 + np.pi)

    def test_ratio_floor_across_shapes(self):
        for name, mesh in gen.closed_library_meshes().items():
            rec = covering_bound_check(mesh)
            assert rec.ratio >= np.pi / 16, name

    def test_open_mesh_rejected(self, unit_disk):
        with pytest.raises(ValueError):
            covering_bound_check(unit_disk)


class TestConstants:
    def test_proven_values(self):
        assert ct_constants(3) == np.pi / 16
        assert ct_constants(4) == np.pi / 16
        assert ct_constants(5) == np.pi / 32
        assert ct_constants(9) == np.pi / 32

    def test_conjectural(self):
        assert ct_constants(3, conjectural=True) == np.pi

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            ct_constants(2)


class TestRunAudit:
    def test_quick_audit_holds(self):
        shapes = {
            "icosphere3": gen.icosphere(3),
            "small_capped": gen.capped_cylinder(0.5, 4.0, segments=48, rings_cap=10),
        }
        report = run_audit(shapes=shapes, probes_per_shape=4)
        assert report.all_hold
        doc = report.to_dict()
        assert doc["all_hold"]
        assert set(doc["covering"]) == set(shapes)

    @pytest.mark.parametrize("probes", [0, -1])
    def test_probes_below_one_rejected(self, probes):
        with pytest.raises(ValueError, match="probes_per_shape"):
            run_audit(shapes={"icosphere1": gen.icosphere(1)}, probes_per_shape=probes)

    def test_no_worker_outlives_a_run(self):
        report = run_audit(shapes={"icosphere2": gen.icosphere(2)}, probes_per_shape=1)
        assert report.covering["icosphere2"].holds
        assert multiprocessing.active_children() == []

    def test_invalid_shape_raises_its_own_error(self, unit_disk):
        shapes = {"icosphere2": gen.icosphere(2), "disk": unit_disk}
        with pytest.raises(ValueError, match="^shape disk is not a valid closed mesh$"):
            run_audit(shapes=shapes, probes_per_shape=1)
        assert multiprocessing.active_children() == []

    def test_dead_worker_breaks_the_pool(self, monkeypatch):
        monkeypatch.setattr(audit, "covering_bound_check", exit_abruptly)
        with pytest.raises(BrokenProcessPool):
            run_audit(shapes={"icosphere1": gen.icosphere(1)}, probes_per_shape=1)
        assert multiprocessing.active_children() == []

    def test_no_shapes_empty_report(self):
        report = run_audit(shapes={})
        assert report.covering == report.dichotomy == report.michael_simon == {}
        assert report.all_hold
        assert multiprocessing.active_children() == []
