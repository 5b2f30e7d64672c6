import json
import multiprocessing

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import (all_pairs_eccentricities, assert_brackets_all_pairs,
                      intrinsic_ball_volume, reference_m_kappa)
from curvebound import audit
from curvebound import generators as gen
from curvebound.audit import (DELTA_SHARP, R_SAMPLES, SIGMA_SHARP, _triangle_gradients_l1,
                              comparison_identity_check, ct_constants, m_kappa,
                              michael_simon_check, run_audit, probe_function_library)
from curvebound.curvature import total_mean_curvature
from curvebound.mesh import DIAMETER_TOL, SurfaceMesh, geodesic_distances, intrinsic_diameter


def _disjoint_icospheres():
    """A closed shape that validate accepts but that is not connected."""
    sphere = gen.icosphere(1)
    return SurfaceMesh(np.vstack([sphere.vertices, sphere.vertices + [5.0, 0.0, 0.0]]),
                       np.vstack([sphere.triangles, sphere.triangles + sphere.n_vertices]))


class TestMichaelSimon:
    def test_icosphere_constant_function(self, icosphere4):
        rec, = michael_simon_check(icosphere4, [("const", np.ones(icosphere4.n_vertices))])
        # closed form: lhs = 2 sqrt(pi) sqrt(4 pi) = 4 pi, rhs = 2 * 4 pi
        assert rec["holds"]
        assert abs(rec["lhs"] / rec["rhs"] - 0.5) < 0.01
        assert _triangle_gradients_l1(icosphere4, [np.ones(icosphere4.n_vertices)])[0] < 1e-9

    def test_icosphere_annular_cutoff(self, icosphere4):
        d = geodesic_distances(icosphere4, 0)
        f = np.clip(1.0 - (d - 1.0) / 0.3, 0.0, 1.0)
        rec, = michael_simon_check(icosphere4, [("annular", f)])
        assert rec["holds"] and rec["margin"] > 0

    def test_capped_cylinder_constant(self, capped_cyl_1_20):
        rec, = michael_simon_check(capped_cyl_1_20,
                                   [("const", np.ones(capped_cyl_1_20.n_vertices))])
        assert rec["holds"]
        # lhs = sigma sqrt(area), rhs = 2 int|H| = 2 pi (L + 4r)
        area = capped_cyl_1_20.triangle_areas().sum()
        assert abs(rec["lhs"] - SIGMA_SHARP * np.sqrt(area)) < 1e-9

    def test_function_library_all_hold(self, icosphere4):
        for rec in michael_simon_check(icosphere4, probe_function_library(icosphere4, seed=3)):
            assert rec["holds"], rec["f"]

    def test_negative_function_rejected(self, icosphere4):
        f = np.ones(icosphere4.n_vertices)
        f[0] = -1e-9
        with pytest.raises(ValueError):
            michael_simon_check(icosphere4, [("f", f)])

    def test_open_mesh_rejected(self, unit_disk):
        with pytest.raises(ValueError):
            michael_simon_check(unit_disk, [("f", np.ones(unit_disk.n_vertices))])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_function_rejected(self, value, icosphere4):
        # NaN would report NaN margins that do not hold; inf would warn in the gradients
        f = np.ones(icosphere4.n_vertices)
        f[7] = value
        with pytest.raises(ValueError, match="^test functions must be finite$"):
            michael_simon_check(icosphere4, [("f", f)])


class TestDichotomy:
    def test_icosphere_probe(self, icosphere4):
        rec = m_kappa(icosphere4, 0, 1.0)
        assert rec["holds"]
        # |H| = 1 so m tracks V(r)/r; kappa analytic value 2 pi (1 - cos 1) =
        # 2.888 is shrunk ~16% by the edge-graph bias (frozen band)
        target = 2 * np.pi * (1 - np.cos(1.0))
        assert 0.78 * target <= rec["kappa"] <= 1.02 * target
        assert max(rec["m"], rec["kappa"]) > DELTA_SHARP

    def test_flat_disk_probe(self):
        disk = gen.flat_disk(3.0, 36, 96)
        rec = m_kappa(disk, 0, 0.5)
        assert rec["m"] <= 1e-9
        assert abs(rec["kappa"] - np.pi) / np.pi < 0.05

    def test_small_radius_ratio_tends_to_pi(self):
        fine = gen.flat_disk(1.0, 60, 240)
        r = 0.02
        v = intrinsic_ball_volume(fine, 0, r)
        assert abs(v / r**2 - np.pi) / np.pi < 0.10

    def test_many_probes_all_hold(self, icosphere4):
        rng = np.random.default_rng(1)
        for p in rng.integers(0, icosphere4.n_vertices, size=8):
            rec = m_kappa(icosphere4, int(p), 1.0)
            assert rec["holds"]

    def test_radius_saturation_allowed(self, icosphere4):
        rec = m_kappa(icosphere4, 0, 50.0)  # far beyond the intrinsic radius
        assert np.isfinite(rec["m"]) and np.isfinite(rec["kappa"])

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
        assert (rec["m"], rec["kappa"]) == reference_m_kappa(mesh, p, R, r_samples)

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
            assert (rec["m"], rec["kappa"]) == reference_m_kappa(mesh, p, float(R), R_SAMPLES)

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

    @pytest.mark.parametrize("R", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, R, icosphere4):
        # NaN would compare false on every radius and report a vacuous "holds"
        with pytest.raises(ValueError, match="^R must be positive and finite$"):
            m_kappa(icosphere4, 0, R)

    def test_probes_share_the_ball_weights(self, monkeypatch):
        # the weights are built once per mesh; each probe runs one Dijkstra search
        counts = {"weights": 0, "dijkstra": 0}
        weights, dijkstra = audit._curvature_weights, csgraph.dijkstra

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(audit, "_curvature_weights", counting("weights", weights))
        monkeypatch.setattr(csgraph, "dijkstra", counting("dijkstra", dijkstra))
        mesh = gen.icosphere(2)
        recs = [m_kappa(mesh, p, 1.0) for p in (0, 5, 17, 80, 161)]
        assert counts == {"weights": 1, "dijkstra": 5}
        monkeypatch.setattr(csgraph, "dijkstra", dijkstra)
        for p, rec in zip((0, 5, 17, 80, 161), recs):
            assert (rec["m"], rec["kappa"]) == reference_m_kappa(mesh, p, 1.0), p


class TestComparisonIdentity:
    def test_sharp_constants_null_the_coefficient(self):
        rec = comparison_identity_check()
        assert abs(rec["coefficient"]) <= 1e-12
        assert rec["max_grid_residual"] <= 1e-11
        assert rec["holds"]

    def test_perturbed_delta_breaks_it(self):
        rec = comparison_identity_check()
        assert rec["perturbed_delta"] == np.pi / 3
        # 4 delta' - sigma sqrt(delta') = (4/3) pi - 2 pi / sqrt(3)
        expected = (4.0 / 3.0) * np.pi - 2 * np.pi / np.sqrt(3)
        assert abs(rec["perturbed_coefficient"] - expected) < 1e-12
        assert abs(rec["perturbed_coefficient"] - 0.5612) < 1e-3


@pytest.fixture(scope="session")
def library_audit():
    """The closed library and one audit of it, whose covering entries the tests read."""
    library = gen.closed_library_meshes()
    return library, run_audit(shapes=library, probes_per_shape=1)


class TestCoveringBound:
    def test_icosphere(self, library_audit):
        library, report = library_audit
        rec = report["covering"]["icosphere4"]
        assert rec["holds"]
        ecc = assert_brackets_all_pairs(library["icosphere4"], (rec["d_int"], rec["d_int_upper"]))
        # worst-pair edge-graph bias measured at 6.2% on this lattice
        assert np.pi <= ecc.max() <= 1.07 * np.pi
        assert rec["bound"] > 60  # (16/pi) * 4 pi = 64 with huge slack

    def test_capped_cylinder(self, library_audit, monkeypatch):
        library, report = library_audit
        mesh, rec = library["capped_cylinder_1_20"], report["covering"]["capped_cylinder_1_20"]
        assert rec["holds"]
        # the all-pairs max over all 14,530 vertices (the value a 64-source sample found)
        assert rec["d_int"] <= 23.139350203046863 <= rec["d_int_upper"]
        assert rec["d_int_upper"] <= rec["d_int"] * (1.0 + DIAMETER_TOL) * (1.0 + 1e-9)
        # the lower end is the all-pairs row maximum of a source the search ran
        dijkstra, sources = csgraph.dijkstra, []

        def recording(graph, *args, **kwargs):
            sources.extend(np.atleast_1d(kwargs["indices"]))
            return dijkstra(graph, *args, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", recording)
        assert intrinsic_diameter(mesh) == (rec["d_int"], rec["d_int_upper"])
        monkeypatch.setattr(csgraph, "dijkstra", dijkstra)
        assert rec["d_int"] in all_pairs_eccentricities(mesh, sources)
        # pole-to-pole meridian: axial length plus two quarter-cap polylines
        # (the inscribed-polygon defect can dip slightly below 20 + pi)
        assert 0.999 * (20 + np.pi) <= rec["d_int_upper"]
        assert rec["d_int"] <= 1.1 * (20 + np.pi)

    def test_ratio_floor_across_shapes(self, library_audit):
        library, report = library_audit
        assert report["covering"].keys() == library.keys()
        for name, rec in report["covering"].items():
            assert rec["ratio_lower"] >= np.pi / 16, name
            assert rec["ratio_lower"] == rec["curvature"] / rec["d_int_upper"], name
            assert rec["ratio_upper"] == rec["curvature"] / rec["d_int"], name
            assert rec["holds"] == (rec["d_int_upper"] <= rec["bound"]), name

    def test_bound_is_sixteen_over_pi_of_the_curvature(self, library_audit):
        library, report = library_audit
        for name, rec in report["covering"].items():
            assert rec["bound"] == float((16 / np.pi) * total_mean_curvature(library[name])), name

    def test_open_mesh_rejected(self, unit_disk):
        with pytest.raises(ValueError, match="^shape disk is not a valid closed mesh$"):
            run_audit(shapes={"disk": unit_disk})
        assert multiprocessing.active_children() == []


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
        assert report["all_hold"]
        assert set(report["covering"]) == set(shapes)

    @pytest.mark.parametrize("probes", [0, -1])
    def test_probes_below_one_rejected(self, probes):
        with pytest.raises(ValueError, match="probes_per_shape"):
            run_audit(shapes={"icosphere1": gen.icosphere(1)}, probes_per_shape=probes)

    def test_no_worker_outlives_a_run(self):
        report = run_audit(shapes={"icosphere2": gen.icosphere(2)}, probes_per_shape=1)
        assert report["covering"]["icosphere2"]["holds"]
        assert multiprocessing.active_children() == []

    def test_report_holds_only_plain_json_types(self):
        # a numpy scalar in the report would make json.dump raise on every audit
        report = run_audit(shapes={"icosphere2": gen.icosphere(2)}, probes_per_shape=1)

        def leaves(node):
            if type(node) is dict:
                assert all(type(key) is str for key in node)
                for value in node.values():
                    yield from leaves(value)
            elif type(node) is list:
                for value in node:
                    yield from leaves(value)
            else:
                yield node

        assert {type(leaf) for leaf in leaves(report)} <= {float, int, bool, str}
        json.dumps(report, allow_nan=False)

    def test_invalid_shape_raises_its_own_error(self, unit_disk):
        shapes = {"icosphere2": gen.icosphere(2), "disk": unit_disk}
        with pytest.raises(ValueError, match="^shape disk is not a valid closed mesh$"):
            run_audit(shapes=shapes, probes_per_shape=1)
        assert multiprocessing.active_children() == []

    def test_failed_chunk_is_raised(self, monkeypatch):
        # a Dijkstra batch of the d_int search fails: run_audit raises its error
        dijkstra = csgraph.dijkstra

        def failing(graph, *args, indices, **kwargs):
            if np.ndim(indices):
                raise RuntimeError("batch failed in its search")
            return dijkstra(graph, *args, indices=indices, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", failing)
        with pytest.raises(RuntimeError, match="^batch failed in its search$"):
            run_audit(shapes={"icosphere1": gen.icosphere(1), "icosphere2": gen.icosphere(2)},
                      probes_per_shape=1)
        assert multiprocessing.active_children() == []

    def test_first_error_in_shape_order(self, unit_disk):
        # every shape is checked before any check runs; the first bad one in
        # shape order is the error
        two = _disjoint_icospheres()
        for shapes, message in (
                ({"two": two, "disk": unit_disk}, "^shape two is not connected$"),
                ({"disk": unit_disk, "two": two}, "^shape disk is not a valid closed mesh$"),
                ({"icosphere2": gen.icosphere(2), "two": two},
                 "^shape two is not connected$")):
            with pytest.raises(ValueError, match=message):
                run_audit(shapes=shapes, probes_per_shape=1)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", ["disk", "two"])
    def test_bad_shape_runs_no_check_and_starts_no_worker(self, bad, unit_disk, monkeypatch):
        calls = []

        def spy(name):
            return lambda *args, **kwargs: calls.append(name)

        for name in ("michael_simon_check", "m_kappa", "intrinsic_diameter"):
            monkeypatch.setattr(audit, name, spy(name))
        shapes = {"icosphere2": gen.icosphere(2),
                  bad: unit_disk if bad == "disk" else _disjoint_icospheres()}
        with pytest.raises(ValueError, match=f"^shape {bad} is not "):
            run_audit(shapes=shapes, probes_per_shape=1)
        assert calls == []
        assert multiprocessing.active_children() == []

    def test_no_shapes_empty_report(self):
        report = run_audit(shapes={})
        assert report["covering"] == report["dichotomy"] == report["michael_simon"] == {}
        assert report["all_hold"]
        assert multiprocessing.active_children() == []
