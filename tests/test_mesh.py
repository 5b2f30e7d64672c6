import io
import json

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import (assert_brackets_all_pairs, boundary_library_meshes,
                      brute_force_diameter, intrinsic_ball_volume, random_rotation)
from curvebound import audit
from curvebound import generators as gen
from curvebound import mesh as mesh_module
from curvebound.audit import run_audit
from curvebound.mesh import (COORDINATE_LIMIT, DIAMETER_TOL, MeshError, SurfaceMesh,
                             boundary_length, extrinsic_diameter,
                             geodesic_distances, intrinsic_diameter, load_mesh,
                             save_mesh, validate)


def single_triangle():
    return SurfaceMesh([[0, 0, 0], [3, 0, 0], [3, 4, 0]], [[0, 1, 2]])


class TestValidate:
    def test_single_triangle(self):
        rep = validate(single_triangle())
        assert rep.is_valid
        assert rep.n_boundary_loops == 1
        assert not rep.closed
        mesh = single_triangle()
        assert len(mesh.boundary_loops[0]) == 3

    def test_icosphere_closed(self, icosphere4):
        rep = validate(icosphere4)
        assert rep.is_valid and rep.closed
        assert rep.n_boundary_loops == 0
        assert rep.euler_characteristic == 2

    def test_same_winding_is_orientation_error(self):
        # both triangles traverse edge (1, 2) in the same direction
        mesh = SurfaceMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
            [[0, 1, 2], [3, 1, 2]],
        )
        rep = validate(mesh)
        assert not rep.oriented
        assert not rep.is_valid
        assert any("orientation" in e for e in rep.errors)

    def test_degenerate_triangle_reported(self):
        mesh = SurfaceMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
        rep = validate(mesh)
        assert not rep.is_valid
        assert any("degenerate" in e for e in rep.errors)

    def test_nonmanifold_edge_reported(self):
        mesh = SurfaceMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
        )
        rep = validate(mesh)
        assert not rep.manifold
        assert any("non-manifold" in e for e in rep.errors)

    def test_generated_library_meshes_all_valid(self):
        shapes = dict(gen.closed_library_meshes())
        shapes.update(boundary_library_meshes())
        for name, mesh in shapes.items():
            rep = validate(mesh)
            assert rep.is_valid, f"{name}: {rep}"


def oracle_edge_tables(mesh):
    """Edge tables by np.unique over index pairs, the pre-key construction:
    edges, their triangle counts, the boundary directed edges and the
    directed edges that occur more than once."""
    t = mesh.triangles
    de = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    edges, inverse, ue_counts = np.unique(
        np.sort(de, axis=1), axis=0, return_inverse=True, return_counts=True)
    directed, de_counts = np.unique(de, axis=0, return_counts=True)
    return edges, ue_counts, de[ue_counts[inverse] == 1], directed[de_counts > 1]


class TestEdgeTable:
    @pytest.mark.parametrize("shape", [
        "disk", "cylinder", "disk_r4", "double_k10", "triangle", "non_manifold",
        "directed_thrice"])
    def test_matches_unique_over_pairs(self, shape, unit_disk):
        if shape == "disk":
            mesh = unit_disk
        elif shape == "cylinder":
            mesh = gen.open_cylinder(1.0, 4.0, segments=24)
        elif shape == "disk_r4":
            mesh = gen.embed_in_r4(unit_disk)
        elif shape == "double_k10":
            from curvebound.doubling import build_double
            mesh = build_double(gen.flat_disk(1.0, 8, 32), 10).sigma
        elif shape == "triangle":
            mesh = single_triangle()
        elif shape == "non_manifold":
            mesh = SurfaceMesh(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
                [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        else:
            # (0, 1) three times, and (2, 1), whose key carries the direction tag, twice
            mesh = SurfaceMesh(
                np.random.default_rng(0).normal(size=(7, 3)),
                [[0, 1, 2], [0, 1, 3], [0, 1, 4], [2, 1, 5], [2, 1, 6]])
        expected = oracle_edge_tables(mesh)
        got = mesh._edge_tables()
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and (a == b).all()
        if shape == "directed_thrice":
            assert got[3].tolist() == [[0, 1], [2, 1]]

    def test_empty_mesh(self):
        mesh = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert mesh.edges.shape == (0, 2)
        assert mesh.boundary_loops == []


class TestValidateMessages:
    """The exact error lines, with vertex indices as plain integers."""

    def test_non_manifold_edge(self):
        mesh = SurfaceMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        assert validate(mesh).errors == [
            "non-manifold edge (0, 1) in 3 triangles",
            "inconsistent orientation across edge (0, 1)"]

    def test_inconsistent_orientation(self):
        mesh = SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                           [[0, 1, 2], [3, 1, 2]])
        assert validate(mesh).errors == [
            "inconsistent orientation across edge (1, 2)"]

    def test_repeated_vertex_names_the_first_triangle(self):
        mesh = SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                           [[0, 1, 2], [1, 3, 3], [2, 2, 3]])
        rep = validate(mesh)
        assert not rep.is_valid
        assert rep.errors[:3] == ["degenerate triangle 1 (area 0.000e+00)",
                                  "degenerate triangle 2 (area 0.000e+00)",
                                  "triangle 1 repeats a vertex"]

    def test_pinched_boundary_chain(self):
        # two triangles meeting only at vertex 0: its boundary chain branches
        mesh = SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]],
                           [[0, 1, 2], [0, 3, 4]])
        rep = validate(mesh)
        assert not rep.is_valid
        assert rep.errors == [
            "boundary is not a union of simple loops (vertex 0 repeats)"]


class TestExtrinsicDiameter:
    def test_single_pair(self):
        assert extrinsic_diameter([[0, 0, 0], [3, 4, 0]]) == 5.0

    def test_icosphere_antipodal(self, icosphere4):
        assert abs(extrinsic_diameter(icosphere4.vertices) - 2.0) < 1e-9

    def test_capped_cylinder_axis(self, capped_cyl_1_20):
        # hemispherical caps put the poles at +-(L/2 + r)
        assert abs(extrinsic_diameter(capped_cyl_1_20.vertices) - 22.0) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            extrinsic_diameter([[0, 0, 0]])

    def test_rigid_motion_invariance(self, unit_disk):
        d0 = extrinsic_diameter(unit_disk.vertices)
        for seed in (1, 2, 3):
            rot = random_rotation(seed)
            moved = unit_disk.vertices @ rot.T + np.array([0.3, -2.0, 11.0])
            assert abs(extrinsic_diameter(moved) - d0) < 1e-9

    @pytest.mark.parametrize("shape", [
        "disk", "icosphere", "cylinder", "rotated", "line", "planar",
        "duplicates", "r4", "two_points", "net"])
    def test_matches_brute_force(self, shape, unit_disk, icosphere4):
        """Bit-identical to the plain O(V^2) loop on regular and degenerate sets."""
        rng = np.random.default_rng(3)
        if shape == "disk":
            pts = unit_disk.vertices
        elif shape == "icosphere":
            pts = icosphere4.vertices
        elif shape == "cylinder":
            pts = gen.open_cylinder(1.0, 4.0).vertices
        elif shape == "rotated":
            pts = icosphere4.vertices @ random_rotation(4).T + np.array([0.3, -2.0, 11.0])
        elif shape == "line":
            pts = np.column_stack([np.linspace(0, 7, 50), np.zeros(50), np.zeros(50)])
        elif shape == "planar":
            pts = gen.flat_disk(2.0, 8, 32).vertices
        elif shape == "duplicates":
            base = gen.capped_cylinder(0.5, 4.0, segments=24, rings_cap=4).vertices
            pts = np.vstack([base, base[rng.integers(0, len(base), 500)]])
        elif shape == "r4":
            pts = rng.normal(size=(3000, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        elif shape == "two_points":
            pts = np.array([[0.1, -0.2, 0.3], [1.7, 2.9, -4.1]])
        else:
            pts = gen.sphere_circles(gen.fibonacci_net(0.2), 0.2**2.5,
                                     segments=16).all_points()
        assert extrinsic_diameter(pts) == brute_force_diameter(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            extrinsic_diameter([[0, 0, 0], [1, 0, 0], [bad, 0, 0]])

    def test_net_leaf_pairs(self, net_family, monkeypatch):
        # a ceiling on the work: the ball prefilter and the antipodal node bound
        # leave 3,328 leaf pairs on the epsilon = 0.1 net, whose points lie on a
        # sphere; the box bound alone left 32,128
        evaluated, leaf_pairs_max = [0], mesh_module._leaf_pairs_max

        def counting(pa, pb):
            evaluated[0] += len(pa)
            return leaf_pairs_max(pa, pb)

        monkeypatch.setattr(mesh_module, "_leaf_pairs_max", counting)
        # the all-pairs max, as the pinned net_eps0.1 report in test_bit_identity has it
        assert extrinsic_diameter(net_family[0.1][1].all_points()) == 1.9999999802628503
        assert 0 < evaluated[0] <= 3328


class TestBoundaryLength:
    def test_disk_360gon(self):
        disk = gen.flat_disk(1.0, 8, 360)
        # inscribed polygon perimeter 2n sin(pi/n)
        assert abs(boundary_length(disk) - 2 * np.pi) < 1e-4

    def test_closed_is_zero(self, icosphere4):
        assert boundary_length(icosphere4) == 0.0

    def test_triangle_perimeter(self):
        assert abs(boundary_length(single_triangle()) - 12.0) < 1e-12

    def test_scaling(self, unit_disk):
        lam = 3.7
        scaled = SurfaceMesh(unit_disk.vertices * lam, unit_disk.triangles)
        assert abs(boundary_length(scaled) - lam * boundary_length(unit_disk)) \
            <= 1e-9 * lam * boundary_length(unit_disk)
        area = unit_disk.triangle_areas().sum()
        assert abs(scaled.triangle_areas().sum() - lam**2 * area) <= 1e-9 * lam**2 * area

    def test_boundary_diameter_within_mesh_diameter(self, unit_disk, hemisphere_mesh):
        for mesh in (unit_disk, hemisphere_mesh):
            bverts = mesh.vertices[mesh.boundary_vertex_mask()]
            assert extrinsic_diameter(bverts) <= extrinsic_diameter(mesh.vertices) + 1e-12


class TestGeodesics:
    def test_source_to_itself(self, unit_disk):
        d = geodesic_distances(unit_disk, 5)
        assert d[5] == 0.0

    def test_single_edge(self):
        mesh = SurfaceMesh([[0, 0, 0], [1.5, 0, 0], [0, 2, 0]], [[0, 1, 2]])
        d = geodesic_distances(mesh, 0)
        assert d[1] == 1.5

    def test_icosphere_antipodal_band(self, icosphere4):
        # frozen regression: edge-graph bias measured at ~5.7% on this lattice
        d = geodesic_distances(icosphere4, 0)
        anti = int(np.argmin(np.linalg.norm(icosphere4.vertices
                                            + icosphere4.vertices[0], axis=1)))
        assert np.pi <= d[anti] <= 1.06 * np.pi

    def test_disconnected_reports_inf(self):
        mesh = SurfaceMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]],
            [[0, 1, 2], [3, 4, 5]],
        )
        d = geodesic_distances(mesh, 0)
        assert np.isinf(d[3:]).all()

    def test_source_out_of_range(self, unit_disk):
        with pytest.raises(ValueError):
            geodesic_distances(unit_disk, unit_disk.n_vertices)

    def test_directed_search_matches_undirected(self):
        shapes = dict(gen.closed_library_meshes(), **boundary_library_meshes())
        for name, mesh in shapes.items():
            for source in (0, mesh.n_vertices // 2, mesh.n_vertices - 1):
                ref = csgraph.dijkstra(mesh.vertex_adjacency(), directed=False,
                                       indices=source)
                assert np.array_equal(geodesic_distances(mesh, source), ref), name


class TestIntrinsicDiameter:
    # thin_capped and icosphere3_stretched: re-reading every kept row after
    # each batch drops the most candidates early on these two
    @pytest.mark.parametrize("shape", ["icosphere3", "icosphere4", "capped",
                                       "capped_rotated", "disk", "thin_capped",
                                       "icosphere3_stretched"])
    def test_matches_brute_force(self, shape, icosphere4, unit_disk):
        capped = gen.capped_cylinder(0.5, 4.0, segments=48, rings_cap=10)
        mesh = {
            "icosphere3": gen.icosphere(3),
            "icosphere4": icosphere4,
            "capped": capped,
            "capped_rotated": SurfaceMesh(capped.vertices @ random_rotation(7).T,
                                          capped.triangles),
            "disk": unit_disk,
            "thin_capped": gen.capped_cylinder(0.1, 4.0, segments=12, rings_cap=3),
            "icosphere3_stretched": SurfaceMesh(gen.icosphere(3).vertices * [4.0, 1.0, 1.0],
                                                gen.icosphere(3).triangles),
        }[shape]
        assert_brackets_all_pairs(mesh, intrinsic_diameter(mesh))

    # Dijkstra sources per library mesh (at most), and the all-pairs max its bracket must hold
    LIBRARY_WORK = {
        "icosphere3": (60, 3.3187961651320244),
        "icosphere4": (78, 3.3359202930449485),
        "capped_cylinder_1_20": (16, 23.139350203046863),
        "capped_cylinder_0.5_4": (50, 5.5691819145569),
    }

    def test_library_dijkstra_sources(self, monkeypatch):
        dijkstra, sources = csgraph.dijkstra, []

        def counting(graph, *args, **kwargs):
            sources.append(np.size(kwargs["indices"]))
            return dijkstra(graph, *args, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", counting)
        for name, mesh in gen.closed_library_meshes().items():
            sources.clear()
            runs, value = self.LIBRARY_WORK[name]
            lower, upper = intrinsic_diameter(mesh)
            assert lower <= value <= upper, name
            assert 0 < sum(sources) <= runs, name

        # run_audit's searches, in shape order, counted in this process while each one runs
        searched = []

        def counting_diameter(mesh):
            sources.clear()
            bracket = intrinsic_diameter(mesh)
            searched.append(sum(sources))
            return bracket

        monkeypatch.setattr(audit, "intrinsic_diameter", counting_diameter)
        report = run_audit(probes_per_shape=1)
        assert report["covering"].keys() == self.LIBRARY_WORK.keys()
        assert len(searched) == len(self.LIBRARY_WORK)
        for (name, (runs, value)), count in zip(self.LIBRARY_WORK.items(), searched):
            rec = report["covering"][name]
            assert rec["d_int"] <= value <= rec["d_int_upper"], name
            assert 0 < count <= runs, name

    def test_long_cylinder_few_sources(self, monkeypatch):
        # 53,634 vertices, too many for the all-pairs oracle: the bracket is
        # checked against the rows the search itself ran
        mesh = gen.capped_cylinder(1.0, 80.0)
        dijkstra, row_maxima = csgraph.dijkstra, []

        def recording(graph, *args, **kwargs):
            rows = dijkstra(graph, *args, **kwargs)
            row_maxima.extend(rows.max(axis=1))
            return rows

        monkeypatch.setattr(csgraph, "dijkstra", recording)
        lower, upper = intrinsic_diameter(mesh)
        assert 0 < len(row_maxima) <= 6
        assert lower == max(row_maxima)
        assert lower <= upper <= lower * (1.0 + DIAMETER_TOL) * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", ["icosphere1", "icosphere2", "icosphere3", "disk",
                                      "capped", "single_triangle"])
    def test_any_chunking_gives_the_same_search(self, name, monkeypatch):
        # each batch's sources split over several csgraph.dijkstra calls: rows
        # do not depend on the other sources, so the batches and the bracket stay
        mesh = {
            "icosphere1": gen.icosphere(1),
            "icosphere2": gen.icosphere(2),
            "icosphere3": gen.icosphere(3),
            "disk": gen.flat_disk(1.0, 4, 16),
            "capped": gen.capped_cylinder(0.5, 3.0, segments=16, rings_cap=4),
            "single_triangle": single_triangle(),
        }[name]
        dijkstra, batches, ties = csgraph.dijkstra, [], [0]

        def recording(graph, *args, **kwargs):
            batches.append(np.array(kwargs["indices"]))
            return dijkstra(graph, *args, **kwargs)

        def chunked(chunks):
            def search(graph, *args, indices, **kwargs):
                batches.append(np.array(indices))
                parts = [dijkstra(graph, *args, indices=part, **kwargs)
                         for part in np.array_split(indices, min(chunks, len(indices)))]
                least = [part.max(axis=1).min() for part in parts]
                ties[0] += least.count(min(least)) > 1
                return np.vstack(parts)
            return search

        monkeypatch.setattr(csgraph, "dijkstra", recording)
        bracket, expected = intrinsic_diameter(mesh), batches[:]
        monkeypatch.setattr(csgraph, "dijkstra", dijkstra)
        assert_brackets_all_pairs(mesh, bracket)
        for chunks in (1, 2, 3, 5, 16):
            batches.clear()
            monkeypatch.setattr(csgraph, "dijkstra", chunked(chunks))
            assert intrinsic_diameter(mesh) == bracket, chunks
            assert len(batches) == len(expected), chunks
            assert all(np.array_equal(a, b) for a, b in zip(batches, expected)), chunks
        # icosphere vertices tie in eccentricity; the first chunk's row must win
        assert ties[0] > 0 or not name.startswith("icosphere")

    @pytest.mark.parametrize("cpus", [3, 5])
    def test_pooled_searches_issue_the_same_batches(self, cpus, monkeypatch):
        # run_audit's searches, all in its own process whatever the CPU count,
        # issue the batches of a lone search, shape by shape
        shapes = {f"icosphere{k}": gen.icosphere(k) for k in (1, 2, 3)}
        dijkstra, batches = csgraph.dijkstra, []
        expected, issued = {}, {}

        def recording(graph, *args, **kwargs):
            batches.append(np.array(kwargs["indices"]))
            return dijkstra(graph, *args, **kwargs)

        def recording_diameter(mesh):
            batches.clear()
            bracket = intrinsic_diameter(mesh)
            issued[len(issued)] = batches[:]
            return bracket

        monkeypatch.setattr(csgraph, "dijkstra", recording)
        for name, mesh in shapes.items():
            batches.clear()
            expected[name] = (intrinsic_diameter(mesh), batches[:])
        monkeypatch.setattr(audit, "intrinsic_diameter", recording_diameter)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        report = run_audit(shapes=shapes, probes_per_shape=1)
        monkeypatch.setattr(csgraph, "dijkstra", dijkstra)
        assert len(issued) == len(shapes)
        for (name, mesh), batches_in_audit in zip(shapes.items(), issued.values()):
            bracket, lone = expected[name]
            rec = report["covering"][name]
            assert (rec["d_int"], rec["d_int_upper"]) == bracket, name
            assert_brackets_all_pairs(mesh, bracket)
            assert len(batches_in_audit) == len(lone), name
            assert all(np.array_equal(a, b) for a, b in zip(batches_in_audit, lone)), name

    def test_bound_equal_to_best_drops(self, monkeypatch):
        # a tolerance equal to the rounding slack makes bounds tie the best
        # eccentricity; a tie is "at most" the threshold, so the vertex drops
        dijkstra, sources = csgraph.dijkstra, []

        def counting(graph, *args, **kwargs):
            sources.append(np.size(kwargs["indices"]))
            return dijkstra(graph, *args, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", counting)
        monkeypatch.setattr("curvebound.mesh.DIAMETER_TOL", 1e-12)
        for mesh, runs in ((gen.flat_disk(1.0, 4, 16), 4), (gen.icosphere(1), 13)):
            sources.clear()
            bracket = intrinsic_diameter(mesh)
            assert sum(sources) <= runs
            assert_brackets_all_pairs(mesh, bracket)

    def test_small_meshes(self):
        point = SurfaceMesh([[0.0, 0, 0]], np.zeros((0, 3), dtype=np.int64))
        for mesh, value in ((single_triangle(), 5.0), (point, 0.0)):
            assert assert_brackets_all_pairs(mesh, intrinsic_diameter(mesh)).max() == value

    def test_disconnected_or_empty_rejected(self):
        two = SurfaceMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]],
            [[0, 1, 2], [3, 4, 5]])
        empty = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        for mesh in (two, empty):
            with pytest.raises(ValueError, match="connected"):
                intrinsic_diameter(mesh)


class TestBallVolume:
    def test_disk_center_small_ball(self, unit_disk):
        # spokes through the center make the distance field exact there
        v = intrinsic_ball_volume(unit_disk, 0, 0.25)
        assert abs(v - np.pi * 0.0625) / (np.pi * 0.0625) < 0.03

    def test_full_coverage_returns_area(self, unit_disk):
        area = unit_disk.triangle_areas().sum()
        assert abs(intrinsic_ball_volume(unit_disk, 0, 10.0) - area) < 1e-9

    def test_icosphere_cap_regression(self, icosphere4):
        # analytic cap area 2*pi*(1 - cos 1) = 2.888; the edge-graph bias
        # shrinks the measured ball by ~16% on this lattice (frozen band)
        v = intrinsic_ball_volume(icosphere4, 0, 1.0)
        target = 2 * np.pi * (1 - np.cos(1.0))
        assert 0.78 * target <= v <= 1.02 * target

    def test_monotone_in_radius(self, unit_disk):
        vols = [intrinsic_ball_volume(unit_disk, 0, r)
                for r in np.linspace(0.05, 1.5, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))

    def test_flat_ratio_tends_to_pi(self):
        fine = gen.flat_disk(1.0, 60, 240)
        for r in (0.05, 0.1, 0.2):
            v = intrinsic_ball_volume(fine, 0, r)
            assert abs(v / r**2 - np.pi) / np.pi < 0.05

    def test_square_grid_bias_regression(self):
        # lattice shortest paths overestimate distances by up to sqrt(2) on the
        # anti-diagonal; measured area deficit ~23% (frozen band, documented)
        sq = gen.square_grid(40)
        center = int(np.argmin(np.linalg.norm(
            sq.vertices - np.array([0.5, 0.5, 0.0]), axis=1)))
        v = intrinsic_ball_volume(sq, center, 0.25)
        rel = (v - np.pi * 0.0625) / (np.pi * 0.0625)
        assert -0.30 < rel < -0.15

    def test_nonpositive_radius(self, unit_disk):
        with pytest.raises(ValueError):
            intrinsic_ball_volume(unit_disk, 0, 0.0)


class TestIO:
    def test_obj_roundtrip(self, tmp_path, unit_disk):
        path = tmp_path / "disk.obj"
        save_mesh(unit_disk, path)
        back = load_mesh(path)
        assert np.allclose(back.vertices, unit_disk.vertices)
        assert np.array_equal(back.triangles, unit_disk.triangles)

    def test_mesh_json_roundtrip(self, tmp_path, hemisphere_mesh):
        path = tmp_path / "hemi.mesh.json"
        save_mesh(hemisphere_mesh, path)
        back = load_mesh(path)
        assert back.dimension == 3
        assert np.allclose(back.vertices, hemisphere_mesh.vertices)

    def test_4d_mesh_json(self, tmp_path, unit_disk):
        mesh4 = gen.embed_in_r4(unit_disk)
        path = tmp_path / "disk4.mesh.json"
        save_mesh(mesh4, path)
        back = load_mesh(path)
        assert back.dimension == 4
        assert validate(back).is_valid

    def test_obj_negative_indices_are_relative(self, tmp_path):
        # -1 is the last vertex read so far, so faces may precede later vertices
        path = tmp_path / "rel.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
                        "v 1 1 0\nf 2 -1 3\n")
        mesh = load_mesh(path)
        assert mesh.triangles.tolist() == [[0, 1, 2], [1, 3, 2]]
        assert validate(mesh).is_valid

    @pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2 4", "f -4 -2 -1"])
    def test_obj_bad_face_index(self, tmp_path, face):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    @pytest.mark.parametrize("vertex", ["v 0 1", "v", "v 0 1 z", "v 0,1,0"])
    def test_obj_bad_vertex_line(self, tmp_path, vertex):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{vertex}\nf 1 2 3\n")
        with pytest.raises(MeshError, match=vertex):
            load_mesh(path)

    @pytest.mark.parametrize("face", ["f 1 2 x", "f 1 2", "f 1 2 3 1", "f"])
    def test_obj_bad_face_line(self, tmp_path, face):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        with pytest.raises(MeshError, match=f"{face}$"):
            load_mesh(path)

    def test_obj_rejects_4d(self, tmp_path, unit_disk):
        with pytest.raises(MeshError):
            save_mesh(gen.embed_in_r4(unit_disk), tmp_path / "bad.obj")

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(MeshError):
            load_mesh(tmp_path / "nope.stl")

    @pytest.mark.parametrize("doc", [
        {"dimension": 3, "vertices": [], "triangles": []},
        {"dimension": 3, "vertices": [1.0, 2.0, 3.0], "triangles": []},
        {"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "triangles": []},
        [1, 2, 3],
        3,
        {"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, {}]],
         "triangles": [[0, 1, 2]]},
        {"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         "triangles": [[0, 1, 1.5]]},
        {"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         "triangles": [[0, 1, 2**70]]},
        {"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         "triangles": [[0, 1, "2"]]},
    ])
    def test_malformed_mesh_json(self, tmp_path, doc):
        path = tmp_path / "bad.mesh.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_mesh_json_bytes_match_json_dump(self, tmp_path):
        mesh = gen.embed_in_r4(gen.flat_disk(1.0, 4, 16))
        path = tmp_path / "disk4.mesh.json"
        save_mesh(mesh, path)
        ref = io.StringIO()
        json.dump({"dimension": 4, "vertices": mesh.vertices.tolist(),
                   "triangles": mesh.triangles.tolist()}, ref)
        assert path.read_text() == ref.getvalue()

    @pytest.mark.parametrize("mesh", [
        gen.flat_disk(1.0, 4, 16),
        gen.embed_in_r4(gen.flat_disk(1.0, 4, 16)),
        SurfaceMesh([[-0.0, 2.0**240, -1e-300], [1e-300, -0.0, 5e-324], [0.1, -2.0**240, 1.0]],
                    [[0, 1, 2]]),  # the largest coordinates a mesh accepts
        SurfaceMesh([[0.0, 0.5, 1.0], [2.0, 3.0, 4.0]], np.empty((0, 3), dtype=np.int64)),
    ], ids=["disk", "disk_r4", "signed_zero_and_extremes", "no_triangles"])
    def test_mesh_json_bytes_match_json_dumps(self, tmp_path, mesh):
        path = tmp_path / "m.mesh.json"
        save_mesh(mesh, path)
        doc = {"dimension": mesh.dimension, "vertices": mesh.vertices.tolist(),
               "triangles": mesh.triangles.tolist()}
        assert path.read_bytes() == json.dumps(doc).encode()


class TestConstruction:
    def test_bad_vertex_shape(self):
        with pytest.raises(MeshError):
            SurfaceMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])

    def test_index_out_of_range(self):
        with pytest.raises(MeshError):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(MeshError, match="finite"):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, bad, 0]], [[0, 1, 2]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coordinate_limit(self, sign):
        # 2^240 keeps the degree-4 corner-Gram products finite; one ulp more is refused
        limit = sign * COORDINATE_LIMIT
        SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, limit, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError, match=r"^vertex coordinates must be at most 2\^240 "
                                            r"in absolute value$"):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, np.nextafter(limit, 2 * limit), 0]],
                        [[0, 1, 2]])

    def test_vertices_frozen(self, unit_disk):
        with pytest.raises(ValueError):
            unit_disk.vertices[0, 0] = 99.0
