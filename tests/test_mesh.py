import io
import json

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import brute_force_intrinsic_diameter, random_rotation
from curvebound import generators as gen
from curvebound.mesh import (MeshError, SurfaceMesh, boundary_length,
                             extrinsic_diameter, geodesic_distances,
                             intrinsic_ball_volume, intrinsic_diameter,
                             load_mesh, save_mesh, validate)


def brute_force_diameter(points, rows=256):
    """The O(V^2) loop: squared differences accumulated in dimension order."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for i0 in range(0, len(p), rows):
        acc = np.zeros((len(p[i0:i0 + rows]), len(p)))
        for k in range(p.shape[1]):
            diff = p[i0:i0 + rows, None, k] - p[None, :, k]
            acc += diff * diff
        best = max(best, float(acc.max()))
    return float(np.sqrt(best))


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
        shapes.update(gen.boundary_library_meshes())
        for name, mesh in shapes.items():
            rep = validate(mesh)
            assert rep.is_valid, f"{name}: {rep}"


def oracle_edge_tables(mesh):
    """Edge tables by np.unique over index pairs, the pre-key construction."""
    t = mesh.triangles
    de = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    edges, inverse, ue_counts = np.unique(
        np.sort(de, axis=1), axis=0, return_inverse=True, return_counts=True)
    directed, de_counts = np.unique(de, axis=0, return_counts=True)
    return edges, ue_counts, directed, de_counts, de[ue_counts[inverse] == 1]


class TestEdgeTable:
    @pytest.mark.parametrize("shape", [
        "disk", "cylinder", "disk_r4", "double_k10", "triangle", "non_manifold"])
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
        else:
            mesh = SurfaceMesh(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
                [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        edges, ue_counts, directed, de_counts, boundary = oracle_edge_tables(mesh)
        got_edges, got_ue, dkeys, got_de, got_boundary = mesh._edge_tables()
        n = mesh.n_vertices
        assert got_edges.shape == edges.shape and (got_edges == edges).all()
        assert (got_ue == ue_counts).all() and (got_de == de_counts).all()
        assert (np.stack([dkeys // n, dkeys % n], axis=1) == directed).all()
        assert got_boundary.shape == boundary.shape and (got_boundary == boundary).all()

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
        assert abs(scaled.area() - lam**2 * unit_disk.area()) \
            <= 1e-9 * lam**2 * unit_disk.area()

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
        shapes = dict(gen.closed_library_meshes(), **gen.boundary_library_meshes())
        for name, mesh in shapes.items():
            for source in (0, mesh.n_vertices // 2, mesh.n_vertices - 1):
                ref = csgraph.dijkstra(mesh.vertex_adjacency(), directed=False,
                                       indices=source)
                assert np.array_equal(geodesic_distances(mesh, source), ref), name


class TestIntrinsicDiameter:
    @pytest.mark.parametrize("shape", ["icosphere3", "icosphere4", "capped",
                                       "capped_rotated", "disk"])
    def test_matches_brute_force(self, shape, icosphere4, unit_disk):
        capped = gen.capped_cylinder(0.5, 4.0, segments=48, rings_cap=10)
        mesh = {
            "icosphere3": gen.icosphere(3),
            "icosphere4": icosphere4,
            "capped": capped,
            "capped_rotated": SurfaceMesh(capped.vertices @ random_rotation(7).T,
                                          capped.triangles),
            "disk": unit_disk,
        }[shape]
        assert intrinsic_diameter(mesh) == brute_force_intrinsic_diameter(mesh)

    def test_small_meshes(self):
        assert intrinsic_diameter(single_triangle()) == 5.0
        point = SurfaceMesh([[0.0, 0, 0]], np.zeros((0, 3), dtype=np.int64))
        assert intrinsic_diameter(point) == 0.0

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
        assert abs(intrinsic_ball_volume(unit_disk, 0, 10.0) - unit_disk.area()) < 1e-9

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

    def test_vertices_frozen(self, unit_disk):
        with pytest.raises(ValueError):
            unit_disk.vertices[0, 0] = 99.0
