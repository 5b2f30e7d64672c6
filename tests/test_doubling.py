import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import holomorphic_graph, max_orthogonality_defect, section_steps
from curvebound import doubling
from curvebound import generators as gen
from curvebound.curvature import total_mean_curvature
from curvebound.doubling import (BoundaryFrame, build_boundary_frames,
                                 build_double, build_tube, convergence_rows,
                                 regularity_threshold)
from curvebound.mesh import MeshError, SurfaceMesh, extrinsic_diameter, save_mesh, validate
from curvebound.teardrop import build_sweep_profile


@pytest.fixture(scope="module")
def disk_frame(unit_disk):
    return build_boundary_frames(unit_disk)[0]


class TestBoundaryFrames:
    def test_orthonormality(self, unit_disk, hemisphere_mesh):
        for mesh in (unit_disk, hemisphere_mesh):
            for fr in build_boundary_frames(mesh):
                assert max_orthogonality_defect(fr) <= 1e-12

    def test_planar_disk_constant_normal(self, disk_frame):
        sign = np.sign(disk_frame.e3[0, 2])
        assert np.max(np.abs(disk_frame.e3 - sign * np.array([0, 0, 1.0]))) <= 1e-8

    def test_outward_conormal(self, unit_disk, hemisphere_mesh):
        # e2 points away from the adjacent interior-vertex centroid
        for mesh in (unit_disk, hemisphere_mesh):
            fr = build_boundary_frames(mesh)[0]
            interior = ~mesh.boundary_vertex_mask()
            neighbors = {int(v): set() for v in fr.loop_indices}
            for tri in mesh.triangles:
                for v in tri:
                    if int(v) in neighbors:
                        neighbors[int(v)].update(int(w) for w in tri if w != v)
            for j, v in enumerate(fr.loop_indices):
                inner = [w for w in neighbors[int(v)] if interior[w]]
                if not inner:
                    continue
                b = mesh.vertices[inner].mean(axis=0)
                assert np.dot(fr.e2[j], fr.positions[j] - b) >= 0.0

    def test_r3_section_is_the_cross_product(self, unit_disk, hemisphere_mesh):
        # around this fan's loop e1 x e2 turns by more than 90 degrees once, so the
        # carried frame comes back reversed unless every frame is oriented
        fan = SurfaceMesh([(-0.66, -0.44, -1.17), (1.74, -0.5, 0.33), (-0.26, 1.58, 1.32),
                           (0.63, -2.2, 0.05), (0.68, 1.0, -0.62), (1.82, -1.32, -0.66)],
                          [[0, 1 + i, 1 + (i + 1) % 5] for i in range(5)])
        for mesh in (unit_disk, hemisphere_mesh, fan):
            fr = build_boundary_frames(mesh)[0]
            assert fr.holonomy == 0.0
            assert np.max(np.abs(fr.e3 - np.cross(fr.e1, fr.e2))) <= 1e-12

    def test_r4_flat_disk_trivial_holonomy(self, unit_disk):
        disk4 = gen.embed_in_r4(unit_disk)
        fr = build_boundary_frames(disk4)[0]
        assert max_orthogonality_defect(fr) <= 1e-12
        assert fr.holonomy == 0.0
        assert np.array_equal(fr.e3, np.tile([0.0, 0.0, 1.0, 0.0], (len(fr.e3), 1)))

    def test_r4_nonplanar_loop_stays_periodic(self):
        hemi4 = gen.embed_in_r4(gen.hemisphere(12, 48))
        fr = build_boundary_frames(hemi4)[0]
        assert max_orthogonality_defect(fr) <= 1e-12
        steps = section_steps(fr)
        assert steps[-1] <= 2.0 * steps[:-1].max()

    def test_no_boundary_is_an_error(self, icosphere4):
        with pytest.raises(MeshError):
            build_boundary_frames(icosphere4)


class TestRegularityThreshold:
    def test_unit_disk_quarter(self, disk_frame):
        # boundary circle of radius 1: |de2/ds| = 1, so eps_bar = 0.5/2
        assert abs(regularity_threshold(disk_frame) - 0.25) < 0.01

    def test_straight_frame_hits_cap(self):
        # synthetic frame with constant fields: zero bending, cap applies
        m = 16
        t = np.linspace(0, 1, m, endpoint=False)
        pos = np.column_stack([t, np.zeros(m), np.zeros(m)])
        e1 = np.tile([1.0, 0, 0], (m, 1))
        e2 = np.tile([0.0, 1, 0], (m, 1))
        e3 = np.tile([0.0, 0, 1], (m, 1))
        fr = BoundaryFrame(loop_indices=np.arange(m), positions=pos, e1=e1,
                           e2=e2, e3=e3, arclengths=t, length=1.0)
        assert regularity_threshold(fr) == 0.5

    def test_half_threshold_builds_clean_tube(self, disk_frame):
        prof = build_sweep_profile(25)
        eps_bar = regularity_threshold(disk_frame)
        tube = build_tube(disk_frame, prof, eps_bar / 2)
        rep = validate(tube)
        assert rep.is_valid
        assert tube.triangle_areas().min() > 1e-14


class TestTube:
    def test_annulus_topology(self, disk_frame):
        tube = build_tube(disk_frame, build_sweep_profile(50), 0.01)
        rep = validate(tube)
        assert rep.is_valid
        assert rep.n_boundary_loops == 2
        assert rep.euler_characteristic == 0

    def test_stays_within_two_epsilon(self, unit_disk, disk_frame):
        eps = 0.01
        tube = build_tube(disk_frame, build_sweep_profile(50), eps)
        boundary_pts = unit_disk.vertices[disk_frame.loop_indices]
        d = cKDTree(boundary_pts).query(tube.vertices)[0]
        assert d.max() <= 2 * eps + 1e-12

    def test_end_rows_reproduce_the_loop(self, disk_frame):
        tube = build_tube(disk_frame, build_sweep_profile(50), 0.01)
        m = len(disk_frame.positions)
        assert np.max(np.abs(tube.vertices[:m] - disk_frame.positions)) <= 1e-9
        assert np.max(np.abs(tube.vertices[-m:] - disk_frame.positions)) <= 1e-9

    def test_epsilon_out_of_range(self, disk_frame):
        prof = build_sweep_profile(50)
        with pytest.raises(MeshError):
            build_tube(disk_frame, prof, 0.3)
        with pytest.raises(MeshError):
            build_tube(disk_frame, prof, 0.0)

    def test_curvature_limit_by_extrapolation(self, unit_disk, disk_frame):
        # integral |H| over the tube tends to (1/2) * loop length * profile
        # turning as eps -> 0; Richardson in eps from {0.02, 0.01}
        prof = build_sweep_profile(50)
        target = 0.5 * disk_frame.length * prof.turning()
        t_02 = total_mean_curvature(build_tube(disk_frame, prof, 0.02))
        t_01 = total_mean_curvature(build_tube(disk_frame, prof, 0.01))
        extrap = 2 * t_01 - t_02
        assert abs(extrap - target) / target < 0.05
        # and the eps-sequence moves monotonically toward the target
        t_04 = total_mean_curvature(build_tube(disk_frame, prof, 0.04))
        assert abs(t_04 - target) > abs(t_02 - target) > abs(t_01 - target)


class TestDouble:
    def test_flat_disk_curvature(self, disk_double_k50):
        tot = total_mean_curvature(disk_double_k50.sigma)
        assert abs(tot - np.pi**2) / np.pi**2 <= 0.05

    def test_flat_disk_diameter(self, disk_double_k50):
        d = extrinsic_diameter(disk_double_k50.sigma.vertices)
        assert abs(d - 2.0) <= 4 * disk_double_k50.epsilon

    def test_closed_connected_euler(self, disk_double_k50, unit_disk):
        rep = validate(disk_double_k50.sigma)
        assert rep.is_valid and rep.closed and rep.connected
        assert rep.euler_characteristic == 2 * unit_disk.euler_characteristic()

    def test_auto_epsilon_rule(self, unit_disk, disk_frame):
        eps_bar = regularity_threshold(disk_frame)
        dbl = build_double(unit_disk, 50)
        assert dbl.epsilon == min(eps_bar / 2, 1 / (2 * 50))

    def test_provenance_partitions_triangles(self, disk_double_k50, unit_disk):
        prov = disk_double_k50.provenance
        assert set(prov) == {"copy-1", "copy-2", "tube-0"}
        spans = sorted(prov.values())
        assert spans[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert spans[-1][1] == disk_double_k50.sigma.n_triangles
        assert prov["copy-1"][1] - prov["copy-1"][0] == unit_disk.n_triangles

    def test_hausdorff_two_epsilon(self, disk_double_k50, unit_disk):
        d = cKDTree(unit_disk.vertices).query(disk_double_k50.sigma.vertices)[0]
        assert d.max() <= 2 * disk_double_k50.epsilon + 1e-12

    def test_curvature_diameter_floor(self, disk_double_k50):
        sigma = disk_double_k50.sigma
        ratio = total_mean_curvature(sigma) / extrinsic_diameter(sigma.vertices)
        assert ratio >= np.pi / 16

    def test_hemisphere_target(self, hemisphere_mesh):
        dbl = build_double(hemisphere_mesh, 50)
        tot = total_mean_curvature(dbl.sigma)
        target = 2 * 2 * np.pi + np.pi**2
        assert abs(tot - target) / target <= 0.08

    def test_r4_double(self, unit_disk):
        disk4 = gen.embed_in_r4(gen.flat_disk(1.0, 16, 64))
        dbl = build_double(disk4, 25)
        rep = validate(dbl.sigma)
        assert rep.is_valid and rep.closed and rep.connected
        assert dbl.sigma.dimension == 4
        assert rep.euler_characteristic == 2

    def test_two_boundary_loops(self):
        cyl = gen.open_cylinder(1.0, 2.0, segments=48, rings=8)
        dbl = build_double(cyl, 25)
        rep = validate(dbl.sigma)
        assert rep.is_valid and rep.closed and rep.connected
        # doubling a cylinder (chi=0) through two tubes keeps chi = 0
        assert rep.euler_characteristic == 0
        assert "tube-1" in dbl.provenance

    def test_closed_input_rejected(self, icosphere4):
        with pytest.raises(MeshError):
            build_double(icosphere4, 10)

    def test_disconnected_input_rejected_before_any_frame(self, unit_disk, monkeypatch):
        calls = []
        monkeypatch.setattr(doubling, "build_boundary_frames", calls.append)
        v, t = unit_disk.vertices, unit_disk.triangles
        two = SurfaceMesh(np.vstack([v, v + [100.0, 0.0, 0.0]]), np.vstack([t, t + len(v)]))
        with pytest.raises(MeshError, match="^mesh is not connected; "):
            build_double(two, 10)
        assert calls == []

    def test_input_framed_once_per_mesh(self, monkeypatch, tmp_path):
        mesh = gen.flat_disk(1.0, 8, 32)
        checked, framed = [], []
        check, frames = doubling.validate, doubling.build_boundary_frames
        monkeypatch.setattr(doubling, "validate", lambda m: checked.append(m) or check(m))
        monkeypatch.setattr(doubling, "build_boundary_frames",
                            lambda m: framed.append(m) or frames(m))
        doubles = [build_double(mesh, k) for k in (10, 25)]
        assert sum(m is mesh for m in checked) == 1 and framed == [mesh]
        monkeypatch.undo()
        for dbl in doubles:
            fresh = build_double(SurfaceMesh(mesh.vertices, mesh.triangles), dbl.k)
            save_mesh(dbl.sigma, tmp_path / "cached.mesh.json")
            save_mesh(fresh.sigma, tmp_path / "fresh.mesh.json")
            assert ((tmp_path / "cached.mesh.json").read_bytes()
                    == (tmp_path / "fresh.mesh.json").read_bytes())


GRAPH_POWERS = {"r4": (2,), "r6": (2, 3)}


@pytest.fixture(scope="module", params=sorted(GRAPH_POWERS))
def graph_family(request):
    """A holomorphic graph over the disks 8x32, 16x64 and 32x128: H = 0, curved normal bundle."""
    return [holomorphic_graph(gen.flat_disk(1.0, rings, 4 * rings), GRAPH_POWERS[request.param])
            for rings in (8, 16, 32)]


class TestHolomorphicGraphs:
    def test_mean_curvature_falls_at_second_order(self, graph_family):
        h = [total_mean_curvature(mesh) for mesh in graph_family]
        for coarse, fine in zip(h, h[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_section_closes_up_around_the_holonomy(self, graph_family):
        for mesh in graph_family:
            fr, = build_boundary_frames(mesh)
            assert fr.holonomy > 1.0
            assert max_orthogonality_defect(fr) <= 1e-12
            steps = section_steps(fr)
            assert steps[-1] <= 2.0 * steps[:-1].max()

    def test_doubles_are_closed_and_approach_the_target(self, graph_family):
        mesh = graph_family[0]
        for k, excess in ((10, 0.3), (50, 0.1)):
            row, dbl = next(convergence_rows(mesh, [k]))
            rep = validate(dbl.sigma)
            assert rep.is_valid and rep.closed and rep.connected
            assert rep.euler_characteristic == 2 * mesh.euler_characteristic()
            assert dbl.sigma.dimension == mesh.dimension
            assert dbl.epsilon == 1.0 / (2 * k)
            assert 0.0 < row["sigma_curvature"] / row["target_curvature"] - 1.0 <= excess


class TestConvergenceTable:
    def test_flat_disk_rows(self, unit_disk):
        rows = [row for row, _ in convergence_rows(unit_disk, [10, 25, 50])]
        errs = [r["curvature_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        for r in rows:
            assert r["diameter_error"] <= 4 * r["epsilon"]
            assert r["epsilon"] < 1.0 / r["k"]
        assert abs(rows[0]["target_curvature"] - np.pi**2) / np.pi**2 < 0.001

    def test_rows_stream_with_their_doubles(self):
        mesh = gen.flat_disk(1.0, 8, 32)
        pairs = list(convergence_rows(mesh, [10, 25]))
        assert [row for row, _ in pairs] == [row for row, _ in convergence_rows(mesh, [10, 25])]
        for row, dbl in pairs:
            assert dbl.k == row["k"] and dbl.epsilon == row["epsilon"]
            assert extrinsic_diameter(dbl.sigma.vertices) == row["sigma_diameter"]
