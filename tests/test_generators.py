import numpy as np
import pytest
from scipy.spatial import cKDTree

from curvebound import generators as gen
from curvebound.contour import contour_diameter, contour_length
from curvebound.curvature import total_mean_curvature
from curvebound.mesh import extrinsic_diameter, validate


class TestShapeLibrary:
    def test_dispatcher_and_unknown_name(self):
        mesh = gen.shape_library("disk", radius=2.0, rings=8, segments=32)
        assert validate(mesh).is_valid
        with pytest.raises(ValueError):
            gen.shape_library("klein-bottle")

    def test_stadium_ratio_approaches_two(self):
        # l/d = (2a + 2 pi r)/(a + 2r): 2.19 at a=10 and decreasing toward 2
        ratios = []
        for a in (10.0, 40.0, 160.0):
            st = gen.stadium_contour(a, 1.0)
            ratios.append(contour_length(st) / contour_diameter(st))
        assert abs(ratios[0] - 2.19) < 0.01
        assert ratios[0] > ratios[1] > ratios[2] > 2.0

    def test_capped_cylinder_curvature_per_diameter(self, capped_cyl_1_20):
        ratio = (total_mean_curvature(capped_cyl_1_20)
                 / extrinsic_diameter(capped_cyl_1_20.vertices))
        assert abs(ratio - np.pi * 24 / 22) / (np.pi * 24 / 22) < 0.03

    def test_long_cylinder_ratio_trends_to_pi(self, capped_cyl_1_20):
        long_cyl = gen.capped_cylinder(1.0, 60.0, segments=48, rings_cap=10)
        r20 = (total_mean_curvature(capped_cyl_1_20)
               / extrinsic_diameter(capped_cyl_1_20.vertices))
        r60 = (total_mean_curvature(long_cyl)
               / extrinsic_diameter(long_cyl.vertices))
        assert abs(r60 - np.pi) < abs(r20 - np.pi)

    def test_icosphere_ratio(self, icosphere4):
        ratio = (total_mean_curvature(icosphere4)
                 / extrinsic_diameter(icosphere4.vertices))
        assert abs(ratio - 2 * np.pi) / (2 * np.pi) < 0.02


class TestSphericalPointSet:
    def test_points_must_be_unit(self):
        with pytest.raises(ValueError):
            gen.SphericalPointSet(np.array([[0.0, 0, 1.1], [0, 0, -1]]))

    def test_antipodal_packing(self):
        X = gen.antipodal_point_set()
        assert abs(X.packing_radius - np.pi / 2) < 1e-12

    def test_packing_strictly_below_covering(self):
        X = gen.SphericalPointSet(gen.fibonacci_sphere(50))
        X.covering_radius = gen.covering_radius_exact(X)
        assert X.packing_radius < X.covering_radius

    def test_kdtree_path_matches_exact(self):
        # the dense all-pairs arccos is the oracle for the nearest-neighbour chord
        for n in (2000, 3000):
            pts = gen.fibonacci_sphere(n)
            dots = np.clip(pts @ pts.T, -1, 1)
            np.fill_diagonal(dots, -1.0)
            ref = 0.5 * np.arccos(dots.max())
            assert abs(gen._packing_radius(pts) - ref) < 1e-12


def sampled_covering_radius(X, n):
    """Max geodesic distance from an n-point spiral sample of S^2 to its
    nearest point of X: a lower estimate of the covering radius."""
    chord, _ = cKDTree(X.points).query(gen.fibonacci_sphere(n), k=1)
    return float(2.0 * np.arcsin(min(1.0, chord.max() / 2.0)))


class TestCoveringRadius:
    def test_single_point(self):
        # the farthest point is the antipode, at pi > pi/2
        X = gen.SphericalPointSet(np.array([[0.0, 0, 1]]))
        assert abs(sampled_covering_radius(X, 20000) - np.pi) < 0.05
        with pytest.raises(ValueError):
            gen.covering_radius_exact(X)

    def test_antipodal_pair(self):
        # the whole equator is at pi/2; the two points span no Voronoi vertex
        X = gen.antipodal_point_set()
        assert abs(sampled_covering_radius(X, 20000) - np.pi / 2) < 0.02
        with pytest.raises(ValueError):
            gen.covering_radius_exact(X)

    def test_octahedron(self):
        X = gen.SphericalPointSet(np.array(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))
        exact = gen.covering_radius_exact(X)
        est = sampled_covering_radius(X, 20000)
        assert est <= exact + 1e-12  # a finite sample never exceeds the sup
        assert abs(est - exact) < 0.02

    def test_estimate_grows_with_resolution(self):
        X = gen.SphericalPointSet(gen.fibonacci_sphere(100))
        exact = gen.covering_radius_exact(X)
        lo = sampled_covering_radius(X, 10**4)
        hi = sampled_covering_radius(X, 8 * 10**4)
        assert hi >= lo - 1e-3
        assert max(lo, hi) <= exact + 1e-12
        assert exact - hi < 0.01

    def test_exact_matches_octahedron(self):
        X = gen.SphericalPointSet(np.array(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))
        assert abs(gen.covering_radius_exact(X) - np.arccos(1 / np.sqrt(3))) < 1e-12

    def test_exact_rejects_open_hemisphere(self):
        pts = gen.fibonacci_sphere(40)
        with pytest.raises(ValueError):
            gen.covering_radius_exact(gen.SphericalPointSet(pts[pts[:, 2] > 0.1]))


class TestFibonacciNet:
    def test_covering_is_met(self, net_family):
        for eps, (net, _) in net_family.items():
            assert net.covering_radius <= eps
            assert net.meets_packing_floor
            assert net.packing_radius >= eps / 4

    def test_uniform_sample_finds_no_point_beyond_epsilon(self, net_family):
        # the exact covering radius is the supremum, so no sampled point of
        # S^2 may lie farther from the net than it, nor farther than eps
        rng = np.random.default_rng(20201006)
        sample = rng.normal(size=(10**6, 3))
        sample /= np.linalg.norm(sample, axis=1)[:, None]
        for eps, (net, _) in net_family.items():
            chord, _ = cKDTree(net.points).query(sample, k=1)
            farthest = 2.0 * np.arcsin(min(1.0, chord.max() / 2.0))
            assert farthest <= eps
            assert farthest <= net.covering_radius + 1e-12

    def test_one_point_fewer_does_not_cover(self, net_family):
        for eps, (net, _) in net_family.items():
            fewer = gen.SphericalPointSet(gen.fibonacci_sphere(len(net) - 1))
            assert gen.covering_radius_exact(fewer) > eps

    def test_cardinality_scaling(self, net_family):
        n = {eps: len(net) for eps, (net, _) in net_family.items()}
        assert 3 <= n[0.1] / n[0.2] <= 5
        assert 3 <= n[0.05] / n[0.1] <= 5

    def test_length_scaling_sqrt_eps(self, net_family):
        # l(Gamma_eps) = |X| * 2 pi sin(eps^{5/2}) ~ eps^{1/2}
        eps = np.array(sorted(net_family))
        lengths = np.array([contour_length(net_family[e][1]) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(lengths), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_infeasible_target(self):
        with pytest.raises(ValueError):
            gen.fibonacci_net(0.002, max_points=500)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            gen.fibonacci_net(0.7)


class TestSphereCircles:
    def test_antipodal_pair_geometry(self):
        gam = gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=64)
        assert gam.n_components == 2
        # each circle is Euclidean radius sin(eps) at height cos(eps)
        for comp, sign in zip(gam.components, (1, -1)):
            radii = np.linalg.norm(comp[:, :2], axis=1)
            assert np.allclose(radii, np.sin(0.1), atol=1e-12)
            assert np.allclose(comp[:, 2], sign * np.cos(0.1), atol=1e-12)

    def test_total_length_formula(self, net_family):
        net, gam = net_family[0.2]
        # inscribed 16-gon perimeter 2m sin(pi/m) per circle of radius sin(rho)
        m = 16
        expected = len(net) * 2 * m * np.sin(np.pi / m) * np.sin(0.2**2.5)
        assert abs(contour_length(gam) - expected) / expected < 1e-9
        smooth = len(net) * 2 * np.pi * np.sin(0.2**2.5)
        assert abs(contour_length(gam) - smooth) / smooth < 0.01

    def test_shrinking_circles_trend(self):
        X = gen.antipodal_point_set()
        ds, ls = [], []
        for eps in (0.2, 0.1, 0.05):
            gam = gen.sphere_circles(X, eps, segments=64)
            ds.append(contour_diameter(gam))
            ls.append(contour_length(gam))
        assert ls[0] > ls[1] > ls[2]           # length -> 0
        assert all(abs(d - 2.0) < 1e-9 for d in ds)  # d -> d(X) = 2

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            gen.sphere_circles(gen.antipodal_point_set(), np.pi / 2)

    def test_segment_floor(self):
        with pytest.raises(ValueError):
            gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=8)

    def test_components_pairwise_separated(self, net_family):
        net, gam = net_family[0.2]
        from curvebound.criteria import white_check
        # positive separation: the exact bottleneck path builds real distances
        assert gam.check_disjoint() or white_check(gam).measured["best_cross_distance"] > 0


class TestMeshGenerators:
    def test_hemisphere_boundary_is_equator(self, hemisphere_mesh):
        loops = hemisphere_mesh.boundary_loops
        assert len(loops) == 1
        eq = hemisphere_mesh.vertices[loops[0].vertex_indices]
        assert np.allclose(eq[:, 2], 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(eq[:, :2], axis=1), 1.0, atol=1e-12)

    def test_open_cylinder_two_loops(self):
        cyl = gen.open_cylinder(1.0, 4.0)
        assert len(cyl.boundary_loops) == 2

    def test_disk_spokes_make_center_distances_exact(self, unit_disk):
        from curvebound.mesh import geodesic_distances

        d = geodesic_distances(unit_disk, 0)
        radii = np.linalg.norm(unit_disk.vertices, axis=1)
        assert np.max(np.abs(d - radii)) < 1e-12

    def test_embed_in_r4(self, unit_disk):
        mesh4 = gen.embed_in_r4(unit_disk)
        assert mesh4.dimension == 4
        assert validate(mesh4).is_valid
