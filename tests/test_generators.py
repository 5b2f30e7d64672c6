import hashlib
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from conftest import (circle_points, component_distance_matrix, covering_radius_voronoi,
                      icosphere_loop)
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

    def test_nan_points_rejected(self):
        # a NaN norm fails every comparison, so the check is that all norms pass
        with pytest.raises(ValueError):
            gen.SphericalPointSet(np.array([[0.0, 0, np.nan], [0, 0, -1]]))

    def test_antipodal_packing(self):
        X = gen.antipodal_point_set()
        assert abs(X.packing_radius - np.pi / 2) < 1e-12

    def test_packing_strictly_below_covering(self):
        X = gen.SphericalPointSet(gen.fibonacci_sphere(50))
        X.covering_radius = gen.covering_radius_exact(X)
        assert X.packing_radius < X.covering_radius

    def test_pair_search_matches_dense_oracle(self):
        # the dense all-pairs arccos is the oracle for the nearest-neighbour chord
        for n in (2000, 3000):
            pts = gen.fibonacci_sphere(n)
            dots = np.clip(pts @ pts.T, -1, 1)
            np.fill_diagonal(dots, -1.0)
            ref = 0.5 * np.arccos(dots.max())
            assert abs(gen.SphericalPointSet(pts).packing_radius - ref) < 1e-12


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

    def test_cube_ties(self):
        # four points on every face's circle: the facet rule proposes either
        # triangulation of a face, and Qhull's value holds to the last bit
        cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        X = gen.SphericalPointSet(cube / np.sqrt(3.0))
        assert gen.covering_radius_exact(X) == 0.9553166181245092

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron", "cuboctahedron",
                                      "icosphere2"])
    def test_polyhedra_match_qhull(self, name):
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        cuboctahedron = np.array([np.roll([a, b, 0.0], shift) for shift in range(3)
                                  for a in (-1, 1) for b in (-1, 1)]) / np.sqrt(2.0)
        pts = {"octahedron": octahedron, "icosahedron": gen.icosphere(0).vertices,
               "cuboctahedron": cuboctahedron, "icosphere2": gen.icosphere(2).vertices}[name]
        hull = -ConvexHull(pts).equations[:, 3].max()
        assert gen.covering_radius_exact(gen.SphericalPointSet(pts)) == np.arccos(hull)

    def test_clustered_set_widens_the_search(self):
        # 200 points in a cap of radius about 0.01 and four spread out: the
        # first neighbour radius, 6 / sqrt(n), misses the large facets
        rng = np.random.default_rng(1)
        cluster = rng.normal(size=(200, 3)) * 0.01 + [0.0, 0.0, 1.0]
        pts = np.vstack([cluster, [[1, 0, 0], [-0.5, 0.8, -0.3], [-0.5, -0.8, -0.3], [0, 0, -1]]])
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        hull = -ConvexHull(pts).equations[:, 3].max()
        assert gen.covering_radius_exact(gen.SphericalPointSet(pts)) == np.arccos(hull)

    def test_exact_rejects_open_hemisphere(self):
        pts = gen.fibonacci_sphere(40)
        with pytest.raises(ValueError):
            gen.covering_radius_exact(gen.SphericalPointSet(pts[pts[:, 2] > 0.1]))

    @pytest.mark.parametrize("n", [187, 745, 2978, 4652, 20000])
    def test_hull_matches_voronoi_on_spirals(self, n):
        X = gen.SphericalPointSet(gen.fibonacci_sphere(n))
        assert abs(gen.covering_radius_exact(X) - covering_radius_voronoi(X)) <= 1e-14

    @pytest.mark.parametrize("n", [12, 50, 400, 3000])
    def test_hull_matches_voronoi_on_random_sets(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            pts = rng.normal(size=(n, 3))
            X = gen.SphericalPointSet(pts / np.linalg.norm(pts, axis=1)[:, None])
            try:
                expected = covering_radius_voronoi(X)
            except ValueError:  # a few points can lie in an open hemisphere
                with pytest.raises(ValueError):
                    gen.covering_radius_exact(X)
            else:
                assert abs(gen.covering_radius_exact(X) - expected) <= 1e-14

    @pytest.mark.parametrize("name", ["one point", "antipodal pair", "three points",
                                      "great circle", "small circle", "repeated point",
                                      "open hemisphere"])
    def test_degenerate_sets_raise(self, name):
        pts = gen.fibonacci_sphere(60)
        ring = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        rows = {
            "one point": pts[:1],
            "antipodal pair": gen.antipodal_point_set().points,
            "three points": pts[:3],
            "great circle": np.column_stack([np.cos(ring), np.sin(ring), np.zeros(24)]),
            "small circle": np.column_stack([0.6 * np.cos(ring), 0.6 * np.sin(ring),
                                             np.full(24, 0.8)]),
            "repeated point": np.vstack([pts, pts[7:8]]),
            "open hemisphere": pts[pts[:, 2] > 0.1],
        }[name]
        X = gen.SphericalPointSet(rows)
        with pytest.raises(ValueError):
            covering_radius_voronoi(X)
        with pytest.raises(ValueError):
            gen.covering_radius_exact(X)


class TestFibonacciNet:
    def test_covering_is_met(self, net_family):
        for eps, (net, _) in net_family.items():
            assert net.covering_radius <= eps
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

    def test_infeasible_target_fails_fast(self):
        # no set above max_points is built on the way to the error
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="500"):
            gen.fibonacci_net(0.002, max_points=500)
        assert time.perf_counter() - t0 < 1.0

    def test_sizes(self, net_family):
        assert {eps: len(net) for eps, (net, _) in net_family.items()} == {
            0.2: 187, 0.1: 745, 0.05: 2978}

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

    def test_bit_identical_to_one_circle_at_a_time(self, net_family):
        for eps, (net, gam) in net_family.items():
            r = eps**2.5
            for c, comp in zip(net.points, gam.components):
                assert np.array_equal(comp, circle_points(np.cos(r) * c, c, np.sin(r), 16))

    def test_circle_and_coaxial_bit_identical_to_one_circle(self):
        center, normal = np.array([0.3, -1.0, 2.0]), np.array([1.0, 2.0, -0.5])
        assert np.array_equal(gen.circle_contour(1.5, 90, center, normal).components[0],
                              circle_points(center, normal, 1.5, 90))
        top, bot = gen.coaxial_circles_contour(1.0, 0.7, 128).components
        assert np.array_equal(top, circle_points(np.array([0.0, 0, 0.7]),
                                                 np.array([0.0, 0, 1]), 1.0, 128))
        assert np.array_equal(bot, circle_points(np.array([0.0, 0, -0.7]),
                                                 np.array([0.0, 0, 1]), 1.0, 128))

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            gen.sphere_circles(gen.antipodal_point_set(), np.pi / 2)

    @pytest.mark.parametrize("radius", [0.0, -0.2, -1.0, float("nan")])
    def test_nonpositive_radius_rejected(self, radius):
        # a radius <= 0 would pass the packing-radius guard
        with pytest.raises(ValueError, match=f"radius {radius} must be positive"):
            gen.sphere_circles(gen.antipodal_point_set(), radius)

    def test_segment_floor(self):
        with pytest.raises(ValueError):
            gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=8)

    def test_components_pairwise_separated(self, net_family):
        net, gam = net_family[0.2]
        d = component_distance_matrix(gam)
        assert np.all(d[~np.eye(gam.n_components, dtype=bool)] > 0)


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

    # blake2b-128 digests of the vertex and triangle arrays: the meshes that
    # every recorded number rests on, pinned bit for bit
    @pytest.mark.parametrize("build,vertices,triangles", [
        pytest.param(lambda: gen.flat_disk(),
                     "0f676c384a914566b8844781069c3bec", "311e34000e9b93732a96fc95b15a0a0d",
                     id="flat_disk()"),
        pytest.param(lambda: gen.flat_disk(1.0, 8, 32),
                     "554b0d59123a60f1a1053e485912b050", "e3d410976bc2ae9ffe583ce5cde60d70",
                     id="flat_disk(1.0, 8, 32)"),
        pytest.param(lambda: gen.hemisphere(),
                     "c011ac8d83cfeb8d539dcf50349627aa", "311e34000e9b93732a96fc95b15a0a0d",
                     id="hemisphere()"),
        pytest.param(lambda: gen.open_cylinder(),
                     "99a59af627c194350f5e88234fb92b20", "09d1383c775a3bbd81b89fd68db963cd",
                     id="open_cylinder()"),
        pytest.param(lambda: gen.open_cylinder(1.0, 4.0, segments=24),
                     "8cfc91c9084900489cad5dc414e98b92", "aa61bab2f39d2679308772f7ac8b759e",
                     id="open_cylinder(1.0, 4.0, segments=24)"),
        pytest.param(lambda: gen.capped_cylinder(),
                     "4c3ec5224899fb75a8c927a788734482", "f1f0abf0bf9679720563f7179ffe0b30",
                     id="capped_cylinder()"),
        pytest.param(lambda: gen.capped_cylinder(0.5, 4.0, segments=48, rings_cap=10),
                     "20880403f170120665b5d7a20b406d73", "2801086550b14183abbfdf8385fe972c",
                     id="capped_cylinder(0.5, 4.0, segments=48, rings_cap=10)"),
    ])
    def test_revolution_meshes_bit_identical(self, build, vertices, triangles):
        mesh = build()
        assert mesh.vertices.dtype == np.float64 and mesh.triangles.dtype == np.int64
        digest = lambda a: hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
        assert digest(mesh.vertices) == vertices
        assert digest(mesh.triangles) == triangles

    @pytest.mark.parametrize("subdivisions", range(6))
    def test_icosphere_bit_identical_to_edge_dict_loop(self, subdivisions):
        mesh = gen.icosphere(subdivisions, radius=1.5)
        vertices, faces = icosphere_loop(subdivisions, radius=1.5)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.triangles.dtype == np.int64 and np.array_equal(mesh.triangles, faces)

    @pytest.mark.parametrize("build,name", [
        (lambda: gen.open_cylinder(rings=0), "rings"),
        (lambda: gen.icosphere(1.5), "subdivisions"),
        (lambda: gen.icosphere(-1), "subdivisions"),
        (lambda: gen.flat_disk(rings=2.5), "rings"),
        (lambda: gen.flat_disk(segments="abc"), "segments"),
        (lambda: gen.hemisphere(rings=0), "rings"),
        (lambda: gen.hemisphere(segments=2), "segments"),
        (lambda: gen.capped_cylinder(rings_cap=0), "rings_cap"),
        (lambda: gen.capped_cylinder(rings_lateral=2.0), "rings_lateral"),
        (lambda: gen.capped_cylinder(segments="abc"), "segments"),
        (lambda: gen.square_grid(0), "n"),
        (lambda: gen.circle_contour(segments=2), "segments"),
        (lambda: gen.coaxial_circles_contour(segments=10.5), "segments"),
        (lambda: gen.stadium_contour(cap_segments=True), "cap_segments"),
        (lambda: gen.stadium_contour(side_segments=0), "side_segments"),
        (lambda: gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=16.5),
         "segments"),
    ])
    def test_bad_counts_name_the_parameter(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            build()

    def test_numpy_integer_counts_accepted(self):
        a = gen.flat_disk(1.0, np.int64(3), np.int32(8))
        b = gen.flat_disk(1.0, 3, 8)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_embed_in_r4(self, unit_disk):
        mesh4 = gen.embed_in_r4(unit_disk)
        assert mesh4.dimension == 4
        assert validate(mesh4).is_valid


@pytest.mark.parametrize("builder,param", [
    (gen.flat_disk, "radius"), (gen.icosphere, "radius"), (gen.hemisphere, "radius"),
    (gen.capped_cylinder, "radius"), (gen.capped_cylinder, "length"),
    (gen.open_cylinder, "radius"), (gen.open_cylinder, "length"), (gen.square_grid, "size"),
    (gen.circle_contour, "radius"), (gen.stadium_contour, "a"), (gen.stadium_contour, "r"),
    (gen.coaxial_circles_contour, "radius")])
@pytest.mark.parametrize("value", [0.0, -3.0, float("inf"), float("nan")])
def test_lengths_must_be_positive_and_finite(builder, param, value):
    # radius 0 divided by zero, length inf overflowed, and a negative length
    # folded the cylinder with its caps swapped
    with pytest.raises(ValueError, match=f"^{param} must be positive and finite, got "):
        builder(**{param: value})


def test_closed_library_subset_builds_only_the_named_shapes(monkeypatch):
    built = []
    for name, build in gen.CLOSED_LIBRARY.items():
        monkeypatch.setitem(gen.CLOSED_LIBRARY, name,
                            lambda name=name, build=build: built.append(name) or build())
    shapes = gen.closed_library_meshes(("capped_cylinder_0.5_4", "icosphere3"))
    assert list(shapes) == built == ["capped_cylinder_0.5_4", "icosphere3"]
    assert list(gen.closed_library_meshes()) == list(gen.CLOSED_LIBRARY)
