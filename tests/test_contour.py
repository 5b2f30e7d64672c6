import tracemalloc

import numpy as np
import pytest

from conftest import component_distance_matrix, random_rotation, white_candidates_prim
from curvebound import generators as gen
from curvebound.contour import (Contour, ContourError,
                                component_pair_distances, contour_diameter,
                                contour_length, load_contour, save_contour,
                                segment_segment_distance)


def unit_circle(n=360, center=(0, 0, 0), normal=(0, 0, 1), radius=1.0):
    return gen.circle_contour(radius, n, center, normal)


def ring_of_microcircles(n_small, seed=0):
    """A radius-30 256-gon around n_small radius-0.01 16-gons scattered inside it."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, n_small)
    radius = 20.0 * np.sqrt(rng.uniform(0.0, 1.0, n_small))
    centers = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                               rng.uniform(-1.0, 1.0, n_small)])
    small = [unit_circle(16, center, radius=0.01).components[0] for center in centers]
    return Contour([unit_circle(256, radius=30.0).components[0]] + small)


class TestContourValidation:
    def test_component_needs_three_points(self):
        with pytest.raises(ContourError):
            Contour([[[0, 0, 0], [1, 0, 0]]])

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(ContourError):
            Contour([[[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]]])

    def test_closing_duplicate_rejected(self):
        with pytest.raises(ContourError):
            Contour([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]])

    def test_must_be_3d(self):
        with pytest.raises(ContourError):
            Contour([[[0, 0], [1, 0], [0, 1]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContourError):
            Contour([[[0, 0, 0], [1, 0, 0], [bad, 1, 0]]])

    @pytest.mark.parametrize("first,second,message", [
        ("repeated", "non-finite", "component 1 has consecutive duplicate points"),
        ("non-finite", "repeated", "component 1 has non-finite coordinates"),
        ("non-finite", "flat", "component 1 has non-finite coordinates"),
        ("two points", "non-finite", "component 1 has fewer than 3 points"),
        ("flat", "repeated", r"component 1 must be \(m, 3\), got \(3, 2\)"),
        ("fine", "repeated", "component 2 has consecutive duplicate points"),
        ("fine", "two points", "component 2 has fewer than 3 points"),
    ])
    def test_first_bad_component_named(self, first, second, message):
        comps = {
            "fine": [[0, 0, 5], [1, 0, 5], [0, 1, 5]],
            "repeated": [[0, 0, 1], [1, 0, 1], [1, 0, 1], [0, 1, 1]],
            "non-finite": [[0, 0, 2], [np.nan, 0, 2], [0, 1, 2]],
            "two points": [[0, 0, 3], [1, 0, 3]],
            "flat": [[0, 0], [1, 0], [0, 1]],
        }
        with pytest.raises(ContourError, match=f"^{message}$"):
            Contour([comps["fine"], comps[first], comps[second]])

    def test_disjointness_check(self):
        def disjoint(c):
            d = component_distance_matrix(c)
            return bool(np.all(d[np.triu_indices(c.n_components, k=1)] > 1e-9))

        assert disjoint(gen.coaxial_circles_contour(1.0, 0.5, segments=64))
        overlapping = Contour([unit_circle(64).components[0],
                               unit_circle(64).components[0] + 1e-12])
        assert not disjoint(overlapping)


class TestContourLength:
    def test_unit_circle(self):
        assert abs(contour_length(unit_circle(360)) - 2 * np.pi) < 1e-4

    def test_additivity(self):
        two = Contour([unit_circle(360).components[0],
                       unit_circle(360).components[0] + np.array([5, 0, 0])])
        assert abs(contour_length(two) - 4 * np.pi) < 2e-4

    def test_stadium(self):
        st = gen.stadium_contour(10.0, 1.0, cap_segments=256, side_segments=64)
        assert abs(contour_length(st) - (20 + 2 * np.pi)) < 1e-3


class TestContourDiameter:
    def test_unit_circle(self):
        assert abs(contour_diameter(unit_circle(360)) - 2.0) < 1e-12

    def test_antipodal_geodesic_circles(self):
        # each point's sphere-antipode lies on the other circle, so d = 2
        # exactly (independent of the circle radius)
        gam = gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=64)
        assert abs(contour_diameter(gam) - 2.0) < 1e-9

    def test_stadium(self):
        st = gen.stadium_contour(10.0, 1.0)
        assert abs(contour_diameter(st) - 12.0) < 1e-12

    def test_at_least_max_component_diameter(self):
        two = Contour([unit_circle(64).components[0],
                       0.2 * unit_circle(64).components[0] + np.array([0, 0, 3])])
        d = contour_diameter(two)
        for comp in two.components:
            assert d >= np.linalg.norm(comp[:, None] - comp[None, :], axis=-1).max()


class TestComponentDistances:
    def test_parallel_circles(self):
        c = gen.coaxial_circles_contour(1.0, 1.0, segments=360)
        d = component_distance_matrix(c)
        assert abs(d[0, 1] - 2.0) < 1e-6
        assert d[0, 0] == 0.0 and d[1, 0] == d[0, 1]

    def test_concentric_circles(self):
        inner = unit_circle(8192).components[0]
        outer = 3.0 * unit_circle(8192).components[0]
        d = component_distance_matrix(Contour([inner, outer]))
        assert abs(d[0, 1] - 2.0) < 1e-6

    def test_antipodal_geodesic_circles(self):
        gam = gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=64)
        d = component_distance_matrix(gam)
        assert abs(d[0, 1] - 2 * np.cos(0.1)) < 1e-4

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        comps = [rng.normal(size=(6, 3)) + 8 * rng.normal(size=3) for _ in range(5)]
        d = component_distance_matrix(Contour(comps))
        assert np.allclose(d, d.T)
        off = d[np.triu_indices(5, 1)]
        assert np.all(off > 0)

    @pytest.mark.parametrize("name", ["antipodal", "net"])
    def test_no_segment_pair_evaluated_twice(self, monkeypatch, antipodal_microcircles,
                                             net_family, name):
        import curvebound.contour

        gam = antipodal_microcircles if name == "antipodal" else net_family[0.1][1]
        rows, real = [], curvebound.contour.segment_segment_distance

        def recording(p1, d1, p2, d2):
            rows.append(np.concatenate(np.broadcast_arrays(p1, d1, p2, d2), axis=-1)
                        .reshape(-1, 12))
            return real(p1, d1, p2, d2)

        monkeypatch.setattr(curvebound.contour, "segment_segment_distance", recording)
        ii, jj = white_candidates_prim(gam)  # the pairs White's criterion asks for
        component_pair_distances(gam, ii, jj)
        rows = np.concatenate(rows)
        assert len(np.unique(rows, axis=0)) == len(rows)

    def test_single_component_rejected(self):
        with pytest.raises(ContourError):
            component_distance_matrix(unit_circle(16))

    def test_min_cross_distance_matches_matrix(self):
        """The pruned kernel equals the full broadcast minimum, bit for bit."""
        circles = [gen.circle_contour(r, n, center, normal).components[0]
                   for r, n, center, normal in [
                       (1.0, 90, (0, 0, 0.7), (0, 0, 1)),
                       (1.0, 90, (0, 0, -0.7), (0, 0, 1)),
                       (0.3, 40, (1.6, 0.2, 0.0), (1, 0, 0)),
                       (0.8, 200, (0.1, 2.5, 0.1), (0, 1, 1)),
                       (0.05, 3, (-1.4, 0.0, 0.0), (0, 1, 0))]]
        rot = random_rotation(6)
        for comps in (circles, [a @ rot.T + 5.0 for a in circles]):
            c = Contour(comps)
            d = component_distance_matrix(c)
            first, second = np.nonzero(~np.eye(len(comps), dtype=bool))
            got = component_pair_distances(c, first, second)
            for k, (i, j) in enumerate(zip(first, second)):
                pi, pj = c.components[i], c.components[j]
                di, dj = np.roll(pi, -1, axis=0) - pi, np.roll(pj, -1, axis=0) - pj
                full = segment_segment_distance(pi[:, None], di[:, None],
                                                pj[None], dj[None]).min()
                assert got[k] == full
                if i < j:
                    assert got[k] == d[i, j]

    def test_rigid_motion_invariance(self):
        c = gen.coaxial_circles_contour(1.0, 0.6, segments=90)
        d0 = component_distance_matrix(c)
        rot = random_rotation(2)
        moved = Contour([comp @ rot.T + np.array([1.0, -2.0, 0.5])
                         for comp in c.components])
        d1 = component_distance_matrix(moved)
        assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_many_components_bounded_memory(self):
        # all 80,200 pairs in one call peaked at 418 MB before the chunks
        c = ring_of_microcircles(400)
        ii, jj = np.triu_indices(c.n_components, k=1)
        tracemalloc.start()
        try:
            component_pair_distances(c, ii, jj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_chunks_match_one_call(self, monkeypatch):
        import curvebound.contour

        c = ring_of_microcircles(40, seed=1)
        d = component_distance_matrix(c)  # 820 pairs, 1,100 leaf pairs: one chunk
        ii, jj = np.triu_indices(c.n_components, k=1)
        monkeypatch.setattr(curvebound.contour, "_PAIR_CHUNK", 7)
        assert np.array_equal(component_pair_distances(c, ii, jj), d[ii, jj])


class TestSegmentDistance:
    def test_crossing_segments(self):
        d = segment_segment_distance(
            np.array([-1.0, 0, 0]), np.array([2.0, 0, 0]),
            np.array([0.0, -1, 0]), np.array([0.0, 2, 0]))
        assert float(d) < 1e-12

    def test_parallel_segments(self):
        d = segment_segment_distance(
            np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
            np.array([0.0, 0, 2]), np.array([1.0, 0, 0]))
        assert abs(float(d) - 2.0) < 1e-12

    def test_endpoint_to_interior(self):
        d = segment_segment_distance(
            np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
            np.array([2.0, -1, 0]), np.array([0.0, 2, 0]))
        assert abs(float(d) - 1.0) < 1e-12

    def test_degenerate_point_segments(self):
        d = segment_segment_distance(
            np.array([0.0, 0, 0]), np.array([0.0, 0, 0]),
            np.array([3.0, 4, 0]), np.array([0.0, 0, 0]))
        assert abs(float(d) - 5.0) < 1e-12

    def test_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0.0, 1.0, 2001)
        for _ in range(40):
            p1, p2 = rng.normal(size=(2, 3))
            d1, d2 = rng.normal(size=(2, 3))
            exact = float(segment_segment_distance(p1, d1, p2, d2))
            a = p1[None, :] + t[:, None] * d1[None, :]
            b = p2[None, :] + t[:, None] * d2[None, :]
            sampled = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1).min()
            assert exact <= sampled + 1e-12
            assert sampled - exact < 5e-3  # sampling resolution bound


class TestContourIO:
    def test_roundtrip(self, tmp_path):
        c = gen.coaxial_circles_contour(1.0, 0.5, segments=48)
        path = tmp_path / "pair.contour.json"
        save_contour(c, path)
        back = load_contour(path)
        assert back.n_components == 2
        for a, b in zip(back.components, c.components):
            assert np.allclose(a, b)

    def test_dimension_enforced(self, tmp_path):
        path = tmp_path / "bad.contour.json"
        path.write_text('{"dimension": 2, "components": []}')
        with pytest.raises(ContourError):
            load_contour(path)

    @pytest.mark.parametrize("doc", [
        '{"dimension": 3}',
        '{"dimension": 3, "components": {"vertices": []}}',
        '{"dimension": 3, "components": [{"verts": [[0, 0, 0]]}]}',
        '{"dimension": 3, "components": [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]]}',
        '[3]',
    ])
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.contour.json"
        path.write_text(doc)
        with pytest.raises(ContourError):
            load_contour(path)
