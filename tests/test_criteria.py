import numpy as np
import pytest
from scipy.sparse import csr_matrix

from conftest import (component_distance_matrix, eager_cone_splits, random_rotation,
                      tau_root_bisection, touching_contours, white_bruteforce_oracle,
                      white_candidates_prim)
from curvebound import generators as gen
from curvebound.cli import main
from curvebound.contour import Contour, ContourError, contour_diameter, save_contour
from curvebound.criteria import (VERDICT_CERTIFIED, VERDICT_NO_CERTIFICATE,
                                 VERDICT_NOT_APPLICABLE, VERDICT_NOT_TRIGGERED,
                                 analyze, bottleneck_split, cone_check,
                                 diameter_length_check, tau_root,
                                 verify_cone_separator, white_check)


class TestTauRoot:
    def test_residual(self):
        root = tau_root()
        assert root.residual <= 1e-12
        assert abs(np.cosh(root.tau) - root.tau * np.sinh(root.tau)) <= 1e-12

    def test_value(self):
        root = tau_root()
        assert abs(root.tau - 1.1997) <= 1e-3
        # exact constant of the optimal separating cone; the two-decimal
        # figure 2.27 quoted for it is a truncation of this value
        assert abs(root.sinh_sq - 2.2767175) <= 1e-5

    def test_agrees_with_bisection(self):
        assert abs(tau_root().tau - tau_root_bisection()) <= 1e-6

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            tau_root_bisection(2.0, 3.0)


class TestDiameterLength:
    def test_antipodal_microcircles_certified(self, antipodal_microcircles):
        entry = diameter_length_check(antipodal_microcircles)
        assert entry.verdict == VERDICT_CERTIFIED
        # d = 2 exactly (antipodal pairs), l = 4*pi*sin(0.01)
        assert abs(entry.measured["diameter"] - 2.0) < 1e-9
        assert abs(entry.margin - (2.0 - 8 * 4 * np.pi * np.sin(0.01))) < 1e-3

    def test_stadium_silent_in_both_modes(self):
        st = gen.stadium_contour(10.0, 1.0)
        assert diameter_length_check(st, "proven").verdict == VERDICT_NOT_TRIGGERED
        conj = diameter_length_check(st, "conjectural")
        assert conj.verdict == VERDICT_NOT_TRIGGERED
        assert "NOT a proof" in conj.notes

    def test_single_circle_silent(self):
        circ = gen.circle_contour(1.0, 128)
        assert diameter_length_check(circ).verdict == VERDICT_NOT_TRIGGERED

    def test_margin_scales_linearly(self, antipodal_microcircles):
        lam = 4.5
        scaled = Contour([lam * comp for comp in antipodal_microcircles.components])
        m0 = diameter_length_check(antipodal_microcircles).margin
        m1 = diameter_length_check(scaled).margin
        assert abs(m1 - lam * m0) <= 1e-6 * abs(lam * m0)

    def test_bad_mode(self, antipodal_microcircles):
        with pytest.raises(ValueError):
            diameter_length_check(antipodal_microcircles, "hopeful")


class TestWhite:
    def test_three_component_matrix(self):
        d = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
        value, split = bottleneck_split(csr_matrix(d))
        assert value == 2.0
        assert sorted(map(sorted, split)) == [[0, 1], [2]]
        assert white_bruteforce_oracle(d) == 2.0

    def test_antipodal_geodesic_circles(self):
        gam = gen.sphere_circles(gen.antipodal_point_set(), 0.1, segments=64)
        entry = white_check(gam)
        assert entry.verdict == VERDICT_CERTIFIED
        assert abs(entry.measured["best_cross_distance"] - 2 * np.cos(0.1)) < 1e-4
        # threshold is length/pi of the sampled polygons (4 sin 0.1 smooth)
        assert entry.measured["threshold"] == entry.measured["length"] / np.pi
        assert abs(entry.measured["threshold"] - 4 * np.sin(0.1)) < 1e-3

    def test_single_component_not_applicable(self):
        entry = white_check(gen.circle_contour(1.0, 64))
        assert entry.verdict == VERDICT_NOT_APPLICABLE

    def test_mst_equals_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            pts = rng.normal(size=(n, 3))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            v_mst, split = bottleneck_split(csr_matrix(d))
            assert v_mst == white_bruteforce_oracle(d)
            # the returned split realizes the optimum
            assert d[np.ix_(split[0], split[1])].min() == v_mst

    def test_large_contour_fast_path_equivalent(self):
        net = gen.fibonacci_net(0.18)
        gam = gen.sphere_circles(net, 0.18**2.5, segments=16)
        v_full, s_full = bottleneck_split(csr_matrix(component_distance_matrix(gam)))
        entry = white_check(gam)
        assert entry.measured["best_cross_distance"] == v_full
        assert sorted(map(sorted, s_full)) == sorted(entry.certificate["partition"])

    @pytest.mark.parametrize("name", ["net-0.2", "net-0.1", "net-0.05", "coaxial",
                                      "two-clusters"])
    def test_candidates_equal_prim_oracle(self, monkeypatch, net_family, name):
        from scipy.spatial import cKDTree

        from curvebound import criteria

        if name.startswith("net"):
            gam = net_family[float(name[4:])][1]
        elif name == "coaxial":
            gam = gen.coaxial_circles_contour(1.0, 0.4, 360)
        else:
            # ten circles in each of two far clusters: the 8 nearest centroids
            # of every circle lie in its own cluster, so k must grow
            rng = np.random.default_rng(5)
            centers = np.vstack([rng.uniform(0, 3, (10, 3)), rng.uniform(20, 23, (10, 3))])
            gam = Contour([gen.circle_contour(0.05, 32, c, rng.normal(size=3)).components[0]
                           for c in centers])
            cents = np.array([comp.mean(axis=0) for comp in gam.components])
            nearest = cKDTree(cents).query(cents, k=9)[1]
            assert not np.any((nearest < 10) != (np.arange(20) < 10)[:, None])
        calls = []
        real = criteria.component_pair_distances
        monkeypatch.setattr(criteria, "component_pair_distances",
                            lambda c, first, second: calls.append((first, second))
                            or real(c, first, second))
        criteria.white_check(gam)
        ii, jj = white_candidates_prim(gam)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], ii) and np.array_equal(calls[0][1], jj)

    @pytest.mark.parametrize("name", list(touching_contours()))
    def test_touching_components_rejected(self, name):
        # a zero distance is no edge to the MST, so a certificate or a crash
        # would follow; the contour is not a disjoint union
        with pytest.raises(ContourError, match="components 0 and 1 touch"):
            white_check(touching_contours()[name])

    def test_near_touching_components_kept(self):
        r = 2.0 ** -7
        near = Contour([gen.circle_contour(1.0, 64).components[0],
                        gen.circle_contour(r, 64, (1 - r - 1e-6, 0, 0)).components[0]])
        assert white_check(near).measured["best_cross_distance"] > 0.0

    def test_oracle_range(self):
        with pytest.raises(ValueError):
            white_bruteforce_oracle(np.zeros((13, 13)))
        with pytest.raises(ValueError):
            white_bruteforce_oracle(np.zeros((1, 1)))


class TestCone:
    def test_separated_circles_certified(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=180)
        entry = cone_check(c)
        assert entry.verdict == VERDICT_CERTIFIED
        ok, worst = verify_cone_separator(c, entry.certificate)
        assert ok and worst > 0
        # closed form at the symmetric apex: rho = 1 < 2 sinh(tau)
        assert entry.margin > 0.1

    def test_close_circles_no_certificate(self):
        c = gen.coaxial_circles_contour(1.0, 0.1, segments=180)
        entry = cone_check(c)
        assert entry.verdict == VERDICT_NO_CERTIFICATE
        assert "NOT a proof" in entry.notes

    def test_repeated_calls_give_same_result(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=90)
        e1 = cone_check(c)
        e2 = cone_check(c)
        assert e1.margin == e2.margin
        assert e1.certificate == e2.certificate

    def test_large_contour_margin_normalized_by_diameter(self):
        # above 20,000 points, with a diameter (sqrt(18.25)) unlike twice the
        # largest distance from the centroid (2 sqrt(5))
        top = gen.circle_contour(1.0, 10240, center=(0, 0, 2.0)).components[0]
        bot = gen.circle_contour(0.5, 10240, center=(0, 0, -2.0)).components[0]
        c = Contour([top, bot])
        entry = cone_check(c, search_budget=100)
        assert entry.verdict == VERDICT_CERTIFIED
        ok, worst = verify_cone_separator(c, entry.certificate)
        assert ok
        assert entry.margin == worst / contour_diameter(c)

    def test_separator_scale_covariance(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=90)
        entry = cone_check(c)
        sep = entry.certificate
        lam = 3.0
        rot = random_rotation(4)
        shift = np.array([0.5, -1.0, 2.0])
        moved = Contour([lam * comp @ rot.T + shift for comp in c.components])
        moved_sep = dict(sep, apex=list(lam * rot @ np.array(sep["apex"]) + shift),
                         axis=list(rot @ np.array(sep["axis"])))
        ok0, worst0 = verify_cone_separator(c, sep)
        ok1, worst1 = verify_cone_separator(moved, moved_sep)
        assert ok0 and ok1
        assert abs(worst1 - lam * worst0) <= 1e-6 * abs(lam * worst0)

    def test_verdicts_invariant_under_rigid_motion(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=90)
        rot = random_rotation(12)
        moved = Contour([comp @ rot.T + 7.0 for comp in c.components])
        assert cone_check(moved).verdict == VERDICT_CERTIFIED

    def test_rejects_bad_partition(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=64)
        sep = {"apex": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "tau": tau_root().tau,
               "sinh_sq": tau_root().sinh_sq, "partition": [[0, 1], []], "margin": 0.0}
        assert verify_cone_separator(c, sep)[0] is False
        sep_wrong_side = dict(sep, partition=[[1], [0]])
        assert verify_cone_separator(c, sep_wrong_side)[0] is False

    def test_single_component_not_applicable(self):
        entry = cone_check(gen.circle_contour(1.0, 64))
        assert entry.verdict == VERDICT_NOT_APPLICABLE

    def test_linked_circles_have_no_split(self):
        # linked curves overlap in projection along every axis, so no
        # threshold split exists and no apex is ever solved
        a = gen.circle_contour(1.0, 64).components[0]
        b = gen.circle_contour(1.0, 64, center=(1.0, 0, 0), normal=(0, 1, 0)).components[0]
        entry = cone_check(Contour([a, b]))
        assert entry.verdict == VERDICT_NO_CERTIFICATE
        assert entry.margin is None

    def test_bad_budget(self, antipodal_microcircles):
        with pytest.raises(ValueError):
            cone_check(antipodal_microcircles, search_budget=0)


def _near_threshold_contours():
    """Contours whose cone margin is a few percent of the diameter, 128-gons."""
    s35, c35 = np.sin(np.radians(35.0)), np.cos(np.radians(35.0))

    def circles(*specs):
        return Contour([gen.circle_contour(r, 128, center, normal).components[0]
                        for r, center, normal in specs])

    return {
        "coaxial-0.7": gen.coaxial_circles_contour(1.0, 0.7, 128),
        "tilted-0.72": circles((1.0, (0, 0, 0.72), (s35, 0, c35)),
                               (0.6, (0.3, 0.2, -0.72), (0, s35, c35))),
        "three-0.62": circles((1.0, (0, 0, 0.62), (0, 0, 1)),
                              (0.3, (0.5, 0, -0.62), (1, 0, 1)),
                              (0.3, (-0.5, 0.1, -0.62), (0, 1, 1))),
    }


class TestConeNearThreshold:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["coaxial-0.7", "tilted-0.72", "three-0.62"])
    def test_certified_under_rigid_motion(self, name, seed):
        c = _near_threshold_contours()[name]
        if seed:
            rot = random_rotation(seed)
            c = Contour([comp @ rot.T + 3.0 for comp in c.components])
        entry = cone_check(c)
        assert entry.verdict == VERDICT_CERTIFIED
        ok, worst = verify_cone_separator(c, entry.certificate)
        assert ok and worst > 0
        assert entry.margin == worst / contour_diameter(c)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["coaxial-0.7", "tilted-0.72", "three-0.62"])
    def test_lazy_splits_are_a_prefix_of_the_eager_list(self, monkeypatch, name, seed):
        from curvebound import criteria

        c = _near_threshold_contours()[name]
        if seed:
            rot = random_rotation(seed)
            c = Contour([comp @ rot.T + 3.0 for comp in c.components])
        built, real = [], criteria._ConeSearch.splits

        def recording_splits(search, u):
            q, split = real(search, u)
            eager = eager_cone_splits(search, u)
            assert np.array_equal(q, [e[0] for e in eager])
            taken = []

            def checked_split(k):
                assert k == len(taken)  # consumed in order: a prefix
                upper, ends = split(k)
                taken.append(k)
                built.append(k)
                assert np.array_equal(upper, eager[k][1]) and np.array_equal(ends, eager[k][2])
                return upper, ends

            return q, checked_split

        monkeypatch.setattr(criteria._ConeSearch, "splits", recording_splits)
        assert cone_check(c).verdict == VERDICT_CERTIFIED
        assert built

    def test_below_threshold_no_certificate(self):
        # coaxial unit circles certify only for half gaps above 1/sinh(tau) ~ 0.663
        entry = cone_check(gen.coaxial_circles_contour(1.0, 0.6, 128))
        assert entry.verdict == VERDICT_NO_CERTIFICATE
        assert entry.margin < 0


def _polygon_lp(search, u, upper):
    """The full polygon LP of an apex solve: rows (points x 32 sides), written afresh.

    Variables are the apex along u, e1, e2 and the slack t; the row of point p
    and side n reads sz*(u.p - a_u) - n.(P_u p - a_e) >= t, with sz = +-s
    by the nappe of p's component.
    """
    from curvebound.criteria import _SIDES, _frame

    angle = 2.0 * np.pi * np.arange(_SIDES) / _SIDES
    normals = np.column_stack([np.cos(angle), np.sin(angle)]) / np.cos(np.pi / _SIDES)
    sz = np.repeat(np.where(np.isin(np.arange(len(search.counts)), upper), search.s,
                            -search.s), search.counts)
    b = (sz * (search.pts @ u))[:, None] - search.pts @ _frame(u).T @ normals.T
    a = np.column_stack([np.repeat(sz, _SIDES), np.tile(-normals, (len(sz), 1)),
                         np.ones(b.size)])
    return a, b.ravel()


class TestConeLPConvergence:
    """Constraint generation ends at a solution of the full 32-gon LP."""

    @staticmethod
    def _record(monkeypatch):
        """Wrap linprog and the apex search; returns the list of finished apex solves."""
        import scipy.optimize

        from curvebound import criteria

        solves, finished = [], []
        linprog, apex = scipy.optimize.linprog, criteria._ConeSearch.apex

        def recording_linprog(*args, **kwargs):
            solves.append(linprog(*args, **kwargs))
            return solves[-1]

        def recording_apex(search, u, upper, seed):
            before = len(solves)
            found = apex(search, u, upper, seed)
            last = solves[-1] if len(solves) > before else None
            if search.budget > 0 and last is not None and last.status == 0:
                finished.append((search, u, upper, last.x, found))
            return found

        monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
        monkeypatch.setattr(criteria._ConeSearch, "apex", recording_apex)
        return finished

    @staticmethod
    def _check(finished):
        from scipy.optimize import linprog

        assert finished
        for search, u, upper, x, _ in finished:
            a, b = _polygon_lp(search, u, upper)
            assert (b - a @ x).min() >= -1e-9  # no row of any point violated
        # the best apex also solves the LP over every point and side at once
        search, u, upper, x, _ = max(finished, key=lambda f: f[4][0])
        a, b = _polygon_lp(search, u, upper)
        full = linprog([0.0, 0.0, 0.0, -1.0], A_ub=a, b_ub=b, bounds=(None, None),
                       method="highs")
        assert full.status == 0
        assert abs(full.x[3] - x[3]) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["coaxial-0.7", "tilted-0.72", "three-0.62"])
    def test_near_threshold(self, monkeypatch, name, seed):
        c = _near_threshold_contours()[name]
        if seed:
            rot = random_rotation(seed)
            c = Contour([comp @ rot.T + 3.0 for comp in c.components])
        finished = self._record(monkeypatch)
        assert cone_check(c).verdict == VERDICT_CERTIFIED
        self._check(finished)

    def test_tilted_coaxial_2048_gons(self, monkeypatch):
        c = gen.coaxial_circles_contour(1.0, 2.0, 2048)
        c = Contour([comp @ random_rotation(2).T + 0.5 for comp in c.components])
        finished = self._record(monkeypatch)
        assert cone_check(c, search_budget=2000).verdict == VERDICT_CERTIFIED
        self._check(finished)


class TestPerturbationProbes:
    def test_diameter_length_stable_under_far_tiny_circle(self, antipodal_microcircles):
        # adding a tiny circle far away raises d by much more than 8x its
        # length, so the certificate must survive
        base = diameter_length_check(antipodal_microcircles)
        assert base.verdict == VERDICT_CERTIFIED
        tiny = gen.circle_contour(1e-4, 16, center=(10.0, 0, 0)).components[0]
        enlarged = Contour(list(antipodal_microcircles.components) + [tiny])
        grown = diameter_length_check(enlarged)
        assert grown.verdict == VERDICT_CERTIFIED
        assert grown.margin > base.margin

    def test_white_flips_with_midway_tiny_circle(self):
        gam = gen.sphere_circles(gen.antipodal_point_set(), 0.4, segments=90)
        assert white_check(gam).verdict == VERDICT_CERTIFIED
        # a tiny circle halfway between the groups halves the bottleneck
        tiny = gen.circle_contour(1e-4, 16, center=(1.0, 0, 0),
                                  normal=(1, 0, 0)).components[0]
        perturbed = Contour(list(gam.components) + [tiny])
        assert contour_total_length_delta(gam, perturbed) <= 1e-3
        assert white_check(perturbed).verdict == VERDICT_NOT_TRIGGERED


def contour_total_length_delta(a, b):
    from curvebound.contour import contour_length

    return abs(contour_length(b) - contour_length(a))


class TestAnalyze:
    def test_diameter_computed_once(self, monkeypatch, antipodal_microcircles):
        import curvebound.mesh

        calls = []
        real = curvebound.mesh.extrinsic_diameter
        monkeypatch.setattr(curvebound.mesh, "extrinsic_diameter",
                            lambda pts: calls.append(len(pts)) or real(pts))
        c = Contour(antipodal_microcircles.components)
        report = analyze(c, search_budget=500)
        assert calls == [len(c.all_points())]
        assert report["diameter"] == real(c.all_points())

    def test_stadium_everything_silent(self, capsys, tmp_path):
        path = tmp_path / "stadium.contour.json"
        save_contour(gen.stadium_contour(10.0, 1.0), path)
        code = main(["check-contour", str(path), "--mode", "conjectural", "--budget", "500"])
        assert code == 0  # no criterion certified
        table = capsys.readouterr().out
        assert "not-triggered" in table

    def test_antipodal_all_three_fire(self, antipodal_microcircles):
        # two far-apart micro-circles: the catenoid-pinching configuration is
        # caught by every criterion, cone included
        report = analyze(antipodal_microcircles)
        verdicts = {e["name"]: e["verdict"] for e in report["criteria"]}
        assert verdicts["diameter-length[proven]"] == VERDICT_CERTIFIED
        assert verdicts["white"] == VERDICT_CERTIFIED
        assert verdicts["cone"] == VERDICT_CERTIFIED
        assert report["certified_any"]

    def test_dense_net_defeats_the_cone(self):
        # many circles spread over the whole sphere cannot sit inside the two
        # nappes of any congruent cone; white and diameter-length also stay
        # silent at this scale, so nothing is certified
        net = gen.fibonacci_net(0.04)
        gam = gen.sphere_circles(net, 0.01, segments=16)
        entry = cone_check(gam, search_budget=3000)
        assert entry.verdict == VERDICT_NO_CERTIFICATE

    def test_disagreement_is_flagged(self, capsys, tmp_path):
        # white certified but cone not applicable scenarios produce a note
        net = gen.fibonacci_net(0.2)
        path = tmp_path / "net.contour.json"
        save_contour(gen.sphere_circles(net, 0.2**2.5, segments=16), path)
        code = main(["check-contour", str(path), "--budget", "500"])
        assert "criteria disagree" in capsys.readouterr().out or code == 0
