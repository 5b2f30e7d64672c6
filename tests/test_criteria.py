import numpy as np
import pytest

from conftest import random_rotation
from curvebound import generators as gen
from curvebound.contour import Contour, component_distance_matrix, contour_diameter
from curvebound.criteria import (VERDICT_CERTIFIED, VERDICT_NO_CERTIFICATE,
                                 VERDICT_NOT_APPLICABLE, VERDICT_NOT_TRIGGERED,
                                 ConeSeparator, analyze,
                                 bottleneck_split, cone_check,
                                 diameter_length_check, tau_root,
                                 tau_root_bisection, verify_cone_separator,
                                 white_bruteforce_oracle, white_check)


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
        value, split = bottleneck_split(d)
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
            v_mst, split = bottleneck_split(d)
            assert v_mst == white_bruteforce_oracle(d)
            # the returned split realizes the optimum
            assert d[np.ix_(split[0], split[1])].min() == v_mst

    def test_large_contour_fast_path_equivalent(self):
        net = gen.fibonacci_net(0.18)
        gam = gen.sphere_circles(net, 0.18**2.5, segments=16)
        v_full, s_full = bottleneck_split(component_distance_matrix(gam))
        entry = white_check(gam)
        assert entry.measured["best_cross_distance"] == v_full
        assert sorted(map(sorted, s_full)) == sorted(entry.certificate["partition"])

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
        sep = ConeSeparator.from_dict(entry.certificate)
        ok, worst = verify_cone_separator(c, sep)
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
        ok, worst = verify_cone_separator(c, ConeSeparator.from_dict(entry.certificate))
        assert ok
        assert entry.margin == worst / contour_diameter(c)

    def test_separator_scale_covariance(self):
        c = gen.coaxial_circles_contour(1.0, 2.0, segments=90)
        entry = cone_check(c)
        sep = ConeSeparator.from_dict(entry.certificate)
        lam = 3.0
        rot = random_rotation(4)
        shift = np.array([0.5, -1.0, 2.0])
        moved = Contour([lam * comp @ rot.T + shift for comp in c.components])
        moved_sep = ConeSeparator(
            apex=lam * rot @ sep.apex + shift, axis=rot @ sep.axis,
            tau=sep.tau, sinh_sq=sep.sinh_sq, partition=sep.partition,
            margin=sep.margin)
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
        sep = ConeSeparator(apex=np.zeros(3), axis=np.array([0.0, 0, 1]),
                            tau=tau_root().tau, sinh_sq=tau_root().sinh_sq,
                            partition=((0, 1), ()), margin=0.0)
        assert verify_cone_separator(c, sep)[0] is False
        sep_wrong_side = ConeSeparator(apex=np.zeros(3), axis=np.array([0.0, 0, 1]),
                                       tau=tau_root().tau, sinh_sq=tau_root().sinh_sq,
                                       partition=((1,), (0,)), margin=0.0)
        assert verify_cone_separator(c, sep_wrong_side)[0] is False

    def test_single_component_not_applicable(self):
        entry = cone_check(gen.circle_contour(1.0, 64))
        assert entry.verdict == VERDICT_NOT_APPLICABLE

    def test_bad_budget(self, antipodal_microcircles):
        with pytest.raises(ValueError):
            cone_check(antipodal_microcircles, search_budget=0)


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
        assert report.diameter == real(c.all_points())

    def test_stadium_everything_silent(self):
        report = analyze(gen.stadium_contour(10.0, 1.0), mode="conjectural",
                         search_budget=500)
        assert not report.certified_any
        table = report.table()
        assert "not-triggered" in table

    def test_antipodal_all_three_fire(self, antipodal_microcircles):
        # two far-apart micro-circles: the catenoid-pinching configuration is
        # caught by every criterion, cone included
        report = analyze(antipodal_microcircles)
        assert report.entry("diameter-length[proven]").certified
        assert report.entry("white").certified
        assert report.entry("cone").certified
        assert report.certified_any

    def test_dense_net_defeats_the_cone(self):
        # many circles spread over the whole sphere cannot sit inside the two
        # nappes of any congruent cone; white and diameter-length also stay
        # silent at this scale, so nothing is certified
        net = gen.fibonacci_net(0.04)
        gam = gen.sphere_circles(net, 0.01, segments=16)
        entry = cone_check(gam, search_budget=3000)
        assert entry.verdict == VERDICT_NO_CERTIFICATE

    def test_disagreement_is_flagged(self, antipodal_microcircles):
        # white certified but cone not applicable scenarios produce a note
        net = gen.fibonacci_net(0.2)
        gam = gen.sphere_circles(net, 0.2**2.5, segments=16)
        report = analyze(gam, search_budget=500)
        assert "criteria disagree" in report.table() or report.certified_any is False
