"""Command-line front end.

Subcommands: verify-bound, double, teardrop, check-contour, gen, audit.
All floating output is printed at 12 significant digits; identical
configuration and seed produce byte-identical reports.
Exit codes: 0 analysis ran (and ``--help``), 2 at least one criterion
certified nonexistence (check-contour only), 1 bad input or usage, with
nothing on stdout. Every output file is written before the first line is
printed, so an output path that cannot be written exits 1 too; double
writes every double of --out-dir or none. A contour
whose components touch or cross is bad input, and so is an invalid mesh, a
disconnected one given to verify-bound or double, or a k outside [1, K_MAX]
(double checks its whole list before it builds or writes a double).
"""

import argparse
import contextlib
import csv
import functools
import inspect
import json
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import criteria as criteria_mod
from . import doubling as doubling_mod
from . import generators as gen_mod
from . import teardrop as teardrop_mod
from .contour import Contour, ContourError, load_contour, save_contour
from .curvature import total_mean_curvature
from .mesh import (MeshError, boundary_length, extrinsic_diameter, load_mesh,
                   save_mesh, validate)

FLOAT_FMT = "%.12g"


def _fmt(x):
    return FLOAT_FMT % x


def _print(line=""):
    sys.stdout.write(line + "\n")


def cmd_verify_bound(args):
    mesh = load_mesh(args.mesh)
    report = validate(mesh)
    if not report.is_valid:
        raise MeshError(str(report))
    if not report.connected:
        raise MeshError("mesh is not connected; the diameter bound applies to connected "
                        "surfaces")
    d = extrinsic_diameter(mesh.vertices)
    curv = total_mean_curvature(mesh)
    blen = boundary_length(mesh)
    n = mesh.dimension
    lines = [f"mesh: {args.mesh}", f"dimension = {n}, closed = {report.closed}",
             f"d = {_fmt(d)}", f"int|H| = {_fmt(curv)}", f"boundary length = {_fmt(blen)}"]
    doc = {"mesh": str(args.mesh), "dimension": n, "closed": report.closed,
           "diameter": d, "total_mean_curvature": curv, "boundary_length": blen,
           "modes": {}}
    # Topping's closed bound int|H|/ct on a closed mesh; the bound with boundary doubles int|H|
    factor, formula = (1.0, "int|H|") if report.closed else (2.0, "(2*int|H| + (pi/2)*l)")
    for mode in ("proven", "conjectural"):
        ct = audit_mod.ct_constants(n, conjectural=(mode == "conjectural"))
        rhs = (factor * curv + (np.pi / 2.0) * blen) / ct
        margin = rhs - d
        ok = d <= rhs
        tag = "" if mode == "proven" else " (conjectural constant, NOT a proof)"
        lines.append(f"[{mode}] bound = {formula}/{_fmt(ct)} = {_fmt(rhs)}; "
                     f"d <= bound: {ok}, margin = {_fmt(margin)}{tag}")
        doc["modes"][mode] = {"constant": ct, "bound": rhs, "holds": ok,
                              "margin": margin}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    _print("\n".join(lines))
    return 0


def cmd_double(args):
    mesh = load_mesh(args.mesh)
    k_list = [int(tok) for tok in args.k_list.split(",")]
    header = ["k", "epsilon", "sigma_curvature", "sigma_diameter",
              "target_curvature", "target_diameter", "curvature_error",
              "diameter_error"]
    table, staged = [], []  # (temporary, final) paths of the exported files
    made = args.out_dir and not os.path.isdir(args.out_dir)
    try:
        # export each double with its row instead of building it again afterwards,
        # under a temporary name until the last double has validated; the
        # directory is made once the mesh and every k have passed their checks
        for r, dbl in doubling_mod.convergence_rows(mesh, k_list):
            table.append([str(r["k"])] + [_fmt(r[h]) for h in header[1:]])
            if args.out_dir:
                os.makedirs(args.out_dir, exist_ok=True)
                name = f"double_k{r['k']}"
                staged += [(os.path.join(args.out_dir, f".{name}{ext}"),
                            os.path.join(args.out_dir, name + ext))
                           for ext in (".mesh.json", ".provenance.json")]
                save_mesh(dbl.sigma, staged[-2][0])
                with open(staged[-1][0], "w") as fh:
                    json.dump({label: [int(a), int(b)] for label, (a, b) in
                               dbl.provenance.items()}, fh, indent=1, sort_keys=True)
            del dbl  # one double alive: convergence_rows builds the next with this one freed
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                csv.writer(fh).writerows([header] + table)
        for temporary, final in staged:
            os.replace(temporary, final)
    except BaseException:  # every file or none: drop what was staged, then re-raise
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(args.out_dir)
        raise
    lines = [" ".join(line) for line in [header] + table]
    if args.out_dir:
        lines.append(f"doubled meshes written to {args.out_dir}")
    _print("\n".join(lines))
    return 0


def cmd_teardrop(args):
    # build every profile before printing, so a bad k leaves stdout empty
    curves = [teardrop_mod.build_sweep_profile(int(tok)) for tok in args.k.split(",")]
    lines = ["k length total_abs_curvature deviation_from_pi max_radius"]
    for curve in curves:
        turn = curve.turning()
        lines.append(" ".join([str(curve.k), _fmt(curve.total_length), _fmt(turn),
                               _fmt(abs(turn - np.pi)), _fmt(curve.max_radius())]))
        if args.export:
            os.makedirs(args.export, exist_ok=True)
            teardrop_mod.save_teardrop(
                curve, os.path.join(args.export, f"teardrop_k{curve.k}.txt"))
    _print("\n".join(lines))
    return 0


def cmd_check_contour(args):
    contour = load_contour(args.contour)
    doc = criteria_mod.analyze(contour, mode=args.mode, search_budget=args.budget)
    lines = [f"contour: {doc['n_components']} component(s), "
             f"d = {doc['diameter']:.12g}, length = {doc['length']:.12g}",
             f"{'criterion':<18} {'verdict':<26} {'margin':<22} notes"]
    for e in doc["criteria"]:
        margin = "-" if e["margin"] is None else f"{e['margin']:.12g}"
        lines.append(f"{e['name']:<18} {e['verdict']:<26} {margin:<22} {e['notes']}")
    if len({e["verdict"] for e in doc["criteria"]} - {criteria_mod.VERDICT_NOT_APPLICABLE}) > 1:
        lines.append("note: criteria disagree on this contour; they are "
                     "qualitatively independent and this is expected for some families.")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    _print("\n".join(lines))
    return 2 if doc["certified_any"] else 0


def _parse_params(tokens):
    params = {}
    for tok in tokens or []:
        if "=" not in tok:
            raise ValueError(f"--param expects name=value, got '{tok}'")
        key, val = tok.split("=", 1)
        name = key.replace("-", "_")
        try:
            params[name] = int(val)
        except ValueError:
            try:
                params[name] = float(val)
            except ValueError:
                raise ValueError(f"{name} must be a number, got '{val}'") from None
    return params


def cmd_gen(args):
    params = _parse_params(args.param)
    accepted = {"net": ["epsilon", "radius", "segments", "max_points"],
                "sphere-circles": ["radius", "segments"]}.get(args.name)
    if accepted is None and args.name in gen_mod.SHAPE_BUILDERS:
        # scalar parameters only: a number for a point or a direction would break
        accepted = [name for name, p in inspect.signature(
                        gen_mod.SHAPE_BUILDERS[args.name]).parameters.items()
                    if p.default is None or isinstance(p.default, (int, float))]
    unknown = sorted(set(params) - set(accepted)) if accepted is not None else []
    if unknown:
        raise ValueError(f"'{args.name}' takes no parameter {', '.join(unknown)} "
                         f"(accepted: {', '.join(sorted(accepted))})")
    if args.name == "net":
        eps = params.pop("epsilon", 0.1)
        radius = params.pop("radius", None)
        segments = params.pop("segments", 32)
        # the contour is built before the net line is printed, so a failure
        # leaves stdout empty
        net = gen_mod.fibonacci_net(eps, **params)
        if radius is None:
            radius = eps ** 2.5
        obj = gen_mod.sphere_circles(net, radius, segments=segments)
        _print(f"net: {len(net)} points, covering = {_fmt(net.covering_radius)}, "
               f"packing = {_fmt(net.packing_radius)}")
    elif args.name == "sphere-circles":
        radius = params.pop("radius", 0.1)
        segments = params.pop("segments", 64)
        obj = gen_mod.sphere_circles(gen_mod.antipodal_point_set(), radius,
                                     segments=segments)
    else:
        obj = gen_mod.shape_library(args.name, **params)
    if isinstance(obj, Contour):
        save_contour(obj, args.out)
        _print(f"contour with {obj.n_components} component(s) -> {args.out}")
    else:
        rep = validate(obj)
        if not rep.is_valid:
            raise MeshError(str(rep))
        save_mesh(obj, args.out)
        _print(f"mesh with {obj.n_vertices} vertices -> {args.out}")
    return 0


def cmd_audit(args):
    shapes = None
    if args.quick:
        library = gen_mod.closed_library_meshes()
        shapes = {name: library[name] for name in ("icosphere3", "capped_cylinder_0.5_4")}
    doc = audit_mod.run_audit(shapes=shapes, probes_per_shape=args.probes, seed=args.seed)
    lines = ["identity: coefficient = " + _fmt(doc["identity"]["coefficient"])
             + ", perturbed(pi/3) = " + _fmt(doc["identity"]["perturbed_coefficient"])
             + ", holds = " + str(doc["identity"]["holds"])]
    for shape, recs in doc["michael_simon"].items():
        worst = min(r["margin"] for r in recs)
        lines.append(f"michael-simon {shape}: {len(recs)} test functions, "
                     f"all hold = {all(r['holds'] for r in recs)}, "
                     f"worst margin = {_fmt(worst)}")
    for shape, recs in doc["dichotomy"].items():
        worst = min(max(r["m"], r["kappa"]) for r in recs)
        lines.append(f"dichotomy {shape}: {len(recs)} probes, "
                     f"all hold = {all(r['holds'] for r in recs)}, "
                     f"min max(m,kappa) = {_fmt(worst)} > pi/4 = {_fmt(np.pi / 4)}")
    for shape, rec in doc["covering"].items():
        lines.append(f"covering {shape}: d_int in [{_fmt(rec['d_int'])}, "
                     f"{_fmt(rec['d_int_upper'])}], "
                     f"upper <= bound = {_fmt(rec['bound'])}: {rec['holds']}, "
                     f"curvature/d_int in [{_fmt(rec['ratio_lower'])}, "
                     f"{_fmt(rec['ratio_upper'])}]")
    lines.append(f"audit all hold: {doc['all_hold']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["check", "shape", "item", "value", "threshold", "holds"])
            for shape, recs in doc["michael_simon"].items():
                for r in recs:
                    w.writerow(["michael_simon", shape, r["f"], _fmt(r["lhs"]),
                                _fmt(r["rhs"]), r["holds"]])
            for shape, recs in doc["dichotomy"].items():
                for r in recs:
                    w.writerow(["dichotomy", shape, r["probe"],
                                _fmt(max(r["m"], r["kappa"])),
                                _fmt(np.pi / 4), r["holds"]])
            for shape, rec in doc["covering"].items():
                w.writerow(["covering", shape, "d_int_upper", _fmt(rec["d_int_upper"]),
                            _fmt(rec["bound"]), rec["holds"]])
    _print("\n".join(lines))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvebound",
        description="Diameter bounds for compact surfaces and nonexistence "
                    "checks for Plateau-Douglas boundary contours.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized pieces (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bound", help="diameter bound report for a mesh")
    p.add_argument("mesh")
    p.add_argument("--json", help="write the report as JSON")

    p = sub.add_parser("double", help="close a mesh with boundary and tabulate convergence")
    p.add_argument("mesh")
    p.add_argument("--k-list", default="10,25,50")
    p.add_argument("--csv", help="write the convergence table as CSV")
    p.add_argument("--out-dir", help="export the doubled meshes and provenance here")

    p = sub.add_parser("teardrop", help="the swept teardrop profiles and their total curvature")
    p.add_argument("--k", default="10,100,1000")
    p.add_argument("--export", help="write the profiles' 's x y' samples here")

    p = sub.add_parser("check-contour", help="run the nonexistence criteria")
    p.add_argument("contour")
    p.add_argument("--mode", choices=("proven", "conjectural"), default="proven")
    p.add_argument("--budget", type=int, default=20000,
                   help="cone search budget (LP rounds)")
    p.add_argument("--json", help="write the report as JSON")

    p = sub.add_parser("gen", help="generate library shapes, contours and nets")
    p.add_argument("name", help="disk|icosphere|hemisphere|capped-cylinder|"
                                "open-cylinder|square|circle|stadium|"
                                "coaxial-circles|sphere-circles|net")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="builder parameter, repeatable")
    p.add_argument("--out", required=True)

    p = sub.add_parser("audit", help="inequality verification suite")
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--quick", action="store_true", help="small shape set")
    p.add_argument("--json", help="write the report as JSON")
    p.add_argument("--csv", help="write a flat CSV of every check")
    return parser


@functools.cache
def _parser():
    return build_parser()  # one per process: parse_args leaves it as it was


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error 2 would read as "certified"
        return 1 if exc.code else 0
    # looked up on each call, so a command rebound in this module runs as bound
    commands = {"verify-bound": cmd_verify_bound, "double": cmd_double,
                "teardrop": cmd_teardrop, "check-contour": cmd_check_contour,
                "gen": cmd_gen, "audit": cmd_audit}
    try:
        return commands[args.command](args)
    except (MeshError, ContourError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
