"""The three workloads: their inputs, their commands and their output checks.

Each workload drives README workflows through ``curvebound.cli.main`` with
paths relative to its work directory, so reports (which echo input paths)
are comparable between runs. Seed 0 uses the canonical shapes untouched;
seed s > 0 moves every generated mesh and contour by a seeded rigid motion
(R^4 included) and passes ``--seed s`` to ``audit``. Verdicts and every
check below are invariant under rigid motion, so a check that fails on one
seed is a defect, not noise.

Sizes are chosen so that one pass takes a few seconds on two cores while
every code path the workload is meant to exercise still runs:

- doubling: small flat disks and a short open cylinder. The tubes, not the
  input mesh, dominate the doubles (12,000 to 18,000 triangles each), so
  ``validate``, ``build_double`` (twice per k because of ``--out-dir``),
  the extrinsic diameter and the mesh JSON writer keep their shares.
- contour: the canonical epsilon = 0.1 net (709 circles x 16 segments,
  above the 600-component White path and the 4,096-point hull prefilter),
  the coaxial circles at half_gap 2 (2,048 segments each) and 0.1, the
  antipodal micro-circles and the stadium. The cone search budget is 2,000
  evaluations instead of 20,000, which still exhausts the search on the
  half_gap 0.1 circles and still certifies the half_gap 2 and antipodal
  circles under every rigid motion tried.
- audit: the full closed shape library built inside ``run_audit``,
  including the exact covering check on 3,842 Dijkstra sources and the
  sampled one on the 14,530-vertex cylinder, with 5 probes per shape.
"""

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

CERT = "nonexistence-certified"
NOT_TRIGGERED = "not-triggered"
NO_CERT = "no-certificate-found"
NOT_APPLICABLE = "not-applicable"


@dataclass(eq=False)
class Command:
    """One CLI invocation, its expected exit code and what it writes."""

    id: str
    argv: list
    expected_rc: int
    outputs: list
    check: Callable  # (command, stdout, inputs info) -> list of error strings


def rigid_motion(seed, index, dim):
    """Seeded proper rotation and translation; the identity for seed 0."""
    if seed == 0:
        return np.eye(dim), np.zeros(dim)
    rng = np.random.default_rng([seed, index])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, dim)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- doubling ----------------------------------------------------------------

K_LIST = (10, 25, 50)


class Doubling:
    def make_inputs(self, cb, seed):
        g = cb.generators
        shapes = {
            "disk": g.flat_disk(1.0, 8, 32),
            "cylinder": g.open_cylinder(1.0, 4.0, segments=24),
            "disk_r4": g.embed_in_r4(g.flat_disk(1.0, 8, 32)),
        }
        info = {}
        for index, (name, mesh) in enumerate(shapes.items()):
            q, b = rigid_motion(seed, index, mesh.dimension)
            moved = cb.mesh.SurfaceMesh(mesh.vertices @ q.T + b, mesh.triangles)
            cb.mesh.save_mesh(moved, f"in/{name}.mesh.json")
            info[name] = {"vertices": moved.vertices, "dimension": moved.dimension}
        return info

    def commands(self, seed, info):
        k_list = ",".join(map(str, K_LIST))
        cmds = []
        for name in info:
            src = f"in/{name}.mesh.json"
            cmds.append(Command(
                f"verify-bound:{name}",
                ["verify-bound", src, "--json", f"out/{name}.bound.json"],
                0, [f"out/{name}.bound.json"], self._check_bound))
            cmds.append(Command(
                f"double:{name}",
                ["double", src, "--k-list", k_list, "--csv", f"out/{name}.table.csv",
                 "--out-dir", f"out/{name}.doubles"],
                0, [f"out/{name}.table.csv", f"out/{name}.doubles"], self._check_double))
        return cmds

    @staticmethod
    def _check_bound(cmd, stdout, info):
        name = cmd.id.split(":")[1]
        doc = _read_json(cmd.outputs[0])
        errors = []
        d = oracles.diameter(info[name]["vertices"])
        if not _close(doc["diameter"], d, 1e-12):
            errors.append(f"diameter {doc['diameter']} != oracle {d}")
        if doc["dimension"] != info[name]["dimension"] or doc["closed"]:
            errors.append("wrong dimension or closedness")
        if not doc["modes"]["proven"]["holds"]:
            errors.append("proven diameter bound reported as failing")
        return errors

    @staticmethod
    def _check_double(cmd, stdout, info):
        name = cmd.id.split(":")[1]
        table, out_dir = cmd.outputs
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if [int(r["k"]) for r in rows] != list(K_LIST):
            return [f"table rows for k = {[r['k'] for r in rows]}"]
        d = oracles.diameter(info[name]["vertices"])
        curvature_errors = []
        for r in rows:
            eps, target = float(r["epsilon"]), float(r["target_diameter"])
            if not _close(target, d, 1e-10):
                errors.append(f"k={r['k']}: target diameter {target} != oracle {d}")
            if float(r["diameter_error"]) > 4.0 * eps:
                errors.append(f"k={r['k']}: diameter error above 4*epsilon")
            if float(r["sigma_diameter"]) < target * (1.0 - 1e-10):
                errors.append(f"k={r['k']}: double smaller than the surface it contains")
            curvature_errors.append(float(r["curvature_error"]))
        if any(b >= a for a, b in zip(curvature_errors, curvature_errors[1:])):
            errors.append(f"curvature error not decreasing in k: {curvature_errors}")
        for k in K_LIST:
            doc = _read_json(os.path.join(out_dir, f"double_k{k}.mesh.json"))
            prov = _read_json(os.path.join(out_dir, f"double_k{k}.provenance.json"))
            n_tri = len(doc["triangles"])
            if oracles.closed_surface_defects(doc["triangles"]):
                errors.append(f"exported double k={k} is not closed")
            spans = sorted(prov.values())
            if spans[0][0] != 0 or spans[-1][1] != n_tri or any(
                    a[1] != b[0] for a, b in zip(spans, spans[1:])):
                errors.append(f"provenance of k={k} does not tile the triangles")
        return errors


# -- contour -----------------------------------------------------------------

CONE_BUDGET = 2000

# exit code and verdicts, in CRITERIA order, that every contour must report
EXPECTED_VERDICTS = {
    "net": (0, [NOT_TRIGGERED, NOT_TRIGGERED, NO_CERT]),
    "coaxial_gap2": (2, [NOT_TRIGGERED, CERT, CERT]),
    "coaxial_gap0.1": (0, [NOT_TRIGGERED, NOT_TRIGGERED, NO_CERT]),
    "antipodal": (2, [NOT_TRIGGERED, CERT, CERT]),
    "stadium": (0, [NOT_TRIGGERED, NOT_APPLICABLE, NOT_APPLICABLE]),
}
CRITERIA = ["diameter-length[proven]", "white", "cone"]


class ContourWorkload:
    def make_inputs(self, cb, seed):
        g = cb.generators
        net = g.fibonacci_net(0.1)
        contours = {
            "net": g.sphere_circles(net, 0.1 ** 2.5, segments=16),
            "coaxial_gap2": g.coaxial_circles_contour(1.0, 2.0, 2048),
            "coaxial_gap0.1": g.coaxial_circles_contour(1.0, 0.1, 360),
            "antipodal": g.sphere_circles(g.antipodal_point_set(), 0.1, segments=64),
            "stadium": g.stadium_contour(),
        }
        info = {}
        for index, (name, c) in enumerate(contours.items()):
            q, b = rigid_motion(seed, index, 3)
            moved = cb.contour.Contour([comp @ q.T + b for comp in c.components])
            cb.contour.save_contour(moved, f"in/{name}.contour.json")
            info[name] = {"components": moved.components}
        return info

    def commands(self, seed, info):
        return [
            Command(f"check-contour:{name}",
                    ["check-contour", f"in/{name}.contour.json", "--budget",
                     str(CONE_BUDGET), "--json", f"out/{name}.report.json"],
                    EXPECTED_VERDICTS[name][0], [f"out/{name}.report.json"], self._check)
            for name in info
        ]

    @staticmethod
    def _check(cmd, stdout, info):
        name = cmd.id.split(":")[1]
        comps = info[name]["components"]
        doc = _read_json(cmd.outputs[0])
        expected = list(zip(CRITERIA, EXPECTED_VERDICTS[name][1]))
        errors = []
        reported = [(e["name"], e["verdict"]) for e in doc["criteria"]]
        if reported != expected:
            errors.append(f"verdicts {reported} != expected {expected}")
        table = [tuple(line.split()[:2]) for line in stdout.splitlines()[2:2 + len(expected)]]
        if table != expected:
            errors.append(f"verdict table {table} != expected {expected}")
        d = oracles.diameter(np.vstack(comps))
        if not _close(doc["diameter"], d, 1e-12):
            errors.append(f"diameter {doc['diameter']} != oracle {d}")
        length = oracles.closed_polyline_length(comps)
        if not _close(doc["length"], length, 1e-12):
            errors.append(f"length {doc['length']} != oracle {length}")
        for entry in doc["criteria"]:
            if entry["name"] == "cone" and entry["verdict"] == CERT:
                ok, why = oracles.cone_separates(comps, entry["certificate"])
                if not ok:
                    errors.append(f"cone certificate fails re-verification: {why}")
        return errors


# -- audit -------------------------------------------------------------------

PROBES = 5


class AuditWorkload:
    def make_inputs(self, cb, seed):
        return {}

    def commands(self, seed, info):
        argv = ["--seed", str(seed), "audit", "--probes", str(PROBES),
                "--json", "out/audit.json", "--csv", "out/audit.csv"]
        return [Command("audit", argv, 0, ["out/audit.json", "out/audit.csv"], self._check)]

    @staticmethod
    def _check(cmd, stdout, info):
        doc = _read_json(cmd.outputs[0])
        errors = []
        if doc["all_hold"] is not True or stdout.splitlines()[-1] != "audit all hold: True":
            errors.append("audit reports a failing inequality")
        if any(len(recs) != PROBES for recs in doc["dichotomy"].values()):
            errors.append("wrong number of dichotomy probes")
        with open(cmd.outputs[1], newline="") as fh:
            n_rows = sum(1 for _ in csv.reader(fh)) - 1
        expected = (sum(map(len, doc["michael_simon"].values()))
                    + sum(map(len, doc["dichotomy"].values())) + len(doc["covering"]))
        if n_rows != expected:
            errors.append(f"CSV has {n_rows} rows, report has {expected} checks")
        return errors


WORKLOADS = {
    "doubling": Doubling(),
    "contour": ContourWorkload(),
    "audit": AuditWorkload(),
}
