"""Pinned digests of the triangle-geometry outputs, one audit run's report,
stdout and CSV, and two contour reports.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (the versions the
CI workflow pins). A change to how areas, cotangents, Voronoi weights,
gradients, ball integrals or the intrinsic diameter are computed that moves
any bit of these outputs fails here, even when every tolerance-based test
still passes; so does a change to the cone search or to how its certificate
is written.
"""

import hashlib

import numpy as np
import pytest

from curvebound import generators as gen
from curvebound.audit import _triangle_gradients_l1, m_kappa, probe_function_library
from curvebound.cli import main
from curvebound.contour import save_contour
from curvebound.curvature import mean_curvature_field
from curvebound.mesh import SurfaceMesh


def _curved_disk_r4():
    """A polar disk lifted to a curved graph in R^4."""
    disk = gen.flat_disk(1.0, 8, 32)
    x, y = disk.vertices[:, 0], disk.vertices[:, 1]
    return SurfaceMesh(np.column_stack([x, y, 0.3 * x * y, 0.2 * (x * x - y * y)]),
                       disk.triangles)


MESHES = {
    "icosphere3": lambda: gen.icosphere(3),
    "capped_cylinder_0.5_4": lambda: gen.capped_cylinder(0.5, 4.0, segments=48,
                                                         rings_cap=10),
    "curved_disk_r4": _curved_disk_r4,
}

DIGESTS = {
    "icosphere3": {
        "areas": "f32aa953dc714ee6c433b7c5daef33eb",
        "vectors": "94c6ec54013ebe1124ab84976f5bf5ab",
        "voronoi": "c3bd6660dcfed4a7a60dd7e71d538680",
        "gradients": "7a9a4479fd016abab3388b590c9301da",
        "m_kappa": "4d8707d5cbf2b4bd120b990d01a79968",
    },
    "capped_cylinder_0.5_4": {
        "areas": "f91564ed005494277294b129c172bee4",
        "vectors": "92c295f9d1a4a3e92b7dc85d13919bf1",
        "voronoi": "4b887fe372e29df6f2ffbb4324f50078",
        "gradients": "b85d40ba73d80aa392b7794373760f47",
        "m_kappa": "d37995461fab3ca9acc073e3c7874651",
    },
    "curved_disk_r4": {
        "areas": "6ef95d354557755daed10899e9e2b72c",
        "vectors": "213fb8b84eae2d3751faf6f587038a38",
        "voronoi": "758f9e73fb34851c108e95df87194df8",
        "gradients": "f2d3d91aab91dfcdc7fe59795b173182",
        "m_kappa": "c239647b4ef3f13d63eb78031730a0cd",
    },
}


def _digest(values):
    return hashlib.blake2b(np.ascontiguousarray(values, dtype=float).tobytes(),
                           digest_size=16).hexdigest()


def _outputs(mesh):
    field = mean_curvature_field(mesh)
    radius = 0.5 * float(np.linalg.norm(mesh.vertices.max(axis=0)
                                        - mesh.vertices.min(axis=0)))
    dichotomy = [m_kappa(mesh, p, radius) for p in (0, mesh.n_vertices // 2)]
    return {
        "areas": mesh.triangle_areas(),
        "vectors": field.vectors,
        "voronoi": field.areas,
        "gradients": [_triangle_gradients_l1(mesh, f)
                      for _, f in probe_function_library(mesh, seed=0)],
        "m_kappa": [[r["m"], r["kappa"]] for r in dichotomy],
    }


@pytest.mark.parametrize("name", sorted(MESHES))
def test_outputs_match_pinned_digests(name):
    got = {key: _digest(values) for key, values in _outputs(MESHES[name]()).items()}
    assert got == DIGESTS[name]


# sha256 of what ``audit --seed 1 --probes 5 --json J --csv C`` writes, on the closed
# library: the JSON report, stdout and the CSV
AUDIT_SEED1_PROBES5 = "fc9473e9095238ef43993175a6e34fb957dc93fedb451809be01fd296b8c3611"
AUDIT_SEED1_PROBES5_STDOUT = "89da12e864e79141ea0f7c66b8cecf94d2e2e8195b546049cb8b28d1fe0e2b33"
AUDIT_SEED1_PROBES5_CSV = "c608897ca73b62bfb6655814dd8fb609eec714c6444b817e4db2c6a3663b0f8c"


def test_audit_report_matches_pinned_digest(tmp_path, capsys):
    report, table = tmp_path / "audit.json", tmp_path / "audit.csv"
    assert main(["--seed", "1", "audit", "--probes", "5", "--json", str(report),
                 "--csv", str(table)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == AUDIT_SEED1_PROBES5
    assert hashlib.sha256(stdout.encode()).hexdigest() == AUDIT_SEED1_PROBES5_STDOUT
    assert hashlib.sha256(table.read_bytes()).hexdigest() == AUDIT_SEED1_PROBES5_CSV


# sha256 of the report that ``check-contour --json`` writes (default budget), on two
# contours whose cone search certifies
CONTOUR_REPORTS = {
    "coaxial_gap2": "525de86eba77cf089bc01b8ead1a2b71f73310daf257656c9a77d1ee6898d559",
    "antipodal": "368d7fea174a8dbf5b15e0a37ae8674062564ab6abee05407e155ac655b55a59",
}
# sha256 of the table that the same run prints; coaxial_gap2's ends with the
# "criteria disagree" note
CONTOUR_STDOUT = {
    "coaxial_gap2": "6a462663ac0ee5faecc46656e729433c52ef79f6a8f524322c824a23c5b05540",
    "antipodal": "ddc0dc1683a6190a798db73df63c4f5ca73e6a02516899559b8ead8dd32afac8",
}
CONTOURS = {
    "coaxial_gap2": lambda: gen.coaxial_circles_contour(1.0, 2.0, segments=180),
    "antipodal": lambda: gen.sphere_circles(gen.antipodal_point_set(), 0.01, segments=64),
}


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_contour_report_matches_pinned_digest(name, tmp_path, capsys):
    save_contour(CONTOURS[name](), tmp_path / "in.contour.json")
    report = tmp_path / "report.json"
    assert main(["check-contour", str(tmp_path / "in.contour.json"), "--json", str(report)]) == 2
    stdout = capsys.readouterr().out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CONTOUR_REPORTS[name]
    assert hashlib.sha256(stdout.encode()).hexdigest() == CONTOUR_STDOUT[name]
