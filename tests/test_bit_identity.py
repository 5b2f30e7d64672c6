"""Pinned digests of the triangle-geometry outputs, the report, stdout and CSV
of two audit runs (one of them the default audit), and four contour reports.

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

from conftest import random_rotation
from curvebound import generators as gen
from curvebound.audit import _triangle_gradients_l1, m_kappa, probe_function_library
from curvebound.cli import main
from curvebound.contour import Contour, save_contour
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
        "gradients": _triangle_gradients_l1(
            mesh, [f for _, f in probe_function_library(mesh, seed=0)]),
        "m_kappa": [[r["m"], r["kappa"]] for r in dichotomy],
    }


@pytest.mark.parametrize("name", sorted(MESHES))
def test_outputs_match_pinned_digests(name):
    got = {key: _digest(values) for key, values in _outputs(MESHES[name]()).items()}
    assert got == DIGESTS[name]


# sha256 of what ``audit --seed 1 --probes 5 --json J --csv C`` writes, on the closed
# library: the JSON report, stdout and the CSV
AUDIT_SEED1_PROBES5 = "c342f149684eba5bc4e9703becb620bc55cd9e7113d65975126e4d423236bc33"
AUDIT_SEED1_PROBES5_STDOUT = "6ecaae9c131e464d61ddbc28674f61b9d82b329d348bbafce004033f2fdf1d75"
AUDIT_SEED1_PROBES5_CSV = "e7b79e1b691a47e722d61835e5986fe76e9ee4385fcc46dc62ee450430076d20"
# the same three for ``audit --seed 0 --json J --csv C``: the default 20 probes per
# shape, 80 dichotomy probes in all
AUDIT_SEED0_DEFAULT = "bb4a7e27e42e5961c88448d92b4cecc524cad5580f3e595e2277ff332889b46d"
AUDIT_SEED0_DEFAULT_STDOUT = "729f4f345f71c05501437bc587dd62559cf3a9c2a5dca5c090af9594a9022488"
AUDIT_SEED0_DEFAULT_CSV = "11e3dd1b85a21ef89e74e069516969cc9c186cc200b57db00dc75178a0984b49"


def _audit_digests(argv, tmp_path, capsys):
    """sha256 of the JSON report, stdout and CSV that ``argv + audit --json J --csv C`` writes."""
    report, table = tmp_path / "audit.json", tmp_path / "audit.csv"
    assert main(argv + ["--json", str(report), "--csv", str(table)]) == 0
    stdout = capsys.readouterr().out
    return tuple(hashlib.sha256(data).hexdigest()
                 for data in (report.read_bytes(), stdout.encode(), table.read_bytes()))


def test_audit_report_matches_pinned_digest(tmp_path, capsys):
    assert _audit_digests(["--seed", "1", "audit", "--probes", "5"], tmp_path, capsys) == (
        AUDIT_SEED1_PROBES5, AUDIT_SEED1_PROBES5_STDOUT, AUDIT_SEED1_PROBES5_CSV)


def test_default_audit_matches_pinned_digest(tmp_path, capsys):
    assert _audit_digests(["--seed", "0", "audit"], tmp_path, capsys) == (
        AUDIT_SEED0_DEFAULT, AUDIT_SEED0_DEFAULT_STDOUT, AUDIT_SEED0_DEFAULT_CSV)


# sha256 of the report that ``check-contour --json`` writes (default budget): on two
# contours whose cone search certifies, on the epsilon = 0.1 net, where only the
# diameter-length criterion could, and on coaxial 2048-gons under a fixed rotation,
# whose diameter and White kernels prune by geometry, not by the input's axes.
# coaxial_gap2, antipodal and coaxial2048_rotated were re-pinned when the apex LP
# moved from HiGHS to the search's own dual simplex: only the cone's apex and the
# last digits of its margins moved, and every CONTOUR_STDOUT digest held
CONTOUR_REPORTS = {
    "coaxial_gap2": "539a8d34b88a12e4f83321ae5d3714186d4d5d03945eff5dd058299e2712841d",
    "antipodal": "712794e673798a7c887719b071cce995f9d76821a1c2f3494664f8ad92886296",
    "net_eps0.1": "743fe32826354fb87792bbe4411d1a6c87cb56a530bb2f9d6fde462af330accf",
    "coaxial2048_rotated": "6aef04a02ce4ada83dddd6669ddb546b6d191b0d6f4fe9734fea7403de42a3c1",
}
# sha256 of the table that the same run prints; coaxial_gap2's ends with the
# "criteria disagree" note
CONTOUR_STDOUT = {
    "coaxial_gap2": "6a462663ac0ee5faecc46656e729433c52ef79f6a8f524322c824a23c5b05540",
    "antipodal": "ddc0dc1683a6190a798db73df63c4f5ca73e6a02516899559b8ead8dd32afac8",
    "net_eps0.1": "132e813caaab5799ec77b73352745b4316026d70e5e3c49afbd80df9ce56e5ce",
    "coaxial2048_rotated": "026a6dadaeaf4e15997f9daf2d8006b2af2c058f96234a22432c0fa48d34c596",
}


def _rotated_coaxial_2048():
    q = random_rotation(7)
    return Contour([c @ q.T for c in gen.coaxial_circles_contour(1.0, 2.0, 2048).components])


CONTOURS = {  # builder and the exit code of check-contour
    "coaxial_gap2": (lambda: gen.coaxial_circles_contour(1.0, 2.0, segments=180), 2),
    "antipodal": (lambda: gen.sphere_circles(gen.antipodal_point_set(), 0.01, segments=64), 2),
    "net_eps0.1": (lambda: gen.sphere_circles(gen.fibonacci_net(0.1), 0.1**2.5, segments=16), 0),
    "coaxial2048_rotated": (_rotated_coaxial_2048, 2),
}


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_contour_report_matches_pinned_digest(name, tmp_path, capsys):
    build, exit_code = CONTOURS[name]
    save_contour(build(), tmp_path / "in.contour.json")
    report = tmp_path / "report.json"
    assert main(["check-contour", str(tmp_path / "in.contour.json"), "--json",
                 str(report)]) == exit_code
    stdout = capsys.readouterr().out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CONTOUR_REPORTS[name]
    assert hashlib.sha256(stdout.encode()).hexdigest() == CONTOUR_STDOUT[name]
