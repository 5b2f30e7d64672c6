"""Memory ceilings of the doubling, contour and audit pipelines, in bytes traced by tracemalloc.

tracemalloc counts what Python and numpy allocate, not the resident set, so
each figure is the same from run to run under one numpy release. Each
ceiling is the measured figure plus a stated margin.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph  # noqa: F401  imported here, so no ceiling counts its import

from curvebound import generators as gen
from curvebound.audit import run_audit
from curvebound.cli import main
from curvebound.contour import load_contour, save_contour
from curvebound.criteria import cone_check, white_check
from curvebound.curvature import mean_curvature_field
from curvebound.doubling import build_double
from curvebound.mesh import intrinsic_diameter, save_mesh, validate

MIB = 2**20


def traced_peak(fn):
    """Peak bytes allocated while fn() runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def cylinder():
    return gen.open_cylinder(1.0, 4.0, segments=24)


def test_curvature_field_transient():
    # 2.33 MiB measured on the 18,336-triangle double (8.2 MiB with every
    # signed edge term stacked); ceiling 3.0 MiB, +29%
    sigma = build_double(cylinder(), 10).sigma
    assert traced_peak(lambda: mean_curvature_field(sigma)) <= 3.0 * MIB


def test_double_command_peak(tmp_path, capsys):
    # 6.02 MiB measured with one double alive at a time and the edge tables'
    # boundary found by searchsorted (6.30 MiB through np.unique's inverse,
    # 15.7 MiB when the previous double and its caches outlived the next one's
    # construction); ceiling 6.15 MiB, +2%, which the inverse exceeds
    path = tmp_path / "cylinder.mesh.json"
    save_mesh(cylinder(), path)
    argv = ["double", str(path), "--k-list", "10,25,50", "--out-dir", str(tmp_path / "out")]
    peak = traced_peak(lambda: main(argv))
    assert capsys.readouterr().out.endswith(f"doubled meshes written to {tmp_path / 'out'}\n")
    assert peak <= 6.15 * MIB


# The epsilon = 0.05 net: 2,978 circles of 16 points, a 1.1 MiB coordinate array.


def test_save_contour_peak(tmp_path, net_family):
    # 0.022 MiB measured, one component's text alive at a time (14.0 MiB for the
    # whole document's nested lists and text); ceiling 0.05 MiB, +127%
    c = net_family[0.05][1]
    assert traced_peak(lambda: save_contour(c, tmp_path / "net.contour.json")) <= 0.05 * MIB


def test_load_contour_peak(tmp_path, net_family):
    # 5.94 MiB measured, each component an array as its object closes (14.2 MiB
    # with the whole document's Python floats alive); ceiling 7.0 MiB, +18%
    save_contour(net_family[0.05][1], tmp_path / "net.contour.json")
    assert traced_peak(lambda: load_contour(tmp_path / "net.contour.json")) <= 7.0 * MIB


def test_white_check_peak(net_family):
    c = net_family[0.05][1]
    white_check(c)  # a first call, outside the measurement
    # 6.55 MiB measured with the kd pair search and Boruvka's tree (7.08 MiB
    # with cKDTree and csgraph), seeds batched and the segment kernel in place
    # (16.3 MiB with every seed of a chunk at once); ceiling 8.5 MiB, +30%
    assert traced_peak(lambda: white_check(c)) <= 8.5 * MIB


def test_cone_check_peak():
    c = gen.coaxial_circles_contour(1.0, 2.0, 2048)
    cone_check(c, 2000)
    # 2.65 MiB measured, each LP round's slack matrix in one buffer (4.5 MiB
    # with two fresh matrices per round); ceiling 3.2 MiB, +21%
    assert traced_peak(lambda: cone_check(c, 2000)) <= 3.2 * MIB


# The audit: the closed library's 29,056-triangle capped_cylinder(1, 20) is its largest mesh.


def test_audit_peak():
    run_audit(gen.closed_library_meshes(["icosphere3"]), probes_per_shape=1, seed=1)
    # 10.80 MiB measured with compact edge tables, each shape's tables released
    # once its checks are done and m_kappa's band temporaries gone on return
    # (15.36 MiB with every shape's tables kept to the end, the directed edge
    # keys cached and m_kappa's (T, 3) distance gather); ceiling 12.0 MiB, +11%
    peak = traced_peak(lambda: run_audit(gen.closed_library_meshes(), probes_per_shape=5,
                                         seed=1))
    assert peak <= 12.0 * MIB


def test_validate_and_adjacency_peak():
    mesh = gen.capped_cylinder(1.0, 20.0)

    def build():
        validate(mesh)
        mesh.vertex_adjacency()
    # 5.93 MiB measured with the one-sort edge table, the corner Gram from four
    # (T, 3) arrays and the CSR built from the sorted edges (8.59 MiB with two
    # np.unique calls, six (T, 3) arrays and a COO round trip); ceiling 6.5 MiB, +10%
    assert traced_peak(build) <= 6.5 * MIB


def test_intrinsic_diameter_peak():
    mesh = gen.icosphere(4)
    validate(mesh)
    mesh.vertex_adjacency()
    # 1.33 MiB measured with reach and the compaction over blocks of rows and the
    # buffer grown on the candidates' columns only (3.85 MiB with a k x live
    # reach temporary, compress's buffered copy and every growth n wide);
    # ceiling 1.8 MiB, +35%
    assert traced_peak(lambda: intrinsic_diameter(mesh)) <= 1.8 * MIB


@pytest.mark.parametrize("shape", ["icosphere3", "capped_cylinder_0.5_4", "disk", "disk_r4"])
def test_adjacency_is_scipys_csr(shape):
    if shape == "disk":
        mesh = gen.flat_disk(1.0, 8, 32)
    elif shape == "disk_r4":
        mesh = gen.embed_in_r4(gen.flat_disk(1.0, 8, 32))
    else:
        mesh = gen.closed_library_meshes([shape])[shape]
    e, n = mesh.edges, mesh.n_vertices
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    expected = sparse.csr_matrix((np.concatenate([w, w]),
                                  (np.concatenate([e[:, 0], e[:, 1]]),
                                   np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))
    got = mesh.vertex_adjacency()
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
