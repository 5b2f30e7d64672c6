"""Memory ceilings of the doubling and contour pipelines, in bytes traced by tracemalloc.

tracemalloc counts what Python and numpy allocate, not the resident set, so
each figure is the same from run to run under one numpy release. Each
ceiling is the measured figure plus a stated margin.
"""

import tracemalloc

from curvebound import generators as gen
from curvebound.cli import main
from curvebound.contour import load_contour, save_contour
from curvebound.criteria import cone_check, white_check
from curvebound.curvature import mean_curvature_field
from curvebound.doubling import build_double
from curvebound.mesh import save_mesh

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
