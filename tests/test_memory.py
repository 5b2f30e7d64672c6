"""Memory ceilings of the doubling pipeline, in bytes traced by tracemalloc.

tracemalloc counts what Python and numpy allocate, not the resident set, so
each figure is the same from run to run under one numpy release. Each
ceiling is the measured figure plus a stated margin.
"""

import tracemalloc

from curvebound import generators as gen
from curvebound.cli import main
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
    # 6.84 MiB measured with one double alive at a time (15.7 MiB when the
    # previous double and its caches outlived the next one's construction);
    # ceiling 8.6 MiB, +26%
    path = tmp_path / "cylinder.mesh.json"
    save_mesh(cylinder(), path)
    argv = ["double", str(path), "--k-list", "10,25,50", "--out-dir", str(tmp_path / "out")]
    peak = traced_peak(lambda: main(argv))
    assert capsys.readouterr().out.endswith(f"doubled meshes written to {tmp_path / 'out'}\n")
    assert peak <= 8.6 * MIB
