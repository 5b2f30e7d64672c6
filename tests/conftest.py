import pathlib
import sys

import numpy as np
import pytest
from scipy.sparse import csgraph

try:
    import curvebound  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from curvebound import generators as gen


def random_rotation(seed, dim=3):
    """Deterministic random rotation matrix with det +1."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def brute_force_intrinsic_diameter(mesh, rows=512):
    """Max over the all-pairs undirected Dijkstra matrix, in row blocks."""
    graph = mesh.vertex_adjacency()
    best = 0.0
    for i0 in range(0, mesh.n_vertices, rows):
        d = csgraph.dijkstra(graph, directed=False,
                             indices=np.arange(i0, min(i0 + rows, mesh.n_vertices)))
        best = max(best, float(d.max()))
    return best


@pytest.fixture(scope="session")
def icosphere4():
    return gen.icosphere(4)


@pytest.fixture(scope="session")
def unit_disk():
    return gen.flat_disk(1.0, 24, 96)


@pytest.fixture(scope="session")
def hemisphere_mesh():
    return gen.hemisphere(24, 96)


@pytest.fixture(scope="session")
def capped_cyl_1_20():
    return gen.capped_cylinder(1.0, 20.0)


@pytest.fixture(scope="session")
def disk_double_k50(unit_disk):
    from curvebound.doubling import build_double

    return build_double(unit_disk, 50)


@pytest.fixture(scope="session")
def net_family():
    """Nets and their micro-circle contours for eps in {0.2, 0.1, 0.05}."""
    out = {}
    for eps in (0.2, 0.1, 0.05):
        net = gen.fibonacci_net(eps)
        contour = gen.sphere_circles(net, eps**2.5, segments=16)
        out[eps] = (net, contour)
    return out


@pytest.fixture(scope="session")
def antipodal_microcircles():
    """Two geodesic circles of radius 0.01 about antipodal poles."""
    return gen.sphere_circles(gen.antipodal_point_set(), 0.01, segments=64)
