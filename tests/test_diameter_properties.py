"""Property tests: the intrinsic diameter's bracket holds the all-pairs Dijkstra max.

The lower end is an eccentricity the search computed, so it is one of the
all-pairs row maxima, bit for bit. The upper end is certified only if the
drop rule's slack covers rounding in both directions: on meshes with many
tied eccentricities (the unjittered sphere and cylinder), d(x, y) and
d(y, x) can round apart, and a rule that trusted either one could drop a
vertex whose row holds more than the upper end.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from conftest import assert_brackets_all_pairs
from curvebound import generators as gen
from curvebound.mesh import SurfaceMesh, intrinsic_diameter

SMALL = {
    "icosphere1": gen.icosphere(1),
    "icosphere2": gen.icosphere(2),
    "disk": gen.flat_disk(1.0, 4, 16),
    "hemisphere": gen.hemisphere(4, 16),
    "open_cylinder": gen.open_cylinder(1.0, 3.0, segments=12),
    "capped_cylinder": gen.capped_cylinder(0.5, 3.0, segments=16, rings_cap=4),
}
TIED = {
    "icosphere2": gen.icosphere(2),
    "capped_cylinder": gen.capped_cylinder(0.5, 4.0, segments=24, rings_cap=5),
}


def relabel(mesh, seed, jitter=0.0):
    """``mesh`` under a random vertex labelling, its vertices moved by up to ``jitter``."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.n_vertices)
    vertices = mesh.vertices + jitter * rng.uniform(-1.0, 1.0, mesh.vertices.shape)
    return SurfaceMesh(vertices[np.argsort(label)], label[mesh.triangles])


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(SMALL)), seed=st.integers(0, 2**16),
       jitter=st.sampled_from([0.0, 1e-9, 1e-3, 1e-2]))
def test_matches_all_pairs_on_relabelled_jittered_meshes(name, seed, jitter):
    mesh = relabel(SMALL[name], seed, jitter)
    assert_brackets_all_pairs(mesh, intrinsic_diameter(mesh))


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(TIED)), seed=st.integers(0, 2**16))
def test_matches_all_pairs_with_tied_eccentricities(name, seed):
    mesh = relabel(TIED[name], seed)
    assert_brackets_all_pairs(mesh, intrinsic_diameter(mesh))


@pytest.mark.parametrize("name", sorted(TIED))
def test_tied_meshes_have_many_diametral_vertices(name):
    # the trap is real: many rows reach the diameter to 1e-14, and some pairs round apart
    mesh = TIED[name]
    d = csgraph.dijkstra(mesh.vertex_adjacency(), directed=True)
    ecc = d.max(axis=1)
    assert (ecc >= ecc.max() * (1.0 - 1e-14)).sum() >= 12
    assert (d != d.T).any()
