"""Property tests: union-find connectivity agrees with scipy's connected components."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_oracle
from curvebound import generators as gen
from curvebound.mesh import SurfaceMesh

LIBRARY = {
    "icosphere1": gen.icosphere(1),
    "disk": gen.flat_disk(1.0, 3, 12),
    "open_cylinder": gen.open_cylinder(1.0, 4.0, segments=8),
    "hemisphere": gen.hemisphere(3, 12),
}


def assemble(names, glue, extra, seed):
    """Disjoint copies of library meshes under one random vertex labelling.

    ``glue[i]`` adds a triangle joining the first vertex of copy i + 1 to two
    random vertices of copy i; ``extra`` vertices no triangle uses are
    appended.
    """
    rng = np.random.default_rng(seed)
    verts, tris, offset = [], [], 0
    for i, name in enumerate(names):
        mesh = LIBRARY[name]
        if i and glue[i - 1]:
            previous = offset - len(verts[-1])
            tris.append([[offset, *previous + rng.choice(len(verts[-1]), 2, replace=False)]])
        verts.append(mesh.vertices)
        tris.append(mesh.triangles + offset)
        offset += mesh.n_vertices
    verts.append(rng.normal(size=(extra, 3)))
    label = rng.permutation(offset + extra)
    return SurfaceMesh(np.concatenate(verts)[np.argsort(label)], label[np.concatenate(tris)])


@settings(max_examples=60)
@given(names=st.lists(st.sampled_from(sorted(LIBRARY)), min_size=1, max_size=4),
       glue=st.lists(st.booleans(), min_size=3, max_size=3),
       extra=st.sampled_from([0, 0, 1, 3]), seed=st.integers(0, 2**16))
def test_matches_connected_components(names, glue, extra, seed):
    mesh = assemble(names, glue, extra, seed)
    assert mesh.is_connected() == connected_oracle(mesh)
    assert mesh.is_connected() == (extra == 0 and all(glue[:len(names) - 1]))


@pytest.mark.parametrize("n_vertices", [0, 1, 2])
def test_meshes_without_triangles(n_vertices):
    mesh = SurfaceMesh(np.zeros((n_vertices, 3)), np.empty((0, 3), dtype=np.int64))
    assert mesh.is_connected() == connected_oracle(mesh) == (n_vertices == 1)


def test_long_relabelled_cylinder(capped_cyl_1_20):
    # many union-find rounds: a long chain of rings under a random labelling
    mesh = capped_cyl_1_20
    label = np.random.default_rng(0).permutation(mesh.n_vertices)
    moved = SurfaceMesh(mesh.vertices[np.argsort(label)], label[mesh.triangles])
    assert moved.is_connected() and connected_oracle(moved)
