"""Property tests: the cotangent field, corner block by corner block, matches the
stacked reference bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_rotation, reference_curvature_field
from curvebound import generators as gen
from curvebound.curvature import mean_curvature_field
from curvebound.doubling import build_double
from curvebound.mesh import SurfaceMesh

BASES = {
    "icosphere1": gen.icosphere(1),
    "disk": gen.flat_disk(1.0, 3, 12),
    "hemisphere": gen.hemisphere(3, 12),
    "disk_double": build_double(gen.flat_disk(1.0, 3, 12), 10).sigma,
}


def embedded(name, dim, jitter, unused, seed):
    """A base mesh rotated into R^dim, every coordinate jittered, and optionally
    one vertex that no triangle uses appended."""
    base = BASES[name]
    rng = np.random.default_rng(seed)
    v = base.vertices @ random_rotation(seed, dim)[:3]
    v = v + jitter * rng.normal(size=v.shape)
    if unused:
        v = np.vstack([v, rng.normal(size=(1, dim))])
    return SurfaceMesh(v, base.triangles)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(BASES)), dim=st.sampled_from([3, 4, 6]),
       jitter=st.sampled_from([0.0, 1e-3, 1e-2]), unused=st.booleans(),
       seed=st.integers(0, 2**16))
@example(name="disk_double", dim=6, jitter=1e-2, unused=True, seed=1)
@example(name="hemisphere", dim=4, jitter=1e-3, unused=True, seed=2)
def test_matches_stacked_reference(name, dim, jitter, unused, seed):
    mesh = embedded(name, dim, jitter, unused, seed)
    field = mean_curvature_field(mesh)
    vectors, areas = reference_curvature_field(mesh)
    assert field.vectors.tobytes() == vectors.tobytes()
    assert field.areas.tobytes() == areas.tobytes()
    if unused:
        assert not field.vectors[-1].any() and field.areas[-1] == 0.0
