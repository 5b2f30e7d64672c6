"""Property tests: ``m_kappa``'s one pass per probe equals the per-radius loop, bit for bit.

The meshes are small and jittered, so corner distances rarely tie, and
include one with two components, whose second sphere is at infinite
distance. R is drawn at a corner distance, so that the largest grid radius
can land on a corner; below the first ring, so that every ball holds only
parts of the probe's own triangles; and past the intrinsic radius, so that
the ball saturates.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_m_kappa
from curvebound import generators as gen
from curvebound.audit import m_kappa
from curvebound.mesh import SurfaceMesh, geodesic_distances


def _two_spheres():
    sphere = gen.icosphere(1)
    return SurfaceMesh(np.vstack([sphere.vertices, sphere.vertices + 3.0]),
                       np.vstack([sphere.triangles, sphere.triangles + sphere.n_vertices]))


SMALL = {
    "icosphere1": gen.icosphere(1),
    "icosphere2": gen.icosphere(2),
    "disk": gen.flat_disk(1.0, 4, 16),
    "two_spheres": _two_spheres(),
}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(SMALL)), seed=st.integers(0, 2**16),
       probe=st.integers(0, 2**16), pick=st.integers(0, 2**16),
       radius=st.sampled_from(["corner", "first_ring", "beyond"]),
       frac=st.floats(0.05, 0.95))
def test_matches_reference_loop(name, seed, probe, pick, radius, frac):
    mesh = SMALL[name]
    rng = np.random.default_rng(seed)
    mesh = SurfaceMesh(mesh.vertices + rng.uniform(-1e-2, 1e-2, mesh.vertices.shape),
                       mesh.triangles)
    p = probe % mesh.n_vertices
    d = geodesic_distances(mesh, p)
    ring = np.unique(d[np.isfinite(d)])[1:]
    R = {"corner": ring[pick % len(ring)], "first_ring": frac * ring[0],
         "beyond": (1.0 + frac) * ring[-1]}[radius]
    rec = m_kappa(mesh, p, float(R))
    assert (rec["m"], rec["kappa"]) == reference_m_kappa(mesh, p, float(R))
