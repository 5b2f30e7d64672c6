"""Property tests for the audit's per-shape and per-probe passes, bit for bit.

- ``geodesic_distances`` with a limit equals the unbounded row wherever
  that row is <= limit, and is inf elsewhere: on library meshes and small
  jittered ones, at limits of 0, of an exact computed distance, and random.
- ``m_kappa``'s corner rotation picks the corner ``argmax`` (``argmin``)
  picks: the first largest (smallest), on integer-valued triples with every
  tie pattern, and inf.
- ``michael_simon_check`` on a shape's whole function library gives each
  function the entry it gets alone, and the one of a per-function reference.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebound import generators as gen
from curvebound.audit import (MS_DISCRETIZATION_SLACK, SIGMA_SHARP, _rotations,
                              michael_simon_check, probe_function_library)
from curvebound.curvature import mean_curvature_field
from curvebound.mesh import SurfaceMesh, geodesic_distances

MESHES = {
    "icosphere1": gen.icosphere(1),
    "icosphere3": gen.icosphere(3),
    "disk": gen.flat_disk(1.0, 4, 16),
    "capped_cylinder_0.5_4": gen.closed_library_meshes(("capped_cylinder_0.5_4",))[
        "capped_cylinder_0.5_4"],
}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(MESHES)), jitter=st.booleans(), seed=st.integers(0, 2**16),
       probe=st.integers(0, 2**16), pick=st.integers(0, 2**16),
       kind=st.sampled_from(["zero", "exact", "random"]), frac=st.floats(0.0, 1.2))
def test_bounded_search_is_the_unbounded_row_cut_at_the_limit(name, jitter, seed, probe, pick,
                                                               kind, frac):
    mesh = MESHES[name]
    if jitter:
        rng = np.random.default_rng(seed)
        mesh = SurfaceMesh(mesh.vertices + rng.uniform(-1e-2, 1e-2, mesh.vertices.shape),
                           mesh.triangles)
    p = probe % mesh.n_vertices
    full = geodesic_distances(mesh, p)
    limit = {"zero": 0.0, "exact": float(full[pick % len(full)]),
             "random": frac * float(full.max())}[kind]
    got = geodesic_distances(mesh, p, limit)
    assert np.array_equal(got, np.where(full <= limit, full, np.inf))


def _argmax_argmin_rotations(dv):
    rows = np.arange(len(dv))
    return [[dv[rows, (arg(dv, axis=1) + k) % 3] for k in range(3)]
            for arg in (np.argmax, np.argmin)]


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf]), min_size=3, max_size=3),
                min_size=1, max_size=8))
def test_rotation_picks_argmax_and_argmin(triples):
    dv = np.array(triples)
    assert np.array_equal(_rotations(*dv.T), _argmax_argmin_rotations(dv)), triples


def test_rotation_covers_every_tie_pattern():
    # every triple over {0, 1, 2}: all equal, each pair tied above or below, all
    # distinct; and again with inf for 2
    dv = np.array(np.meshgrid(*[[0.0, 1.0, 2.0]] * 3, indexing="ij")).reshape(3, -1).T
    dv = np.vstack([dv, np.where(dv == 2.0, np.inf, dv)])
    assert np.array_equal(_rotations(*dv.T), _argmax_argmin_rotations(dv))


@settings(max_examples=20)
@given(name=st.sampled_from(["icosphere1", "icosphere3", "capped_cylinder_0.5_4"]),
       seed=st.integers(0, 2**16))
def test_one_pass_entries_equal_single_function_entries(name, seed):
    mesh = MESHES[name]
    library = probe_function_library(mesh, seed=seed)
    entries = michael_simon_check(mesh, library)
    assert [e["f"] for e in entries] == [fname for fname, _ in library]
    for entry, (fname, f) in zip(entries, library):
        alone, = michael_simon_check(mesh, [(fname, f)])
        assert entry == alone == _reference_entry(mesh, f, fname)


def _reference_entry(mesh, f, name):
    """The entry of one function, every term computed for it alone, as the
    per-function check computed it."""
    field = mean_curvature_field(mesh)
    tri = mesh.triangles
    sq, dot, gram = mesh.corner_gram()
    guu, gww, guw, det = sq[:, 0], sq[:, 2], dot[:, 0], gram[:, 0]
    df1 = f[tri[:, 1]] - f[tri[:, 0]]
    df2 = f[tri[:, 2]] - f[tri[:, 0]]
    grad_sq = np.where(det > 0, (gww * df1 * df1 - 2.0 * guw * df1 * df2 + guu * df2 * df2)
                       / np.where(det > 0, det, 1.0), 0.0)
    grad_l1 = float((np.sqrt(np.maximum(grad_sq, 0.0)) * mesh.triangle_areas()).sum())
    lhs = float(SIGMA_SHARP * np.sqrt(np.sum(f * f * field.areas)))
    rhs = grad_l1 + 2.0 * float(np.sum(field.magnitudes() * f * field.areas))
    return {"f": name, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
            "holds": bool(lhs <= rhs * (1.0 + MS_DISCRETIZATION_SLACK))}
