"""Discrete mean curvature on meshes and total absolute curvature of planar polylines.

The mean curvature convention is the averaged one: |H| == 1 on a unit sphere,
|H| == 1/(2r) on a cylinder of radius r. The cotangent discretization of the
coordinate Laplacian gives the integrated vector 2*H_v*A_v per vertex, hence
the 1/(4A) prefactor below; it is valid in any codimension.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import SurfaceMesh

COT_CLAMP = 1e6


@dataclass
class MeanCurvatureField:
    """Per-vertex mean curvature vectors and area weights.

    ``vectors[v]`` is meaningless at boundary vertices (flagged in
    ``boundary_mask``); their area still participates in the partition of the
    total mesh area.
    """

    vectors: np.ndarray
    areas: np.ndarray
    boundary_mask: np.ndarray

    def magnitudes(self):
        return np.linalg.norm(self.vectors, axis=1)


def _corner_cotangents(mesh):
    """Cotangents of the three corner angles of every triangle, clamped.

    Works in any codimension: sin is recovered from the Gram determinant.
    Returns (T, 3) cotangents, corner k opposite to edge (k+1, k+2).
    """
    _, dot, gram = mesh.corner_gram()
    sin = np.maximum(gram, 0.0)
    np.sqrt(sin, out=sin)
    flat = ~(sin > 0.0)
    sin[flat] = 1.0
    c = np.divide(dot, sin, out=sin)  # in place: one (T, 3) array alive
    with np.errstate(invalid="ignore"):
        c[flat] = np.sign(dot[flat]) * np.inf
    np.nan_to_num(c, copy=False, nan=0.0, posinf=COT_CLAMP, neginf=-COT_CLAMP)
    return np.clip(c, -COT_CLAMP, COT_CLAMP, out=c)


def mixed_voronoi_areas(mesh: SurfaceMesh, cots) -> np.ndarray:
    """Obtuse-safe mixed Voronoi vertex areas (Meyer et al. rule).

    ``cots`` are the mesh's corner cotangents from ``_corner_cotangents``.
    Non-obtuse triangles distribute circumcentric Voronoi pieces; obtuse ones
    give half the area to the obtuse corner and a quarter to the others. The
    pieces tile each triangle, so the vertex areas sum to the mesh area.
    """
    tri = mesh.triangles
    areas = mesh.triangle_areas()
    # Squared edge lengths opposite each corner: l2[:, k] = |p_{k+1} - p_{k+2}|^2
    l2 = mesh.corner_gram()[0][:, [1, 2, 0]]

    obtuse = cots.min(axis=1) < 0.0
    # Voronoi part (non-obtuse triangles): corner k gets
    # (|edge to k+1|^2 cot(at k+2) + |edge to k+2|^2 cot(at k+1)) / 8.
    lc = l2[~obtuse]
    del l2
    lc *= cots[~obtuse]
    voronoi = lc[:, [2, 0, 1]] + lc[:, [1, 2, 0]]
    del lc
    voronoi /= 8.0
    # Obtuse triangles: 1/2 at the obtuse corner, 1/4 elsewhere.
    share = np.where(cots[obtuse] < 0.0, 0.5, 0.25) * areas[obtuse, None]
    weights = np.concatenate([voronoi.T.ravel(), share.T.ravel()])
    del voronoi, share
    # one scatter, corner by corner, in the order of a sequential sum
    return np.bincount(np.concatenate([tri[~obtuse].T.ravel(), tri[obtuse].T.ravel()]),
                       weights=weights, minlength=mesh.n_vertices)


def mean_curvature_field(mesh: SurfaceMesh) -> MeanCurvatureField:
    """Cotangent mean curvature vectors H_v with mixed Voronoi weights.

    H_v = (1/(4 A_v)) * sum over one-ring edges of (cot a + cot b)(x_v - x_w),
    the averaged-convention mean curvature vector (|H| = 1 on a unit sphere).
    Boundary vertices are flagged; their cotangent sum lacks half its one-ring
    and is excluded from surface integrals. Computed once per mesh and kept
    in its cache, with read-only arrays.
    """
    if "curvature" in mesh._cache:
        return mesh._cache["curvature"]
    tri = mesh.triangles
    x = mesh.vertices
    cots = _corner_cotangents(mesh)

    # corner k weights edge (a, b) = (k+1, k+2) by its cotangent; np.add.at adds the
    # terms to a then b, corner by corner, from +0.0, so only one corner's terms are
    # alive at a time; -term is w * (x[b] - x[a]) up to a zero's sign, which such a
    # sum ignores. Column by column: numpy's 1-D np.add.at is the fast one
    lap = np.zeros_like(x)
    for k in range(3):
        a, b = tri[:, (k + 1) % 3], tri[:, (k + 2) % 3]
        term = x[a]
        term -= x[b]
        term *= cots[:, k, None]
        for c in range(x.shape[1]):
            np.add.at(lap[:, c], a, term[:, c])
            np.add.at(lap[:, c], b, -term[:, c])

    areas = mixed_voronoi_areas(mesh, cots)
    safe = np.maximum(areas, 1e-300)
    vectors = lap / (4.0 * safe[:, None])
    field = MeanCurvatureField(
        vectors=vectors,
        areas=areas,
        boundary_mask=mesh.boundary_vertex_mask(),
    )
    for a in (field.vectors, field.areas, field.boundary_mask):
        a.setflags(write=False)
    mesh._cache["curvature"] = field
    return field


def total_mean_curvature(mesh: SurfaceMesh) -> float:
    """Discrete integral of |H| over the surface interior.

    Sums |H_v| A_v over interior vertices in index order (deterministic and
    order-independent to reproducibility tolerance). The smooth integral is
    insensitive to the measure-zero boundary, whose discrete values would be
    meaningless anyway.
    """
    field = mean_curvature_field(mesh)
    interior = ~field.boundary_mask
    return float(np.sum(field.magnitudes()[interior] * field.areas[interior]))


def _curvature_weights(mesh, field):
    """Triangle areas times the triangle's |H| density (corner average of
    |H_v|, boundary corners excluded)."""
    mags = np.where(field.boundary_mask, 0.0, field.magnitudes())
    return mesh.triangle_areas() * mags[mesh.triangles].mean(axis=1)


def total_abs_curvature(points) -> float:
    """Total variation of the tangent direction of an open planar polyline.

    Sum of unsigned exterior (turning) angles at the interior sample points.
    The estimator on a smooth arc of total sweep S has value S*(N-2)/(N-1) at
    N samples (it misses half a step at each end).
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) < 3 or p.shape[1] != 2:
        raise ValueError(f"need an (n >= 3, 2) array of planar samples, got {p.shape}")
    seg = np.diff(p, axis=0)
    if ((seg[:, 0] == 0.0) & (seg[:, 1] == 0.0)).any():
        raise ValueError("consecutive samples must be distinct")
    u = seg[:-1]
    w = seg[1:]
    # atan2(cross, dot) is exact-per-vertex; no noise rectification
    cross = u[:, 0] * w[:, 1]
    cross -= u[:, 1] * w[:, 0]
    dot = u[:, 0] * w[:, 0]
    dot += u[:, 1] * w[:, 1]
    turn = np.arctan2(cross, dot, out=cross)
    return float(np.abs(turn, out=turn).sum())
