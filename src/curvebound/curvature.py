"""Discrete mean curvature on meshes and total absolute curvature of polylines.

The mean curvature convention is the averaged one: |H| == 1 on a unit sphere,
|H| == 1/(2r) on a cylinder of radius r. The cotangent discretization of the
coordinate Laplacian gives the integrated vector 2*H_v*A_v per vertex, hence
the 1/(4A) prefactor below; it is valid in any codimension.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import SurfaceMesh, _ball_clip, _ball_integral

COT_CLAMP = 1e6


@dataclass
class MeanCurvatureField:
    """Per-vertex mean curvature vectors and area weights.

    ``vectors[v]`` is meaningless at boundary vertices (flagged in
    ``boundary_mask``); their area still participates in the partition of the
    total mesh area. ``clamped`` counts cotangent overflows that were clamped.
    """

    vectors: np.ndarray
    areas: np.ndarray
    boundary_mask: np.ndarray
    clamped: int = 0

    def magnitudes(self):
        return np.linalg.norm(self.vectors, axis=1)


def _corner_cotangents(mesh):
    """Cotangents of the three corner angles of every triangle, clamped.

    Works in any codimension: sin is recovered from the Gram determinant.
    Returns (cot (T,3), n_clamped), corner k opposite to edge (k+1, k+2).
    """
    p = mesh.vertices[mesh.triangles]
    cots = np.empty((len(p), 3))
    clamped = 0
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        w = p[:, (k + 2) % 3] - p[:, k]
        dot = np.einsum("ij,ij->i", u, w)
        gram = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", w, w) - dot * dot
        sin = np.sqrt(np.maximum(gram, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(sin > 0.0, dot / np.where(sin > 0.0, sin, 1.0),
                         np.sign(dot) * np.inf)
        over = np.abs(c) > COT_CLAMP
        clamped += int(over.sum())
        cots[:, k] = np.clip(np.nan_to_num(c, nan=0.0, posinf=COT_CLAMP,
                                           neginf=-COT_CLAMP),
                             -COT_CLAMP, COT_CLAMP)
    return cots, clamped


def mixed_voronoi_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Obtuse-safe mixed Voronoi vertex areas (Meyer et al. rule).

    Non-obtuse triangles distribute circumcentric Voronoi pieces; obtuse ones
    give half the area to the obtuse corner and a quarter to the others. The
    pieces tile each triangle, so the vertex areas sum to the mesh area.
    """
    tri = mesh.triangles
    p = mesh.vertices[tri]
    areas = mesh.triangle_areas()
    cots, _ = _corner_cotangents(mesh)

    # Squared edge lengths opposite each corner: l2[:, k] = |p_{k+1} - p_{k+2}|^2
    l2 = np.empty_like(cots)
    for k in range(3):
        e = p[:, (k + 1) % 3] - p[:, (k + 2) % 3]
        l2[:, k] = np.einsum("ij,ij->i", e, e)

    any_obtuse = cots.min(axis=1) < 0.0

    vertex_area = np.zeros(mesh.n_vertices)
    # Voronoi part (non-obtuse triangles): corner k gets
    # (|edge to k+1|^2 cot(at k+2) + |edge to k+2|^2 cot(at k+1)) / 8.
    good = ~any_obtuse
    for k in range(3):
        contrib = (l2[good, (k + 2) % 3] * cots[good, (k + 2) % 3]
                   + l2[good, (k + 1) % 3] * cots[good, (k + 1) % 3]) / 8.0
        np.add.at(vertex_area, tri[good, k], contrib)
    # Obtuse triangles: 1/2 at the obtuse corner, 1/4 elsewhere.
    bad = any_obtuse
    if bad.any():
        is_obt = cots[bad] < 0.0
        share = np.where(is_obt, 0.5, 0.25) * areas[bad, None]
        for k in range(3):
            np.add.at(vertex_area, tri[bad, k], share[:, k])
    return vertex_area


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
    cots, clamped = _corner_cotangents(mesh)

    lap = np.zeros_like(x)
    for k in range(3):
        a = tri[:, (k + 1) % 3]
        b = tri[:, (k + 2) % 3]
        w = cots[:, k][:, None]
        np.add.at(lap, a, w * (x[a] - x[b]))
        np.add.at(lap, b, w * (x[b] - x[a]))

    areas = mixed_voronoi_areas(mesh)
    safe = np.maximum(areas, 1e-300)
    vectors = lap / (4.0 * safe[:, None])
    field = MeanCurvatureField(
        vectors=vectors,
        areas=areas,
        boundary_mask=mesh.boundary_vertex_mask(),
        clamped=clamped,
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


def curvature_in_ball(mesh: SurfaceMesh, field: MeanCurvatureField,
                      distances: np.ndarray, r: float) -> float:
    """Integral of |H| over the intrinsic ball of radius r (fractional triangles).

    Uses a per-triangle density (corner average of |H_v|, boundary corners
    excluded) times the ball-clipped triangle area, so it is consistent with
    ``intrinsic_ball_volume`` and monotone in r.
    """
    return _ball_integral(_curvature_weights(mesh, field),
                          _ball_clip(distances[mesh.triangles], r))


def _curvature_weights(mesh, field):
    """Triangle areas times the triangle's |H| density (corner average of
    |H_v|, boundary corners excluded)."""
    mags = np.where(field.boundary_mask, 0.0, field.magnitudes())
    return mesh.triangle_areas() * mags[mesh.triangles].mean(axis=1)


def total_abs_curvature(points, closed=False) -> float:
    """Total variation of the tangent direction of a sampled polyline.

    Sum of unsigned exterior (turning) angles at interior sample points; a
    closed polyline turns at every vertex including the closing one. The
    estimator on an open smooth arc of total sweep S has value S*(N-2)/(N-1)
    at N samples (it misses half a step at each end).
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) < 3:
        raise ValueError("need at least 3 samples")
    seg = np.diff(p, axis=0)
    if closed:
        seg = np.vstack([seg, p[0] - p[-1]])
    if np.any(np.all(seg == 0.0, axis=1)):
        raise ValueError("consecutive samples must be distinct")
    u = seg[:-1]
    w = seg[1:]
    if closed:
        u = seg
        w = np.vstack([seg[1:], seg[:1]])
    if p.shape[1] == 2:
        # Planar: atan2(cross, dot) is exact-per-vertex; no noise rectification.
        cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        dot = u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1]
        return float(np.abs(np.arctan2(cross, dot)).sum())
    # Angle via rejection of w from u: stable for near-straight samples, where
    # the Gram-determinant sine would rectify roundoff into spurious turning.
    u_hat = u / np.linalg.norm(u, axis=1)[:, None]
    along = np.einsum("ij,ij->i", w, u_hat)
    rej = w - along[:, None] * u_hat
    return float(np.arctan2(np.linalg.norm(rej, axis=1), along).sum())
