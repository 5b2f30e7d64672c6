"""Reference meshes, contours and spherical point sets used across the toolkit.

All meshes come out consistently oriented and pass ``mesh.validate``; all
contours satisfy the contour invariants.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import Contour
from .mesh import SurfaceMesh, pairs_within

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_PACKING_REACH = 4.0  # first search radius of the packing radius, times sqrt(n)
# first search radius of covering_radius_exact, times sqrt(n): a cap of chord
# diameter r holds the hull facets of spirals, whose covering radius is about
# 2.73 / sqrt(n)
_COVERING_REACH = 6.0
_COPLANAR = 1e-13  # how far beyond a facet's plane a neighbour may lie (ties such as the cube's)
_FACET_ENTRIES = 2**15  # (vertex, neighbour, neighbour) entries per block of _least_facet_offset


# -- meshes -------------------------------------------------------------------


def _count(name, value, minimum):
    """``value`` as an int; ValueError naming ``name`` unless it is an integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _steps(name, n, scale):
    """scale * i / n for i = 0..n, with n a checked count >= 1."""
    n = _count(name, n, 1)
    return [scale * i / n for i in range(n + 1)]


def _rings(profile, segments):
    """One circle [rho cos, rho sin, z] of ``segments`` points per (rho, z) row."""
    segments = _count("segments", segments, 3)
    ang = 2.0 * np.pi * np.arange(segments) / segments
    return [np.column_stack([rho * np.cos(ang), rho * np.sin(ang), np.full(segments, z)])
            for rho, z in profile]


def _fan(apex, first, segments):
    """Triangles (apex, first + j, first + j + 1) around one ring, cyclically."""
    j = np.arange(segments)
    return np.column_stack([np.full(segments, apex), first + j, first + (j + 1) % segments])


# Two triangles per quad (a + j, a + j + 1, b + j, b + j + 1) between rings a and b.
_OUTWARD_QUAD = [[0, 2, 3], [0, 3, 1]]
_UPWARD_QUAD = [[0, 1, 2], [1, 3, 2]]


def _strips(first, bands, segments, quad):
    """Quad strips between ``bands + 1`` consecutive rings starting at vertex ``first``."""
    a = first + segments * np.arange(bands)[:, None]
    j = np.arange(segments)
    jn = (j + 1) % segments
    corners = np.stack([a + j, a + jn, a + segments + j, a + segments + jn], axis=-1)
    return corners[:, :, quad].reshape(-1, 3)


def _polar_mesh(center, profile, segments) -> SurfaceMesh:
    """Center vertex with one ring per (rho, z) row: a fan, then strips outward."""
    vertices = np.vstack([center, *_rings(profile, segments)])
    tris = np.vstack([_fan(0, 1, segments),
                      _strips(1, len(profile) - 1, segments, _OUTWARD_QUAD)])
    return SurfaceMesh(vertices, tris)


def flat_disk(radius=1.0, rings=24, segments=96) -> SurfaceMesh:
    """Planar disk in the z = 0 plane: polar grid, boundary = outer ring.

    Spoke edges run straight through the center, so edge-graph distances from
    the center vertex are exact.
    """
    return _polar_mesh((0.0, 0.0, 0.0),
                       [(r, 0.0) for r in _steps("rings", rings, radius)[1:]], segments)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def icosphere(subdivisions=3, radius=1.0) -> SurfaceMesh:
    """Icosahedron subdivided ``subdivisions`` times, projected to the sphere.

    Original icosahedron vertices survive subdivision, so antipodal vertex
    pairs exist and the vertex diameter equals 2*radius exactly.
    """
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES
    for _ in range(_count("subdivisions", subdivisions, 0)):
        verts, faces = _subdivide_midpoint(verts, faces)
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    return SurfaceMesh(verts * radius, faces)


def _subdivide_midpoint(verts, faces):
    """Split each face in four; the midpoints of edges ab, bc, ca are numbered by first use.

    ``np.linalg.norm`` of one vector is a BLAS dot, which stacked (1 x 3) @ (3 x 1)
    products call per row, so each midpoint is normalized as if alone.
    """
    n = len(verts)
    edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    edges.sort(axis=1)
    _, first, inverse = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True,
                                  return_inverse=True)
    rank = np.argsort(np.argsort(first))  # unique edges in order of first use
    a, b = edges[np.sort(first)].T
    mid = (verts[a] + verts[b]) / 2.0
    mid = mid / np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
    ab, bc, ca = (n + rank[inverse.reshape(-1, 3)]).T
    fa, fb, fc = faces.T
    new_faces = np.column_stack([fa, ab, ca, fb, bc, ab, fc, ca, bc, ab, bc, ca])
    return np.vstack([verts, mid]), new_faces.reshape(-1, 3)


def hemisphere(rings=24, segments=96, radius=1.0) -> SurfaceMesh:
    """Upper unit hemisphere (z >= 0) with the equator as its boundary loop."""
    thetas = _steps("rings", rings, np.pi / 2.0)[1:]  # polar angles from the north pole
    return _polar_mesh((0.0, 0.0, radius),
                       [(radius * np.sin(t), radius * np.cos(t)) for t in thetas], segments)


def capped_cylinder(radius=1.0, length=20.0, segments=64, rings_lateral=None,
                    rings_cap=12) -> SurfaceMesh:
    """Closed cylinder of given lateral length with hemispherical end caps.

    Axis along z, caps centered at z = +-(length/2); the two pole vertices sit
    at z = +-(length/2 + radius), so the vertex diameter is length + 2*radius.
    """
    segments = _count("segments", segments, 3)
    if rings_lateral is None:
        rings_lateral = max(8, int(round(length / (2.0 * np.pi * radius / segments))))
    half = length / 2.0
    cap = _steps("rings_cap", rings_cap, np.pi / 2.0)[1:]
    # (r, z) rows from the south pole (exclusive) to the north pole (exclusive)
    profile = ([(radius * np.sin(t), -half - radius * np.cos(t)) for t in cap]
               + [(radius, -half + z) for z in _steps("rings_lateral", rings_lateral,
                                                      length)[1:-1]]
               + [(radius * np.sin(t), half + radius * np.cos(t)) for t in cap[::-1]])
    vertices = np.vstack([(0.0, 0.0, -half - radius), *_rings(profile, segments),
                          (0.0, 0.0, half + radius)])
    north = len(vertices) - 1
    tris = np.vstack([_fan(0, 1, segments)[:, [0, 2, 1]],  # south fan faces -z
                      _strips(1, len(profile) - 1, segments, _UPWARD_QUAD),
                      _fan(north, north - segments, segments)])
    return SurfaceMesh(vertices, tris)


def open_cylinder(radius=1.0, length=4.0, segments=64, rings=None) -> SurfaceMesh:
    """Lateral cylinder surface only: two boundary circles."""
    segments = _count("segments", segments, 3)
    if rings is None:
        rings = max(4, int(round(length / (2.0 * np.pi * radius / segments))))
    profile = [(radius, -length / 2.0 + z) for z in _steps("rings", rings, length)]
    vertices = np.vstack(_rings(profile, segments))
    return SurfaceMesh(vertices, _strips(0, len(profile) - 1, segments, _UPWARD_QUAD))


def square_grid(n=32, size=1.0) -> SurfaceMesh:
    """Flat square [0, size]^2 as an n x n grid, each cell split on one diagonal."""
    n = _count("n", n, 1)
    xs = np.linspace(0.0, size, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.zeros((n + 1) ** 2)])
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()  # each cell's low corner
    return SurfaceMesh(vertices, np.column_stack(
        [a, a + n + 1, a + 1, a + 1, a + n + 1, a + n + 2]).reshape(-1, 3).astype(np.int64))


def embed_in_r4(mesh: SurfaceMesh) -> SurfaceMesh:
    """Pad a 3D mesh with a zero fourth coordinate."""
    v = np.column_stack([mesh.vertices, np.zeros(mesh.n_vertices)])
    return SurfaceMesh(v, mesh.triangles)


# -- contours -----------------------------------------------------------------


def circle_contour(radius=1.0, segments=360, center=(0, 0, 0), normal=(0, 0, 1)) -> Contour:
    return Contour(_circles(np.array([center], float), np.array([normal], float), radius,
                            segments))


def _circles(centers, normals, radius, segments):
    """(N, segments, 3): circles of ``radius`` about rows of centers, normal to rows of normals.

    Bit-identical to one circle at a time: ``np.linalg.norm`` of one vector is a BLAS dot,
    which stacked (1 x 3) @ (3 x 1) products call per row; all else is elementwise.
    """
    def unit(v):
        return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]

    n = unit(normals)
    seed = np.where(np.abs(n[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = unit(seed - (seed * n).sum(axis=1, keepdims=True) * n)  # the sum is n_x or n_y exactly
    w = np.cross(n, u)
    t = 2.0 * np.pi * np.arange(_count("segments", segments, 3)) / segments
    return centers[:, None] + radius * (np.cos(t)[:, None] * u[:, None]
                                        + np.sin(t)[:, None] * w[:, None])


def stadium_contour(a=10.0, r=1.0, cap_segments=64, side_segments=64) -> Contour:
    """Two parallel segments of length ``a`` capped by semicircles of radius ``r``.

    Perimeter 2a + 2*pi*r, diameter a + 2r; spans a planar minimal surface, so
    it is the canonical silent case for all nonexistence criteria.
    """
    pts = []
    cap_segments = _count("cap_segments", cap_segments, 1)
    xs = np.linspace(-a / 2.0, a / 2.0, _count("side_segments", side_segments, 1),
                     endpoint=False)
    pts += [(x, -r, 0.0) for x in xs]
    th = np.linspace(-np.pi / 2.0, np.pi / 2.0, cap_segments, endpoint=False)
    pts += [(a / 2.0 + r * np.cos(t), r * np.sin(t), 0.0) for t in th]
    pts += [(x, r, 0.0) for x in -xs]
    th = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, cap_segments, endpoint=False)
    pts += [(-a / 2.0 + r * np.cos(t), r * np.sin(t), 0.0) for t in th]
    return Contour([np.array(pts)])


def coaxial_circles_contour(radius=1.0, half_gap=2.0, segments=360) -> Contour:
    """Two circles of the same radius in the planes z = +-half_gap (catenoid wires)."""
    if not half_gap > 0:
        raise ValueError(f"half_gap must be positive, got {half_gap!r}")
    return Contour(_circles(np.array([[0.0, 0.0, half_gap], [0.0, 0.0, -half_gap]]),
                            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), radius, segments))


# -- spherical point sets -----------------------------------------------------


@dataclass
class SphericalPointSet:
    """Finite set on the unit sphere with an exact packing radius, computed on first use.

    ``covering_radius`` is left unset by the constructor; a set returned by
    ``fibonacci_net`` carries the exact value from ``covering_radius_exact``.
    """

    points: np.ndarray
    covering_radius: float | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        norms = np.linalg.norm(p, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # NaN too
            raise ValueError("points must lie on the unit sphere to 1e-12")
        self.points = p

    @cached_property
    def packing_radius(self):
        """Half the minimum pairwise geodesic distance; exact.

        The shortest chord is the least among the pairs within r
        (``pairs_within``), with r = _PACKING_REACH / sqrt(n) doubled until
        some pair is: n disjoint caps fit on S^2 only with chords below about
        3.81 / sqrt(n), so the first search nearly always finds one.
        """
        p = self.points
        if len(p) < 2:
            return float("inf")
        r = _PACKING_REACH / math.sqrt(len(p))
        i, j = pairs_within(p, r)
        while not len(i):
            r *= 2.0
            i, j = pairs_within(p, r)
        return _least_half_angle(p, i, j)

    def __len__(self):
        return len(self.points)


def _least_half_angle(p, i, j):
    """arcsin(chord / 2) of the shortest chord among the pairs (i, j): half its angle."""
    diff = p[i] - p[j]
    return float(np.arcsin(min(1.0, np.sqrt(np.einsum("ij,ij->i", diff, diff).min()) / 2.0)))


def fibonacci_sphere(n) -> np.ndarray:
    """Deterministic near-uniform spiral sample of S^2."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    p = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return p / np.linalg.norm(p, axis=1)[:, None]


def covering_radius_exact(X: SphericalPointSet) -> float:
    """Max geodesic distance from any point of S^2 to its nearest set point; exact.

    The farthest point is a spherical Voronoi vertex. Unless the set lies in a
    closed hemisphere, each is a hull facet's outward normal, whose nearest set
    points are that facet's vertices at its offset h as dot product (K. Q.
    Brown, "Voronoi diagrams from convex hulls", IPL 9(5), 1979); so the
    supremum is arccos of the smallest offset. The facets are found among the
    neighbour pairs within r (``pairs_within``), r = _COVERING_REACH / sqrt(n)
    doubled until ``_least_facet_offset`` accepts a set of them. Past r =
    2 (1 + 1e-11) every pair is a neighbour pair, and every hull facet is
    found unless some facet's plane passes through or beyond the centre:
    then the points lie in a closed hemisphere and the covering radius is at
    least pi/2, so ValueError, as for points in one plane or repeated to
    1e-6. The first pairs hold the shortest chord when they are not empty,
    so they set the packing radius of X too.
    """
    p = X.points
    if len(p) < 4 or np.linalg.matrix_rank(p - p[0], tol=1e-6) < 3:
        raise ValueError("points lie in one plane; the covering radius needs a 3-d hull")
    r = _COVERING_REACH / math.sqrt(len(p))
    i, j = pairs_within(p, r)
    if len(i):  # the shortest chord is among the pairs: X's packing radius, kept on X
        X.packing_radius = _least_half_angle(p, i, j)
        if X.packing_radius < 5e-7:
            raise ValueError("repeated points; the covering radius needs distinct points")
    while (h := _least_facet_offset(p, i, j, r)) is None:
        if r > 2.0 * (1.0 + 1e-11):
            raise ValueError("points lie in a closed hemisphere; covering radius is at "
                             "least pi/2")
        r *= 2.0
        i, j = pairs_within(p, r)
    return float(np.arccos(min(1.0, h)))


def _least_facet_offset(p, i, j, r):
    """The least plane offset h of a verified set of hull facets, or None.

    ``p`` is the set, (i, j) its pairs within r. Each directed neighbour
    edge (a, b) proposes the triangle (a, b, k) with k the neighbour of a on
    its left (det(p_a, p_b, p_k) > 0) of least angle at the chord: gift
    wrapping from the plane that touches the sphere at the chord's
    midpoint. A triangle is kept when h > 0; when its cap, the points of the
    unit ball beyond its plane, has chord diameter 2 sqrt(1 - h^2) <= r, so
    any point beyond the plane is a neighbour of its vertex a; and when no
    neighbour of a lies beyond the plane by more than _COPLANAR. The kept
    set is accepted once every directed edge of a kept triangle occurs
    reversed in another; then their cones cover S^2. Every kept triangle
    turns positively about the centre (h > 0), so across each of its edges
    the triangle holding the reversed edge lies on the other side, and the
    triangles met in turn about a vertex close a full turn, each turning
    one way by less than pi. The union of the cones is thus open as well as
    closed on S^2, so all of it; this holds with ties such as the cube's,
    whose faces the edges may split either way.

    Why the least h over that set is the hull's: a direction in a kept
    triangle's cone is no farther from the triangle's vertices than arccos
    h, the spherical circumradius, so the covering radius is at most
    arccos of the least kept h. The normal of a kept triangle is at least
    arccos(h + _COPLANAR) from every point, so it is at least that too,
    and the hull's least facet, which its edges propose, is kept.
    """
    n = len(p)
    if not len(i):
        return None
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    # each vertex's neighbours in a row, padded with the vertex itself
    nbr = np.repeat(np.arange(n), deg.max()).reshape(n, -1)
    nbr[src, np.arange(len(src)) - (np.cumsum(deg) - deg)[src]] = dst
    width, tris = nbr.shape[1], []
    step = max(1, _FACET_ENTRIES // width**2)
    for v0 in range(0, n, step):
        nb, v = nbr[v0:v0 + step], np.arange(v0, min(n, v0 + step))
        pv, pn = p[v0:v0 + len(nb), None, :], np.take(p, nb, axis=0)
        mid = 0.5 * (pv + pn)  # of each chord (v, b), b in row b of nb
        # (v, b, k) by row b and column k: the tangent of the angle from the plane
        # touching the sphere at mid, times |mid| / |p_v x p_b| (the same along a row)
        rise = np.einsum("vbi,vbi->vb", mid, mid)[:, :, None] - mid @ pn.transpose(0, 2, 1)
        run = np.cross(pv, pn) @ pn.transpose(0, 2, 1)  # > 0 for k on the left of (v, b)
        real = nb != v[:, None]
        ok = (run > 0.0) & real[:, None, :] & ~np.eye(width, dtype=bool)
        slope = np.divide(rise, run, out=np.full(run.shape, np.inf), where=ok)
        best = slope.argmin(axis=2)
        has = real & np.isfinite(np.take_along_axis(slope, best[:, :, None], axis=2)[:, :, 0])
        tris.append(np.column_stack([np.broadcast_to(v[:, None], nb.shape)[has], nb[has],
                                     np.take_along_axis(nb, best, axis=1)[has]]))
    a, b, c = np.concatenate(tris).T
    # each triangle from its least vertex, once
    first_b, first_c = (b < a) & (b < c), (c < a) & (c < b)
    a, b, c = (np.where(first_b, b, np.where(first_c, c, a)),
               np.where(first_b, c, np.where(first_c, a, b)),
               np.where(first_b, a, np.where(first_c, b, c)))
    order = np.lexsort((c, a * n + b))
    a, b, c = a[order], b[order], c[order]
    once = np.append(True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1]))
    a, b, c = a[once], b[once], c[once]
    pa = np.take(p, a, axis=0)
    normal = np.cross(np.take(p, b, axis=0) - pa, np.take(p, c, axis=0) - pa)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    h = np.einsum("ij,ij->i", normal, pa)
    # 1e-11 covers points off the unit sphere by up to 1e-12
    keep = (h > 0.0) & (4.0 * (1.0 + 1e-11 - h * h) <= r * r * (1.0 - 1e-9))
    a, b, c, normal, h = a[keep], b[keep], c[keep], normal[keep], h[keep]
    beyond = (np.take(p, nbr[a], axis=0) @ normal[:, :, None])[:, :, 0].max(axis=1) - h
    keep = beyond <= _COPLANAR
    a, b, c, h = a[keep], b[keep], c[keep], h[keep]
    if not len(h):
        return None
    edges = np.sort(np.concatenate([a * n + b, b * n + c, c * n + a]))
    back = np.concatenate([b * n + a, c * n + b, a * n + c])
    found = edges[np.minimum(np.searchsorted(edges, back), len(edges) - 1)] == back
    return float(h.min()) if found.all() else None


def fibonacci_net(target_epsilon, max_points=10**6) -> SphericalPointSet:
    """Spiral net whose exact covering radius is <= target.

    On spirals covering radius * sqrt(n) is about 2.73, so the search starts
    at n = (2.73 / target)^2 and steps by one point to an n that covers within
    target while n - 1 points do not; the set carries that exact radius.
    ValueError before a set above ``max_points`` is built. The packing floor
    is relaxed to target/4 (spirals can miss the ideal target/2); the
    measured packing radius is reported on the set, not assumed.
    """
    if not 0.0 < target_epsilon <= 0.5:
        raise ValueError("target_epsilon must be in (0, 0.5]")

    def net(n):
        if n > max_points:
            raise ValueError(f"no feasible net below {max_points} points")
        X = SphericalPointSet(fibonacci_sphere(n))
        X.covering_radius = covering_radius_exact(X)
        return X

    X = net(round((2.73 / target_epsilon) ** 2))
    while X.covering_radius > target_epsilon:
        X = net(len(X) + 1)
    while (fewer := net(len(X) - 1)).covering_radius <= target_epsilon:
        X = fewer
    return X


def sphere_circles(X: SphericalPointSet, radius, segments=64) -> Contour:
    """Geodesic circles of the given geodesic radius about each point of X.

    Each circle is the boundary of a geodesic cap: a Euclidean circle of
    radius sin(radius) in the plane at height cos(radius) along the center.
    The radius must be positive, and disjointness requires radius < packing
    radius.
    """
    if not radius > 0.0:  # NaN too
        raise ValueError(f"radius {radius} must be positive")
    if radius >= X.packing_radius:
        raise ValueError(
            f"radius {radius} >= packing radius {X.packing_radius}; circles would meet"
        )
    _count("segments", segments, 16)
    return Contour(_circles(math.cos(radius) * X.points, X.points, math.sin(radius),
                            segments))


def antipodal_point_set() -> SphericalPointSet:
    return SphericalPointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


# -- library dispatcher -------------------------------------------------------

SHAPE_BUILDERS = {
    "disk": flat_disk,
    "icosphere": icosphere,
    "hemisphere": hemisphere,
    "capped-cylinder": capped_cylinder,
    "open-cylinder": open_cylinder,
    "square": square_grid,
    "circle": circle_contour,
    "stadium": stadium_contour,
    "coaxial-circles": coaxial_circles_contour,
}


def shape_library(name, **params):
    """Build a named reference mesh or contour."""
    if name not in SHAPE_BUILDERS:
        known = ", ".join(sorted(SHAPE_BUILDERS))
        raise ValueError(f"unknown shape '{name}' (known: {known})")
    return SHAPE_BUILDERS[name](**params)


def closed_library_meshes():
    """The closed shapes every 'holds on all closed library shapes' suite runs on."""
    return {
        "icosphere3": icosphere(3),
        "icosphere4": icosphere(4),
        "capped_cylinder_1_20": capped_cylinder(1.0, 20.0),
        "capped_cylinder_0.5_4": capped_cylinder(0.5, 4.0, segments=48, rings_cap=10),
    }
