"""Reference meshes, contours and spherical point sets used across the toolkit.

All meshes come out consistently oriented and pass ``mesh.validate``; all
contours satisfy the contour invariants.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import SphericalVoronoi, cKDTree

from .contour import Contour
from .mesh import SurfaceMesh

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


# -- meshes -------------------------------------------------------------------


def flat_disk(radius=1.0, rings=24, segments=96) -> SurfaceMesh:
    """Planar disk in the z = 0 plane: polar grid, boundary = outer ring.

    Spoke edges run straight through the center, so edge-graph distances from
    the center vertex are exact.
    """
    if rings < 1 or segments < 3:
        raise ValueError("need rings >= 1 and segments >= 3")
    ang = 2.0 * np.pi * np.arange(segments) / segments
    verts = [np.zeros(3)]
    for i in range(1, rings + 1):
        r = radius * i / rings
        ring = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(segments)])
        verts.append(ring)
    vertices = np.vstack(verts)

    tris = []
    for j in range(segments):
        jn = (j + 1) % segments
        tris.append([0, 1 + j, 1 + jn])
    for i in range(1, rings):
        a = 1 + (i - 1) * segments
        b = 1 + i * segments
        for j in range(segments):
            jn = (j + 1) % segments
            tris.append([a + j, b + j, b + jn])
            tris.append([a + j, b + jn, a + jn])
    return SurfaceMesh(vertices, np.array(tris, dtype=np.int64))


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
    for _ in range(subdivisions):
        verts, faces = _subdivide_midpoint(verts, faces)
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    return SurfaceMesh(verts * radius, faces)


def _subdivide_midpoint(verts, faces):
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            pa, pb = np.array(verts[a]), np.array(verts[b])
            m = (pa + pb) / 2.0
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(tuple(m))
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.array(verts), np.array(new_faces, dtype=np.int64)


def hemisphere(rings=24, segments=96, radius=1.0) -> SurfaceMesh:
    """Upper unit hemisphere (z >= 0) with the equator as its boundary loop."""
    ang = 2.0 * np.pi * np.arange(segments) / segments
    verts = [np.array([0.0, 0.0, radius])]
    for i in range(1, rings + 1):
        theta = (np.pi / 2.0) * i / rings  # polar angle from the north pole
        ring = np.column_stack(
            [
                radius * np.sin(theta) * np.cos(ang),
                radius * np.sin(theta) * np.sin(ang),
                np.full(segments, radius * np.cos(theta)),
            ]
        )
        verts.append(ring)
    vertices = np.vstack(verts)
    tris = []
    for j in range(segments):
        jn = (j + 1) % segments
        tris.append([0, 1 + j, 1 + jn])
    for i in range(1, rings):
        a = 1 + (i - 1) * segments
        b = 1 + i * segments
        for j in range(segments):
            jn = (j + 1) % segments
            tris.append([a + j, b + j, b + jn])
            tris.append([a + j, b + jn, a + jn])
    return SurfaceMesh(vertices, np.array(tris, dtype=np.int64))


def capped_cylinder(radius=1.0, length=20.0, segments=64, rings_lateral=None,
                    rings_cap=12) -> SurfaceMesh:
    """Closed cylinder of given lateral length with hemispherical end caps.

    Axis along z, caps centered at z = +-(length/2); the two pole vertices sit
    at z = +-(length/2 + radius), so the vertex diameter is length + 2*radius.
    """
    if rings_lateral is None:
        rings_lateral = max(8, int(round(length / (2.0 * np.pi * radius / segments))))
    ang = 2.0 * np.pi * np.arange(segments) / segments
    half = length / 2.0

    profile = []  # (r, z) rows from south pole (exclusive) to north pole (exclusive)
    for i in range(1, rings_cap + 1):
        theta = (np.pi / 2.0) * i / rings_cap
        profile.append((radius * np.sin(theta), -half - radius * np.cos(theta)))
    for i in range(1, rings_lateral):
        profile.append((radius, -half + length * i / rings_lateral))
    for i in range(rings_cap, 0, -1):
        theta = (np.pi / 2.0) * i / rings_cap
        profile.append((radius * np.sin(theta), half + radius * np.cos(theta)))

    verts = [np.array([0.0, 0.0, -half - radius])]
    for r, z in profile:
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang), np.full(segments, z)]))
    verts.append(np.array([0.0, 0.0, half + radius]))
    vertices = np.vstack([verts[0][None, :], *verts[1:-1], verts[-1][None, :]])

    south, north = 0, len(vertices) - 1
    tris = []
    for j in range(segments):
        jn = (j + 1) % segments
        tris.append([south, 1 + jn, 1 + j])
    n_rows = len(profile)
    for i in range(n_rows - 1):
        a = 1 + i * segments
        b = 1 + (i + 1) * segments
        for j in range(segments):
            jn = (j + 1) % segments
            tris.append([a + j, a + jn, b + j])
            tris.append([a + jn, b + jn, b + j])
    a = 1 + (n_rows - 1) * segments
    for j in range(segments):
        jn = (j + 1) % segments
        tris.append([north, a + j, a + jn])
    return SurfaceMesh(vertices, np.array(tris, dtype=np.int64))


def open_cylinder(radius=1.0, length=4.0, segments=64, rings=None) -> SurfaceMesh:
    """Lateral cylinder surface only: two boundary circles."""
    if rings is None:
        rings = max(4, int(round(length / (2.0 * np.pi * radius / segments))))
    ang = 2.0 * np.pi * np.arange(segments) / segments
    rows = []
    for i in range(rings + 1):
        z = -length / 2.0 + length * i / rings
        rows.append(np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                                     np.full(segments, z)]))
    vertices = np.vstack(rows)
    tris = []
    for i in range(rings):
        a = i * segments
        b = (i + 1) * segments
        for j in range(segments):
            jn = (j + 1) % segments
            tris.append([a + j, a + jn, b + j])
            tris.append([a + jn, b + jn, b + j])
    return SurfaceMesh(vertices, np.array(tris, dtype=np.int64))


def square_grid(n=32, size=1.0) -> SurfaceMesh:
    """Flat square [0, size]^2 as an n x n grid, each cell split on one diagonal."""
    xs = np.linspace(0.0, size, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.zeros((n + 1) ** 2)])
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = a + 1
            c = a + (n + 1)
            d = c + 1
            tris.append([a, c, b])
            tris.append([b, c, d])
    return SurfaceMesh(vertices, np.array(tris, dtype=np.int64))


def embed_in_r4(mesh: SurfaceMesh) -> SurfaceMesh:
    """Pad a 3D mesh with a zero fourth coordinate."""
    v = np.column_stack([mesh.vertices, np.zeros(mesh.n_vertices)])
    return SurfaceMesh(v, mesh.triangles)


# -- contours -----------------------------------------------------------------


def circle_contour(radius=1.0, segments=360, center=(0, 0, 0), normal=(0, 0, 1)) -> Contour:
    pts = _circle_points(np.asarray(center, float), np.asarray(normal, float),
                         radius, segments)
    return Contour([pts])


def _circle_points(center, normal, radius, segments):
    n = normal / np.linalg.norm(normal)
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = seed - np.dot(seed, n) * n
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    t = 2.0 * np.pi * np.arange(segments) / segments
    return center + radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), w))


def stadium_contour(a=10.0, r=1.0, cap_segments=64, side_segments=64) -> Contour:
    """Two parallel segments of length ``a`` capped by semicircles of radius ``r``.

    Perimeter 2a + 2*pi*r, diameter a + 2r; spans a planar minimal surface, so
    it is the canonical silent case for all nonexistence criteria.
    """
    pts = []
    xs = np.linspace(-a / 2.0, a / 2.0, side_segments, endpoint=False)
    pts += [(x, -r, 0.0) for x in xs]
    th = np.linspace(-np.pi / 2.0, np.pi / 2.0, cap_segments, endpoint=False)
    pts += [(a / 2.0 + r * np.cos(t), r * np.sin(t), 0.0) for t in th]
    pts += [(x, r, 0.0) for x in -xs]
    th = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, cap_segments, endpoint=False)
    pts += [(-a / 2.0 + r * np.cos(t), r * np.sin(t), 0.0) for t in th]
    return Contour([np.array(pts)])


def coaxial_circles_contour(radius=1.0, half_gap=2.0, segments=360) -> Contour:
    """Two circles of the same radius in the planes z = +-half_gap (catenoid wires)."""
    top = _circle_points(np.array([0.0, 0.0, half_gap]), np.array([0.0, 0.0, 1.0]),
                         radius, segments)
    bot = _circle_points(np.array([0.0, 0.0, -half_gap]), np.array([0.0, 0.0, 1.0]),
                         radius, segments)
    return Contour([top, bot])


# -- spherical point sets -----------------------------------------------------


@dataclass
class SphericalPointSet:
    """Finite set on the unit sphere with an exact packing radius.

    ``covering_radius`` is left unset by the constructor; a set returned by
    ``fibonacci_net`` carries the exact value from ``covering_radius_exact``.
    """

    points: np.ndarray
    packing_radius: float = field(init=False)
    covering_radius: float | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        norms = np.linalg.norm(p, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("points must lie on the unit sphere to 1e-12")
        self.points = p
        self.packing_radius = _packing_radius(p)

    def __len__(self):
        return len(self.points)


def _packing_radius(points):
    """Half the minimum pairwise geodesic distance, arcsin(chord / 2) of the
    shortest nearest-neighbour chord; exact."""
    if len(points) < 2:
        return float("inf")
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.arcsin(min(1.0, dist[:, 1].min() / 2.0)))


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

    Unless the set lies in an open hemisphere, the farthest point from it is a
    vertex of its spherical Voronoi diagram, so the supremum is the max over
    those vertices. The set lies in an open hemisphere exactly when that max
    exceeds pi/2; then the farthest point can sit inside a Voronoi edge, and
    this raises ValueError, as it does for repeated points or points that all
    lie in one plane.
    """
    vertices = SphericalVoronoi(X.points).vertices
    chord, _ = cKDTree(X.points).query(vertices, k=1)
    radius = float(2.0 * np.arcsin(min(1.0, chord.max() / 2.0)))
    if radius > math.pi / 2.0:
        raise ValueError("points lie in an open hemisphere; covering radius exceeds pi/2")
    return radius


def fibonacci_net(target_epsilon, max_points=10**6) -> SphericalPointSet:
    """Spiral net whose exact covering radius is <= target.

    Doubling then bisection on the spiral size n ends at an n whose net
    covers within target while n - 1 points do not; the returned set carries
    that exact covering radius. The packing floor is relaxed to target/4
    (deterministic spirals can miss the ideal target/2); the measured packing
    radius is reported on the returned set rather than silently assumed.
    """
    if not 0.0 < target_epsilon <= 0.5:
        raise ValueError("target_epsilon must be in (0, 0.5]")

    def covers(n):
        X = SphericalPointSet(fibonacci_sphere(n))
        X.covering_radius = covering_radius_exact(X)
        return X if X.covering_radius <= target_epsilon else None

    lo, hi = 2, 16
    while True:
        if hi > max_points:
            raise ValueError(f"no feasible net below {max_points} points")
        X = covers(hi)
        if X is not None:
            break
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = covers(mid)
        if found is None:
            lo = mid
        else:
            hi, X = mid, found
    X.meets_packing_floor = X.packing_radius >= target_epsilon / 4.0
    return X


def sphere_circles(X: SphericalPointSet, radius, segments=64) -> Contour:
    """Geodesic circles of the given geodesic radius about each point of X.

    Each circle is the boundary of a geodesic cap: a Euclidean circle of
    radius sin(radius) in the plane at height cos(radius) along the center.
    Disjointness requires radius < packing radius.
    """
    if radius >= X.packing_radius:
        raise ValueError(
            f"radius {radius} >= packing radius {X.packing_radius}; circles would meet"
        )
    if segments < 16:
        raise ValueError("need at least 16 segments per circle")
    comps = [
        _circle_points(math.cos(radius) * c, c, math.sin(radius), segments)
        for c in X.points
    ]
    return Contour(comps)


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


def boundary_library_meshes():
    """Library meshes with nonempty boundary."""
    return {
        "disk": flat_disk(1.0, 24, 96),
        "hemisphere": hemisphere(24, 96),
        "open_cylinder": open_cylinder(1.0, 4.0),
        "small_disk": flat_disk(0.5, 12, 48),
    }
