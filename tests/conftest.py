import itertools
import os
import pathlib
import sys

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial import SphericalVoronoi, cKDTree

try:
    import curvebound  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from curvebound import generators as gen
from curvebound.contour import (Contour, ContourError, component_pair_distances,
                                segment_segment_distance)
from curvebound.curvature import _curvature_weights
from curvebound.mesh import DIAMETER_TOL, SurfaceMesh, geodesic_distances

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized unless HYPOTHESIS_PROFILE=default asks for fresh examples
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def random_rotation(seed, dim=3):
    """Deterministic random rotation matrix with det +1."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def all_pairs_eccentricities(mesh, sources=None, rows=512):
    """Row maxima of the undirected Dijkstra matrix, in row blocks: all rows, or ``sources``'."""
    graph = mesh.vertex_adjacency()
    sources = np.arange(mesh.n_vertices) if sources is None else np.asarray(sources)
    return np.concatenate([csgraph.dijkstra(graph, directed=False, indices=sources[i0:i0 + rows])
                           .max(axis=1) for i0 in range(0, len(sources), rows)])


def assert_brackets_all_pairs(mesh, bracket):
    """``bracket`` holds the all-pairs max, its lower end is one of the row maxima,
    and it is no wider than DIAMETER_TOL and a rounding slack. Returns the row maxima."""
    lower, upper = bracket
    ecc = all_pairs_eccentricities(mesh)
    assert lower <= ecc.max() <= upper
    assert lower in ecc
    assert upper <= lower * (1.0 + DIAMETER_TOL) * (1.0 + 1e-9)
    return ecc


def holomorphic_graph(disk, powers):
    """The graph (z, z^p / 2 for p in powers) over a planar disk mesh, in R^(2 + 2 len(powers)).

    A holomorphic graph is a minimal surface in C^k = R^2k (Lawson, Lectures
    on Minimal Submanifolds), so H = 0 exactly, and for p >= 2 its normal
    bundle along the boundary circle is curved.
    """
    z = disk.vertices[:, 0] + 1j * disk.vertices[:, 1]
    cols = [z.real, z.imag] + [part for p in powers for part in ((z**p / 2).real,
                                                                 (z**p / 2).imag)]
    return SurfaceMesh(np.column_stack(cols), disk.triangles)


def max_orthogonality_defect(frame):
    """Largest deviation of the Gram matrix of (e1, e2, e3) from I over the samples."""
    e = np.stack([frame.e1, frame.e2, frame.e3], axis=1)
    return float(np.abs(e @ e.transpose(0, 2, 1) - np.eye(3)).max())


def section_steps(frame):
    """|e3[j+1] - e3[j]| around the loop; the last entry is the step across the seam."""
    return np.linalg.norm(np.roll(frame.e3, -1, axis=0) - frame.e3, axis=1)


def connected_oracle(mesh):
    """One csgraph component over the triangles' edges; False without vertices."""
    n, t = mesh.n_vertices, mesh.triangles
    graph = csr_matrix((np.ones(t.size), (t.ravel(), t[:, [1, 2, 0]].ravel())),
                       shape=(n, n))
    return n > 0 and csgraph.connected_components(graph, directed=False)[0] == 1


def _ball_integrals(dv, r, *weights):
    """Integral of each per-triangle weight array over the ball {d <= r}, one radius per call.

    ``dv`` (T, 3) holds the corner distances. Each triangle keeps the part
    where the linear interpolant of its corner values is <= r: with one
    corner out, all but the corner triangle cut off at the two crossings;
    with one corner in, that corner triangle.
    """
    inside = dv <= r
    n_in = inside.sum(axis=1)

    cut = np.nonzero(n_in == 2)[0]
    out_corner = np.argmin(inside[cut], axis=1)
    da = dv[cut, out_corner]
    db = dv[cut, (out_corner + 1) % 3]
    dc = dv[cut, (out_corner + 2) % 3]
    kept = 1.0 - ((da - r) / (da - db)) * ((da - r) / (da - dc))

    corner = np.nonzero(n_in == 1)[0]
    in_corner = np.argmax(inside[corner], axis=1)
    da = dv[corner, in_corner]
    tb = (r - da) / (dv[corner, (in_corner + 1) % 3] - da)
    tc = (r - da) / (dv[corner, (in_corner + 2) % 3] - da)

    # w[corner] * tb * tc runs left to right; w * (tb * tc) would round differently
    return [float(w[n_in == 3].sum()) + float((w[cut] * kept).sum())
            + float((w[corner] * tb * tc).sum()) for w in weights]


def intrinsic_ball_volume(mesh, p, r, distances=None):
    """Area of the intrinsic ball B(p, r), one radius per call.

    Triangles fully inside the distance-r sublevel set count whole; partially
    covered triangles contribute the area of the sublevel region of the linear
    interpolant of the vertex distance field. Monotone nondecreasing in r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    d = geodesic_distances(mesh, p) if distances is None else distances
    return _ball_integrals(d[mesh.triangles], r, mesh.triangle_areas())[0]


def curvature_in_ball(mesh, field, distances, r):
    """Integral of |H| over the intrinsic ball of radius r, one radius per call.

    A per-triangle density (corner average of |H_v|, boundary corners
    excluded) times the ball-clipped triangle area, so it is consistent with
    ``intrinsic_ball_volume`` and monotone in r.
    """
    return _ball_integrals(distances[mesh.triangles], r,
                           _curvature_weights(mesh, field))[0]


def tau_root_bisection(lo=1.0, hi=1.5, tol=1e-10) -> float:
    """Independent bisection oracle for the root of cosh(tau) = tau*sinh(tau)."""
    g = lambda t: np.cosh(t) - t * np.sinh(t)
    if g(lo) <= 0 or g(hi) >= 0:
        raise ValueError("bisection bracket does not straddle the root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_pair_distance(c: Contour, i, j) -> float:
    """Min of ``segment_segment_distance`` over all segment pairs of components i, j."""
    pi, pj = c.components[i], c.components[j]
    di, dj = np.roll(pi, -1, axis=0) - pi, np.roll(pj, -1, axis=0) - pj
    return float(segment_segment_distance(pi[:, None], di[:, None], pj[None], dj[None]).min())


def component_distance_matrix(c: Contour) -> np.ndarray:
    """Symmetric matrix of ``component_pair_distances`` over all pairs i < j."""
    n = c.n_components
    if n < 2:
        raise ContourError("need at least 2 components for a distance matrix")
    ii, jj = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[ii, jj] = d[jj, ii] = component_pair_distances(c, ii, jj)
    return d


def white_bruteforce_oracle(c_or_matrix) -> float:
    """Exhaustive bottleneck over all 2^(N-1) - 1 bipartitions, N <= 12."""
    if isinstance(c_or_matrix, Contour):
        d = component_distance_matrix(c_or_matrix)
    else:
        d = np.asarray(c_or_matrix, dtype=float)
    n = len(d)
    if not 2 <= n <= 12:
        raise ValueError("brute-force oracle supports 2..12 components")
    best = -np.inf
    items = list(range(1, n))
    for r in range(0, n - 1):
        for rest in itertools.combinations(items, r):
            side = (0,) + rest
            other = tuple(i for i in range(n) if i not in side)
            cross = d[np.ix_(side, other)].min()
            best = max(best, cross)
    return float(best)


def covering_radius_voronoi(X) -> float:
    """Covering radius as the max over the spherical Voronoi vertices' nearest-site distances.

    Raises ValueError for points in one plane or repeated to 1e-6 (from
    SphericalVoronoi) and for a radius above pi/2 (an open hemisphere).
    """
    vertices = SphericalVoronoi(X.points).vertices
    chord, _ = cKDTree(X.points).query(vertices, k=1)
    radius = float(2.0 * np.arcsin(min(1.0, chord.max() / 2.0)))
    if radius > np.pi / 2.0:
        raise ValueError("points lie in an open hemisphere; covering radius exceeds pi/2")
    return radius


def circle_points(center, normal, radius, segments):
    """One circle of ``segments`` points about ``center``, normal to ``normal``, alone."""
    n = normal / np.linalg.norm(normal)
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = seed - np.dot(seed, n) * n
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    t = 2.0 * np.pi * np.arange(segments) / segments
    return center + radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), w))


def white_candidates_prim(c: Contour):
    """White's candidate pairs (i < j, by i then j) from a dense Prim pass over the UB graph.

    t* is the longest edge of the UB graph's minimum spanning tree, grown one
    row at a time; a pair is a candidate when LB = |c_i - c_j| - r_i - r_j
    <= t* + 1e-12 * (t* + r_i + r_j), tested one row of pairs at a time.
    """
    n = c.n_components
    cents = np.array([comp.mean(axis=0) for comp in c.components])
    radii = np.array([np.linalg.norm(comp - m, axis=1).max()
                      for comp, m in zip(c.components, cents)])
    ub, done, t_star = np.where(np.arange(n) == 0, 0.0, np.inf), np.zeros(n, dtype=bool), 0.0
    for _ in range(n):
        j = int(np.argmin(np.where(done, np.inf, ub)))
        done[j], t_star = True, max(t_star, float(ub[j]))
        ub = np.minimum(ub, np.linalg.norm(cents[j] - cents, axis=1) + (radii[j] + radii))
    near = []
    for i in range(n - 1):
        cd, rr = np.linalg.norm(cents[i] - cents[i + 1:], axis=1), radii[i] + radii[i + 1:]
        near.append(np.nonzero(cd - rr <= t_star + 1e-12 * (t_star + rr))[0] + i + 1)
    return np.repeat(np.arange(n - 1), [len(k) for k in near]), np.concatenate(near)


def eager_cone_splits(search, u):
    """Every threshold split along u as (q, upper components, end points), by descending q."""
    z = search.pts @ u
    (lo, lo_at), (hi, hi_at) = (search._extremes(z, np.minimum),
                                search._extremes(z, np.maximum))
    order = np.argsort(lo, kind="stable")
    top = np.maximum.accumulate(hi[order])
    top_at = order[np.maximum.accumulate(np.where(hi[order] == top, np.arange(len(lo)), 0))]
    gaps = np.nonzero(lo[order[1:]] > top[:-1])[0]
    d = search.pts[lo_at[order[gaps + 1]]] - search.pts[hi_at[top_at[gaps]]]
    q = 0.5 * (search.s * (d @ u) - np.linalg.norm(d - np.outer(d @ u, u), axis=1))
    return [(q[k], order[j + 1:], np.concatenate([lo_at[order[j + 1:]], hi_at[order[:j + 1]]]))
            for k, j in sorted(enumerate(gaps), key=lambda kj: -q[kj[0]])]


def touching_contours():
    """Contours whose components 0 and 1 touch, by name.

    shared-vertex: a unit 64-gon, a 64-gon of radius 2^-7 sharing its vertex
    (1, 0, 0), and another small 64-gon 0.1 away on the far side (White used
    to certify it); coincident: two equal circles; crossing: two squares
    whose edges cross at (1, 0, 0), inside both edges.
    """
    r = 2.0 ** -7
    return {
        "shared-vertex": Contour([gen.circle_contour(radius, 64, center).components[0]
                                  for radius, center in ((1.0, (0, 0, 0)),
                                                         (r, (1 - r, 0, 0)),
                                                         (r, (-1.1 - r, 0, 0)))]),
        "coincident": Contour(2 * gen.circle_contour(1.0, 64).components),
        "crossing": Contour([[(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)],
                             [(1, 0, -0.5), (2, 0, -0.5), (2, 0, 0.5), (1, 0, 0.5)]]),
    }


def icosphere_loop(subdivisions, radius=1.0):
    """(vertices, faces) of ``gen.icosphere`` built one edge midpoint at a time through a dict."""
    verts = list(map(tuple, gen._ICO_VERTS / np.linalg.norm(gen._ICO_VERTS[0])))
    faces = gen._ICO_FACES
    for _ in range(subdivisions):
        cache = {}

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                m = (np.array(verts[a]) + np.array(verts[b])) / 2.0
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(tuple(m))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.array(new_faces, dtype=np.int64)
    verts = np.array(verts)
    return verts / np.linalg.norm(verts, axis=1)[:, None] * radius, faces


def boundary_library_meshes():
    """Library meshes with nonempty boundary."""
    return {
        "disk": gen.flat_disk(1.0, 24, 96),
        "hemisphere": gen.hemisphere(24, 96),
        "open_cylinder": gen.open_cylinder(1.0, 4.0),
        "small_disk": gen.flat_disk(0.5, 12, 48),
    }


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
