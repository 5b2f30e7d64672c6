import itertools
import json
import os
import pathlib
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial import SphericalVoronoi, cKDTree

try:
    import curvebound  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from curvebound import generators as gen
from curvebound.contour import (Contour, ContourError, component_pair_distances,
                                segment_segment_distance)
from curvebound.curvature import COT_CLAMP, _curvature_weights, mean_curvature_field
from curvebound.mesh import DIAMETER_TOL, SurfaceMesh, geodesic_distances
from curvebound.teardrop import (_FALL_CENTER, _RISE_CENTER, transition_function,
                                 transition_slope)

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


def reference_curvature_field(mesh):
    """Cotangent mean curvature vectors and mixed Voronoi areas, every array whole.

    All 6T signed edge terms (T triangles) are stacked into one array, corner
    by corner and a-end before b-end, and one np.bincount per coordinate adds
    them; cotangents and Voronoi pieces are whole-array expressions. Returns
    (vectors, areas).
    """
    tri, x = mesh.triangles, mesh.vertices
    sq, dot, gram = mesh.corner_gram()
    sin = np.sqrt(np.maximum(gram, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(sin > 0.0, dot / np.where(sin > 0.0, sin, 1.0), np.sign(dot) * np.inf)
    cots = np.clip(np.nan_to_num(c, nan=0.0, posinf=COT_CLAMP, neginf=-COT_CLAMP),
                   -COT_CLAMP, COT_CLAMP)

    a, b = tri[:, [1, 2, 0]].T, tri[:, [2, 0, 1]].T
    term = cots.T[:, :, None] * (x[a] - x[b])
    idx = np.stack([a, b], axis=1).ravel()
    terms = np.stack([term, -term], axis=1).reshape(len(idx), x.shape[1])
    lap = np.column_stack([np.bincount(idx, weights=col, minlength=len(x))
                           for col in terms.T])

    l2 = sq[:, [1, 2, 0]]
    obtuse = cots.min(axis=1) < 0.0
    lc = l2[~obtuse] * cots[~obtuse]
    voronoi = (lc[:, [2, 0, 1]] + lc[:, [1, 2, 0]]) / 8.0
    share = np.where(cots[obtuse] < 0.0, 0.5, 0.25) * mesh.triangle_areas()[obtuse, None]
    areas = np.bincount(np.concatenate([tri[~obtuse].T.ravel(), tri[obtuse].T.ravel()]),
                        weights=np.concatenate([voronoi.T.ravel(), share.T.ravel()]),
                        minlength=len(x))
    return lap / (4.0 * np.maximum(areas, 1e-300)[:, None]), areas


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


def reference_m_kappa(mesh, p, R, r_samples=50):
    """m and kappa from one curvature_in_ball and one intrinsic_ball_volume
    call per radius."""
    field = mean_curvature_field(mesh)
    d = geodesic_distances(mesh, p)
    m, kappa = -np.inf, np.inf
    for j in range(1, r_samples + 1):
        r = R * j / r_samples
        m = max(m, curvature_in_ball(mesh, field, d, r) / r)
        kappa = min(kappa, intrinsic_ball_volume(mesh, p, r, distances=d) / (r * r))
    return m, kappa


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


def dense_teardrop(k, circle_samples=4096):
    """The index-k teardrop resampled at uniform arclength, as (m, 2) points.

    Graph samples are interpolated from a 32,768-interval table of the graph
    x -> (x, f(x)/k) and its trapezoid arclength; the density per unit length
    puts at least ``circle_samples`` samples on the half-circle. Its turning
    carries rounding noise that grows with the density.
    """
    x = np.linspace(0.0, 1.0, 32769)
    speed = np.sqrt(1.0 + transition_slope(x) ** 2 / (k * k))
    s_graph = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(x))])
    graph_len = s_graph[-1]
    half_len = graph_len + (np.pi / 2.0) / k
    m = max(16, int(np.ceil(half_len * np.ceil(circle_samples * k / np.pi)))) + 1
    targets = np.linspace(0.0, half_len, m)
    n_graph = int(np.searchsorted(targets, graph_len, side="right"))
    upper = np.empty((m, 2))
    upper[:n_graph, 0] = np.interp(targets[:n_graph], s_graph, x)
    upper[:n_graph, 1] = np.interp(targets[:n_graph], s_graph, transition_function(x)) / k
    theta = np.pi / 2.0 - (targets[n_graph:] - graph_len) * k
    upper[n_graph:] = np.column_stack([1.0 + np.cos(theta) / k, np.sin(theta) / k])
    upper[-1] = (1.0 + 1.0 / k, 0.0)  # the apex, the symmetry midpoint, exactly
    pts = np.concatenate([upper, upper[-2::-1]])
    pts[m:, 1] *= -1.0
    pts[0] = pts[-1] = (0.0, 0.0)
    return pts


def teardrop_turning_closed_form(k) -> float:
    """pi + 4*atan(s_max/k), s_max the transition slope's maximum (at x = 1/2).

    The graph's slope f'/k rises from 0 to s_max/k and falls back, so each
    graph piece turns by 2*atan(s_max/k), and the half-circle by pi.
    """
    return np.pi + 4.0 * np.arctan(transition_slope(0.5) / k)


def teardrop_length_quad(k) -> float:
    """Length of the smooth index-k teardrop: 2*(graph length + pi/(2k)), the
    graph x -> (x, f(x)/k) integrated by scipy's adaptive quadrature."""
    graph, _ = quad(lambda x: np.sqrt(1.0 + (transition_slope(x) / k) ** 2), 0.0, 1.0,
                    points=(_RISE_CENTER, _FALL_CENTER), epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * (graph + (np.pi / 2.0) / k)


def brute_force_pair_distance(c: Contour, i, j) -> float:
    """Min of ``segment_segment_distance`` over all segment pairs of components i, j."""
    pi, pj = c.components[i], c.components[j]
    di, dj = np.roll(pi, -1, axis=0) - pi, np.roll(pj, -1, axis=0) - pj
    return float(segment_segment_distance(pi[:, None], di[:, None], pj[None], dj[None]).min())


def reference_segment_distance(p1, d1, p2, d2):
    """``segment_segment_distance`` as it stood before it read its coordinates
    as planes: stacked (..., 3) arrays and np.sum's dot products."""
    p1, d1, p2, d2 = (np.asarray(x, dtype=float) for x in (p1, d1, p2, d2))
    r = p1 - p2
    a = np.sum(d1 * d1, axis=-1)
    e = np.sum(d2 * d2, axis=-1)
    b = np.sum(d1 * d2, axis=-1)
    cc = np.sum(d1 * r, axis=-1)
    f = np.sum(d2 * r, axis=-1)
    denom = a * e - b * b
    safe = denom > 1e-14 * np.maximum(a * e, 1e-300)
    s = np.where(safe, (b * f - cc * e) / np.where(safe, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 0.0, (b * s + f) / np.where(e > 0.0, e, 1.0), 0.0)
    t_cl = np.clip(t, 0.0, 1.0)
    s = np.where(t != t_cl,
                 np.clip(np.where(a > 0.0, (t_cl * b - cc) / np.where(a > 0.0, a, 1.0), 0.0),
                         0.0, 1.0),
                 s)
    diff = r + s[..., None] * d1 - t_cl[..., None] * d2
    return np.sqrt(np.sum(diff * diff, axis=-1))


def reference_save_contour(c: Contour, path):
    """The contour writer as one ``json.dumps`` of the whole nested-list document."""
    doc = {"dimension": 3, "components": [{"vertices": a.tolist()} for a in c.components]}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def reference_load_contour(path) -> Contour:
    """The contour reader on the whole decoded document, every float a Python float."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("dimension") != 3:
        raise ContourError("contour documents are 3-dimensional")
    try:
        comps = [np.array(entry["vertices"], dtype=float) for entry in doc["components"]]
    except (KeyError, TypeError) as exc:
        raise ContourError(f"malformed contour document: {exc!r}") from exc
    if not comps:
        raise ContourError("contour document has no components")
    return Contour(comps)


def brute_force_diameter(points, rows=256):
    """The O(V^2) loop: squared differences accumulated in dimension order."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for i0 in range(0, len(p), rows):
        acc = np.zeros((len(p[i0:i0 + rows]), len(p)))
        for k in range(p.shape[1]):
            diff = p[i0:i0 + rows, None, k] - p[None, :, k]
            acc += diff * diff
        best = max(best, float(acc.max()))
    return float(np.sqrt(best))


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
    """Exhaustive bottleneck over all 2^(N-1) - 1 bipartitions, N <= 12.

    Takes a contour, a symmetric distance matrix, or a graph as a tuple
    (n, i, j, w) of edges (i[k], j[k]) of weight w[k]; a graph's absent
    edges weigh +inf, so the search sees only its edges.
    """
    if isinstance(c_or_matrix, Contour):
        d = component_distance_matrix(c_or_matrix)
    elif isinstance(c_or_matrix, tuple):
        n, i, j, w = c_or_matrix
        d = np.full((n, n), np.inf)
        d[i, j] = d[j, i] = w
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


def polygon_lp(search, u, upper):
    """The full polygon LP of an apex solve: rows (points x 32 sides), written afresh.

    Variables are the apex along u, e1, e2 and the slack t; the row of point p
    and side n reads sz*(u.p - a_u) - n.(P_u p - a_e) >= t, with sz = +-s
    by the nappe of p's component.
    """
    from curvebound.criteria import _SIDES, _frame

    angle = 2.0 * np.pi * np.arange(_SIDES) / _SIDES
    normals = np.column_stack([np.cos(angle), np.sin(angle)]) / np.cos(np.pi / _SIDES)
    sz = np.repeat(np.where(np.isin(np.arange(len(search.counts)), upper), search.s,
                            -search.s), search.counts)
    b = (sz * (search.pts @ u))[:, None] - search.pts @ _frame(u).T @ normals.T
    a = np.column_stack([np.repeat(sz, _SIDES), np.tile(-normals, (len(sz), 1)),
                         np.ones(b.size)])
    return a, b.ravel()


def polygon_lp_optimum(search, u, upper):
    """Optimal t of the full polygon LP, by scipy's HiGHS: the oracle of the dual simplex.

    HiGHS's default feasibility tolerances (1e-7) let its t sit 1e-7 off the
    optimum, so the oracle tightens them to 1e-10.
    """
    from scipy.optimize import linprog

    a, b = polygon_lp(search, u, upper)
    full = linprog([0.0, 0.0, 0.0, -1.0], A_ub=a, b_ub=b, bounds=(None, None), method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})
    assert full.status == 0
    return full.x[3]


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
