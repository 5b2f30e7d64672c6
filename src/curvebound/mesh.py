"""Triangle meshes in R^n, n >= 3: validation, measures, intrinsic distances.

Meshes are immutable snapshots: vertex and triangle arrays are frozen after
construction and every operation is a pure function of them, so concurrent
reads are safe.
"""

import json
from dataclasses import dataclass, field

import numpy as np

DEGENERATE_AREA_TOL = 1e-12
_DIAMETER_LEAF = 16  # points per kd leaf in extrinsic_diameter
_DIAMETER_BATCH = 128  # leaf pairs per numpy call in extrinsic_diameter
_ECC_BATCH = 16  # Dijkstra sources per call in intrinsic_diameter
DIAMETER_TOL = 1e-2  # relative width of the bracket intrinsic_diameter returns


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class BoundaryLoop:
    """One boundary component: cyclically ordered vertex indices and length."""

    vertex_indices: np.ndarray
    length: float

    def __len__(self):
        return len(self.vertex_indices)


@dataclass
class ValidationReport:
    is_valid: bool
    manifold: bool
    oriented: bool
    closed: bool
    connected: bool
    n_boundary_loops: int
    euler_characteristic: int
    errors: list = field(default_factory=list)

    def __str__(self):
        status = "valid" if self.is_valid else "INVALID"
        lines = [
            f"mesh {status}: manifold={self.manifold} oriented={self.oriented} "
            f"closed={self.closed} connected={self.connected} "
            f"boundary_loops={self.n_boundary_loops} euler={self.euler_characteristic}"
        ]
        lines += [f"  error: {e}" for e in self.errors]
        return "\n".join(lines)


class SurfaceMesh:
    """Oriented triangle mesh immersed in R^n, n >= 3.

    Parameters
    ----------
    vertices : array_like, shape (V, n)
        Vertex positions, any n >= 3 (codimension n - 2).
    triangles : array_like, shape (T, 3)
        Ordered vertex index triples. All triangles must wind consistently;
        shared edges are then traversed in opposite directions.

    Notes
    -----
    Self-intersection is permitted and ignored throughout: the surfaces are
    immersed, and coincident vertices are distinct combinatorial entities.
    """

    def __init__(self, vertices, triangles):
        v = np.asarray(vertices, dtype=float)
        t = np.asarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] < 3:
            raise MeshError(f"vertices must be (V, n) with n >= 3, got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must be (T, 3), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle index out of range")
        if not np.all(np.isfinite(v)):
            raise MeshError("vertex coordinates must be finite")
        v.setflags(write=False)
        t.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self._cache = {}

    # -- basic quantities -------------------------------------------------

    @property
    def dimension(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def corner_gram(self):
        """Per-corner (|u|^2, u.w, |u|^2 |w|^2 - (u.w)^2), each (T, 3), built once.

        Corner k has u = p[k+1] - p[k] and w = p[k+2] - p[k], that is u = e_k and
        w = -e_{k+2} (exactly) for the edge vectors e_k. The determinant is
        4 area^2 in any codimension, not clamped at 0.
        """
        if "corner_gram" not in self._cache:
            p0, p1, p2 = (self.vertices[self.triangles[:, k]] for k in range(3))
            e = (p1 - p0, p2 - p1, p0 - p2)
            sq = np.column_stack([np.einsum("ij,ij->i", a, a) for a in e])
            dot = -np.column_stack([np.einsum("ij,ij->i", e[k], e[k - 1])
                                    for k in range(3)])
            gram = sq * sq[:, [2, 0, 1]] - dot * dot
            for a in (sq, dot, gram):
                a.setflags(write=False)
            self._cache["corner_gram"] = (sq, dot, gram)
        return self._cache["corner_gram"]

    def triangle_areas(self):
        """Per-triangle areas via the Gram determinant (any codimension)."""
        if "areas" not in self._cache:
            gram = self.corner_gram()[2][:, 0]
            self._cache["areas"] = 0.5 * np.sqrt(np.maximum(gram, 0.0))
        return self._cache["areas"]

    # -- connectivity ------------------------------------------------------

    def _directed_edges(self):
        t = self.triangles
        return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])

    def _edge_tables(self):
        """Edge table from 1-D int64 keys, built once per mesh.

        Returns (edges, undirected counts, directed keys, directed counts,
        boundary directed edges). Undirected keys are min*V + max and
        directed keys u*V + v; both sort like their index pairs, so ``edges``
        is in the lexicographic order of ``np.unique(axis=0)``.
        """
        if "edge_tables" not in self._cache:
            n = max(self.n_vertices, 1)
            de = self._directed_edges()
            ukeys, inverse, ue_counts = np.unique(
                de.min(axis=1) * n + de.max(axis=1), return_inverse=True,
                return_counts=True)
            dkeys, de_counts = np.unique(de[:, 0] * n + de[:, 1], return_counts=True)
            edges = np.stack(np.divmod(ukeys, n), axis=1)
            self._cache["edge_tables"] = (edges, ue_counts, dkeys, de_counts,
                                          de[ue_counts[inverse] == 1])
        return self._cache["edge_tables"]

    @property
    def edges(self):
        return self._edge_tables()[0]

    def edge_lengths(self):
        e = self.edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    def boundary_edges(self):
        edges, counts = self._edge_tables()[:2]
        return edges[counts == 1]

    def is_closed(self):
        return bool(np.all(self._edge_tables()[1] == 2))

    def euler_characteristic(self):
        return self.n_vertices - len(self.edges) + self.n_triangles

    def vertex_adjacency(self):
        """Symmetric sparse matrix of edge lengths; Dijkstra is its only user."""
        if "adjacency" not in self._cache:
            from scipy import sparse
            e = self.edges
            w = self.edge_lengths()
            n = self.n_vertices
            i = np.concatenate([e[:, 0], e[:, 1]])
            j = np.concatenate([e[:, 1], e[:, 0]])
            self._cache["adjacency"] = sparse.csr_matrix(
                (np.concatenate([w, w]), (i, j)), shape=(n, n)
            )
        return self._cache["adjacency"]

    def is_connected(self):
        """True iff the edge graph is one component (False without vertices); union-find.

        Each round hooks the larger root of every edge joining two roots onto
        the smaller, then pointer jumps to the roots. Parents only decrease, so
        a root is its tree's least index: connected iff every root is 0, and a
        vertex no triangle uses is a root of its own. Every component with such
        an edge merges, so the number of components at least halves per round.
        """
        if self.n_vertices == 0:
            return False
        e, parent = self.edges, np.arange(self.n_vertices)
        while True:
            a, b = parent[e[:, 0]], parent[e[:, 1]]
            live = a != b
            if not live.any():
                return not parent.any()
            a, b = a[live], b[live]
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
            jumped = parent[parent]
            while not np.array_equal(jumped, parent):
                parent, jumped = jumped, jumped[jumped]

    def boundary_vertex_mask(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        be = self.boundary_edges()
        if len(be):
            mask[be.ravel()] = True
        return mask

    # -- boundary loops ----------------------------------------------------

    @property
    def boundary_loops(self):
        """Boundary components as closed vertex cycles, following the induced
        orientation (the direction each boundary edge has in its one triangle)."""
        if "loops" not in self._cache:
            self._cache["loops"] = self._trace_boundary_loops()
        return self._cache["loops"]

    def _trace_boundary_loops(self):
        succ = {}
        for u, v in self._edge_tables()[4]:
            if u in succ:
                raise MeshError(
                    f"boundary is not a union of simple loops (vertex {u} repeats)"
                )
            succ[int(u)] = int(v)
        loops = []
        seen = set()
        for start in sorted(succ):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            cur = succ[start]
            while cur != start:
                if cur in seen or cur not in succ:
                    raise MeshError("boundary loop does not close")
                cyc.append(cur)
                seen.add(cur)
                cur = succ[cur]
            idx = np.array(cyc, dtype=np.int64)
            pts = self.vertices[idx]
            seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
            loops.append(BoundaryLoop(idx, float(seg.sum())))
        return loops


def validate(mesh: SurfaceMesh) -> ValidationReport:
    """Check manifoldness, orientation, degeneracy and boundary structure.

    The mesh is usable by the other operations only when the report says
    ``is_valid``.
    """
    errors = []

    areas = mesh.triangle_areas()
    degenerate = np.nonzero(areas < DEGENERATE_AREA_TOL)[0]
    for i in degenerate[:10]:
        errors.append(f"degenerate triangle {i} (area {areas[i]:.3e})")
    if len(degenerate) > 10:
        errors.append(f"... {len(degenerate) - 10} more degenerate triangles")

    t = mesh.triangles
    repeats = np.nonzero((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                         | (t[:, 2] == t[:, 0]))[0]
    if len(repeats):
        errors.append(f"triangle {repeats[0]} repeats a vertex")

    edges, ue_counts, dkeys, de_counts, _ = mesh._edge_tables()
    bad = np.nonzero(ue_counts > 2)[0]
    manifold = len(bad) == 0
    for i in bad[:10]:
        errors.append(f"non-manifold edge ({edges[i, 0]}, {edges[i, 1]}) "
                      f"in {ue_counts[i]} triangles")

    oriented = bool(np.all(de_counts == 1))
    if not oriented:
        for a, b in zip(*np.divmod(dkeys[de_counts > 1][:10], mesh.n_vertices)):
            errors.append(f"inconsistent orientation across edge ({a}, {b})")

    closed = bool(np.all(ue_counts == 2))
    n_loops, loops_traced = 0, True
    if manifold and oriented:
        try:
            n_loops = len(mesh.boundary_loops)
        except MeshError as exc:
            errors.append(str(exc))
            loops_traced = False

    connected = mesh.is_connected()
    is_valid = (manifold and oriented and len(degenerate) == 0 and len(repeats) == 0
                and loops_traced)
    return ValidationReport(
        is_valid=is_valid,
        manifold=manifold,
        oriented=oriented,
        closed=closed,
        connected=connected,
        n_boundary_loops=n_loops,
        euler_characteristic=mesh.euler_characteristic(),
        errors=errors,
    )


# -- measures ---------------------------------------------------------------


def extrinsic_diameter(points) -> float:
    """Exact max pairwise Euclidean distance over a point set.

    For piecewise-linear bodies the maximum is attained at vertices, so this
    is the extrinsic diameter of a mesh when given its vertex array.

    Branch and bound over kd leaf boxes (after Har-Peled, SoCG 2001, and
    Malandain & Boissonnat, IJCGA 12(6), 2002): a double farthest-point sweep
    seeds the best entry, node pairs are refined level by level, and the
    surviving leaf pairs are evaluated in descending bound, many per numpy
    call. Every entry is the squared coordinate differences accumulated in
    dimension order, as in the plain O(V^2) loop. The bound of two boxes is
    accumulated the same way from max(hi_a - lo_b, hi_b - lo_a) per
    dimension. Rounded subtraction is monotone, so for x in box a and y in
    box b the computed x_k - y_k and y_k - x_k never exceed the computed
    hi_a - lo_b and hi_b - lo_a; squaring of non-negative numbers and
    addition are monotone too. The bound is thus >= every entry it covers
    *as computed*, a pair is dropped only when its bound is <= the best
    entry, and the result is bit-identical to the plain loop.

    Raises ValueError for fewer than 2 points or non-finite coordinates.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) < 2:
        raise ValueError("need at least 2 points")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    far = p[np.argmax(((p - p[0]) ** 2).sum(axis=1))]
    best = 0.0
    for x in p[np.argmax(((p - far) ** 2).sum(axis=1))] - far:
        best += x * x  # the seed entry, accumulated like every other one
    leaves = p[_kd_leaves(p)]
    lo, hi = leaves.min(axis=1), leaves.max(axis=1)
    # implicit binary tree: node i of a level covers the i-th run of leaves
    a = b = np.zeros(1, dtype=np.int64)
    for level in range(len(leaves).bit_length()):
        if level:
            a = np.concatenate([2 * a, 2 * a, 2 * a + 1, 2 * a + 1])
            b = np.concatenate([2 * b, 2 * b + 1, 2 * b, 2 * b + 1])
            a, b = a[a <= b], b[a <= b]
        lo_t = lo.reshape(1 << level, -1, p.shape[1]).min(axis=1)
        hi_t = hi.reshape(1 << level, -1, p.shape[1]).max(axis=1)
        bound = np.zeros(len(a))
        for k in range(p.shape[1]):
            gap = np.maximum(hi_t[a, k] - lo_t[b, k], hi_t[b, k] - lo_t[a, k])
            bound += gap * gap
        a, b, bound = a[bound > best], b[bound > best], bound[bound > best]
    order = np.argsort(-bound, kind="stable")
    a, b, bound = a[order], b[order], bound[order]
    for i in range(0, len(a), _DIAMETER_BATCH):
        if bound[i] <= best:
            break
        pa, pb = leaves[a[i:i + _DIAMETER_BATCH]], leaves[b[i:i + _DIAMETER_BATCH]]
        acc = np.zeros((len(pa), pa.shape[1], pb.shape[1]))
        for k in range(p.shape[1]):
            diff = pa[:, :, None, k] - pb[:, None, :, k]
            acc += diff * diff
        best = max(best, float(acc.max()))
    return float(np.sqrt(best))


def _kd_leaves(p):
    """Indices of p in 2^depth kd-ordered leaves of at most _DIAMETER_LEAF.

    Each level splits every node at its middle along its widest axis; short
    leaves repeat their last index. The order only affects the pruning.
    """
    n = len(p)
    n_leaves = 1 << max(0, int(np.ceil(np.log2(n / _DIAMETER_LEAF))))
    bounds = (np.arange(n_leaves + 1) * n) // n_leaves
    order = np.arange(n)
    width = n_leaves
    while width > 1:
        x = p[order]
        lo = np.minimum.reduceat(x, bounds[:-1:width])
        span = np.maximum.reduceat(x, bounds[:-1:width]) - lo
        node = np.repeat(np.arange(len(lo)), np.diff(bounds[::width]))
        axis = np.argmax(span, axis=1)[node]
        rel = (x[np.arange(n), axis] - lo[node, axis]) / np.maximum(span[node, axis], 1e-300)
        order = order[np.argsort(node + 0.5 * rel, kind="stable")]
        width //= 2
    sizes = np.diff(bounds)
    return order[bounds[:-1, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)]


def boundary_length(mesh: SurfaceMesh) -> float:
    """Total length of the boundary; 0 for a closed mesh."""
    return float(sum(loop.length for loop in mesh.boundary_loops))


def geodesic_distances(mesh: SurfaceMesh, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` on the edge graph (Dijkstra).

    Edge-graph geodesics overestimate true polyhedral geodesics; the bias is
    direction-dependent (up to a few percent on near-isotropic meshes, worse
    on lattices) and is absorbed into the tolerances of everything built on
    top. Unreachable vertices get ``inf``.
    """
    if not 0 <= source < mesh.n_vertices:
        raise ValueError(f"source {source} out of range")
    from scipy.sparse import csgraph
    # the adjacency is symmetric, so the directed search gives the same bits
    # as directed=False in about half the time
    return csgraph.dijkstra(mesh.vertex_adjacency(), directed=True, indices=source)


def intrinsic_diameter(mesh: SurfaceMesh) -> tuple[float, float]:
    """Certified bracket ``(lower, upper)`` on the max vertex eccentricity of the edge graph.

    Eccentricity bounds after BoundingDiameters (Takes & Kosters, CIKM 2011)
    with the iFUB bound (Crescenzi et al., TCS 2013). Dijkstra runs from
    batches of _ECC_BATCH candidates, one ``csgraph.dijkstra`` call each:
    half in descending distance from u, the computed source of least
    eccentricity (iFUB's order), and half with the smallest lower bounds
    max(d, e - d) from sources of eccentricity e (central vertices). A
    candidate w is dropped once max(colmax[w], reach[w]), widened by a
    relative slack, is at most best * (1 + DIAMETER_TOL), with best the
    largest eccentricity computed so far. colmax[w] is the largest computed
    distance to w. reach[w] bounds the distance from w to every vertex still
    a candidate: it is the least of d(v, w) + m_v over computed sources v,
    with m_v the largest distance from v to a candidate left after v's batch
    (candidates only leave), and of the iFUB bound d(u, w) + the largest
    distance from u to a candidate now. Every other vertex was computed or
    dropped. ``lower`` is the best eccentricity computed, and ``upper`` is
    lower * (1 + DIAMETER_TOL) * (1 + slack).

    Why the all-pairs max lies in [lower, upper]: the search from one source
    does not depend on the others (and on the symmetric adjacency the
    directed search returns the bits of the undirected one), so every
    computed row is the all-pairs row, and ``lower`` is one of its row
    maxima. A computed distance d(x, y) is the rounded sum, in path order,
    of at most V - 1 edge lengths, so with unit roundoff r it lies within a
    factor 1 +- Vr of the exact graph distance D(x, y) = D(y, x), while
    d(x, y) and d(y, x) may round apart. So the argument runs on D. Let T
    be the threshold best * (1 + DIAMETER_TOL) as computed when w is
    dropped; it only grows. For a dropped w and any y: D(w, y) <= colmax[w]
    / (1 - Vr) if y was computed; D(w, y) <= D(w, v) + D(v, y), at most
    reach[w] times about 1 + Vr, if y was a candidate; and D(w, y) <= ecc(y)
    <= T / (1 + Vr) if y was dropped before (by induction: y's threshold was
    at most T). The dropped y enters through this max, not through a sum, so
    the tolerance does not compound along drops. So ecc(w) is at most the
    max of the test value times about 1 + 2Vr and T / (1 + Vr). The slack,
    max(1e-12, 4V eps) = max(1e-12, 8Vr), exceeds the 3Vr this needs plus
    the rounding of the test itself, so ecc(w) <= T / (1 + Vr) carries the
    induction, and every entry of w's computed row is at most the final T.
    ``upper`` is that T times 1 + slack, rounded up past T, so it bounds
    every computed row, and ``upper >= lower``.

    Raises ValueError for a mesh without vertices or with more than one
    connected component (its eccentricities are infinite).
    """
    from scipy.sparse import csgraph
    n = mesh.n_vertices
    if not mesh.is_connected():
        raise ValueError("intrinsic diameter needs a connected mesh")
    graph = mesh.vertex_adjacency()
    slack = max(1e-12, 4 * n * np.finfo(float).eps)
    lower, colmax = np.zeros(n), np.zeros(n)
    reach, from_u = np.full(n, np.inf), np.full(n, np.inf)
    candidate = np.ones(n, dtype=bool)
    best = 0.0
    while candidate.any():
        live = np.nonzero(candidate)[0]
        far = live[np.argsort(-from_u[live], kind="stable")[:_ECC_BATCH // 2]]
        central = live[np.argsort(lower[live], kind="stable")]
        central = central[~np.isin(central, far)][:_ECC_BATCH - len(far)]
        sources = np.concatenate([far, central])
        candidate[sources] = False
        # bounds only matter on the vertices still candidates
        live = np.nonzero(candidate)[0]
        d = csgraph.dijkstra(graph, directed=True, indices=sources)
        ecc = d.max(axis=1)
        best = max(best, float(ecc.max()))
        if ecc.min() < from_u.max():
            from_u = d[np.argmin(ecc)]
        d = d[:, live]
        colmax[live] = np.maximum(colmax[live], d.max(axis=0))
        lower[live] = np.maximum(lower[live],
                                 np.maximum(colmax[live], (ecc[:, None] - d).max(axis=0)))
        reach[live] = np.minimum(reach[live],
                                 (d + d.max(axis=1, initial=0.0)[:, None]).min(axis=0))
        ifub = from_u[live] + from_u[live].max(initial=0.0)
        candidate[live] = (np.maximum(colmax[live], np.minimum(reach[live], ifub))
                           * (1.0 + slack) > best * (1.0 + DIAMETER_TOL))
    return best, float(best * (1.0 + DIAMETER_TOL) * (1.0 + slack))


# -- file formats -------------------------------------------------------------


def save_obj(mesh: SurfaceMesh, path):
    """Wavefront OBJ, 3D only: `v x y z` and 1-based `f i j k` lines."""
    if mesh.dimension != 3:
        raise MeshError(f"OBJ holds meshes in R^3 only; save this R^{mesh.dimension} mesh "
                        "as .mesh.json")
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.triangles:
            fh.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))


def load_obj(path) -> SurfaceMesh:
    """Wavefront OBJ: `v` lines and triangular `f` lines.

    A `v` line needs three numeric coordinates (further tokens are ignored).
    Face indices are 1-based; a negative index counts back from the last
    vertex read so far (-1 is that vertex). A short or non-numeric `v` line,
    an `f` line without exactly three integer indices, index 0 and indices
    out of range raise MeshError naming the line.
    """
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                try:
                    xyz = [float(x) for x in parts[1:4]]
                except ValueError:
                    xyz = []
                if len(xyz) != 3:
                    raise MeshError("vertex line needs three numeric coordinates: "
                                    f"{line.strip()}")
                verts.append(xyz)
            elif parts[0] == "f":
                try:
                    idx = [int(tok.split("/")[0]) for tok in parts[1:]]
                except ValueError:
                    idx = []
                if len(idx) != 3:
                    raise MeshError("face line needs three integer vertex indices "
                                    f"(triangles only): {line.strip()}")
                if 0 in idx or min(idx) < -len(verts):
                    raise MeshError(f"face index out of range in line: {line.strip()}")
                tris.append([i - 1 if i > 0 else len(verts) + i for i in idx])
    if not verts:
        raise MeshError(f"no vertices found in {path}")
    return SurfaceMesh(np.array(verts), np.array(tris, dtype=np.int64))


def save_mesh_json(mesh: SurfaceMesh, path):
    """Dimension-agnostic interchange: {dimension, vertices, triangles}, 0-based.

    The text of ``json.dumps``, from one format string per array: ``%r`` is
    the JSON repr of the finite floats a mesh holds."""
    v, t = mesh.vertices, mesh.triangles
    row = "[" + ", ".join(["%r"] * v.shape[1]) + "]"
    vertices = ("[" + ", ".join([row] * len(v)) + "]") % tuple(v.ravel().tolist())
    triangles = ("[" + ", ".join(["[%d, %d, %d]"] * len(t)) + "]") % tuple(t.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f'{{"dimension": {v.shape[1]}, "vertices": {vertices}, '
                 f'"triangles": {triangles}}}')


def load_mesh_json(path) -> SurfaceMesh:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise MeshError("mesh document must be a JSON object")
    for key in ("dimension", "vertices", "triangles"):
        if key not in doc:
            raise MeshError(f"mesh document missing '{key}'")
    try:
        v = np.array(doc["vertices"], dtype=float)
    except TypeError as exc:
        raise MeshError(f"vertex coordinates must be numbers ({exc})") from None
    if v.ndim != 2 or v.shape[1] != doc["dimension"]:
        raise MeshError("vertex width disagrees with declared dimension")
    t = np.array(doc["triangles"])
    if t.size and t.dtype.kind not in "iu":
        raise MeshError("triangle indices must be integers")
    return SurfaceMesh(v, t)


def load_mesh(path) -> SurfaceMesh:
    """Load by extension: .obj or .mesh.json."""
    p = str(path)
    if p.endswith(".obj"):
        return load_obj(p)
    if p.endswith(".json"):
        return load_mesh_json(p)
    raise MeshError(f"unknown mesh format: {p}")


def save_mesh(mesh: SurfaceMesh, path):
    p = str(path)
    if p.endswith(".obj"):
        save_obj(mesh, p)
    elif p.endswith(".json"):
        save_mesh_json(mesh, p)
    else:
        raise MeshError(f"unknown mesh format: {p}")
