"""Boundary contours: disjoint closed polylines in R^3 with exact measures.

Closest-point distances between components use exact segment-segment
distances (clamped closest-point parameterization), not vertex sampling:
the separation criteria compare distances against lengths at fine margins.
"""

import json

import numpy as np

from .mesh import COORDINATE_LIMIT, _write_json_rows

_SEGMENT_LEAF = 32  # segments per leaf in component_pair_distances
_SEGMENT_SUB = 4  # segments per sub-leaf there; divides _SEGMENT_LEAF
_SEGMENT_BATCH = 65536  # segment pairs per numpy call there
_PAIR_CHUNK = 8192  # leaf pairs per chunk of component pairs there
# Shortest segment: a shorter one's squared length, and the squared distances
# at its scale, fall below the least normal float 2^-1022 and lose digits.
_MIN_SEGMENT = 2.0**-511


class ContourError(Exception):
    """Invalid contour data."""


class Contour:
    """Disjoint union of closed polylines.

    Parameters
    ----------
    components : sequence of array_like, each (m_i, 3)
        Vertex lists of the closed polylines; closure is implicit (the last
        vertex connects back to the first).
    """

    def __init__(self, components):
        comps = []
        for i, c in enumerate(components):  # shapes here; values below, all at once
            try:
                a = np.asarray(c, dtype=float)
                if a.ndim != 2 or a.shape[1] != 3:
                    raise ContourError(f"component {i} must be (m, 3), got {a.shape}")
                if len(a) < 3:
                    raise ContourError(f"component {i} has fewer than 3 points")
            except (TypeError, ValueError, ContourError):
                Contour(comps)  # an unsound component before this one is named first
                raise
            comps.append(a)
        self._points = pts = np.concatenate(comps + [np.zeros((0, 3))])
        self.counts = counts = np.array([len(a) for a in comps], dtype=np.int64)
        self.offsets = offsets = np.cumsum(counts) - counts
        self._next = nxt = np.arange(1, len(pts) + 1)  # each vertex's successor
        nxt[offsets + counts - 1] = offsets  # closure: the last vertex meets the first
        with np.errstate(invalid="ignore", over="ignore"):  # in an unsound component
            seg = pts[nxt]
            seg -= pts
            seg *= seg
        self._seg_lengths = np.sqrt(seg.sum(axis=1))  # np.linalg.norm's sum, in place
        del seg
        short = np.logical_or.reduceat(self._seg_lengths < _MIN_SEGMENT, offsets)
        nonfinite = np.logical_or.reduceat(~np.isfinite(pts).all(axis=1), offsets)
        large = np.logical_or.reduceat(
            ((pts > COORDINATE_LIMIT) | (pts < -COORDINATE_LIMIT)).any(axis=1), offsets)
        for i in np.flatnonzero(nonfinite | large | short)[:1]:  # the first unsound one
            raise ContourError(
                f"component {i} has non-finite coordinates" if nonfinite[i] else
                f"component {i} has a coordinate beyond 2^240 in absolute value" if large[i]
                else f"component {i} has consecutive duplicate points"
                if (comps[i] == np.roll(comps[i], -1, axis=0)).all(axis=1).any()
                else f"component {i} has a segment shorter than 2^-511")
        pts.setflags(write=False)
        self.components = [pts[o:o + m] for o, m in zip(offsets.tolist(), counts.tolist())]
        self._cache = {}  # derived measures; components are never mutated

    @property
    def n_components(self):
        return len(self.components)

    def all_points(self):
        """All vertices as one read-only (sum m_i, 3) array; component i is rows
        offsets[i] to offsets[i] + counts[i], and ``components`` holds views of it."""
        return self._points


def contour_length(c: Contour) -> float:
    """Sum of the closed polyline lengths, computed once per contour."""
    if "length" not in c._cache:
        total = 0.0
        for o, m in zip(c.offsets.tolist(), c.counts.tolist()):
            total += float(c._seg_lengths[o:o + m].sum())  # one polyline at a time
        c._cache["length"] = total
    return c._cache["length"]


def contour_diameter(c: Contour) -> float:
    """Extrinsic diameter over all component points, computed once per contour.

    For polylines the farthest pair is attained at vertices, so this is exact.
    """
    from .mesh import extrinsic_diameter

    if "diameter" not in c._cache:
        c._cache["diameter"] = extrinsic_diameter(c.all_points())
    return c._cache["diameter"]


def component_pair_distances(c: Contour, first, second) -> np.ndarray:
    """Exact min segment-segment distance between components first[k] and second[k].

    Each entry is the minimum of ``segment_segment_distance`` over all
    segment pairs, segments of first[k] as its first argument, but few pairs
    are evaluated. Components are cut into leaves of consecutive segments (a
    polyline is ordered along its curve), and leaves into sub-leaves of
    ``_SEGMENT_SUB`` segments. A box covers the end vertices of its segments,
    so box distances bound segment distances from below. The boxes are built
    in the contour's principal frame: the centred points times the right
    singular vectors V of the centred point cloud, so that they fit the
    curves whatever the input's axes; the distances themselves are computed
    on the input coordinates. Each pair's best is seeded with the nearest
    sub-leaf pair of its nearest leaf pair, which is not evaluated again.
    Leaf pairs are then visited in ascending bound, many per numpy call, and
    the sub-leaf pairs of each are evaluated unless their bound exceeds
    best*(1 + rho) + rho*(lmax + sqrt(3)*rmax), with best the pair's minimum
    so far, lmax the longest segment, rmax the largest rotated coordinate in
    absolute value and rho = 1e-12; a leaf pair whose own bound exceeds it
    is skipped whole.

    The slack keeps the result bit-identical to the full minimum. A computed
    distance is the norm of r + s*d1 - t*d2 for computed s, t in [0, 1], a
    difference of two points of the segments formed by a few rounded
    operations, so it undershoots the exact distance D by at most about
    10u(D + 4*lmax) with u = 2^-53; the segment p + s*d leaves the box of its
    stored vertices by at most u*lmax. The map x -> (x - mean) V is affine,
    so it takes each segment onto the segment between its mapped ends, and V
    is orthogonal to a few u, so it stretches distances by a factor within a
    few u of 1. Each rotated coordinate is a centred difference and a
    three-term dot product, off the exact map by at most about
    4u |x - mean| <= 4u sqrt(3) rmax, so a box distance exceeds the mapped
    segments' distance by at most about 12u rmax. rho is about 4500u, so no
    skipped entry can fall below the best one. A sub-leaf box lies inside
    its leaf's box, and every seed is one of the entries, so neither changes
    the argument.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    m = c.counts
    # leaves of a whole number of sub-leaves; a short leaf repeats its last segment
    size = int(min(_SEGMENT_LEAF, -(-m.max() // _SEGMENT_SUB) * _SEGMENT_SUB))
    n_leaves = -(-m // size)
    leaf_start = np.cumsum(n_leaves) - n_leaves
    comp = np.repeat(np.arange(len(m)), n_leaves)  # each leaf's component
    pos = np.arange(len(comp)) - leaf_start[comp]  # and its index there
    # leaf j of n in a component of m segments holds segments j*m//n up to (j+1)*m//n
    first_seg = c.offsets[comp] + pos * m[comp] // n_leaves[comp]
    end_seg = c.offsets[comp] + (pos + 1) * m[comp] // n_leaves[comp]
    leaf = first_seg[:, None] + np.minimum(np.arange(size), (end_seg - first_seg)[:, None] - 1)
    pts, nxt = c.all_points(), c.all_points()[c._next]
    # segments by sub-leaf, and sub-leaf boxes by leaf, in the principal frame
    starts = pts[leaf].reshape(-1, _SEGMENT_SUB, 3)
    dirs = (nxt - pts)[leaf].reshape(-1, _SEGMENT_SUB, 3)
    del nxt  # each whole-contour array goes once used: the loop below keeps only the leaves
    centred = pts - pts.mean(axis=0)
    rot = centred @ np.linalg.svd(centred, full_matrices=False)[2].T
    del centred
    sub = leaf.reshape(len(leaf), -1, _SEGMENT_SUB)
    lo = np.minimum(rot, rot[c._next])[sub].min(axis=2)
    hi = np.maximum(rot, rot[c._next])[sub].max(axis=2)
    lmax = float(np.linalg.norm(dirs, axis=-1).max())
    slack = 1e-12 * (lmax + np.sqrt(3.0) * float(np.abs(rot).max()))
    del rot
    n_sub = lo.shape[1]
    leaf_lo, leaf_hi = lo.min(axis=1), hi.max(axis=1)

    def box_bound(alo, ahi, blo, bhi):
        gap = np.maximum(np.maximum(blo - ahi, alo - bhi), 0.0)
        return np.sqrt(np.einsum("...i,...i->...", gap, gap))

    def sub_bounds(la, lb):  # (pairs, n_sub, n_sub) bounds of the sub-leaf pairs
        return box_bound(lo[la][:, :, None], hi[la][:, :, None],
                         lo[lb][:, None], hi[lb][:, None])

    def sub_minima(sa, sb):  # min over the segment pairs of sub-leaves sa[k], sb[k]
        return segment_segment_distance(
            starts[sa][:, :, None], dirs[sa][:, :, None],
            starts[sb][:, None], dirs[sb][:, None]).min(axis=(1, 2))

    def chunk(first, second):
        # leaf pairs (la, lb) of every component pair; owner[i] is the pair's k
        per_pair = n_leaves[first] * n_leaves[second]
        owner = np.repeat(np.arange(len(first)), per_pair)
        r = np.arange(per_pair.sum()) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
        la = leaf_start[first][owner] + r // n_leaves[second][owner]
        lb = leaf_start[second][owner] + r % n_leaves[second][owner]
        bound = box_bound(leaf_lo[la], leaf_hi[la], leaf_lo[lb], leaf_hi[lb])
        order = np.argsort(bound, kind="stable")

        # seed: every pair's nearest sub-leaf pair within its nearest leaf pair
        seed = order[np.unique(owner[order], return_index=True)[1]]
        best, seeded = np.empty(len(seed)), np.full(len(la), -1)
        batch = max(1, _SEGMENT_BATCH // (size * size))
        for i in range(0, len(seed), batch):
            part = seed[i:i + batch]
            near = sub_bounds(la[part], lb[part]).reshape(len(part), n_sub * n_sub).argmin(axis=1)
            best[i:i + batch] = sub_minima(la[part] * n_sub + near // n_sub,
                                           lb[part] * n_sub + near % n_sub)
            seeded[part] = near
        for i in range(0, len(order), batch):
            take = order[i:i + batch]
            limit = best * (1 + 1e-12) + slack
            if bound[take[0]] > limit.max():
                break  # bounds ascend: nothing left can lower any minimum
            take = take[bound[take] <= limit[owner[take]]]
            k, sa, sb = np.nonzero(sub_bounds(la[take], lb[take])
                                   <= limit[owner[take]][:, None, None])
            fresh = sa * n_sub + sb != seeded[take[k]]  # a seed is in best already
            k, sa, sb = k[fresh], sa[fresh], sb[fresh]
            np.minimum.at(best, owner[take][k],
                          sub_minima(la[take][k] * n_sub + sa, lb[take][k] * n_sub + sb))
        return best

    # chunks of about _PAIR_CHUNK leaf pairs bound the temporaries; entries do not interact
    per_pair = n_leaves[first] * n_leaves[second]
    cuts = np.flatnonzero(np.diff((np.cumsum(per_pair) - per_pair) // _PAIR_CHUNK)) + 1
    return np.concatenate([chunk(f, s) for f, s in zip(np.split(first, cuts),
                                                        np.split(second, cuts))])


def segment_segment_distance(p1, d1, p2, d2):
    """Distance between segments [p1, p1+d1] and [p2, p2+d2], broadcasting.

    Clamped closest-point parameterization (Ericson): minimize
    |p1 + s*d1 - p2 - t*d2| over s, t in [0, 1], handling the degenerate and
    parallel cases by clamping one parameter and re-solving for the other.

    The coordinates are read as three planes, and each dot product is
    accumulated left to right, in place, on a few arrays of the broadcast
    shape. That is np.sum's order, up to the sign of a zero sum, which no
    later step can see: zeros are never divided by, and the result is a
    root of a sum of squares.
    """
    p1, d1, p2, d2 = (np.asarray(x, dtype=float) for x in (p1, d1, p2, d2))
    shape = np.broadcast_shapes(p1.shape, d1.shape, p2.shape, d2.shape)[:-1]
    p1, d1, p2, d2 = ([x[..., k] for k in range(3)] for x in (p1, d1, p2, d2))
    tmp = np.empty(shape)

    def dot(u, v):
        out = np.multiply(u[0], v[0], out=np.empty(shape))
        for k in (1, 2):
            out += np.multiply(u[k], v[k], out=tmp)
        return out

    a = d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]  # the shapes of d1 and d2 only
    e = d2[0] * d2[0] + d2[1] * d2[1] + d2[2] * d2[2]
    r = [np.subtract(x, y, out=np.empty(shape)) for x, y in zip(p1, p2)]
    b, cc, f = dot(d1, d2), dot(d1, r), dot(d2, r)

    ae = np.multiply(a, e, out=np.empty(shape))
    denom = np.multiply(b, b, out=np.empty(shape))
    np.subtract(ae, denom, out=denom)
    # Parallel (or degenerate) pairs: any s works, pick s = 0 and clamp below.
    np.maximum(ae, 1e-300, out=ae)
    ae *= 1e-14
    unsafe = ~(denom > ae)
    np.copyto(denom, 1.0, where=unsafe)
    s = np.multiply(b, f, out=ae)
    s -= np.multiply(cc, e, out=tmp)
    s /= denom
    np.copyto(s, 0.0, where=unsafe)
    np.clip(s, 0.0, 1.0, out=s)
    t = np.multiply(b, s, out=denom)
    t += f
    t /= np.where(e > 0.0, e, 1.0)
    np.copyto(t, 0.0, where=~(e > 0.0))
    # If t left [0, 1], clamp it and recompute the best s for that t.
    t_cl = np.clip(t, 0.0, 1.0, out=f)
    moved = t != t_cl
    s_cl = np.multiply(t_cl, b, out=t)
    s_cl -= cc
    s_cl /= np.where(a > 0.0, a, 1.0)
    np.copyto(s_cl, 0.0, where=~(a > 0.0))
    np.copyto(s, np.clip(s_cl, 0.0, 1.0, out=s_cl), where=moved)
    for k in range(3):  # r + s*d1 - t_cl*d2, plane by plane
        r[k] += np.multiply(s, d1[k], out=tmp)
        r[k] -= np.multiply(t_cl, d2[k], out=tmp)
    dist = np.multiply(r[0], r[0], out=b)
    for k in (1, 2):
        dist += np.multiply(r[k], r[k], out=tmp)
    return np.sqrt(dist, out=dist)[()]


# -- file format ---------------------------------------------------------------


def save_contour(c: Contour, path):
    """Write {dimension, components: [{vertices}, ...]}: the text of ``json.dumps``
    of the nested lists, one component's rows formatted and written at a time."""
    with open(path, "w") as fh:
        fh.write('{"dimension": 3, "components": [')
        for i, a in enumerate(c.components):
            fh.write(', {"vertices": ' if i else '{"vertices": ')
            _write_json_rows(fh, a, "[%r, %r, %r]")
            fh.write("}")
        fh.write("]}")


def _vertex_array(obj):
    """json object_hook: a component's vertex list becomes an array as its object
    closes, so one component's Python floats are alive at a time. A list that
    is no array of numbers stays a list, for the checks in load_contour."""
    if isinstance(obj.get("vertices"), list):
        try:
            obj["vertices"] = np.array(obj["vertices"], dtype=float)
        except (TypeError, ValueError):
            pass
    return obj


def load_contour(path) -> Contour:
    with open(path) as fh:
        doc = json.load(fh, object_hook=_vertex_array)
    if not isinstance(doc, dict) or doc.get("dimension") != 3:
        raise ContourError("contour documents are 3-dimensional")
    try:
        comps = [np.asarray(entry["vertices"], dtype=float) for entry in doc["components"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContourError(f"malformed contour document: {exc!r}") from exc
    if not comps:
        raise ContourError("contour document has no components")
    return Contour(comps)
