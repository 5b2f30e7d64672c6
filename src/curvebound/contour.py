"""Boundary contours: disjoint closed polylines in R^3 with exact measures.

Closest-point distances between components use exact segment-segment
distances (clamped closest-point parameterization), not vertex sampling:
the separation criteria compare distances against lengths at fine margins.
"""

import json

import numpy as np

_SEGMENT_LEAF = 32  # segments per leaf in component_pair_distances
_SEGMENT_SUB = 4  # segments per sub-leaf there; divides _SEGMENT_LEAF
_SEGMENT_BATCH = 65536  # segment pairs per numpy call there
_PAIR_CHUNK = 8192  # leaf pairs per chunk of component pairs there


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
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite component
            self._seg_lengths = np.linalg.norm(pts[nxt] - pts, axis=1)
        repeated = np.logical_or.reduceat(self._seg_lengths == 0.0, offsets)
        nonfinite = np.logical_or.reduceat(~np.isfinite(pts).all(axis=1), offsets)
        for i in np.flatnonzero(nonfinite | repeated)[:1]:  # the first unsound component
            raise ContourError(f"component {i} has non-finite coordinates" if nonfinite[i]
                               else f"component {i} has consecutive duplicate points")
        pts.setflags(write=False)
        self.components = [pts[o:o + m] for o, m in zip(offsets.tolist(), counts.tolist())]
        self.dimension = 3
        self._cache = {}  # derived measures; components are never mutated

    def __len__(self):
        return len(self.components)

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
    so box distances bound segment distances from below. Each pair's best is
    seeded with the nearest sub-leaf pair of its nearest leaf pair, which is
    not evaluated again. Leaf pairs are then visited in ascending bound, many
    per numpy call, and the sub-leaf pairs of each are evaluated unless their
    bound exceeds best*(1 + rho) + rho*lmax, with best the pair's minimum so
    far, lmax the longest segment and rho = 1e-12; a leaf pair whose own
    bound exceeds it is skipped whole.

    The slack keeps the result bit-identical to the full minimum. A computed
    distance is the norm of r + s*d1 - t*d2 for computed s, t in [0, 1], a
    difference of two points of the segments formed by a few rounded
    operations, so it undershoots the exact distance D by at most about
    10u(D + 4*lmax) with u = 2^-53; the segment p + s*d leaves the box of its
    stored vertices by at most u*lmax. rho is about 4500u, so no skipped
    entry can fall below the best one. A sub-leaf box lies inside its leaf's
    box, and every seed is one of the entries, so neither changes the
    argument.
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
    # segments by sub-leaf, and sub-leaf boxes by leaf
    starts = pts[leaf].reshape(-1, _SEGMENT_SUB, 3)
    dirs = (nxt - pts)[leaf].reshape(-1, _SEGMENT_SUB, 3)
    sub = leaf.reshape(len(leaf), -1, _SEGMENT_SUB)
    lo, hi = np.minimum(pts, nxt)[sub].min(axis=2), np.maximum(pts, nxt)[sub].max(axis=2)
    lmax = float(np.linalg.norm(dirs, axis=-1).max())
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
        near = sub_bounds(la[seed], lb[seed]).reshape(len(seed), n_sub * n_sub).argmin(axis=1)
        best = sub_minima(la[seed] * n_sub + near // n_sub, lb[seed] * n_sub + near % n_sub)
        seeded = np.full(len(la), -1)
        seeded[seed] = near
        batch = max(1, _SEGMENT_BATCH // (size * size))
        for i in range(0, len(order), batch):
            take = order[i:i + batch]
            limit = best * (1 + 1e-12) + 1e-12 * lmax
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
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    r = p1 - p2
    a = np.sum(d1 * d1, axis=-1)
    e = np.sum(d2 * d2, axis=-1)
    b = np.sum(d1 * d2, axis=-1)
    cc = np.sum(d1 * r, axis=-1)
    f = np.sum(d2 * r, axis=-1)

    denom = a * e - b * b
    # Parallel (or degenerate) pairs: any s works, pick s = 0 and clamp below.
    safe = denom > 1e-14 * np.maximum(a * e, 1e-300)
    s = np.where(safe, (b * f - cc * e) / np.where(safe, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 0.0, (b * s + f) / np.where(e > 0.0, e, 1.0), 0.0)
    # If t left [0, 1], clamp it and recompute the best s for that t.
    t_cl = np.clip(t, 0.0, 1.0)
    s = np.where(t != t_cl,
                 np.clip(np.where(a > 0.0, (t_cl * b - cc) / np.where(a > 0.0, a, 1.0), 0.0),
                         0.0, 1.0),
                 s)
    diff = r + s[..., None] * d1 - t_cl[..., None] * d2
    return np.sqrt(np.sum(diff * diff, axis=-1))


# -- file format ---------------------------------------------------------------


def save_contour(c: Contour, path):
    doc = {"dimension": 3, "components": [{"vertices": a.tolist()} for a in c.components]}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_contour(path) -> Contour:
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
