"""Nonexistence checkers for Plateau-Douglas boundary contours.

Three independent criteria, each reporting a verdict plus the measured
quantities and an explicit margin:

- diameter-length: no connected minimal surface spans a contour whose
  diameter exceeds 8x its length (proven mode); the conjectural mode uses
  factor 1/2 and is flagged as non-rigorous.
- White: some decomposition of the components has cross-distance exceeding
  length/pi. The optimal decomposition is the bottleneck split of the
  component-distance graph (longest MST edge); the tests compare it with an
  exhaustive search over all bipartitions.
- cone: the components fit inside the two nappes of the cone
  x^2 + y^2 < z^2 sinh^2(tau), cosh(tau) = tau*sinh(tau), for some apex and
  axis: threshold splits along fixed and searched axes, each apex from a
  linear program. A certificate is the dict of apex, axis, tau, sinh_sq,
  partition and margin that the merged report carries;
  ``verify_cone_separator`` re-checks it, from the search or from a saved
  report, by an independent membership check. A failed search is NOT a
  proof of inseparability.

``analyze`` merges the entries into one report, the dict that
``check-contour --json`` writes. Components are atomic units of every
decomposition (splitting single Jordan curves is not attempted); margins are
normalized by the contour diameter.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .contour import (Contour, ContourError, component_pair_distances, contour_diameter,
                      contour_length)
from .generators import icosphere

STRICT_MARGIN = 1e-9  # normalized-units floor for "strictly positive"
TAU_TOL = 1e-12  # |cosh(tau) - tau*sinh(tau)| at which the Newton root is accepted
TAU_MAX_ITER = 50

VERDICT_CERTIFIED = "nonexistence-certified"
VERDICT_NOT_TRIGGERED = "not-triggered"
VERDICT_NO_CERTIFICATE = "no-certificate-found"
VERDICT_NOT_APPLICABLE = "not-applicable"


@dataclass
class TauRoot:
    tau: float
    sinh_sq: float
    residual: float
    iterations: int


def tau_root() -> TauRoot:
    """Unique positive solution of cosh(tau) = tau*sinh(tau), by Newton.

    g(tau) = cosh - tau*sinh has g' = -tau*cosh; from tau_0 = 1.2 Newton
    converges quadratically. Non-convergence within ``TAU_MAX_ITER``
    iterations is a hard failure (it must not occur).
    """
    tau = 1.2
    for it in range(1, TAU_MAX_ITER + 1):
        g = np.cosh(tau) - tau * np.sinh(tau)
        if abs(g) <= TAU_TOL:
            return TauRoot(tau=float(tau), sinh_sq=float(np.sinh(tau) ** 2),
                           residual=float(abs(g)), iterations=it)
        tau = tau + g / (tau * np.cosh(tau))
    raise RuntimeError(f"tau Newton iteration failed to reach {TAU_TOL}")


@dataclass
class CriterionEntry:
    """One criterion's verdict, measurements, margin and certificate. The checks
    return this record, not the dict it becomes in the report, because callers
    (the benchmark's span tracer among them) read ``.certified`` off a result."""

    name: str
    verdict: str
    measured: dict = field(default_factory=dict)
    margin: float | None = None
    certificate: dict | None = None
    notes: str = ""

    @property
    def certified(self):
        return self.verdict == VERDICT_CERTIFIED


# -- diameter vs length --------------------------------------------------------


def diameter_length_check(c: Contour, mode="proven") -> CriterionEntry:
    """Certify nonexistence when d > factor * length.

    factor = 8 is the proven bound; mode="conjectural" uses 1/2 (the value the
    sharp closed-surface constant would give) and is labeled non-rigorous.
    """
    if mode not in ("proven", "conjectural"):
        raise ValueError("mode must be 'proven' or 'conjectural'")
    factor = 8.0 if mode == "proven" else 0.5
    d = contour_diameter(c)
    ell = contour_length(c)
    margin = d - factor * ell
    verdict = VERDICT_CERTIFIED if margin > STRICT_MARGIN * d else VERDICT_NOT_TRIGGERED
    notes = "" if mode == "proven" else "conjectural factor 1/2; NOT a proof"
    return CriterionEntry(
        name=f"diameter-length[{mode}]",
        verdict=verdict,
        measured={"diameter": d, "length": ell, "factor": factor,
                  "threshold": factor * ell},
        margin=float(margin),
        notes=notes,
    )


# -- White's criterion -----------------------------------------------------------


def bottleneck_split(dist_graph) -> tuple:
    """Max over bipartitions of the min cross-group distance, with the split.

    Equivalent to single linkage: the optimum is the longest edge of the
    minimum spanning tree of the distance graph, and removing that edge
    yields an optimal bipartition. Takes a sparse graph whose edge set
    provably contains the minimum spanning tree.
    """
    from scipy.sparse import csgraph
    d = dist_graph.tocsr()
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 components")
    mst = csgraph.minimum_spanning_tree(d)
    order = np.argmax(mst.data)
    value = float(mst.data[order])
    mst.data[order] = 0.0  # drop the longest edge, split by connectivity
    mst.eliminate_zeros()
    _, labels = csgraph.connected_components(mst, directed=False)
    side0 = tuple(int(i) for i in np.nonzero(labels == labels[0])[0])
    side1 = tuple(int(i) for i in np.nonzero(labels != labels[0])[0])
    return value, (side0, side1)


def white_check(c: Contour) -> CriterionEntry:
    """Certify when the best decomposition satisfies dist > length / pi.

    The bottleneck split is found without any dense matrix. Centroid-ball
    bounds LB <= d(i,j) <= UB bracket every pairwise distance. A connected
    spanning subgraph of the UB graph crosses every bipartition, so the
    longest edge t* of its minimum spanning tree is >= the exact bottleneck;
    here it joins each centroid to its k nearest, k = 8 doubled until
    connected. Every exact-MST edge has LB <= d <= t*, so exact segment
    distances are computed only for the pairs with LB <= t*, found by
    kd-tree among centroids within t* + 2 r_max; their graph provably holds
    the exact minimum spanning tree. LB is compared with t* up to a slack of
    1e-12 * (t* + r_i + r_j), far above the rounding in the bounds and
    distances, so that rounding cannot drop a tree edge. Touching components
    (d <= 1e-12 * (r_i + r_j), always candidates) raise ContourError.
    """
    from scipy.sparse import csgraph, csr_matrix
    from scipy.spatial import cKDTree
    ell = contour_length(c)
    n = c.n_components
    if n < 2:
        return CriterionEntry(
            name="white",
            verdict=VERDICT_NOT_APPLICABLE,
            measured={"length": ell},
            notes="single Jordan curve: no decomposition into components exists",
        )
    cents = np.add.reduceat(c.all_points(), c.offsets) / c.counts[:, None]
    radii = np.maximum.reduceat(np.linalg.norm(
        c.all_points() - np.repeat(cents, c.counts, axis=0), axis=1), c.offsets)
    tree, k, parts = cKDTree(cents), min(8, n - 1), 2
    while parts > 1:  # k = n - 1 joins every pair
        cd, jj = tree.query(cents, k=k + 1)  # each centroid itself, then its k nearest
        ii, jj = np.repeat(np.arange(n), k + 1), jj.ravel()
        ub = csr_matrix((cd.ravel() + (radii[ii] + radii[jj]), (ii, jj)), shape=(n, n))
        ub, k = ub.maximum(ub.T), min(2 * k, n - 1)
        parts = csgraph.connected_components(ub, directed=False)[0]
    t_star = float(csgraph.minimum_spanning_tree(ub).data.max())
    pairs = tree.query_pairs((t_star + 2.0 * radii.max()) * (1.0 + 1e-9), output_type="ndarray")
    ii, jj = pairs[np.lexsort(pairs.T[::-1])].T  # by i, then j, as i < j
    cd, rr = np.linalg.norm(cents[ii] - cents[jj], axis=1), radii[ii] + radii[jj]
    near = cd - rr <= t_star + 1e-12 * (t_star + rr)
    ii, jj = ii[near], jj[near]
    dist = component_pair_distances(c, ii, jj)
    touch = np.nonzero(dist <= 1e-12 * (radii[ii] + radii[jj]))[0]
    if len(touch):
        raise ContourError(f"components {ii[touch[0]]} and {jj[touch[0]]} touch; "
                           "a contour's components must be disjoint")
    graph = csr_matrix((dist, (ii, jj)), shape=(n, n))
    value, split = bottleneck_split(graph + graph.T)
    threshold = ell / np.pi
    margin = value - threshold
    verdict = VERDICT_CERTIFIED if margin > STRICT_MARGIN * max(1.0, ell) else VERDICT_NOT_TRIGGERED
    return CriterionEntry(
        name="white",
        verdict=verdict,
        measured={"best_cross_distance": value, "length": ell, "threshold": threshold},
        margin=float(margin),
        certificate={"partition": [list(split[0]), list(split[1])]},
        notes="components kept atomic (conservative restriction)",
    )


# -- cone criterion ---------------------------------------------------------------

_SIDES = 32  # sides of the polygon inscribed in each cross-section of the cone
_CUTS = 16  # most violated points whose rows join the LP per constraint-generation round
_STEPS = (0.25, 1e-3)  # first and last angle (radians) of the axis pattern search


def _frame(u):
    return np.linalg.svd(u[None, :])[2][1:]  # orthonormal basis of the plane normal to u


class _ConeSearch:
    """Threshold splits and LP apexes on points scaled into the unit ball.

    ``best`` is (slack, axis, apex, upper components, binding points) of the
    largest exact slack found. Until some split gets an LP, the largest
    split bound ``best_q`` steers the axis search; ``axis`` is where it is.
    """

    def __init__(self, pts, counts, sinh_tau, budget):
        self.pts, self.counts, self.s, self.budget = pts, counts, sinh_tau, budget
        self.offsets = np.cumsum(counts) - counts
        k = 2.0 * np.pi * np.arange(_SIDES) / _SIDES
        # max(v @ sides) is the norm whose unit ball is the inscribed polygon
        self.sides = np.array([np.cos(k), np.sin(k)]) / np.cos(np.pi / _SIDES)
        self.rows = np.hstack([-self.sides.T, np.ones((_SIDES, 1))])  # LP columns e1, e2, t
        self.best, self.best_q, self.axis = (-np.inf, None, None, None, ()), -np.inf, None

    def _extremes(self, z, ufunc):
        val = ufunc.reduceat(z, self.offsets)
        hit = np.where(z == np.repeat(val, self.counts), np.arange(len(z)), len(z))
        return val, np.minimum.reduceat(hit, self.offsets)

    def splits(self, u):
        """Bounds q of the threshold splits along u, descending, and ``split``.

        With x the lowest point above the gap and y the highest below it, an
        apex of margin m gives d = x - y slack >= 2m in the upper nappe (the
        slack s*u.v - |P_u v| is concave and homogeneous), so q = (s*u.d -
        |P_u d|)/2 bounds the margin. split(k) builds the upper components and
        end points (each upper component's lowest point and each lower one's
        highest) of the k-th split in a stable order by descending q.
        """
        z = self.pts @ u
        (lo, lo_at), (hi, hi_at) = self._extremes(z, np.minimum), self._extremes(z, np.maximum)
        order = np.argsort(lo, kind="stable")
        top = np.maximum.accumulate(hi[order])
        top_at = order[np.maximum.accumulate(np.where(hi[order] == top, np.arange(len(lo)), 0))]
        gaps = np.nonzero(lo[order[1:]] > top[:-1])[0]
        d = self.pts[lo_at[order[gaps + 1]]] - self.pts[hi_at[top_at[gaps]]]
        q = 0.5 * (self.s * (d @ u) - np.linalg.norm(d - np.outer(d @ u, u), axis=1))
        rank = np.argsort(-q, kind="stable")

        def split(k):
            j = gaps[rank[k]]
            return order[j + 1:], np.concatenate([lo_at[order[j + 1:]], hi_at[order[:j + 1]]])

        return q[rank], split

    def apex(self, u, upper, seed):
        """Exact slack, apex and binding points of the LP apex for axis u, or None.

        The LP maximizes t subject to |P_u(x - a)| <= +-s*u.(x - a) - t,
        with the polygon norm in place of |.|: one row per point x and
        polygon side. The ``seed`` points enter with every side; then each
        point that the solution violates joins with its most violated side
        and that side's two neighbours, until no row of any point is.
        """
        from scipy.optimize import linprog

        e1, e2 = _frame(u)
        z, w = self.pts @ u, self.pts @ np.column_stack([e1, e2])
        sz = np.repeat(np.where(np.isin(np.arange(len(self.counts)), upper), self.s, -self.s),
                       self.counts)
        w_sides = w @ self.sides
        in_lp = np.zeros((len(z), _SIDES), dtype=bool)  # rows (point, side) of the LP
        in_lp[seed] = True
        x = None  # variables: apex along u, e1, e2, and t
        while self.budget > 0:
            p, k = np.nonzero(in_lp)
            a = np.column_stack([sz[p], self.rows[k]])
            b = sz[p] * z[p] - w_sides[p, k]
            res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=a, b_ub=b,
                          bounds=(None, None), method="highs")
            self.budget -= 1
            if res.status != 0:
                break
            x = res.x
            values = (sz * (z - x[0]))[:, None] - (w - x[1:3]) @ self.sides
            poly = values.min(axis=1)
            values[in_lp] = np.inf  # rows in the LP hold up to HiGHS's tolerance
            worst = values.argmin(axis=1)
            cut = np.nonzero(values[np.arange(len(z)), worst] < x[3] - 1e-9)[0]
            if len(cut) == 0:
                break
            cut = cut[np.argsort(values[cut, worst[cut]], kind="stable")[:_CUTS]]
            in_lp[cut[:, None], (worst[cut, None] + np.arange(-1, 2)) % _SIDES] = True
        if x is None:
            return None
        slack = sz * (z - x[0]) - np.linalg.norm(w - x[1:3], axis=1)
        apex = x[0] * u + x[1] * e1 + x[2] * e2
        return float(slack.min()), apex, np.nonzero(in_lp.any(axis=1) & (poly <= x[3] + 1e-9))[0]

    def try_axis(self, u):
        """LP each split along u while its q beats 0 and the best slack; True if u improved."""
        improved, (q, split) = False, self.splits(u)
        for k, qk in enumerate(q):
            if qk <= max(self.best[0], 0.0) or self.budget <= 0:
                break
            upper, ends = split(k)
            found = self.apex(u, upper, np.concatenate([ends, self.best[4]]).astype(np.int64))
            if found is not None and found[0] > self.best[0]:
                self.best, improved = (found[0], u, found[1], upper, found[2]), True
        if self.best[1] is None and len(q) and q[0] > self.best_q:
            self.best_q, improved = q[0], True
        self.axis = u if improved else self.axis
        return improved


def verify_cone_separator(c: Contour, certificate: dict) -> tuple:
    """Independent strict membership check of a cone certificate.

    ``certificate`` is the dict that a certified cone entry carries, in the
    report and its JSON: apex, axis, tau, sinh_sq = sinh^2(tau), the
    partition into upper and lower components, and the margin. Recomputes z
    and rho per point from the original coordinates and requires every
    component of each group strictly inside its nappe (z of the correct
    sign and rho^2 < z^2 sinh^2 tau), both groups nonempty. Returns
    (ok, worst_margin_raw).
    """
    up, down = certificate["partition"]
    if len(up) == 0 or len(down) == 0:
        return False, -np.inf
    if sorted(list(up) + list(down)) != list(range(c.n_components)):
        return False, -np.inf
    apex = np.asarray(certificate["apex"], dtype=float)
    axis = np.asarray(certificate["axis"], dtype=float)
    axis = axis / np.linalg.norm(axis)
    worst = np.inf
    for group, sign in ((up, 1.0), (down, -1.0)):
        for i in group:
            rel = c.components[i] - apex
            z = rel @ axis
            rho_sq = np.maximum(np.einsum("ij,ij->i", rel, rel) - z * z, 0.0)
            if np.any(sign * z <= 0.0):
                return False, -np.inf
            slack = sign * z * np.sqrt(certificate["sinh_sq"]) - np.sqrt(rho_sq)
            worst = min(worst, float(slack.min()))
            if worst <= 0.0:
                return False, worst
    return True, worst


def cone_check(c: Contour, search_budget=20000) -> CriterionEntry:
    """Search for a separating cone; certify only on re-verified success.

    Along an axis u the nappes need u.x > u.apex and u.x < u.apex, so only
    threshold splits of the components' projections can work. The axes are
    the 42 icosahedral and 3 PCA axes, one of each +-pair (negating the axis
    keeps the cones), then a pattern search of halving angle from the best.
    A split gets an LP apex (disks replaced by inscribed polygons, after
    Ben-Tal & Nemirovski 2001; warm-started from the best apex's binding
    points) only if its bound q beats 0 and the best slack. The budget caps
    the LP solves. Sound but incomplete: a missing certificate proves nothing.
    """
    if search_budget <= 0:
        raise ValueError("search budget must be positive")
    root = tau_root()
    measured = {"tau": root.tau, "sinh_sq": root.sinh_sq}
    if c.n_components < 2:
        return CriterionEntry(name="cone", verdict=VERDICT_NOT_APPLICABLE, measured=measured,
                              notes="single Jordan curve: no component bipartition exists")

    pts = c.all_points()
    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    search = _ConeSearch((pts - center) / radius, c.counts, np.sqrt(root.sinh_sq),
                         search_budget)
    ico = icosphere(1).vertices
    for u in np.vstack([ico[ico @ np.array([1.0, 2.0, 4.0]) > 0],
                        np.linalg.svd(pts - center, full_matrices=False)[2]]):
        search.try_axis(u)
    step = _STEPS[0]
    while step >= _STEPS[1] and search.budget > 0 and search.axis is not None:
        u = search.axis
        if not any(search.try_axis(v / np.linalg.norm(v))
                   for v in [u + step * t for e in _frame(u) for t in (e, -e)]):
            step /= 2.0
    slack, axis, apex, upper = search.best[:4]
    measured["best_margin_normalized"] = None
    if axis is not None:
        scale = contour_diameter(c)
        measured["best_margin_normalized"] = slack * radius / scale
        lower = np.setdiff1d(np.arange(c.n_components), upper)
        certificate = {"apex": [float(v) for v in apex * radius + center],
                       "axis": [float(v) for v in axis], "tau": root.tau,
                       "sinh_sq": root.sinh_sq,
                       "partition": [sorted(map(int, upper)), sorted(map(int, lower))]}
        ok, worst = verify_cone_separator(c, certificate)
        if ok and worst / scale > STRICT_MARGIN:
            certificate["margin"] = float(worst / scale)  # normalized by the diameter
            return CriterionEntry(name="cone", verdict=VERDICT_CERTIFIED, measured=measured,
                                  margin=certificate["margin"], certificate=certificate,
                                  notes="certificate re-verified by independent membership check")
    return CriterionEntry(
        name="cone", verdict=VERDICT_NO_CERTIFICATE, measured=measured,
        margin=measured["best_margin_normalized"],
        notes="search exhausted; absence of a certificate is NOT a proof of inseparability",
    )


# -- aggregate -------------------------------------------------------------------


def analyze(c: Contour, mode="proven", search_budget=20000, run_cone=True) -> dict:
    """Run every applicable criterion and merge the entries into one report: the
    dict that ``check-contour --json`` writes, with each entry as a dict."""
    entries = [diameter_length_check(c, mode="proven")]
    if mode == "conjectural":
        entries.append(diameter_length_check(c, mode="conjectural"))
    entries.append(white_check(c))
    if run_cone:
        entries.append(cone_check(c, search_budget=search_budget))
    return {"n_components": c.n_components, "diameter": contour_diameter(c),
            "length": contour_length(c), "certified_any": any(e.certified for e in entries),
            "criteria": [asdict(e) for e in entries]}
