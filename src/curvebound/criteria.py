"""Nonexistence checkers for Plateau-Douglas boundary contours.

Three independent criteria, each reporting a verdict plus the measured
quantities and an explicit margin:

- diameter-length: no connected minimal surface spans a contour whose
  diameter exceeds 8x its length (proven mode); the conjectural mode uses
  factor 1/2 and is flagged as non-rigorous.
- White: some decomposition of the components has cross-distance exceeding
  length/pi. The optimal decomposition is the bottleneck split of the
  component-distance graph (longest MST edge), guarded by a brute-force
  oracle.
- cone: the components fit inside the two nappes of the cone
  x^2 + y^2 < z^2 sinh^2(tau), cosh(tau) = tau*sinh(tau), for some apex and
  axis. Certificates are re-verified by an independent membership check;
  a failed search is NOT a proof of inseparability.

Components are atomic units of every decomposition (splitting single Jordan
curves is not attempted); margins are normalized by the contour diameter.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph
from scipy.sparse import csr_matrix

from .contour import (Contour, component_distance_matrix, component_pair_distances,
                      contour_diameter, contour_length)

STRICT_MARGIN = 1e-9  # normalized-units floor for "strictly positive"

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


def tau_root(tol=1e-12, max_iter=50) -> TauRoot:
    """Unique positive solution of cosh(tau) = tau*sinh(tau), by Newton.

    g(tau) = cosh - tau*sinh has g' = -tau*cosh; from tau_0 = 1.2 Newton
    converges quadratically. Non-convergence within ``max_iter`` iterations is
    a hard failure (it must not occur).
    """
    tau = 1.2
    for it in range(1, max_iter + 1):
        g = np.cosh(tau) - tau * np.sinh(tau)
        if abs(g) <= tol:
            return TauRoot(tau=float(tau), sinh_sq=float(np.sinh(tau) ** 2),
                           residual=float(abs(g)), iterations=it)
        tau = tau + g / (tau * np.cosh(tau))
    raise RuntimeError(f"tau Newton iteration failed to reach {tol}")


def tau_root_bisection(lo=1.0, hi=1.5, tol=1e-10) -> float:
    """Independent bisection oracle for the tau root."""
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


@dataclass
class ConeSeparator:
    """Certificate that a cone separates the contour into two nappes."""

    apex: np.ndarray
    axis: np.ndarray
    tau: float
    sinh_sq: float
    partition: tuple
    margin: float  # normalized by contour diameter
    margin_raw: float = 0.0

    def to_dict(self):
        return {
            "apex": [float(v) for v in self.apex],
            "axis": [float(v) for v in self.axis],
            "tau": self.tau,
            "sinh_sq": self.sinh_sq,
            "partition": [sorted(map(int, g)) for g in self.partition],
            "margin": self.margin,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            apex=np.array(doc["apex"], dtype=float),
            axis=np.array(doc["axis"], dtype=float),
            tau=float(doc["tau"]),
            sinh_sq=float(doc["sinh_sq"]),
            partition=tuple(tuple(g) for g in doc["partition"]),
            margin=float(doc["margin"]),
        )


@dataclass
class CriterionEntry:
    name: str
    verdict: str
    measured: dict = field(default_factory=dict)
    margin: float | None = None
    certificate: dict | None = None
    notes: str = ""

    @property
    def certified(self):
        return self.verdict == VERDICT_CERTIFIED


@dataclass
class CriterionReport:
    n_components: int
    diameter: float
    length: float
    entries: list = field(default_factory=list)

    @property
    def certified_any(self):
        return any(e.certified for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self):
        return {
            "n_components": self.n_components,
            "diameter": self.diameter,
            "length": self.length,
            "certified_any": self.certified_any,
            "criteria": [
                {
                    "name": e.name,
                    "verdict": e.verdict,
                    "measured": e.measured,
                    "margin": e.margin,
                    "certificate": e.certificate,
                    "notes": e.notes,
                }
                for e in self.entries
            ],
        }

    def table(self):
        lines = [
            f"contour: {self.n_components} component(s), "
            f"d = {self.diameter:.12g}, length = {self.length:.12g}",
            f"{'criterion':<18} {'verdict':<26} {'margin':<22} notes",
        ]
        for e in self.entries:
            margin = "-" if e.margin is None else f"{e.margin:.12g}"
            lines.append(f"{e.name:<18} {e.verdict:<26} {margin:<22} {e.notes}")
        verdicts = {e.verdict for e in self.entries if e.verdict != VERDICT_NOT_APPLICABLE}
        if len(verdicts) > 1:
            lines.append("note: criteria disagree on this contour; they are "
                         "qualitatively independent and this is expected for some families.")
        return "\n".join(lines)


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
    yields an optimal bipartition. Accepts a dense matrix or a sparse graph
    whose edge set provably contains the minimum spanning tree.
    """
    if isinstance(dist_graph, np.ndarray) or not hasattr(dist_graph, "tocoo"):
        d = csr_matrix(np.asarray(dist_graph, dtype=float))
    else:
        d = dist_graph.tocsr()
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 components")
    mst = csgraph.minimum_spanning_tree(d).tocoo()
    order = np.argmax(mst.data)
    value = float(mst.data[order])
    # drop the longest edge, split by connectivity
    keep = np.ones(len(mst.data), dtype=bool)
    keep[order] = False
    pruned = csr_matrix(
        (mst.data[keep], (mst.row[keep], mst.col[keep])), shape=(n, n)
    )
    _, labels = csgraph.connected_components(pruned, directed=False)
    side0 = tuple(int(i) for i in np.nonzero(labels == labels[0])[0])
    side1 = tuple(int(i) for i in np.nonzero(labels != labels[0])[0])
    return value, (side0, side1)


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


def white_check(c: Contour) -> CriterionEntry:
    """Certify when the best decomposition satisfies dist > length / pi.

    The bottleneck split is found without the full distance matrix.
    Centroid-ball bounds LB <= d(i,j) <= UB bracket every pairwise distance.
    The bottleneck of the UB graph (its longest MST edge) is an upper bound
    t* for the exact bottleneck, and every exact-MST edge satisfies
    LB <= d <= t*; exact segment distances are therefore computed only for
    candidate pairs with LB <= t*, whose graph provably contains the exact
    minimum spanning tree and is connected. LB is compared with t* up to a
    slack of 1e-12 * (t* + r_i + r_j), far above the rounding in the bounds
    and in the computed distances, so that rounding cannot drop a tree edge.
    """
    ell = contour_length(c)
    n = c.n_components
    if n < 2:
        return CriterionEntry(
            name="white",
            verdict=VERDICT_NOT_APPLICABLE,
            measured={"length": ell},
            notes="single Jordan curve: no decomposition into components exists",
        )
    cents = np.array([comp.mean(axis=0) for comp in c.components])
    radii = np.array([np.linalg.norm(comp - m, axis=1).max()
                      for comp, m in zip(c.components, cents)])
    cd = np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=-1)
    rr = radii[:, None] + radii[None, :]
    ub = cd + rr
    np.fill_diagonal(ub, 0.0)
    t_star = float(csgraph.minimum_spanning_tree(csr_matrix(ub)).data.max())
    ii, jj = np.nonzero(np.triu(cd - rr <= t_star + 1e-12 * (t_star + rr), k=1))
    graph = csr_matrix((component_pair_distances(c, ii, jj), (ii, jj)), shape=(n, n))
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


def _icosahedral_directions():
    from .generators import icosphere

    return icosphere(1).vertices  # 42 well-spread unit directions


def _axis_starts(points):
    dirs = [_icosahedral_directions()]
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    dirs.append(vt)
    dirs.append(-vt)
    return np.vstack(dirs)


def _cone_margin(params, u0, t1, t2, pts, comp_offsets, comp_counts, sinh_tau):
    apex = params[:3]
    axis = u0 + params[3] * t1 + params[4] * t2
    nrm = np.linalg.norm(axis)
    if nrm < 1e-12:
        return -np.inf
    axis = axis / nrm
    rel = pts - apex
    z = rel @ axis
    rho = np.sqrt(np.maximum(np.einsum("ij,ij->i", rel, rel) - z * z, 0.0))
    comp_mean_z = np.add.reduceat(z, comp_offsets) / comp_counts
    sides = np.where(comp_mean_z > 0, 1.0, -1.0)
    if np.all(sides > 0) or np.all(sides < 0):
        return -np.inf
    side_per_point = np.repeat(sides, comp_counts)
    return float((side_per_point * z * sinh_tau - rho).min())


def _nelder_mead_max(fun, x0, scale, max_evals):
    """Minimal Nelder-Mead maximizer (reflect / expand / contract / shrink)."""
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        p = np.array(x0, dtype=float)
        p[i] += scale[i]
        simplex.append(p)
    vals = [fun(p) for p in simplex]
    evals = len(vals)
    while evals < max_evals:
        order = np.argsort(vals)[::-1]  # descending: best first
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = fun(refl)
        evals += 1
        if f_refl > vals[0]:
            expa = centroid + 2.0 * (centroid - worst)
            f_expa = fun(expa)
            evals += 1
            if f_expa > f_refl:
                simplex[-1], vals[-1] = expa, f_expa
            else:
                simplex[-1], vals[-1] = refl, f_refl
        elif f_refl > vals[-2]:
            simplex[-1], vals[-1] = refl, f_refl
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_contr = fun(contr)
            evals += 1
            if f_contr > vals[-1]:
                simplex[-1], vals[-1] = contr, f_contr
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (p - best) for p in simplex[1:]]
                vals = [vals[0]] + [fun(p) for p in simplex[1:]]
                evals += n
        if np.max([np.linalg.norm(p - simplex[0]) for p in simplex[1:]]) < 1e-10:
            break
    i = int(np.argmax(vals))
    return simplex[i], vals[i]


def verify_cone_separator(c: Contour, sep: ConeSeparator) -> tuple:
    """Independent strict membership check of a cone certificate.

    Recomputes z and rho per point from the original coordinates and requires
    every component of each group strictly inside its nappe (z of the correct
    sign and rho^2 < z^2 sinh^2 tau), both groups nonempty. Returns
    (ok, worst_margin_raw).
    """
    up, down = sep.partition
    if len(up) == 0 or len(down) == 0:
        return False, -np.inf
    if sorted(list(up) + list(down)) != list(range(c.n_components)):
        return False, -np.inf
    axis = sep.axis / np.linalg.norm(sep.axis)
    worst = np.inf
    for group, sign in ((up, 1.0), (down, -1.0)):
        for i in group:
            rel = c.components[i] - sep.apex
            z = rel @ axis
            rho_sq = np.maximum(np.einsum("ij,ij->i", rel, rel) - z * z, 0.0)
            if np.any(sign * z <= 0.0):
                return False, -np.inf
            slack = sign * z * np.sqrt(sep.sinh_sq) - np.sqrt(rho_sq)
            worst = min(worst, float(slack.min()))
            if worst <= 0.0:
                return False, worst
    return True, worst


def cone_check(c: Contour, search_budget=20000) -> CriterionEntry:
    """Search for a separating cone; certify only on re-verified success.

    Multistart (icosahedral directions plus contour PCA axes) Nelder-Mead over
    apex and an axis chart; each component is assigned to the nappe of its
    centroid. The starts run in order, and the best margin wins with ties to
    the lowest start index. Sound but incomplete: a missing certificate
    proves nothing.
    """
    if search_budget <= 0:
        raise ValueError("search budget must be positive")
    root = tau_root()
    sinh_tau = np.sqrt(root.sinh_sq)
    if c.n_components < 2:
        return CriterionEntry(
            name="cone",
            verdict=VERDICT_NOT_APPLICABLE,
            measured={"tau": root.tau, "sinh_sq": root.sinh_sq},
            notes="single Jordan curve: no component bipartition exists",
        )

    pts_orig = c.all_points()
    center = pts_orig.mean(axis=0)
    scale = contour_diameter(c)
    pts = (pts_orig - center) / scale
    counts = np.array([len(comp) for comp in c.components])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    slices = list(zip(offsets, offsets + counts))

    starts = _axis_starts(pts)
    per_start = max(60, search_budget // len(starts))

    def run_start(u0):
        seed = np.array([1.0, 0.0, 0.0]) if abs(u0[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = seed - (seed @ u0) * u0
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u0, t1)
        fun = lambda p: _cone_margin(p, u0, t1, t2, pts, offsets, counts, sinh_tau)
        x, val = _nelder_mead_max(
            fun, np.zeros(5), scale=np.array([0.25, 0.25, 0.25, 0.35, 0.35]),
            max_evals=per_start,
        )
        return x, val, (u0, t1, t2)

    best = (-np.inf, None)  # margin, params; ties go to the earlier start
    for u0 in starts:
        x, val, chart = run_start(u0)
        if val > best[0]:
            best = (val, (x, *chart))

    measured = {"tau": root.tau, "sinh_sq": root.sinh_sq, "best_margin_normalized": best[0]}
    if best[0] > STRICT_MARGIN and best[1] is not None:
        x, u0, t1, t2 = best[1]
        axis = u0 + x[3] * t1 + x[4] * t2
        axis /= np.linalg.norm(axis)
        apex = x[:3] * scale + center
        rel = pts_orig - apex
        z = rel @ axis
        up, down = [], []
        for i, (lo, hi) in enumerate(slices):
            (up if z[lo:hi].mean() > 0 else down).append(i)
        sep = ConeSeparator(
            apex=apex, axis=axis, tau=root.tau, sinh_sq=root.sinh_sq,
            partition=(tuple(up), tuple(down)), margin=float(best[0]),
        )
        ok, worst = verify_cone_separator(c, sep)
        if ok and worst / scale > STRICT_MARGIN:
            sep.margin_raw = worst
            return CriterionEntry(
                name="cone",
                verdict=VERDICT_CERTIFIED,
                measured=measured,
                margin=float(worst / scale),
                certificate=sep.to_dict(),
                notes="certificate re-verified by independent membership check",
            )
    return CriterionEntry(
        name="cone",
        verdict=VERDICT_NO_CERTIFICATE,
        measured=measured,
        margin=float(best[0]) if np.isfinite(best[0]) else None,
        notes="search exhausted; absence of a certificate is NOT a proof of inseparability",
    )


# -- aggregate -------------------------------------------------------------------


def analyze(c: Contour, mode="proven", search_budget=20000,
            run_cone=True) -> CriterionReport:
    """Run every applicable criterion and merge the entries into one report."""
    report = CriterionReport(
        n_components=c.n_components,
        diameter=contour_diameter(c),
        length=contour_length(c),
    )
    report.entries.append(diameter_length_check(c, mode="proven"))
    if mode == "conjectural":
        report.entries.append(diameter_length_check(c, mode="conjectural"))
    report.entries.append(white_check(c))
    if run_cone:
        report.entries.append(cone_check(c, search_budget=search_budget))
    return report
