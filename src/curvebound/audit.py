"""Verification suite for the sharp Sobolev route to the diameter bound.

Checks, on the library of closed shapes:
- the sharp Michael-Simon inequality sigma*||f||_L2 <= ||grad f||_L1 + 2*||Hf||_L1
  with sigma = 2*sqrt(pi), for a library of nonnegative test functions;
- the collapsedness dichotomy max(m(p,R), kappa(p,R)) > pi/4 at random probes,
  where m is the sup of (1/r)*int_{B(p,r)}|H| and kappa the inf of V(p,r)/r^2;
- the comparison identity v' + 2*delta*r - sigma*sqrt(v) = 0 for v = delta*r^2
  at delta = pi/4 (the coefficient 4*delta - sigma*sqrt(delta) vanishes);
- the covering-argument bound d_int <= (16/pi) * int|H|.
"""

import numpy as np

from .curvature import _curvature_weights, mean_curvature_field, total_mean_curvature
from .mesh import SurfaceMesh, geodesic_distances, intrinsic_diameter, validate

SIGMA_SHARP = 2.0 * np.sqrt(np.pi)
DELTA_SHARP = np.pi / 4.0
MS_DISCRETIZATION_SLACK = 0.05
R_SAMPLES = 50  # radius grid of m_kappa
N_BUMPS = 3  # extrinsic bumps in probe_function_library
PERTURBED_DELTA = np.pi / 3.0  # comparison_identity_check's off-sharp delta


def _triangle_gradients_l1(mesh, fields):
    """L1 norms of the per-triangle linear gradients of each field, any codimension.

    On each triangle solve the 2x2 Gram system for the tangential gradient of
    the linear interpolant; |grad f|^2 = df^T G^{-1} df. The Gram terms are
    read once for all the fields; 2 * guw is exact, so the products round as
    2.0 * guw * df1 * df2 does.
    """
    tri = mesh.triangles
    sq, dot, gram = mesh.corner_gram()
    guu, gww, guw2, det = sq[:, 0].copy(), sq[:, 2].copy(), 2.0 * dot[:, 0], gram[:, 0]
    pos = det > 0
    div = np.where(pos, det, 1.0)
    areas = mesh.triangle_areas()
    norms = []
    for f in fields:
        f0 = f[tri[:, 0]]
        df1, df2 = f[tri[:, 1]] - f0, f[tri[:, 2]] - f0
        grad_sq = np.where(pos, (gww * df1 * df1 - guw2 * df1 * df2 + guu * df2 * df2) / div,
                           0.0)
        norms.append(float((np.sqrt(np.maximum(grad_sq, 0.0)) * areas).sum()))
    return norms


def michael_simon_check(mesh: SurfaceMesh, functions) -> list:
    """Discrete sharp Michael-Simon inequality for named finite nonnegative functions.

    ``functions`` holds (name, per-vertex field) pairs, as
    ``probe_function_library`` returns them. Vertex-lumped L2 norm,
    per-triangle linear-gradient L1 norm, vertex-lumped |H| f L1 norm; the
    inequality is granted a 5% slack for discretization. Returns one report
    entry ``{"f", "lhs", "rhs", "margin", "holds"}`` per function, in order,
    with ``f`` the function's name and ``margin = rhs - lhs``. The mesh's
    terms (|H|, the vertex areas, the Gram terms) are computed once for all
    the functions, and each entry has the bits it has alone.
    """
    names = [name for name, _ in functions]
    fields = [np.asarray(f, dtype=float) for _, f in functions]
    for f in fields:
        if not np.all(np.isfinite(f)):
            raise ValueError("test functions must be finite")
        if np.any(f < 0):
            raise ValueError("test functions must be nonnegative")
        if len(f) != mesh.n_vertices:
            raise ValueError("f must be a per-vertex field")
    if not mesh.is_closed():
        raise ValueError("the inequality is checked on closed surfaces")
    field_ = mean_curvature_field(mesh)
    magnitudes = field_.magnitudes()
    entries = []
    for name, f, grad_l1 in zip(names, fields, _triangle_gradients_l1(mesh, fields)):
        lhs = float(SIGMA_SHARP * np.sqrt(np.sum(f * f * field_.areas)))
        hf_l1 = float(np.sum(magnitudes * f * field_.areas))
        rhs = grad_l1 + 2.0 * hf_l1
        entries.append({"f": name, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                        "holds": bool(lhs <= rhs * (1.0 + MS_DISCRETIZATION_SLACK))})
    return entries


def probe_function_library(mesh: SurfaceMesh, seed=0):
    """Named nonnegative test fields: constants, radial cutoffs, random bumps."""
    rng = np.random.default_rng(seed)
    out = [("const_1", np.ones(mesh.n_vertices))]
    # radial Lipschitz cutoffs: 1 inside B(p, r), 0 outside B(p, r + mu)
    probes = rng.integers(0, mesh.n_vertices, size=2)
    for p in probes:
        d = geodesic_distances(mesh, int(p))
        dmax = d[np.isfinite(d)].max()
        for frac, mu_frac in ((0.3, 0.1), (0.6, 0.2)):
            r = frac * dmax
            mu = mu_frac * dmax
            f = np.clip(1.0 - (d - r) / mu, 0.0, 1.0)
            out.append((f"cutoff_p{p}_r{frac}", f))
    # smooth extrinsic bumps
    for b in range(N_BUMPS):
        q = mesh.vertices[rng.integers(0, mesh.n_vertices)]
        width = 0.5 * np.linalg.norm(mesh.vertices - q, axis=1).max()
        f = np.exp(-np.sum((mesh.vertices - q) ** 2, axis=1) / width**2)
        out.append((f"bump_{b}", f))
    return out


def m_kappa(mesh: SurfaceMesh, p: int, R: float) -> dict:
    """Curvature concentration m(p,R) and area collapsedness kappa(p,R).

    m = sup over sampled r of (1/r) * integral of |H| over B(p, r);
    kappa = inf over sampled r of V(p, r)/r^2. The sup/inf run over the grid
    r = R*j/R_SAMPLES, for R positive and finite; R beyond the intrinsic radius
    saturates the ball. Returns the report entry ``{"probe", "R", "m",
    "kappa", "holds"}``, where ``holds`` is the dichotomy max(m, kappa) > pi/4.

    Each triangle keeps the part of the ball {d <= r} where the linear
    interpolant of its corner distances is <= r: with one corner out (its
    largest), all but the corner triangle cut off at the two crossings; with
    one corner in (its smallest), that corner triangle. A corner alone out
    (in) is strictly the largest (smallest), so the corners are rotated once
    per probe to put that one first.

    One pass per probe: ``searchsorted`` gives each triangle within reach
    the first radius index at which it is one-in, two-in and full (x <= r
    exactly). The clipped weights of all band pairs (radius, triangle) are
    computed at once, in the per-radius formula's operation order, and stably
    sorted by radius, so each radius sums its full triangles and two slices,
    in triangle order. The weights are one C-ordered (2, T) array cached on
    the mesh; ``compress`` and ``take`` keep rows C-ordered, so each row sum
    adds as a 1-D sum would (a Fortran-ordered ``w[:, mask]`` would not).
    The three sums of every radius go into one array, and m and kappa are
    (a + b) + c over r_j and over r_j * r_j, the operations of one radius at
    a time.

    The search stops at limit = (R + the longest edge) * (1 + 1e-9): only
    triangles with a corner within r_50 = R * 50 / 50 are read, and their
    other corners lie within one edge of that corner, so at most
    fl(r_50 + edge) <= (R + edge) * (1 + 3u) away, with u the unit
    roundoff. Every distance <= limit has the bits of the unbounded search
    (``geodesic_distances``), so every triangle read, and the set of them,
    is the same.
    """
    if not 0 < R < np.inf:
        raise ValueError("R must be positive and finite")
    if "ball_weights" not in mesh._cache:
        w = np.stack([_curvature_weights(mesh, mean_curvature_field(mesh)),
                      mesh.triangle_areas()])
        w.setflags(write=False)
        mesh._cache["ball_weights"] = w
    r = R * np.arange(1, R_SAMPLES + 1) / R_SAMPLES
    limit = (R + mesh.vertex_adjacency().data.max(initial=0.0)) * (1.0 + 1e-9)
    d, tri = geodesic_distances(mesh, p, limit), mesh.triangles
    inside = d <= r[-1]
    near = inside[tri[:, 0]] | inside[tri[:, 1]] | inside[tri[:, 2]]
    w = mesh._cache["ball_weights"].compress(near, axis=1)
    # hi[k] (lo[k]): per triangle, the distance at the corner k after its largest (smallest)
    hi, lo = _rotations(*(d[tri[:, k][near]] for k in range(3)))
    j_one, j_two, j_full = (np.searchsorted(r, x)
                            for x in (lo[0], np.maximum(hi[1], hi[2]), hi[0]))

    def band(first, stop, d, clip):
        """Where each radius starts, and the clipped weights, of the pairs first <= j < stop
        by radius; their temporaries go on return."""
        count = stop - first
        t = np.repeat(np.arange(len(count), dtype=np.int32), count)
        j = np.repeat(first + count - np.cumsum(count), count)
        j += np.arange(len(t))
        # j < R_SAMPLES fits int16, whose stable sort is a radix sort
        j = j.astype(np.int16)
        order = np.argsort(j, kind="stable")
        j, t = j[order], t[order]
        del order
        return (np.searchsorted(j, np.arange(R_SAMPLES + 1)),
                clip(w.take(t, axis=1), r[j], *(x[t] for x in d)))

    at_cut, cut = band(j_two, j_full, hi, _cut_weights)
    at_one, one = band(j_one, j_two, lo, _corner_weights)
    del hi, lo
    sums = np.empty((3, R_SAMPLES, 2))
    for j in range(R_SAMPLES):
        w.compress(j_full <= j, axis=1).sum(axis=1, out=sums[0, j])
        cut[:, at_cut[j]:at_cut[j + 1]].sum(axis=1, out=sums[1, j])
        one[:, at_one[j]:at_one[j + 1]].sum(axis=1, out=sums[2, j])
    curvature, area = (sums[0] + sums[1] + sums[2]).T
    m, kappa = float((curvature / r).max()), float((area / (r * r)).min())
    return {"probe": int(p), "R": float(R), "m": m, "kappa": kappa,
            "holds": max(m, kappa) > DELTA_SHARP}


def _cut_weights(w, r, da, db, dc):
    """w times the part of a triangle within r whose corner a alone is out."""
    return w * (1.0 - ((da - r) / (da - db)) * ((da - r) / (da - dc)))


def _corner_weights(w, r, da, db, dc):
    """w times the part of a triangle within r whose corner a alone is in."""
    # w * tb * tc runs left to right; w * (tb * tc) would round differently
    return w * ((r - da) / (db - da)) * ((r - da) / (dc - da))


def _rotations(a, b, c):
    """The corner values (a, b, c) rotated to start at the first largest, and
    at the first smallest, the corners argmax and argmin pick: three
    comparisons and three selects per corner."""
    rotations = []
    for op in (np.greater_equal, np.less_equal):
        first_a, first_b = op(a, b) & op(a, c), op(b, c)
        rotations.append([np.where(first_a, x, np.where(first_b, y, z))
                          for x, y, z in ((a, b, c), (b, c, a), (c, a, b))])
    return rotations


def comparison_identity_check() -> dict:
    """Residual of v' + 2*delta*r - sigma*sqrt(v) for v = delta*r^2.

    The coefficient 4*delta - sigma*sqrt(delta) vanishes exactly at the sharp
    constants; the coefficient at PERTURBED_DELTA = pi/3 (about 0.561) is
    reported as well to show the check can fail. Returns the report entry
    ``{"coefficient", "max_grid_residual", "perturbed_delta",
    "perturbed_coefficient", "holds"}``.
    """
    coeff = 4.0 * DELTA_SHARP - SIGMA_SHARP * np.sqrt(DELTA_SHARP)
    r = np.linspace(1e-6, 10.0, 1001)
    v = DELTA_SHARP * r * r
    residual = 2.0 * DELTA_SHARP * r + 2.0 * DELTA_SHARP * r - SIGMA_SHARP * np.sqrt(v)
    pert = 4.0 * PERTURBED_DELTA - SIGMA_SHARP * np.sqrt(PERTURBED_DELTA)
    coeff, max_residual = float(coeff), float(np.abs(residual).max())
    return {"coefficient": coeff, "max_grid_residual": max_residual,
            "perturbed_delta": float(PERTURBED_DELTA), "perturbed_coefficient": float(pert),
            "holds": abs(coeff) <= 1e-12 and max_residual <= 1e-11}


def ct_constants(n: int, conjectural=False) -> float:
    """Lower bound for the closed-surface curvature/diameter constant.

    Proven: pi/16 for n = 3, 4 (sharp Sobolev constant holds to codimension
    2), pi/32 for n >= 5. Conjectural mode returns pi, the sharp value the
    long capped cylinder suggests.
    """
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    if conjectural:
        return float(np.pi)
    return float(np.pi / 16.0) if n <= 4 else float(np.pi / 32.0)


def run_audit(shapes=None, probes_per_shape=20, seed=0) -> dict:
    """Full verification pass over the closed shape library.

    Returns the report that ``audit --json`` writes: ``michael_simon`` and
    ``dichotomy`` map each shape to its list of check entries, ``identity``
    is the comparison identity's entry, ``covering`` maps each shape to
    ``{"d_int", "d_int_upper", "curvature", "bound", "holds", "ratio_lower",
    "ratio_upper"}`` for Topping's d_int <= (16/pi) int|H|, and ``all_hold``
    is true when every entry holds. ``d_int`` and ``d_int_upper`` are the
    certified bracket of ``intrinsic_diameter`` on the edge-graph diameter,
    ``holds`` compares ``d_int_upper`` with the bound, and the ratios are
    curvature / d_int_upper and curvature / d_int.

    Every shape is checked first, in shape order: the first that is not a
    valid closed mesh, or not connected, raises ValueError before any check
    runs. Then the checks run shape by shape, in this process, and each
    shape's cache is cleared once its checks are done: while a shape is
    checked, the shapes still to come hold only their validation tables.
    """
    from .generators import closed_library_meshes

    if probes_per_shape < 1:
        raise ValueError(f"probes_per_shape must be at least 1, got {probes_per_shape}")
    if shapes is None:
        shapes = closed_library_meshes()
    for name, mesh in shapes.items():
        rep = validate(mesh)
        if not (rep.is_valid and rep.closed):
            raise ValueError(f"shape {name} is not a valid closed mesh")
        if not rep.connected:
            raise ValueError(f"shape {name} is not connected")
    report = {"michael_simon": {}, "dichotomy": {}, "identity": comparison_identity_check(),
              "covering": {}}
    rng = np.random.default_rng(seed)
    for name, mesh in shapes.items():
        report["michael_simon"][name] = michael_simon_check(
            mesh, probe_function_library(mesh, seed=seed))
        diam_hint = float(np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
        probes = rng.integers(0, mesh.n_vertices, size=probes_per_shape)
        report["dichotomy"][name] = [m_kappa(mesh, int(p), R=0.5 * diam_hint) for p in probes]
        (d_int, d_int_upper), curvature = intrinsic_diameter(mesh), total_mean_curvature(mesh)
        bound = float((16.0 / np.pi) * curvature)
        report["covering"][name] = {
            "d_int": d_int, "d_int_upper": d_int_upper, "curvature": curvature, "bound": bound,
            "holds": d_int_upper <= bound,
            "ratio_lower": curvature / d_int_upper if d_int_upper > 0 else np.inf,
            "ratio_upper": curvature / d_int if d_int > 0 else np.inf}
        mesh._cache.clear()  # its tables go before the next shape's are built
    report["all_hold"] = (
        all(r["holds"] for key in ("michael_simon", "dichotomy")
            for entries in report[key].values() for r in entries)
        and all(r["holds"] for r in report["covering"].values())
        and report["identity"]["holds"])
    return report
