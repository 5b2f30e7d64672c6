"""Reference computations the benchmark checks the program's outputs against.

None of these calls into curvebound: they are written from the definitions,
so a defect in the program's fast paths (hull prefilter, chunking, cone
search, doubling) shows up as a disagreement.
"""

import math

import numpy as np


def diameter(points, rows=128):
    """Largest pairwise Euclidean distance, by brute force over all pairs."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for i0 in range(0, len(p), rows):
        block = p[i0:i0 + rows]
        sq = ((block[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(sq.max()))
    return math.sqrt(best)


def closed_polyline_length(components):
    return sum(float(np.linalg.norm(np.roll(c, -1, axis=0) - c, axis=1).sum())
               for c in components)


def cone_sinh_sq(tol=1e-15):
    """sinh(tau)^2 for the root of cosh(t) = t sinh(t), by bisection on [1, 1.5]."""
    lo, hi = 1.0, 1.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.cosh(mid) - mid * math.sinh(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sinh(0.5 * (lo + hi)) ** 2


def cone_separates(components, certificate):
    """Whether every component lies strictly inside its nappe of the cone.

    The certificate's partition puts each component in the upper or lower
    nappe of ``|x - apex - z a|^2 < z^2 sinh^2(tau)``, ``z = (x - apex).a``,
    with ``z > 0`` above and ``z < 0`` below. Each nappe is convex, so the
    vertices being strictly inside puts the whole polyline inside. Returns
    (ok, reason).
    """
    up, down = (list(g) for g in certificate["partition"])
    if not up or not down:
        return False, "a nappe is empty"
    if sorted(up + down) != list(range(len(components))):
        return False, "partition does not cover each component once"
    apex = np.asarray(certificate["apex"], dtype=float)
    axis = np.asarray(certificate["axis"], dtype=float)
    axis = axis / np.linalg.norm(axis)
    sinh_sq = cone_sinh_sq()
    if abs(certificate["sinh_sq"] - sinh_sq) > 1e-9 * sinh_sq:
        return False, f"certificate sinh_sq {certificate['sinh_sq']} != {sinh_sq}"
    for group, sign in ((up, 1.0), (down, -1.0)):
        for i in group:
            rel = components[i] - apex
            z = sign * (rel @ axis)
            radial = rel - np.outer(rel @ axis, axis)
            rho_sq = (radial * radial).sum(axis=1)
            if not (np.all(z > 0.0) and np.all(rho_sq < z * z * sinh_sq)):
                return False, f"component {i} leaves its nappe"
    return True, ""


def closed_surface_defects(triangles):
    """Number of undirected edges not shared by exactly two triangles."""
    t = np.asarray(triangles, dtype=np.int64)
    n = int(t.max()) + 1
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
    _, counts = np.unique(keys, return_counts=True)
    return int(np.count_nonzero(counts != 2))

