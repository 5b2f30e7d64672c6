"""Closing a compact surface with boundary: frames, tubes and the double.

Two coincident copies of the input mesh are glued along each boundary loop
through a thin tube swept from a teardrop profile: tube point =
c(sigma) + eps*x(s)*e2(sigma) + eps*y(s)*e3(sigma), where (e1, e2, e3) is an
orthonormal frame along the loop (tangent, outward conormal, and a chosen
complement direction). The result is a closed connected surface that stays
within 2*eps of the original and whose curvature integral approaches
2*integral(|H|) + (pi/2)*boundary length as the profile index k grows.
"""

from dataclasses import dataclass, field

import numpy as np

from .curvature import total_mean_curvature
from .mesh import MeshError, SurfaceMesh, extrinsic_diameter, validate
from .teardrop import TeardropCurve, build_sweep_profile

EPS_BAR_CAP = 0.5  # threshold cap when the frame has no measurable bending
TRANSPORT_COLLAPSE_TOL = 1e-6


@dataclass
class BoundaryFrame:
    """Orthonormal triple sampled along one boundary loop.

    e1 is the discrete unit tangent, e2 the outward unit conormal (projected
    orthogonal to e1), e3 a unit section of the remaining complement: the
    cross product in R^3, a holonomy-corrected parallel transport in R^4.
    ``arclengths`` are cumulative along the loop; ``holonomy`` is the closure
    rotation angle that was distributed away (always 0.0 in R^3).
    """

    loop_indices: np.ndarray
    positions: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    arclengths: np.ndarray
    length: float
    holonomy: float = 0.0
    reseeded: int = 0

    def max_orthogonality_defect(self):
        d12 = np.abs(np.einsum("ij,ij->i", self.e1, self.e2)).max()
        d13 = np.abs(np.einsum("ij,ij->i", self.e1, self.e3)).max()
        d23 = np.abs(np.einsum("ij,ij->i", self.e2, self.e3)).max()
        norms = [np.abs(np.linalg.norm(e, axis=1) - 1.0).max()
                 for e in (self.e1, self.e2, self.e3)]
        return max(d12, d13, d23, *norms)

    def derivative_bound(self):
        """Max |de2/ds|, |de3/ds| by cyclic central differences."""
        ds = np.roll(self.arclengths, -1) - np.roll(self.arclengths, 1)
        ds[0] += self.length
        ds[-1] += self.length
        out = 0.0
        for e in (self.e2, self.e3):
            de = (np.roll(e, -1, axis=0) - np.roll(e, 1, axis=0)) / ds[:, None]
            out = max(out, float(np.linalg.norm(de, axis=1).max()))
        return out

    def periodicity_defect(self):
        """Mismatch of the frame transported once around vs. the start frame.

        The fields are single-valued arrays, so for e1/e2 this is zero by
        construction; for e3 the constructor measures the pre-correction
        closure and distributes it, leaving the residual reported here.
        """
        return float(np.linalg.norm(self.e3[0] - self._closure_e3))

    _closure_e3: np.ndarray = field(default=None, repr=False)


def _unit(v, axis=-1):
    n = np.linalg.norm(v, axis=axis, keepdims=True)
    return v / n


def build_boundary_frames(mesh: SurfaceMesh) -> list:
    """Orthonormal frames along every boundary loop of a valid mesh."""
    loops = mesh.boundary_loops
    if not loops:
        raise MeshError("mesh has no boundary loops to frame")

    # Adjacent interior geometry: centroid of the incident triangle centroids,
    # used as the inward reference the conormal must point away from.
    tri_centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    incident_sum = np.zeros_like(mesh.vertices)
    incident_cnt = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(incident_sum, mesh.triangles[:, k], tri_centroids)
        np.add.at(incident_cnt, mesh.triangles[:, k], 1.0)
    inward_point = incident_sum / np.maximum(incident_cnt, 1.0)[:, None]

    frames = []
    for loop in loops:
        idx = loop.vertex_indices
        c = mesh.vertices[idx]
        if np.any(np.linalg.norm(np.roll(c, -1, axis=0) - c, axis=1) < 1e-14):
            raise MeshError("degenerate tangent: duplicate consecutive boundary points")
        seg = np.linalg.norm(np.roll(c, -1, axis=0) - c, axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg[:-1])])

        e1 = _unit(np.roll(c, -1, axis=0) - np.roll(c, 1, axis=0))
        out = c - inward_point[idx]
        out = out - np.einsum("ij,ij->i", out, e1)[:, None] * e1
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms < 1e-12):
            raise MeshError("outward conormal degenerates on the boundary loop")
        e2 = out / norms[:, None]

        if mesh.dimension == 3:
            e3 = np.cross(e1, e2)
            e3 = _unit(e3)
            closure = e3[0]
            holonomy = 0.0
            reseeded = 0
        else:
            e3, holonomy, closure, reseeded = _transported_complement(e1, e2, s, loop.length)

        fr = BoundaryFrame(
            loop_indices=idx, positions=c, e1=e1, e2=e2, e3=e3,
            arclengths=s, length=loop.length, holonomy=holonomy,
            reseeded=reseeded, _closure_e3=closure,
        )
        frames.append(fr)
    return frames


def _complement_seed(e1, e2):
    """Two orthonormal vectors spanning the complement of {e1, e2} in R^4."""
    basis = np.eye(4)
    # most orthogonal ambient direction first
    scores = np.abs(basis @ e1) + np.abs(basis @ e2)
    order = np.argsort(scores)
    u = basis[order[0]] - (basis[order[0]] @ e1) * e1 - (basis[order[0]] @ e2) * e2
    u /= np.linalg.norm(u)
    for cand in order[1:]:
        w = basis[cand] - (basis[cand] @ e1) * e1 - (basis[cand] @ e2) * e2
        w -= (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-8:
            return u, w / n
    raise MeshError("failed to seed a complement frame")


def _transported_complement(e1, e2, s, length):
    """Discrete parallel transport of a complement 2-frame around the loop.

    Projects the previous pair onto the current complement plane and
    re-orthonormalizes; the closure rotation (holonomy) is then distributed
    linearly in arclength so the returned e3 field is periodic.
    """
    m = len(e1)
    u0, w0 = _complement_seed(e1[0], e2[0])
    us = np.empty_like(e1)
    ws = np.empty_like(e1)
    us[0], ws[0] = u0, w0
    reseeded = 0
    for j in range(1, m):
        u, w = us[j - 1], ws[j - 1]
        pu = u - (u @ e1[j]) * e1[j] - (u @ e2[j]) * e2[j]
        pw = w - (w @ e1[j]) * e1[j] - (w @ e2[j]) * e2[j]
        nu = np.linalg.norm(pu)
        if nu < TRANSPORT_COLLAPSE_TOL:
            pu, pw = _complement_seed(e1[j], e2[j])
            nu = 1.0
            reseeded += 1
        pu = pu / nu
        pw = pw - (pw @ pu) * pu
        nw = np.linalg.norm(pw)
        if nw < TRANSPORT_COLLAPSE_TOL:
            _, pw = _complement_seed(e1[j], e2[j])
            nw = 1.0
            reseeded += 1
            pw = pw - (pw @ pu) * pu
            pw /= np.linalg.norm(pw)
        else:
            pw = pw / nw
        us[j], ws[j] = pu, pw

    # closure: transport the last pair onto the starting complement plane
    pu = us[-1] - (us[-1] @ e1[0]) * e1[0] - (us[-1] @ e2[0]) * e2[0]
    pu /= np.linalg.norm(pu)
    theta = float(np.arctan2(pu @ ws[0], pu @ us[0]))
    # rotate each sample by -theta * s/L inside its own complement plane
    phi = -theta * s / length
    e3 = np.cos(phi)[:, None] * us + np.sin(phi)[:, None] * ws
    closure = np.cos(-theta) * pu + np.sin(-theta) * (
        ws[-1] - (ws[-1] @ e1[0]) * e1[0] - (ws[-1] @ e2[0]) * e2[0]
    )
    closure /= np.linalg.norm(closure)
    return e3, theta, closure, reseeded


def regularity_threshold(frame: BoundaryFrame) -> float:
    """Conservative sweep amplitude below which the tube patch stays regular.

    Every sweep profile stays inside radius 2 (teardrop bound), so the
    threshold depends on the frame alone: displacement derivatives along
    the loop are at most 2*eps*max(|de2|, |de3|); keeping
    them under 1/2 keeps the sweep's sigma-derivative dominated by the unit
    tangent. Capped for straight loops with no measurable frame bending.
    """
    bending = frame.derivative_bound()
    if bending <= 0.0:
        return EPS_BAR_CAP
    return float(min(EPS_BAR_CAP, 0.5 / (2.0 * bending)))


def build_tube(frame: BoundaryFrame, teardrop: TeardropCurve, epsilon: float) -> SurfaceMesh:
    """Sweep the teardrop profile along the framed loop into an annulus mesh.

    Rows follow the profile samples; both end rows reproduce the loop
    positions exactly (profile endpoints sit at the origin). Quads are split
    on a consistent diagonal; the row-0 edges run against the loop direction
    so the tube glues orientation-consistently onto the source mesh.
    """
    eps_bar = regularity_threshold(frame)
    if not 0.0 < epsilon < eps_bar:
        raise MeshError(f"epsilon {epsilon} outside the regular range (0, {eps_bar})")
    tube = SurfaceMesh(*_tube_grid(frame, teardrop, epsilon))
    areas = tube.triangle_areas()
    if areas.min() < 1e-14:
        raise MeshError(f"degenerate tube cell (area {areas.min():.3e})")
    return tube


def _tube_grid(frame, teardrop, epsilon):
    """Vertex grid (rows = profile samples, cols = loop samples) and triangles."""
    x = teardrop.points[:, 0]
    y = teardrop.points[:, 1]
    n_rows = len(x)
    m = len(frame.positions)
    disp = (epsilon * x)[:, None, None] * frame.e2[None, :, :] + (
        epsilon * y
    )[:, None, None] * frame.e3[None, :, :]
    grid = frame.positions[None, :, :] + disp  # (rows, m, dim)
    verts = grid.reshape(n_rows * m, -1)

    rows = np.arange(n_rows - 1)[:, None]
    cols = np.arange(m)[None, :]
    nxt = (cols + 1) % m
    a = rows * m + cols          # (row, j)
    b = (rows + 1) * m + cols    # (row+1, j)
    c = (rows + 1) * m + nxt     # (row+1, j+1)
    d = rows * m + nxt           # (row, j+1)
    t1 = np.stack([a, b, c], axis=-1).reshape(-1, 3)
    t2 = np.stack([a, c, d], axis=-1).reshape(-1, 3)
    tris = np.concatenate([t1, t2])
    return verts, tris


@dataclass
class DoubledSurface:
    """A closed double: two coincident copies of M glued through boundary tubes."""

    sigma: SurfaceMesh
    epsilon: float
    k: int
    provenance: dict


def build_double(mesh: SurfaceMesh, k: int, epsilon="auto") -> DoubledSurface:
    """Glue two copies of ``mesh`` into a closed surface through teardrop tubes.

    The copy is coincident with the original (the surfaces are immersions, so
    the double is "pressed" flat against the input); each boundary loop gets a
    tube whose end rows are welded to the loop's vertices on the two copies.
    ``epsilon="auto"`` picks min(eps_bar/2, 1/(2k)), keeping the sweep regular
    and the diameter perturbation below 4*eps_k < 2/k. An invalid,
    disconnected or closed mesh raises MeshError before any frame is built.
    """
    report = validate(mesh)
    if not report.is_valid:
        raise MeshError(f"cannot double an invalid mesh:\n{report}")
    if not report.connected:
        raise MeshError("mesh is not connected; doubling applies to connected surfaces")
    if report.closed:
        raise MeshError("mesh is closed; doubling applies to surfaces with boundary")
    frames = build_boundary_frames(mesh)
    profile = build_sweep_profile(k)
    eps_bar = min(regularity_threshold(fr) for fr in frames)
    if epsilon == "auto":
        epsilon = min(eps_bar / 2.0, 1.0 / (2.0 * k))
    if not 0.0 < epsilon < eps_bar:
        raise MeshError(f"epsilon {epsilon} outside the regular range (0, {eps_bar})")

    v = mesh.n_vertices
    vertex_blocks = [mesh.vertices, mesh.vertices]  # copy 2 is coincident
    tri_blocks = [mesh.triangles, mesh.triangles[:, ::-1] + v]
    provenance = {
        "copy-1": (0, mesh.n_triangles),
        "copy-2": (mesh.n_triangles, 2 * mesh.n_triangles),
    }
    next_vertex = 2 * v
    next_tri = 2 * mesh.n_triangles

    for i, frame in enumerate(frames):
        tube = build_tube(frame, profile, epsilon)
        m = len(frame.loop_indices)
        # Weld: row 0 -> loop vertices on copy 1, last row -> loop on copy 2,
        # interior rows get fresh indices.
        remap = np.empty(tube.n_vertices, dtype=np.int64)
        remap[:m] = frame.loop_indices
        remap[-m:] = frame.loop_indices + v
        n_interior = tube.n_vertices - 2 * m
        remap[m:-m] = next_vertex + np.arange(n_interior)
        vertex_blocks.append(tube.vertices[m:-m])
        tri_blocks.append(remap[tube.triangles])
        provenance[f"tube-{i}"] = (next_tri, next_tri + tube.n_triangles)
        next_vertex += n_interior
        next_tri += tube.n_triangles

    sigma = SurfaceMesh(np.vstack(vertex_blocks), np.vstack(tri_blocks))
    sig_report = validate(sigma)
    if not (sig_report.is_valid and sig_report.closed and sig_report.connected):
        raise MeshError(f"doubling produced a bad surface:\n{sig_report}")
    return DoubledSurface(sigma=sigma, epsilon=float(epsilon), k=int(k),
                          provenance=provenance)


def convergence_rows(mesh: SurfaceMesh, k_list, epsilon="auto"):
    """Doubling sweep over k, one double at a time: yields (row, double).

    Each row holds the double's measured curvature and diameter and their
    limits, computed from the input mesh with the same discrete operators:
    target curvature 2*int|H| + (pi/2)*l(boundary), target diameter d(M).
    """
    from .mesh import boundary_length

    base_curv = total_mean_curvature(mesh)
    base_len = boundary_length(mesh)
    base_diam = extrinsic_diameter(mesh.vertices)
    target_curv = 2.0 * base_curv + (np.pi / 2.0) * base_len

    for k in k_list:
        double = build_double(mesh, k, epsilon=epsilon)
        curv = total_mean_curvature(double.sigma)
        diam = extrinsic_diameter(double.sigma.vertices)
        row = {
            "k": int(k),
            "epsilon": double.epsilon,
            "sigma_curvature": curv,
            "sigma_diameter": diam,
            "target_curvature": target_curv,
            "target_diameter": base_diam,
            "curvature_error": abs(curv - target_curv),
            "diameter_error": abs(diam - base_diam),
        }
        yield row, double
