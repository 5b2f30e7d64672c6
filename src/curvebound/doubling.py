"""Closing a compact surface with boundary: frames, tubes and the double.

Two coincident copies of the input mesh are glued along each boundary loop
through a thin tube swept from a teardrop profile: tube point =
c(sigma) + eps*x(s)*e2(sigma) + eps*y(s)*e3(sigma), where (e1, e2, e3) is an
orthonormal frame along the loop (tangent, outward conormal, and a chosen
complement direction). The result is a closed connected surface that stays
within 2*eps of the original and whose curvature integral approaches
2*integral(|H|) + (pi/2)*boundary length as the profile index k grows.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import total_mean_curvature
from .mesh import MeshError, SurfaceMesh, extrinsic_diameter, validate
from .teardrop import TeardropCurve, build_sweep_profile

EPS_BAR_CAP = 0.5  # threshold cap when the frame has no measurable bending


@dataclass
class BoundaryFrame:
    """Orthonormal triple sampled along one boundary loop.

    e1 is the discrete unit tangent, e2 the outward unit conormal (projected
    orthogonal to e1), e3 a periodic unit section of the remaining
    complement, carried around the loop by a sign-fixed QR transport (in R^3
    it is e1 x e2). ``arclengths`` are cumulative along the loop;
    ``holonomy`` is the angle in [0, pi] by which the section's coefficients
    turn to close up: the great-circle distance between a section carried
    once around the loop and its start (always 0.0 in R^3).
    """

    loop_indices: np.ndarray
    positions: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    arclengths: np.ndarray
    length: float
    holonomy: float = 0.0

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
        seg = np.linalg.norm(np.roll(c, -1, axis=0) - c, axis=1)
        if np.any(seg < 1e-14):
            raise MeshError("degenerate tangent: duplicate consecutive boundary points")
        chord = np.roll(c, -1, axis=0) - np.roll(c, 1, axis=0)
        span = np.linalg.norm(chord, axis=1)
        if np.any(span < 1e-14):
            raise MeshError(f"degenerate tangent: the boundary loop doubles back at "
                            f"vertex {idx[np.argmax(span < 1e-14)]}")
        s = np.concatenate([[0.0], np.cumsum(seg[:-1])])

        e1 = chord / span[:, None]
        out = c - inward_point[idx]
        out = out - np.einsum("ij,ij->i", out, e1)[:, None] * e1
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms < 1e-12):
            raise MeshError("outward conormal degenerates on the boundary loop")
        e2 = out / norms[:, None]
        e3, holonomy = _transported_section(e1, e2, s, loop.length)
        frames.append(BoundaryFrame(loop_indices=idx, positions=c, e1=e1, e2=e2, e3=e3,
                                    arclengths=s, length=loop.length, holonomy=holonomy))
    return frames


def _carry(e1, e2, u):
    """Orthonormal frame of the complement of (e1, e2) nearest to the columns of u.

    The complete QR of [e1, e2, u] with diag(R) made nonnegative: its last
    columns are u's Gram-Schmidt projection onto the complement. Householder
    QR keeps them orthonormal even when that projection degenerates.
    """
    q, r = np.linalg.qr(np.column_stack([e1, e2, u]))
    return (q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0))[:, 2:]


def _transported_section(e1, e2, s, length):
    """A periodic unit section of the complement of (e1, e2), any ambient n >= 3.

    The seed frame U_0 carries the ambient axes least aligned with (e1, e2),
    the first such axis on ties leading. ``_carry`` takes the frame from
    sample to sample and, once more, back onto sample 0. Every frame then
    has its last column flipped where det[e1, e2, U] < 0 (``_carry`` commutes
    with column signs), so in R^3 the section is e1 x e2. The frame returns
    to sample 0 as U_0 R with R in SO(n - 2), and the section's coefficients
    move along the great circle from a_0 = (1, 0, ...) to R^T a_0, linearly
    in the arclength ``s``. Returns the section and that angle.
    """
    m, n = e1.shape
    order = np.argsort(np.abs(e1[0]) + np.abs(e2[0]), kind="stable")
    frames = np.empty((m + 1, n, n - 2))
    frames[0] = _carry(e1[0], e2[0], np.eye(n)[:, order[:n - 2]])
    for j in range(1, m + 1):
        frames[j] = _carry(e1[j % m], e2[j % m], frames[j - 1])
    at = np.arange(m + 1) % m
    det = np.linalg.det(np.concatenate([e1[at, :, None], e2[at, :, None], frames], axis=2))
    frames[:, :, -1] *= np.where(det < 0.0, -1.0, 1.0)[:, None]
    a0 = np.eye(n - 2)[0]
    end = frames[0][:, 0] @ frames[m]  # R^T a_0
    turn = end - end[0] * a0
    sin_w = np.linalg.norm(turn)
    angle = float(np.arctan2(sin_w, end[0]))
    # sin_w = 0: the angle is 0, or pi (n >= 4 only) and any axis orthogonal to a_0 will do
    toward = turn / sin_w if sin_w else np.roll(a0, 1)
    phi = angle * s / length
    coeff = np.cos(phi)[:, None] * a0 + np.sin(phi)[:, None] * toward
    return np.einsum("jik,jk->ji", frames[:m], coeff), angle


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
