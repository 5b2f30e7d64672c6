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

from dataclasses import dataclass, field

import numpy as np

from .curvature import _curvature_weights, mean_curvature_field, total_mean_curvature
from .mesh import (SurfaceMesh, _ball_clip, _ball_integral, geodesic_distances,
                   intrinsic_diameter, validate)

SIGMA_SHARP = 2.0 * np.sqrt(np.pi)
DELTA_SHARP = np.pi / 4.0
MS_DISCRETIZATION_SLACK = 0.05
R_SAMPLES = 50  # radius grid of m_kappa


@dataclass
class MichaelSimonRecord:
    f_name: str
    lhs: float
    rhs: float
    grad_l1: float
    hf_l1: float
    holds: bool

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def ratio(self):
        return self.lhs / self.rhs if self.rhs > 0 else np.inf


def _triangle_gradients_l1(mesh, f):
    """L1 norm of the per-triangle linear gradient, any codimension.

    On each triangle solve the 2x2 Gram system for the tangential gradient of
    the linear interpolant; |grad f|^2 = df^T G^{-1} df.
    """
    tri = mesh.triangles
    p = mesh.vertices[tri]
    u = p[:, 1] - p[:, 0]
    w = p[:, 2] - p[:, 0]
    guu = np.einsum("ij,ij->i", u, u)
    gww = np.einsum("ij,ij->i", w, w)
    guw = np.einsum("ij,ij->i", u, w)
    det = guu * gww - guw * guw
    df1 = f[tri[:, 1]] - f[tri[:, 0]]
    df2 = f[tri[:, 2]] - f[tri[:, 0]]
    grad_sq = np.where(
        det > 0,
        (gww * df1 * df1 - 2.0 * guw * df1 * df2 + guu * df2 * df2)
        / np.where(det > 0, det, 1.0),
        0.0,
    )
    return float((np.sqrt(np.maximum(grad_sq, 0.0)) * mesh.triangle_areas()).sum())


def michael_simon_check(mesh: SurfaceMesh, f, name="f") -> MichaelSimonRecord:
    """Discrete sharp Michael-Simon inequality for one nonnegative function.

    Vertex-lumped L2 norm, per-triangle linear-gradient L1 norm, vertex-lumped
    |H| f L1 norm; the inequality is granted a 5% slack for discretization.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("test functions must be nonnegative")
    if len(f) != mesh.n_vertices:
        raise ValueError("f must be a per-vertex field")
    if not mesh.is_closed():
        raise ValueError("the inequality is checked on closed surfaces")
    field_ = mean_curvature_field(mesh)
    lhs = SIGMA_SHARP * float(np.sqrt(np.sum(f * f * field_.areas)))
    grad_l1 = _triangle_gradients_l1(mesh, f)
    hf_l1 = float(np.sum(field_.magnitudes() * f * field_.areas))
    rhs = grad_l1 + 2.0 * hf_l1
    return MichaelSimonRecord(
        f_name=name, lhs=lhs, rhs=rhs, grad_l1=grad_l1, hf_l1=hf_l1,
        holds=bool(lhs <= rhs * (1.0 + MS_DISCRETIZATION_SLACK)),
    )


def probe_function_library(mesh: SurfaceMesh, seed=0, n_bumps=3):
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
    for b in range(n_bumps):
        q = mesh.vertices[rng.integers(0, mesh.n_vertices)]
        width = 0.5 * np.linalg.norm(mesh.vertices - q, axis=1).max()
        f = np.exp(-np.sum((mesh.vertices - q) ** 2, axis=1) / width**2)
        out.append((f"bump_{b}", f))
    return out


@dataclass
class DichotomyRecord:
    probe: int
    radius: float
    m: float
    kappa: float

    @property
    def holds(self):
        return max(self.m, self.kappa) > DELTA_SHARP


def m_kappa(mesh: SurfaceMesh, p: int, R: float) -> DichotomyRecord:
    """Curvature concentration m(p,R) and area collapsedness kappa(p,R).

    m = sup over sampled r of (1/r) * integral of |H| over B(p, r);
    kappa = inf over sampled r of V(p, r)/r^2. The sup/inf run over the grid
    r = R*j/R_SAMPLES. R beyond the intrinsic radius just saturates the ball.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    # the values of curvature_in_ball and intrinsic_ball_volume, with the
    # per-probe work done once and one clipping per radius for both sums
    areas = mesh.triangle_areas()
    weighted = _curvature_weights(mesh, mean_curvature_field(mesh))
    dv = geodesic_distances(mesh, p)[mesh.triangles]
    m_best = -np.inf
    k_best = np.inf
    for j in range(1, R_SAMPLES + 1):
        r = R * j / R_SAMPLES
        clip = _ball_clip(dv, r)
        m_best = max(m_best, _ball_integral(weighted, clip) / r)
        k_best = min(k_best, _ball_integral(areas, clip) / (r * r))
    return DichotomyRecord(probe=int(p), radius=float(R), m=float(m_best),
                           kappa=float(k_best))


@dataclass
class IdentityRecord:
    coefficient: float
    max_grid_residual: float
    perturbed_delta: float
    perturbed_coefficient: float

    @property
    def holds(self):
        return abs(self.coefficient) <= 1e-12 and self.max_grid_residual <= 1e-11


def comparison_identity_check(perturbed_delta=np.pi / 3.0) -> IdentityRecord:
    """Residual of v' + 2*delta*r - sigma*sqrt(v) for v = delta*r^2.

    The coefficient 4*delta - sigma*sqrt(delta) vanishes exactly at the sharp
    constants; a perturbed delta is evaluated as well to show the check can
    fail (pi/3 gives about 0.561).
    """
    coeff = 4.0 * DELTA_SHARP - SIGMA_SHARP * np.sqrt(DELTA_SHARP)
    r = np.linspace(1e-6, 10.0, 1001)
    v = DELTA_SHARP * r * r
    residual = 2.0 * DELTA_SHARP * r + 2.0 * DELTA_SHARP * r - SIGMA_SHARP * np.sqrt(v)
    pert = 4.0 * perturbed_delta - SIGMA_SHARP * np.sqrt(perturbed_delta)
    return IdentityRecord(
        coefficient=float(coeff),
        max_grid_residual=float(np.abs(residual).max()),
        perturbed_delta=float(perturbed_delta),
        perturbed_coefficient=float(pert),
    )


@dataclass
class CoveringRecord:
    d_int: float
    curvature: float
    bound: float

    @property
    def holds(self):
        return self.d_int <= self.bound

    @property
    def ratio(self):
        return self.curvature / self.d_int if self.d_int > 0 else np.inf


def covering_bound_check(mesh: SurfaceMesh) -> CoveringRecord:
    """Check d_int <= (16/pi) * int|H| on a closed connected mesh.

    d_int is the exact max vertex eccentricity of the edge graph
    (``intrinsic_diameter``, which raises ValueError for a disconnected mesh).
    """
    if not mesh.is_closed():
        raise ValueError("covering bound applies to closed surfaces")
    d_int = intrinsic_diameter(mesh)
    curv = total_mean_curvature(mesh)
    return CoveringRecord(d_int=d_int, curvature=curv,
                          bound=float((16.0 / np.pi) * curv))


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


@dataclass
class AuditReport:
    michael_simon: dict = field(default_factory=dict)  # shape -> [records]
    dichotomy: dict = field(default_factory=dict)      # shape -> [records]
    identity: IdentityRecord | None = None
    covering: dict = field(default_factory=dict)       # shape -> record

    @property
    def all_hold(self):
        ms = all(r.holds for rs in self.michael_simon.values() for r in rs)
        di = all(r.holds for rs in self.dichotomy.values() for r in rs)
        co = all(r.holds for r in self.covering.values())
        return ms and di and co and (self.identity is None or self.identity.holds)

    def to_dict(self):
        return {
            "michael_simon": {
                shape: [
                    {"f": r.f_name, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
                     "holds": r.holds}
                    for r in rs
                ]
                for shape, rs in self.michael_simon.items()
            },
            "dichotomy": {
                shape: [
                    {"probe": r.probe, "R": r.radius, "m": r.m, "kappa": r.kappa,
                     "holds": r.holds}
                    for r in rs
                ]
                for shape, rs in self.dichotomy.items()
            },
            "identity": None if self.identity is None else {
                "coefficient": self.identity.coefficient,
                "max_grid_residual": self.identity.max_grid_residual,
                "perturbed_delta": self.identity.perturbed_delta,
                "perturbed_coefficient": self.identity.perturbed_coefficient,
                "holds": self.identity.holds,
            },
            "covering": {
                shape: {"d_int": r.d_int, "curvature": r.curvature, "bound": r.bound,
                        "holds": r.holds, "ratio": r.ratio}
                for shape, r in self.covering.items()
            },
            "all_hold": self.all_hold,
        }


def run_audit(shapes=None, probes_per_shape=20, seed=0) -> AuditReport:
    """Full verification pass over the closed shape library."""
    from .generators import closed_library_meshes

    if probes_per_shape < 1:
        raise ValueError(f"probes_per_shape must be at least 1, got {probes_per_shape}")
    if shapes is None:
        shapes = closed_library_meshes()
    report = AuditReport()
    report.identity = comparison_identity_check()
    rng = np.random.default_rng(seed)
    for name, mesh in shapes.items():
        rep = validate(mesh)
        if not (rep.is_valid and rep.closed):
            raise ValueError(f"shape {name} is not a valid closed mesh")
        report.michael_simon[name] = [
            michael_simon_check(mesh, f, fname)
            for fname, f in probe_function_library(mesh, seed=seed)
        ]
        diam_hint = float(np.linalg.norm(
            mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
        probes = rng.integers(0, mesh.n_vertices, size=probes_per_shape)
        report.dichotomy[name] = [m_kappa(mesh, int(p), R=0.5 * diam_hint)
                                  for p in probes]
        report.covering[name] = covering_bound_check(mesh)
    return report
