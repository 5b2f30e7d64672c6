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

import os
from dataclasses import dataclass, field

import numpy as np

from .curvature import _curvature_weights, mean_curvature_field, total_mean_curvature
from .mesh import SurfaceMesh, geodesic_distances, intrinsic_diameter, validate

SIGMA_SHARP = 2.0 * np.sqrt(np.pi)
DELTA_SHARP = np.pi / 4.0
MS_DISCRETIZATION_SLACK = 0.05
R_SAMPLES = 50  # radius grid of m_kappa
N_BUMPS = 3  # extrinsic bumps in probe_function_library
PERTURBED_DELTA = np.pi / 3.0  # comparison_identity_check's off-sharp delta


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
    sq, dot, gram = mesh.corner_gram()
    guu, gww, guw, det = sq[:, 0], sq[:, 2], dot[:, 0], gram[:, 0]
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

    Each triangle keeps the part of the ball {d <= r} where the linear
    interpolant of its corner distances is <= r: with one corner out (its
    largest), all but the corner triangle cut off at the two crossings; with
    one corner in (its smallest), that corner triangle. A corner alone out
    (in) is strictly the largest (smallest), so the corners are rotated once
    per probe to put that one first, and each radius only compares the
    largest, middle and smallest corner distance with r.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    weights = (_curvature_weights(mesh, mean_curvature_field(mesh)),
               mesh.triangle_areas())
    dv = geodesic_distances(mesh, p)[mesh.triangles]
    # hi[k] (lo[k]): per triangle, the distance at the corner k after its largest (smallest)
    flat, turn = 3 * np.arange(len(dv)), np.arange(3)[:, None]
    hi, lo = (dv.ravel()[flat + (arg(dv, axis=1) + turn) % 3] for arg in (np.argmax, np.argmin))
    mid = np.maximum(hi[1], hi[2])
    m_best = -np.inf
    k_best = np.inf
    for j in range(1, R_SAMPLES + 1):
        r = R * j / R_SAMPLES
        full, two = hi[0] <= r, mid <= r
        cut, one = two & ~full, (lo[0] <= r) & ~two
        da, db, dc = hi.compress(cut, axis=1)
        kept = 1.0 - ((da - r) / (da - db)) * ((da - r) / (da - dc))
        da, db, dc = lo.compress(one, axis=1)
        tb, tc = (r - da) / (db - da), (r - da) / (dc - da)
        # w[one] * tb * tc runs left to right; w * (tb * tc) would round differently
        curvature, area = (float(w[full].sum()) + float((w[cut] * kept).sum())
                           + float((w[one] * tb * tc).sum()) for w in weights)
        m_best = max(m_best, curvature / r)
        k_best = min(k_best, area / (r * r))
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


def comparison_identity_check() -> IdentityRecord:
    """Residual of v' + 2*delta*r - sigma*sqrt(v) for v = delta*r^2.

    The coefficient 4*delta - sigma*sqrt(delta) vanishes exactly at the sharp
    constants; the coefficient at PERTURBED_DELTA = pi/3 (about 0.561) is
    reported as well to show the check can fail.
    """
    coeff = 4.0 * DELTA_SHARP - SIGMA_SHARP * np.sqrt(DELTA_SHARP)
    r = np.linspace(1e-6, 10.0, 1001)
    v = DELTA_SHARP * r * r
    residual = 2.0 * DELTA_SHARP * r + 2.0 * DELTA_SHARP * r - SIGMA_SHARP * np.sqrt(v)
    pert = 4.0 * PERTURBED_DELTA - SIGMA_SHARP * np.sqrt(PERTURBED_DELTA)
    return IdentityRecord(
        coefficient=float(coeff),
        max_grid_residual=float(np.abs(residual).max()),
        perturbed_delta=float(PERTURBED_DELTA),
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
    """Full verification pass over the closed shape library.

    The covering checks run in worker processes, one per CPU at most, beside
    the other checks, and are joined before this returns or raises; each
    record is taken in shape order, so no output depends on how many workers.
    """
    from concurrent.futures import ProcessPoolExecutor
    from .generators import closed_library_meshes

    if probes_per_shape < 1:
        raise ValueError(f"probes_per_shape must be at least 1, got {probes_per_shape}")
    if shapes is None:
        shapes = closed_library_meshes()
    report = AuditReport()
    report.identity = comparison_identity_check()
    rng = np.random.default_rng(seed)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = ProcessPoolExecutor(max(1, min(len(shapes), cpus or 1)))
    try:
        # fresh meshes: a feeder thread pickles them while this one fills their caches
        covering = {name: pool.submit(covering_bound_check, SurfaceMesh(m.vertices, m.triangles))
                    for name, m in shapes.items()}
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
            report.covering[name] = covering[name].result()
    finally:
        pool.shutdown(cancel_futures=True)
    return report
