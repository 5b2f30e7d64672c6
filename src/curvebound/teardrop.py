"""Teardrop curves: planar closed-up curves with a cusp at the origin.

The curve of index k runs from the origin out along a flat graph, around a
half-circle of radius 1/k, and back, so that both endpoint tangents are
horizontal and the total absolute curvature tends to pi as k grows. It is the
profile swept along boundary loops to glue two surface copies together.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import total_abs_curvature

# Transition-function profile: the derivative is a plateau with tanh shoulders,
# so the graph pieces stay flat through the probe points 0.05 / 0.95 while the
# maximum slope stays near the theoretical floor (1/plateau-width ~ 1.13);
# steeper transitions would push the measured turning of the curve above its
# convergence band at moderate k.
_SHOULDER_SHARPNESS = 2000.0
_RISE_CENTER = 0.0575
_FALL_CENTER = 1.0 - _RISE_CENTER

_GRID_N = 32768  # fixed grid for the graph arclength quadrature
_MIN_CIRCLE_SAMPLES = 4096  # density floor on the half-circle of build_teardrop
_SWEEP_GRAPH_SAMPLES = 64  # build_sweep_profile: samples per graph piece
_SWEEP_CIRCLE_SAMPLES = 48  # build_sweep_profile: samples on the half-circle


def _log_cosh(y):
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y)) - np.log(2.0)


def _antiderivative(x):
    a = _SHOULDER_SHARPNESS
    return (_log_cosh(a * (x - _RISE_CENTER)) - _log_cosh(a * (x - _FALL_CENTER))) / (2.0 * a)


_F0 = _antiderivative(np.array(0.0))
_F1 = _antiderivative(np.array(1.0))


def transition_function(x):
    """Smooth monotone bridge from 0 to 1 on [0, 1], flat near the ends.

    f is numerically 0 on [0, 0.05] and 1 on [0.95, 1] (below 1e-13), strictly
    monotone, C-infinity, with f(x) + f(1-x) = 1, and max slope ~= 1.13.
    Accepts scalars or arrays; raises for arguments outside [0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("transition_function is defined on [0, 1]")
    val = (_antiderivative(arr) - _F0) / (_F1 - _F0)
    return float(val) if np.isscalar(x) else val


def transition_slope(x):
    """Derivative of the transition function."""
    arr = np.asarray(x, dtype=float)
    a = _SHOULDER_SHARPNESS
    val = (np.tanh(a * (arr - _RISE_CENTER)) - np.tanh(a * (arr - _FALL_CENTER))) / (
        2.0 * (_F1 - _F0)
    )
    return float(val) if np.isscalar(x) else val


# Transition values and slope-squared samples on a fixed grid; graph pieces of
# dense curves are interpolated from here (piecewise linear between knots, so
# the turning-angle telescoping is exact between knots).
_XGRID = np.linspace(0.0, 1.0, _GRID_N + 1)
_FGRID = transition_function(_XGRID)
_SLOPE2_GRID = transition_slope(_XGRID) ** 2


def _graph_arclength_grid(k):
    """Cumulative arclength of x -> (x, f(x)/k) on the fixed x grid."""
    speed = np.sqrt(1.0 + _SLOPE2_GRID / (k * k))
    ds = 0.5 * (speed[1:] + speed[:-1]) * np.diff(_XGRID)
    return np.concatenate([[0.0], np.cumsum(ds)])


@dataclass
class TeardropCurve:
    """Sampled teardrop curve with arclength parametrization.

    ``s`` is the cumulative chord length of the sample polyline (so the data
    is unit-speed by construction), ``points`` the (x, y) samples. Both
    endpoints sit at the origin with opposite horizontal tangents; the cusp
    circle has radius 1/k.
    """

    k: int
    s: np.ndarray
    points: np.ndarray

    @property
    def total_length(self):
        return float(self.s[-1])

    def max_radius(self):
        x, y = self.points.T  # column sums: a norm along axis 1 is 3x slower
        return float(np.sqrt((x * x + y * y).max()))

    def turning(self):
        """Total absolute curvature (the cusp angle at the origin not included)."""
        return total_abs_curvature(self.points)

def _assemble(k, upper_half):
    """Mirror the upper half across y = 0 and glue; snap endpoints to the origin."""
    m = len(upper_half)
    pts = np.concatenate([upper_half, upper_half[-2::-1]])
    pts[m:, 1] *= -1.0
    pts[0] = (0.0, 0.0)
    pts[-1] = (0.0, 0.0)
    # in place: on a curve of 10^6 samples each fresh temporary costs page faults
    dx = np.diff(pts[:, 0])
    dx *= dx
    dx += np.diff(pts[:, 1]) ** 2
    s = np.zeros(len(pts))
    np.cumsum(np.sqrt(dx, out=dx), out=s[1:])
    return TeardropCurve(k=int(k), s=s, points=pts)


def build_teardrop(k) -> TeardropCurve:
    """Build the index-k teardrop, resampled at uniform arclength.

    The sampling density per unit length is set so the half-circle (length
    pi/k) carries at least 4096 samples; that tight arc dominates the
    turning-angle measurement. The cusp circle radius is 1/k, k >= 1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    density = int(np.ceil(_MIN_CIRCLE_SAMPLES * k / np.pi))

    s_graph = _graph_arclength_grid(k)
    graph_len = s_graph[-1]
    half_len = graph_len + (np.pi / 2.0) / k
    m = max(16, int(np.ceil(half_len * density))) + 1

    targets = np.linspace(0.0, half_len, m)
    n_graph = int(np.searchsorted(targets, graph_len, side="right"))
    upper = np.empty((m, 2))
    upper[:n_graph, 0] = np.interp(targets[:n_graph], s_graph, _XGRID)
    np.divide(np.interp(targets[:n_graph], s_graph, _FGRID), k, out=upper[:n_graph, 1])
    theta = np.pi / 2.0 - (targets[n_graph:] - graph_len) * k
    upper[n_graph:, 0] = 1.0 + np.cos(theta) / k
    upper[n_graph:, 1] = np.sin(theta) / k
    if abs(upper[-1, 1]) > 0:  # force the apex (the symmetry midpoint) exactly
        upper[-1] = (1.0 + 1.0 / k, 0.0)
    return _assemble(k, upper)


def build_sweep_profile(k) -> TeardropCurve:
    """Coarse teardrop sampling for tube sweeping.

    Turning-angle telescoping makes swept curvature insensitive to the profile
    density, so tubes stay small: 64 samples per graph piece and 48 on the
    half-circle.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    xs = np.linspace(0.0, 1.0, _SWEEP_GRAPH_SAMPLES + 1)
    upper_graph = np.column_stack([xs, transition_function(xs) / k])
    # Quarter circle from the graph junction down to the apex, junction excluded.
    theta = np.linspace(np.pi / 2.0, 0.0, _SWEEP_CIRCLE_SAMPLES // 2 + 1)[1:]
    upper_circle = np.column_stack([1.0 + np.cos(theta) / k, np.sin(theta) / k])
    upper = np.vstack([upper_graph, upper_circle])
    return _assemble(k, upper)


def save_teardrop(curve: TeardropCurve, path):
    """Two-column-per-point text export: 's x y' rows."""
    with open(path, "w") as fh:
        fh.write(f"# teardrop k={curve.k} length={curve.total_length:.12g}\n")
        for s, x, y in np.column_stack([curve.s, curve.points]):
            fh.write("%.12g %.12g %.12g\n" % (s, x, y))
