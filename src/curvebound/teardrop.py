"""Teardrop profiles: planar curves with a cusp at the origin.

The profile of index k runs from the origin out along the graph y = f(x)/k
of the transition function f, around a half-circle of radius 1/k, and back
along the mirrored graph, so that both endpoint tangents are horizontal. It
is swept along boundary loops to glue two surface copies together, and its
total absolute curvature pi + 4*atan(s_max/k), with s_max the largest slope
of f, tends to pi as k grows. One construction, ``build_sweep_profile``,
samples it; the samples carry their cumulative chord length ``s``, and the
curve's length comes from a quadrature of the smooth graph.
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

_GRID_N = 32768  # intervals of the graph arclength quadrature
_SWEEP_GRAPH_SAMPLES = 64  # build_sweep_profile: samples per graph piece
_SWEEP_CIRCLE_SAMPLES = 48  # build_sweep_profile: samples on the half-circle
# Largest index k. The samples' turning matches pi + 4*atan(s_max/k) to 2e-13
# up to here; from about 10^13.75 the half-circle's radius 1/k nears the
# rounding of its x = 1 + cos(theta)/k, and the turning is off by radians.
K_MAX = 2**32


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


def _graph_length(k):
    """Arclength of x -> (x, f(x)/k) on [0, 1], by the trapezoid rule on a fixed grid."""
    x = np.linspace(0.0, 1.0, _GRID_N + 1)
    return float(np.trapezoid(np.sqrt(1.0 + transition_slope(x) ** 2 / (k * k)), x))


def check_index(k):
    """Raise ValueError unless k is a whole number with 1 <= k <= K_MAX."""
    if not 1 <= k <= K_MAX or k % 1:
        raise ValueError(f"k must be an integer from 1 to {K_MAX}")


@dataclass
class TeardropCurve:
    """The sampled teardrop of index k.

    ``points`` are the (x, y) samples and ``s`` their cumulative chord
    length. Both endpoints sit at the origin with opposite horizontal
    tangents; the cusp circle has radius 1/k. ``total_length`` is the length
    of the smooth curve, not of the samples' polyline.
    """

    k: int
    s: np.ndarray
    points: np.ndarray

    @property
    def total_length(self):
        """2*(graph length + pi/(2k)), the graph length from the trapezoid rule."""
        return 2.0 * (_graph_length(self.k) + (np.pi / 2.0) / self.k)

    def max_radius(self):
        x, y = self.points.T  # column sums: a norm along axis 1 is 3x slower
        return float(np.sqrt((x * x + y * y).max()))

    def turning(self):
        """Total absolute curvature (the cusp angle at the origin not included)."""
        return total_abs_curvature(self.points)


def build_sweep_profile(k) -> TeardropCurve:
    """The index-k teardrop at 177 samples: 65 per graph piece, uniform in x,
    and 47 between them on the half-circle, uniform in angle.

    Turning angles telescope, so the samples turn as much as the smooth
    curve: f' is flat at its maximum s_max between the shoulders, so each
    graph piece turns by 2*atan(s_max/k), and the half-circle by pi.
    ValueError for k outside [1, K_MAX].
    """
    check_index(k)
    xs = np.linspace(0.0, 1.0, _SWEEP_GRAPH_SAMPLES + 1)
    upper_graph = np.column_stack([xs, transition_function(xs) / k])
    # Quarter circle from the graph junction down to the apex, junction excluded.
    theta = np.linspace(np.pi / 2.0, 0.0, _SWEEP_CIRCLE_SAMPLES // 2 + 1)[1:]
    upper_circle = np.column_stack([1.0 + np.cos(theta) / k, np.sin(theta) / k])
    upper = np.vstack([upper_graph, upper_circle])
    # mirror the upper half across y = 0 and glue; snap the endpoints to the origin
    m = len(upper)
    pts = np.concatenate([upper, upper[-2::-1]])
    pts[m:, 1] *= -1.0
    pts[0] = pts[-1] = 0.0
    s = np.zeros(len(pts))
    np.cumsum(np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1)), out=s[1:])
    return TeardropCurve(k=int(k), s=s, points=pts)


def save_teardrop(curve: TeardropCurve, path):
    """Two-column-per-point text export: 's x y' rows."""
    with open(path, "w") as fh:
        fh.write(f"# teardrop k={curve.k} length={curve.total_length:.12g}\n")
        for s, x, y in np.column_stack([curve.s, curve.points]):
            fh.write("%.12g %.12g %.12g\n" % (s, x, y))
