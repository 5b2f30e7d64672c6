"""Diameter bounds for compact surfaces and Plateau-Douglas nonexistence checks.

The toolkit discretizes the curvature-based diameter bound for surfaces with
boundary, executes the doubling construction behind it (boundary frames,
teardrop profiles, tube gluing) with numerical verification of its convergence
claims, and turns the resulting contour criterion plus two classical
competitors into an automated nonexistence analyzer.
"""

from .contour import Contour, contour_diameter, contour_length
from .criteria import analyze, cone_check, diameter_length_check, tau_root, white_check
from .curvature import (MeanCurvatureField, mean_curvature_field, total_abs_curvature,
                        total_mean_curvature)
from .doubling import (BoundaryFrame, DoubledSurface, build_boundary_frames,
                       build_double, build_tube, convergence_rows,
                       regularity_threshold)
from .mesh import (BoundaryLoop, SurfaceMesh, ValidationReport, boundary_length,
                   extrinsic_diameter, geodesic_distances, intrinsic_diameter,
                   load_mesh, save_mesh, validate)
from .teardrop import TeardropCurve, build_teardrop, transition_function

__version__ = "0.1.0"

__all__ = [
    "BoundaryFrame",
    "BoundaryLoop",
    "Contour",
    "DoubledSurface",
    "MeanCurvatureField",
    "SurfaceMesh",
    "TeardropCurve",
    "ValidationReport",
    "analyze",
    "boundary_length",
    "build_boundary_frames",
    "build_double",
    "build_teardrop",
    "build_tube",
    "cone_check",
    "contour_diameter",
    "contour_length",
    "convergence_rows",
    "diameter_length_check",
    "extrinsic_diameter",
    "geodesic_distances",
    "intrinsic_diameter",
    "load_mesh",
    "mean_curvature_field",
    "regularity_threshold",
    "save_mesh",
    "tau_root",
    "total_abs_curvature",
    "total_mean_curvature",
    "transition_function",
    "validate",
    "white_check",
]
