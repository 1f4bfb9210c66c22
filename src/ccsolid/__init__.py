"""Catmull-Clark subdivision solids: tricubic spline approximation,
isogeometric analysis, and multi-resolution BESO topology optimization."""

from .hexmesh import (HexMesh, VertexStar, ValidationReport,
                      parse_mesh, serialize_mesh, validate, vertex_star)
from .subdivision import (Provenance, LimitWeights, subdivide, limit_point,
                          limit_points, limit_weights,
                          local_subdivision_matrix)
from .spline import (BezierVolume, SplineModel, ErrorStats,
                     approximation_error, build_spline_model,
                     interior_bezier_point, evaluate, jacobian,
                     parse_model, serialize_model, regular_box_model)
from .iga import (Assembly, Material, DirichletSpec, LoadSpec,
                  BoundaryConditions, Solution, StiffnessOperator,
                  TwoLevelPreconditioner, assemble_and_solve, solve_system)
from .topopt import (BesoConfig, DensityField, OptState, SensitivityFilter,
                     average_history, beso_iterate, density_adjacency,
                     optimize, sensitivities)
from .cli import RunConfig, parse_config, serialize_config, run_command

__all__ = [
    "HexMesh", "VertexStar", "ValidationReport",
    "parse_mesh", "serialize_mesh", "validate", "vertex_star",
    "Provenance", "LimitWeights", "subdivide", "limit_point",
    "limit_points", "limit_weights", "local_subdivision_matrix",
    "BezierVolume", "SplineModel", "ErrorStats",
    "approximation_error", "build_spline_model", "interior_bezier_point",
    "evaluate", "jacobian", "parse_model", "serialize_model",
    "regular_box_model",
    "Assembly", "Material", "DirichletSpec", "LoadSpec",
    "BoundaryConditions", "Solution", "StiffnessOperator",
    "TwoLevelPreconditioner", "assemble_and_solve", "solve_system",
    "BesoConfig", "DensityField", "OptState", "SensitivityFilter",
    "average_history", "beso_iterate", "density_adjacency", "optimize",
    "sensitivities",
    "RunConfig", "parse_config", "serialize_config", "run_command",
]

__version__ = "0.1.0"
