"""Command-line driver: mesh checks, refinement, spline export, analysis
and optimisation runs.

Subcommands: validate, subdivide, limit, bezier, error, solve, optimize.
Analysis runs are described by a line-oriented config file of [section]
blocks with `key = value` pairs; see parse_config.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import vtkio
from .hexmesh import parse_mesh, serialize_mesh, validate
from .iga import (BoundaryConditions, DirichletSpec, LoadSpec, Material,
                  assemble_and_solve)
from .spline import approximation_error, build_spline_model
from .subdivision import limit_points, subdivide
from .topopt import BesoConfig, optimize

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass
class RunConfig:
    """Everything a solve/optimize run needs besides the mesh file."""

    problem: str = "elasticity"
    material: Material = field(default_factory=lambda: Material(1.0, 0.3))
    subdivide: int = 0
    density_level: int = 1
    v_star: float = None
    er: float = 0.02
    rho_min: float = 1e-4
    filter: bool = True
    max_iters: int = 200
    paper_exact_sensitivity: bool = False
    rtol: float = 1e-8
    precond: str = BesoConfig.precond
    single_precision: bool = BesoConfig.single_precision
    dirichlet: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    heat_sources: list = field(default_factory=list)

    def boundary_conditions(self):
        return BoundaryConditions(dirichlet=list(self.dirichlet),
                                  loads=list(self.loads),
                                  heat_source=float(sum(self.heat_sources)))

    def beso_config(self):
        if self.v_star is None:
            raise ValueError("config has no [beso] v_star")
        return BesoConfig(v_star=self.v_star, er=self.er,
                          rho_min=self.rho_min, level=self.density_level,
                          filter=self.filter, max_iterations=self.max_iters,
                          rtol=self.rtol, precond=self.precond,
                          single_precision=self.single_precision,
                          paper_exact_sensitivity=self.paper_exact_sensitivity)


def _parse_floats(value, n, lineno, key):
    parts = value.split()
    if len(parts) != n:
        raise ValueError("line %d: %s needs %d numbers, got %d"
                         % (lineno, key, n, len(parts)))
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError("line %d: bad number in %s" % (lineno, key))


def _parse_bool(value, lineno, key):
    if value not in ("true", "false"):
        raise ValueError("line %d: %s must be true or false" % (lineno, key))
    return value == "true"


def _parse_dofs(value, lineno):
    if value == "t":
        return (0,)
    comps = []
    for ch in value:
        if ch not in _AXES:
            raise ValueError("line %d: dofs must be a subset of xyz or t"
                             % lineno)
        comps.append(_AXES[ch])
    if not comps or len(set(comps)) != len(comps):
        raise ValueError("line %d: bad dofs %r" % (lineno, value))
    return tuple(sorted(comps))


def parse_config(text):
    """Parse the run-config format.

    `[section]` headers with `key = value` lines; `#` comments.  Sections:
    [problem] (type), [material] (E0, nu, p, mu_min), [mesh] (subdivide,
    density_level), [beso] (v_star, er, rho_min, filter, max_iters,
    paper_exact_sensitivity), [solver] (rtol, precond, single_precision;
    both default to BesoConfig's.  precond only affects `optimize`, whose
    default twolevel preconditions CG with inverted per-cell stiffness
    blocks plus a coarse trilinear solve, at the memory of one float32
    stiffness copy; jacobi uses the stiffness diagonal, as `solve` always
    does), plus any number of [dirichlet] (box, dofs, value) and [load]
    (box + vector, or source) blocks.  Errors carry line numbers.
    """
    cfg = RunConfig()
    mat = {"E0": 1.0, "nu": 0.3, "p": 3.0, "mu_min": 1e-9}
    section, pend, pend_line = None, None, 0

    def close_block():
        if section == "dirichlet":
            if "box" not in pend or "dofs" not in pend:
                raise ValueError("line %d: [dirichlet] needs box and dofs"
                                 % pend_line)
            cfg.dirichlet.append(DirichletSpec(
                pend["box"][:3], pend["box"][3:], pend["dofs"],
                pend.get("value", 0.0)))
        elif section == "load":
            if "source" in pend:
                if "box" in pend or "vector" in pend:
                    raise ValueError("line %d: a source [load] takes no box "
                                     "or vector" % pend_line)
                cfg.heat_sources.append(pend["source"])
            else:
                if "box" not in pend or "vector" not in pend:
                    raise ValueError("line %d: [load] needs box and vector "
                                     "(or source)" % pend_line)
                cfg.loads.append(LoadSpec(pend["box"][:3], pend["box"][3:],
                                          pend["vector"]))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ValueError("line %d: malformed section header" % lineno)
            close_block()
            section = line[1:-1].strip()
            if section not in ("problem", "material", "mesh", "beso",
                               "solver", "dirichlet", "load"):
                raise ValueError("line %d: unknown section [%s]"
                                 % (lineno, section))
            pend, pend_line = {}, lineno
            continue
        if section is None:
            raise ValueError("line %d: key outside any section" % lineno)
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, value = (s.strip() for s in line.split("=", 1))

        if section == "problem":
            if key != "type":
                raise ValueError("line %d: unknown key %r in [problem]"
                                 % (lineno, key))
            if value not in ("heat", "elasticity"):
                raise ValueError("line %d: type must be heat or elasticity"
                                 % lineno)
            cfg.problem = value
        elif section == "material":
            if key not in mat:
                raise ValueError("line %d: unknown key %r in [material]"
                                 % (lineno, key))
            mat[key] = _parse_floats(value, 1, lineno, key)[0]
        elif section == "mesh":
            if key == "subdivide":
                cfg.subdivide = int(_parse_floats(value, 1, lineno, key)[0])
            elif key == "density_level":
                cfg.density_level = int(
                    _parse_floats(value, 1, lineno, key)[0])
            else:
                raise ValueError("line %d: unknown key %r in [mesh]"
                                 % (lineno, key))
        elif section == "beso":
            if key == "v_star":
                cfg.v_star = _parse_floats(value, 1, lineno, key)[0]
            elif key == "er":
                cfg.er = _parse_floats(value, 1, lineno, key)[0]
            elif key == "rho_min":
                cfg.rho_min = _parse_floats(value, 1, lineno, key)[0]
            elif key == "filter":
                cfg.filter = _parse_bool(value, lineno, key)
            elif key == "max_iters":
                cfg.max_iters = int(_parse_floats(value, 1, lineno, key)[0])
            elif key == "paper_exact_sensitivity":
                cfg.paper_exact_sensitivity = _parse_bool(value, lineno, key)
            else:
                raise ValueError("line %d: unknown key %r in [beso]"
                                 % (lineno, key))
        elif section == "solver":
            if key == "rtol":
                cfg.rtol = _parse_floats(value, 1, lineno, key)[0]
            elif key == "precond":
                if value not in ("jacobi", "twolevel"):
                    raise ValueError("line %d: precond must be jacobi or "
                                     "twolevel" % lineno)
                cfg.precond = value
            elif key == "single_precision":
                cfg.single_precision = _parse_bool(value, lineno, key)
            else:
                raise ValueError("line %d: unknown key %r in [solver]"
                                 % (lineno, key))
        elif section == "dirichlet":
            if key == "box":
                pend["box"] = _parse_floats(value, 6, lineno, key)
            elif key == "dofs":
                pend["dofs"] = _parse_dofs(value, lineno)
            elif key == "value":
                pend["value"] = _parse_floats(value, 1, lineno, key)[0]
            else:
                raise ValueError("line %d: unknown key %r in [dirichlet]"
                                 % (lineno, key))
        else:  # load
            if key == "box":
                pend["box"] = _parse_floats(value, 6, lineno, key)
            elif key == "vector":
                parts = value.split()
                pend["vector"] = _parse_floats(value, len(parts), lineno, key)
            elif key == "source":
                pend["source"] = _parse_floats(value, 1, lineno, key)[0]
            else:
                raise ValueError("line %d: unknown key %r in [load]"
                                 % (lineno, key))
    close_block()
    cfg.material = Material(mat["E0"], mat["nu"], mat["p"], mat["mu_min"])
    return cfg


def _fmt(x):
    return "%.17g" % float(x)


def serialize_config(cfg):
    """Canonical text form; parse(serialize(parse(s))) == parse(s)."""
    lines = ["[problem]", "type = %s" % cfg.problem,
             "[material]",
             "E0 = %s" % _fmt(cfg.material.e0),
             "nu = %s" % _fmt(cfg.material.nu),
             "p = %s" % _fmt(cfg.material.p),
             "mu_min = %s" % _fmt(cfg.material.mu_min),
             "[mesh]",
             "subdivide = %d" % cfg.subdivide,
             "density_level = %d" % cfg.density_level,
             "[beso]"]
    if cfg.v_star is not None:
        lines.append("v_star = %s" % _fmt(cfg.v_star))
    lines += ["er = %s" % _fmt(cfg.er),
              "rho_min = %s" % _fmt(cfg.rho_min),
              "filter = %s" % ("true" if cfg.filter else "false"),
              "max_iters = %d" % cfg.max_iters,
              "paper_exact_sensitivity = %s"
              % ("true" if cfg.paper_exact_sensitivity else "false"),
              "[solver]",
              "rtol = %s" % _fmt(cfg.rtol),
              "precond = %s" % cfg.precond,
              "single_precision = %s"
              % ("true" if cfg.single_precision else "false")]
    for d in cfg.dirichlet:
        lines.append("[dirichlet]")
        lines.append("box = %s" % " ".join(
            _fmt(v) for v in list(d.lo) + list(d.hi)))
        if cfg.problem == "heat":
            dofs = "t"
        else:
            dofs = "".join(ax for ax, i in _AXES.items() if i in d.components)
        lines.append("dofs = %s" % dofs)
        lines.append("value = %s" % _fmt(d.value))
    for ld in cfg.loads:
        lines.append("[load]")
        lines.append("box = %s" % " ".join(
            _fmt(v) for v in list(ld.lo) + list(ld.hi)))
        lines.append("vector = %s" % " ".join(_fmt(v) for v in ld.vector))
    for q in cfg.heat_sources:
        lines.append("[load]")
        lines.append("source = %s" % _fmt(q))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _read_mesh(path):
    with open(path) as fh:
        return parse_mesh(fh.read())


def _read_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _cmd_validate(args):
    mesh = _read_mesh(args.mesh)
    report = validate(mesh)
    print("%d vertices, %d cells, %d faces, %d edges"
          % (mesh.num_vertices, mesh.num_cells, mesh.num_faces,
             mesh.num_edges))
    print(report)
    return 0 if report.ok else 2


def _cmd_subdivide(args):
    mesh = _read_mesh(args.mesh)
    for _ in range(args.steps):
        mesh, _ = subdivide(mesh)
    with open(args.output, "w") as fh:
        fh.write(serialize_mesh(mesh))
    print("wrote %s: %d vertices, %d cells"
          % (args.output, mesh.num_vertices, mesh.num_cells))
    return 0


def _cmd_limit(args):
    mesh = _read_mesh(args.mesh)
    points, boundary = limit_points(mesh)
    interior = points[~boundary]
    if not len(interior):
        print("mesh has no interior vertices", file=sys.stderr)
        return 1
    vtkio.write_point_cloud(args.output, interior,
                            title="interior limit points")
    print("wrote %s: %d interior limit points" % (args.output, len(interior)))
    return 0


def _cmd_bezier(args):
    mesh = _read_mesh(args.mesh)
    model = build_spline_model(mesh)
    points, hexes = vtkio.sample_model(model, args.sample)
    vtkio.write_vtk(args.output, points, hexes, title="sampled spline model")
    print("wrote %s: %d patches sampled %dx%dx%d"
          % (args.output, model.num_cells, args.sample, args.sample,
             args.sample))
    return 0


def _cmd_error(args):
    mesh = _read_mesh(args.mesh)
    model = build_spline_model(mesh)
    stats = approximation_error(mesh, model, args.depth)
    print("depth %d: %d samples" % (stats.depth, len(stats.distances)))
    print("max distance  %.17g" % stats.max_distance)
    print("mean distance %.17g" % stats.mean_distance)
    if stats.regular_interior.any():
        print("max over regular-interior samples %.17g"
              % stats.distances[stats.regular_interior].max())
    return 0


def _cmd_solve(args):
    mesh = _read_mesh(args.mesh)
    cfg = _read_config(args.config)
    for _ in range(cfg.subdivide):
        mesh, _ = subdivide(mesh)
    model = build_spline_model(mesh)
    sol = assemble_and_solve(model, None, cfg.material,
                             cfg.boundary_conditions(), cfg.problem,
                             rtol=cfg.rtol,
                             single_precision=cfg.single_precision)
    print("compliance %.17g (%d iterations, residual %.3e)"
          % (sol.compliance, sol.iterations, sol.residual))
    points, hexes = vtkio.sample_model(model, args.sample)
    name = "displacement" if cfg.problem == "elasticity" else "temperature"
    values = vtkio.sample_field(model, sol.u, args.sample)
    if values.shape[1] == 1:
        values = values[:, 0]
    vtkio.write_vtk(args.output, points, hexes,
                    point_data={name: values}, title="solution field")
    print("wrote %s" % args.output)
    return 0


def _cmd_optimize(args):
    mesh = _read_mesh(args.mesh)
    cfg = _read_config(args.config)
    dens, history = optimize(mesh, cfg.beso_config(), cfg.material,
                             cfg.boundary_conditions(), problem=cfg.problem,
                             subdivide=cfg.subdivide, out_dir=args.output)
    # final solid: sub-elements still at full density
    final_mesh = mesh
    for _ in range(cfg.subdivide):
        final_mesh, _ = subdivide(final_mesh)
    model = build_spline_model(final_mesh)
    points, hexes = vtkio.sample_model(model, 1 << dens.level)
    alive = dens.alive.reshape(-1)
    vtkio.write_vtk(os.path.join(args.output, "final.vtk"), points,
                    hexes[alive],
                    cell_data={"density": dens.rho.reshape(-1)[alive]},
                    title="final design")
    print("finished after %d iterations: volume fraction %.4f, "
          "compliance %.17g" % (history[-1][0], history[-1][2],
                                history[-1][1]))
    print("wrote %s" % os.path.join(args.output, "final.vtk"))
    return 0


def run_command(argv):
    """Dispatch one subcommand; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="ccsolid",
        description="hexahedral subdivision solids: refinement, spline "
                    "fitting, analysis and topology optimisation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check mesh manifoldness/conformity")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("subdivide", help="refine a mesh n times")
    p.add_argument("mesh")
    p.add_argument("-n", "--steps", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("limit", help="interior limit points as a VTK cloud")
    p.add_argument("mesh")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("bezier", help="sample the spline model to VTK")
    p.add_argument("mesh")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sample", type=int, default=4, metavar="D",
                   help="sub-hexahedra per patch edge (default 4)")
    p.set_defaults(func=_cmd_bezier)

    p = sub.add_parser("error", help="limit-vs-spline approximation error")
    p.add_argument("mesh")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("solve", help="one analysis solve on the full solid")
    p.add_argument("mesh")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sample", type=int, default=4, metavar="D")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("optimize", help="run the evolutionary optimisation")
    p.add_argument("mesh")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_optimize)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print("ccsolid %s: error: %s" % (args.command, exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
