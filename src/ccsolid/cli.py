"""Command-line driver: mesh checks, refinement, spline export, analysis
and optimisation runs.

Subcommands: validate, subdivide, limit, bezier, error, solve, optimize.
Analysis runs are described by a line-oriented config file of [section]
blocks with `key = value` pairs; see parse_config.
"""

import argparse
import inspect
import math
import os
import sys
from dataclasses import field, make_dataclass, replace

from . import vtkio
from .hexmesh import (at_least, parse_mesh, read_values, serialize_mesh,
                      text_lines, validate)
from .iga import (BoundaryConditions, DirichletSpec, LoadSpec, Material,
                  _box_points, assemble_and_solve)
from .spline import approximation_error, build_spline_model
from .subdivision import limit_points, subdivide
from .topopt import BesoConfig, optimize

_AXES = "xyz"

# Every scalar key of the config format, in file order: (section, key) ->
# (attribute, kind, beso).  The value, read as `kind` by
# hexmesh.read_value, sets RunConfig.<attribute>, or the Material field of
# that name under [material]; `beso` names the BesoConfig field it feeds.
# Defaults are BesoConfig's, and optimize's for the run's own keys.
_KEYS = {
    ("problem", "type"): ("problem", ("heat", "elasticity"), None),
    ("material", "E0"): ("e0", float, None),
    ("material", "nu"): ("nu", float, None),
    ("material", "p"): ("p", float, None),
    ("material", "mu_min"): ("mu_min", float, None),
    ("mesh", "subdivide"): ("subdivide", at_least(0), None),
    ("mesh", "density_level"): ("density_level", at_least(0), "level"),
    ("beso", "v_star"): ("v_star", float, "v_star"),
    ("beso", "er"): ("er", float, "er"),
    ("beso", "rho_min"): ("rho_min", float, "rho_min"),
    ("beso", "filter"): ("filter", bool, "filter"),
    ("beso", "max_iters"): ("max_iters", at_least(1), "max_iterations"),
    ("solver", "rtol"): ("rtol", float, "rtol"),
    ("solver", "single_precision"): ("single_precision", bool,
                                     "single_precision"),
}
_BLOCKS = {"dirichlet": ("box", "dofs", "value"),
           "load": ("box", "vector", "source")}


def _boundary_conditions(self):
    return BoundaryConditions(dirichlet=list(self.dirichlet),
                              loads=list(self.loads),
                              heat_source=float(sum(self.heat_sources)))


def _beso_config(self):
    if self.v_star is None:
        raise ValueError("config has no [beso] v_star")
    return BesoConfig(**{beso: getattr(self, attr)
                         for attr, _, beso in _KEYS.values() if beso})


def _run_fields():
    """RunConfig's fields: one per scalar key in table order, the
    [material] keys folded into one Material, then the block lists."""
    fields = {}
    for (section, _), (attr, _, beso) in _KEYS.items():
        if section == "material":
            fields["material"] = field(
                default_factory=lambda: Material(1.0, 0.3))
        elif beso is None:
            fields[attr] = inspect.signature(optimize).parameters[attr].default
        else:       # v_star has no default: None until the config sets it
            fields[attr] = getattr(BesoConfig, beso, None)
    return ([(name, object, default) for name, default in fields.items()]
            + [(name, list, field(default_factory=list))
               for name in ("dirichlet", "loads", "heat_sources")])


RunConfig = make_dataclass(
    "RunConfig", _run_fields(),
    namespace={
        "__module__": __name__,
        "__doc__": "Everything a solve/optimize run needs besides the mesh "
                   "file: one field per scalar config key (the [material] "
                   "keys make up `material`) plus the [dirichlet] and "
                   "[load] blocks.",
        "boundary_conditions": _boundary_conditions,
        "beso_config": _beso_config})


def _read_dofs(tokens, lineno):
    word = " ".join(tokens)
    if word != "t" and not (word and set(word) <= set(_AXES)
                            and len(set(word)) == len(word)):
        raise ValueError("line %d: dofs must be t or distinct letters of "
                         "xyz, got %r" % (lineno, word))
    return word


def _at_line(lineno, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError of the library's own checks
    re-raised naming the config line it came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None


def _replace_by_line(obj, changes, lines):
    """dataclasses.replace obj one field at a time, so that a range check
    of the library names the line of the key it rejects."""
    for name, value in changes.items():
        obj = _at_line(lines[name], replace, obj, **{name: value})
    return obj


def _add_block(cfg, section, lineno, block):
    """Append one [dirichlet] or [load] block, checked against the
    problem type, to cfg; returns its box spec (None for a source)."""
    dpn = 3 if cfg.problem == "elasticity" else 1
    if section == "dirichlet":
        if "box" not in block or "dofs" not in block:
            raise ValueError("line %d: [dirichlet] needs box and dofs"
                             % lineno)
        dofs = block["dofs"]
        if (dofs == "t") != (dpn == 1):
            raise ValueError("line %d: [dirichlet] dofs = %s does not fit "
                             "the %s problem" % (lineno, dofs, cfg.problem))
        cfg.dirichlet.append(_at_line(
            lineno, DirichletSpec, block["box"][:3], block["box"][3:],
            (0,) if dofs == "t" else sorted(map(_AXES.index, dofs)),
            block.get("value", [0.0])[0]))
    elif "source" in block:
        if "box" in block or "vector" in block:
            raise ValueError("line %d: a source [load] takes no box or "
                             "vector" % lineno)
        if dpn != 1:
            raise ValueError("line %d: a source [load] does not fit the %s "
                             "problem" % (lineno, cfg.problem))
        total = sum(cfg.heat_sources) + block["source"][0]
        if not math.isfinite(total):
            raise ValueError("line %d: the [load] sources sum to %r, not a "
                             "finite heat source" % (lineno, total))
        cfg.heat_sources.append(block["source"][0])
    else:
        if "box" not in block or "vector" not in block:
            raise ValueError("line %d: [load] needs box and vector "
                             "(or source)" % lineno)
        if len(block["vector"]) != dpn:
            raise ValueError("line %d: [load] vector needs %d numbers for "
                             "the %s problem, got %d" % (
                                 lineno, dpn, cfg.problem,
                                 len(block["vector"])))
        cfg.loads.append(_at_line(lineno, LoadSpec, block["box"][:3],
                                  block["box"][3:], block["vector"]))
    if "source" not in block:
        return (cfg.dirichlet if section == "dirichlet" else cfg.loads)[-1]


def parse_config(text):
    """Parse the run-config format.

    `[section]` headers with `key = value` lines; `#` comments.  The
    scalar keys, in order: [problem] type (heat or elasticity);
    [material] E0, nu, p, mu_min; [mesh] subdivide, density_level;
    [beso] v_star, er, rho_min, filter, max_iters; [solver] rtol,
    single_precision.
    Numbers must be finite, counts whole and non-negative (max_iters
    positive).  A key left out takes its default from Material (p,
    mu_min), BesoConfig (density_level and the [beso] and [solver] keys)
    or optimize (type, subdivide); E0 and nu default to 1 and 0.3, and
    v_star must be given for `optimize`.  Any number of [dirichlet] (box,
    dofs, value) and [load] (box + vector, or source) blocks follow the
    scalars or mix with them; dofs is t for heat and distinct letters of
    xyz for elasticity, and a load vector holds one number per dof of a
    control point (1 for heat, 3 for elasticity); a source load needs the
    heat problem, and the sources add up to one heat source, which must
    stay finite at every block.  Errors carry line numbers, also
    those of the range checks in Material, BesoConfig (run whether or not
    v_star is given) and the box specs.
    """
    return _parse_config(text)[0]


def _parse_config(text):
    """parse_config's RunConfig, and each box spec of its [dirichlet] and
    [load] blocks as (section, line, spec)."""
    scalars, material, blocks, lines = {}, {}, [], {}
    section = None
    for lineno, line in text_lines(text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise ValueError("line %d: malformed section header" % lineno)
            section = line[1:-1].strip()
            if section in _BLOCKS:
                blocks.append((section, lineno, {}))
            elif section not in {s for s, _ in _KEYS}:
                raise ValueError("line %d: unknown section [%s]"
                                 % (lineno, section))
            continue
        if section is None:
            raise ValueError("line %d: key outside any section" % lineno)
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        tokens = value.split()
        if (section, key) in _KEYS:
            attr, kind, beso = _KEYS[section, key]
            target = material if section == "material" else scalars
            target[attr] = read_values(tokens, kind, 1, lineno, key)[0]
            lines[beso or attr] = lineno
        elif key not in _BLOCKS.get(section, ()):
            raise ValueError("line %d: unknown key %r in [%s]"
                             % (lineno, key, section))
        elif key == "dofs":
            blocks[-1][2][key] = _read_dofs(tokens, lineno)
        else:
            count = {"box": 6, "vector": len(tokens)}.get(key, 1)
            blocks[-1][2][key] = read_values(tokens, float, count, lineno, key)
    cfg = RunConfig(**scalars)
    cfg.material = _replace_by_line(cfg.material, material, lines)
    # any valid target volume to start from; the config's own replaces it
    _replace_by_line(BesoConfig(v_star=0.5), {
        beso: scalars[attr] for attr, _, beso in _KEYS.values()
        if beso and attr in scalars}, lines)
    boxes = [(section, lineno, _add_block(cfg, section, lineno, block))
             for section, lineno, block in blocks]
    return cfg, [box for box in boxes if box[2] is not None]


def _format(value, kind):
    if kind is bool:
        return "true" if value else "false"
    if isinstance(kind, range):
        return "%d" % value
    return value if isinstance(kind, tuple) else "%.17g" % float(value)


def _floats(values):
    return " ".join(_format(v, float) for v in values)


def serialize_config(cfg):
    """Canonical text form; parse(serialize(parse(s))) == parse(s)."""
    lines = []
    for (section, key), (attr, kind, _) in _KEYS.items():
        if "[%s]" % section not in lines:
            lines.append("[%s]" % section)
        value = getattr(cfg.material if section == "material" else cfg, attr)
        if value is not None:
            lines.append("%s = %s" % (key, _format(value, kind)))
    for d in cfg.dirichlet:
        dofs = ("t" if cfg.problem == "heat" else
                "".join(ax for i, ax in enumerate(_AXES) if i in d.components))
        lines += ["[dirichlet]", "box = " + _floats([*d.lo, *d.hi]),
                  "dofs = " + dofs, "value = " + _format(d.value, float)]
    for ld in cfg.loads:
        lines += ["[load]", "box = " + _floats([*ld.lo, *ld.hi]),
                  "vector = " + _floats(ld.vector)]
    for q in cfg.heat_sources:
        lines += ["[load]", "source = " + _format(q, float)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _read_mesh(path):
    with open(path) as fh:
        return parse_mesh(fh.read())


def _read_run(args):
    """The mesh, subdivided as the config asks, the config and the spline
    model; a [dirichlet] or [load] box that selects no control point of
    the model is rejected by its config line, not its index in its kind."""
    mesh = _read_mesh(args.mesh)
    with open(args.config) as fh:
        cfg, boxes = _parse_config(fh.read())
    for _ in range(cfg.subdivide):
        mesh, _ = subdivide(mesh)
    model = build_spline_model(mesh)
    for section, lineno, spec in boxes:
        _at_line(lineno, _box_points, model.points, spec, "[%s]" % section)
    return mesh, cfg, model


def _cmd_validate(args):
    mesh = _read_mesh(args.mesh)
    report = validate(mesh)
    print("%d vertices, %d cells, %d faces, %d edges"
          % (mesh.num_vertices, mesh.num_cells, mesh.num_faces,
             mesh.num_edges))
    print(report)
    return 0 if report.ok else 2


def _cmd_subdivide(args):
    if args.steps < 0:
        raise ValueError("steps must be >= 0, got %d" % args.steps)
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
    _, cfg, model = _read_run(args)
    sol = assemble_and_solve(model, cfg.material, cfg.boundary_conditions(),
                             cfg.problem, rtol=cfg.rtol,
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
    mesh, cfg, model = _read_run(args)
    dens, history = optimize(mesh, cfg.beso_config(), cfg.material,
                             cfg.boundary_conditions(), problem=cfg.problem,
                             out_dir=args.output)
    # final solid: sub-elements still at full density
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
