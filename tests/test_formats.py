"""Property tests over the three text formats: mesh, spline model and run
config.

Each format must round-trip exactly (parse inverts serialize, and
serialize(parse(s)) is a fixed point, comments and blank lines
included), and every single-token mutation of a valid file to a
non-number, a non-finite value or an out-of-range value must raise a
ValueError that starts with the mutated line's number -- also through
the command line, which must answer it with exit code 1 and an `error:`
line, never an escaping exception.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsolid.cli import RunConfig, parse_config, run_command, serialize_config
from ccsolid.hexmesh import HexMesh, parse_mesh, serialize_mesh
from ccsolid.iga import DirichletSpec, LoadSpec, Material
from ccsolid.spline import SplineModel, parse_model, serialize_model
from meshes import lattice

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = ["nan", "NaN", "inf", "-inf", "1e999"]
NON_NUMBER = ["x", "1.2.3", "0x10", "--1"]
NOT_COUNT = NON_FINITE + NON_NUMBER + ["-1", "1.5"]


@st.composite
def decorated(draw, text):
    """`text` with blank and comment lines sprinkled in and trailing
    comments on some lines; also returns the new line number of every
    original line."""
    out, where = [], []
    for line in text.splitlines():
        out += draw(st.lists(st.sampled_from(["", "   ", "# note",
                                              "\t# x = 1 2"]), max_size=1))
        out.append(line + draw(st.sampled_from(["", "  # trailing", "\t"])))
        where.append(len(out))
    return "\n".join(out) + "\n", where


def _replace_token(line, j, token):
    parts = line.split("#", 1)
    toks = parts[0].split()
    toks[j] = token
    return " ".join(toks) + ("  #" + parts[1] if len(parts) > 1 else "")


def _mutate(draw, text, where, row_kinds):
    """Replace one token of a data line with a bad one.  `row_kinds[i]`
    lists the bad tokens for data line i (None: drop the token); returns
    the mutated text and the line number the error must name."""
    i = draw(st.integers(0, len(where) - 1))
    lines = text.split("\n")
    lineno = where[i]
    ntok = len(lines[lineno - 1].split("#", 1)[0].split())
    j = draw(st.integers(0, ntok - 1))
    bad = draw(st.sampled_from(row_kinds[i]))
    if bad is None:     # drop the token: the line holds one too few
        toks = lines[lineno - 1].split("#", 1)[0].split()
        lines[lineno - 1] = " ".join(toks[:j] + toks[j + 1:])
    else:
        lines[lineno - 1] = _replace_token(lines[lineno - 1], j, bad)
    return "\n".join(lines), lineno


# ---------------------------------------------------------------------------
# mesh and spline-model files


@st.composite
def meshes(draw):
    nv = draw(st.integers(8, 11))
    verts = draw(st.lists(st.tuples(FINITE, FINITE, FINITE),
                          min_size=nv, max_size=nv))
    cells = draw(st.lists(st.permutations(range(nv)), max_size=3))
    return HexMesh(verts, np.array([c[:8] for c in cells],
                                   dtype=np.int64).reshape(-1, 8))


@st.composite
def models(draw):
    ncp = draw(st.integers(1, 70))
    points = draw(st.lists(st.tuples(FINITE, FINITE, FINITE),
                           min_size=ncp, max_size=ncp))
    nodes = draw(st.lists(st.lists(st.integers(0, ncp - 1), min_size=64,
                                   max_size=64), max_size=2))
    return SplineModel(points=np.array(points, dtype=float).reshape(-1, 3),
                       cell_nodes=np.array(nodes, dtype=np.int64)
                       .reshape(-1, 64))


def _table_kinds(n, m):
    """Bad tokens per data line of a counted table with n points."""
    index = NOT_COUNT + [str(n), None]
    return ([NOT_COUNT + [None]] + [NON_FINITE + NON_NUMBER + [None]] * n
            + [index] * m)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@SETTINGS
@given(st.data())
def test_mesh_round_trip_is_exact(data):
    mesh = data.draw(meshes())
    text = serialize_mesh(mesh)
    noisy, _ = data.draw(decorated(text))
    again = parse_mesh(noisy)
    assert _same_bits(again.vertices, mesh.vertices)
    assert _same_bits(again.cells, mesh.cells)
    assert serialize_mesh(again) == text


@SETTINGS
@given(st.data())
def test_model_round_trip_is_exact(data):
    model = data.draw(models())
    text = serialize_model(model)
    noisy, _ = data.draw(decorated(text))
    again = parse_model(noisy)
    assert _same_bits(again.points, model.points)
    assert _same_bits(again.cell_nodes, model.cell_nodes)
    assert serialize_model(again) == text


@SETTINGS
@given(st.data())
def test_mesh_mutations_name_their_line(data):
    mesh = data.draw(meshes())
    noisy, where = data.draw(decorated(serialize_mesh(mesh)))
    kinds = _table_kinds(mesh.num_vertices, mesh.num_cells)
    bad, lineno = _mutate(data.draw, noisy, where, kinds)
    with pytest.raises(ValueError, match=r"^line %d: " % lineno):
        parse_mesh(bad)


@SETTINGS
@given(st.data())
def test_mesh_duplicate_corner_names_its_line(data):
    mesh = data.draw(meshes().filter(lambda m: m.num_cells))
    noisy, where = data.draw(decorated(serialize_mesh(mesh)))
    c = data.draw(st.integers(0, mesh.num_cells - 1))
    i, j = data.draw(st.permutations(range(8)))[:2]
    lineno = where[1 + mesh.num_vertices + c]
    lines = noisy.split("\n")
    lines[lineno - 1] = _replace_token(lines[lineno - 1], j,
                                       str(mesh.cells[c, i]))
    with pytest.raises(ValueError, match=r"^line %d: duplicate" % lineno):
        parse_mesh("\n".join(lines))


@SETTINGS
@given(st.data())
def test_model_mutations_name_their_line(data):
    model = data.draw(models())
    noisy, where = data.draw(decorated(serialize_model(model)))
    kinds = _table_kinds(model.num_control_points, model.num_cells)
    bad, lineno = _mutate(data.draw, noisy, where, kinds)
    with pytest.raises(ValueError, match=r"^line %d: " % lineno):
        parse_model(bad)


# ---------------------------------------------------------------------------
# run-config files

POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
UNIT = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)


@st.composite
def boxes(draw):
    a = draw(st.tuples(FINITE, FINITE, FINITE))
    b = draw(st.tuples(FINITE, FINITE, FINITE))
    return np.minimum(a, b), np.maximum(a, b)


@st.composite
def configs(draw):
    problem = draw(st.sampled_from(["heat", "elasticity"]))
    dpn = 3 if problem == "elasticity" else 1
    dofs = (st.just((0,)) if dpn == 1 else
            st.sets(st.sampled_from([0, 1, 2]), min_size=1)
            .map(lambda s: tuple(sorted(s))))
    dirichlet = [DirichletSpec(*draw(boxes()), draw(dofs), draw(FINITE))
                 for _ in range(draw(st.integers(0, 2)))]
    loads = [LoadSpec(*draw(boxes()),
                      draw(st.lists(FINITE, min_size=dpn, max_size=dpn)))
             for _ in range(draw(st.integers(0, 2)))]
    return RunConfig(
        problem=problem,
        material=Material(
            draw(POSITIVE),
            draw(st.floats(min_value=0.0, max_value=0.5, exclude_max=True)),
            draw(st.floats(min_value=1.0, max_value=1e300)), draw(UNIT)),
        subdivide=draw(st.integers(0, 9)),
        density_level=draw(st.integers(0, 9)),
        # within the ranges Material and BesoConfig check, which
        # parse_config enforces
        v_star=draw(st.none() | UNIT), er=draw(UNIT),
        rho_min=draw(UNIT), filter=draw(st.booleans()),
        max_iters=draw(st.integers(1, 10 ** 9)), rtol=draw(UNIT),
        single_precision=draw(st.booleans()),
        dirichlet=dirichlet, loads=loads,
        # bounded so that the sum of two stays finite, as parse_config
        # requires of the sources
        heat_sources=draw(st.lists(
            st.floats(min_value=-1e307, max_value=1e307),
            max_size=2 if dpn == 1 else 0)))


def _state(cfg):
    """Every value of a RunConfig, with floats spelled bit-exactly."""
    scalars = {k: v for k, v in vars(cfg).items()
               if k not in ("dirichlet", "loads")}
    return repr((
        scalars,
        [(d.lo.tolist(), d.hi.tolist(), d.components, d.value)
         for d in cfg.dirichlet],
        [(ld.lo.tolist(), ld.hi.tolist(), ld.vector.tolist())
         for ld in cfg.loads]))


@SETTINGS
@given(st.data())
def test_config_round_trip_is_exact(data):
    cfg = data.draw(configs())
    text = serialize_config(cfg)
    noisy, _ = data.draw(decorated(text))
    again = parse_config(noisy)
    assert _state(again) == _state(cfg)
    assert serialize_config(again) == text


_SCALAR_BAD = {
    "type": ["HEAT", "fluid", "1"],
    "filter": ["yes", "1", "True"],
    "single_precision": ["on"], "subdivide": NOT_COUNT,
    "density_level": NOT_COUNT, "max_iters": NOT_COUNT + ["0"],
}


@st.composite
def config_mutations(draw):
    """A serialized config with one value made bad; returns the text and
    the line its error must name (a block's own line when the value is
    well-formed but does not fit the problem type)."""
    cfg = draw(configs())
    noisy, where = draw(decorated(serialize_config(cfg)))
    lines = noisy.split("\n")
    data_lines = [w for w in where
                  if not lines[w - 1].lstrip().startswith("[")]
    lineno = draw(st.sampled_from(data_lines))
    block = max((w for w in where if w < lineno and w not in data_lines),
                default=None)
    key, value = (s.strip() for s in
                  lines[lineno - 1].split("#", 1)[0].split("=", 1))
    expect = lineno
    if key == "dofs":
        heat = cfg.problem == "heat"
        bad = draw(st.sampled_from(["xx", "xq", "", "t x"]
                                   + (["x", "xyz"] if heat else ["t"])))
        if bad in ("t", "x", "xyz"):
            expect = block
    elif key == "vector" and draw(st.booleans()):
        n = len(value.split())
        bad = " ".join(["1"] * draw(st.sampled_from([0, n - 1, n + 1])
                                    .filter(lambda k: k >= 0 and k != n)))
        expect = block
    elif key in _SCALAR_BAD:
        bad = draw(st.sampled_from(_SCALAR_BAD[key] + [""]))
    else:       # numbers: one of them non-finite, a non-number, or missing
        toks = value.split()
        j = draw(st.integers(0, len(toks) - 1))
        toks[j] = draw(st.sampled_from(NON_FINITE + NON_NUMBER + [""]))
        if key == "vector" and not toks[j]:
            expect = block
        bad = " ".join(t for t in toks if t)
    lines[lineno - 1] = "%s = %s" % (key, bad)
    return "\n".join(lines), expect


@SETTINGS
@given(config_mutations())
def test_config_mutations_name_their_line(case):
    text, lineno = case
    with pytest.raises(ValueError, match=r"^line %d: " % lineno):
        parse_config(text)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    return code, err.getvalue()


@SETTINGS
@given(config_mutations(), st.data())
def test_cli_reports_bad_files(case, data):
    text, lineno = case
    mesh, _ = lattice(2, 1, 1)
    good_mesh = serialize_mesh(mesh)
    good_cfg = "[beso]\nv_star = 0.5\n"
    if data.draw(st.booleans(), label="break the mesh instead"):
        noisy, where = data.draw(decorated(good_mesh))
        text, lineno = _mutate(data.draw, noisy, where,
                               _table_kinds(mesh.num_vertices,
                                            mesh.num_cells))
        mesh_text, cfg_text = text, good_cfg
    else:
        mesh_text, cfg_text = good_mesh, text
    command = data.draw(st.sampled_from(["solve", "optimize"]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("m.mesh", "r.cfg")]
        for path, body in zip(paths, (mesh_text, cfg_text)):
            with open(path, "w") as fh:
                fh.write(body)
        code, err = _run([command, paths[0], "--config", paths[1],
                          "-o", os.path.join(tmp, "out")])
    assert code == 1
    assert err.startswith("ccsolid %s: error: line %d: " % (command, lineno))
    assert "Traceback" not in err
