import re

import numpy as np
import pytest

from ccsolid.cli import parse_config, run_command, serialize_config
from ccsolid.hexmesh import HexMesh, parse_mesh, serialize_mesh
from ccsolid.iga import Assembly, StiffnessOperator
from ccsolid.spline import build_spline_model, regular_box_model
from ccsolid import vtkio
from meshes import lattice, two_cubes_sharing_edge, unit_cube
from reference import dense_solve


# ---------------------------------------------------------------------------
# legacy VTK grammar


def _check_vtk(text):
    """Walk a legacy ASCII unstructured-grid file token by token; returns
    (npoints, ncells, cell_type)."""
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1]  # title
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    toks = " ".join(lines[4:]).split()
    pos = [0]

    def take():
        tok = toks[pos[0]]
        pos[0] += 1
        return tok

    assert take() == "POINTS"
    npoints = int(take())
    assert take() == "double"
    for _ in range(3 * npoints):
        float(take())

    assert take() == "CELLS"
    ncells = int(take())
    size = int(take())
    used = 0
    for _ in range(ncells):
        k = int(take())
        used += 1 + k
        for _ in range(k):
            idx = int(take())
            assert 0 <= idx < npoints
    assert used == size

    assert take() == "CELL_TYPES"
    assert int(take()) == ncells
    types = {int(take()) for _ in range(ncells)}
    assert len(types) == 1
    ctype = types.pop()
    assert ctype in (1, 12)

    counts = {"CELL_DATA": ncells, "POINT_DATA": npoints}
    while pos[0] < len(toks):
        kw = take()
        assert kw in counts
        n = counts[kw]
        assert int(take()) == n
        while pos[0] < len(toks) and toks[pos[0]] in ("SCALARS", "VECTORS"):
            attr = take()
            take()  # field name
            assert take() == "double"
            if attr == "SCALARS":
                assert take() == "1"
                assert take() == "LOOKUP_TABLE"
                assert take() == "default"
                vals = n
            else:
                vals = 3 * n
            for _ in range(vals):
                float(take())
    return npoints, ncells, ctype


def test_single_cell_mesh_layout(tmp_path):
    path = tmp_path / "cube.vtk"
    cube = unit_cube()
    vtkio.write_vtk(str(path), cube.vertices, cube.cells)
    text = path.read_text()
    assert "CELLS 1 9" in text
    npoints, ncells, ctype = _check_vtk(text)
    assert (npoints, ncells, ctype) == (8, 1, 12)


def test_cell_data_block(tmp_path):
    mesh, _ = lattice(2, 2, 2)
    path = tmp_path / "dens.vtk"
    vtkio.write_vtk(str(path), mesh.vertices, mesh.cells,
                    cell_data={"density": np.linspace(0, 1, 8)})
    text = path.read_text()
    assert "CELL_DATA 8" in text
    _check_vtk(text)


def test_point_cloud_and_vectors(tmp_path):
    pts = np.random.default_rng(0).random((5, 3))
    path = tmp_path / "cloud.vtk"
    vtkio.write_point_cloud(str(path), pts, point_data={"v": pts * 2.0})
    npoints, ncells, ctype = _check_vtk(path.read_text())
    assert (npoints, ncells, ctype) == (5, 5, 1)


def test_field_size_mismatch(tmp_path):
    cube = unit_cube()
    with pytest.raises(ValueError, match="values"):
        vtkio.write_vtk(str(tmp_path / "x.vtk"), cube.vertices, cube.cells,
                        cell_data={"density": np.zeros(3)})
    with pytest.raises(ValueError, match=r"points must be an \(n, 3\) array"):
        vtkio.write_vtk(str(tmp_path / "x.vtk"), cube.vertices[:, :2],
                        cube.cells)
    with pytest.raises(ValueError, match="carries its own cells"):
        vtkio.write_vtk(str(tmp_path / "x.vtk"),
                        vtkio.VtkGrid(cube.vertices, cube.cells), cube.cells)


def test_sample_model_grid():
    model = regular_box_model((1, 1, 1))
    points, hexes = vtkio.sample_model(model, 2)
    assert hexes.shape == (8, 8)  # d=2 -> 8 sub-hexahedra
    assert len(points) == 27
    # first sub-hex covers [0, 0.5]^3 with the standard corner order
    corners = points[hexes[0]]
    expect = np.array([(0, 0, 0), (.5, 0, 0), (.5, .5, 0), (0, .5, 0),
                       (0, 0, .5), (.5, 0, .5), (.5, .5, .5), (0, .5, .5)])
    assert np.allclose(corners, expect)


def test_sample_field_matches_geometry():
    # the control x-coordinates as a field reproduce the sampled x
    model = regular_box_model((2, 1, 1))
    points, _ = vtkio.sample_model(model, 3)
    vals = vtkio.sample_field(model, model.points[:, 0], 3)
    assert np.allclose(vals[:, 0], points[:, 0], atol=1e-13)


def test_sample_field_columns_match_single_column_calls():
    mesh, _ = lattice(2, 1, 1)
    model = build_spline_model(mesh)
    field = np.random.default_rng(3).normal(size=(model.num_control_points, 3))
    vals = vtkio.sample_field(model, field, 2)
    assert vals.shape == (model.num_cells * 27, 3)
    for col in range(3):
        single = vtkio.sample_field(model, field[:, col], 2)
        assert single.shape == (model.num_cells * 27, 1)
        assert np.abs(vals[:, col] - single[:, 0]).max() <= 1e-14


def test_vtk_roundtrip_precision(tmp_path):
    pts = np.random.default_rng(1).standard_normal((8, 3)) * np.pi
    mesh = HexMesh(pts[np.argsort(pts[:, 0])][:8] * 0 + pts, unit_cube().cells)
    path = tmp_path / "p.vtk"
    vtkio.write_vtk(str(path), mesh.vertices, mesh.cells)
    lines = path.read_text().splitlines()
    got = np.array([[float(v) for v in ln.split()] for ln in lines[5:13]])
    assert np.array_equal(got, pts)  # 17 significant digits round-trip


def _float_row(values):
    """A row of floats formatted one value at a time, at %.17g."""
    return " ".join("%.17g" % x for x in np.atleast_1d(values).tolist())


def _reference_vtk(points, cells, cell_type, cell_data, point_data, title):
    """The legacy VTK text of write_vtk, every value formatted on its own:
    floats by _float_row, integers by str."""
    m, k = cells.shape
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % len(points)]
    lines += [_float_row(p) for p in points]
    lines.append("CELLS %d %d" % (m, m * (k + 1)))
    lines += [" ".join(map(str, [k] + c)) for c in cells.tolist()]
    lines.append("CELL_TYPES %d" % m)
    lines += [str(cell_type)] * m
    for kind, data, n in (("CELL_DATA", cell_data, m),
                          ("POINT_DATA", point_data, len(points))):
        if data:
            lines.append("%s %d" % (kind, n))
            for name, values in data.items():
                lines += (["SCALARS %s double 1" % name, "LOOKUP_TABLE default"]
                          if values.ndim == 1 else ["VECTORS %s double" % name])
                lines += [_float_row(v) for v in values]
    return "\n".join(lines) + "\n"


def _tricky_rows(n, rng):
    """(n, 3) floats whose rows repeat, or differ from an earlier row only
    in the sign of a zero or in the last bit of one coordinate."""
    base = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 9, (4, 3))
    base[1, 2] = 0.0
    rows = base[rng.integers(0, 4, n)]
    flip = rng.random(n) < 0.3
    rows[flip & (rows[:, 2] == 0.0), 2] = -0.0
    col = rng.integers(0, 3, n)
    bump = rng.random(n) < 0.2
    rows[bump, col[bump]] = np.nextafter(rows[bump, col[bump]], np.inf)
    return rows


@pytest.mark.parametrize("n", [0, 1, 40])
def test_write_vtk_bytes_match_per_value_formatting(tmp_path, n):
    rng = np.random.default_rng(n)
    points = _tricky_rows(n, rng)
    cells = rng.integers(0, 10 ** 6, (n // 4, 8))
    cell_data = {"density": _tricky_rows(n // 4, rng)[:, 2],
                 "flux": _tricky_rows(n // 4, rng)}
    point_data = {"u": _tricky_rows(n, rng), "t": _tricky_rows(n, rng)[:, 1]}
    assert n < 40 or len(np.unique(points, axis=0)) < n        # repeats
    assert n < 40 or set(np.signbit(points[points == 0.0])) == {False, True}
    path = tmp_path / "grid.vtk"
    vtkio.write_vtk(str(path), points, cells, cell_data=cell_data,
                    point_data=point_data, title="bytes")
    want = _reference_vtk(points, cells, 12, cell_data, point_data, "bytes")
    assert path.read_text() == want
    # one grid formatted once, written twice with other data
    grid = vtkio.VtkGrid(points, cells)
    for data in ({"density": cell_data["density"]},
                 {"flux": -cell_data["flux"]}):
        vtkio.write_vtk(str(path), grid, cell_data=data, title="again")
        assert path.read_text() == _reference_vtk(points, cells, 12, data,
                                                  None, "again")
    path_cloud = tmp_path / "cloud.vtk"
    vtkio.write_point_cloud(str(path_cloud), points, point_data=point_data)
    assert path_cloud.read_text() == _reference_vtk(
        points, np.arange(n)[:, None], 1, None, point_data, "point cloud")
    # the mesh file's vertex rows share the formatter
    assert serialize_mesh(HexMesh(points, np.zeros((0, 8), dtype=int))) \
        == "".join(line + "\n" for line in
                   ["%d 0" % n] + [_float_row(p) for p in points])


# ---------------------------------------------------------------------------
# config format

CONFIG = """\
# cantilever run
[problem]
type = elasticity
[material]
E0 = 2.5
nu = 0.3
p = 3
mu_min = 1e-9
[mesh]
subdivide = 1
density_level = 0
[beso]
v_star = 0.5
er = 0.02
rho_min = 0.0001
filter = true
max_iters = 50
[solver]
rtol = 1e-09
[dirichlet]
box = -1e9 -1e9 -1e9 0.5 1e9 1e9
dofs = xyz
value = 0
[dirichlet]
box = -1e9 -1e9 -1e9 1e9 0.1 1e9
dofs = zx
[load]
box = 1.5 -1e9 -1e9 1e9 1e9 1e9
vector = 0 0 -1
"""


def test_config_parse_fields():
    cfg = parse_config(CONFIG)
    assert cfg.problem == "elasticity"
    assert cfg.material.e0 == 2.5 and cfg.material.nu == 0.3
    assert cfg.subdivide == 1 and cfg.density_level == 0
    assert cfg.v_star == 0.5 and cfg.max_iters == 50 and cfg.filter
    assert cfg.rtol == 1e-9
    assert len(cfg.dirichlet) == 2
    assert cfg.dirichlet[0].components == (0, 1, 2)
    assert cfg.dirichlet[1].components == (0, 2)  # letters sort to xz
    assert len(cfg.loads) == 1
    assert np.allclose(cfg.loads[0].vector, [0, 0, -1])


def test_config_roundtrip_identity():
    once = serialize_config(parse_config(CONFIG))
    twice = serialize_config(parse_config(once))
    assert once == twice


def test_config_solver_options_roundtrip():
    text = ("[problem]\ntype = elasticity\n[solver]\nrtol = 0.001\n"
            "single_precision = true\n"
            "[dirichlet]\nbox = 0 0 0 1 1 1\ndofs = xyz\n"
            "[load]\nbox = 0 0 0 1 1 1\nvector = 1 0 0\n")
    cfg = parse_config(text)
    assert cfg.rtol == 0.001 and cfg.single_precision
    once = serialize_config(cfg)
    assert "single_precision = true" in once
    assert "precond" not in once
    assert serialize_config(parse_config(once)) == once
    # defaults are BesoConfig's: float64 sweeps
    assert not parse_config(CONFIG).single_precision
    # the preconditioner is not a choice: the key is unknown
    with pytest.raises(ValueError, match=r"^line 6: unknown key 'precond' "
                       r"in \[solver\]$"):
        parse_config(text.replace("single_precision = true\n",
                                  "single_precision = true\n"
                                  "precond = twolevel\n"))


def test_config_heat_sources_must_sum_to_a_finite_source():
    # each source is finite, their sum is not: the block that overflows it
    # is named, not left to BoundaryConditions
    text = ("[problem]\ntype = heat\n[load]\nsource = 1e308\n"
            "[load]\nsource = -1\n[load]\nsource = 1e308\n")
    with pytest.raises(ValueError, match=r"^line 7: the \[load\] sources "
                       r"sum to inf"):
        parse_config(text)
    cfg = parse_config(text.replace("source = 1e308\n", "source = 1e307\n"))
    assert cfg.boundary_conditions().heat_source == 2 * 1e307


def test_config_heat_source_roundtrip():
    text = ("[problem]\ntype = heat\n[dirichlet]\nbox = 0 0 0 1 1 1\n"
            "dofs = t\nvalue = 2.5\n[load]\nsource = 4.25\n")
    cfg = parse_config(text)
    assert cfg.heat_sources == [4.25]
    assert cfg.boundary_conditions().heat_source == 4.25
    assert cfg.dirichlet[0].value == 2.5
    once = serialize_config(cfg)
    assert "source = 4.25" in once
    assert "dofs = t" in once
    assert serialize_config(parse_config(once)) == once


@pytest.mark.parametrize("text,match", [
    ("[nope]\n", r"line 1: unknown section"),
    ("[material]\nE = 1\n", r"line 2: unknown key"),
    ("[material]\nE0 = abc\n", r"line 2: bad number"),
    ("E0 = 1\n", r"line 1: key outside"),
    ("[material]\nE0\n", r"line 2: expected key = value"),
    ("[dirichlet]\ndofs = xyz\n", r"line 1: \[dirichlet\] needs box"),
    ("[dirichlet]\nbox = 0 0 0 1 1 1\ndofs = xq\n", r"line 3: dofs"),
    ("[load]\nbox = 0 0 0 1 1 1\n", r"line 1: \[load\] needs"),
    ("[load]\nsource = 1\nbox = 0 0 0 1 1 1\n", r"source .* takes no box"),
    ("[dirichlet]\nbox = 0 0 0 1 1\ndofs = x\n", r"box needs 6 numbers"),
    ("[solver]\nprecond = twolevel\n", r"line 2: unknown key 'precond'"),
    ("[solver]\nsingle_precision = yes\n", r"must be true or false"),
    ("[mesh]\nsubdivide = 1.5\n", r"line 2: bad number '1.5' in subdivide"),
    ("[mesh]\nsubdivide = -2\n", r"line 2: bad number '-2' in subdivide"),
    ("[mesh]\ndensity_level = -1\n", r"line 2: bad number .* density_level"),
    ("[beso]\nmax_iters = inf\n", r"line 2: bad number 'inf' in max_iters"),
    ("[beso]\nmax_iters = 0\n", r"line 2: bad number '0' in max_iters"),
    ("[material]\nE0 = nan\n", r"line 2: bad number 'nan' in E0"),
    ("[solver]\nrtol = nan\n", r"line 2: bad number 'nan' in rtol"),
    ("[beso]\nv_star = nan\n", r"line 2: bad number 'nan' in v_star"),
    ("[dirichlet]\nbox = 0 0 0 1 1 1\ndofs = t\n",
     r"line 1: \[dirichlet\] dofs = t does not fit the elasticity"),
    ("[problem]\ntype = heat\n[dirichlet]\nbox = 0 0 0 1 1 1\ndofs = xyz\n",
     r"line 3: \[dirichlet\] dofs = xyz does not fit the heat"),
    ("[load]\nbox = 0 0 0 1 1 1\nvector =\n",
     r"line 1: \[load\] vector needs 3 numbers .* got 0"),
    # a heat source under elasticity once solved to compliance 0 unheard
    ("[problem]\ntype = elasticity\n[load]\nsource = 3\n",
     r"line 3: a source \[load\] does not fit the elasticity problem"),
    # range checks of Material, BesoConfig and the box specs, re-raised
    # with the line of their key or block
    ("[material]\nE0 = 2\nnu = 0.7\np = 3\n", r"line 3: Poisson ratio"),
    ("[beso]\ner = 0.05\nv_star = 2\n", r"line 3: v_star must lie in"),
    # rtol = 0 chased a 250k-iteration CG budget, rtol = 1 solved to zero
    ("[beso]\nv_star = 0.5\n[solver]\nrtol = 0\n",
     r"line 4: rtol must lie in"),
    ("[mesh]\nsubdivide = 1\n[dirichlet]\nbox = 1 0 0 0 1 1\ndofs = x\n",
     r"line 3: box has lo > hi"),
    ("[mesh]\nsubdivide = 1\n[load]\nbox = 0 0 2 1 1 1\nvector = 0 0 1\n",
     r"line 3: box has lo > hi"),
])
def test_config_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_config(text)


# ---------------------------------------------------------------------------
# subcommands end to end


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.mesh"
    path.write_text(serialize_mesh(unit_cube()))
    return str(path)


def test_cli_validate(cube_file, tmp_path, capsys):
    assert run_command(["validate", cube_file]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.mesh"
    bad.write_text(serialize_mesh(two_cubes_sharing_edge()))
    assert run_command(["validate", str(bad)]) == 2
    assert "edge" in capsys.readouterr().out


def test_cli_subdivide(cube_file, tmp_path, capsys):
    out = str(tmp_path / "fine.mesh")
    assert run_command(["subdivide", cube_file, "-n", "1", "-o", out]) == 0
    mesh = parse_mesh(open(out).read())
    assert mesh.num_vertices == 27 and mesh.num_cells == 8
    # a negative count once wrote the unrefined mesh and exited 0
    bad = tmp_path / "bad.mesh"
    assert run_command(["subdivide", cube_file, "-n", "-2", "-o",
                        str(bad)]) == 1
    assert "steps must be >= 0, got -2" in capsys.readouterr().err
    assert not bad.exists()


def test_cli_limit(tmp_path, capsys):
    mesh, _ = lattice(3, 3, 3)
    src = tmp_path / "lat.mesh"
    src.write_text(serialize_mesh(mesh))
    out = tmp_path / "limits.vtk"
    assert run_command(["limit", str(src), "-o", str(out)]) == 0
    npoints, ncells, ctype = _check_vtk(out.read_text())
    assert (npoints, ncells, ctype) == (8, 8, 1)  # 2x2x2 interior vertices


def test_cli_limit_no_interior(cube_file, tmp_path, capsys):
    out = str(tmp_path / "limits.vtk")
    assert run_command(["limit", cube_file, "-o", out]) == 1
    assert "interior" in capsys.readouterr().err


def test_cli_bezier(cube_file, tmp_path):
    out = tmp_path / "model.vtk"
    assert run_command(["bezier", cube_file, "-o", str(out),
                        "--sample", "2"]) == 0
    npoints, ncells, ctype = _check_vtk(out.read_text())
    assert (npoints, ncells, ctype) == (27, 8, 12)


def test_cli_error(cube_file, capsys):
    assert run_command(["error", cube_file, "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "max distance" in out and "mean distance" in out


SOLVE_CFG = """\
[problem]
type = elasticity
[material]
E0 = 1
nu = 0.3
[mesh]
subdivide = 0
[solver]
rtol = 1e-10
[dirichlet]
box = -1e9 -1e9 -1e9 0.5 1e9 1e9
dofs = xyz
[load]
box = 1.5 -1e9 -1e9 1e9 1e9 1e9
vector = 0 0 -1
"""


def test_cli_solve_elastic(tmp_path, capsys):
    mesh, _ = lattice(2, 1, 1)
    src = tmp_path / "beam.mesh"
    src.write_text(serialize_mesh(mesh))
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(SOLVE_CFG)
    out = tmp_path / "sol.vtk"
    assert run_command(["solve", str(src), "--config", str(cfgf),
                        "-o", str(out), "--sample", "2"]) == 0
    found = re.search(r"compliance (\S+) \((\d+) iterations",
                      capsys.readouterr().out)
    # the two-level preconditioner takes 31 CG iterations here, point
    # Jacobi about 170 and no preconditioner 232
    assert 0 < int(found.group(2)) <= 60
    cfg = parse_config(SOLVE_CFG)
    asm = Assembly(build_spline_model(mesh), cfg.problem, cfg.material)
    ref = dense_solve(StiffnessOperator(asm, np.ones((asm.num_cells, 1)),
                                        cfg.boundary_conditions()))
    assert (abs(float(found.group(1)) - ref.compliance)
            <= cfg.rtol * ref.compliance)
    text = out.read_text()
    assert "VECTORS displacement double" in text
    npoints, ncells, ctype = _check_vtk(text)
    assert ncells == 2 * 8 and ctype == 12


def test_cli_solve_heat(tmp_path):
    mesh, _ = lattice(2, 1, 1)
    src = tmp_path / "rod.mesh"
    src.write_text(serialize_mesh(mesh))
    cfgf = tmp_path / "heat.cfg"
    cfgf.write_text(
        "[problem]\ntype = heat\n[material]\nE0 = 1\nnu = 0\n"
        "[dirichlet]\nbox = -1e9 -1e9 -1e9 0.5 1e9 1e9\ndofs = t\n"
        "[load]\nbox = 1.5 -1e9 -1e9 1e9 1e9 1e9\nvector = 1\n")
    out = tmp_path / "T.vtk"
    assert run_command(["solve", str(src), "--config", str(cfgf),
                        "-o", str(out)]) == 0
    text = out.read_text()
    assert "SCALARS temperature double 1" in text
    _check_vtk(text)


OPT_CFG = """\
[problem]
type = elasticity
[material]
E0 = 1
nu = 0.3
[mesh]
subdivide = 0
density_level = 0
[beso]
v_star = 0.5
er = 0.5
[solver]
rtol = 1e-08
[dirichlet]
box = -1e9 -1e9 -1e9 0.5 1e9 1e9
dofs = xyz
[load]
box = 1.5 -1e9 -1e9 1e9 1e9 1e9
vector = 0 0 -1
"""


def test_cli_optimize(tmp_path, capsys):
    mesh, _ = lattice(2, 2, 1)
    src = tmp_path / "beam.mesh"
    src.write_text(serialize_mesh(mesh))
    cfgf = tmp_path / "beso.cfg"
    cfgf.write_text(OPT_CFG)
    run = tmp_path / "run1"
    assert run_command(["optimize", str(src), "--config", str(cfgf),
                        "-o", str(run)]) == 0
    assert "volume fraction" in capsys.readouterr().out
    hist = (run / "history.csv").read_text().splitlines()
    assert hist[0] == "iter,compliance,volume_fraction,killed_count"
    assert len(hist) >= 2
    _check_vtk((run / "iter_0001.vtk").read_text())
    npoints, ncells, ctype = _check_vtk((run / "final.vtk").read_text())
    assert ctype == 12 and ncells == 2  # half of 4 cells retained


@pytest.mark.parametrize("command", ["solve", "optimize"])
@pytest.mark.parametrize("extra", [
    "[mesh]\nsubdivide = 1.5", "[mesh]\nsubdivide = -2",
    "[mesh]\ndensity_level = -1", "[beso]\nmax_iters = inf",
    "[material]\nE0 = nan", "[solver]\nrtol = nan", "[beso]\nv_star = nan",
])
def test_cli_reports_bad_values_by_line(tmp_path, capsys, command, extra):
    # each of these once ran (truncated, or solved with NaN until the CG
    # budget was spent) or escaped as an OverflowError
    mesh, _ = lattice(4, 1, 1)
    src = tmp_path / "beam.mesh"
    src.write_text(serialize_mesh(mesh))
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text(OPT_CFG + extra + "\n")
    lineno = OPT_CFG.count("\n") + 2
    assert run_command([command, str(src), "--config", str(cfgf),
                        "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ccsolid %s: error: line %d: " % (command, lineno))


@pytest.mark.parametrize("command", ["solve", "optimize"])
@pytest.mark.parametrize("block", ["[dirichlet]\ndofs = xyz",
                                   "[load]\nvector = 0 0 -1"])
def test_cli_names_the_line_of_a_box_selecting_nothing(tmp_path, capsys,
                                                       command, block):
    # the analysis names such a box only by its place among the specs of
    # its kind ("load 1: box ..."), which the config file does not show
    mesh, _ = lattice(4, 1, 1)
    src = tmp_path / "beam.mesh"
    src.write_text(serialize_mesh(mesh))
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text(OPT_CFG + block + "\nbox = 50 -1e9 -1e9 60 1e9 1e9\n")
    lineno = OPT_CFG.count("\n") + 1
    assert run_command([command, str(src), "--config", str(cfgf),
                        "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"ccsolid %s: error: line %d: %s box \[50\.0, .*\] "
                        r"to \[60\.0, .*\] selects no control point\n"
                        % (command, lineno, re.escape(block.split()[0])), err)


def test_cli_failures(tmp_path, capsys):
    assert run_command(["frobnicate"]) != 0
    capsys.readouterr()
    assert run_command(["validate", str(tmp_path / "missing.mesh")]) == 1
    assert "error" in capsys.readouterr().err
    # config error surfaces with its line number
    src = tmp_path / "c.mesh"
    src.write_text(serialize_mesh(unit_cube()))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[material]\nE0 = oops\n")
    assert run_command(["solve", str(src), "--config", str(bad),
                        "-o", str(tmp_path / "x.vtk")]) == 1
    assert "line 2" in capsys.readouterr().err
