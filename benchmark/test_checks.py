"""Each correctness check of the benchmark passes on genuine output and
rejects a deliberately broken copy of it; the tracer attributes self time
and patches every binding of a layer function.

    python3 -m pytest -q benchmark
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from ccsolid import spline, subdivision, topopt, vtkio  # noqa: E402
from ccsolid.hexmesh import HexMesh  # noqa: E402
from ccsolid.iga import BoundaryConditions, DirichletSpec, Material  # noqa: E402
from ccsolid.topopt import BesoConfig  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# geometry: a jittered 2x2x2 block subdivided once (27 regular vertices)


@pytest.fixture(scope="module")
def geo():
    verts, cells = inputs.lattice(2, 2, 2)
    verts = verts + np.random.default_rng(3).uniform(-0.1, 0.1, verts.shape)
    coarse = HexMesh(verts, cells)
    fine, levels = workloads._fine_levels(coarse, 1)
    limits = subdivision.limit_points(fine)[0]
    model = spline.build_spline_model(fine)
    err = spline.approximation_error(fine, model, 1)
    return dict(coarse=coarse, fine=fine, levels=levels, limits=limits,
                model=model, err=err)


def test_levels_reject_wrong_counts(geo):
    levels = geo["levels"]
    assert checks.check_levels(levels) == []
    nv, ne, nf, nc, ok = levels[1]
    for broken in ((nv + 1, ne, nf, nc, ok), (nv, ne, nf, nc - 8, ok),
                   (nv, ne, nf, nc, False)):
        assert checks.check_levels([levels[0], broken])


def test_affine_rejects_shifted_control_point(geo):
    rng = np.random.default_rng(5)
    A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    b = rng.uniform(-2, 2, 3)
    mapped, _ = subdivision.subdivide(
        HexMesh(geo["coarse"].vertices @ A.T + b, geo["coarse"].cells))
    orig = dict(fine=geo["fine"].vertices, limits=geo["limits"],
                control=geo["model"].points)
    image = dict(fine=mapped.vertices,
                 limits=subdivision.limit_points(mapped)[0],
                 control=spline.build_spline_model(mapped).points)
    assert checks.check_affine(orig, image, A, b, 10.0) == []
    image["control"] = image["control"].copy()
    image["control"][17] += 1e-6
    assert checks.check_affine(orig, image, A, b, 10.0)


def test_stencil_rejects_shifted_limit_and_control_points(geo):
    fine = geo["fine"]
    ids, _ = checks.regular_stencil_limits(fine.vertices, fine.cells)
    assert len(ids) == 27              # the interior vertices of a 4x4x4 block
    args = (fine.vertices, fine.cells, geo["limits"], geo["model"].points, 2.)
    assert checks.check_stencil(*args) == []
    limits = geo["limits"].copy()
    limits[ids[4], 1] += 1e-9
    assert checks.check_stencil(fine.vertices, fine.cells, limits,
                                geo["model"].points, 2.0)
    control = geo["model"].points.copy()
    control[ids[0], 2] -= 1e-9
    assert checks.check_stencil(fine.vertices, fine.cells, geo["limits"],
                                control, 2.0)


def test_regular_error_rejects_inexact_sample(geo):
    err = geo["err"]
    assert checks.check_regular_error(err.distances, err.regular_interior) == []
    dist = err.distances.copy()
    dist[np.flatnonzero(err.regular_interior)[3]] = 1e-9
    assert checks.check_regular_error(dist, err.regular_interior)
    assert checks.check_regular_error(dist, np.zeros_like(dist, dtype=bool))


def test_vtk_header_rejects_missing_hexahedron(geo, tmp_path):
    model = geo["model"]
    points, hexes = vtkio.sample_model(model, 2)
    good, bad = str(tmp_path / "good.vtk"), str(tmp_path / "bad.vtk")
    vtkio.write_vtk(good, points, hexes)
    vtkio.write_vtk(bad, points, hexes[:-1])
    n = model.num_cells
    assert checks.check_vtk_header(checks.read_vtk(good), n, 2) == []
    assert checks.check_vtk_header(checks.read_vtk(bad), n, 2)
    assert checks.check_vtk_header(checks.read_vtk(good), n, 3)


# ---------------------------------------------------------------------------
# BESO: heat on a 2x2x1 block, 32 design elements, run to the end


SUPPORT = ((-1e9, -1e9, -1e9), (0.5, 1e9, 1e9))


def small_heat():
    verts, cells = inputs.lattice(2, 2, 1)
    return dict(mesh=HexMesh(verts, cells),
                cfg=BesoConfig(v_star=0.5, er=0.1, level=1, mu_min=1e-2),
                mat=Material(1.0, 0.3),
                bcs=BoundaryConditions(
                    dirichlet=[DirichletSpec(*SUPPORT, (0,))],
                    heat_source=1.0),
                problem="heat", subdivide=0, out_dir=True,
                support_box=SUPPORT)


@pytest.fixture(scope="module")
def beso(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("beso"))
    spec = small_heat()
    run = workloads.run_beso(spec, 1e9, work)
    assert run.info["finished"] and run.info["iterations"] >= 5
    assert run.check() == []
    return spec, run.record, os.path.join(work, "run")


def _copy(rec):
    return {k: (list(v) if isinstance(v, list) else v) for k, v in rec.items()}


def test_schedule_rejects_revived_element(beso):
    spec, rec, out = beso
    cfg = spec["cfg"]
    args = (rec["iteration"], rec["target"])
    assert checks.check_schedule(*args, rec["alive"], rec["volumes"],
                                 cfg.v_star, cfg.er, True) == []
    alive = list(rec["alive"])
    dead = np.flatnonzero(~alive[-2])[0]
    alive[-1] = alive[-1].copy()
    alive[-1][dead] = True
    assert checks.check_schedule(*args, alive, rec["volumes"], cfg.v_star,
                                 cfg.er, True)


def test_schedule_rejects_off_schedule_target_and_fraction(beso):
    spec, rec, _ = beso
    cfg = spec["cfg"]
    targets = list(rec["target"])
    targets[1] *= 1.01
    assert checks.check_schedule(rec["iteration"], targets, rec["alive"],
                                 rec["volumes"], cfg.v_star, cfg.er, True)
    # a design that kept one element too many
    alive = list(rec["alive"])
    alive[2] = alive[1]
    assert checks.check_schedule(rec["iteration"], rec["target"], alive,
                                 rec["volumes"], cfg.v_star, cfg.er, False)
    # a finished run must end at v*
    assert checks.check_schedule(rec["iteration"], rec["target"],
                                 rec["alive"], rec["volumes"], 0.3, cfg.er,
                                 True)


def test_monotone_rejects_compliance_dip(beso):
    spec, rec, _ = beso
    comp = list(rec["compliance"])
    assert checks.check_monotone(comp, spec["cfg"].rtol) == []
    comp[3] = comp[2] * 0.99
    assert checks.check_monotone(comp, spec["cfg"].rtol)


def test_final_state_rejects_wrong_solution_or_compliance(beso):
    spec, rec, out = beso
    for key, broken in (("u", rec["u"][-1] * 1.001),
                        ("compliance", rec["compliance"][-1] * (1 + 1e-6))):
        bad = _copy(rec)
        bad[key][-1] = broken
        assert workloads.check_beso(spec, bad, True, None)
    # the solution of the design before the last update is not the solution
    # of the last design
    bad = _copy(rec)
    bad["u"][-1] = rec["u"][-2]
    bad["compliance"][-1] = rec["compliance"][-2]
    assert workloads.check_beso(spec, bad, True, None)


def test_history_and_snapshots_reject_mismatch(beso):
    spec, rec, out = beso
    header, rows = checks.read_history(os.path.join(out, "history.csv"))
    records = list(zip(rec["iteration"], rec["compliance"], rec["fraction"],
                       rec["killed"]))
    assert checks.check_history_file(header, rows, records) == []
    assert checks.check_history_file(header, rows[:-1], records)
    rows[2] = (rows[2][0], rows[2][1], rows[2][2], rows[2][3] + 1)
    assert checks.check_history_file(header, rows, records)

    snap = checks.read_vtk(os.path.join(out, "iter_0003.vtk"))
    dens = snap["cell_data"]["density"]
    alive = rec["alive"][2]
    assert checks.check_snapshot(dens, alive, rec["rho_min"]) == []
    flipped = dens.copy()
    flipped[np.flatnonzero(alive)[0]] = rec["rho_min"]
    assert checks.check_snapshot(flipped, alive, rec["rho_min"])
    assert checks.check_snapshot(dens[:-1], alive, rec["rho_min"])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_self_time_and_rebinding():
    original = subdivision.subdivide
    tr = tracing.Tracer()
    tr.instrument()
    try:
        assert topopt.subdivide_mesh is subdivision.subdivide \
            is spline.subdivide
        assert subdivision.subdivide is not original
        verts, cells = inputs.lattice(2, 1, 1)
        spline.approximation_error(HexMesh(verts, cells),
                                   spline.build_spline_model(
                                       HexMesh(verts, cells)), 1)
    finally:
        tr.restore()
    assert subdivision.subdivide is original
    assert topopt.subdivide_mesh is original
    summ = tr.summary()
    calls, incl, self_t = summ["spline.approx_error"]
    inner = sum(summ[k][1] for k in ("subdivision.subdivide",
                                     "subdivision.limit_points"))
    assert calls == 1 and 0 <= self_t <= incl - inner + 1e-9
    sub_calls, sub_incl, sub_self = summ["subdivision.subdivide"]
    assert sub_calls == 1 and sub_self < sub_incl     # HexMesh init inside
    m = tr.metrics()
    assert m["subdivision.cells_out"]["value"] == 16
    assert set(m) == {n for n, _ in tracing.per_layer_names()}
