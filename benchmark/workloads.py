"""The three workloads: what one operation is, how a run is timed, and
which checks its outputs must pass.

A run returns a `Run`: operations attempted and failed, the end-to-end
measurements, and the failures of every correctness check.
"""

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# layer functions are looked up on their modules at call time, so a traced
# run sees the wrappers tracing.Tracer installs there
from ccsolid import hexmesh, iga, spline, subdivision, topopt, vtkio

import calibrate
import checks
import inputs

SAMPLE_D = 2          # VTK sampling density per patch in `geometry`
SETUP_REPEATS = 1000  # timed input-mesh builds behind geometry setup_s


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    errors: list = field(default_factory=list)     # operations that raised
    failures: list = field(default_factory=list)   # failed checks
    info: dict = field(default_factory=dict)
    speed: float = 1.0      # calibrate.Yardstick.speed_factor of the run
    cal_s: list = field(default_factory=list)      # chunk time per operation
    record: dict = None                            # BESO callback records
    checks: list = field(default_factory=list)     # deferred, see check()

    def check(self):
        """Run the deferred correctness checks (outside any trace)."""
        for fn in self.checks:
            self.failures += fn()
        self.checks = []
        return self.failures


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# geometry


def _nothing():
    pass


def _fine_levels(mesh, steps, between=_nothing):
    """Subdivide `steps` times, validating every level."""
    levels = []
    for k in range(steps + 1):
        if k:
            mesh, _ = subdivision.subdivide(mesh)
            between()
        levels.append((mesh.num_vertices, mesh.num_edges, mesh.num_faces,
                       mesh.num_cells, hexmesh.validate(mesh).ok))
        between()
    return mesh, levels


def geometry_pass(name, mesh, out_dir, between=_nothing):
    """One operation: the mesh through the file round trip, validation,
    subdivision, limit points, spline fit, approximation error and VTK
    sampling and writing; `between` runs after every step."""
    coarse = hexmesh.parse_mesh(hexmesh.serialize_mesh(mesh))
    between()
    fine, levels = _fine_levels(coarse, inputs.GEOMETRY_SUBDIVISIONS,
                                between)
    limits, _ = subdivision.limit_points(fine)
    between()
    model = spline.build_spline_model(fine)
    between()
    err = spline.approximation_error(fine, model, 1)
    between()
    points, hexes = vtkio.sample_model(model, SAMPLE_D)
    between()
    path = os.path.join(out_dir, name + ".vtk")
    vtkio.write_vtk(path, points, hexes, title="sampled spline model")
    between()
    return dict(coarse=coarse, fine=fine, levels=levels, limits=limits,
                model=model, err=err, vtk=path)


def _digest(out):
    h = hashlib.sha256()
    for a in (out["fine"].vertices, out["limits"], out["model"].points,
              out["err"].distances):
        h.update(np.ascontiguousarray(a).tobytes())
    with open(out["vtk"], "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _build_seconds(meshes):
    """Time building the coarse input meshes from their vertex and cell
    arrays, the `HexMesh` every command makes of its input before the first
    pipeline step."""
    arrays = [(mesh.vertices, mesh.cells) for _, mesh in meshes]
    t0 = time.perf_counter()
    for verts, cells in arrays:
        hexmesh.HexMesh(verts, cells)
    return time.perf_counter() - t0


def run_geometry(seed, seconds, work, rounds=None):
    """Whole rounds over the three meshes until `seconds` have passed (or
    exactly `rounds` rounds, without calibration).  setup_s: building the
    input meshes, median of SETUP_REPEATS builds (left out of a traced
    run's fixed work).  A calibration chunk runs after every pipeline
    step; an operation's time leaves the chunks out."""
    run = Run()
    meshes = inputs.geometry_meshes(seed)
    yard = calibrate.Yardstick() if rounds is None else None
    between = yard.tick if yard else _nothing
    if rounds is None:
        run.setup_s = [_build_seconds(meshes) for _ in range(SETUP_REPEATS)]
    first, digests = {}, {}
    start = time.perf_counter()
    while True:
        outs = []
        cal0 = yard.total_s if yard else 0.0
        t0 = time.perf_counter()
        for name, mesh in meshes:
            run.attempted += 1
            try:
                outs.append((name, geometry_pass(name, mesh, work, between)))
            except Exception as exc:          # recorded, the run goes on
                run.failed += 1
                run.errors.append("%s raised %r" % (name, exc))
        cal = (yard.total_s - cal0) if yard else 0.0
        run.op_s.append(time.perf_counter() - t0 - cal)
        run.cal_s.append(cal)
        for name, out in outs:
            first.setdefault(name, out)
            d = _digest(out)
            if digests.setdefault(name, d) != d:
                run.failures.append("%s: a repeated pass gave other output"
                                    % name)
        n = len(run.op_s)
        if (rounds is not None and n >= rounds) or \
                (rounds is None and n >= 3
                 and time.perf_counter() - start >= seconds):
            break
    run.peak_rss_mb = peak_rss_mb()
    if yard:
        run.speed = yard.speed_factor()
        run.info.update(speed_factor=run.speed, cal_chunks=yard.chunks)
    run.info["rounds"] = len(run.op_s)
    run.info["cells"] = {n: int(o["fine"].num_cells) for n, o in first.items()}
    for name, out in first.items():
        run.checks.append(lambda name=name, out=out: [
            "%s: %s" % (name, f) for f in check_geometry(out, seed)])
    return run


def check_geometry(out, seed):
    fine, model = out["fine"], out["model"]
    scale = float(np.ptp(fine.vertices, axis=0).max())
    bad = checks.check_levels(out["levels"])
    # the same steps on an affine image of the input
    rng = np.random.default_rng([seed, 7])
    A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    b = rng.uniform(-2.0, 2.0, 3)
    coarse = out["coarse"]
    mapped = hexmesh.HexMesh(coarse.vertices @ A.T + b, coarse.cells)
    for _ in range(inputs.GEOMETRY_SUBDIVISIONS):
        mapped, _ = subdivision.subdivide(mapped)
    bad += checks.check_affine(
        dict(fine=fine.vertices, limits=out["limits"], control=model.points),
        dict(fine=mapped.vertices, limits=subdivision.limit_points(mapped)[0],
             control=spline.build_spline_model(mapped).points),
        A, b, scale * np.abs(A).max() + np.abs(b).max())
    bad += checks.check_stencil(fine.vertices, fine.cells, out["limits"],
                                model.points, scale)
    bad += checks.check_regular_error(out["err"].distances,
                                      out["err"].regular_interior)
    bad += checks.check_vtk_header(checks.read_vtk(out["vtk"]),
                                   model.num_cells, SAMPLE_D)
    return bad


# ---------------------------------------------------------------------------
# BESO


class _WindowClosed(Exception):
    """Raised from the iteration callback once the run has measured enough."""


def run_beso(spec, seconds, work, iterations=None, cal_chunks=0, cycle=1):
    """Set up once, then iterate until the optimisation ends or the
    iterations after the first have taken about `seconds`: whole cycles of
    `cycle` iterations, as many as end closest to `seconds` (or exactly
    `iterations` iterations).  spec: a BESO problem of `inputs`.
    setup_s: from the call into optimize to its first iteration callback.
    `cal_chunks` calibration chunks run in every callback; an iteration's
    time leaves them out."""
    out_dir = os.path.join(work, "run") if spec["out_dir"] else None
    run = Run()
    yard = calibrate.Yardstick() if cal_chunks else None
    rec = dict(times=[], iteration=[], target=[], alive=[], compliance=[],
               killed=[], fraction=[], u=[], cg=[], cal=[])

    def callback(state, sol):
        now = time.perf_counter()
        dens = state.density
        alive = dens.alive.reshape(-1).copy()
        prev = rec["alive"][-1] if rec["alive"] else np.ones_like(alive)
        rec["times"].append(now)
        rec["iteration"].append(state.iteration)
        rec["target"].append(state.target_volume)
        rec["alive"].append(alive)
        rec["compliance"].append(sol.compliance)
        rec["killed"].append(int((prev & ~alive).sum()))
        rec["fraction"].append(dens.volume_fraction)
        rec["u"].append(sol.u.copy())
        rec["cg"].append(sol.iterations)
        if "volumes" not in rec:
            rec["volumes"] = dens.volumes.reshape(-1).copy()
            rec["rho_min"] = dens.rho_min
        n = len(rec["times"])
        if iterations is not None:
            if n >= iterations:
                raise _WindowClosed
        elif n >= 3 and (n - 1) % cycle == 0:
            # stop here if the next whole cycle would end farther from
            # `seconds` than this one
            cycles = (n - 1) // cycle
            if (now - rec["times"][0]) * (1.0 + 0.5 / cycles) >= seconds:
                raise _WindowClosed
        if yard:
            rec["cal"].append(yard.tick(cal_chunks))

    finished = False
    t0 = time.perf_counter()
    try:
        topopt.optimize(spec["mesh"], spec["cfg"], spec["mat"], spec["bcs"],
                        problem=spec["problem"], subdivide=spec["subdivide"],
                        out_dir=out_dir, callback=callback)
        finished = True
    except _WindowClosed:
        pass
    except Exception as exc:                  # the iteration that raised
        run.failed = 1
        run.errors.append("iteration %d raised %r"
                          % (len(rec["times"]) + 1, exc))
    run.peak_rss_mb = peak_rss_mb()
    times = rec["times"]
    run.attempted = len(times) + run.failed
    if times:
        run.setup_s = [times[0] - t0]
        run.cal_s = rec["cal"][:len(times) - 1]
        run.op_s = list(np.diff(times) - run.cal_s if yard
                        else np.diff(times))
    if yard and yard.chunks:
        run.speed = yard.speed_factor()
        run.info.update(speed_factor=run.speed, cal_chunks=yard.chunks)
    run.info.update(iterations=len(times), finished=finished,
                    cg_iterations=list(rec["cg"]),
                    compliance=list(rec["compliance"]))
    if times:
        run.record = rec
        run.checks.append(lambda: check_beso(spec, rec, finished, out_dir,
                                             run.info.setdefault("margins",
                                                                 {})))
    return run


def _fresh_operator(spec, alive, rho_min):
    """Model, assembly and K_cells of a design, aggregated from scratch."""
    mesh = spec["mesh"]
    for _ in range(spec["subdivide"]):
        mesh, _ = subdivision.subdivide(mesh)
    model = spline.build_spline_model(mesh)
    cfg = spec["cfg"]
    mat = cfg.material(spec["mat"])
    asm = iga.Assembly(model, spec["problem"], mat, level=cfg.level)
    rho = np.where(alive, 1.0, rho_min).reshape(asm.num_cells, asm.nsub)
    factors = mat.mu_min + (1.0 - mat.mu_min) * rho ** mat.p
    return model, asm, asm.aggregate(factors, chunk=16)


def _in_box(points, lo, hi, tol=1e-9):
    return np.all((points >= np.asarray(lo) - tol)
                  & (points <= np.asarray(hi) + tol), axis=1)


def check_beso(spec, rec, finished, out_dir, stats=None):
    """Every BESO check on a run's records; `stats` receives the measured
    margins of the numerical checks."""
    cfg = spec["cfg"]
    bad = checks.check_schedule(rec["iteration"], rec["target"], rec["alive"],
                                rec["volumes"], cfg.v_star, cfg.er, finished)
    bad += checks.check_monotone(rec["compliance"], cfg.rtol, stats)

    # the last solve ran on the design left by the update before it
    design = rec["alive"][-2] if len(rec["alive"]) > 1 \
        else np.ones_like(rec["alive"][0])
    model, asm, K_cells = _fresh_operator(spec, design, rec["rho_min"])
    pts = model.points
    fixed_pts = np.flatnonzero(_in_box(pts, *spec["support_box"]))
    if spec["problem"] == "elasticity":
        dpn = 3
        F = np.zeros(3 * len(pts))
        for comp, value in enumerate(spec["load"]):
            F[3 * np.flatnonzero(_in_box(pts, *spec["load_box"]))
              + comp] += value
    else:
        dpn = 1
        F = asm.load_vector(spec["bcs"])
        # partition of unity: the load integrates the source over the solid
        want = spec["bcs"].heat_source * asm.sub_volumes.sum()
        if not abs(F.sum() - want) <= 1e-10 * want:
            bad.append("heat load sums to %.12g, want %.12g"
                       % (F.sum(), want))
    fixed = (dpn * fixed_pts[:, None] + np.arange(dpn)).reshape(-1)
    bad += checks.check_final_state(
        K_cells, checks.dofmap_of(model.cell_nodes, dpn), F, fixed,
        rec["u"][-1], rec["compliance"][-1], cfg.rtol,
        direct=spec["problem"] == "heat", stats=stats)

    if out_dir is not None:
        records = [(k, c, f, n) for k, c, f, n in zip(
            rec["iteration"], rec["compliance"], rec["fraction"],
            rec["killed"])]
        bad += checks.check_history_file(
            *checks.read_history(os.path.join(out_dir, "history.csv")),
            records)
        names = sorted(f for f in os.listdir(out_dir) if f.endswith(".vtk"))
        if names != ["iter_%04d.vtk" % k for k in rec["iteration"]]:
            bad.append("snapshots %s do not match the iterations" % names)
        else:
            for name, alive in zip(names, rec["alive"]):
                dens = checks.read_vtk(os.path.join(out_dir, name))[
                    "cell_data"].get("density", np.zeros(0))
                bad += ["%s: %s" % (name, f) for f in checks.check_snapshot(
                    dens, alive, rec["rho_min"])]
    return bad


# ---------------------------------------------------------------------------


# the fixed amount of work of a traced run, so per-layer totals compare
# across commits whatever their speed
TRACED_WORK = {"geometry": 2, "beso_cantilever": 8, "beso_multires_heat": None}
# calibration chunks per BESO iteration, a tenth to a fifth of its time
CAL_CHUNKS = {"beso_cantilever": 80, "beso_multires_heat": 5}
# optimize rebuilds the two-level preconditioner in full every 8th
# iteration and patches it in between, so a cantilever run measures whole
# cycles of 8 iterations: each holds one rebuild whatever the run's speed
CYCLE = {"beso_cantilever": 8, "beso_multires_heat": 1}


def run_workload(name, seed, seconds, work, traced):
    fixed = TRACED_WORK[name] if traced else None
    if name == "geometry":
        return run_geometry(seed, seconds, work, rounds=fixed)
    spec = {"beso_cantilever": inputs.cantilever,
            "beso_multires_heat": inputs.multires_heat}[name](seed)
    if traced and fixed is None:
        seconds = float("inf")                 # to the end of the schedule
    return run_beso(spec, seconds, work, iterations=fixed,
                    cal_chunks=0 if traced else CAL_CHUNKS[name],
                    cycle=CYCLE[name])


def end_to_end(run):
    return {"setup_s": (statistics.median(run.setup_s), "s"),
            "iter_cal_s": (statistics.fmean(run.op_s) * run.speed, "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB")}
