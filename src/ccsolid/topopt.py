"""Evolutionary (hard-kill) topology optimisation on spline-discretised
hexahedral solids.

Densities live on a dyadic refinement of the analysis cells: every patch
is split into 8**level parametric sub-cubes, each carrying one design
variable rho in {rho_min, 1}.  A sub-element contributes
mu_min + (1 - mu_min) * rho**p of its full stiffness, so the analysis runs
on the fixed spline space while the design resolution can exceed it.  Each
iteration ranks filtered, history-averaged sensitivities and deletes the
least productive material until the volume schedule
max(Vstar * Vtot, V_{k-1} * (1 - ER)) is met; elements are never revived.
"""

import itertools
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .hexmesh import CORNER_OFFSETS, LOCAL_FACES, Incidence
from .subdivision import subdivide as subdivide_mesh
from .spline import build_spline_model, evaluate_cells, parameter_grid
from .iga import Assembly, StiffnessOperator, _whole, solve_system
from . import vtkio


# ---------------------------------------------------------------------------
# density field


@dataclass
class DensityField:
    """Design variables on the dyadic sub-elements of a spline model.

    rho, volumes: (num_cells, 8**level); centroids: (num_cells, 8**level, 3)
    physical points of the sub-cube parametric centres.  Sub-elements are
    ordered row-major in (i, j, k), so the flat element id of (cell, sub)
    is cell * 8**level + sub.  `version` ticks on every kill so downstream
    consumers can detect stale solutions.
    """

    level: int
    rho: np.ndarray
    volumes: np.ndarray
    centroids: np.ndarray
    rho_min: float = 1e-4
    version: int = field(default=0, compare=False)

    def __post_init__(self):
        nsub = 8 ** self.level
        # kill() writes through rho.reshape(-1), which must be a view
        self.rho = np.ascontiguousarray(self.rho, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.centroids = np.asarray(self.centroids, dtype=float)
        if self.level < 0:
            raise ValueError("density level must be >= 0")
        if not 0.0 < self.rho_min < 1.0:
            raise ValueError("rho_min must lie in (0, 1)")
        nc = len(self.rho)
        if self.rho.shape != (nc, nsub) or self.volumes.shape != (nc, nsub) \
                or self.centroids.shape != (nc, nsub, 3):
            raise ValueError("inconsistent density field shapes")
        ok = (self.rho == 1.0) | (self.rho == self.rho_min)
        if not ok.all():
            raise ValueError("densities must be rho_min or 1")

    @property
    def num_elements(self):
        return self.rho.size

    @property
    def alive(self):
        return self.rho == 1.0

    @property
    def total_volume(self):
        return float(self.volumes.sum())

    @property
    def retained_volume(self):
        return float(self.volumes[self.alive].sum())

    @property
    def volume_fraction(self):
        return self.retained_volume / self.total_volume

    def kill(self, elements):
        """Set the listed flat element ids to rho_min (deletion only)."""
        elements = np.asarray(elements, dtype=np.int64)
        if len(elements):
            self.rho.reshape(-1)[elements] = self.rho_min
            self.version += 1


def _parametric_centers(model, level):
    m = 1 << level
    params = parameter_grid((np.arange(m) + 0.5) / m)
    return evaluate_cells(model.points, model.cell_nodes, params)


# ---------------------------------------------------------------------------
# face adjacency of sub-elements


def density_adjacency(mesh, level):
    """Face-neighbour lists of the density elements of `mesh` at `level`.

    Element cell * m**3 + (i m + j) m + k is sub-cube (i, j, k) of the
    cell's (m, m, m) grid, m = 2**level.  Inside a cell, each sub-cube
    neighbours the next one along each axis.  Across a face with exactly
    two cells (not a boundary face, nor one of three or more cells), both
    cells walk its m x m sub-faces in one frame fixed by vertex ids alone:
    from the corner of least id, first towards the lesser id of that
    corner's two neighbours on the face; sub-face (s, t) of one side
    neighbours sub-face (s, t) of the other.  This is index arithmetic on
    the coarse mesh: no finer mesh is built.  Returns an Incidence whose
    row e lists the face neighbours of element e in ascending order.
    """
    m = 1 << level
    ids = np.arange(mesh.num_cells * m ** 3).reshape(-1, m, m, m)
    inner = [np.stack([lo.ravel(), hi.ravel()], axis=1) for lo, hi in (
        (ids[:, :-1], ids[:, 1:]), (ids[:, :, :-1], ids[:, :, 1:]),
        (ids[..., :-1], ids[..., 1:]))]

    fc = mesh.face_cells
    two = (fc.counts == 2)[fc.rows]
    face, cell = fc.rows[two], fc.items[two]   # the two sides of each face
    local = np.argmax(mesh.cell_faces[cell] == face[:, None], axis=1)
    corners = np.array(LOCAL_FACES)[local]     # each side's corner cycle
    side = np.arange(len(cell))[:, None]
    vids = mesh.cells[cell[:, None], corners]
    r0 = np.argmin(vids, axis=1)[:, None]
    nxt, prv = (r0 + 1) % 4, (r0 + 3) % 4
    r1, r3 = np.where(vids[side, nxt] < vids[side, prv], (nxt, prv),
                      (prv, nxt))
    # a sub id is linear in the corner offsets, so the walk is too
    o0, o1, o3 = (CORNER_OFFSETS @ [m * m, m, 1])[
        corners[side, np.stack([r0, r1, r3])]][..., None]
    s = np.arange(m)
    across = (cell[:, None, None] * m ** 3 + o0 * (m - 1)
              + (o1 - o0) * s[:, None] + (o3 - o0) * s).reshape(-1, 2, m * m)

    pairs = np.concatenate(inner + [across.transpose(0, 2, 1).reshape(-1, 2)])
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    return Incidence(src, dst, ids.size)


# ---------------------------------------------------------------------------
# density policy: stiffness factors, sensitivities, filtering, history


def density_factors(rho, mat):
    """Stiffness factors mu_min + (1 - mu_min) rho^p of the densities rho,
    one per sub-element."""
    rho = np.asarray(rho, dtype=float)
    return mat.mu_min + (1.0 - mat.mu_min) * rho ** mat.p


def sensitivities(solution, assembly, density):
    """Raw element sensitivities (flat, one per sub-element).

    alpha_i = (p/2) (1 - mu_min) rho_i^(p-1) u_e^T K0_i u_e, the compliance
    change per unit density under density_factors.  Raises if the densities
    changed since the solution was computed.
    """
    stamp = getattr(solution, "density_version", None)
    if stamp is not None and stamp != density.version:
        raise ValueError("stale solution: densities changed since the solve")
    if assembly.level != density.level:
        raise ValueError("assembly level %d != density level %d"
                         % (assembly.level, density.level))
    mat = assembly.mat
    if mat is None:
        raise ValueError("sensitivities need a material (p, mu_min)")
    energies = assembly.sub_energies(solution.u.reshape(-1))
    alpha = (0.5 * mat.p * (1.0 - mat.mu_min) * density.rho ** (mat.p - 1.0)
             * energies)
    return alpha.reshape(-1)


class SensitivityFilter:
    """Linear-hat smoothing of element sensitivities over geometric
    neighbourhoods.

    The support radius of element i is twice its mean distance to its
    face-neighbours; every element j with r_ij < r_i contributes weight
    r_i - r_ij (the element itself enters with weight r_i).  Weights are
    geometric, so they are built once and reused every iteration.
    """

    def __init__(self, centroids, adjacency):
        """`adjacency` is the Incidence of face neighbours (see
        density_adjacency)."""
        centroids = np.asarray(centroids, dtype=float).reshape(-1, 3)
        n = len(centroids)
        if len(adjacency) != n:
            raise ValueError("adjacency rows do not match centroids")
        i, j = adjacency.rows, adjacency.items
        d = np.linalg.norm(centroids[j] - centroids[i], axis=1)
        counts = adjacency.counts
        radii = 2.0 * np.bincount(i, weights=d, minlength=n) \
            / np.maximum(counts, 1)
        groups = cKDTree(centroids).query_ball_point(centroids, radii)
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=n)
        rows = np.repeat(np.arange(n), sizes)
        cols = np.fromiter(itertools.chain.from_iterable(groups),
                           dtype=np.int64, count=int(sizes.sum()))
        d = np.linalg.norm(centroids[cols] - centroids[rows], axis=1)
        keep = d < radii[rows]
        rows, cols, w = rows[keep], cols[keep], (radii[rows] - d)[keep]
        # isolated element: pass its value through unchanged
        alone = np.flatnonzero(np.bincount(rows, minlength=n) == 0)
        self.weights = sparse.csr_matrix(
            (np.concatenate([w, np.ones(len(alone))]),
             (np.concatenate([rows, alone]), np.concatenate([cols, alone]))),
            shape=(n, n))
        self._norm = np.asarray(self.weights.sum(axis=1)).reshape(-1)

    def apply(self, alpha):
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        return (self.weights @ alpha) / self._norm


def average_history(previous, current):
    """Mean of this iteration's filtered sensitivities with the stored ones;
    the first iteration (previous is None) passes current through."""
    current = np.asarray(current, dtype=float)
    if previous is None:
        return current.copy()
    previous = np.asarray(previous, dtype=float)
    if previous.shape != current.shape:
        raise ValueError("sensitivity history length %d does not match %d"
                         % (previous.size, current.size))
    return 0.5 * (previous + current)


# ---------------------------------------------------------------------------
# BESO iteration


@dataclass
class BesoConfig:
    """Evolutionary optimisation parameters.

    v_star: target volume fraction; er: evolutionary rate of the volume
    schedule; level: dyadic density resolution per cell.  mu_min defaults
    to the material's own value when left as None; the penalization
    exponent is the material's p.

    single_precision runs the CG sweeps on a float32 mirror of the
    stiffness, half the memory traffic, under float64 restarts; it suits
    moderate contrasts (mu_min of about 1e-2) and tolerances.  rtol, the
    relative residual the solves must reach, lies in (0, 1).  The run's
    StiffnessOperator owns the mirror and the preconditioner.

    precond chooses nothing: "twolevel" is its only accepted value.  It is
    kept so that callers written when a second preconditioner existed, and
    still pass precond="twolevel", keep running.
    """

    v_star: float
    er: float = 0.02
    rho_min: float = 1e-4
    mu_min: float = None
    level: int = 1
    filter: bool = True
    max_iterations: int = 200
    rtol: float = 1e-8
    precond: str = "twolevel"
    single_precision: bool = False

    def __post_init__(self):
        if self.precond != "twolevel":
            raise ValueError("precond must be 'twolevel', the only "
                             "preconditioner, got %r" % (self.precond,))
        if not 0.0 < self.v_star < 1.0:
            raise ValueError("v_star must lie in (0, 1)")
        if not 0.0 < self.er < 1.0:
            raise ValueError("er must lie in (0, 1)")
        if not 0.0 < self.rho_min < 1.0:
            raise ValueError("rho_min must lie in (0, 1)")
        if self.mu_min is not None and not 0.0 < self.mu_min < 1.0:
            raise ValueError("mu_min must be None or lie in (0, 1), got %r"
                             % (self.mu_min,))
        self.level = _whole(self.level, "level", 0)
        if not 0.0 < self.rtol < 1.0:      # a NaN fails the test too
            raise ValueError("rtol must lie in (0, 1)")
        self.max_iterations = _whole(self.max_iterations, "max_iterations", 1)

    def material(self, base):
        """Material with this config's mu_min applied."""
        if self.mu_min is None or self.mu_min == base.mu_min:
            return base
        return replace(base, mu_min=self.mu_min)


@dataclass
class OptState:
    """Progress of one optimisation run: completed iterations, the current
    absolute volume target V_k, the (mutating) density field, the stored
    sensitivity history and the compliance record."""

    iteration: int
    target_volume: float
    density: DensityField
    history_alpha: np.ndarray = None
    compliance_history: list = field(default_factory=list)


def beso_iterate(state, alpha, cfg):
    """One hard-kill update: lower the volume target along the schedule and
    delete the lowest-sensitivity elements until the retained volume first
    drops to the target.  Ties rank by element id (stable sort); elements
    are only ever removed.  A non-finite sensitivity raises a ValueError
    naming the first such element."""
    dens = state.density
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.size != dens.num_elements:
        raise ValueError("expected %d sensitivities, got %d"
                         % (dens.num_elements, alpha.size))
    finite = np.isfinite(alpha)
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError("sensitivity of element %d is not finite: %r"
                         % (i, alpha[i]))
    total = dens.total_volume
    retained = dens.retained_volume
    target = max(cfg.v_star * total, state.target_volume * (1.0 - cfg.er))
    # volumes are sums of quadrature weights; compare with a relative slack
    # so roundoff never costs an extra element
    tol = 1e-12 * total
    need = retained - target
    if need > tol:
        order = np.argsort(alpha, kind="stable")
        alive_order = order[dens.alive.reshape(-1)[order]]
        csum = np.cumsum(dens.volumes.reshape(-1)[alive_order])
        t = min(int(np.searchsorted(csum, need - tol, side="left")) + 1,
                len(alive_order))
        dens.kill(alive_order[:t])
    elif cfg.v_star * total - retained > dens.volumes.max():
        # more than one element short of the target: deletion-only updates
        # can never recover volume
        warnings.warn("v_star volume exceeds the retained volume; "
                      "no elements removed", stacklevel=2)
    return replace(state, iteration=state.iteration + 1, target_volume=target)


# ---------------------------------------------------------------------------
# driver


def optimize(mesh, cfg, mat, bcs, problem="elasticity", subdivide=0,
             out_dir=None, callback=None):
    """Run the full compliance-minimisation loop on a hexahedral mesh.

    The mesh is subdivided `subdivide` times, turned into a spline model,
    and analysed with `mat` / `bcs` while densities evolve at cfg.level.
    Per iteration: solve (warm-started), rank history-averaged filtered
    sensitivities, delete along the volume schedule, and re-aggregate the
    stiffness of the cells the deletions touched.  After an iteration that
    deleted nothing the design is unchanged, so the next one reuses its
    solution and filtered sensitivities and solves nothing (its Solution
    reports 0 iterations and 0 restarts).  Stops once the schedule reaches
    v_star and a further iteration changes nothing.  A `subdivide` that is
    not a whole number >= 0 raises a ValueError.

    With out_dir set, writes iter_%04d.vtk density snapshots and an
    incrementally flushed history.csv (iter, compliance, volume_fraction,
    killed_count).  Returns (DensityField, history rows).  A solver failure
    aborts with the state saved to out_dir.
    """
    for _ in range(_whole(subdivide, "subdivide", 0)):
        mesh, _ = subdivide_mesh(mesh)
    model = build_spline_model(mesh)
    eff = cfg.material(mat)
    asm = Assembly(model, problem, eff, level=cfg.level)
    dens = DensityField(level=cfg.level,
                        rho=np.ones((model.num_cells, asm.nsub)),
                        volumes=asm.sub_volumes.copy(),
                        centroids=_parametric_centers(model, cfg.level),
                        rho_min=cfg.rho_min)
    filt = SensitivityFilter(dens.centroids,
                             density_adjacency(mesh, cfg.level)) \
        if cfg.filter else None
    op = StiffnessOperator(asm, density_factors(dens.rho, eff), bcs,
                           single_precision=cfg.single_precision)
    state = OptState(iteration=0, target_volume=dens.total_volume,
                     density=dens)

    csv = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        grid = vtkio.VtkGrid(*vtkio.sample_model(model, 1 << cfg.level))
        csv = open(os.path.join(out_dir, "history.csv"), "w")
        csv.write("iter,compliance,volume_fraction,killed_count\n")

    history = state.compliance_history
    killed = None
    try:
        while state.iteration < cfg.max_iterations:
            if killed is None or len(killed):
                sol = solve_system(op, rtol=cfg.rtol)
                sol.density_version = dens.version
                alpha = sensitivities(sol, asm, dens)
                ahat = filt.apply(alpha) if filt is not None else alpha
            else:
                # the last iteration killed nothing: the design, and with
                # it the analysis, is the one already at hand
                sol = replace(sol, iterations=0, restarts=0)
                sol.density_version = dens.version
            atil = average_history(state.history_alpha, ahat)
            state = replace(state, history_alpha=atil)

            before = dens.alive.reshape(-1).copy()
            state = beso_iterate(state, atil, cfg)
            killed = np.flatnonzero(before & ~dens.alive.reshape(-1))
            if len(killed):
                fac = density_factors(dens.rho, eff).reshape(-1)
                op.set_factors(killed // asm.nsub, killed % asm.nsub,
                               fac[killed])

            row = (state.iteration, sol.compliance, dens.volume_fraction,
                   len(killed))
            history.append(row)
            if csv is not None:
                csv.write("%d,%.17g,%.17g,%d\n" % row)
                csv.flush()
                vtkio.write_vtk(
                    os.path.join(out_dir, "iter_%04d.vtk" % state.iteration),
                    grid, cell_data={"density": dens.rho.reshape(-1)},
                    title="density iteration")
            if callback is not None:
                callback(state, sol)

            at_target = state.target_volume <= \
                cfg.v_star * dens.total_volume * (1.0 + 1e-12)
            if at_target and not len(killed):
                break
        else:
            warnings.warn("reached max_iterations before the volume schedule "
                          "settled", stacklevel=2)
    finally:
        if csv is not None:
            csv.close()
    return dens, history
