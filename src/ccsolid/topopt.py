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

from .hexmesh import CORNER_OFFSETS, Incidence
from .subdivision import subdivide as subdivide_mesh
from .spline import build_spline_model, evaluate_cells, parameter_grid
from .iga import Assembly, Material, StiffnessOperator, solve_system
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

_CORNER_INDEX = {tuple(off): idx for idx, off in enumerate(CORNER_OFFSETS)}


def _octant_offsets(level):
    """Cell-local fine-cell offset for each row-major sub index.

    Subdividing a cell `level` times numbers the children in base 8 by
    octant corner; this maps the (i, j, k) row-major sub index onto that
    numbering.
    """
    m = 1 << level
    out = np.empty(m ** 3, dtype=np.int64)
    for s in range(m ** 3):
        i, j, k = s // (m * m), (s // m) % m, s % m
        off = 0
        for t in range(level - 1, -1, -1):
            off = off * 8 + _CORNER_INDEX[
                ((i >> t) & 1, (j >> t) & 1, (k >> t) & 1)]
        out[s] = off
    return out


def density_adjacency(mesh, level):
    """Face-neighbour lists of the density elements of `mesh` at `level`.

    Realised by subdividing the mesh itself `level` times, which handles
    neighbours across coarse faces (including around extraordinary edges)
    without any orientation bookkeeping.  Element ids follow the flat
    DensityField order; returns an Incidence whose row e lists the face
    neighbours of element e in ascending order.
    """
    fine = mesh
    for _ in range(level):
        fine, _ = subdivide_mesh(fine)
    nsub = 8 ** level
    perm = _octant_offsets(level)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(nsub)
    fc = fine.face_cells
    pairs = fc.items[(fc.counts == 2)[fc.rows]].reshape(-1, 2)
    pairs = (pairs // nsub) * nsub + inv[pairs % nsub]
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.argsort(dst, kind="stable")
    return Incidence(src[order], dst[order], fine.num_cells)


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
    schedule; level: dyadic density resolution per cell.  p and mu_min
    default to the material's own values when left as None.

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
    p: float = None
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
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.p is not None and self.p < 1.0:
            raise ValueError("p must be >= 1")
        if not 0.0 < self.rtol < 1.0:      # a NaN fails the test too
            raise ValueError("rtol must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def material(self, base):
        """Material with this config's penalization applied."""
        p = base.p if self.p is None else self.p
        mu = base.mu_min if self.mu_min is None else self.mu_min
        if p == base.p and mu == base.mu_min:
            return base
        return Material(base.e0, base.nu, p=p, mu_min=mu)


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
    are only ever removed."""
    dens = state.density
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.size != dens.num_elements:
        raise ValueError("expected %d sensitivities, got %d"
                         % (dens.num_elements, alpha.size))
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
    sensitivities, delete along the volume schedule, and patch the affected
    sub-element stiffnesses incrementally.  Stops once the schedule reaches
    v_star and a further iteration changes nothing.

    With out_dir set, writes iter_%04d.vtk density snapshots and an
    incrementally flushed history.csv (iter, compliance, volume_fraction,
    killed_count).  Returns (DensityField, history rows).  A solver failure
    aborts with the state saved to out_dir.
    """
    for _ in range(subdivide):
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
    fac = density_factors(dens.rho, eff)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac,
                           single_precision=cfg.single_precision)
    state = OptState(iteration=0, target_volume=dens.total_volume,
                     density=dens)

    csv = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        points, hexes = vtkio.sample_model(model, 1 << cfg.level)
        csv = open(os.path.join(out_dir, "history.csv"), "w")
        csv.write("iter,compliance,volume_fraction,killed_count\n")

    u0 = None
    history = state.compliance_history
    try:
        while state.iteration < cfg.max_iterations:
            sol = solve_system(op, rtol=cfg.rtol, x0=u0)
            sol.density_version = dens.version
            u0 = sol.u.reshape(-1)

            alpha = sensitivities(sol, asm, dens)
            ahat = filt.apply(alpha) if filt is not None else alpha
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
                    points, hexes, cell_data={"density": dens.rho.reshape(-1)},
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
