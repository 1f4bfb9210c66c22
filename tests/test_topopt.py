import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ccsolid import iga, topopt
from ccsolid.hexmesh import CORNER_OFFSETS, Incidence
from ccsolid.iga import (Assembly, BoundaryConditions, DirichletSpec,
                         LoadSpec, Material, StiffnessOperator)
from ccsolid.spline import build_spline_model, jacobian, regular_box_model
from ccsolid.subdivision import subdivide
from ccsolid.topopt import (BesoConfig, DensityField, OptState,
                            SensitivityFilter, _parametric_centers,
                            average_history, beso_iterate, density_adjacency,
                            density_factors, optimize, sensitivities)
from meshes import (icosa_split, jittered_lattice, lattice, one_cell_model,
                    tet_split, three_cells_on_one_face,
                    two_cubes_sharing_edge, wheel)
from reference import dense_solve

BIG = 1e9


def _clamp_and_pull(length, pull=(0.0, 0.0, -1.0), depth=0.5):
    """Cantilever conditions: control points within `depth` of the x = 0 end
    fixed, loads on those within `depth` of the far end.  (Control points of
    a subdivision model sit strictly inside the hull, so end boxes need a
    finite depth.)"""
    return BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG, -BIG, -BIG), (depth, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((length - depth, -BIG, -BIG), (BIG, BIG, BIG), pull)])


class _Rho:
    """Duck-typed density carrier for continuous values (finite differences)."""

    version = 0

    def __init__(self, level, rho):
        self.level = level
        self.rho = np.asarray(rho, dtype=float)


def _solid(model, level, rho_min=1e-4):
    """All-solid density field on the model, as optimize builds it."""
    asm = Assembly(model, "heat", None, level=level)
    return DensityField(level=level, rho=np.ones((asm.num_cells, asm.nsub)),
                        volumes=asm.sub_volumes.copy(),
                        centroids=_parametric_centers(model, level),
                        rho_min=rho_min)


def _adjacency(rows, items, n):
    """Hand-made face adjacency: element rows[i] neighbours items[i]."""
    return Incidence(np.array(rows, dtype=np.int64),
                     np.array(items, dtype=np.int64), n)


def _compliance(asm, rho, mat, bcs):
    return dense_solve(StiffnessOperator(asm, density_factors(rho, mat),
                                         bcs)).compliance


# ---------------------------------------------------------------------------
# sensitivities


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_sub_energies_are_elementwise_quadratic_forms(problem):
    # curved cells: J varies per point, so every (cell, sub) checks the
    # gradient step of the energies against that of the Gram kernel
    mesh, _ = jittered_lattice(2, 1, 1, seed=3, amp=0.15)
    asm = Assembly(build_spline_model(mesh), problem, Material(7.0, 0.3),
                   level=2)
    u = np.random.default_rng(5).standard_normal(asm.ndof)
    energies = asm.sub_energies(u)
    subs = np.arange(asm.nsub)
    for c in range(asm.num_cells):
        ue = u[asm.dofmap[c]]
        Ks = asm.sub_stiffness(np.full(asm.nsub, c), subs)
        quad = np.einsum("i,sij,j->s", ue, Ks, ue)
        assert (np.abs(energies[c] - quad) <= 1e-12 * np.abs(quad)).all()


def test_sensitivity_matches_finite_differences():
    # 8 density elements on one patch; alpha_i should equal -dC/drho_i
    model = regular_box_model((1, 1, 1))
    mat = Material(1.0, 0.3, p=3.0, mu_min=1e-7)
    bcs = _clamp_and_pull(1.0)
    asm = Assembly(model, "elasticity", mat, level=1)
    rng = np.random.default_rng(11)
    rho = 0.3 + 0.7 * rng.random((1, 8))

    sol = dense_solve(StiffnessOperator(asm, density_factors(rho, mat), bcs))
    alpha = sensitivities(sol, asm, _Rho(1, rho))

    h = 1e-6
    for i in range(8):
        dp = rho.copy()
        dm = rho.copy()
        dp.flat[i] += h
        dm.flat[i] -= h
        fd = -(_compliance(asm, dp, mat, bcs)
               - _compliance(asm, dm, mat, bcs)) / (2 * h)
        assert abs(alpha[i] - fd) <= 1e-5 * abs(fd)


def test_sensitivities_reject_stale_solution():
    model = regular_box_model((2, 1, 1))
    mat = Material(1.0, 0.3)
    asm = Assembly(model, "elasticity", mat, level=0)
    dens = _solid(model, 0)
    sol = dense_solve(StiffnessOperator(asm, density_factors(dens.rho, mat),
                                        _clamp_and_pull(2.0)))
    sol.density_version = dens.version
    sensitivities(sol, asm, dens)  # fresh: fine
    dens.kill([0])
    with pytest.raises(ValueError, match="stale"):
        sensitivities(sol, asm, dens)
    with pytest.raises(ValueError, match="level"):
        sensitivities(sol, Assembly(model, "elasticity", mat, level=1),
                      _solid(model, 0))


# ---------------------------------------------------------------------------
# density field and adjacency


def test_density_field_bookkeeping():
    model = regular_box_model((2, 1, 1))
    dens = _solid(model, 1, rho_min=1e-3)
    assert dens.rho.shape == (2, 8)
    assert np.allclose(dens.volumes, 0.125)
    assert np.isclose(dens.total_volume, 2.0)
    # parametric centres of the identity boxes
    assert np.allclose(dens.centroids[0, 0], (0.25, 0.25, 0.25))
    assert np.allclose(dens.centroids[1, 7], (1.75, 0.75, 0.75))
    v0 = dens.version
    dens.kill([3, 9])
    assert dens.version == v0 + 1
    assert dens.alive.sum() == 14
    assert np.isclose(dens.retained_volume, 14 * 0.125)
    assert np.isclose(dens.volume_fraction, 14 / 16)
    assert np.isclose(dens.total_volume, 2.0)  # volumes never change


def test_density_field_kills_through_noncontiguous_rho():
    # kill() writes through a flat view of rho; a Fortran-ordered or
    # strided input must not turn that into a write to a discarded copy
    ones = np.ones((3, 8))
    cen = np.zeros((3, 8, 3))
    for rho in (np.asfortranarray(ones), np.ones((3, 16))[:, ::2]):
        dens = DensityField(1, rho, ones, cen)
        dens.kill([10])
        assert dens.rho[1, 2] == dens.rho_min
        assert dens.alive.sum() == 23


def test_density_field_validation():
    ones = np.ones((1, 8))
    cen = np.zeros((1, 8, 3))
    with pytest.raises(ValueError, match="shapes"):
        DensityField(1, np.ones((1, 4)), ones, cen)
    with pytest.raises(ValueError, match="rho_min or 1"):
        DensityField(1, 0.5 * ones, ones, cen)
    with pytest.raises(ValueError, match="rho_min"):
        DensityField(1, ones, ones, cen, rho_min=2.0)


def test_density_adjacency_matches_integer_grid():
    mesh, _ = lattice(2, 1, 1)
    adj = density_adjacency(mesh, 1)
    assert len(adj) == 16

    def coords(e):
        c, s = divmod(e, 8)
        i, j, k = s // 4, (s // 2) % 2, s % 2
        return np.array([2 * c + i, j, k])

    for e in range(16):
        expect = sorted(f for f in range(16)
                        if np.abs(coords(e) - coords(f)).sum() == 1)
        assert list(adj[e]) == expect


def _subdivided_adjacency(mesh, level):
    """Reference face adjacency of the density elements, read off the mesh
    itself subdivided `level` times.

    Subdividing a cell `level` times numbers its children in base 8 by
    octant corner, so each fine cell is renumbered to the row-major (i, j,
    k) sub id of the DensityField order.
    """
    fine = mesh
    for _ in range(level):
        fine, _ = subdivide(fine)
    m, nsub = 1 << level, 8 ** level
    corner = {tuple(off): idx for idx, off in enumerate(CORNER_OFFSETS)}
    perm = np.empty(nsub, dtype=np.int64)
    for s in range(nsub):
        i, j, k = s // (m * m), (s // m) % m, s % m
        off = 0
        for t in range(level - 1, -1, -1):
            off = off * 8 + corner[(i >> t) & 1, (j >> t) & 1, (k >> t) & 1]
        perm[s] = off
    inv = np.empty_like(perm)
    inv[perm] = np.arange(nsub)
    fc = fine.face_cells
    pairs = fc.items[(fc.counts == 2)[fc.rows]].reshape(-1, 2)
    pairs = (pairs // nsub) * nsub + inv[pairs % nsub]
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.argsort(dst, kind="stable")
    return Incidence(src[order], dst[order], fine.num_cells)


# name: (mesh builder, density levels)
_ADJACENCY_MESHES = {
    "lattice": (lambda: lattice(3, 2, 2)[0], range(4)),
    "jittered_lattice": (lambda: jittered_lattice(2, 2, 1, seed=3)[0],
                         range(4)),
    "wheel": (lambda: wheel(5, 3)[0], range(4)),
    "tet_split": (lambda: tet_split()[0], range(4)),
    "icosa_split": (lambda: icosa_split()[0], range(4)),
    "two_cubes_sharing_edge": (two_cubes_sharing_edge, range(4)),
    "three_cells_on_one_face": (three_cells_on_one_face, range(3)),
    # the cell tables of the benchmark's cantilever and heat meshes
    "cantilever": (lambda: subdivide(subdivide(lattice(4, 2, 2)[0])[0])[0],
                   (1, 2)),
    "heat": (lambda: subdivide(wheel(5, 3)[0])[0], (1, 2)),
}


@pytest.mark.parametrize("name", sorted(_ADJACENCY_MESHES))
def test_density_adjacency_matches_subdivided_mesh(name):
    build, levels = _ADJACENCY_MESHES[name]
    mesh = build()
    for level in levels:
        got = density_adjacency(mesh, level)
        ref = _subdivided_adjacency(mesh, level)
        for attr in ("rows", "items", "counts"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr)), \
                (level, attr)


def test_density_adjacency_level0_and_symmetry():
    mesh, _ = lattice(3, 1, 1)
    adj = density_adjacency(mesh, 0)
    assert [list(a) for a in adj] == [[1], [0, 2], [1]]
    mesh, _ = tet_split()
    adj = density_adjacency(mesh, 1)
    for i, nbrs in enumerate(adj):
        assert len(nbrs) >= 3
        for j in nbrs:
            assert i in adj[j]


# ---------------------------------------------------------------------------
# filtering


def test_filter_three_collinear_elements():
    centroids = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [2.5, 0.5, 0.5]])
    adjacency = _adjacency([0, 1, 1, 2], [1, 0, 2, 1], 3)
    ahat = SensitivityFilter(centroids, adjacency).apply([0.0, 1.0, 0.0])
    # middle radius 2, weights (1, 2, 1); the ends exclude the far element
    # because the support is open (r_ij < r_i)
    assert ahat[1] == 0.5
    assert np.allclose(ahat, [1 / 3.0, 0.5, 1 / 3.0])


def test_filter_support_is_geometric_not_adjacency():
    # elements 1 and 2 are not face-neighbours but fall in each other's radius
    centroids = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    adjacency = _adjacency([0, 0, 1, 2], [1, 2, 0, 0], 3)
    alpha = np.array([0.0, 1.0, 4.0])
    ahat = SensitivityFilter(centroids, adjacency).apply(alpha)
    s = np.sqrt(2.0)
    w = np.array([2 - 1, 2.0, 2 - s])  # element 1: self weight r = 2
    assert np.isclose(ahat[1], w @ alpha[[0, 1, 2]] / w.sum())


def test_filter_uniform_fixed_point_and_isolated_element():
    mesh, _ = lattice(2, 2, 2)
    model = build_spline_model(mesh)
    filt = SensitivityFilter(_parametric_centers(model, 0),
                             density_adjacency(mesh, 0))
    assert np.allclose(filt.apply(np.full(8, 3.5)), 3.5, atol=1e-14)
    # a single element has no face-neighbours: values pass through
    alone = SensitivityFilter(np.zeros((1, 3)),
                              _adjacency([], [], 1)).apply([2.75])
    assert alone[0] == 2.75


def test_filter_range_and_ranking_invariants():
    mesh, _ = lattice(3, 3, 3)
    model = build_spline_model(mesh)
    centroids = _parametric_centers(model, 1)
    filt = SensitivityFilter(centroids, density_adjacency(mesh, 1))
    rng = np.random.default_rng(23)
    n = centroids.size // 3
    for _ in range(1000):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        ah = filt.apply(a)
        assert ah.min() >= a.min() - 1e-12 * max(1, abs(a.min()))
        assert ah.max() <= a.max() + 1e-12 * max(1, abs(a.max()))
        c = float(10 ** rng.uniform(-3, 3))
        assert np.argmin(filt.apply(c * a)) == np.argmin(ah)


def test_average_history():
    a = np.array([1.0, 2.0])
    first = average_history(None, a)
    assert np.array_equal(first, a) and first is not a
    assert np.allclose(average_history(np.array([3.0, 0.0]), a), [2.0, 1.0])
    with pytest.raises(ValueError, match="history"):
        average_history(np.ones(3), a)


# ---------------------------------------------------------------------------
# the hard-kill update


def _hand_state(volumes, rho_min=1e-4):
    volumes = np.asarray(volumes, dtype=float).reshape(-1, 1)
    n = len(volumes)
    dens = DensityField(level=0, rho=np.ones((n, 1)), volumes=volumes,
                        centroids=np.zeros((n, 1, 3)), rho_min=rho_min)
    return OptState(iteration=0, target_volume=dens.total_volume,
                    density=dens)


def test_beso_kills_lowest_sensitivity_first():
    state = _hand_state([1.0, 1.0, 1.0, 1.0])
    cfg = BesoConfig(v_star=0.75, er=0.02)
    state = beso_iterate(state, np.array([5.0, 1.0, 3.0, 2.0]), cfg)
    assert state.iteration == 1
    assert np.isclose(state.target_volume, 3.92)
    assert list(state.density.alive.reshape(-1)) == [True, False, True, True]


def test_beso_schedule_clamps_at_v_star():
    state = _hand_state(np.full(4, 0.25))
    cfg = BesoConfig(v_star=0.96, er=0.02)
    targets = []
    for _ in range(3):
        state = beso_iterate(state, np.arange(4, dtype=float), cfg)
        targets.append(state.target_volume)
    assert np.allclose(targets, [0.98, 0.9604, 0.96])


def test_beso_ties_break_by_element_index():
    state = _hand_state(np.full(4, 0.25))
    cfg = BesoConfig(v_star=0.5, er=0.6)
    state = beso_iterate(state, np.ones(4), cfg)
    assert list(np.flatnonzero(~state.density.alive.reshape(-1))) == [0, 1]


def test_beso_stops_at_first_feasible_volume():
    # killing elements 0 then 1 reaches the target; 2 must survive
    state = _hand_state([0.1, 0.5, 0.2, 0.2])
    cfg = BesoConfig(v_star=0.55, er=0.45)
    state = beso_iterate(state, np.array([1.0, 2.0, 3.0, 4.0]), cfg)
    alive = state.density.alive.reshape(-1)
    assert list(np.flatnonzero(~alive)) == [0, 1]
    assert np.isclose(state.density.retained_volume, 0.4)


def test_beso_infeasible_target_warns_and_noop():
    state = _hand_state(np.full(4, 0.25))
    state.density.kill([0, 1, 2])
    cfg = BesoConfig(v_star=0.9, er=0.02)
    with pytest.warns(UserWarning, match="v_star"):
        state = beso_iterate(state, np.ones(4), cfg)
    assert state.density.alive.sum() == 1
    # a normal overshoot within one element volume stays silent
    state2 = _hand_state(np.full(4, 0.25))
    state2.density.kill([0])
    state2 = OptState(0, 0.75, state2.density)
    cfg2 = BesoConfig(v_star=0.74, er=0.02)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        beso_iterate(state2, np.ones(4), cfg2)
    assert not record


def test_beso_rejects_non_finite_sensitivity():
    # argsort ranks NaN last, so a NaN element once survived while the
    # next-lowest ones were killed
    cfg = BesoConfig(v_star=0.5, er=0.2)
    for i, bad in ((0, np.nan), (7, np.inf), (3, -np.inf)):
        state = _hand_state(np.full(10, 0.1))
        alpha = np.arange(10.0)
        alpha[i] = bad
        with pytest.raises(ValueError,
                           match=r"^sensitivity of element %d is not finite"
                           % i):
            beso_iterate(state, alpha, cfg)
        assert state.density.alive.all()


def test_beso_kill_set_is_monotone():
    rng = np.random.default_rng(3)
    state = _hand_state(np.full(10, 0.1))
    cfg = BesoConfig(v_star=0.3, er=0.15)
    dead = set()
    for _ in range(12):
        state = beso_iterate(state, rng.standard_normal(10), cfg)
        now = set(np.flatnonzero(~state.density.alive.reshape(-1)))
        assert dead <= now
        dead = now
    assert np.isclose(state.density.retained_volume, 0.3)


# ---------------------------------------------------------------------------
# the driver


def test_optimize_cantilever_invariants(tmp_path):
    mesh, _ = lattice(2, 2, 2)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(2.0)
    cfg = BesoConfig(v_star=0.5, er=0.25, level=0, rtol=1e-10)
    seen = []
    out = tmp_path / "run"
    dens, history = optimize(mesh, cfg, mat, bcs, out_dir=str(out),
                             callback=lambda s, sol: seen.append(
                                 (s.density.alive.reshape(-1).copy(),
                                  sol.compliance)))
    total = dens.total_volume
    dead = np.zeros(dens.num_elements, dtype=bool)
    for k, (it, compliance, vf, killed) in enumerate(history, start=1):
        assert it == k
        assert np.isfinite(compliance) and compliance > 0
        sched = max(cfg.v_star, (1 - cfg.er) ** k)
        assert vf <= sched + 1e-12
        assert vf > sched - dens.volumes.max() / total - 1e-12
        alive = seen[k - 1][0]
        assert not (dead & alive).any()  # nothing comes back
        dead = ~alive
    assert np.isclose(dens.volume_fraction, history[-1][2])
    assert history[-1][3] == 0  # settled: last iteration removed nothing

    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,compliance,volume_fraction,killed_count"
    assert len(lines) == len(history) + 1
    first = (out / "iter_0001.vtk").read_text().splitlines()
    assert first[0] == "# vtk DataFile Version 3.0"
    assert "CELL_DATA 8" in first


def test_optimize_matches_reference_single_resolution_loop():
    # jittered geometry so sensitivity gaps dwarf solver noise
    mesh, _ = jittered_lattice(3, 2, 1, seed=7, amp=0.12)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(3.0)
    cfg = BesoConfig(v_star=0.5, er=0.25, level=0, filter=False, rtol=1e-12)

    kills = []
    prev = [np.ones(6, dtype=bool)]

    def record(state, sol):
        alive = state.density.alive.reshape(-1)
        kills.append(tuple(np.flatnonzero(prev[0] & ~alive)))
        prev[0] = alive.copy()

    dens, history = optimize(mesh, cfg, mat, bcs, callback=record)

    # independent reference: per-cell element matrices, dense solves
    model = build_spline_model(mesh)
    nets = [model.bezier_volume(c) for c in range(model.num_cells)]
    K0 = [Assembly(one_cell_model(v.points), "elasticity",
                   mat).sub_stiffness([0], [0])[0] for v in nets]
    gx, gw = np.polynomial.legendre.leggauss(4)
    gx, gw = (gx + 1) / 2, gw / 2
    pts3 = np.array([(a, b, c) for a in gx for b in gx for c in gx])
    w3 = np.array([wa * wb * wc for wa in gw for wb in gw for wc in gw])
    vols = np.array([sum(w * np.linalg.det(jacobian(v, *p))
                         for w, p in zip(w3, pts3)) for v in nets])
    dof = 3 * model.cell_nodes[:, :, None] + np.arange(3)
    dof = dof.reshape(model.num_cells, -1)
    ndof = 3 * model.num_control_points
    pts = model.points
    fixed = np.zeros(ndof, dtype=bool)
    fixed[3 * np.flatnonzero(pts[:, 0] <= 0.5)[:, None] + np.arange(3)] = True
    F = np.zeros(ndof)
    F[3 * np.flatnonzero(pts[:, 0] >= 2.5) + 2] = -1.0
    free = ~fixed

    rho = np.ones(6)
    target, hist_a = vols.sum(), None
    ref_kills = []
    for _ in range(len(history)):
        K = np.zeros((ndof, ndof))
        fac = mat.mu_min + (1 - mat.mu_min) * rho ** mat.p
        for c in range(6):
            K[np.ix_(dof[c], dof[c])] += fac[c] * K0[c]
        u = np.zeros(ndof)
        u[free] = np.linalg.solve(K[np.ix_(free, free)], F[free])
        alpha = np.array([0.5 * mat.p * (1 - mat.mu_min) * rho[c] ** (mat.p - 1)
                          * u[dof[c]] @ K0[c] @ u[dof[c]] for c in range(6)])
        hist_a = alpha if hist_a is None else 0.5 * (hist_a + alpha)
        target = max(cfg.v_star * vols.sum(), target * (1 - cfg.er))
        alive = rho == 1.0
        order = np.argsort(hist_a, kind="stable")
        order = order[alive[order]]
        need = vols[alive].sum() - target
        t = 0
        if need > 0:
            csum = np.cumsum(vols[order])
            t = min(int(np.searchsorted(csum, need, side="left")) + 1,
                    len(order))
            rho[order[:t]] = cfg.rho_min
        ref_kills.append(tuple(sorted(order[:t])))

    assert kills == ref_kills
    assert np.array_equal(dens.rho.reshape(-1) == 1.0, rho == 1.0)


def test_optimize_heat_smoke():
    mesh, _ = lattice(2, 1, 1)
    mat = Material(1.0, 0.0)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG,) * 3, (0.5, BIG, BIG), (0,))],
        loads=[LoadSpec((1.5, -BIG, -BIG), (BIG,) * 3, (1.0,))])
    cfg = BesoConfig(v_star=0.5, er=0.5, level=0, rtol=1e-10)
    dens, history = optimize(mesh, cfg, mat, bcs, problem="heat")
    assert dens.alive.sum() == 1
    assert all(np.isfinite(row[1]) for row in history)


def test_optimize_solver_stack_equivalence(tmp_path):
    # float32 sweeps at rtol 1e-6 must reproduce the kill decisions of
    # float64 sweeps at rtol 1e-10; jittered geometry keeps the sensitivity
    # ranking well separated from solver noise.  mu_min is raised to keep
    # the voided systems inside float32's workable conditioning range.
    mesh, _ = jittered_lattice(3, 2, 1, seed=7, amp=0.12)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(3.0)
    a = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-10, mu_min=1e-2)
    b = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-6, mu_min=1e-2,
                   single_precision=True)
    da, ha = optimize(mesh, a, mat, bcs, out_dir=str(tmp_path / "a"))
    db, hb = optimize(mesh, b, mat, bcs, out_dir=str(tmp_path / "b"))
    assert np.array_equal(da.rho, db.rho)
    assert len(ha) == len(hb)
    for ra, rb in zip(ha, hb):
        assert ra[3] == rb[3]  # same kill counts, iteration by iteration
        assert abs(ra[1] - rb[1]) <= 1e-4 * abs(ra[1])


def test_optimize_solves_warm_from_the_operators_state(monkeypatch):
    # every solve after the first starts from the operator's last solution
    # and its carried residual.  After a kill a float32 sweep comes first,
    # and each of the solve's float64 passes is one of its restarts, made
    # after a sweep.  After an iteration that killed nothing the carried
    # residual already meets rtol: one float64 pass confirms it.
    mesh, _ = jittered_lattice(3, 2, 1, seed=7, amp=0.12)
    cfg = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-6, mu_min=1e-2,
                     single_precision=True)
    ops, calls, solves = [], [], []

    class Recorded(StiffnessOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ops.append(self)

    free_matvec = Assembly.free_matvec

    def counted(asm, K_cells, free, uf):
        calls.append(K_cells)
        return free_matvec(asm, K_cells, free, uf)

    def record(state, sol):
        """'E' per float64 pass and 'S' per float32 sweep pass, in order."""
        op, = ops
        solves.append(("".join("E" if K is op.K else "S" for K in calls
                               if K is op.K or K is op.K32), sol.restarts))
        calls.clear()

    monkeypatch.setattr(topopt, "StiffnessOperator", Recorded)
    monkeypatch.setattr(Assembly, "free_matvec", counted)
    _, history = optimize(mesh, cfg, Material(1.0, 0.3),
                          _clamp_and_pull(3.0), callback=record)
    killed = [row[3] for row in history]
    assert sum(map(bool, killed[:-1])) >= 3 and not all(killed[:-1])
    for (kinds, restarts), before in zip(solves[1:], killed):
        assert kinds.count("E") == restarts
        if before:
            assert kinds[0] == "S" and restarts == len(re.findall("S+", kinds))
        else:
            assert kinds == "E"


def test_single_precision_rejects_extreme_contrast(tmp_path):
    # with the default mu_min = 1e-9 a voided system is beyond float32:
    # the solver must fail fast with a diagnosis, not burn the budget
    mesh, _ = jittered_lattice(3, 2, 1, seed=7, amp=0.12)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(3.0)
    cfg = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-6,
                     single_precision=True)
    with pytest.raises(RuntimeError, match="float32|full precision"):
        optimize(mesh, cfg, mat, bcs, out_dir=str(tmp_path / "x"))


def test_beso_config_validation():
    with pytest.raises(ValueError, match="v_star"):
        BesoConfig(v_star=1.5)
    with pytest.raises(ValueError, match="er"):
        BesoConfig(v_star=0.5, er=0.0)
    # precond accepts its one value only
    assert BesoConfig(v_star=0.5, precond="twolevel").precond == "twolevel"
    for other in ("amg", "jacobi"):
        with pytest.raises(ValueError, match="precond must be 'twolevel'"):
            BesoConfig(v_star=0.5, precond=other)
    base = Material(2.0, 0.25, p=3.0, mu_min=1e-9)
    assert BesoConfig(v_star=0.5).material(base) is base
    eff = BesoConfig(v_star=0.5, mu_min=1e-6).material(base)
    assert eff.p == 3.0 and eff.mu_min == 1e-6 and eff.e0 == 2.0
    with pytest.raises(TypeError):
        BesoConfig(v_star=0.5, p=4.0)


@pytest.mark.parametrize("name, value", [
    ("mu_min", float("nan")), ("mu_min", 2.0), ("mu_min", 0.0),
    ("level", 1.5), ("level", -1), ("max_iterations", 2.5),
    ("max_iterations", 0)])
def test_beso_config_rejects_bad_fields_at_entry(name, value):
    with pytest.raises(ValueError, match="^%s must" % name):
        BesoConfig(v_star=0.5, **{name: value})


def test_beso_config_takes_whole_numbers_as_ints():
    cfg = BesoConfig(v_star=0.5, level=2.0, max_iterations=np.int64(7))
    assert (cfg.level, cfg.max_iterations) == (2, 7)
    assert type(cfg.level) is int and type(cfg.max_iterations) is int
    assert BesoConfig(v_star=0.5, mu_min=None).mu_min is None


def test_heat_level2_design_is_stable_under_a_tighter_solve():
    # on a multi-resolution heat design, the default solve must make the
    # kill decisions a solve four orders of magnitude tighter makes, and
    # its final compliance must match a direct solve of the final design
    mesh, _ = jittered_lattice(2, 2, 1, seed=3, amp=0.1)
    mat = Material(1.0, 0.0)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG,) * 3, (BIG, BIG, 0.45), (0,))],
        heat_source=1.0)
    cfg = BesoConfig(v_star=0.6, er=0.1, level=2, mu_min=1e-2)
    tight = replace(cfg, rtol=1e-12)
    da, ha = optimize(mesh, cfg, mat, bcs, problem="heat")
    db, hb = optimize(mesh, tight, mat, bcs, problem="heat")
    assert len(ha) == len(hb) > 3
    assert np.array_equal(da.rho, db.rho)
    for ra, rb in zip(ha, hb):
        assert ra[3] == rb[3]
        assert abs(ra[1] - rb[1]) <= 1e-7 * abs(rb[1])
    # the run stops on an iteration that kills nothing, so its last
    # history row is the compliance of the final design
    assert ha[-1][3] == 0
    model = build_spline_model(mesh)
    eff = cfg.material(mat)
    asm = Assembly(model, "heat", eff, level=da.level)
    ref = dense_solve(StiffnessOperator(asm, density_factors(da.rho, eff),
                                        bcs))
    assert abs(ha[-1][1] - ref.compliance) <= 1e-7 * ref.compliance


def test_level3_heat_design_runs_end_to_end(monkeypatch):
    # 16 analysis cells of 512 sub-cubes each: 8 192 design elements,
    # three iterations of the volume schedule
    mesh, _ = lattice(2, 1, 1)
    mat = Material(1.0, 0.0)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG,) * 3, (0.3, BIG, BIG), (0,))],
        heat_source=1.0)
    cfg = BesoConfig(v_star=0.5, er=0.05, level=3, mu_min=1e-2,
                     max_iterations=3)
    with pytest.warns(UserWarning, match="max_iterations"):
        dens, history = optimize(mesh, cfg, mat, bcs, problem="heat",
                                 subdivide=1)
    assert dens.rho.shape == (16, 512) and len(history) == 3
    for k, (it, comp, frac, killed) in enumerate(history, 1):
        assert it == k and killed > 0 and np.isfinite(comp)
        assert 0.95 ** k - dens.volumes.max() / dens.total_volume \
            <= frac <= 0.95 ** k + 1e-12
    # removing material can only raise the thermal compliance
    assert history[0][1] < history[1][1] < history[2][1]

    # the transients of the level-3 geometry and energies stay within the
    # batch budget beside their outputs, and those of the design grid's
    # adjacency within a fixed multiple of it (4.9x measured; building the
    # subdivided mesh instead took 31x)
    fine = subdivide(mesh)[0]
    model = build_spline_model(fine)
    budget = 4 << 20
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adj = density_adjacency(fine, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= 6 * (adj.rows.nbytes + adj.items.nbytes
                            + adj.counts.nbytes)
        del adj
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        asm = Assembly(model, "heat", mat, level=3)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= asm.S.nbytes + asm.sub_volumes.nbytes + 2 * budget
        u = np.random.default_rng(13).standard_normal(asm.ndof)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        E = asm.sub_energies(u)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= E.nbytes + 2 * budget
    finally:
        tracemalloc.stop()
    assert np.array_equal(dens.volumes, asm.sub_volumes)
    # a cell's energies add up to its whole stiffness' quadratic form
    K = asm.aggregate(np.ones((asm.num_cells, asm.nsub)))
    ue = u[asm.dofmap]
    whole = np.einsum("ci,cij,cj->c", ue, K, ue)
    assert np.abs(E.sum(axis=1) - whole).max() <= 1e-12 * np.abs(whole).max()


def test_optimize_rejects_negative_subdivide():
    mesh, _ = lattice(2, 1, 1)
    with pytest.raises(ValueError, match="subdivide must be >= 0, got -1"):
        optimize(mesh, BesoConfig(v_star=0.5), Material(1.0, 0.0),
                 BoundaryConditions(heat_source=1.0), problem="heat",
                 subdivide=-1)


def test_twolevel_runs_without_vertex_constraint():
    # the box holds control points (x >= 0.248) but no vertex of the
    # subdivided mesh (x = 0, 0.125, 0.222, 0.5, ...): the Galerkin coarse
    # level needs no fixed coarse dof, so the two-level preconditioner
    # runs at either density level and the run settles without a warning
    mesh, _ = lattice(3, 1, 1)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((0.23, -BIG, -BIG), (0.45, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0))])
    for level in (0, 1):
        cfg = BesoConfig(v_star=0.8, er=0.05, level=level)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens, history = optimize(mesh, cfg, Material(1.0, 0.3), bcs,
                                     subdivide=1)
        assert dens.level == level and len(history) > 3
        assert history[0][3] > 0 and history[-1][3] == 0
        assert all(np.isfinite(row[1]) for row in history)
        assert abs(dens.volume_fraction - 0.8) \
            <= dens.volumes.max() / dens.total_volume
