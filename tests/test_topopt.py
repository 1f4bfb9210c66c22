import warnings
from dataclasses import replace

import numpy as np
import pytest

from ccsolid.iga import (Assembly, BoundaryConditions, DirichletSpec,
                         LoadSpec, Material, StiffnessOperator,
                         density_factors, element_stiffness_elastic,
                         solve_system)
from ccsolid.spline import build_spline_model, jacobian, regular_box_model
from ccsolid.topopt import (BesoConfig, DensityField, OptState,
                            SensitivityFilter, average_history, beso_iterate,
                            density_adjacency, density_field,
                            filter_sensitivities, optimize, sensitivities,
                            _refine_field)
from meshes import jittered_lattice, lattice, tet_split

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


def _compliance(asm, rho, mat, bcs):
    K = asm.aggregate(density_factors(_Rho(asm.level, rho), mat))
    return solve_system(StiffnessOperator(asm, K, bcs),
                        method="dense").compliance


# ---------------------------------------------------------------------------
# sensitivities


def test_sub_energies_are_elementwise_quadratic_forms():
    model = regular_box_model((2, 1, 1))
    mat = Material(7.0, 0.3)
    asm = Assembly(model, "elasticity", mat, level=1)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(asm.ndof)
    energies = asm.sub_energies(u)
    K = asm.aggregate(np.ones((asm.num_cells, asm.nsub)))
    for c in range(asm.num_cells):
        ue = u[asm.dofmap[c]]
        assert np.isclose(energies[c].sum(), ue @ K[c] @ ue, rtol=1e-10)


def test_sensitivity_matches_finite_differences():
    # 8 density elements on one patch; alpha_i should equal -dC/drho_i
    model = regular_box_model((1, 1, 1))
    mat = Material(1.0, 0.3, p=3.0, mu_min=1e-7)
    bcs = _clamp_and_pull(1.0)
    asm = Assembly(model, "elasticity", mat, level=1)
    rng = np.random.default_rng(11)
    rho = 0.3 + 0.7 * rng.random((1, 8))

    K = asm.aggregate(density_factors(_Rho(1, rho), mat))
    sol = solve_system(StiffnessOperator(asm, K, bcs), method="dense")
    alpha = sensitivities(sol, asm, _Rho(1, rho))
    alpha_pe = sensitivities(sol, asm, _Rho(1, rho),
                             paper_exact_sensitivity=True)

    h = 1e-6
    for i in range(8):
        dp = rho.copy()
        dm = rho.copy()
        dp.flat[i] += h
        dm.flat[i] -= h
        fd = -(_compliance(asm, dp, mat, bcs)
               - _compliance(asm, dm, mat, bcs)) / (2 * h)
        assert abs(alpha[i] - fd) <= 1e-5 * abs(fd)
    # dropping the (1 - mu_min) derivative factor drifts by exactly mu_min
    drift = np.abs(alpha_pe / alpha - 1.0)
    assert np.allclose(drift, mat.mu_min / (1 - mat.mu_min), rtol=1e-6)


def test_sensitivities_reject_stale_solution():
    model = regular_box_model((2, 1, 1))
    mat = Material(1.0, 0.3)
    asm = Assembly(model, "elasticity", mat, level=0)
    dens = density_field(model, 0)
    K = asm.aggregate(density_factors(dens, mat))
    sol = solve_system(StiffnessOperator(asm, K, _clamp_and_pull(2.0)),
                       method="dense")
    sol.density_version = dens.version
    sensitivities(sol, asm, dens)  # fresh: fine
    dens.kill([0])
    with pytest.raises(ValueError, match="stale"):
        sensitivities(sol, asm, dens)
    with pytest.raises(ValueError, match="level"):
        sensitivities(sol, Assembly(model, "elasticity", mat, level=1),
                      density_field(model, 0))


# ---------------------------------------------------------------------------
# density field and adjacency


def test_density_field_bookkeeping():
    model = regular_box_model((2, 1, 1))
    dens = density_field(model, 1, rho_min=1e-3)
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
    adjacency = [np.array([1]), np.array([0, 2]), np.array([1])]
    ahat = filter_sensitivities(np.array([0.0, 1.0, 0.0]), centroids,
                                adjacency)
    # middle radius 2, weights (1, 2, 1); the ends exclude the far element
    # because the support is open (r_ij < r_i)
    assert ahat[1] == 0.5
    assert np.allclose(ahat, [1 / 3.0, 0.5, 1 / 3.0])


def test_filter_support_is_geometric_not_adjacency():
    # elements 1 and 2 are not face-neighbours but fall in each other's radius
    centroids = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    adjacency = [np.array([1, 2]), np.array([0]), np.array([0])]
    alpha = np.array([0.0, 1.0, 4.0])
    ahat = filter_sensitivities(alpha, centroids, adjacency)
    s = np.sqrt(2.0)
    w = np.array([2 - 1, 2.0, 2 - s])  # element 1: self weight r = 2
    assert np.isclose(ahat[1], w @ alpha[[0, 1, 2]] / w.sum())


def test_filter_uniform_fixed_point_and_isolated_element():
    mesh, _ = lattice(2, 2, 2)
    model = build_spline_model(mesh)
    dens = density_field(model, 0)
    filt = SensitivityFilter(dens.centroids, density_adjacency(mesh, 0))
    assert np.allclose(filt.apply(np.full(8, 3.5)), 3.5, atol=1e-14)
    # a single element has no face-neighbours: values pass through
    alone = filter_sensitivities(np.array([2.75]), np.zeros((1, 3)),
                                 [np.array([], dtype=int)])
    assert alone[0] == 2.75


def test_filter_range_and_ranking_invariants():
    mesh, _ = lattice(3, 3, 3)
    model = build_spline_model(mesh)
    dens = density_field(model, 1)
    filt = SensitivityFilter(dens.centroids, density_adjacency(mesh, 1))
    rng = np.random.default_rng(23)
    n = dens.num_elements
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


def test_refine_field_children_inherit_parent_values():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((3, 8))
    fine = _refine_field(vals, 2)
    assert fine.shape == (3, 64)
    for s in range(64):
        i, j, k = s // 16, (s // 4) % 4, s % 4
        parent = (i // 2) * 4 + (j // 2) * 2 + k // 2
        assert np.array_equal(fine[:, s], vals[:, parent])


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
    K0 = [element_stiffness_elastic(v, mat) for v in nets]
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


def test_optimize_level_up_inherits_state():
    mesh, _ = lattice(2, 1, 1)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(2.0)
    cfg = BesoConfig(v_star=0.4, er=0.2, level=1, level_up_at=2, rtol=1e-10)
    levels, fracs = [], []
    dens, history = optimize(
        mesh, cfg, mat, bcs,
        callback=lambda s, sol: (levels.append(s.density.level),
                                 fracs.append(s.density.volume_fraction)))
    assert levels[0] == 0 and levels[1] == 0
    assert dens.level == 1 and 1 in levels
    # refining alone moves no volume: fractions stay on the kill schedule
    # (across the level change the volumes are re-quadratured, hence the
    # loose tolerance)
    for k in range(1, len(fracs)):
        assert fracs[k] <= fracs[k - 1] + 1e-9
    assert dens.volume_fraction <= 0.4 + 1e-9
    assert dens.volume_fraction > 0.4 - dens.volumes.max() / dens.total_volume


def test_optimize_level_up_reaches_level_two():
    # the second level-up refines a sensitivity history that holds 8
    # values per cell; the refined field must keep deleting material
    mesh, _ = lattice(3, 2, 1)
    bcs = _clamp_and_pull(3.0)
    cfg = BesoConfig(v_star=0.6, er=0.05, level=2, level_up_at=3,
                     max_iterations=8)
    levels = []
    with pytest.warns(UserWarning, match="max_iterations"):
        dens, history = optimize(
            mesh, cfg, Material(1.0, 0.3), bcs,
            callback=lambda s, sol: levels.append(s.density.level))
    assert levels == [0, 0, 0, 1, 1, 1, 2, 2]
    assert dens.rho.shape == (mesh.num_cells, 64)
    assert all(row[3] > 0 for row in history[6:])
    # a level change re-quadratures the volumes, hence the tolerance
    fracs = [row[2] for row in history]
    for k in range(1, len(fracs)):
        assert fracs[k] <= fracs[k - 1] + 1e-6


def test_optimize_solver_stack_equivalence(tmp_path):
    # the two-level + float32 stack must reproduce the plain Jacobi kill
    # decisions; jittered geometry keeps the sensitivity ranking well
    # separated from solver noise.  mu_min is raised to keep the voided
    # systems inside float32's workable conditioning range.
    mesh, _ = jittered_lattice(3, 2, 1, seed=7, amp=0.12)
    mat = Material(1.0, 0.3)
    bcs = _clamp_and_pull(3.0)
    a = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-10, mu_min=1e-2)
    b = BesoConfig(v_star=0.6, er=0.1, level=0, rtol=1e-6, mu_min=1e-2,
                   precond="twolevel", single_precision=True)
    da, ha = optimize(mesh, a, mat, bcs, out_dir=str(tmp_path / "a"))
    db, hb = optimize(mesh, b, mat, bcs, out_dir=str(tmp_path / "b"))
    assert np.array_equal(da.rho, db.rho)
    assert len(ha) == len(hb)
    for ra, rb in zip(ha, hb):
        assert ra[3] == rb[3]  # same kill counts, iteration by iteration
        assert abs(ra[1] - rb[1]) <= 1e-4 * abs(ra[1])


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
    with pytest.raises(ValueError, match="level_up_at"):
        BesoConfig(v_star=0.5, level_up_at=0)
    with pytest.raises(ValueError, match="precond"):
        BesoConfig(v_star=0.5, precond="amg")
    base = Material(2.0, 0.25, p=3.0, mu_min=1e-9)
    assert BesoConfig(v_star=0.5).material(base) is base
    eff = BesoConfig(v_star=0.5, p=4.0, mu_min=1e-6).material(base)
    assert eff.p == 4.0 and eff.mu_min == 1e-6 and eff.e0 == 2.0


def test_heat_level2_default_stack_matches_jacobi():
    # the default two-level stack must make the same kill decisions as
    # point Jacobi on a multi-resolution heat design
    mesh, _ = jittered_lattice(2, 2, 1, seed=3, amp=0.1)
    mat = Material(1.0, 0.0)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG,) * 3, (BIG, BIG, 0.45), (0,))],
        heat_source=1.0)
    two = BesoConfig(v_star=0.6, er=0.1, level=2, mu_min=1e-2)
    assert two.precond == "twolevel"
    jac = replace(two, precond="jacobi")
    cg = {}
    da, ha = optimize(mesh, two, mat, bcs, problem="heat",
                      callback=lambda s, sol: cg.setdefault("two", []).append(
                          sol.iterations))
    db, hb = optimize(mesh, jac, mat, bcs, problem="heat",
                      callback=lambda s, sol: cg.setdefault("jac", []).append(
                          sol.iterations))
    assert len(ha) == len(hb) > 3
    assert np.array_equal(da.rho, db.rho)
    for ra, rb in zip(ha, hb):
        assert ra[3] == rb[3]
        assert abs(ra[1] - rb[1]) <= 1e-7 * abs(rb[1])
    assert sum(cg["two"]) < sum(cg["jac"])


def test_twolevel_runs_without_vertex_constraint():
    # the box holds control points (x >= 0.248) but no vertex of the
    # subdivided mesh (x = 0, 0.125, 0.222, 0.5, ...): the Galerkin coarse
    # level needs no fixed coarse dof, so the two-level preconditioner
    # runs at both density levels without a solver downgrade
    mesh, _ = lattice(3, 1, 1)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((0.23, -BIG, -BIG), (0.45, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0))])
    cfg = BesoConfig(v_star=0.8, er=0.05, level=1, level_up_at=2,
                     max_iterations=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dens, history = optimize(mesh, cfg, Material(1.0, 0.3), bcs,
                                 subdivide=1)
    assert not [w for w in caught if "Jacobi" in str(w.message)]
    assert dens.level == 1 and len(history) == 5
    assert all(row[3] > 0 for row in history)
    assert all(np.isfinite(row[1]) for row in history)
