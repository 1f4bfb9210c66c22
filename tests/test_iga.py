import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from ccsolid import iga
from ccsolid.hexmesh import CORNER_OFFSETS, HexMesh
from ccsolid.iga import (Assembly, BoundaryConditions, DirichletSpec,
                         LoadSpec, Material, Solution, StiffnessOperator,
                         TwoLevelPreconditioner, assemble_and_solve,
                         density_factors, element_stiffness_elastic,
                         element_stiffness_heat, solve_system,
                         subelement_stiffness, subelement_stiffness_heat)
from ccsolid.spline import BezierVolume, build_spline_model, regular_box_model
from ccsolid.subdivision import subdivide
from meshes import lattice

EVERYWHERE = dict(lo=(-1e9, -1e9, -1e9), hi=(1e9, 1e9, 1e9))
BIG = 1e9


def _greville_net(scale=1.0):
    g = np.arange(4) / 3.0
    return scale * np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)


# ---------------------------------------------------------------- oracles

def _bern_1d(t):
    return np.array([(1 - t) ** 3, 3 * t * (1 - t) ** 2,
                     3 * t ** 2 * (1 - t), t ** 3])


def _dbern_1d(t):
    return np.array([-3 * (1 - t) ** 2, 3 * (1 - t) ** 2 - 6 * t * (1 - t),
                     6 * t * (1 - t) - 3 * t ** 2, 3 * t ** 2])


def _sympy_1d_matrices():
    import sympy as sp
    t = sp.symbols("t")
    B = [(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t ** 2 * (1 - t), t ** 3]
    S = np.array([[float(sp.integrate(sp.diff(B[i], t) * sp.diff(B[j], t),
                                      (t, 0, 1))) for j in range(4)]
                  for i in range(4)])
    M = np.array([[float(sp.integrate(B[i] * B[j], (t, 0, 1)))
                   for j in range(4)] for i in range(4)])
    return S, M


def _brute_elastic(net, lam, mu, order, lo=(0, 0, 0), hi=(1, 1, 1)):
    """Dense B^T D B quadrature with explicit Voigt matrices."""
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] = lam + 2 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    x, w = np.polynomial.legendre.leggauss(order)
    K = np.zeros((192, 192))
    pts = [(l + (h - l) * (xi + 1) / 2, wi * (h - l) / 2)
           for l, h in zip(lo, hi) for xi, wi in zip(x, w)]
    P = net.reshape(64, 3)
    for iu in range(order):
        for iv in range(order):
            for iw in range(order):
                (u, wu), (v, wv), (t, wt) = (pts[iu], pts[order + iv],
                                             pts[2 * order + iw])
                Bu, Bv, Bw = _bern_1d(u), _bern_1d(v), _bern_1d(t)
                dBu, dBv, dBw = _dbern_1d(u), _dbern_1d(v), _dbern_1d(t)
                Ghat = np.stack([
                    np.einsum("a,b,c->abc", dBu, Bv, Bw).reshape(64),
                    np.einsum("a,b,c->abc", Bu, dBv, Bw).reshape(64),
                    np.einsum("a,b,c->abc", Bu, Bv, dBw).reshape(64)], axis=1)
                J = P.T @ Ghat
                G = Ghat @ np.linalg.inv(J)
                B = np.zeros((6, 192))
                for n in range(64):
                    gx, gy, gz = G[n]
                    B[0, 3 * n] = gx
                    B[1, 3 * n + 1] = gy
                    B[2, 3 * n + 2] = gz
                    B[3, 3 * n] = gy
                    B[3, 3 * n + 1] = gx
                    B[4, 3 * n + 1] = gz
                    B[4, 3 * n + 2] = gy
                    B[5, 3 * n] = gz
                    B[5, 3 * n + 2] = gx
                K += wu * wv * wt * np.linalg.det(J) * (B.T @ D @ B)
    return K


def _brute_heat_trace(net, order, lo, hi):
    x, w = np.polynomial.legendre.leggauss(order)
    P = net.reshape(64, 3)
    total = 0.0
    for iu in range(order):
        for iv in range(order):
            for iw in range(order):
                u = lo[0] + (hi[0] - lo[0]) * (x[iu] + 1) / 2
                v = lo[1] + (hi[1] - lo[1]) * (x[iv] + 1) / 2
                t = lo[2] + (hi[2] - lo[2]) * (x[iw] + 1) / 2
                wt = (w[iu] * w[iv] * w[iw]
                      * np.prod([(h - l) / 2 for l, h in zip(lo, hi)]))
                Ghat = np.stack([
                    np.einsum("a,b,c->abc", _dbern_1d(u), _bern_1d(v),
                              _bern_1d(t)).reshape(64),
                    np.einsum("a,b,c->abc", _bern_1d(u), _dbern_1d(v),
                              _bern_1d(t)).reshape(64),
                    np.einsum("a,b,c->abc", _bern_1d(u), _bern_1d(v),
                              _dbern_1d(t)).reshape(64)], axis=1)
                J = P.T @ Ghat
                G = Ghat @ np.linalg.inv(J)
                total += wt * np.linalg.det(J) * (G ** 2).sum()
    return total


# --------------------------------------------------------------- material

def test_material_lame_constants():
    mat = Material(e0=1.0, nu=0.3)
    assert abs(mat.lam - 15.0 / 26.0) <= 1e-15
    assert abs(mat.mu - 5.0 / 13.0) <= 1e-15


def test_material_validation():
    with pytest.raises(ValueError):
        Material(e0=0.0, nu=0.3)
    with pytest.raises(ValueError):
        Material(e0=1.0, nu=0.5)
    with pytest.raises(ValueError):
        Material(e0=1.0, nu=0.3, p=0.5)
    with pytest.raises(ValueError):
        Material(e0=1.0, nu=0.3, mu_min=0.0)


# ----------------------------------------------------------- element heat

def test_heat_identity_cube_tensor_structure():
    S, M = _sympy_1d_matrices()
    assert abs(S[0, 0] - 9.0 / 5.0) <= 1e-13
    assert abs(M[0, 0] - 1.0 / 7.0) <= 1e-13
    expect = (np.kron(np.kron(S, M), M) + np.kron(np.kron(M, S), M)
              + np.kron(np.kron(M, M), S))
    K = element_stiffness_heat(BezierVolume(_greville_net()))
    assert np.abs(K - expect).max() <= 1e-13


def test_heat_row_sums_zero():
    rng = np.random.default_rng(8)
    net = _greville_net() + 0.03 * rng.normal(size=(4, 4, 4, 3))
    K = element_stiffness_heat(BezierVolume(net))
    assert np.abs(K.sum(axis=1)).max() <= 1e-12


def test_heat_scaling():
    rng = np.random.default_rng(12)
    net = _greville_net() + 0.02 * rng.normal(size=(4, 4, 4, 3))
    K1 = element_stiffness_heat(BezierVolume(net))
    K2 = element_stiffness_heat(BezierVolume(2.0 * net))
    assert np.abs(K2 - 2.0 * K1).max() <= 1e-12 * np.abs(K1).max()


# -------------------------------------------------------- element elastic

def test_elastic_matches_brute_force_identity():
    # polynomial integrand: raising the order must change nothing
    mat = Material(e0=1.0, nu=0.3)
    net = _greville_net()
    K = element_stiffness_elastic(BezierVolume(net), mat)
    brute = _brute_elastic(net, mat.lam, mat.mu, order=6)
    assert np.abs(K - brute).max() <= 1e-12 * np.abs(brute).max()


def test_elastic_matches_brute_force_curved():
    # same quadrature order on both sides isolates the matrix algebra
    mat = Material(e0=1.0, nu=0.3)
    rng = np.random.default_rng(23)
    net = _greville_net() + 0.03 * rng.normal(size=(4, 4, 4, 3))
    K = element_stiffness_elastic(BezierVolume(net), mat)
    brute = _brute_elastic(net, mat.lam, mat.mu, order=4)
    assert np.abs(K - brute).max() <= 1e-12 * np.abs(brute).max()


def test_elastic_symmetry_and_rigid_modes():
    mat = Material(e0=2.0, nu=0.25)
    rng = np.random.default_rng(31)
    for net in (_greville_net(),
                _greville_net() + 0.04 * rng.normal(size=(4, 4, 4, 3))):
        K = element_stiffness_elastic(BezierVolume(net), mat)
        norm = np.abs(K).max()
        assert np.abs(K - K.T).max() <= 1e-12 * norm
        ev = np.linalg.eigvalsh(K)
        assert (np.abs(ev) <= 1e-9 * norm).sum() == 6
        assert ev[6] > 1e-9 * norm


@pytest.mark.parametrize("name", ["e0", "nu", "p", "mu_min"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_material_rejects_non_finite(name, value):
    # E0 = nan once passed `e0 <= 0` and solved until the CG budget ran out
    with pytest.raises(ValueError, match="%s must be finite" % name):
        replace(Material(e0=1.0, nu=0.3), **{name: value})


def test_assembly_rejects_nan_jacobian():
    mesh, _ = lattice(3, 1, 1)
    model = build_spline_model(mesh)
    model.points[40, 2] = np.nan
    with pytest.raises(ValueError, match="Jacobian"):
        Assembly(model, "heat", Material(e0=1.0, nu=0.3), level=0)


def test_assembly_names_non_finite_control_point():
    # rejected before the Jacobian determinants, which would warn on NaN
    mesh, _ = lattice(3, 1, 1)
    model = build_spline_model(mesh)
    model.points[57, 0] = np.inf
    with pytest.raises(ValueError, match="control point 57 has a "
                       "non-finite coordinate"):
        Assembly(model, "elasticity", Material(e0=1.0, nu=0.3), level=1)


def test_cg_stops_at_first_non_finite_residual():
    A = 2.0 * np.eye(4)
    A[1, 2] = A[2, 1] = np.nan
    calls = []

    def matvec(x):
        calls.append(1)
        return A @ x

    with pytest.raises(RuntimeError, match="non-finite residual"):
        iga._cg(matvec, np.ones(4), np.full(4, 0.5), np.zeros(4), 1e-8, 500)
    assert len(calls) == 1


def test_nonpositive_jacobian_rejected():
    net = _greville_net()
    bad = np.array(net)
    bad[..., 0] *= -1.0
    with pytest.raises(ValueError, match="Jacobian"):
        element_stiffness_heat(BezierVolume(bad))


# ------------------------------------------------------------ subelements

def test_subelement_additivity():
    # affine element: constant Jacobian keeps the integrand polynomial, so
    # parent and sub-cube quadratures integrate it exactly
    mat = Material(e0=1.0, nu=0.3)
    rng = np.random.default_rng(6)
    A = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    net = _greville_net() @ A.T + rng.normal(size=3)
    if np.linalg.det(A) < 0:
        A[:, 0] *= -1
        net = _greville_net() @ A.T
    vol = BezierVolume(net)
    total = sum(subelement_stiffness(vol, 1, (i, j, k), mat)
                for i in range(2) for j in range(2) for k in range(2))
    K = element_stiffness_elastic(vol, mat)
    assert (np.linalg.norm(total - K) <= 1e-10 * np.linalg.norm(K))
    total_h = sum(subelement_stiffness_heat(vol, 1, s)
                  for s in np.ndindex(2, 2, 2))
    Kh = element_stiffness_heat(vol)
    assert np.linalg.norm(total_h - Kh) <= 1e-10 * np.linalg.norm(Kh)


def test_subelement_level0_identical():
    mat = Material(e0=1.0, nu=0.3)
    vol = BezierVolume(_greville_net())
    assert np.array_equal(subelement_stiffness(vol, 0, (0, 0, 0), mat),
                          element_stiffness_elastic(vol, mat))


def test_subelement_trace_oracle():
    vol = BezierVolume(_greville_net())
    K = subelement_stiffness_heat(vol, 1, (0, 1, 1))
    brute = _brute_heat_trace(vol.points, 6,
                              lo=(0, 0.5, 0.5), hi=(0.5, 1, 1))
    assert abs(np.trace(K) - brute) <= 1e-12 * abs(brute)


def test_subelement_bad_sub():
    with pytest.raises(ValueError):
        subelement_stiffness_heat(BezierVolume(_greville_net()), 1, (0, 0, 2))


# ------------------------------------------------------------ patch tests

def test_heat_patch_linear_field():
    model = regular_box_model((2, 2, 2), spacing=0.5)
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0),
                   DirichletSpec(lo=(1, -9, -9), hi=(1, 9, 9),
                                 components=(0,), value=1.0)])
    sol = assemble_and_solve(model, None, mat, bcs, "heat", rtol=1e-12)
    assert np.abs(sol.u[:, 0] - model.points[:, 0]).max() <= 1e-10


def test_heat_patch_insensitive_to_quad_order():
    model = regular_box_model((1, 1, 1))
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0),
                   DirichletSpec(lo=(1, -9, -9), hi=(1, 9, 9),
                                 components=(0,), value=1.0)])
    a = assemble_and_solve(model, None, mat, bcs, "heat", quad_order=4,
                           rtol=1e-13)
    b = assemble_and_solve(model, None, mat, bcs, "heat", quad_order=5,
                           rtol=1e-13)
    assert np.abs(a.u - b.u).max() <= 1e-12


def test_elastic_patch_linear_field():
    model = regular_box_model((2, 2, 2), spacing=0.5)
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(components=(1, 2), value=0.0, **EVERYWHERE),
                   DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0),
                   DirichletSpec(lo=(1, -9, -9), hi=(1, 9, 9),
                                 components=(0,), value=0.1)])
    sol = assemble_and_solve(model, None, mat, bcs, "elasticity", rtol=1e-12)
    assert np.abs(sol.u[:, 0] - 0.1 * model.points[:, 0]).max() <= 1e-9
    assert np.abs(sol.u[:, 1:]).max() <= 1e-10


# ------------------------------------------------------ stiffness kernel

def _curved_model(seed=3):
    """16 curved cells: a jittered 2x1x1 lattice, subdivided once."""
    mesh, _ = lattice(2, 1, 1)
    jitter = np.random.default_rng(seed).uniform(-0.08, 0.08,
                                                 mesh.vertices.shape)
    mesh, _ = subdivide(HexMesh(mesh.vertices + jitter, mesh.cells))
    return build_spline_model(mesh)


def _mixed_factors(asm, seed):
    """Density factors of a half-removed design: 1 or 1e-2 per pair."""
    keep = np.random.default_rng(seed).random((asm.num_cells, asm.nsub))
    return np.where(keep < 0.5, 1.0, 1e-2)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("problem, level", [("elasticity", 1), ("heat", 2)])
def test_aggregate_independent_of_batch_size(monkeypatch, problem, level):
    asm = Assembly(_curved_model(), problem, Material(1.0, 0.3), level=level)
    fac = _mixed_factors(asm, 1)
    ref = asm.aggregate(fac)
    # a larger budget packs more cells per batch but slices their
    # sub-cubes the same way, so every chunk must give the same bits
    for budget in (iga._GRAM_BATCH_BYTES, 8 * iga._GRAM_BATCH_BYTES):
        monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
        for chunk in (1, 5, 16, 128):
            assert np.array_equal(asm.aggregate(fac, chunk=chunk), ref)
    with pytest.raises(ValueError, match="chunk"):
        asm.aggregate(fac, chunk=0)


@pytest.mark.parametrize("problem", ["elasticity", "heat"])
def test_aggregate_sums_sub_stiffness(problem):
    asm = Assembly(_curved_model(), problem, Material(1.0, 0.3), level=2)
    fac = _mixed_factors(asm, 2)
    K = asm.aggregate(fac)
    for c in (0, 11):
        subs = np.arange(asm.nsub)
        Ks = asm.sub_stiffness(np.full(asm.nsub, c), subs, fac[c])
        assert _rel(K[c], Ks.sum(axis=0)) <= 1e-12
        # a negative factor flips the pair's stiffness
        neg = asm.sub_stiffness([c], [5], [-fac[c, 5]])[0]
        assert np.array_equal(neg, -Ks[5])


@pytest.mark.parametrize("problem, level", [("elasticity", 1), ("heat", 2)])
@pytest.mark.parametrize("budget", [None, 1])
def test_add_increment_matches_fresh_aggregate(monkeypatch, problem, level,
                                               budget):
    asm = Assembly(_curved_model(), problem, Material(1.0, 0.3), level=level)
    if budget is not None:
        # one pair per batch: a cell's pairs fall into several batches
        monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
    fac = _mixed_factors(asm, 4) + 0.5
    K = asm.aggregate(fac)
    # unsorted cells, repeated cells, one repeated pair, mixed signs
    cells = np.array([9, 2, 9, 15, 2, 0, 9, 9])
    subs = np.array([1, 3, 0, 4, 3, 7, 5, 2])
    df = np.array([-0.4, 0.3, 0.25, -0.1, -0.2, 1.5, -0.45, 0.05])
    new = fac.copy()
    np.add.at(new, (cells, subs), df)
    asm.add_increment(K, cells, subs, df)
    ref = asm.aggregate(new)
    assert _rel(K, ref) <= 1e-12
    touched = np.unique(cells)
    for c in touched:
        assert _rel(K[c], ref[c]) <= 1e-12
    before = K.copy()
    asm.add_increment(K, [], [], [])
    assert np.array_equal(K, before)


def test_gram_kernel_memory_is_bounded():
    # 27 cells x 64 sub-cubes: the whole (cell, sub) gradient stack would
    # take about 170 MB per copy
    model = build_spline_model(lattice(3, 3, 3)[0])
    asm = Assembly(model, "heat", None, level=2)
    budget = 64 << 20
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K = asm.aggregate(np.ones((asm.num_cells, asm.nsub)))
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= K.nbytes + budget
        peaks = []
        for n in (150, 600):
            pick = rng.choice(asm.num_cells * asm.nsub, n, replace=False)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            asm.add_increment(K, pick // asm.nsub, pick % asm.nsub,
                              np.full(n, -0.5))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        assert peaks[1] <= budget
        assert peaks[1] <= 1.25 * peaks[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("problem", ["elasticity", "heat"])
def test_level3_aggregate_matches_element(problem):
    # affine element: the sub-cube quadratures are exact, so the 512
    # sub-cubes of level 3 must add up to the level-0 element
    rng = np.random.default_rng(8)
    A = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    vol = BezierVolume(_greville_net() @ A.T)
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(iga._single_cell_model(vol), problem, mat, level=3)
    K = asm.aggregate(np.ones((1, asm.nsub)))[0]
    ref = (element_stiffness_elastic(vol, mat) if problem == "elasticity"
           else element_stiffness_heat(vol))
    assert _rel(K, ref) <= 1e-10


# ------------------------------------------------------------ solve paths

def _cantilever_setup():
    model = regular_box_model((1, 1, 1))
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0, 1, 2), value=0.0)],
        loads=[LoadSpec(lo=(1, 1, 1), hi=(1, 1, 1), vector=(0, 0, -1.0))])
    return model, mat, bcs


def test_cantilever_cg_matches_dense():
    model, mat, bcs = _cantilever_setup()
    cg = assemble_and_solve(model, None, mat, bcs, "elasticity", rtol=1e-12)
    lu = assemble_and_solve(model, None, mat, bcs, "elasticity",
                            method="dense")
    assert cg.compliance > 0
    assert abs(cg.compliance - lu.compliance) <= 1e-9 * lu.compliance
    # zero Dirichlet values: compliance must equal (1/2) U^T F
    asm = Assembly(model, "elasticity", mat)
    F = asm.load_vector(bcs)
    assert abs(cg.compliance - 0.5 * cg.u.reshape(-1) @ F) \
        <= 1e-8 * cg.compliance


def test_assembly_deterministic():
    model, mat, bcs = _cantilever_setup()
    asm = Assembly(model, "elasticity", mat)
    ones = np.ones((asm.num_cells, 1))
    K1 = asm.aggregate(ones)
    K2 = asm.aggregate(ones)
    assert np.array_equal(K1, K2)
    a = solve_system(StiffnessOperator(asm, K1, bcs), rtol=1e-10)
    b = solve_system(StiffnessOperator(asm, K2, bcs), rtol=1e-10)
    assert np.array_equal(a.u, b.u)
    assert a.iterations == b.iterations


def test_density_softening():
    model = regular_box_model((2, 1, 1), spacing=0.5)
    mat = Material(e0=1.0, nu=0.3, p=3.0, mu_min=1e-9)

    class Density:
        level = 1
        rho = np.ones((2, 8))

    full = Density()
    weak = Density()
    weak.rho = np.array(full.rho)
    weak.rho[1, :] = 0.3
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0, 1, 2), value=0.0)],
        loads=[LoadSpec(lo=(1, 0.5, 0.5), hi=(1, 0.5, 0.5),
                        vector=(0, 0, -1.0))])
    c_full = assemble_and_solve(model, full, mat, bcs, "elasticity",
                                rtol=1e-10).compliance
    c_weak = assemble_and_solve(model, weak, mat, bcs, "elasticity",
                                rtol=1e-10).compliance
    assert c_weak > c_full
    f = density_factors(weak, mat)
    assert abs(f[1, 0] - (1e-9 + (1 - 1e-9) * 0.3 ** 3)) <= 1e-15
    assert abs(f[0, 0] - 1.0) <= 1e-15


def test_bc_validation():
    model, mat, _ = _cantilever_setup()
    with pytest.raises(ValueError, match="insufficient constraints"):
        assemble_and_solve(model, None, mat, BoundaryConditions(),
                           "elasticity")
    bad = BoundaryConditions(
        dirichlet=[DirichletSpec(components=(1,), value=0.0, **EVERYWHERE)])
    with pytest.raises(ValueError, match="component"):
        assemble_and_solve(model, None, mat, bad, "heat")
    bad2 = BoundaryConditions(
        dirichlet=[DirichletSpec(components=(0,), value=0.0, **EVERYWHERE)],
        loads=[LoadSpec(lo=(0, 0, 0), hi=(1, 1, 1), vector=(1.0, 0.0))])
    with pytest.raises(ValueError, match="load vector"):
        assemble_and_solve(model, None, mat, bad2, "heat")


@pytest.mark.parametrize("make, name", [
    (lambda: DirichletSpec((np.nan, 0, 0), (1, 1, 1), (0,)), "lo"),
    (lambda: DirichletSpec((0, 0, 0), (1, np.inf, 1), (0,)), "hi"),
    (lambda: DirichletSpec((0, 0, 0), (1, 1, 1), (0,), np.nan), "value"),
    (lambda: LoadSpec((np.nan, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0)),
     "lo"),
    (lambda: LoadSpec((0, 0, 0), (1, 1, np.inf), (1.0,)), "hi"),
    (lambda: LoadSpec((0, 0, 0), (1, 1, 1), (0, np.nan, 0)), "vector"),
    (lambda: LoadSpec((0, 0), (1, 1, 1), (1.0,)), "lo"),
    (lambda: LoadSpec((0, 0, 0), (1, 1), (1.0,)), "hi"),
])
def test_box_specs_reject_bad_fields(make, name):
    # a NaN bound selects no control point, so the load or support it
    # describes would vanish without a word
    with pytest.raises(ValueError, match=r"\b%s must be (a )?finite" % name):
        make()


def test_heat_source_load():
    model = regular_box_model((1, 1, 1))
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0)],
        heat_source=2.0)
    asm = Assembly(model, "heat", mat)
    F = asm.load_vector(bcs)
    # consistent load of a constant source integrates to f * volume
    assert abs(F.sum() - 2.0) <= 1e-12
    # a later call with another source strength on the same assembly
    F3 = asm.load_vector(replace(bcs, heat_source=3.0))
    assert np.allclose(F3, 1.5 * F, rtol=1e-14, atol=0.0)
    sol = assemble_and_solve(model, None, mat, bcs, "heat", rtol=1e-10)
    assert sol.compliance > 0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_heat_source_must_be_finite(value):
    # a NaN source failed only inside CG, naming no input
    with pytest.raises(ValueError, match="heat_source must be finite"):
        BoundaryConditions(heat_source=value)


def test_heat_source_rejected_on_elasticity():
    # the source used to be dropped: compliance 0 after 0 iterations
    model, mat, bcs = _cantilever_setup()
    bcs = replace(bcs, loads=[], heat_source=3.0)
    asm = Assembly(model, "elasticity", mat)
    with pytest.raises(ValueError, match="heat source needs the heat problem"):
        asm.load_vector(bcs)
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    with pytest.raises(ValueError, match="heat source needs the heat problem"):
        StiffnessOperator(asm, K, bcs)


# ----------------------------------------- two-level / single precision

def _beam(nx=3):
    mesh, _ = lattice(nx, 1, 1)
    mesh, _ = subdivide(mesh)
    model = build_spline_model(mesh)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG, -BIG, -BIG), (0.3, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((nx - 0.3, -BIG, -BIG), (BIG, BIG, BIG),
                        (0, 0, -1.0))])
    return mesh, model, bcs


def test_two_level_preconditioner_matches_jacobi():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(model, "elasticity", mat)
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    pc = op.precond
    with pytest.raises(RuntimeError, match="refresh"):
        pc(np.ones(int(pc.free.sum())))
    pc.refresh(K)
    jac = solve_system(StiffnessOperator(asm, K, bcs), rtol=1e-10)
    two = solve_system(op, rtol=1e-10)
    assert np.allclose(two.u, jac.u, atol=1e-7 * np.abs(jac.u).max())
    assert abs(two.compliance - jac.compliance) <= 1e-8 * jac.compliance
    assert two.iterations < jac.iterations


def test_two_level_refresh_with_density_factors_solves():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat)
    rng = np.random.default_rng(3)

    class Rho:
        level = 0
        rho = rng.uniform(0.2, 1.0, (asm.num_cells, 1))

    K = asm.aggregate(density_factors(Rho(), mat))
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    pc = op.precond
    pc.refresh(K)
    sol = solve_system(op, rtol=1e-9)
    ref = solve_system(StiffnessOperator(asm, K, bcs), rtol=1e-11)
    assert abs(sol.compliance - ref.compliance) <= 1e-7 * ref.compliance


def test_two_level_solves_without_vertex_constraints():
    # the box holds control points but no mesh vertex
    mesh, _ = lattice(3, 1, 1)
    model = build_spline_model(mesh)
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(model, "elasticity", mat)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((0.05, -BIG, -BIG), (0.95, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0))])
    x = mesh.vertices[:, 0]
    assert not ((x >= 0.05) & (x <= 0.95)).any()
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    pc = op.precond
    pc.refresh(K)
    jac = solve_system(StiffnessOperator(asm, K, bcs), rtol=1e-10)
    two = solve_system(op, rtol=1e-10)
    assert np.allclose(two.u, jac.u, atol=1e-7 * np.abs(jac.u).max())
    assert abs(two.compliance - jac.compliance) <= 1e-8 * jac.compliance


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_two_level_coarse_matrix_is_galerkin_product(problem):
    # the factored coarse matrix is P_f^T K_ff P_f: P interpolates each
    # control point trilinearly from the mesh vertices of the first cell
    # holding it, and a coarse dof is fixed with its vertex's fine dof
    mesh, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,))])
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, problem, mat, level=1)
    K = asm.aggregate(_random_factors(asm, mat, 43))
    pc = StiffnessOperator(asm, K, bcs, precond="twolevel").precond
    pc.refresh(K)
    P = np.zeros((model.num_control_points, mesh.num_vertices))
    for c, nodes in enumerate(model.cell_nodes):
        for a, node in enumerate(nodes):
            if P[node].any():
                continue
            uvw = np.array([a // 16, (a // 4) % 4, a % 4]) / 3.0
            for k, corner in enumerate(CORNER_OFFSETS):
                P[node, mesh.cells[c, k]] = np.prod(
                    np.where(corner, uvw, 1.0 - uvw))
    dpn = asm.dpn
    P = np.kron(P, np.eye(dpn))
    dofs, _ = asm.dirichlet(bcs)
    free = np.ones(asm.ndof, dtype=bool)
    free[dofs] = False
    cfree = free[(dpn * np.arange(mesh.num_vertices)[:, None]
                  + np.arange(dpn)).ravel()]
    Pf = P[free][:, cfree]
    assert np.array_equal(pc.P.toarray(), Pf)
    dense = np.zeros((asm.ndof, asm.ndof))
    for c in range(asm.num_cells):
        dense[np.ix_(asm.dofmap[c], asm.dofmap[c])] += K[c]
    A = Pf.T @ dense[np.ix_(free, free)] @ Pf
    eye = np.eye(len(A))
    assert np.abs(pc.lu.solve(eye) @ A - eye).max() <= 1e-12


def _random_factors(asm, mat, seed):
    class Rho:
        level = asm.level
        rho = np.random.default_rng(seed).uniform(0.2, 1.0,
                                                  (asm.num_cells, asm.nsub))
    return density_factors(Rho(), mat)


def test_two_level_preconditioner_symmetric():
    # CG needs a symmetric positive definite M
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 5)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, precond="twolevel")
    pc = op.precond
    pc.refresh(op.K)
    assert pc.blocks.dtype == np.float32
    assert pc.blocks.shape == (asm.num_cells, 192, 192)
    assert np.array_equal(pc.blocks, pc.blocks.transpose(0, 2, 1))
    rng = np.random.default_rng(11)
    n = int(pc.free.sum())
    for _ in range(5):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        mx, my = pc(x), pc(y)
        # float32 blocks: agreement to single-precision rounding
        scale = np.linalg.norm(x) * np.linalg.norm(my)
        assert abs(x @ my - y @ mx) <= 1e-5 * scale
        assert x @ mx > 0


def test_two_level_update_matches_refresh_after_kills():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 7)
    K = asm.aggregate(fac)
    pc = StiffnessOperator(asm, K, bcs, precond="twolevel").precond
    pc.refresh(K)
    before = pc.blocks.copy()
    # remove four sub-elements as a BESO kill does, two in one cell
    cells = np.array([0, 9, 9, 17])
    subs = np.array([3, 0, 6, 7])
    asm.add_increment(K, cells, subs, mat.mu_min - fac[cells, subs])
    pc.update(K, cells)
    fresh = TwoLevelPreconditioner(asm, pc.free)
    fresh.refresh(K)
    touched = np.unique(cells)
    assert not np.array_equal(before[touched], fresh.blocks[touched])
    assert np.array_equal(pc.blocks[touched], fresh.blocks[touched])
    others = np.setdiff1d(np.arange(asm.num_cells), touched)
    assert np.array_equal(pc.blocks[others], before[others])


def test_two_level_heat_blocks_match_dense_assembly():
    # one dof per node: 64x64 blocks, each the inverse of the assembled
    # principal submatrix on its cell's dofs (Dirichlet rows -> identity).
    # The far end is held, so fixed dofs come last in their cells' local
    # order and both Dirichlet masks matter.
    mesh, model, _ = _beam()
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0,))],
        heat_source=1.0)
    mat = Material(e0=2.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "heat", mat, level=1)
    fac = _random_factors(asm, mat, 13)
    K = asm.aggregate(fac)
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    pc = op.precond
    pc.refresh(K)
    assert pc.blocks.shape == (asm.num_cells, 64, 64)
    for c, block in enumerate(_assembled_blocks(asm, K, pc.free)):
        ref = np.linalg.inv(block)
        assert np.allclose(pc.blocks[c], ref, rtol=1e-5,
                           atol=1e-6 * np.abs(ref).max())
    jac = solve_system(StiffnessOperator(asm, K, bcs), rtol=1e-10)
    two = solve_system(op, rtol=1e-10)
    assert abs(two.compliance - jac.compliance) <= 1e-8 * jac.compliance
    assert two.iterations < jac.iterations


def _assembled_blocks(asm, K, free):
    """Each cell's principal submatrix of the dense assembled stiffness,
    with Dirichlet rows and columns replaced by identity."""
    dense = np.zeros((asm.ndof, asm.ndof))
    for c in range(asm.num_cells):
        dense[np.ix_(asm.dofmap[c], asm.dofmap[c])] += K[c]
    fixed = ~free
    dense[fixed] = 0.0
    dense[:, fixed] = 0.0
    dense[fixed, fixed] = 1.0
    return [dense[np.ix_(d, d)] for d in asm.dofmap]


def test_two_level_elastic_blocks_match_dense_assembly():
    # three dofs per node: 192x192 blocks, inverted by a sweep over three
    # 64-row pivot blocks
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 31)
    K = asm.aggregate(fac)
    pc = StiffnessOperator(asm, K, bcs, precond="twolevel").precond
    pc.refresh(K)
    assert pc.blocks.shape == (asm.num_cells, 192, 192)
    cells = np.arange(asm.num_cells)
    # the float64 inverses before the cast: exactly symmetric
    X = iga._sweep_inverse(pc._cell_blocks(K, cells), cells)
    assert np.array_equal(X, X.transpose(0, 2, 1))
    assert np.array_equal(pc.blocks, X.astype(np.float32))
    for c, block in enumerate(_assembled_blocks(asm, K, pc.free)):
        ref = np.linalg.inv(block)
        assert np.allclose(pc.blocks[c], ref, rtol=1e-5,
                           atol=1e-6 * np.abs(ref).max())
        assert np.abs(X[c] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_two_level_names_indefinite_block(problem):
    mesh, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,))])
    asm = Assembly(model, problem, Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    K[9] *= -1.0
    pc = StiffnessOperator(asm, K, bcs, precond="twolevel").precond
    with pytest.raises(ValueError, match=r"cell (\d+): assembled block is "
                       r"not positive definite") as err:
        pc.refresh(K)
    cell = int(re.search(r"cell (\d+)", str(err.value)).group(1))
    block = _assembled_blocks(asm, K, pc.free)[cell]
    assert np.linalg.eigvalsh(block).min() < 0


@pytest.mark.parametrize("rtol", [0.0, 1.0, -1e-8, np.nan])
def test_solve_rejects_rtol_outside_unit_interval(rtol):
    # rtol = 1 returned the zero field at 0 iterations; rtol = 0 chased
    # the whole iteration budget
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    with pytest.raises(ValueError, match=r"rtol must lie in \(0, 1\)"):
        solve_system(StiffnessOperator(asm, K, bcs), rtol=rtol)


def test_single_precision_solve():
    model, mat, bcs = _cantilever_setup()
    ref = assemble_and_solve(model, None, mat, bcs, "elasticity", rtol=1e-12)
    f32 = assemble_and_solve(model, None, mat, bcs, "elasticity", rtol=1e-6,
                             single_precision=True)
    assert f32.u.dtype == np.float64
    assert f32.residual <= 1e-6  # float64-verified, not the f32 recurrence
    assert abs(f32.compliance - ref.compliance) <= 1e-4 * ref.compliance
    # float64 restarts recover tolerances far below the float32 floor
    deep = assemble_and_solve(model, None, mat, bcs, "elasticity", rtol=1e-10,
                              single_precision=True)
    assert deep.residual <= 1e-10
    assert abs(deep.compliance - ref.compliance) <= 1e-8 * ref.compliance


# ------------------------------------------------- stiffness operator, CG

def _sparse_stiffness(asm, K):
    nd = asm.nd
    rows = np.repeat(asm.dofmap, nd, axis=1).ravel()
    cols = np.tile(asm.dofmap, (1, nd)).ravel()
    return sparse.csr_matrix((K.ravel(), (rows, cols)),
                             shape=(asm.ndof, asm.ndof))


def test_operator_follows_kills():
    # the float32 mirror, the density factors and the preconditioner
    # blocks of a StiffnessOperator through BESO-style kills
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = np.full((asm.num_cells, asm.nsub), mat.mu_min + (1 - mat.mu_min))
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac,
                           precond="twolevel", single_precision=True)
    pc = op.precond
    op.prepare()                       # the first solve builds it all
    first = pc.lu
    rng = np.random.default_rng(2)
    alive = np.ones(fac.size, dtype=bool)
    for k in range(1, 9):
        # distinct live pairs, some sharing a cell
        kill = rng.choice(np.flatnonzero(alive), 9, replace=False)
        alive[kill] = False
        op.set_factors(kill // asm.nsub, kill % asm.nsub, np.full(9, 0.05))
        assert np.array_equal(op.K32, op.K.astype(np.float32))
        op.prepare()
        # touched cells rebuilt before every solve, everything every 8th
        fresh = TwoLevelPreconditioner(asm, pc.free)
        fresh.refresh(op.K)
        touched = np.unique(kill // asm.nsub)
        assert np.array_equal(pc.blocks[touched], fresh.blocks[touched])
        assert (pc.lu is first) == (k < 8)
    assert np.array_equal(pc.blocks, fresh.blocks)
    fac.reshape(-1)[~alive] = 0.05
    assert np.array_equal(op.factors, fac)
    assert _rel(op.K, asm.aggregate(fac)) <= 1e-12


def test_operator_refresh_rebuilds_only_stale_blocks():
    # kills only in the cells at the held end of the beam: a refresh
    # rebuilds their blocks and their neighbours', and keeps the rest
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 37)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac,
                           precond="twolevel")
    pc = op.precond
    built = []
    cell_blocks = pc._cell_blocks

    def counted(K, cells):
        built.append(len(cells))
        return cell_blocks(K, cells)

    pc._cell_blocks = counted
    end = np.flatnonzero(mesh.vertices[mesh.cells].mean(axis=1)[:, 0] < 0.5)
    pairs = np.random.default_rng(41).permutation(
        (end[:, None] * asm.nsub + np.arange(asm.nsub)).ravel())
    rebuilt = []
    for k in range(2 * iga._REFRESH_EVERY + 1):
        if k:
            kill = pairs[2 * k - 2:2 * k]
            op.set_factors(kill // asm.nsub, kill % asm.nsub,
                           np.full(2, mat.mu_min))
        built.clear()
        op.prepare()
        rebuilt.append(sum(built))
        # every block not marked stale is the one a full rebuild gives
        fresh = TwoLevelPreconditioner(asm, pc.free)
        fresh.refresh(op.K)
        clean = ~pc._stale
        assert np.array_equal(pc.blocks[clean], fresh.blocks[clean])
        assert clean.all() == (k % iga._REFRESH_EVERY == 0)
    assert rebuilt[0] == asm.num_cells
    for k in (iga._REFRESH_EVERY, 2 * iga._REFRESH_EVERY):
        assert 0 < rebuilt[k] < asm.num_cells


def test_operator_rejects_unknown_precond():
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    with pytest.raises(ValueError, match="precond must be one of"):
        StiffnessOperator(asm, K, bcs, precond="amg")


def test_operator_needs_constraints_at_construction():
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    with pytest.raises(ValueError, match="insufficient constraints"):
        StiffnessOperator(asm, K, replace(bcs, dirichlet=[]))


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_preconditioner_acts_on_the_operators_free_dofs(problem):
    _, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,))], heat_source=1.0)
    asm = Assembly(model, problem, Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    dofs, _ = asm.dirichlet(bcs)
    free = np.ones(asm.ndof, dtype=bool)
    free[dofs] = False
    assert 0 < len(dofs) and np.array_equal(op.free, free)
    assert op.precond.free is op.free
    assert op.precond.P.shape[0] == int(free.sum())


def test_operator_resolves_boundary_conditions_once(monkeypatch):
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    calls = []
    for name in ("dirichlet", "load_vector"):
        method = getattr(asm, name)
        monkeypatch.setattr(asm, name, lambda bcs, name=name, method=method:
                            calls.append(name) or method(bcs))
    op = StiffnessOperator(asm, K, bcs, precond="twolevel")
    first = solve_system(op, rtol=1e-8)
    again = solve_system(op, rtol=1e-8, x0=first.u.reshape(-1))
    assert sorted(calls) == ["dirichlet", "load_vector"]
    assert again.iterations == 0
    assert abs(again.compliance - first.compliance) <= 1e-8 * first.compliance


@pytest.mark.parametrize("single", [False, True])
def test_cg_loop_matches_direct_solve(single):
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    K = asm.aggregate(_random_factors(asm, mat, 17))
    rtol = 1e-7
    sol = solve_system(StiffnessOperator(asm, K, bcs,
                                         single_precision=single), rtol=rtol)
    F = asm.load_vector(bcs)
    dofs, _ = asm.dirichlet(bcs)
    free = np.ones(asm.ndof, dtype=bool)
    free[dofs] = False
    A = _sparse_stiffness(asm, K)[free][:, free].tocsc()
    x = spsolve(A, F[free])
    u = sol.u.reshape(-1)
    assert np.all(u[~free] == 0.0)
    res = np.linalg.norm(F[free] - A @ u[free]) / np.linalg.norm(F[free])
    assert res <= rtol and abs(sol.residual - res) <= 1e-3 * rtol
    # compliance error is quadratic in the residual: far below rtol
    exact = 0.5 * F[free] @ x
    assert abs(sol.compliance - exact) <= rtol * exact
    assert sol.restarts >= (2 if single else 1)


@pytest.mark.parametrize("value", [0.0, 2.5])
def test_compliance_matches_full_product(value):
    # zero Dirichlet values take the compliance from the solve's residual,
    # non-zero ones from the full product; both must equal (1/2) U^T K U
    mesh, model, _ = _beam()
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0,),
                                 value=value)],
        heat_source=1.0)
    mat = Material(e0=2.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "heat", mat, level=1)
    K = asm.aggregate(_random_factors(asm, mat, 19))
    sol = solve_system(StiffnessOperator(asm, K, bcs), rtol=1e-9)
    U = sol.u.reshape(-1)
    full = 0.5 * U @ (_sparse_stiffness(asm, K) @ U)
    assert abs(sol.compliance - full) <= 1e-12 * abs(full)


def test_preconditioner_update_memory_is_bounded(monkeypatch):
    # 36 cells of about 2 MB of block-building work each
    mesh, model, bcs = _beam(nx=4)
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat)
    fac = _random_factors(asm, mat, 23)
    K = asm.aggregate(fac)
    pc = StiffnessOperator(asm, K, bcs, precond="twolevel").precond
    pc.refresh(K)
    budget = 4 << 20
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
    before = pc.blocks.copy()
    cells = np.arange(asm.num_cells)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc.update(K, cells)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * budget
    # the same blocks whatever the batches
    assert np.array_equal(pc.blocks, before)


def test_elastic_energies_memory_is_bounded(monkeypatch):
    model = _curved_model()
    asm = Assembly(model, "elasticity", Material(1.0, 0.3), level=2)
    u = np.random.default_rng(29).standard_normal(asm.ndof)
    ref = asm.sub_energies(u)
    budget = 1 << 20
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        E = asm.sub_energies(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the whole-design gradient tensor alone would take 4.7 MB
    assert peak <= E.nbytes + 2 * budget
    assert _rel(E, ref) <= 1e-14
    # each energy is the sub-element stiffness quadratic form
    for c, sub in ((0, 0), (7, 41), (15, 63)):
        Ks = asm.sub_stiffness([c], [sub])[0]
        ue = u[asm.dofmap[c]]
        assert abs(E[c, sub] - ue @ Ks @ ue) <= 1e-12 * abs(ue @ Ks @ ue)
