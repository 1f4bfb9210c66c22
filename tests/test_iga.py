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
                         solve_system)
from ccsolid.spline import SplineModel, build_spline_model, regular_box_model
from ccsolid.subdivision import subdivide
from ccsolid.topopt import density_factors
from meshes import lattice, one_cell_model, wheel
from reference import dense_solve, dense_stiffness

EVERYWHERE = dict(lo=(-1e9, -1e9, -1e9), hi=(1e9, 1e9, 1e9))
BIG = 1e9


def _greville_net(scale=1.0):
    g = np.arange(4) / 3.0
    return scale * np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)


def _patch_stiffness(net, problem, mat=None, level=0, sub=0):
    """Stiffness of sub-cube `sub` of the patch with control net `net`."""
    asm = Assembly(one_cell_model(net), problem, mat, level)
    return asm.sub_stiffness([0], [sub])[0]


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
    K = _patch_stiffness(_greville_net(), "heat")
    assert np.abs(K - expect).max() <= 1e-13


def test_heat_row_sums_zero():
    rng = np.random.default_rng(8)
    net = _greville_net() + 0.03 * rng.normal(size=(4, 4, 4, 3))
    K = _patch_stiffness(net, "heat")
    assert np.abs(K.sum(axis=1)).max() <= 1e-12


def test_heat_scaling():
    rng = np.random.default_rng(12)
    net = _greville_net() + 0.02 * rng.normal(size=(4, 4, 4, 3))
    K1 = _patch_stiffness(net, "heat")
    K2 = _patch_stiffness(2.0 * net, "heat")
    assert np.abs(K2 - 2.0 * K1).max() <= 1e-12 * np.abs(K1).max()


# -------------------------------------------------------- element elastic

def test_elastic_matches_brute_force_identity():
    # polynomial integrand: raising the order must change nothing
    mat = Material(e0=1.0, nu=0.3)
    net = _greville_net()
    K = _patch_stiffness(net, "elasticity", mat)
    brute = _brute_elastic(net, mat.lam, mat.mu, order=6)
    assert np.abs(K - brute).max() <= 1e-12 * np.abs(brute).max()


def test_elastic_matches_brute_force_curved():
    # same quadrature order on both sides isolates the matrix algebra
    mat = Material(e0=1.0, nu=0.3)
    rng = np.random.default_rng(23)
    net = _greville_net() + 0.03 * rng.normal(size=(4, 4, 4, 3))
    K = _patch_stiffness(net, "elasticity", mat)
    brute = _brute_elastic(net, mat.lam, mat.mu, order=4)
    assert np.abs(K - brute).max() <= 1e-12 * np.abs(brute).max()


def test_elastic_symmetry_and_rigid_modes():
    mat = Material(e0=2.0, nu=0.25)
    rng = np.random.default_rng(31)
    for net in (_greville_net(),
                _greville_net() + 0.04 * rng.normal(size=(4, 4, 4, 3))):
        K = _patch_stiffness(net, "elasticity", mat)
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
        iga._cg(matvec, np.ones(4), lambda r: 0.5 * r, np.zeros(4), None,
                1e-8, 500)
    assert len(calls) == 1


def test_nonpositive_jacobian_rejected():
    net = _greville_net()
    bad = np.array(net)
    bad[..., 0] *= -1.0
    with pytest.raises(ValueError, match="Jacobian"):
        _patch_stiffness(bad, "heat")


def test_nonpositive_jacobian_named_whatever_the_batches(monkeypatch):
    # two cells with mirrored node order: the error names the point of
    # least det J over the whole model, also when each cell is its own batch
    model = _curved_model()
    nodes = model.cell_nodes.copy()
    for c in (0, 11):
        nodes[c] = nodes[c].reshape(4, 4, 4)[::-1].ravel()
    bad = SplineModel(points=model.points, cell_nodes=nodes)
    msgs = []
    for budget in (iga._GRAM_BATCH_BYTES, 1):
        monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
        with pytest.raises(ValueError, match="non-positive Jacobian") as err:
            Assembly(bad, "heat", None, level=1)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1]
    assert "in cell 11 " in msgs[0]


def test_assembly_jacobian_memory_is_bounded(monkeypatch):
    model = _curved_model()
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", 1)    # a cell per batch
    ref = Assembly(model, "elasticity", Material(1.0, 0.3), level=2)
    budget = 1 << 20
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        asm = Assembly(model, "elasticity", Material(1.0, 0.3), level=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the whole J beside its cofactors would take another 9.4 MB
    assert peak <= asm.S.nbytes + asm.sub_volumes.nbytes + 2 * budget
    assert asm.S.shape == (16, 3, 3, 64 * 64)
    # every cell's J is its own GEMM of one shape: batches change no bits
    assert np.array_equal(asm.S, ref.S)
    assert np.array_equal(asm.sub_volumes, ref.sub_volumes)


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_scaled_inverse_jacobian_matches_lapack(problem):
    # the cofactor S = sqrt(w det J) J^{-1} against LAPACK's det and inv of
    # a J built here from the control nets and the parameter gradients
    model = _curved_model()
    asm = Assembly(model, problem, Material(1.0, 0.3), level=2)
    w, _, Ghat = iga._quad_tables(2, 4)
    J = np.einsum("cna,espn->cspae", model.points[model.cell_nodes], Ghat)
    wdet = w * np.linalg.det(J)
    ref = np.sqrt(wdet)[..., None, None] * np.linalg.inv(J)
    # S[c, e, a] is the plane of entry (e, a) over the (sub, point) pairs
    S = asm.S.reshape(ref.shape[:1] + (3, 3) + ref.shape[1:3])
    S = S.transpose(0, 3, 4, 1, 2)
    assert _rel(S, ref) <= 1e-14
    # near the solid's corners J shrinks to under 2 % of its median size,
    # and either sum for it cancels to about 2e-13 relative
    err = np.abs(S - ref).max(axis=(-2, -1))
    assert (err <= 1e-12 * np.abs(ref).max(axis=(-2, -1))).all()
    assert _rel(asm.sub_volumes, wdet.sum(axis=-1)) <= 1e-14


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
    total = sum(_patch_stiffness(net, "elasticity", mat, 1, s)
                for s in range(8))
    K = _patch_stiffness(net, "elasticity", mat)
    assert (np.linalg.norm(total - K) <= 1e-10 * np.linalg.norm(K))
    total_h = sum(_patch_stiffness(net, "heat", None, 1, s) for s in range(8))
    Kh = _patch_stiffness(net, "heat")
    assert np.linalg.norm(total_h - Kh) <= 1e-10 * np.linalg.norm(Kh)


def test_subelement_level0_identical():
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(one_cell_model(_greville_net()), "elasticity", mat)
    assert np.array_equal(asm.sub_stiffness([0], [0])[0],
                          asm.aggregate(np.ones((1, 1)))[0])


def test_subelement_trace_oracle():
    net = _greville_net()
    # sub-cube (i, j, k) = (0, 1, 1) of level 1 has index (2 i + j) 2 + k
    K = _patch_stiffness(net, "heat", None, 1, 3)
    brute = _brute_heat_trace(net, 6, lo=(0, 0.5, 0.5), hi=(0.5, 1, 1))
    assert abs(np.trace(K) - brute) <= 1e-12 * abs(brute)


def test_subelement_bad_sub():
    with pytest.raises(ValueError):
        _patch_stiffness(_greville_net(), "heat", None, 1, 8)


@pytest.mark.parametrize("cell, sub", [(0, -1), (-1, 0), (2, 0), (1, 8)])
def test_sub_stiffness_names_a_pair_outside_the_model(cell, sub):
    # a negative id used to wrap around: sub -1 gave sub 7's stiffness
    asm = Assembly(regular_box_model((2, 1, 1)), "heat", None, level=1)
    with pytest.raises(ValueError, match=r"pair \(%d, %d\) out of range"
                       % (cell, sub)):
        asm.sub_stiffness([0, cell], [0, sub])


# ------------------------------------------------------------ patch tests

def test_heat_patch_linear_field():
    model = regular_box_model((2, 2, 2), spacing=0.5)
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0),
                   DirichletSpec(lo=(1, -9, -9), hi=(1, 9, 9),
                                 components=(0,), value=1.0)])
    sol = assemble_and_solve(model, mat, bcs, "heat", rtol=1e-12)
    assert np.abs(sol.u[:, 0] - model.points[:, 0]).max() <= 1e-10


def test_heat_patch_insensitive_to_quad_order():
    model = regular_box_model((1, 1, 1))
    mat = Material(e0=1.0, nu=0.3)
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0,), value=0.0),
                   DirichletSpec(lo=(1, -9, -9), hi=(1, 9, 9),
                                 components=(0,), value=1.0)])

    def solve(quad_order):
        asm = Assembly(model, "heat", mat, quad_order=quad_order)
        ones = np.ones((asm.num_cells, asm.nsub))
        return solve_system(StiffnessOperator(asm, asm.aggregate(ones), bcs),
                            rtol=1e-13)

    a, b = solve(4), solve(5)
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
    sol = assemble_and_solve(model, mat, bcs, "elasticity", rtol=1e-12)
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
    # a budget too small for a row's sub-cubes cuts them into more
    # slices, whose Grams sum in another order: rounding only
    monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", 1)
    small = asm.aggregate(fac)
    assert np.abs(small - ref).max() <= 1e-14 * np.abs(ref).max()
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
    u = np.random.default_rng(3).standard_normal(asm.ndof)
    before = K.copy()
    du = asm.add_increment(K, cells, subs, df, u)
    ref = asm.aggregate(new)
    assert _rel(K, ref) <= 1e-12
    touched = np.unique(cells)
    for c in touched:
        assert _rel(K[c], ref[c]) <= 1e-12
    # the returned product is the increment's action on u
    assert _rel(du, asm.matvec(K - before, u)) <= 1e-12
    before = K.copy()
    du = asm.add_increment(K, [], [], [], u)
    assert np.array_equal(K, before)
    assert np.array_equal(du, np.zeros(asm.ndof))


@pytest.mark.parametrize("problem, level", [("elasticity", 1), ("heat", 2)])
def test_add_increment_sums_long_runs_per_cell(problem, level):
    # one call gives cell 9 all 8 subs of a level-1 cell plus a repeat of
    # sub 3, 10 pairs in all, and cell 4 a run of 3: each cell's run of
    # one sign is folded into one Gram
    asm = Assembly(_curved_model(), problem, Material(1.0, 0.3), level=level)
    fac = _mixed_factors(asm, 7) + 0.5
    K = asm.aggregate(fac)
    cells = np.array([9, 4, 9, 9, 9, 4, 9, 9, 9, 13, 9, 9, 4, 9])
    subs = np.array([0, 2, 1, 2, 3, 6, 4, 5, 6, 1, 7, 3, 0, 3])
    df = np.array([-0.4, 0.3, 0.25, -0.1, -0.2, -0.35, 1.5, -0.45, 0.05,
                   -0.3, 0.6, -0.15, 0.2, -0.1])
    new = fac.copy()
    np.add.at(new, (cells, subs), df)
    assert (new >= 0).all()
    u = np.random.default_rng(5).standard_normal(asm.ndof)
    before = K.copy()
    du = asm.add_increment(K, cells, subs, df, u)
    ref = asm.aggregate(new)
    assert _rel(K, ref) <= 1e-12
    for c in (4, 9, 13):
        assert _rel(K[c], ref[c]) <= 1e-12
    assert _rel(du, asm.matvec(K - before, u)) <= 1e-12


def test_add_increment_rejects_pairs_outside_the_model():
    # a negative id once wrapped round to the last cell or sub-cube; a
    # pair listed twice stays legal here
    asm = Assembly(build_spline_model(lattice(2, 1, 1)[0]), "elasticity",
                   Material(1.0, 0.3), level=1)
    K = asm.aggregate(np.ones((asm.num_cells, asm.nsub)))
    before = K.copy()
    for cells, subs, msg in (([-1], [-1], r"\(-1, -1\)"),
                             ([0, 2], [1, 0], r"\(2, 0\)"),
                             ([1, 1], [3, 8], r"\(1, 8\)")):
        with pytest.raises(ValueError, match=r"^\(cell, sub\) pair " + msg
                           + " out of range for 2 cells of 8 sub-cubes"):
            asm.add_increment(K, cells, subs, np.full(len(cells), -0.5),
                              np.zeros(asm.ndof))
        assert np.array_equal(K, before)
    asm.add_increment(K, [1, 1], [3, 3], [-0.25, -0.25], np.zeros(asm.ndof))
    fac = np.ones((2, 8))
    fac[1, 3] = 0.5
    assert _rel(K, asm.aggregate(fac)) <= 1e-12


def _two_cell_assembly():
    return Assembly(build_spline_model(lattice(2, 1, 1)[0]), "elasticity",
                    Material(1.0, 0.3), level=1)


@pytest.mark.parametrize("value, shown", [(-0.5, "-0.5"), (np.nan, "nan"),
                                          (np.inf, "inf")])
def test_aggregate_rejects_bad_factors(value, shown):
    # a negative factor gave a NaN stiffness under a RuntimeWarning, and a
    # NaN one passed silently
    asm = _two_cell_assembly()
    fac = np.ones((2, 8))
    fac[1, 3] = value
    fac[1, 5] = -1.0
    with pytest.raises(ValueError, match=r"^stiffness factor of \(cell, "
                       r"sub\) pair \(1, 3\) is %s; it must be finite and "
                       r">= 0$" % shown):
        asm.aggregate(fac)
    fac[1, 3] = fac[1, 5] = 0.0
    assert np.isfinite(asm.aggregate(fac)).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_add_increment_rejects_non_finite_increments(value):
    asm = _two_cell_assembly()
    K = asm.aggregate(np.ones((2, 8)))
    before = K.copy()
    with pytest.raises(ValueError, match=r"^stiffness factor increment of "
                       r"\(cell, sub\) pair \(0, 6\) is -?(nan|inf); it must "
                       r"be finite$"):
        asm.add_increment(K, [1, 0, 1], [2, 6, 4], [-0.5, value, -0.5],
                          np.zeros(asm.ndof))
    assert np.array_equal(K, before)


def test_sub_stiffness_rejects_non_finite_factors():
    asm = _two_cell_assembly()
    with pytest.raises(ValueError, match=r"^stiffness factor of \(cell, "
                       r"sub\) pair \(1, 7\) is nan; it must be finite$"):
        asm.sub_stiffness([0, 1], [2, 7], [-0.5, np.nan])


def test_add_increment_makes_one_gram_per_cell_and_sign(monkeypatch):
    # unsorted cells, one repeated pair, and cells 2 and 9 with increments
    # of both signs: the kernel yields one Gram per (cell, sign)
    asm = Assembly(_curved_model(), "elasticity", Material(1.0, 0.3), level=1)
    fac = _mixed_factors(asm, 4) + 0.5
    K = asm.aggregate(fac)
    cells = np.array([9, 2, 9, 15, 2, 0, 9, 9, 2])
    subs = np.array([1, 3, 0, 4, 3, 7, 5, 2, 6])
    df = np.array([-0.4, 0.3, 0.25, -0.1, -0.2, 1.5, -0.45, 0.05, -0.3])
    kernel = Assembly._gram_batches
    rows = []

    def counted(self, *args, **kwargs):
        for first, W in kernel(self, *args, **kwargs):
            rows.append(len(W))
            yield first, W

    monkeypatch.setattr(Assembly, "_gram_batches", counted)
    asm.add_increment(K, cells, subs, df, np.zeros(asm.ndof))
    assert sum(rows) == len(set(zip(cells, df < 0))) == 6
    new = fac.copy()
    np.add.at(new, (cells, subs), df)
    assert _rel(K, asm.aggregate(new)) <= 1e-12


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
                              np.full(n, -0.5), np.zeros(asm.ndof))
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
    net = _greville_net() @ A.T
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(one_cell_model(net), problem, mat, level=3)
    K = asm.aggregate(np.ones((1, asm.nsub)))[0]
    ref = _patch_stiffness(net, problem, mat)
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
    cg = assemble_and_solve(model, mat, bcs, "elasticity", rtol=1e-12)
    asm = Assembly(model, "elasticity", mat)
    lu = dense_solve(StiffnessOperator(
        asm, asm.aggregate(np.ones((asm.num_cells, 1))), bcs))
    assert cg.compliance > 0
    assert abs(cg.compliance - lu.compliance) <= 1e-9 * lu.compliance
    # zero Dirichlet values: compliance must equal (1/2) U^T F
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
    full = np.ones((2, 8))
    weak = full.copy()
    weak[1, :] = 0.3
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(lo=(0, -9, -9), hi=(0, 9, 9),
                                 components=(0, 1, 2), value=0.0)],
        loads=[LoadSpec(lo=(1, 0.5, 0.5), hi=(1, 0.5, 0.5),
                        vector=(0, 0, -1.0))])
    asm = Assembly(model, "elasticity", mat, level=1)

    def compliance(rho):
        K = asm.aggregate(density_factors(rho, mat))
        return solve_system(StiffnessOperator(asm, K, bcs),
                            rtol=1e-10).compliance

    c_full = compliance(full)
    c_weak = compliance(weak)
    assert c_weak > c_full
    f = density_factors(weak, mat)
    assert abs(f[1, 0] - (1e-9 + (1 - 1e-9) * 0.3 ** 3)) <= 1e-15
    assert abs(f[0, 0] - 1.0) <= 1e-15


def test_bc_validation():
    model, mat, _ = _cantilever_setup()
    with pytest.raises(ValueError, match="insufficient constraints"):
        assemble_and_solve(model, mat, BoundaryConditions(),
                           "elasticity")
    bad = BoundaryConditions(
        dirichlet=[DirichletSpec(components=(1,), value=0.0, **EVERYWHERE)])
    with pytest.raises(ValueError, match="component"):
        assemble_and_solve(model, mat, bad, "heat")
    bad2 = BoundaryConditions(
        dirichlet=[DirichletSpec(components=(0,), value=0.0, **EVERYWHERE)],
        loads=[LoadSpec(lo=(0, 0, 0), hi=(1, 1, 1), vector=(1.0, 0.0))])
    with pytest.raises(ValueError, match="load vector"):
        assemble_and_solve(model, mat, bad2, "heat")


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
    sol = assemble_and_solve(model, mat, bcs, "heat", rtol=1e-10)
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


@pytest.mark.parametrize("kind", ["load", "dirichlet"])
def test_box_that_selects_nothing_is_rejected(kind):
    # a load box beyond the model gave F = 0: compliance 0 after 0 CG
    # iterations, and a BESO run ranking its elements by id alone
    mesh, _ = lattice(2, 1, 1)
    asm = Assembly(build_spline_model(mesh), "elasticity",
                   Material(e0=1.0, nu=0.3))
    outside = dict(lo=(50, -BIG, -BIG), hi=(60, BIG, BIG))
    if kind == "load":
        specs = [LoadSpec(vector=(0, 0, -1.0), **b)
                 for b in (EVERYWHERE, outside)]
        bcs, call = BoundaryConditions(loads=specs), asm.load_vector
    else:
        specs = [DirichletSpec(components=(0,), **b)
                 for b in (EVERYWHERE, outside)]
        bcs, call = BoundaryConditions(dirichlet=specs), asm.dirichlet
    pattern = r"%s 1: box \[50\.0, .*\] to \[60\.0, .*\] selects no" % kind
    with pytest.raises(ValueError, match=pattern):
        call(bcs)
    with pytest.raises(ValueError, match=pattern):
        StiffnessOperator(asm, asm.aggregate(np.ones((asm.num_cells, 1))), bcs)


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


def test_two_level_preconditioner_matches_dense():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(model, "elasticity", mat)
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    op = StiffnessOperator(asm, K, bcs)
    pc = op.precond
    with pytest.raises(RuntimeError, match="refresh"):
        pc(np.ones(int(pc.free.sum())))
    pc.refresh(K)
    ref = dense_solve(op)
    two = solve_system(op, rtol=1e-10)
    assert np.allclose(two.u, ref.u, atol=1e-7 * np.abs(ref.u).max())
    assert abs(two.compliance - ref.compliance) <= 1e-8 * ref.compliance
    # 62 CG iterations (90 with unweighted blocks); point Jacobi takes 595
    # and no preconditioner 1142
    assert two.iterations <= 72


def test_two_level_refresh_with_density_factors_solves():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat)
    rng = np.random.default_rng(3)
    K = asm.aggregate(density_factors(
        rng.uniform(0.2, 1.0, (asm.num_cells, 1)), mat))
    op = StiffnessOperator(asm, K, bcs)
    pc = op.precond
    pc.refresh(K)
    sol = solve_system(op, rtol=1e-9)
    ref = dense_solve(op)
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
        loads=[LoadSpec((2.5, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0))])
    x = mesh.vertices[:, 0]
    assert not ((x >= 0.05) & (x <= 0.95)).any()
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    op = StiffnessOperator(asm, K, bcs)
    pc = op.precond
    pc.refresh(K)
    ref = dense_solve(op)
    two = solve_system(op, rtol=1e-10)
    assert two.iterations > 0
    assert np.allclose(two.u, ref.u, atol=1e-7 * np.abs(ref.u).max())
    assert abs(two.compliance - ref.compliance) <= 1e-8 * ref.compliance


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
    pc = StiffnessOperator(asm, K, bcs).precond
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
    A = Pf.T @ dense_stiffness(asm, K)[np.ix_(free, free)] @ Pf
    eye = np.eye(len(A))
    assert np.abs(pc.lu.solve(eye) @ A - eye).max() <= 1e-12


def _random_factors(asm, mat, seed):
    rho = np.random.default_rng(seed).uniform(0.2, 1.0,
                                              (asm.num_cells, asm.nsub))
    return density_factors(rho, mat)


def _check_symmetric_positive(pc, seed):
    """M is symmetric and positive definite, as CG needs, on random
    vectors."""
    rng = np.random.default_rng(seed)
    n = int(pc.free.sum())
    for _ in range(5):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        mx, my = pc(x), pc(y)
        # float32 blocks: agreement to single-precision rounding
        scale = np.linalg.norm(x) * np.linalg.norm(my)
        assert abs(x @ my - y @ mx) <= 1e-5 * scale
        assert x @ mx > 0


def test_two_level_preconditioner_symmetric():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 5)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs)
    pc = op.precond
    pc.refresh(op.K)
    assert pc.blocks.dtype == np.float32
    assert pc.blocks.shape == (asm.num_cells, 192, 192)
    assert np.array_equal(pc.blocks, pc.blocks.transpose(0, 2, 1))
    _check_symmetric_positive(pc, 11)


def test_two_level_update_matches_refresh_after_kills():
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 7)
    K = asm.aggregate(fac)
    pc = StiffnessOperator(asm, K, bcs).precond
    pc.refresh(K)
    before = pc.blocks.copy()
    # remove four sub-elements as a BESO kill does, two in one cell
    cells = np.array([0, 9, 9, 17])
    subs = np.array([3, 0, 6, 7])
    asm.add_increment(K, cells, subs, mat.mu_min - fac[cells, subs],
                      np.zeros(asm.ndof))
    pc.update(K, cells)
    fresh = TwoLevelPreconditioner(asm, pc.free)
    fresh.refresh(K)
    touched = np.unique(cells)
    assert not np.array_equal(before[touched], fresh.blocks[touched])
    assert np.array_equal(pc.blocks[touched], fresh.blocks[touched])
    others = np.setdiff1d(np.arange(asm.num_cells), touched)
    assert np.array_equal(pc.blocks[others], before[others])


def _weight_tables(asm):
    """w_c w_c^T for every cell c, w_c the weights m^(-1/2) of its dofs,
    m the number of cells holding each dof."""
    w = (np.bincount(asm.dofmap.ravel()) ** -0.5)[asm.dofmap]
    return w[:, :, None] * w[:, None, :]


def _check_blocks(pc, asm, K):
    """The block sweep run in float64 inverts every assembled block to
    1e-12; the stored blocks, swept in float32, are exactly symmetric and
    each is w_c w_c^T times the inverse of the assembled principal
    submatrix on its cell's dofs, to a relative Frobenius error of 2e-5.

    That bound is measured, not derived: the float32 sweep's error grows
    like eps_32 * kappa, up to 2e-3 at the kappa <= 3.6e4 of these
    blocks, yet it reached 5.1e-6 per block on the heat model and 9.6e-6
    on the elastic one (2.9e-8 for the float64 sweep cast to float32).
    Blocks without the weights are off by 0.18 or more, and without the
    symmetrisation they are not symmetric."""
    cells = np.arange(asm.num_cells)
    A = pc._cell_blocks(K, cells)
    X = A.copy()
    iga._gauss_jordan(X, cells, A)
    assert pc.blocks.dtype == np.float32
    assert np.array_equal(pc.blocks, pc.blocks.transpose(0, 2, 1))
    W = _weight_tables(asm)
    for c, block in enumerate(_assembled_blocks(asm, K, pc.free)):
        ref = np.linalg.inv(block)
        assert np.abs(X[c] - ref).max() <= 1e-12 * np.abs(ref).max()
        ref *= W[c]
        assert _rel(pc.blocks[c], ref) <= 2e-5


def test_two_level_heat_blocks_match_dense_assembly():
    # one dof per node: 64x64 blocks, each the weighted inverse of the
    # assembled principal submatrix on its cell's dofs (Dirichlet rows ->
    # identity).  The far end is held, so fixed dofs come last in their
    # cells' local order and both Dirichlet masks matter.
    mesh, model, _ = _beam()
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0,))],
        heat_source=1.0)
    mat = Material(e0=2.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "heat", mat, level=1)
    fac = _random_factors(asm, mat, 13)
    K = asm.aggregate(fac)
    op = StiffnessOperator(asm, K, bcs)
    pc = op.precond
    pc.refresh(K)
    assert pc.blocks.shape == (asm.num_cells, 64, 64)
    _check_blocks(pc, asm, K)
    ref = dense_solve(op)
    two = solve_system(op, rtol=1e-10)
    assert abs(two.compliance - ref.compliance) <= 1e-8 * ref.compliance
    # 35 CG iterations (50 with unweighted blocks); point Jacobi takes 438
    # and no preconditioner 1081
    assert two.iterations <= 42


def _assembled_blocks(asm, K, free):
    """Each cell's principal submatrix of the dense assembled stiffness,
    with Dirichlet rows and columns replaced by identity."""
    dense = dense_stiffness(asm, K)
    fixed = ~free
    dense[fixed] = 0.0
    dense[:, fixed] = 0.0
    dense[fixed, fixed] = 1.0
    return [dense[np.ix_(d, d)] for d in asm.dofmap]


def test_two_level_elastic_blocks_match_dense_assembly():
    # three dofs per node: 192x192 blocks, inverted by a sweep over three
    # 64-row pivot blocks, each inverted by the same sweep down to 16-row
    # leaves
    mesh, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 31)
    K = asm.aggregate(fac)
    pc = StiffnessOperator(asm, K, bcs).precond
    pc.refresh(K)
    assert pc.blocks.shape == (asm.num_cells, 192, 192)
    _check_blocks(pc, asm, K)


@pytest.mark.parametrize("coarse, most", [(lambda: wheel(5, 3), 10),
                                          (lambda: lattice(3, 2, 2), 8)],
                         ids=["wheel", "lattice"])
def test_two_level_weights_are_a_partition_of_unity(coarse, most):
    # the squared block weights of every dof sum to one over the cells
    # holding it, also on the wheel's valence-7 axis, held by 10 cells
    mesh, _ = subdivide(coarse()[0])
    asm = Assembly(build_spline_model(mesh), "elasticity",
                   Material(e0=1.0, nu=0.3))
    pc = TwoLevelPreconditioner(asm, np.ones(asm.ndof, dtype=bool))
    assert np.bincount(asm.dofmap.ravel()).max() == most
    w = pc._weight[asm.dofmap]
    total = np.bincount(asm.dofmap.ravel(), weights=(w * w).ravel())
    assert np.abs(total - 1.0).max() <= 1e-15


def test_two_level_cold_heat_solve_on_subdivided_wheel():
    # extraordinary vertices and 30 % of the sub-cubes void: 29 CG
    # iterations (51 with unweighted blocks)
    mesh, _ = subdivide(wheel(5, 3)[0])
    model = build_spline_model(mesh)
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "heat", mat, level=1)
    rng = np.random.default_rng(0)
    rho = (rng.random((asm.num_cells, asm.nsub)) >= 0.3).astype(float)
    bottom = model.points[:, 2].min() + 0.05
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec((-BIG, -BIG, -BIG), (BIG, BIG, bottom),
                                 (0,))],
        heat_source=1.0)
    op = StiffnessOperator(asm, asm.aggregate(density_factors(rho, mat)),
                           bcs)
    sol = solve_system(op, rtol=1e-8)
    ref = dense_solve(op)
    assert abs(sol.compliance - ref.compliance) <= 1e-9 * ref.compliance
    assert sol.iterations <= 33


def _spd_stack(n, count, seed):
    """`count` well-conditioned n x n matrices L D L^T, L unit lower
    triangular, D positive."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.uniform(-1, 1, (count, n, n)), -1) / np.sqrt(n)
    L += np.eye(n)
    D = rng.uniform(0.5, 2.0, (count, n))
    return L, D


@pytest.mark.parametrize("n", [64, 192])
@pytest.mark.parametrize("late", [20, -3])
def test_sweep_checks_every_leaf(n, late):
    # matrix 1 is positive definite on its leading rows up to `late` and
    # indefinite there: only the Cholesky check of a later leaf (rows 16-31,
    # or the last one) sees it, in float64 and in the float32 sweep of
    # _sweep_inverse alike
    L, D = _spd_stack(n, 3, 43 + n)
    D[1, late] = -0.5
    A = L @ (D[:, :, None] * L.transpose(0, 2, 1))
    k = late % n
    assert np.linalg.eigvalsh(A[1, :k, :k]).min() > 0
    assert np.linalg.eigvalsh(A[1]).min() < 0
    cells, w = [7, 11, 13], np.ones((3, n))
    indefinite = r"^cell 11: assembled block is not positive definite$"
    with pytest.raises(ValueError, match=indefinite):
        iga._gauss_jordan(A.copy(), cells, A)
    with pytest.raises(ValueError, match=indefinite):
        iga._sweep_inverse(A, cells, w)
    D[1, late] = 0.5
    A = L @ (D[:, :, None] * L.transpose(0, 2, 1))
    X = A.copy()
    iga._gauss_jordan(X, cells, A)
    assert _rel(X, np.linalg.inv(A)) <= 1e-12
    Y = iga._sweep_inverse(A, cells, w)
    assert Y.dtype == np.float32 and np.array_equal(Y, Y.transpose(0, 2, 1))
    assert _rel(Y, np.linalg.inv(A)) <= 1e-5


@pytest.mark.parametrize("n", [64, 192])
def test_sweep_tells_ill_conditioned_from_indefinite(n):
    # matrix 1 is positive definite (kappa 2e9), but rows 5 and 40 couple
    # by 1 - 1e-9, which float32 rounds to 1: the Schur complement of row
    # 40, in a later leaf than row 5, is 2e-9 in float64 and 0 in float32
    L, D = _spd_stack(n, 3, 53)
    A = L @ (D[:, :, None] * L.transpose(0, 2, 1))
    A[1] = np.eye(n)
    A[1, 5, 40] = A[1, 40, 5] = 1.0 - 1e-9
    np.linalg.cholesky(A[1])
    X = A.copy()
    iga._gauss_jordan(X, [7, 11, 13], A)
    assert _rel(X, np.linalg.inv(A)) <= 1e-6
    with pytest.raises(ValueError, match=r"^cell 11: assembled block is "
                       r"positive definite but too ill-conditioned for "
                       r"single precision$"):
        iga._sweep_inverse(A, [7, 11, 13], np.ones((3, n)))


@pytest.mark.parametrize("n", [64, 192])
def test_sweep_inverts_no_pivot_larger_than_a_leaf(monkeypatch, n):
    # LAPACK inverts only the 16-row leaves; everything above them is the
    # sweep's GEMMs
    L, D = _spd_stack(n, 4, 47)
    A = L @ (D[:, :, None] * L.transpose(0, 2, 1))
    ref = np.linalg.inv(A)
    inv = np.linalg.inv
    sizes, kinds = [], set()

    def recorded(a):
        sizes.append(a.shape[-1])
        kinds.add(a.dtype)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    X = A.copy()
    iga._gauss_jordan(X, np.arange(4), A)
    assert sizes and max(sizes) <= 16
    assert sum(sizes) == n
    assert _rel(X, ref) <= 1e-12
    # the same leaves in _sweep_inverse, in float32
    sizes.clear()
    kinds.clear()
    Y = iga._sweep_inverse(A, np.arange(4), np.ones((4, n)))
    assert sizes and max(sizes) <= 16
    assert sum(sizes) == n
    assert kinds == {np.dtype(np.float32)}
    assert _rel(Y, ref) <= 1e-5


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_two_level_names_indefinite_block(problem):
    mesh, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,))])
    asm = Assembly(model, problem, Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    K[9] *= -1.0
    pc = StiffnessOperator(asm, K, bcs).precond
    with pytest.raises(ValueError, match=r"cell (\d+): assembled block is "
                       r"not positive definite") as err:
        pc.refresh(K)
    cell = int(re.search(r"cell (\d+)", str(err.value)).group(1))
    block = _assembled_blocks(asm, K, pc.free)[cell]
    assert np.linalg.eigvalsh(block).min() < 0


@pytest.mark.parametrize("problem", ["heat", "elasticity"])
def test_solve_names_indefinite_cell(problem):
    # the preconditioner's block sweep is the solve's only check of K_ff:
    # a negated cell makes its own assembled block negative on the diagonal
    mesh, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,))], heat_source=1.0)
    asm = Assembly(model, problem, Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    K[9] *= -1.0
    op = StiffnessOperator(asm, K, bcs)
    free = op.free[asm.dofmap[9]]
    assert (np.diagonal(_assembled_blocks(asm, K, op.free)[9])[free]
            < 0).any()
    with pytest.raises(ValueError, match=r"^cell (\d+): assembled block is "
                       r"not positive definite$") as err:
        solve_system(op, rtol=1e-8)
    # the named block holds some of cell 9's dofs
    cell = int(re.search(r"cell (\d+)", str(err.value)).group(1))
    assert np.intersect1d(model.cell_nodes[cell], model.cell_nodes[9]).size


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
    ref = assemble_and_solve(model, mat, bcs, "elasticity", rtol=1e-12)
    f32 = assemble_and_solve(model, mat, bcs, "elasticity", rtol=1e-6,
                             single_precision=True)
    assert f32.u.dtype == np.float64
    assert f32.residual <= 1e-6  # float64-verified, not the f32 recurrence
    assert abs(f32.compliance - ref.compliance) <= 1e-4 * ref.compliance
    # float64 restarts recover tolerances far below the float32 floor
    deep = assemble_and_solve(model, mat, bcs, "elasticity", rtol=1e-10,
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
                           single_precision=True)
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
        # touched cells rebuilt before every solve, the coarse matrix
        # refactorized every 8th
        fresh = TwoLevelPreconditioner(asm, pc.free)
        fresh.refresh(op.K)
        touched = np.unique(kill // asm.nsub)
        assert np.array_equal(pc.blocks[touched], fresh.blocks[touched])
        assert (pc.lu is first) == (k < 8)
    fac.reshape(-1)[~alive] = 0.05
    assert np.array_equal(op.factors, fac)
    assert _rel(op.K, asm.aggregate(fac)) <= 1e-12


def test_operator_rejects_bad_pairs_before_patching():
    # a negative id used to wrap around, and a repeated pair left K off
    # the aggregate of the stored factors
    _, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 59)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac,
                           single_precision=True)
    solve_system(op)
    K, K32 = op.K.copy(), op.K32.copy()
    r, u = op.r.copy(), op.u.copy()
    n = asm.num_cells
    for cells, subs, msg in (
            ([0, -1], [2, -1], r"\(-1, -1\) out of range"),
            ([1, n], [0, 0], r"\(%d, 0\) out of range" % n),
            ([2, 0], [1, 8], r"\(0, 8\) out of range"),
            ([0, 5, 0], [3, 1, 3], r"\(0, 3\) is listed more than once")):
        with pytest.raises(ValueError, match=r"^\(cell, sub\) pair " + msg):
            op.set_factors(cells, subs, np.full(len(cells), 0.5))
    assert np.array_equal(op.K, K) and np.array_equal(op.K32, K32)
    assert np.array_equal(op.factors, fac) and not op._touched
    assert np.array_equal(op.r, r) and np.array_equal(op.u, u)


@pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (-0.25, "-0.25"),
                                          (np.inf, "inf")])
def test_operator_rejects_bad_factors_before_patching(value, shown):
    # a NaN factor used to reach K, and the next solve died in the coarse
    # factorization ("Factor is exactly singular")
    _, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 61)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac,
                           single_precision=True)
    solve_system(op)
    K, K32 = op.K.copy(), op.K32.copy()
    r, u = op.r.copy(), op.u.copy()
    with pytest.raises(ValueError, match=r"^stiffness factor of \(cell, sub\) "
                       r"pair \(5, 1\) is %s; it must be finite and >= 0$"
                       % shown):
        op.set_factors([0, 5], [3, 1], [0.5, value])
    assert np.array_equal(op.K, K) and np.array_equal(op.K32, K32)
    assert np.array_equal(op.factors, fac) and not op._touched
    assert np.array_equal(op.r, r) and np.array_equal(op.u, u)
    op.set_factors([0, 5], [3, 1], [0.5, 0.0])
    assert solve_system(op).residual <= 1e-8


def test_refresh_and_mirror_independent_of_batch_size(monkeypatch):
    # at a budget of one byte the coarse products of refresh and the
    # block builds run one cell per batch (set_factors re-casts K32 one
    # cell at a time anyway); one pair per cell keeps the increments
    # themselves batch-free
    _, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 61)
    K = asm.aggregate(fac)
    cells, subs = np.array([17, 0, 9, 5, 23]), np.array([7, 3, 6, 0, 2])
    runs = []
    for budget in (iga._GRAM_BATCH_BYTES, 1):
        monkeypatch.setattr(iga, "_GRAM_BATCH_BYTES", budget)
        op = StiffnessOperator(asm, K.copy(), bcs, fac.copy(),
                               single_precision=True)
        op.set_factors(cells, subs, np.full(len(cells), mat.mu_min))
        pc = op.precond
        pc.refresh(op.K)
        rhs = np.random.default_rng(67).standard_normal(pc.lu.shape[0])
        runs.append((op.K, op.K32, pc.blocks, pc.lu.solve(rhs)))
    for ref, small in zip(*runs):
        assert np.array_equal(small, ref)


def test_operator_rebuilds_only_touched_blocks():
    # BESO-style kills through 2 * _REFRESH_EVERY + 1 solves: the first
    # builds every block; each later one rebuilds the touched cells'
    # blocks as a fresh build does and leaves every other block as it
    # was, and every _REFRESH_EVERY solves the coarse matrix is that of
    # the current K
    _, model, bcs = _beam()
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, "elasticity", mat, level=1)
    fac = _random_factors(asm, mat, 37)
    op = StiffnessOperator(asm, asm.aggregate(fac), bcs, fac)
    pc = op.precond
    rng = np.random.default_rng(41)
    pairs = rng.permutation(fac.size)
    lu = None
    for k in range(2 * iga._REFRESH_EVERY + 1):
        touched = np.zeros(0, dtype=np.int64)
        if k:
            kill = pairs[3 * k - 3:3 * k]
            op.set_factors(kill // asm.nsub, kill % asm.nsub,
                           np.full(3, mat.mu_min))
            touched = np.unique(kill // asm.nsub)
        before = pc.blocks.copy()
        op.prepare()
        fresh = TwoLevelPreconditioner(asm, pc.free)
        fresh.refresh(op.K)
        if k:
            others = np.setdiff1d(np.arange(asm.num_cells), touched)
            assert np.array_equal(pc.blocks[touched], fresh.blocks[touched])
            assert np.array_equal(pc.blocks[others], before[others])
        else:
            assert np.array_equal(pc.blocks, fresh.blocks)
        refreshed = k % iga._REFRESH_EVERY == 0
        assert (pc.lu is not lu) == refreshed
        lu = pc.lu
        if refreshed:
            rhs = rng.standard_normal(lu.shape[0])
            assert np.array_equal(lu.solve(rhs), fresh.lu.solve(rhs))
        _check_symmetric_positive(pc, k)
    # the kills changed the assembled blocks of untouched neighbours, so
    # the run did test that their blocks were kept
    assert not np.array_equal(pc.blocks, fresh.blocks)


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
    op = StiffnessOperator(asm, K, bcs)
    dofs, _ = asm.dirichlet(bcs)
    free = np.ones(asm.ndof, dtype=bool)
    free[dofs] = False
    assert 0 < len(dofs) and np.array_equal(op.free, free)
    assert op.precond.free is op.free
    assert op.precond.P.shape[0] == int(free.sum())


def test_dense_solve_builds_no_preconditioner():
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    op = StiffnessOperator(asm, asm.aggregate(np.ones((asm.num_cells, 1))),
                           bcs)
    dense = dense_solve(op)
    assert "precond" not in vars(op)
    cg = solve_system(op, rtol=1e-10)
    assert isinstance(vars(op)["precond"], TwoLevelPreconditioner)
    assert abs(cg.compliance - dense.compliance) <= 1e-8 * dense.compliance


def test_operator_resolves_boundary_conditions_once(monkeypatch):
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    K = asm.aggregate(np.ones((asm.num_cells, 1)))
    calls = []
    for name in ("dirichlet", "load_vector"):
        method = getattr(asm, name)
        monkeypatch.setattr(asm, name, lambda bcs, name=name, method=method:
                            calls.append(name) or method(bcs))
    op = StiffnessOperator(asm, K, bcs)
    first = solve_system(op, rtol=1e-8)
    again = solve_system(op, rtol=1e-8, x0=first.u.reshape(-1))
    assert sorted(calls) == ["dirichlet", "load_vector"]
    assert again.iterations == 0
    assert abs(again.compliance - first.compliance) <= 1e-8 * first.compliance


def _beam_operator():
    _, model, bcs = _beam()
    asm = Assembly(model, "elasticity", Material(e0=1.0, nu=0.3))
    return StiffnessOperator(asm, asm.aggregate(np.ones((asm.num_cells, 1))),
                             bcs)


def test_warm_start_takes_solution_shape():
    op = _beam_operator()
    first = solve_system(op, rtol=1e-8)
    assert first.u.shape == (op.assembly.model.num_control_points, 3)
    again = solve_system(op, rtol=1e-8, x0=first.u)
    assert again.iterations == 0
    assert np.array_equal(again.u, first.u)


@pytest.mark.parametrize("shape", [(-1,), (1, -1), (-1, 1), (-1, 3, 1)])
def test_warm_start_of_another_shape_is_rejected(shape):
    op = _beam_operator()
    asm = op.assembly
    x0 = np.zeros(asm.ndof - 3 if shape == (-1,) else asm.ndof).reshape(shape)
    pattern = r"^x0 must have shape \(%d,\) or \(%d, 3\), got \(" % (
        asm.ndof, asm.model.num_control_points)
    with pytest.raises(ValueError, match=pattern):
        solve_system(op, x0=x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_warm_start_not_finite_is_rejected(bad, monkeypatch):
    op = _beam_operator()
    x0 = np.zeros((op.assembly.model.num_control_points, 3))
    x0[57, 2] = bad
    x0[60, 0] = bad
    # rejected where it enters, before any matvec
    monkeypatch.setattr(op.assembly, "matvec", None)
    for x in (x0.reshape(-1), x0):
        with pytest.raises(ValueError, match=r"^x0 is not finite at control "
                           r"point 57, component 2: %s$" % bad):
            solve_system(op, x0=x)


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


_CARRIED = [("heat", 0.0), ("heat", 2.5), ("elasticity", 0.0),
            ("elasticity", 0.01)]


def _carried_operators(problem, value, single, count=1):
    """`count` equal operators with random density factors on the beam,
    their Dirichlet dofs held at `value`."""
    _, model, bcs = _beam()
    if problem == "heat":
        bcs = BoundaryConditions(heat_source=1.0, dirichlet=[DirichletSpec(
            (-BIG, -BIG, -BIG), (0.3, BIG, BIG), (0,), value=value)])
    else:
        bcs = replace(bcs, dirichlet=[replace(bcs.dirichlet[0], value=value)])
    mat = Material(e0=1.0, nu=0.3, mu_min=1e-2)
    asm = Assembly(model, problem, mat, level=1)
    fac = _random_factors(asm, mat, 73)
    K = asm.aggregate(fac)
    return [StiffnessOperator(asm, K.copy(), bcs, fac, single_precision=single)
            for _ in range(count)]


def _kill(op, rng, n=7):
    """Set n random (cell, sub) pairs to the factor 1e-2."""
    nsub = op.assembly.nsub
    pick = rng.choice(op.factors.size, n, replace=False)
    op.set_factors(pick // nsub, pick % nsub, np.full(n, 1e-2))


@pytest.mark.parametrize("problem, value", _CARRIED)
def test_carried_residual_follows_kills(problem, value):
    # the residual (F - K u)[free] of the last solution u, patched by each
    # set_factors, equals a fresh float64 one.  The bound is relative to
    # |K| |u|, the scale of the rounding of K u itself, not to |F|: on the
    # elastic beam |K| |u| is 3e5 |F|, and patched and fresh residuals
    # differ by up to 2.8e-11 |F| there (1.7e-13 |F| on heat), that is
    # 1.1e-16 |K| |u| at most
    op, = _carried_operators(problem, value, single=problem == "elasticity")
    asm = op.assembly
    rng = np.random.default_rng(79)

    def check():
        fresh = (op.F - asm.matvec(op.K, op.u))[op.free]
        scale = np.linalg.norm(asm.matvec(np.abs(op.K), np.abs(op.u)))
        assert np.linalg.norm(op.r - fresh) <= 1e-13 * scale

    # before any solve: the lift, whose residual is the right-hand side
    assert np.array_equal(op.u, op.g)
    assert np.array_equal(op.r, (op.F - asm.matvec(op.K, op.g))[op.free])
    _kill(op, rng)
    check()
    for _ in range(3):
        sol = solve_system(op, rtol=1e-9, x0=op.u)
        assert np.array_equal(op.u, sol.u.reshape(-1))
        check()
        _kill(op, rng)
        _kill(op, rng)
        check()


@pytest.mark.parametrize("problem, value", _CARRIED)
def test_warm_solve_from_the_last_solution_skips_a_pass(problem, value,
                                                       monkeypatch):
    # two equal operators, solved and killed alike, then warm-started from
    # the last solution: by value, which takes the carried residual, or
    # one ulp away on a free dof, which evaluates it first, as every warm
    # start did before residuals were carried.  Each float32 sweep is
    # followed by one float64 residual evaluation, so the first solve
    # makes as many evaluations as sweeps and the second one more.
    ops = _carried_operators(problem, value, single=True, count=2)
    asm = ops[0].assembly
    free_matvec = asm.free_matvec
    calls = []

    def counted(K_cells, free, uf):
        calls.append(K_cells)
        return free_matvec(K_cells, free, uf)

    def passes(op):
        """'E' per float64 pass and 'S' per float32 sweep pass, in order."""
        kinds = "".join("E" if K is op.K else "S" for K in calls
                        if K is op.K or K is op.K32)
        calls.clear()
        return kinds

    monkeypatch.setattr(asm, "free_matvec", counted)
    runs = []
    for k, op in enumerate(ops):
        cold = solve_system(op, rtol=1e-9)
        # a cold start begins from b itself: a sweep comes first
        assert passes(op)[0] == "S" and cold.restarts >= 1
        _kill(op, np.random.default_rng(83))
        x0 = op.u.copy()
        if k:
            i = np.flatnonzero(op.free)[len(x0) // 3]
            x0[i] = np.nextafter(x0[i], np.inf)
        warm = solve_system(op, rtol=1e-9, x0=x0)
        kinds = passes(op)
        assert warm.residual <= 1e-9 and warm.iterations > 0
        assert kinds.count("E") == warm.restarts
        runs.append((kinds, len(re.findall("S+", kinds))))
    (carried, sweeps), (evaluated, more) = runs
    assert carried[0] == "S" and carried.count("E") == sweeps
    assert evaluated[0] == "E" and evaluated.count("E") == more + 1


@pytest.mark.parametrize("problem, value", _CARRIED)
def test_warm_solve_after_K_changed_in_place(problem, value):
    # K changed behind the operator's back leaves its carried residual
    # stale; the warm solve from the last solution costs more, but still
    # returns a solution within rtol of the dense solve's system
    op, = _carried_operators(problem, value, single=problem == "elasticity")
    asm = op.assembly
    first = solve_system(op, rtol=1e-9)
    op.K[[3, 10]] *= 0.5
    if op.K32 is not None:
        op.K32[...] = op.K
    sol = solve_system(op, rtol=1e-9, x0=first.u)
    ref = dense_solve(op)
    dense = dense_stiffness(asm, op.K)[np.ix_(op.free, op.free)]
    b = (op.F - asm.matvec(op.K, op.g))[op.free]
    x = sol.u.reshape(-1)[op.free]
    assert sol.iterations > 0
    assert np.linalg.norm(b - dense @ x) <= 1e-9 * np.linalg.norm(b)
    assert abs(sol.compliance - ref.compliance) <= 1e-8 * abs(ref.compliance)


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
    pc = StiffnessOperator(asm, K, bcs).precond
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
