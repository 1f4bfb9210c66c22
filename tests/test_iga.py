import numpy as np
import pytest

from ccsolid.hexmesh import CORNER_OFFSETS
from ccsolid.iga import (Assembly, BoundaryConditions, DirichletSpec,
                         LoadSpec, Material, Solution,
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
    a = solve_system(asm, K1, bcs, rtol=1e-10)
    b = solve_system(asm, K2, bcs, rtol=1e-10)
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
    sol = assemble_and_solve(model, None, mat, bcs, "heat", rtol=1e-10)
    assert sol.compliance > 0


# ----------------------------------------- two-level / single precision

def test_trilinear_companion_element():
    from ccsolid.iga import _trilinear_stiffness
    rng = np.random.default_rng(11)
    X0 = np.asarray(CORNER_OFFSETS, dtype=float)
    X = np.stack([X0, X0 + 0.15 * rng.standard_normal((8, 3))])
    mat = Material(e0=2.0, nu=0.3)
    K = _trilinear_stiffness(X, np.array([1.0, 1.0]), "elasticity", mat)
    assert np.allclose(K, K.transpose(0, 2, 1), atol=1e-12)
    # translations and linearized rotations carry no strain energy
    modes = np.zeros((6, 8, 3))
    modes[:3] = np.eye(3)[:, None, :]
    for a, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)]):
        modes[3 + a, :, i] = X[1][:, j]
        modes[3 + a, :, j] = -X[1][:, i]
    for m in modes:
        assert abs(m.reshape(24) @ K[1] @ m.reshape(24)) <= 1e-10
    H = _trilinear_stiffness(X, np.array([1.0, 1.0]), "heat", mat)
    assert np.allclose(H.sum(axis=2), 0.0, atol=1e-12)
    # T = x on the unit cube: energy = conductivity * volume
    t = X0[:, 0]
    assert np.isclose(t @ H[0] @ t, 2.0, rtol=1e-12)
    # element scale factors multiply straight through
    Kh = _trilinear_stiffness(X, np.array([0.5, 0.25]), "elasticity", mat)
    assert np.allclose(Kh[0], 0.5 * K[0], rtol=1e-13)
    assert np.allclose(Kh[1], 0.25 * K[1], rtol=1e-13)


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
    pc = TwoLevelPreconditioner(asm, mesh, bcs)
    with pytest.raises(RuntimeError, match="refresh"):
        pc(np.ones(int(pc.free.sum())))
    pc.refresh(K)
    jac = solve_system(asm, K, bcs, rtol=1e-10)
    two = solve_system(asm, K, bcs, rtol=1e-10, precond=pc)
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
    pc = TwoLevelPreconditioner(asm, mesh, bcs)
    pc.refresh(K, density_factors(Rho(), mat))
    sol = solve_system(asm, K, bcs, rtol=1e-9, precond=pc)
    ref = solve_system(asm, K, bcs, rtol=1e-11)
    assert abs(sol.compliance - ref.compliance) <= 1e-7 * ref.compliance


def test_two_level_needs_vertex_constraints():
    mesh, _ = lattice(3, 1, 1)
    model = build_spline_model(mesh)
    mat = Material(e0=1.0, nu=0.3)
    asm = Assembly(model, "elasticity", mat)
    # box thin enough to catch interior control points but no mesh vertex
    bad = BoundaryConditions(
        dirichlet=[DirichletSpec((0.05, -BIG, -BIG), (0.95, BIG, BIG),
                                 (0, 1, 2))],
        loads=[LoadSpec((2.7, -BIG, -BIG), (BIG, BIG, BIG), (0, 0, -1.0))])
    with pytest.raises(ValueError, match="no mesh vertex"):
        TwoLevelPreconditioner(asm, mesh, bcs=bad)


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
    pc = TwoLevelPreconditioner(asm, mesh, bcs)
    pc.refresh(asm.aggregate(fac), fac)
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
    pc = TwoLevelPreconditioner(asm, mesh, bcs)
    pc.refresh(K, fac)
    before = pc.blocks.copy()
    # remove four sub-elements as a BESO kill does, two in one cell
    cells = np.array([0, 9, 9, 17])
    subs = np.array([3, 0, 6, 7])
    asm.add_increment(K, cells, subs, mat.mu_min - fac[cells, subs])
    pc.update(K, cells)
    fresh = TwoLevelPreconditioner(asm, mesh, bcs)
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
    pc = TwoLevelPreconditioner(asm, mesh, bcs)
    pc.refresh(K, fac)
    assert pc.blocks.shape == (asm.num_cells, 64, 64)
    dense = np.zeros((asm.ndof, asm.ndof))
    for c in range(asm.num_cells):
        dense[np.ix_(asm.dofmap[c], asm.dofmap[c])] += K[c]
    fixed = ~pc.free
    dense[fixed] = 0.0
    dense[:, fixed] = 0.0
    dense[fixed, fixed] = 1.0
    for c in range(asm.num_cells):
        ref = np.linalg.inv(dense[np.ix_(asm.dofmap[c], asm.dofmap[c])])
        assert np.allclose(pc.blocks[c], ref, rtol=1e-5,
                           atol=1e-6 * np.abs(ref).max())
    jac = solve_system(asm, K, bcs, rtol=1e-10)
    two = solve_system(asm, K, bcs, rtol=1e-10, precond=pc)
    assert abs(two.compliance - jac.compliance) <= 1e-8 * jac.compliance
    assert two.iterations < jac.iterations


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
