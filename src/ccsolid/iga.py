"""Isogeometric heat and elasticity analysis on the Bezier model.

The solution space is the model's own tricubic Bernstein basis (64 nodes
per cell, shared across faces).  Element integrals use tensor-product
Gauss-Legendre quadrature; sub-element stiffness matrices integrate the
*parent* basis over a dyadic parametric sub-cube [i,i+1]x[j,j+1]x[k,k+1]
/ 2^level so that densities can live on a finer grid than the analysis
mesh.  Per quadrature point the elasticity integrand factors as

    B_i^T D B_j = lam g_i g_j^T + mu (g_j g_i^T + (g_i . g_j) I)

with g_i the physical shape gradients, so each element matrix is one
Gram product of the gradient vectors plus cheap reshuffles; assembly and
the conjugate-gradient matvec stay allocation-light and deterministic.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .hexmesh import CORNER_OFFSETS
from .spline import SplineModel, _bernstein, _bernstein_deriv

_PROBLEMS = ("heat", "elasticity")


@dataclass
class Material:
    """Isotropic material with penalization parameters.

    e0 is Young's modulus (heat problems read it as conductivity), p the
    penalization exponent and mu_min the relative modulus floor kept on
    removed elements.
    """
    e0: float
    nu: float
    p: float = 3.0
    mu_min: float = 1e-9

    def __post_init__(self):
        if self.e0 <= 0:
            raise ValueError("Young's modulus must be positive")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("Poisson ratio must satisfy 0 <= nu < 0.5")
        if self.p < 1.0:
            raise ValueError("penalization exponent must be >= 1")
        if not 0.0 < self.mu_min < 1.0:
            raise ValueError("mu_min must lie in (0, 1)")

    @property
    def lam(self):
        return self.nu * self.e0 / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self):
        return self.e0 / (2.0 * (1.0 + self.nu))


@dataclass
class DirichletSpec:
    """Fixes `components` of every control point inside the box to `value`."""
    lo: np.ndarray
    hi: np.ndarray
    components: tuple
    value: float = 0.0

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != (3,) or self.hi.shape != (3,):
            raise ValueError("box bounds must be 3-vectors")
        if (self.lo > self.hi).any():
            raise ValueError("box has lo > hi")
        self.components = tuple(int(c) for c in self.components)


@dataclass
class LoadSpec:
    """Adds `vector` to the load of every control point inside the box."""
    lo: np.ndarray
    hi: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.vector = np.atleast_1d(np.asarray(self.vector, dtype=float))
        if (self.lo > self.hi).any():
            raise ValueError("box has lo > hi")


@dataclass
class BoundaryConditions:
    dirichlet: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    heat_source: float = 0.0


@dataclass
class Solution:
    """u has one row per control point (1 column for heat, 3 for
    elasticity); compliance is (1/2) U^T K U."""
    u: np.ndarray
    compliance: float
    iterations: int
    residual: float


def _box_mask(points, lo, hi, tol=1e-9):
    return ((points >= lo - tol) & (points <= hi + tol)).all(axis=1)


def _gauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=32)
def _quad_tables(level, order):
    """Per sub-cube: quadrature weights (with the 1/8^level measure),
    parent-basis values N and parameter gradients Ghat at the mapped
    points.  Sub-cube (i, j, k) has index (i*2^level + j)*2^level + k."""
    x, w = _gauss01(order)
    m = 2 ** level
    npts = order ** 3
    wts = (np.einsum("i,j,k->ijk", w, w, w).reshape(npts) / m ** 3)
    N = np.empty((m ** 3, npts, 64))
    Ghat = np.empty((m ** 3, npts, 64, 3))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                u, v, t = (i + x) / m, (j + x) / m, (k + x) / m
                B = [_bernstein(u), _bernstein(v), _bernstein(t)]
                D = [_bernstein_deriv(u), _bernstein_deriv(v),
                     _bernstein_deriv(t)]
                s = (i * m + j) * m + k
                N[s] = np.einsum("ia,jb,kc->ijkabc", *B).reshape(npts, 64)
                for ax in range(3):
                    F = list(B)
                    F[ax] = D[ax]
                    Ghat[s, :, :, ax] = np.einsum(
                        "ia,jb,kc->ijkabc", *F).reshape(npts, 64)
    for a in (wts, N, Ghat):
        a.setflags(write=False)
    return wts, N, Ghat


class Assembly:
    """Precomputed quadrature data of a model at one density level.

    Holds |det J| and J^{-1} at every (cell, sub-cube, point), the
    cell-to-dof map, and batched routines for unit-density sub-element
    stiffness, aggregation over density factors, matvec, and strain-energy
    evaluation.  All reductions run in a fixed order, so repeated
    assemblies are bit-identical.
    """

    def __init__(self, model, problem, mat=None, level=0, quad_order=4):
        if problem not in _PROBLEMS:
            raise ValueError("problem must be one of %s" % (_PROBLEMS,))
        if problem == "elasticity" and mat is None:
            raise ValueError("elasticity requires a Material")
        if level < 0:
            raise ValueError("level must be >= 0")
        self.model = model
        self.problem = problem
        self.mat = mat
        self.level = level
        self.quad_order = quad_order
        self.nsub = 8 ** level
        self.dpn = 3 if problem == "elasticity" else 1
        self.nd = 64 * self.dpn
        self.ndof = self.dpn * model.num_control_points

        self._w, self._N, self._Ghat = _quad_tables(level, quad_order)
        nets = model.points[model.cell_nodes]                 # (nc, 64, 3)
        # plain einsum keeps a batch-size-independent summation order, so a
        # one-cell assembly matches the batched path bit for bit
        J = np.einsum("cnd,spne->cspde", nets, self._Ghat)
        self.detJ = np.linalg.det(J)
        if (self.detJ <= 0).any():
            c, s, p = np.unravel_index(np.argmin(self.detJ), self.detJ.shape)
            raise ValueError(
                "non-positive Jacobian in cell %d (sub-element %d, "
                "quadrature point %d): det J = %g" % (c, s, p, self.detJ[c, s, p]))
        self.invJ = np.linalg.inv(J)
        self._nets = nets
        self.sub_volumes = np.einsum("csp,p->cs", self.detJ, self._w)

        nodes = model.cell_nodes
        if self.dpn == 1:
            self.dofmap = np.array(nodes)
        else:
            self.dofmap = (3 * nodes[:, :, None]
                           + np.arange(3)).reshape(len(nodes), self.nd)

    @property
    def num_cells(self):
        return self.model.num_cells

    def _grams(self, cells, subs, scale):
        """Weighted gradient Gram matrices W for (cell, sub) pairs.

        W[m] = sum_pt w detJ scale q q^T with q the flattened physical
        gradients; for heat the contraction runs directly over the 64
        nodes, giving the stiffness itself.
        """
        G = np.einsum("mpne,mpef->mpnf",
                      self._Ghat[subs], self.invJ[cells, subs])
        s = self._w[None, :] * self.detJ[cells, subs] * scale[:, None]
        G *= np.sqrt(s)[:, :, None, None]
        m, npts = G.shape[:2]
        if self.dpn == 1:
            Q = G.transpose(0, 2, 1, 3).reshape(m, 64, npts * 3)
        else:
            Q = G.reshape(m, npts, 192).transpose(0, 2, 1)
        return Q @ Q.transpose(0, 2, 1)

    def _expand(self, W):
        """Turn gradient Grams into stiffness matrices."""
        if self.problem == "heat":
            k0 = self.mat.e0 if self.mat is not None else 1.0
            return k0 * W
        lam, mu = self.mat.lam, self.mat.mu
        m = len(W)
        W4 = W.reshape(m, 64, 3, 64, 3)
        K = lam * W + mu * W4.transpose(0, 3, 2, 1, 4).reshape(m, 192, 192)
        A = mu * np.einsum("midjd->mij", W4)
        for d in range(3):
            K[:, d::3, d::3] += A
        return K

    def sub_stiffness(self, cells, subs, factors=None):
        """Stiffness of the given (cell, sub-cube) pairs, optionally scaled
        by per-pair density factors (negative factors allowed, e.g. for
        incremental stiffness removal)."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        scale = (np.ones(len(cells)) if factors is None
                 else np.asarray(factors, dtype=float))
        # the factor folds into the Gram under a square root; carry the
        # sign outside
        K = self._expand(self._grams(cells, subs, np.abs(scale)))
        return np.sign(scale)[:, None, None] * K

    def aggregate(self, factors, chunk=128):
        """Per-cell stiffness sum_s factors[c, s] * K0_{c,s}, (nc, nd, nd)."""
        factors = np.asarray(factors, dtype=float)
        nc = self.num_cells
        out = np.empty((nc, self.nd, self.nd))
        all_subs = np.arange(self.nsub)
        for start in range(0, nc, chunk):
            sel = np.arange(start, min(start + chunk, nc))
            cells = np.repeat(sel, self.nsub)
            subs = np.tile(all_subs, len(sel))
            W = self._grams(cells, subs, factors[sel].reshape(-1))
            W = W.reshape(len(sel), self.nsub, self.nd, self.nd).sum(axis=1)
            out[sel] = self._expand(W)
        return out

    def add_increment(self, K_cells, cells, subs, dfactors):
        """K_cells[c] += dfactor * K0_{c,s} for each listed pair (in place)."""
        if not len(cells):
            return
        delta = self.sub_stiffness(cells, subs, dfactors)
        np.add.at(K_cells, np.asarray(cells, dtype=np.int64), delta)

    def matvec(self, K_cells, u):
        ue = u[self.dofmap]
        if ue.dtype != K_cells.dtype:
            # keep a float32 operator in float32: mixed-dtype matmul would
            # silently upcast (and copy) the whole stiffness block
            ue = ue.astype(K_cells.dtype)
        ve = np.matmul(K_cells, ue[:, :, None])[:, :, 0]
        return np.bincount(self.dofmap.ravel(), weights=ve.ravel(),
                           minlength=self.ndof)

    def diagonal(self, K_cells):
        d = np.einsum("cii->ci", K_cells)
        return np.bincount(self.dofmap.ravel(), weights=d.ravel(),
                           minlength=self.ndof)

    def sub_energies(self, u):
        """Unit-density energies u_e^T K0_{c,s} u_e for every (cell, sub)."""
        ue = u[self.dofmap]
        if self.dpn == 1:
            grad = np.einsum("spne,cspef,cn->cspf",
                             self._Ghat, self.invJ, ue, optimize=True)
            dens = (self.mat.e0 if self.mat is not None else 1.0) \
                * (grad ** 2).sum(axis=-1)
        else:
            un = ue.reshape(len(ue), 64, 3)
            H = np.einsum("spne,cspef,cnd->cspfd", self._Ghat, self.invJ, un,
                          optimize=True)
            lam, mu = self.mat.lam, self.mat.mu
            tr = np.einsum("cspdd->csp", H)
            dens = (lam * tr ** 2
                    + mu * (np.einsum("cspfd,cspdf->csp", H, H)
                            + (H ** 2).sum(axis=(-2, -1))))
        return np.einsum("p,csp,csp->cs", self._w, self.detJ, dens)

    def load_vector(self, bcs):
        F = np.zeros(self.ndof)
        for load in bcs.loads:
            vec = load.vector
            if len(vec) != self.dpn:
                raise ValueError("load vector must have %d component(s)"
                                 % self.dpn)
            idx = np.flatnonzero(_box_mask(self.model.points, load.lo, load.hi))
            for comp in range(self.dpn):
                F[self.dpn * idx + comp] += vec[comp]
        if bcs.heat_source and self.problem == "heat":
            fe = bcs.heat_source * np.einsum(
                "p,csp,spn->cn", self._w, self.detJ, self._N)
            F += np.bincount(self.dofmap.ravel(), weights=fe.ravel(),
                             minlength=self.ndof)
        return F

    def dirichlet(self, bcs):
        """(dofs, values) from the dirichlet specs; later specs win."""
        fixed = {}
        for spec in bcs.dirichlet:
            bad = [c for c in spec.components if not 0 <= c < self.dpn]
            if bad:
                raise ValueError("dirichlet component %s invalid for %s"
                                 % (bad, self.problem))
            idx = np.flatnonzero(_box_mask(self.model.points, spec.lo, spec.hi))
            for comp in spec.components:
                for i in idx:
                    fixed[self.dpn * i + comp] = spec.value
        dofs = np.array(sorted(fixed), dtype=np.int64)
        vals = np.array([fixed[d] for d in dofs])
        return dofs, vals


def _pcg_core(matvec, b, precond, x0, rtol, maxiter):
    """Preconditioned conjugate gradients.

    Returns (x, iterations, relres, status) with status one of
    "converged", "breakdown" (p^T K p <= 0) or "maxiter".  `precond` is
    either a vector of inverse-diagonal entries or a callable applying a
    full M^-1.
    """
    apply_m = precond if callable(precond) else (lambda r: precond * r)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0, "converged"
    x = np.array(x0, dtype=float)
    r = b - matvec(x)
    z = apply_m(r)
    p = np.array(z)
    rz = r @ z
    res = np.linalg.norm(r) / bnorm
    for it in range(1, maxiter + 1):
        q = matvec(p)
        pq = p @ q
        if pq <= 0:
            return x, it - 1, res, "breakdown"
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        res = np.linalg.norm(r) / bnorm
        if res <= rtol:
            return x, it, res, "converged"
        z = apply_m(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, res, "maxiter"


def _pcg(matvec, b, precond, x0, rtol, maxiter):
    """_pcg_core with failures promoted to RuntimeError."""
    x, it, res, status = _pcg_core(matvec, b, precond, x0, rtol, maxiter)
    if status == "breakdown":
        raise RuntimeError("conjugate gradients broke down "
                           "(matrix not positive definite?)")
    if status == "maxiter":
        raise RuntimeError("conjugate gradients did not converge in %d "
                           "iterations (relative residual %.3e)"
                           % (maxiter, res))
    return x, it, res


def _refined_pcg(matvec32, matvec64, b, precond, x0, rtol, maxiter):
    """Mixed-precision CG: float32 inner sweeps under float64 restarts.

    The single-precision recurrence drifts from the true residual, so
    convergence is only ever declared on a double-precision residual of
    the current iterate.  An inner sweep that breaks down at its noise
    floor just triggers a restart with a freshly computed residual; each
    restart gains the f32-attainable reduction again, so tight tolerances
    remain reachable as long as kappa * eps_f32 stays well below one.
    Beyond that (e.g. heavily voided systems with mu_min ~ 1e-9) the
    sweeps stop making progress and the loop raises instead of burning
    the iteration budget.  Reported iterations count float32 sweeps only.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.array(x0, dtype=float)
    total = 0
    best = np.inf
    bad = 0
    while True:
        r = b - matvec64(x)
        res = np.linalg.norm(r) / bnorm
        if res <= rtol:
            return x, total, res
        if res <= 0.5 * best:
            bad = 0
        else:
            bad += 1
        best = min(best, res)
        if bad >= 3 or res > 1e3 * best:
            raise RuntimeError(
                "single-precision sweeps stalled at relative residual %.3e "
                "(target %g): the system is too ill-conditioned for float32 "
                "-- raise mu_min or use full precision" % (best, rtol))
        if total >= maxiter:
            raise RuntimeError("conjugate gradients did not converge in %d "
                               "iterations (relative residual %.3e)"
                               % (total, res))
        d, it, _, status = _pcg_core(matvec32, r, precond, np.zeros_like(b),
                                     rtol / res, maxiter - total)
        if status == "breakdown" and it == 0:
            raise RuntimeError("single-precision matvec stalled at relative "
                               "residual %.3e (target %g); use full "
                               "precision" % (res, rtol))
        total += max(it, 1)
        x = x + d


def solve_system(assembly, K_cells, bcs, rtol=1e-8, max_iter=None,
                 method="cg", x0=None, precond=None, single_precision=False):
    """Apply boundary conditions to the aggregated per-cell stiffness and
    solve K U = F; returns the Solution with compliance (1/2) U^T K U.

    `precond` replaces the default Jacobi preconditioner with a callable
    M^-1 on the free dofs (see TwoLevelPreconditioner).  With
    `single_precision` the CG sweeps run on a float32 copy of K_cells --
    half the memory traffic -- restarted from true float64 residuals, so
    the returned residual is double-precision accurate at any rtol the
    conditioning admits.
    """
    F = assembly.load_vector(bcs)
    dofs, vals = assembly.dirichlet(bcs)
    if not len(dofs):
        raise ValueError("insufficient constraints: no Dirichlet dof selected")
    ndof = assembly.ndof
    fixed = np.zeros(ndof, dtype=bool)
    fixed[dofs] = True
    free = ~fixed
    g = np.zeros(ndof)
    g[dofs] = vals

    b = (F - assembly.matvec(K_cells, g))[free]
    K_iter = K_cells.astype(np.float32) if single_precision else K_cells

    def mv(uf):
        u = np.zeros(ndof)
        u[free] = uf
        return assembly.matvec(K_iter, u)[free]

    def mv64(uf):
        u = np.zeros(ndof)
        u[free] = uf
        return assembly.matvec(K_cells, u)[free]

    if method == "dense":
        K = np.zeros((ndof, ndof))
        dm = assembly.dofmap
        for c in range(assembly.num_cells):
            K[np.ix_(dm[c], dm[c])] += K_cells[c]
        x = np.linalg.solve(K[np.ix_(free, free)], b)
        iters, res = 0, float(np.linalg.norm(mv(x) - b)
                              / max(np.linalg.norm(b), 1e-300))
    elif method == "cg":
        diag = assembly.diagonal(K_cells)[free]
        if (diag <= 0).any():
            raise ValueError("singular system: non-positive diagonal entries")
        maxiter = max_iter if max_iter is not None else 50 * int(free.sum())
        start = (np.zeros(int(free.sum())) if x0 is None
                 else np.asarray(x0, dtype=float)[free])
        M = precond if precond is not None else 1.0 / diag
        if single_precision:
            x, iters, res = _refined_pcg(mv, mv64, b, M, start, rtol, maxiter)
        else:
            x, iters, res = _pcg(mv, b, M, start, rtol, maxiter)
    else:
        raise ValueError("method must be 'cg' or 'dense'")

    U = np.array(g)
    U[free] = x
    compliance = 0.5 * (U @ assembly.matvec(K_cells, U))
    return Solution(u=U.reshape(-1, assembly.dpn), compliance=float(compliance),
                    iterations=iters, residual=float(res))


def density_factors(density, mat):
    """Penalized modulus factors mu_min + (1 - mu_min) rho^p per sub-element;
    all-ones (no floor) when density is None."""
    if density is None:
        return None
    rho = np.asarray(density.rho, dtype=float)
    return mat.mu_min + (1.0 - mat.mu_min) * rho ** mat.p


def _trilinear_gradients():
    """Reference gradients of the 8 trilinear corner functions at the
    2x2x2 Gauss points; shape (quad, corner, axis)."""
    g = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    pts = [(x, y, z) for z in g for y in g for x in g]
    C = 2.0 * np.asarray(CORNER_OFFSETS, dtype=float) - 1.0
    G = np.empty((8, 8, 3))
    for q, (x, y, z) in enumerate(pts):
        for a, (cx, cy, cz) in enumerate(C):
            G[q, a] = [cx * (1 + cy * y) * (1 + cz * z),
                       cy * (1 + cx * x) * (1 + cz * z),
                       cz * (1 + cx * x) * (1 + cy * y)]
    return G / 8.0


def _trilinear_stiffness(X, factors, problem, mat):
    """Stiffness of plain 8-node hexahedra with corner coords X (ne, 8, 3),
    scaled per element by `factors`."""
    G = _trilinear_gradients()
    J = np.einsum("qae,cad->cqed", G, X)       # J[e, d] = dx_d / dxi_e
    detJ = np.linalg.det(J)
    invJ = np.linalg.inv(J)                    # invJ[d, e] = dxi_e / dx_d
    B = np.einsum("qae,cqfe->cqaf", G, invJ)   # physical gradients
    w = detJ * factors[:, None]
    if problem == "heat":
        k0 = mat.e0 if mat is not None else 1.0
        return k0 * np.einsum("cq,cqaf,cqbf->cab", w, B, B, optimize=True)
    W = np.einsum("cq,cqaf,cqbg->cafbg", w, B, B, optimize=True)
    ne = len(X)
    K = mat.lam * W.reshape(ne, 24, 24) \
        + mat.mu * W.transpose(0, 3, 2, 1, 4).reshape(ne, 24, 24)
    A = mat.mu * np.einsum("cadbd->cab", W)
    for d in range(3):
        K[:, d::3, d::3] += A
    return K


def _control_slots(model):
    """Owning cell and (4,4,4)-lattice parameter of every control point,
    taken from its first appearance in the cell tables."""
    _, first = np.unique(model.cell_nodes.ravel(), return_index=True)
    owner = first // 64
    t = first % 64
    uvw = np.stack([t // 16, (t // 4) % 4, t % 4], axis=1) / 3.0
    return owner, uvw


def _interpolation_matrix(model, mesh):
    """Sparse (ncp, nverts) map expressing each control point as the
    trilinear blend of its owning cell's corner vertices."""
    owner, uvw = _control_slots(model)
    corners = np.asarray(CORNER_OFFSETS, dtype=float)
    w = np.ones((len(owner), 8))
    for d in range(3):
        c = corners[:, d][None, :]
        u = uvw[:, d:d + 1]
        w = w * (c * u + (1 - c) * (1 - u))
    rows = np.repeat(np.arange(len(owner)), 8)
    cols = mesh.cells[owner].ravel()
    keep = w.ravel() > 1e-14
    return sparse.csr_matrix(
        (w.ravel()[keep], (rows[keep], cols[keep])),
        shape=(len(owner), mesh.num_vertices))


def _cell_overlaps(cell_nodes):
    """Control points shared by ordered pairs of distinct cells.

    Returns one (cells, nbrs, a, b) group per shared-point count s:
    cells[i] and nbrs[i] share s points, found at local node indices
    a[i] (s,) in cells[i] and b[i] (s,) in nbrs[i].  Built by pairing the
    occurrences of every control point across the cell tables.
    """
    npc = cell_nodes.shape[1]
    flat = cell_nodes.ravel()
    order = np.argsort(flat, kind="stable")
    node, cell, loc = flat[order], order // npc, order % npc
    recs = []
    for d in range(1, int(np.bincount(flat).max())):
        i = np.flatnonzero(node[d:] == node[:-d])
        j = i + d
        recs.append((cell[i], cell[j], loc[i], loc[j]))
        recs.append((cell[j], cell[i], loc[j], loc[i]))
    if not recs:
        return []
    C, N, A, B = (np.concatenate(r) for r in zip(*recs))
    order = np.lexsort((A, N, C))
    C, N, A, B = C[order], N[order], A[order], B[order]
    start = np.flatnonzero(np.r_[True, (C[1:] != C[:-1]) | (N[1:] != N[:-1])])
    size = np.diff(np.r_[start, len(C)])
    groups = []
    for s in np.unique(size):
        first = start[size == s]
        idx = first[:, None] + np.arange(s)
        groups.append((C[first], N[first], A[idx], B[idx]))
    return groups


class TwoLevelPreconditioner:
    """Overlapping cell blocks plus a coarse trilinear companion, combined
    additively.

    The fine term is additive Schwarz over the cells: each cell's block is
    the assembled stiffness restricted to its own dofs (its K_cells entry
    plus every neighbour's contribution on shared control points, Dirichlet
    rows and columns replaced by identity), inverted once and stored as a
    float32 stack of the same size as the float32 stiffness copy used by
    single-precision solves.  Applying it is one batched matvec.  The
    smooth end of the spectrum is corrected by solving a standard 8-node
    hexahedral discretization of the same problem on the mesh vertices,
    reached by interpolating control points inside their owning cells; that
    system is ~20x smaller than the spline system and factorizes in
    milliseconds.

    `refresh` rebuilds every block and refactorizes the companion;
    `update` rebuilds only the blocks of cells whose stiffness changed.
    Blocks of their neighbours and the companion tolerate being a few
    density updates stale, so an optimisation run refreshes occasionally
    and updates the killed cells in between.  Plain Jacobi remains the
    solver default; this is for the large runs where CG iteration counts
    dominate.
    """

    def __init__(self, assembly, mesh, bcs):
        self.assembly = assembly
        self.mesh = mesh
        dpn = assembly.dpn
        P = _interpolation_matrix(assembly.model, mesh)
        if dpn > 1:
            P = sparse.kron(P, sparse.eye(dpn), format="csr")
        dofs, _ = assembly.dirichlet(bcs)
        free = np.ones(assembly.ndof, dtype=bool)
        free[dofs] = False
        cfixed = np.zeros(dpn * mesh.num_vertices, dtype=bool)
        for spec in bcs.dirichlet:
            inside = np.flatnonzero(_box_mask(mesh.vertices, spec.lo, spec.hi))
            for comp in spec.components:
                cfixed[dpn * inside + comp] = True
        if not cfixed.any():
            raise ValueError("no mesh vertex falls in any Dirichlet box; "
                             "the coarse companion would be singular")
        self.free = free
        self.cfree = ~cfixed
        self.P = P[free][:, self.cfree].tocsr()
        self.PT = self.P.T.tocsr()
        self._overlaps = _cell_overlaps(assembly.model.cell_nodes)
        self.blocks = None
        self.lu = None

    def _cell_blocks(self, K_cells, cells):
        """Assembled principal submatrices on the dofs of `cells` (sorted,
        unique), Dirichlet dofs replaced by identity; float64."""
        asm = self.assembly
        nd, dpn, m = asm.nd, asm.dpn, len(cells)
        out = K_cells[cells]
        pos = np.full(asm.num_cells, -1, dtype=np.int64)
        pos[cells] = np.arange(m)
        comps = np.arange(dpn)
        src, dst = [], []
        for c, n, a, b in self._overlaps:
            keep = pos[c] >= 0
            if not keep.any():
                continue
            a = (dpn * a[keep][:, :, None] + comps).reshape(len(c[keep]), -1)
            b = (dpn * b[keep][:, :, None] + comps).reshape(a.shape)
            src.append(((n[keep][:, None, None] * nd + b[:, :, None]) * nd
                        + b[:, None, :]).ravel())
            dst.append(((pos[c[keep]][:, None, None] * nd + a[:, :, None]) * nd
                        + a[:, None, :]).ravel())
        if src:
            out += np.bincount(np.concatenate(dst),
                               weights=K_cells.reshape(-1)[np.concatenate(src)],
                               minlength=out.size).reshape(out.shape)
        keep = self.free[asm.dofmap[cells]]
        out *= keep[:, :, None]
        out *= keep[:, None, :]
        out.reshape(m, -1)[:, ::nd + 1][~keep] = 1.0
        return out

    def update(self, K_cells, cells, chunk=128):
        """Rebuild and re-invert the blocks of the listed cells."""
        cells = np.unique(np.asarray(cells, dtype=np.int64))
        for start in range(0, len(cells), chunk):
            sel = cells[start:start + chunk]
            inv = self._cell_blocks(K_cells, sel)
            for i, c in enumerate(sel):
                u, info = lapack.dpotrf(inv[i])
                if not info:
                    inv[i], info = lapack.dpotri(u)
                if info:
                    raise ValueError("cell %d: assembled block is not "
                                     "positive definite" % c)
            # dpotri fills only the upper triangle (dpotrf zeroed the lower
            # one); mirroring it keeps M exactly symmetric, as CG requires
            inv += np.triu(inv, 1).transpose(0, 2, 1)
            self.blocks[sel] = inv

    def refresh(self, K_cells, factors=None):
        """Rebuild every cell block and refactorize the coarse companion.

        `factors` are the per-(cell, sub) density factors; the companion
        uses their cell means (None = unit density)."""
        asm = self.assembly
        if self.blocks is None:
            self.blocks = np.empty((asm.num_cells, asm.nd, asm.nd),
                                   dtype=np.float32)
        self.update(K_cells, np.arange(asm.num_cells))
        nc = len(self.mesh.cells)
        fac = (np.ones(nc) if factors is None
               else np.asarray(factors, dtype=float).reshape(nc, -1)
               .mean(axis=1))
        Ke = _trilinear_stiffness(self.mesh.vertices[self.mesh.cells], fac,
                                  self.assembly.problem, self.assembly.mat)
        dpn = self.assembly.dpn
        npc = 8 * dpn
        dof = (dpn * self.mesh.cells[:, :, None]
               + np.arange(dpn)).reshape(nc, npc)
        rows = np.repeat(dof, npc, axis=1).ravel()
        cols = np.tile(dof, (1, npc)).ravel()
        n = dpn * self.mesh.num_vertices
        Kc = sparse.csr_matrix((Ke.ravel(), (rows, cols)), shape=(n, n))
        self.lu = spla.splu(Kc[self.cfree][:, self.cfree].tocsc())

    def __call__(self, r):
        if self.lu is None:
            raise RuntimeError("call refresh() before preconditioning")
        u = np.zeros(self.assembly.ndof)
        u[self.free] = r
        fine = self.assembly.matvec(self.blocks, u)[self.free]
        return fine + self.P @ self.lu.solve(self.PT @ r)


def assemble_and_solve(model, density, mat, bcs, problem, quad_order=4,
                       rtol=1e-8, max_iter=None, method="cg",
                       single_precision=False):
    """Assemble K(rho) on the model and solve one analysis problem.

    density is None for a plain unit-modulus analysis, or any object with
    `level` and `rho` (num_cells x 8^level densities in [0, 1]).
    """
    level = density.level if density is not None else 0
    asm = Assembly(model, problem, mat, level=level, quad_order=quad_order)
    factors = density_factors(density, mat)
    if factors is None:
        factors = np.ones((asm.num_cells, asm.nsub))
    K_cells = asm.aggregate(factors)
    return solve_system(asm, K_cells, bcs, rtol=rtol, max_iter=max_iter,
                        method=method, single_precision=single_precision)


def _single_cell_model(vol):
    return SplineModel(points=vol.points.reshape(64, 3),
                       cell_nodes=np.arange(64, dtype=np.int64)[None, :])


def _sub_index(level, sub):
    m = 2 ** level
    i, j, k = sub
    for t in (i, j, k):
        if not 0 <= t < m:
            raise ValueError("sub-cube %s out of range for level %d"
                             % (sub, level))
    return (i * m + j) * m + k


def element_stiffness_heat(vol, quad_order=4):
    """64x64 conduction stiffness of one patch (unit conductivity)."""
    return subelement_stiffness_heat(vol, 0, (0, 0, 0), quad_order)


def subelement_stiffness_heat(vol, level, sub, quad_order=4):
    """Heat stiffness integrated over one dyadic parametric sub-cube using
    the parent basis; level 0 is the whole element."""
    asm = Assembly(_single_cell_model(vol), "heat", None, level, quad_order)
    return asm.sub_stiffness([0], [_sub_index(level, sub)])[0]


def element_stiffness_elastic(vol, mat, quad_order=4):
    """192x192 elasticity stiffness of one patch (dofs interleaved xyz)."""
    return subelement_stiffness(vol, 0, (0, 0, 0), mat, quad_order)


def subelement_stiffness(vol, level, sub, mat, quad_order=4):
    """Elasticity stiffness over one dyadic parametric sub-cube of the
    patch, integrated with the parent basis."""
    asm = Assembly(_single_cell_model(vol), "elasticity", mat, level,
                   quad_order)
    return asm.sub_stiffness([0], [_sub_index(level, sub)])[0]
