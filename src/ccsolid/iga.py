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
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .hexmesh import CORNER_OFFSETS
from .spline import SplineModel, _bernstein, _bernstein_deriv

_PROBLEMS = ("heat", "elasticity")
PRECONDITIONERS = ("jacobi", "twolevel")
# working-set bound of one batch of the stiffness Gram kernel, of the
# sub-element energies and of the preconditioner's cell blocks
_GRAM_BATCH_BYTES = 32 << 20
# solves between full rebuilds of a StiffnessOperator's preconditioner
_REFRESH_EVERY = 8
# rows of a pivot block of the block inversion sweep
_PIVOT = 64


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
        for name in ("e0", "nu", "p", "mu_min"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("material %s must be finite, got %r"
                                 % (name, getattr(self, name)))
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


def _check_box(spec):
    """Turn spec.lo and spec.hi into finite float 3-vectors with lo <= hi."""
    for name in ("lo", "hi"):
        bound = np.asarray(getattr(spec, name), dtype=float)
        if bound.shape != (3,) or not np.isfinite(bound).all():
            raise ValueError("box %s must be a finite 3-vector, got %s"
                             % (name, bound))
        setattr(spec, name, bound)
    if (spec.lo > spec.hi).any():
        raise ValueError("box has lo > hi")


@dataclass
class DirichletSpec:
    """Fixes `components` of every control point inside the box to `value`."""
    lo: np.ndarray
    hi: np.ndarray
    components: tuple
    value: float = 0.0

    def __post_init__(self):
        _check_box(self)
        if not np.isfinite(self.value):
            raise ValueError("dirichlet value must be finite, got %r"
                             % (self.value,))
        self.components = tuple(int(c) for c in self.components)


@dataclass
class LoadSpec:
    """Adds `vector` to the load of every control point inside the box."""
    lo: np.ndarray
    hi: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        _check_box(self)
        self.vector = np.atleast_1d(np.asarray(self.vector, dtype=float))
        if not np.isfinite(self.vector).all():
            raise ValueError("load vector must be finite, got %s"
                             % (self.vector,))


@dataclass
class BoundaryConditions:
    dirichlet: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    heat_source: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.heat_source):
            raise ValueError("heat_source must be finite, got %r"
                             % (self.heat_source,))


@dataclass
class Solution:
    """u has one row per control point (1 column for heat, 3 for
    elasticity); compliance is (1/2) U^T K U.  iterations counts CG
    iterations, restarts the float64 residual evaluations of the solve,
    and residual is the returned solution's float64 residual relative to
    the right-hand side."""
    u: np.ndarray
    compliance: float
    iterations: int
    residual: float
    restarts: int = 0


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
    assemblies are bit-identical.  The three stiffness integrals
    (sub_stiffness, aggregate, add_increment) share one Gram kernel whose
    batches hold at most _GRAM_BATCH_BYTES (32 MiB) of gradients and
    Grams, so their memory beside the result grows neither with the mesh
    nor with the density level.
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

        finite = np.isfinite(model.points).all(axis=1)
        if not finite.all():
            raise ValueError("control point %d has a non-finite coordinate; "
                             "its cells' Jacobian is undefined"
                             % np.argmin(finite))
        self._w, self._N, self._Ghat = _quad_tables(level, quad_order)
        nets = model.points[model.cell_nodes]                 # (nc, 64, 3)
        # one 3x64 @ 64x3 product per (cell, sub, point): each item is
        # summed on its own, so a one-cell assembly matches the batched
        # one bit for bit
        J = np.matmul(nets.transpose(0, 2, 1)[:, None, None], self._Ghat[None])
        self.detJ = np.linalg.det(J)
        if not (self.detJ > 0).all():        # a NaN fails the test too
            c, s, p = np.unravel_index(np.argmin(self.detJ), self.detJ.shape)
            raise ValueError(
                "non-positive Jacobian in cell %d (sub-element %d, "
                "quadrature point %d): det J = %g" % (c, s, p, self.detJ[c, s, p]))
        self.invJ = np.linalg.inv(J)
        self.sub_volumes = np.einsum("csp,p->cs", self.detJ, self._w)
        self._unit_source = None    # load of a unit heat source, on first use
        self._Gt = None             # node-major Ghat, on first sub_energies

        nodes = model.cell_nodes
        if self.dpn == 1:
            self.dofmap = np.array(nodes)
        else:
            self.dofmap = (3 * nodes[:, :, None]
                           + np.arange(3)).reshape(len(nodes), self.nd)

    @property
    def num_cells(self):
        return self.model.num_cells

    def _gram_batches(self, cells, subs, scale, cap=None):
        """Weighted gradient Grams summed over the subs of each row, in
        batches of bounded size.

        cells (n,), subs and scale (n, k), scale >= 0.  Yields (rows, W)
        for consecutive slices `rows` of the n rows, with
        W[i] = sum_j sum_pt w detJ scale q q^T over the pairs
        (cells[r], subs[r, j]), r = rows[i], and q the flattened physical
        gradients; for heat the contraction runs directly over the 64
        nodes, giving the stiffness itself.  A row's subs are folded into
        the inner dimension of its GEMM, in equal slices of at most `span`
        subs whose Grams are summed.  A batch holds at most `cap` rows and
        _GRAM_BATCH_BYTES of gradients and Grams, or one row's slice if
        that is larger.  The slices depend on k alone and every row is its
        own GEMM, so W does not depend on the batch size.
        """
        n, k = subs.shape
        pair = 3 * self._Ghat[0].nbytes     # gathered, physical, reordered
        gram = 4 * self.nd * self.nd * 8    # W, a slice's Gram and _expand
        span = min(k, max(1, (_GRAM_BATCH_BYTES - gram) // pair))
        nslice = -(-k // span)
        span = -(-k // nslice)
        nrow = max(1, _GRAM_BATCH_BYTES // (span * pair + gram))
        if cap is not None:
            nrow = min(nrow, cap)
        for lo in range(0, n, nrow):
            rows = slice(lo, min(lo + nrow, n))
            c = cells[rows, None]
            W = None
            for s0 in range(0, k, span):
                s = subs[rows, s0:s0 + span]
                G = np.matmul(self._Ghat[s], self.invJ[c, s])
                G *= np.sqrt(self._w * self.detJ[c, s]
                             * scale[rows, s0:s0 + span, None])[..., None, None]
                b = len(G)
                if self.dpn == 1:
                    Q = G.transpose(0, 3, 1, 2, 4).reshape(b, 64, -1)
                else:
                    Q = G.reshape(b, -1, 192).transpose(0, 2, 1)
                part = Q @ Q.transpose(0, 2, 1)
                if W is None:
                    W = part
                else:
                    W += part
            yield rows, W

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
        out = np.empty((len(cells), self.nd, self.nd))
        # the factor folds into the Gram under a square root; carry the
        # sign outside
        for rows, W in self._gram_batches(cells, subs[:, None],
                                          np.abs(scale)[:, None]):
            out[rows] = np.sign(scale[rows])[:, None, None] * self._expand(W)
        return out

    def aggregate(self, factors, chunk=128):
        """Per-cell stiffness sum_s factors[c, s] * K0_{c,s}, (nc, nd, nd).

        Each cell's sub-cubes are summed inside the Gram kernel, whose
        working set stays within _GRAM_BATCH_BYTES beside the output;
        `chunk` caps the cells per batch.  The result does not depend on
        the batch size, and at level 0 it equals sub_stiffness bit for
        bit."""
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        factors = np.asarray(factors, dtype=float)
        nc = self.num_cells
        out = np.empty((nc, self.nd, self.nd))
        subs = np.broadcast_to(np.arange(self.nsub), (nc, self.nsub))
        for rows, W in self._gram_batches(np.arange(nc), subs,
                                          factors.reshape(nc, self.nsub),
                                          cap=chunk):
            out[rows] = self._expand(W)
        return out

    def add_increment(self, K_cells, cells, subs, dfactors):
        """K_cells[c] += dfactor * K0_{c,s} for each listed pair (in place).

        Pairs are sorted by cell and their signed Grams summed per cell
        before the expansion, batch by batch, so each touched cell is
        written once per batch."""
        cells = np.asarray(cells, dtype=np.int64)
        if not len(cells):
            return
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        subs = np.asarray(subs, dtype=np.int64)[order]
        df = np.asarray(dfactors, dtype=float)[order]
        for rows, W in self._gram_batches(cells, subs[:, None],
                                          np.abs(df)[:, None]):
            W *= np.sign(df[rows])[:, None, None]
            c = cells[rows]
            first = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
            K_cells[c[first]] += self._expand(np.add.reduceat(W, first))

    def matvec(self, K_cells, u):
        ue = u[self.dofmap]
        if ue.dtype != K_cells.dtype:
            # keep a float32 operator in float32: mixed-dtype matmul would
            # silently upcast (and copy) the whole stiffness block
            ue = ue.astype(K_cells.dtype)
        ve = np.matmul(K_cells, ue[:, :, None])[:, :, 0]
        return np.bincount(self.dofmap.ravel(), weights=ve.ravel(),
                           minlength=self.ndof)

    def free_matvec(self, K_cells, free, uf):
        """K_ff uf, on the dofs of the mask `free` (the others held at 0)."""
        u = np.zeros(self.ndof)
        u[free] = uf
        return self.matvec(K_cells, u)[free]

    def diagonal(self, K_cells):
        d = np.einsum("cii->ci", K_cells)
        return np.bincount(self.dofmap.ravel(), weights=d.ravel(),
                           minlength=self.ndof)

    def sub_energies(self, u):
        """Unit-density energies u_e^T K0_{c,s} u_e for every (cell, sub).

        The nodes are contracted in one GEMM and J^{-1} is applied per
        point, in batches of cells whose gradient tensors stay within
        _GRAM_BATCH_BYTES, so the memory beside the (nc, nsub) result does
        not grow with the design."""
        nsub, npts = self._Ghat.shape[:2]
        if self._Gt is None:
            # node-major copy of the gradient table, one GEMM operand
            self._Gt = self._Ghat.transpose(2, 0, 1, 3).reshape(64, -1)
        Gt = self._Gt
        k0 = self.mat.e0 if self.mat is not None else 1.0
        nc = self.num_cells
        # gradient tensors, their products and the einsum temporaries
        per_cell = 6 * nsub * npts * 3 * self.dpn * 8
        step = max(1, _GRAM_BATCH_BYTES // per_cell)
        out = np.empty((nc, nsub))
        for lo in range(0, nc, step):
            rows = slice(lo, min(lo + step, nc))
            ue = u[self.dofmap[rows]]
            b = len(ue)
            invJ = self.invJ[rows]
            if self.dpn == 1:
                t = (ue @ Gt).reshape(b, nsub, npts, 1, 3)
                grad = np.matmul(t, invJ)[..., 0, :]
                dens = k0 * (grad ** 2).sum(axis=-1)
            else:
                # T[c, s, p, e, d] = sum_n Ghat[s, p, n, e] u[c, n, d] and
                # H[..., f, d] = sum_e invJ[..., e, f] T[..., e, d]
                un = ue.reshape(b, 64, 3).transpose(0, 2, 1)
                T = (un @ Gt).reshape(b, 3, nsub, npts, 3)
                H = np.matmul(invJ.swapaxes(-1, -2),
                              T.transpose(0, 2, 3, 4, 1))
                lam, mu = self.mat.lam, self.mat.mu
                tr = np.einsum("cspdd->csp", H)
                dens = (lam * tr ** 2
                        + mu * (np.einsum("cspfd,cspdf->csp", H, H)
                                + (H ** 2).sum(axis=(-2, -1))))
            out[rows] = np.einsum("p,csp,csp->cs", self._w, self.detJ[rows],
                                  dens)
        return out

    def load_vector(self, bcs):
        if bcs.heat_source and self.problem != "heat":
            raise ValueError("a heat source needs the heat problem, not %s"
                             % self.problem)
        F = np.zeros(self.ndof)
        for load in bcs.loads:
            vec = load.vector
            if len(vec) != self.dpn:
                raise ValueError("load vector must have %d component(s)"
                                 % self.dpn)
            idx = np.flatnonzero(_box_mask(self.model.points, load.lo, load.hi))
            F.reshape(-1, self.dpn)[idx] += vec
        if bcs.heat_source:
            if self._unit_source is None:
                fe = np.einsum("p,csp,spn->cn", self._w, self.detJ, self._N)
                self._unit_source = np.bincount(
                    self.dofmap.ravel(), weights=fe.ravel(), minlength=self.ndof)
            F += bcs.heat_source * self._unit_source
        return F

    def dirichlet(self, bcs):
        """(dofs, values) from the dirichlet specs; later specs win."""
        vals = np.full(self.ndof, np.nan)       # spec values are finite
        for spec in bcs.dirichlet:
            bad = [c for c in spec.components if not 0 <= c < self.dpn]
            if bad:
                raise ValueError("dirichlet component %s invalid for %s"
                                 % (bad, self.problem))
            idx = np.flatnonzero(_box_mask(self.model.points, spec.lo, spec.hi))
            comps = np.array(spec.components, dtype=np.int64)
            vals[(self.dpn * idx[:, None] + comps).ravel()] = spec.value
        dofs = np.flatnonzero(~np.isnan(vals))
        return dofs, vals[dofs]


def _cg(matvec, b, precond, x0, rtol, maxiter, matvec32=None):
    """Preconditioned conjugate gradients in sweeps under float64 restarts.

    Every restart computes the true residual r = b - K x with the float64
    `matvec`, and convergence is declared on that residual only.  A sweep
    then runs CG on K d = r from d = 0 until its recurrence residual has
    fallen by the factor that would bring the true residual to rtol, and
    x += d.  The sweeps use `matvec32` (a float32 copy of K, half the
    memory traffic) when given, else `matvec` itself: in float64 one sweep
    normally suffices and the restart confirms it.  The float32 recurrence
    drifts from the true residual, and each restart gains the
    float32-attainable reduction again, so tight tolerances remain
    reachable as long as kappa * eps_f32 stays well below one.  Beyond
    that (e.g. heavily voided systems with mu_min ~ 1e-9) the sweeps stop
    making progress and the loop raises instead of burning the iteration
    budget.  In float64 the same stall, after sweeps that met their goal,
    means the true residual has reached its rounding floor above an rtol
    too tight for float64; the loop then returns its best iterate with
    that residual.  `precond` is either a vector of inverse-diagonal
    entries or a callable applying a full M^-1.

    Returns (x, iterations, relres, restarts, r): the sweeps' iterations,
    the relative float64 residual, the number of float64 residual
    evaluations and the last float64 residual b - K x itself.
    """
    apply_m = precond if callable(precond) else (lambda r: precond * r)
    sweep_mv = matvec if matvec32 is None else matvec32
    hint = ("the system is too ill-conditioned for float32 -- raise mu_min "
            "or use full precision" if matvec32 is not None
            else "matrix not positive definite?")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0, 0, np.zeros_like(b)
    x = np.array(x0, dtype=float)
    total = restarts = bad = 0
    best = np.inf
    reached = False
    while True:
        r = b - matvec(x)
        restarts += 1
        rnorm = np.linalg.norm(r)
        res = rnorm / bnorm
        if not np.isfinite(res):
            raise RuntimeError("conjugate gradients met a non-finite residual "
                               "after %d iterations (relative residual %s)"
                               % (total, res))
        if res <= rtol:
            return x, total, res, restarts, r
        if res <= 0.5 * best:
            bad = 0
        else:
            bad += 1
        if res <= best:
            best, best_x, best_r = res, x, r
        if bad >= 3 or res > 1e3 * best:
            if matvec32 is None and reached:
                # float64 sweeps meet their goal, yet the true residual
                # stays put: it sits at its rounding floor above rtol
                return best_x, total, best, restarts, best_r
            raise RuntimeError("conjugate gradient sweeps stalled at relative "
                               "residual %.3e (target %g): %s"
                               % (best, rtol, hint))
        if total >= maxiter:
            raise RuntimeError("conjugate gradients did not converge in %d "
                               "iterations (relative residual %.3e)"
                               % (total, res))
        goal = rtol / res
        d = np.zeros_like(b)
        s = np.array(r)
        z = apply_m(s)
        p = np.array(z)
        rz = s @ z
        it = 0
        reached = False
        while it < maxiter - total:
            q = sweep_mv(p)
            pq = p @ q
            if pq <= 0:
                break
            it += 1
            alpha = rz / pq
            d += alpha * p
            s -= alpha * q
            if np.linalg.norm(s) / rnorm <= goal:
                reached = True
                break
            z = apply_m(s)
            rz_new = s @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        if not it:
            raise RuntimeError("conjugate gradients broke down at relative "
                               "residual %.3e (target %g): %s"
                               % (res, rtol, hint))
        total += it
        x = x + d


def solve_system(op, rtol=1e-8, max_iter=None, method="cg", x0=None):
    """Solve K U = F on a StiffnessOperator, which holds K, the load F and
    the Dirichlet lift; returns the Solution with compliance (1/2) U^T K U.

    The CG sweeps run in the operator's precision (its float32 mirror, if
    it has one) under float64 restarts, so the returned residual is
    double-precision accurate at any rtol the conditioning admits; the
    operator's preconditioner is brought up to date first.  With zero
    Dirichlet values the compliance is (1/2) x^T (b - r) on the free dofs,
    from the solve's last float64 residual r, which saves one pass over
    the stiffness.  method="dense" solves the assembled free block
    directly, as a reference.
    """
    if not 0.0 < rtol < 1.0:          # a NaN fails the test too
        raise ValueError("rtol must lie in (0, 1), got %r" % (rtol,))
    assembly, K, free, g = op.assembly, op.K, op.free, op.g
    lifted = bool(g.any())
    b = (op.F - assembly.matvec(K, g))[free] if lifted else op.F[free]
    mv = partial(assembly.free_matvec, K, free)

    if method == "dense":
        Kd = np.zeros((assembly.ndof, assembly.ndof))
        dm = assembly.dofmap
        for c in range(assembly.num_cells):
            Kd[np.ix_(dm[c], dm[c])] += K[c]
        x = np.linalg.solve(Kd[np.ix_(free, free)], b)
        r = b - mv(x)
        iters, restarts = 0, 1
        res = float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
    elif method == "cg":
        diag = assembly.diagonal(K)[free]
        if (diag <= 0).any():
            raise ValueError("singular system: non-positive diagonal entries")
        maxiter = max_iter if max_iter is not None else 50 * int(free.sum())
        start = (np.zeros(int(free.sum())) if x0 is None
                 else np.asarray(x0, dtype=float)[free])
        op.prepare()
        M = op.precond if op.precond is not None else 1.0 / diag
        mv32 = (None if op.K32 is None
                else partial(assembly.free_matvec, op.K32, free))
        x, iters, res, restarts, r = _cg(mv, b, M, start, rtol, maxiter, mv32)
    else:
        raise ValueError("method must be 'cg' or 'dense'")

    U = np.array(g)
    U[free] = x
    if lifted:
        compliance = 0.5 * (U @ assembly.matvec(K, U))
    else:
        compliance = 0.5 * (x @ (b - r))
    return Solution(u=U.reshape(-1, assembly.dpn), compliance=float(compliance),
                    iterations=iters, residual=float(res), restarts=restarts)


def density_factors(density, mat):
    """Penalized modulus factors mu_min + (1 - mu_min) rho^p per sub-element;
    all-ones (no floor) when density is None."""
    if density is None:
        return None
    rho = np.asarray(density.rho, dtype=float)
    return mat.mu_min + (1.0 - mat.mu_min) * rho ** mat.p


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


def _sweep_inverse(A, cells):
    """Invert a stack of symmetric matrices, overwriting A, by a block
    Gauss-Jordan sweep over pivot blocks of _PIVOT rows.

    Each step factors its pivot blocks by batched Cholesky, inverts them
    and updates the stack by batched GEMMs, all in numpy's own LAPACK and
    BLAS.  The pivot block of step k is the Schur complement of the
    leading k blocks, and a symmetric matrix is positive definite exactly
    when every one of them is, so the factorizations check each matrix in
    full: if A[i] is not positive definite the ValueError names cells[i].
    Every matrix is swept on its own, so the result does not depend on
    the batch.  Returns the exactly symmetric 0.5 (X + X^T) of the
    inverse X.
    """
    n = A.shape[-1]
    for p0 in range(0, n, _PIVOT):
        p = slice(p0, p0 + _PIVOT)
        try:
            np.linalg.cholesky(A[:, p, p])
        except np.linalg.LinAlgError:
            for i, c in enumerate(cells):
                try:
                    np.linalg.cholesky(A[i, p, p])
                except np.linalg.LinAlgError:
                    raise ValueError("cell %d: assembled block is not "
                                     "positive definite" % c) from None
            raise
        others = [s for s in (slice(0, p0), slice(p0 + _PIVOT, n))
                  if s.start < s.stop]
        A[:, p, p] = np.linalg.inv(A[:, p, p])
        # pivot rows become A_pp^-1 A_pj, the other rows A_ij - A_ip A_pp^-1
        # A_pj, and their pivot columns -A_ip A_pp^-1
        for s in others:
            A[:, p, s] = A[:, p, p] @ A[:, p, s]
        for s in others:
            D = A[:, s, p] @ A[:, p]
            A[:, s, p] = 0.0
            A[:, s] -= D
    for X in A:                 # one block at a time: the transpose stays
        X += X.T                # in cache
    A *= 0.5
    return A


class TwoLevelPreconditioner:
    """Overlapping cell blocks plus a Galerkin coarse correction, combined
    additively.

    The fine term is additive Schwarz over the cells: each cell's block is
    the assembled stiffness restricted to its own dofs (its K_cells entry
    plus every neighbour's contribution on shared control points, Dirichlet
    rows and columns replaced by identity), inverted once and stored as a
    float32 stack of the same size as the float32 stiffness copy used by
    single-precision solves.  Applying it is one batched matvec.  The
    smooth end of the spectrum is corrected on the cells' corner control
    points (the mesh vertices of a model from build_spline_model): P
    interpolates every control point trilinearly, at its lattice
    parameters (i, j, k) / 3, from the corners of the first cell holding
    it, and the coarse matrix is the Galerkin product P_f^T K_ff P_f on
    the free dofs, summed cell by cell from K_cells.  A coarse dof is
    fixed exactly when the fine dof of its own corner control point is.
    Every kept coarse column then holds a 1 in a row where all others hold
    0, so P_f has full column rank and the coarse matrix is positive
    definite whenever K_ff is.  It is ~20x smaller than the spline system
    and factorizes in milliseconds.

    Each batch of blocks is inverted in numpy's own LAPACK and BLAS by one
    block Gauss-Jordan sweep (_sweep_inverse), whose Cholesky-factored
    pivots check that every assembled block is positive definite; a block
    that is not raises a ValueError naming its cell.  The inverses are
    made exactly symmetric, as CG requires, before the float32 cast.

    `update` is told the cells whose stiffness changed: it rebuilds their
    blocks at once and marks the blocks of the cells sharing a control
    point with them stale.  `refresh` rebuilds every stale block (every
    block on the first call) and refactorizes the coarse matrix; a clean
    block would come out bit-identical, so the result equals a full
    rebuild as long as every change of K_cells is reported through
    `update`.  Blocks and the coarse products are built in batches of
    cells whose index arrays, float64 blocks and temporaries stay within
    _GRAM_BATCH_BYTES.  Stale blocks and the coarse factors tolerate a few
    density updates; the StiffnessOperator that owns it builds it on its
    mask `free` of unfixed dofs, refreshes it every _REFRESH_EVERY solves
    and reports the cells its increments touched before every solve.  It
    is the default preconditioner of BESO runs (BesoConfig.precond).
    """

    def __init__(self, assembly, free):
        self.assembly = assembly
        dpn, nodes = assembly.dpn, assembly.model.cell_nodes
        # T[a, k]: trilinear weight of corner k at the lattice parameters
        # (i, j, l) / 3 of control point a = 16 i + 4 j + l
        corner = np.asarray(CORNER_OFFSETS)
        t = np.arange(4) / 3.0
        w = np.where(corner.T[:, None, :] == 1, t[:, None], 1.0 - t[:, None])
        T = (w[0][:, None, None] * w[1][None, :, None]
             * w[2][None, None, :]).reshape(64, 8)
        # the coarse nodes: every cell's corner control points
        corners = nodes[:, corner @ (48, 12, 3)]
        coarse, cnode = np.unique(corners, return_inverse=True)
        cnode = cnode.reshape(corners.shape)
        ids, first = np.unique(nodes.ravel(), return_index=True)
        owner, slot = np.divmod(first, 64)
        point, k = np.nonzero(T[slot])
        P = sparse.csr_matrix(
            (T[slot[point], k], (ids[point], cnode[owner[point], k])),
            shape=(assembly.model.num_control_points, len(coarse)))
        if dpn > 1:
            P = sparse.kron(P, sparse.eye(dpn), format="csr")
        comps = np.arange(dpn)
        self.free = free
        self.cfree = free[(dpn * coarse[:, None] + comps).ravel()]
        self.P = P[free][:, self.cfree].tocsr()
        self.PT = self.P.T.tocsr()
        # P restricted to a cell's dofs: kron(T, I) on its corners' dofs
        self._T = np.kron(T, np.eye(dpn))
        self._cdofs = (dpn * cnode[:, :, None] + comps).reshape(len(nodes), -1)
        self._overlaps = _cell_overlaps(assembly.model.cell_nodes)
        # bytes of building one cell's block: its float64 block and at
        # most three more of its size at once (the scattered neighbour
        # sum; or the sweep's pivot factor, pivot inverse, updated pivot
        # rows and update product; or the float32 cast), plus source
        # index, destination index and weight (each made and
        # concatenated) per shared-dof entry
        entries = np.zeros(assembly.num_cells)
        for c, _, a, _ in self._overlaps:
            entries += (dpn * a.shape[1]) ** 2 * np.bincount(
                c, minlength=assembly.num_cells)
        self._block_bytes = 4 * 8 * assembly.nd ** 2 + 6 * 8 * entries
        self._stale = np.ones(assembly.num_cells, dtype=bool)
        self.blocks = np.empty((assembly.num_cells, assembly.nd, assembly.nd),
                               dtype=np.float32)
        self.lu = None

    def _cell_blocks(self, K_cells, cells):
        """Assembled principal submatrices on the dofs of `cells` (sorted,
        unique), Dirichlet dofs replaced by identity; float64."""
        asm = self.assembly
        nd, dpn, m = asm.nd, asm.dpn, len(cells)
        out = K_cells[cells]
        comps = np.arange(dpn)
        src, dst = [], []
        for c, n, a, b in self._overlaps:
            # each group is sorted by cell: take the pairs of `cells`
            lo = np.searchsorted(c, cells, "left")
            cnt = np.searchsorted(c, cells, "right") - lo
            k = int(cnt.sum())
            if not k:
                continue
            pos = np.repeat(np.arange(m), cnt)
            idx = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(k)
            a = (dpn * a[idx][:, :, None] + comps).reshape(k, -1)
            b = (dpn * b[idx][:, :, None] + comps).reshape(k, -1)
            src.append(((n[idx][:, None, None] * nd + b[:, :, None]) * nd
                        + b[:, None, :]).ravel())
            dst.append(((pos[:, None, None] * nd + a[:, :, None]) * nd
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

    def _build(self, K_cells, cells):
        """Build and invert the blocks of `cells` (sorted, unique)."""
        cost = self._block_bytes[cells]
        # consecutive batches within the budget, or one cell if larger
        batch = (np.cumsum(cost) - cost) // _GRAM_BATCH_BYTES
        for sel in np.split(cells, np.flatnonzero(np.diff(batch)) + 1):
            if len(sel):
                self.blocks[sel] = _sweep_inverse(
                    self._cell_blocks(K_cells, sel), sel)
        self._stale[cells] = False

    def update(self, K_cells, cells):
        """The stiffness of the listed cells changed: rebuild their blocks
        and mark their neighbours' blocks stale."""
        cells = np.unique(np.asarray(cells, dtype=np.int64))
        hit = np.zeros(self.assembly.num_cells, dtype=bool)
        hit[cells] = True
        for c, n, _, _ in self._overlaps:
            self._stale[n[hit[c]]] = True
        self._build(K_cells, cells)

    def refresh(self, K_cells):
        """Rebuild every stale cell block and refactorize the coarse
        matrix P_f^T K_ff P_f."""
        self._build(K_cells, np.flatnonzero(self._stale))
        asm = self.assembly
        nc, nd = asm.num_cells, asm.nd
        m = self._T.shape[1]
        A = np.empty((nc, m, m))
        # per cell: the masked table, its product with the block, a copy
        # of either for the GEMM and the gathered dof indices
        step = max(1, _GRAM_BATCH_BYTES // (8 * (3 * nd * m + nd)))
        for lo in range(0, nc, step):
            sel = slice(lo, min(lo + step, nc))
            # T_c = kron(T, I) with the rows of fixed dofs zeroed
            Tc = self._T * self.free[asm.dofmap[sel]][:, :, None]
            np.matmul(Tc.transpose(0, 2, 1), K_cells[sel] @ Tc, out=A[sel])
        rows = np.repeat(self._cdofs, m, axis=1).ravel()
        cols = np.tile(self._cdofs, (1, m)).ravel()
        n = len(self.cfree)
        Kc = sparse.csr_matrix((A.ravel(), (rows, cols)), shape=(n, n))
        self.lu = spla.splu(Kc[self.cfree][:, self.cfree].tocsc())

    def __call__(self, r):
        if self.lu is None:
            raise RuntimeError("call refresh() before preconditioning")
        fine = self.assembly.free_matvec(self.blocks, self.free, r)
        return fine + self.P @ self.lu.solve(self.PT @ r)


class StiffnessOperator:
    """The per-cell stiffness of one design with everything its solves use.

    Resolves `bcs` once: the load `F`, the mask `free` of unfixed dofs and
    the lift `g` of the Dirichlet values; a `bcs` fixing no dof raises
    "insufficient constraints".  Owns the float64 stack `K` (nc, nd, nd);
    with `single_precision` its float32 mirror `K32`, kept bit-identical to
    K.astype(np.float32) by re-casting the cells every increment touches;
    and the preconditioner `precond` names: None for "jacobi", a
    TwoLevelPreconditioner on `free` for "twolevel".  Before every CG
    solve, `prepare` has the preconditioner rebuild the blocks of the cells
    touched since the last solve and, every _REFRESH_EVERY solves, its
    stale blocks and coarse matrix, all from K.  `factors` are the
    per-(cell, sub) density factors K was aggregated from (None: unit
    density); `set_factors` keeps K, K32 and the factors in step.
    """

    def __init__(self, assembly, K_cells, bcs, factors=None, precond="jacobi",
                 single_precision=False):
        if precond not in PRECONDITIONERS:
            raise ValueError("precond must be one of %s, got %r"
                             % (PRECONDITIONERS, precond))
        self.assembly = assembly
        self.F = assembly.load_vector(bcs)
        dofs, vals = assembly.dirichlet(bcs)
        if not len(dofs):
            raise ValueError("insufficient constraints: no Dirichlet dof "
                             "selected")
        self.free = np.ones(assembly.ndof, dtype=bool)
        self.free[dofs] = False
        self.g = np.zeros(assembly.ndof)
        self.g[dofs] = vals
        self.K = K_cells
        self.K32 = K_cells.astype(np.float32) if single_precision else None
        self.factors = (None if factors is None else np.array(
            factors, dtype=float).reshape(assembly.num_cells, assembly.nsub))
        self.precond = (TwoLevelPreconditioner(assembly, self.free)
                        if precond == "twolevel" else None)
        self._age = 0          # solves since the last refresh
        self._touched = []     # cells changed since the last solve

    def set_factors(self, cells, subs, values):
        """Change the density factors of the listed (cell, sub) pairs
        (distinct pairs) and patch K and its mirror incrementally."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if self.factors is None:
            raise ValueError("operator was built without density factors")
        self.assembly.add_increment(self.K, cells, subs,
                                    values - self.factors[cells, subs])
        self.factors[cells, subs] = values
        touched = np.unique(cells)
        if self.K32 is not None:
            step = max(1, _GRAM_BATCH_BYTES // self.K[0].nbytes)
            for lo in range(0, len(touched), step):
                sel = touched[lo:lo + step]
                self.K32[sel] = self.K[sel]
        self._touched.append(touched)

    def prepare(self):
        """Bring the preconditioner up to date for the next solve."""
        pc = self.precond
        if pc is not None:
            if self._touched:
                pc.update(self.K, np.concatenate(self._touched))
            if pc.lu is None or self._age >= _REFRESH_EVERY:
                pc.refresh(self.K)
                self._age = 0
            self._age += 1
        self._touched = []


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
    op = StiffnessOperator(asm, asm.aggregate(factors), bcs,
                           single_precision=single_precision)
    return solve_system(op, rtol=rtol, max_iter=max_iter, method=method)


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
