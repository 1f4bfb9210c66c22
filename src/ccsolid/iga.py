"""Isogeometric heat and elasticity analysis on the Bezier model.

The solution space is the model's own tricubic Bernstein basis (64 nodes
per cell, shared across faces).  Element integrals use tensor-product
Gauss-Legendre quadrature; sub-element stiffness matrices integrate the
*parent* basis over a dyadic parametric sub-cube [i,i+1]x[j,j+1]x[k,k+1]
/ 2^level, and a cell's stiffness is their sum weighted by one factor per
(cell, sub-cube).  Per quadrature point the elasticity integrand factors as

    B_i^T D B_j = lam g_i g_j^T + mu (g_j g_i^T + (g_i . g_j) I)

with g_i the physical shape gradients, so each element matrix is one
Gram product of the gradient vectors plus cheap reshuffles; assembly and
the conjugate-gradient matvec stay allocation-light and deterministic.
The basis gradients are tabulated as one contiguous (sub, point, node)
plane per parameter direction.  The geometry is stored as one scaled
inverse S = sqrt(w det J) J^{-1} per quadrature point, formed from
closed-form cofactors of J and kept as one contiguous (sub, point) plane
per entry of S in each cell, so the Grams and the energies share one
gradient step S^T X on that table and carry the quadrature weight w det J
inside it.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .hexmesh import CORNER_OFFSETS
from .spline import _bernstein, _bernstein_deriv

_PROBLEMS = ("heat", "elasticity")
# working-set bound of one batch of the geometry, the stiffness Gram
# kernel, the sub-element energies and the preconditioner's cell blocks
_GRAM_BATCH_BYTES = 32 << 20
# tighter bound of one batch of the whole-array arithmetic on per-point
# planes (the geometry and the energies), which then stays in cache.  On a
# 2-core VM the energies took, at 1 / 2 / 4 / 8 / 16 MiB: 34 / 24 / 17.5 /
# 17 / 17 ms on a 120-cell level-2 heat model, 66 / 56 / 58 / 58 / 71 ms on
# a 1 024-cell level-1 elasticity one.  The batch's rows set the node
# GEMM's shape and so its rounding: at 4 MiB both equal the 1 MiB energies
# bit for bit, at 2 MiB the heat ones do not.
_PLANE_BATCH_BYTES = 4 << 20
# solves between coarse refactorizations of a StiffnessOperator's
# preconditioner, whose cell blocks are rebuilt only where kills touched
_REFRESH_EVERY = 8
# rows of a top-level pivot block of the block inversion sweep, whose
# pivots are inverted by the same sweep over halves of their rows, down to
# Cholesky-checked leaves of at most _LEAF rows
_PIVOT = 64
_LEAF = 16


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
    iterations, restarts the float64 residual evaluations in this solve
    (a starting residual it was handed is not one), and residual is the
    returned solution's float64 residual relative to the right-hand
    side."""
    u: np.ndarray
    compliance: float
    iterations: int
    residual: float
    restarts: int = 0


def _row_batches(n, row_bytes, budget=None):
    """Consecutive slices of range(n) whose rows of `row_bytes` each hold
    at most `budget` (default _GRAM_BATCH_BYTES) together, or one row if a
    row is larger."""
    step = max(1, (budget or _GRAM_BATCH_BYTES) // row_bytes)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _check_pairs(cells, subs, num_cells, nsub, distinct=False):
    """Raise a ValueError naming the first (cell, sub) pair outside
    num_cells x nsub, or, with `distinct`, the first repeated pair."""
    bad = (cells < 0) | (cells >= num_cells) | (subs < 0) | (subs >= nsub)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError("(cell, sub) pair (%d, %d) out of range for %d "
                         "cells of %d sub-cubes"
                         % (cells[i], subs[i], num_cells, nsub))
    if distinct:
        flat = cells * nsub + subs
        _, first, count = np.unique(flat, return_index=True,
                                    return_counts=True)
        if (count > 1).any():
            i = first[np.argmax(count > 1)]
            raise ValueError("(cell, sub) pair (%d, %d) is listed more than "
                             "once" % (cells[i], subs[i]))


def _check_factors(values, cells, subs, what, least=-np.inf):
    """Raise a ValueError naming the first (cell, sub) pair whose value, of
    `values` broadcast with cells and subs, is not finite or below
    `least`."""
    bad = ~np.isfinite(values) | (values < least)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        cell, sub = (np.broadcast_to(a, bad.shape)[i] for a in (cells, subs))
        raise ValueError("%s of (cell, sub) pair (%d, %d) is %g; it must be "
                         "finite%s" % (what, cell, sub, values[i],
                                       "" if least == -np.inf
                                       else " and >= %g" % least))


def _box_mask(points, lo, hi, tol=1e-9):
    return ((points >= lo - tol) & (points <= hi + tol)).all(axis=1)


def _box_points(points, spec, name):
    """Indices of the `points` inside the box of `spec`; a box that holds
    none is an error, not a spec without effect, and its ValueError
    starts with `name`."""
    idx = np.flatnonzero(_box_mask(points, spec.lo, spec.hi))
    if not len(idx):
        raise ValueError("%s box %s to %s selects no control point"
                         % (name, spec.lo.tolist(), spec.hi.tolist()))
    return idx


def _gauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=32)
def _quad_tables(level, order):
    """Per sub-cube: quadrature weights (with the 1/8^level measure),
    parent-basis values N[s, p, n] and parameter gradients
    Ghat[e, s, p, n] (basis n along parameter e) at the mapped points, one
    contiguous (sub, point, node) plane per parameter.  Sub-cube (i, j, k)
    has index (i*2^level + j)*2^level + k."""
    x, w = _gauss01(order)
    m = 2 ** level
    npts = order ** 3
    wts = (np.einsum("i,j,k->ijk", w, w, w).reshape(npts) / m ** 3)
    N = np.empty((m ** 3, npts, 64))
    Ghat = np.empty((3, m ** 3, npts, 64))
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
                    Ghat[ax, s] = np.einsum(
                        "ia,jb,kc->ijkabc", *F).reshape(npts, 64)
    for a in (wts, N, Ghat):
        a.setflags(write=False)
    return wts, N, Ghat


class Assembly:
    """Precomputed quadrature data of a model at one sub-cube level.

    Holds S = sqrt(w det J) J^{-1}, nine floats at every (cell, sub-cube,
    point), as S[c, e, a, s * npts + p] for entry (e, a): (nc, 3, 3,
    nsub * npts), one contiguous plane per cell and entry; the sub-cube
    volumes; the load of a unit heat source; the cell-to-dof map; and
    batched routines for sub-element stiffness, aggregation over
    per-(cell, sub) stiffness factors, matvec, and sub-element energies.
    The constructor forms J by one GEMM per cell of its control net with
    the gradient table, and det J and the adjugate by whole-array cofactor
    arithmetic on the planes over batches of cells; a det J that is not
    positive raises a ValueError naming the (cell, sub-cube, point) of the
    least one in the model.  All reductions run in a fixed order, so
    repeated assemblies are bit-identical.  The stiffness integrals
    (sub_stiffness, aggregate, add_increment) share one Gram kernel; it and
    sub_energies form weighted physical gradients as S^T X on the gradient
    table.  Their batches, and those forming S, hold at most
    _GRAM_BATCH_BYTES (32 MiB): memory beside the results grows with
    neither mesh nor level.
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
        nc, npts = len(nets), len(self._w)
        nsp = self.nsub * npts
        self.S = np.empty((nc, 3, 3, nsp))
        self.sub_volumes = np.empty((nc, self.nsub))
        source = np.empty((nc, 64))
        Gt = self._Ghat.reshape(-1, 64).T
        worst = (np.inf, 0)        # least det J and its flat index
        # R, two cofactor products, then det J, w det J, its root and the
        # scale: at most 13 floats per point beside S
        for rows in _row_batches(nc, 13 * nsp * 8,
                                 min(_GRAM_BATCH_BYTES, _PLANE_BATCH_BYTES)):
            # J[a, e] = R[:, a, e] = sum_n x_a(n) dN_n/dxi_e, one GEMM of
            # the same shape per cell: no batching changes the bits
            R = np.matmul(nets[rows].swapaxes(1, 2), Gt).reshape(
                -1, 3, 3, nsp)
            J = [[R[:, a, e] for e in range(3)] for a in range(3)]
            S = self.S[rows]
            # S[e, a] = cofactor (a, e) of J, so S = adj J = det J J^{-1}
            for a in range(3):
                b, c = (a + 1) % 3, (a + 2) % 3
                for e in range(3):
                    f, g = (e + 1) % 3, (e + 2) % 3
                    np.subtract(J[b][f] * J[c][g], J[b][g] * J[c][f],
                                out=S[:, e, a])
            det = (J[0][0] * S[:, 0, 0] + J[0][1] * S[:, 1, 0]
                   + J[0][2] * S[:, 2, 0])
            i = np.argmin(det)      # the first NaN, if there is one
            least = det.flat[i]
            if least < worst[0] or (np.isnan(least)
                                    and not np.isnan(worst[0])):
                worst = (least, rows.start * nsp + i)
            if not (worst[0] > 0):            # a NaN fails the test too
                continue
            wdet = self._w * det.reshape(-1, self.nsub, npts)
            self.sub_volumes[rows] = wdet.sum(axis=-1)
            source[rows] = wdet.reshape(len(det), -1) @ self._N.reshape(-1, 64)
            S *= (np.sqrt(wdet).reshape(det.shape) / det)[:, None, None]
        if not (worst[0] > 0):
            c, s, p = np.unravel_index(worst[1], (nc, self.nsub, npts))
            raise ValueError(
                "non-positive Jacobian in cell %d (sub-element %d, "
                "quadrature point %d): det J = %g" % (c, s, p, worst[0]))
        # load of a unit heat source, per control point
        self._unit_source = np.bincount(model.cell_nodes.ravel(),
                                        weights=source.ravel(),
                                        minlength=model.num_control_points)

        nodes = model.cell_nodes
        self.dofmap = (self.dpn * nodes[:, :, None]
                       + np.arange(self.dpn)).reshape(len(nodes), self.nd)

    @property
    def num_cells(self):
        return self.model.num_cells

    def _gram_batches(self, cells, subs, scale, cap=None):
        """Weighted gradient Grams summed over the (cell, sub) pairs of each
        row, in batches of bounded size.

        A row's Gram is W = sum over its pairs and points of q q^T, with
        q = sqrt(|scale|) S^T Ghat the weighted physical gradients of the
        pair flattened component-major, (d, node), negated where the scale
        is negative; for heat the sum runs over d too, giving the stiffness
        itself.  S and Ghat are read through (cell, sub, point, e, a) and
        (sub, point, e, node) views of their plane layouts.  A row's pairs
        are folded into the inner dimension of one GEMM per batch; where a
        row is cut into slices, their Grams are summed, in another order
        than one GEMM would, which changes W by rounding only.

        With subs None, cells (n,) and scale (n, k) >= 0: row i holds the k
        subs of cells[i] in order, every row reads the same view of the
        table, which is not gathered per row, and the slices are equal,
        of at most `span` subs.  Yields (rows, W) for consecutive slices
        `rows` of the n rows; a batch holds at most `cap` rows and
        _GRAM_BATCH_BYTES of gradients and Grams, or one row's slice if
        that is larger.  Every row is its own GEMM, so the rows per batch
        change no bits.  The slices depend on k and on _GRAM_BATCH_BYTES:
        from the default budget up, k <= 64 (level 2 or coarser) at the
        default quadrature order is one slice and W the same bit for bit.

        Otherwise cells, subs and scale are (n,) over pairs, and a row is a
        maximal run of consecutive pairs of one cell and one sign of scale.
        Yields (first, W) with `first` the index of each row's first pair.
        The batches are consecutive slices of pairs within
        _GRAM_BATCH_BYTES of gradients and Grams, whatever the rows; a row
        that straddles batches is yielded once, its slices' Grams summed.
        """
        # per pair: gathered Ghat (none with subs None), gradients and the
        # previous slice's, bound until replaced (the gathered S adds under
        # 5 % of one)
        pair = 3 * self._Ghat[:, 0].nbytes
        gram = 4 * self.nd * self.nd * 8    # W, a slice's Gram and _expand
        S = self.S.reshape(len(self.S), 3, 3, self.nsub, -1).transpose(
            0, 3, 4, 1, 2)
        Ghat = self._Ghat.transpose(1, 2, 0, 3)
        if subs is not None:
            yield from self._run_grams(S, Ghat, cells, subs, scale,
                                       max(1, _GRAM_BATCH_BYTES
                                           // (pair + gram)))
            return
        n, k = scale.shape
        span = min(k, max(1, (_GRAM_BATCH_BYTES - gram) // pair))
        nslice = -(-k // span)
        span = -(-k // nslice)
        nrow = max(1, _GRAM_BATCH_BYTES // (span * pair + gram))
        if cap is not None:
            nrow = min(nrow, cap)
        for lo in range(0, n, nrow):
            rows = slice(lo, min(lo + nrow, n))
            W = None
            for s0 in range(0, k, span):
                s = slice(s0, s0 + span)
                St = S[cells[rows], s].swapaxes(-1, -2)
                St *= np.sqrt(scale[rows, s])[..., None, None, None]
                G = np.matmul(St, Ghat[s])
                Q = G.reshape(len(G), -1, self.nd)
                part = Q.transpose(0, 2, 1) @ Q
                if W is None:
                    W = part
                else:
                    W += part
            yield rows, W

    def _run_grams(self, S, Ghat, cells, subs, scale, step):
        """The pair form of _gram_batches, over batches of `step` pairs; a
        row that straddles batches is carried into the next one."""
        neg = scale < 0
        root = np.sqrt(np.abs(scale))
        bounds = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1])
                                      | (neg[1:] != neg[:-1]), True])
        carry = None
        for q0 in range(0, len(cells), step):
            q1 = min(q0 + step, len(cells))
            St = S[cells[q0:q1], subs[q0:q1]].swapaxes(-1, -2)
            St *= root[q0:q1, None, None, None]
            G = np.matmul(St, Ghat[subs[q0:q1]])
            # the runs starting before q1, from the one holding pair q0
            r0 = np.searchsorted(bounds, q0, "right") - 1
            r1 = np.searchsorted(bounds, q1)
            W = np.empty((r1 - r0, self.nd, self.nd))
            for r in range(r0, r1):
                lo, hi = max(bounds[r], q0), min(bounds[r + 1], q1)
                Q = G[lo - q0:hi - q0].reshape(-1, self.nd)
                np.matmul(Q.T, Q, out=W[r - r0])
            if carry is not None:
                W[0] += carry
            carry = None
            if bounds[r1] > q1:
                carry, W = W[-1].copy(), W[:-1]
            if len(W):
                first = bounds[r0:r0 + len(W)]
                np.negative(W, out=W, where=neg[first, None, None])
                yield first, W

    def _expand(self, W):
        """Turn gradient Grams into stiffness matrices."""
        if self.problem == "heat":
            k0 = self.mat.e0 if self.mat is not None else 1.0
            return k0 * W
        lam, mu = self.mat.lam, self.mat.mu
        W4 = W.reshape(len(W), 3, 64, 3, 64)
        K = np.empty((len(W), 192, 192))
        A = mu * np.einsum("mdidj->mij", W4)
        for d in range(3):
            for e in range(3):
                K[:, d::3, e::3] = lam * W4[:, d, :, e] + mu * W4[:, e, :, d]
            K[:, d::3, d::3] += A
        return K

    def sub_stiffness(self, cells, subs, factors=None):
        """Stiffness of the given (cell, sub-cube) pairs, optionally scaled
        by per-pair factors (negative factors allowed, e.g. for incremental
        stiffness removal).  A pair outside the model, or a factor that is
        not finite, raises a ValueError naming the pair."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        _check_pairs(cells, subs, self.num_cells, self.nsub)
        scale = (np.ones(len(cells)) if factors is None
                 else np.asarray(factors, dtype=float))
        _check_factors(scale, cells, subs, "stiffness factor")
        out = np.empty((len(cells), self.nd, self.nd))
        # one call per pair: the kernel would sum neighbouring pairs of one
        # cell and sign into one row
        for i in range(len(cells)):
            for _, W in self._gram_batches(cells[i:i + 1], subs[i:i + 1],
                                           scale[i:i + 1]):
                out[i] = self._expand(W)[0]
        return out

    def aggregate(self, factors, chunk=128):
        """Per-cell stiffness sum_s factors[c, s] * K0_{c,s}, (nc, nd, nd).

        Each cell's sub-cubes are summed inside the Gram kernel, whose
        working set stays within _GRAM_BATCH_BYTES beside the output;
        `chunk` caps the cells per batch.  The result does not depend on
        the batch size, and at level 0 it equals sub_stiffness bit for
        bit.  A factor that is negative or not finite raises a ValueError
        naming its (cell, sub) pair."""
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        nc = self.num_cells
        factors = np.asarray(factors, dtype=float).reshape(nc, self.nsub)
        _check_factors(factors, np.arange(nc)[:, None],
                       np.arange(self.nsub), "stiffness factor", 0.0)
        out = np.empty((nc, self.nd, self.nd))
        for rows, W in self._gram_batches(np.arange(nc), None, factors,
                                          cap=chunk):
            out[rows] = self._expand(W)
        return out

    def add_increment(self, K_cells, cells, subs, dfactors, u):
        """K_cells[c] += dfactor * K0_{c,s} for each listed pair (in place);
        returns dK u, the increment's product with the dof vector u (ndof,).

        Pairs are sorted by cell and sign, and the Gram kernel folds each
        run of one cell and one sign into the inner dimension of one GEMM,
        so a touched cell costs one Gram and one expansion per sign, added
        to its block in place and multiplied with u on the cell's dofs
        while it is in cache.  A pair may be listed more than once; one
        outside the model, or an increment that is not finite, raises a
        ValueError naming it, before K_cells changes."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        df = np.asarray(dfactors, dtype=float)
        _check_pairs(cells, subs, self.num_cells, self.nsub)
        _check_factors(df, cells, subs, "stiffness factor increment")
        order = np.lexsort((df < 0, cells))
        cells = cells[order]
        du = np.zeros(self.ndof)
        for first, W in self._gram_batches(cells, subs[order], df[order]):
            for cell, block in zip(cells[first], self._expand(W)):
                K_cells[cell] += block
                dofs = self.dofmap[cell]
                np.add.at(du, dofs, block @ u[dofs])
        return du

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

    def sub_energies(self, u):
        """Energies u_e^T K0_{c,s} u_e of every (cell, sub), factor 1.

        The nodes are contracted in one GEMM with the gradient table, and
        S^T is applied by 3 * dpn whole-array multiply-adds over the
        contiguous (cells, sub * point) planes of S and of the GEMM's
        result; S carries w det J, so the energy density summed over the
        points is the energy.  The batches of cells hold their gradient
        tensors within _PLANE_BATCH_BYTES, so the memory beside the
        (nc, nsub) result does not grow with the design."""
        nsub, nsp = self.nsub, self.S.shape[-1]
        Gt = self._Ghat.reshape(-1, 64).T
        k0 = self.mat.e0 if self.mat is not None else 1.0
        nc = self.num_cells
        out = np.empty((nc, nsub))
        # T and H, 3 * dpn floats per point each, and three temporaries
        for rows in _row_batches(nc, (6 * self.dpn + 3) * nsp * 8,
                                 min(_GRAM_BATCH_BYTES, _PLANE_BATCH_BYTES)):
            un = u[self.dofmap[rows]].reshape(-1, 64, self.dpn)
            # T[c, d, e, sp] = sum_n Ghat[e, sp, n] u[c, n, d], one 2-D
            # GEMM, and H[f][d] = sum_e S[:, e, f] T[:, d, e]
            T = (un.swapaxes(1, 2).reshape(-1, 64) @ Gt).reshape(
                len(un), self.dpn, 3, nsp)
            S = self.S[rows]
            H = [[S[:, 0, f] * T[:, d, 0] + S[:, 1, f] * T[:, d, 1]
                  + S[:, 2, f] * T[:, d, 2] for d in range(self.dpn)]
                 for f in range(3)]
            if self.dpn == 1:
                dens = k0 * (H[0][0] ** 2 + H[1][0] ** 2 + H[2][0] ** 2)
            else:
                # lam tr(H)^2 + mu sum_fd H_fd (H_fd + H_df), each pair of
                # off-diagonal terms folded into one square
                lam, mu = self.mat.lam, self.mat.mu
                tr = H[0][0] + H[1][1] + H[2][2]
                dens = lam * tr ** 2
                for f in range(3):
                    dens += 2 * mu * H[f][f] ** 2
                    for d in range(f):
                        dens += mu * (H[f][d] + H[d][f]) ** 2
            out[rows] = dens.reshape(len(dens), nsub, -1).sum(axis=-1)
        return out

    def load_vector(self, bcs):
        if bcs.heat_source and self.problem != "heat":
            raise ValueError("a heat source needs the heat problem, not %s"
                             % self.problem)
        F = np.zeros(self.ndof)
        for i, load in enumerate(bcs.loads):
            vec = load.vector
            if len(vec) != self.dpn:
                raise ValueError("load vector must have %d component(s)"
                                 % self.dpn)
            F.reshape(-1, self.dpn)[_box_points(
                self.model.points, load, "load %d:" % i)] += vec
        if bcs.heat_source:
            F += bcs.heat_source * self._unit_source
        return F

    def dirichlet(self, bcs):
        """(dofs, values) from the dirichlet specs; later specs win."""
        vals = np.full(self.ndof, np.nan)       # spec values are finite
        for i, spec in enumerate(bcs.dirichlet):
            bad = [c for c in spec.components if not 0 <= c < self.dpn]
            if bad:
                raise ValueError("dirichlet component %s invalid for %s"
                                 % (bad, self.problem))
            idx = _box_points(self.model.points, spec, "dirichlet %d:" % i)
            comps = np.array(spec.components, dtype=np.int64)
            vals[(self.dpn * idx[:, None] + comps).ravel()] = spec.value
        dofs = np.flatnonzero(~np.isnan(vals))
        return dofs, vals[dofs]


def _cg(matvec, b, precond, x0, r0, rtol, maxiter, matvec32=None):
    """Preconditioned conjugate gradients in sweeps under float64 restarts.

    Every restart computes the true residual r = b - K x with the float64
    `matvec`, and convergence is declared on such a residual, evaluated
    in this solve, only.  A sweep then runs CG on K d = r from d = 0 until
    its recurrence residual has fallen by the factor that would bring the
    true residual to rtol, and x += d.  `r0` is the residual at x0 as the
    caller knows it (b itself at x0 = 0, or one carried from an earlier
    solve), or None to evaluate it.  A given r0 only starts the first
    sweep, and one at or below rtol, or not finite, is evaluated first:
    a stale r0 costs iterations but never changes what is returned, and
    it is no restart.  The sweeps use `matvec32` (a float32 copy of K,
    half the memory traffic) when given, else `matvec` itself: in float64
    one sweep normally suffices and the restart confirms it.  The float32
    recurrence drifts from the true residual, and each restart gains the
    float32-attainable reduction again, so tight tolerances remain
    reachable as long as kappa * eps_f32 stays well below one.  Beyond
    that (e.g. heavily voided systems with mu_min ~ 1e-9) the sweeps stop
    making progress and the loop raises instead of burning the iteration
    budget.  In float64 the same stall, after sweeps that met their goal,
    means the true residual has reached its rounding floor above an rtol
    too tight for float64; the loop then returns its best iterate with
    that residual.  `precond` is a callable applying M^-1.

    Returns (x, iterations, relres, restarts, r): the sweeps' iterations,
    the relative float64 residual, the number of float64 residual
    evaluations and the last float64 residual b - K x itself.
    """
    sweep_mv = matvec if matvec32 is None else matvec32
    hint = ("the system is too ill-conditioned for float32 -- raise mu_min "
            "or use full precision" if matvec32 is not None
            else "matrix not positive definite?")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0, 0, np.zeros_like(b)
    x = np.array(x0, dtype=float)
    r = r0
    total = restarts = bad = 0
    best = np.inf
    reached = False
    while True:
        if r is None:
            r = b - matvec(x)
            restarts += 1
        rnorm = np.linalg.norm(r)
        res = rnorm / bnorm
        if not restarts:
            # the given r0: it may start a sweep, never end the solve
            if not rtol < res < np.inf:
                r = None
                continue
        elif not np.isfinite(res):
            raise RuntimeError("conjugate gradients met a non-finite residual "
                               "after %d iterations (relative residual %s)"
                               % (total, res))
        elif res <= rtol:
            return x, total, res, restarts, r
        else:
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
                raise RuntimeError("conjugate gradient sweeps stalled at "
                                   "relative residual %.3e (target %g): %s"
                                   % (best, rtol, hint))
            if total >= maxiter:
                raise RuntimeError("conjugate gradients did not converge in "
                                   "%d iterations (relative residual %.3e)"
                                   % (total, res))
        goal = rtol / res
        d = np.zeros_like(b)
        s = np.array(r)
        z = precond(s)
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
            z = precond(s)
            rz_new = s @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        if not it and restarts:
            raise RuntimeError("conjugate gradients broke down at relative "
                               "residual %.3e (target %g): %s"
                               % (res, rtol, hint))
        total += it
        x = x + d
        r = None


def _warm_start(assembly, x0):
    """x0 as a flat float64 vector of the assembly's dofs; it must have
    shape (ndof,) or (num_control_points, dpn) and finite entries."""
    x0 = np.asarray(x0, dtype=float)
    dpn = assembly.dpn
    shapes = ((assembly.ndof,), (assembly.model.num_control_points, dpn))
    if x0.shape not in shapes:
        raise ValueError("x0 must have shape %s or %s, got %s"
                         % (shapes + (x0.shape,)))
    x0 = x0.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(x0))
    if len(bad):
        point, comp = divmod(int(bad[0]), dpn)
        raise ValueError("x0 is not finite at control point %d, component "
                         "%d: %g" % (point, comp, x0[bad[0]]))
    return x0


def solve_system(op, rtol=1e-8, x0=None):
    """Solve K U = F on a StiffnessOperator, which holds K, the load F and
    the Dirichlet lift; returns the Solution with compliance (1/2) U^T K U.

    The CG sweeps run in the operator's precision (its float32 mirror, if
    it has one) under float64 restarts, so the returned residual is
    double-precision accurate at any rtol the conditioning admits; the
    operator's two-level preconditioner is brought up to date first, and
    its Cholesky-checked float32 block inversion rejects a K_ff that is
    not positive definite on some cell's dofs (a non-positive diagonal
    entry among them), or too ill-conditioned there for single precision,
    with a ValueError naming the cell.  With zero Dirichlet values the
    compliance is (1/2) x^T (b - r) on the free dofs, from the solve's
    last float64 residual r, which saves one pass over the stiffness.

    The warm start `x0` is a vector of every dof, flat (ndof,) or shaped
    (num_control_points, dpn) like Solution.u; its fixed dofs are ignored.
    Any other shape, or a non-finite entry, raises a ValueError before any
    work is done.  CG starts from a known residual where there is one: b
    itself without x0, and the operator's carried residual when x0 equals,
    by value on the free dofs, the operator's last solution; any other x0
    has its residual evaluated by a float64 pass.  The solution and its
    last float64 residual are then kept on the operator for the next
    solve.
    """
    if not 0.0 < rtol < 1.0:          # a NaN fails the test too
        raise ValueError("rtol must lie in (0, 1), got %r" % (rtol,))
    assembly, K, free, g = op.assembly, op.K, op.free, op.g
    start = None if x0 is None else _warm_start(assembly, x0)[free]
    b = op._rhs()
    if start is None:
        start, r0 = np.zeros_like(b), b
    else:
        r0 = op.r if np.array_equal(start, op.u[free]) else None
    op.prepare()
    mv = partial(assembly.free_matvec, K, free)
    mv32 = (None if op.K32 is None
            else partial(assembly.free_matvec, op.K32, free))
    x, iters, res, restarts, r = _cg(mv, b, op.precond, start, r0, rtol,
                                     50 * len(start), mv32)
    U = np.array(g)
    U[free] = x
    op.u, op.r = U.copy(), r
    if g.any():
        compliance = 0.5 * (U @ assembly.matvec(K, U))
    else:
        compliance = 0.5 * (x @ (b - r))
    return Solution(u=U.reshape(-1, assembly.dpn), compliance=float(compliance),
                    iterations=iters, residual=float(res), restarts=restarts)


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


def _gauss_jordan(A, cells, exact):
    """Overwrite a stack of symmetric matrices by their inverses, in the
    precision of A.

    A stack of at most _LEAF rows is Cholesky-checked and inverted by
    LAPACK; a larger one by a block Gauss-Jordan sweep over pivot blocks
    of min(_PIVOT, half its rows), each inverted in place by this same
    function, so the leaves are the nested Schur complements of the
    matrix.  `exact` holds the float64 matrices A was made from: a leaf of
    A[i] that fails its factorization raises a ValueError naming cells[i],
    as not positive definite if exact[i] fails Cholesky too, else as too
    ill-conditioned for single precision."""
    n = A.shape[-1]
    if n <= _LEAF:
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            for i, c in enumerate(cells):
                try:
                    np.linalg.cholesky(A[i])
                except np.linalg.LinAlgError:
                    try:
                        np.linalg.cholesky(exact[i])
                    except np.linalg.LinAlgError:
                        why = "not positive definite"
                    else:
                        why = ("positive definite but too ill-conditioned "
                               "for single precision")
                    raise ValueError("cell %d: assembled block is %s"
                                     % (c, why)) from None
            raise
        A[...] = np.linalg.inv(A)
        return
    pivot = min(_PIVOT, -(-n // 2))
    for p0 in range(0, n, pivot):
        p = slice(p0, p0 + pivot)
        others = [s for s in (slice(0, p0), slice(p0 + pivot, n))
                  if s.start < s.stop]
        _gauss_jordan(A[:, p, p], cells, exact)
        # pivot rows become A_pp^-1 A_pj, the other rows A_ij - A_ip A_pp^-1
        # A_pj, and their pivot columns -A_ip A_pp^-1
        for s in others:
            A[:, p, s] = A[:, p, p] @ A[:, p, s]
        for s in others:
            D = A[:, s, p] @ A[:, p]
            A[:, s, p] = 0.0
            A[:, s] -= D


def _sweep_inverse(A, cells, w):
    """Invert a float64 stack of symmetric matrices in single precision
    and weight the inverses: returns the float32 stack of
    (X + X^T) / 2 * w[i] w[i]^T, X the inverse of A[i].  A is unchanged.

    A is cast to float32 once and inverted by the recursive block
    Gauss-Jordan sweep (_gauss_jordan): the top-level pivot blocks have
    _PIVOT rows; each is inverted by the same sweep over pivots of half
    its rows, down to leaves of at most _LEAF rows, and only the leaves
    are factored by batched Cholesky and inverted by LAPACK.  Everything
    else is batched GEMMs, all in numpy's own LAPACK and BLAS.  A leaf is
    the Schur complement of the leaves before it, and a symmetric matrix
    is positive definite exactly when every one of them is, so the leaf
    factorizations check each matrix in full: if one fails, the
    ValueError names cells[i] and tells, from A[i] in float64, an
    indefinite matrix from one too ill-conditioned for float32.  Every
    matrix is swept on its own, so the result does not depend on the
    batch.  Each inverse is finished in one pass while it is in cache, X
    += X^T and X *= (w/2) w^T; 1/2 is a power of two, so the table and
    with it the result are exactly symmetric.
    """
    Y = A.astype(np.float32)
    _gauss_jordan(Y, cells, A)
    for X, v in zip(Y, w.astype(np.float32)):
        X += X.T                # the transpose stays in cache
        X *= (0.5 * v)[:, None] * v
    return Y


class TwoLevelPreconditioner:
    """Overlapping cell blocks plus a Galerkin coarse correction, combined
    additively.

    The fine term is weighted additive Schwarz over the cells: each cell's
    block is the assembled stiffness restricted to its own dofs (its
    K_cells entry plus every neighbour's contribution on shared control
    points, Dirichlet rows and columns replaced by identity), assembled in
    float64, inverted once in float32, scaled on both sides by the weights
    w = m^(-1/2) of its dofs and stored as a float32 stack of the same
    size as the float32 stiffness copy used by single-precision solves.
    Like the float32 sweeps of CG under float64 restarts, this is a
    low-precision factorization under high-precision residuals (iterative
    refinement): M only has to precondition, and the residuals CG stops on
    are float64.  Applying it is one batched matvec.  m counts the cells
    holding a dof's control point (8 at a regular interior mesh vertex,
    more at an extraordinary one), so an unweighted sum would count that
    dof m times; with the exponent 1/2 the squared weights of each dof sum
    to one over its cells, a partition of unity.  Of the exponents 0, 1/4, 1/2, 5/8, 3/4 and 1, 1/2 also took
    the fewest CG iterations in BESO runs: 112 against 162 unweighted and
    212 at 1 over a cantilever's solves 2-10, 1 038 against 1 641 and
    2 032 over a heat run's solves 2-36.

    The smooth end of the spectrum is corrected on the cells' corner
    control points (the mesh vertices of a model from build_spline_model):
    P interpolates every control point trilinearly, at its lattice
    parameters (i, j, k) / 3, from the corners of the first cell holding
    it, and the coarse matrix is the Galerkin product P_f^T K_ff P_f on
    the free dofs, summed cell by cell from K_cells.  A coarse dof is
    fixed exactly when the fine dof of its own corner control point is.
    Every kept coarse column then holds a 1 in a row where all others hold
    0, so P_f has full column rank and the coarse matrix is positive
    definite whenever K_ff is.  It is ~20x smaller than the spline system
    and factorizes in milliseconds.

    Each batch of blocks is cast to float32 once and inverted in numpy's
    own LAPACK and BLAS by one recursive block Gauss-Jordan sweep
    (_sweep_inverse): its pivots are halved down to leaves of at most
    _LEAF rows, and the Cholesky factorizations of the leaves, the nested
    Schur complements, check that every assembled block is positive
    definite; a block that is not raises a ValueError naming its cell,
    and so does one that float64 Cholesky accepts but float32 does not,
    as too ill-conditioned for single precision.  One pass per block
    while it is in cache makes the inverse exactly symmetric, as CG
    requires, and applies the weights.  Building the 1 024 blocks of the
    benchmark cantilever takes 0.9 s against 1.2 s with a float64 sweep
    (2-core VM), and each block stays within a relative error of about
    1e-5 of the weighted float64 inverse at condition numbers up to 4e4.

    `refresh` builds every block on its first call and, on every call,
    refactorizes the coarse matrix.  `update` is told the cells whose
    stiffness changed and rebuilds their blocks alone.  The neighbours of
    those cells keep the blocks they had: each is still the inverse of a
    symmetric positive definite matrix scaled by the same positive
    diagonal on both sides, so M stays symmetric positive definite and CG
    stays valid; it only preconditions a little less sharply.  The
    weights depend on the mesh alone and never change.  Blocks and the
    coarse products are built in batches of cells whose index arrays,
    float64 and float32 blocks and temporaries stay within
    _GRAM_BATCH_BYTES.  The StiffnessOperator that owns it builds it on
    its mask `free` of unfixed dofs, reports the cells its increments
    touched before every solve and refreshes it every _REFRESH_EVERY
    solves.  It is the preconditioner of every CG solve.
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
        # every dof's weight m^(-1/2), m the number of cells holding its
        # control point
        self._weight = np.bincount(nodes.ravel()).repeat(dpn) ** -0.5
        # bytes of building one cell's block: its float64 block and at
        # most three more of its size at once (the scattered neighbour
        # sum; or the float32 copy the sweep inverts, with the sweep's
        # float32 pivot rows and update product and a leaf's factor and
        # inverse), plus source index, destination index and weight (each
        # made and concatenated) per shared-dof entry
        entries = np.zeros(assembly.num_cells)
        for c, _, a, _ in self._overlaps:
            entries += (dpn * a.shape[1]) ** 2 * np.bincount(
                c, minlength=assembly.num_cells)
        self._block_bytes = 4 * 8 * assembly.nd ** 2 + 6 * 8 * entries
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
                    self._cell_blocks(K_cells, sel), sel,
                    self._weight[self.assembly.dofmap[sel]])

    def update(self, K_cells, cells):
        """The stiffness of the listed cells changed: rebuild their
        blocks."""
        self._build(K_cells, np.unique(np.asarray(cells, dtype=np.int64)))

    def refresh(self, K_cells):
        """Factorize the coarse matrix P_f^T K_ff P_f, after building
        every cell block on the first call."""
        asm = self.assembly
        nc, nd = asm.num_cells, asm.nd
        if self.lu is None:
            self._build(K_cells, np.arange(nc))
        m = self._T.shape[1]
        A = np.empty((nc, m, m))
        # per cell: the masked table, its product with the block, a copy
        # of either for the GEMM and the gathered dof indices
        for sel in _row_batches(nc, 8 * (3 * nd * m + nd)):
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
    and `precond`, the TwoLevelPreconditioner on `free`, built on first use.
    The first CG solve has the preconditioner build every block from K.
    Before each later one, `prepare` has it rebuild the blocks of the
    cells touched since the last solve, and no others, and, every
    _REFRESH_EVERY solves, refactorize its coarse matrix.  `factors` are
    the per-(cell, sub) stiffness factors K was aggregated from (None: no
    factors to change); `set_factors` keeps K, K32 and the factors in step.

    It also carries `u`, the last solution U over every dof (the lift g
    before the first solve, the state x = 0 of the free dofs), and `r`,
    the float64 residual (F - K u)[free] of u.  solve_system sets both;
    `set_factors` patches r by the increment's product with u, so a solve
    warm-started from u needs no float64 pass to find its first residual.
    A K changed in place by other means leaves r stale: the next solve
    from u then takes more iterations, never a wrong answer.
    """

    def __init__(self, assembly, K_cells, bcs, factors=None,
                 single_precision=False):
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
        # the lift is the state x = 0 of the free dofs: its residual is b
        self.u = self.g.copy()
        self.r = self._rhs()
        self._age = 0          # solves since the last refresh
        self._touched = []     # cells changed since the last solve

    @cached_property
    def precond(self):
        return TwoLevelPreconditioner(self.assembly, self.free)

    def _rhs(self):
        """b = (F - K g)[free], the right-hand side of K_ff x = b."""
        if not self.g.any():
            return self.F[self.free]
        return (self.F - self.assembly.matvec(self.K, self.g))[self.free]

    def set_factors(self, cells, subs, values):
        """Change the stiffness factors of the listed (cell, sub) pairs and
        patch K, its mirror and the carried residual incrementally: r -=
        (dK u)[free], with dK u from add_increment, and each touched cell
        re-cast into K32 on its own.  A pair outside the model, one listed
        twice, or a factor that is negative or not finite raises a
        ValueError naming it, before anything changes."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if self.factors is None:
            raise ValueError("operator was built without stiffness factors")
        _check_pairs(cells, subs, *self.factors.shape, distinct=True)
        _check_factors(values, cells, subs, "stiffness factor", 0.0)
        du = self.assembly.add_increment(
            self.K, cells, subs, values - self.factors[cells, subs], u=self.u)
        self.factors[cells, subs] = values
        self.r = self.r - du[self.free]
        touched = np.unique(cells)
        if self.K32 is not None:
            for c in touched:
                self.K32[c] = self.K[c]
        self._touched.append(touched)

    def prepare(self):
        """Bring the preconditioner up to date for the next solve."""
        pc = self.precond
        if self._touched:
            pc.update(self.K, np.concatenate(self._touched))
            self._touched = []
        if pc.lu is None or self._age >= _REFRESH_EVERY:
            pc.refresh(self.K)
            self._age = 0
        self._age += 1


def assemble_and_solve(model, mat, bcs, problem, rtol=1e-8,
                       single_precision=False):
    """Assemble the model's stiffness (every cell whole, factor 1) and
    solve one analysis problem."""
    asm = Assembly(model, problem, mat)
    op = StiffnessOperator(asm, asm.aggregate(np.ones((asm.num_cells, 1))),
                           bcs, single_precision=single_precision)
    return solve_system(op, rtol=rtol)
