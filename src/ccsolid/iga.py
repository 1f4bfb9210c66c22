"""Isogeometric heat and elasticity analysis on the Bezier model.

The solution space is the model's own tricubic Bernstein basis (64 nodes
per cell, shared across faces).  Element integrals use tensor-product
Gauss-Legendre quadrature; sub-element stiffness matrices integrate the
*parent* basis over a dyadic parametric sub-cube [i,i+1]x[j,j+1]x[k,k+1]
/ 2^level, and a cell's stiffness is their sum weighted by one factor per
(cell, sub-cube).  A cell's 2^level pieces along a parameter hold o Gauss
points each, Q = o 2^level in all, so its Q^3 points form a grid, and
sub-cube (i, j, k) is the o^3 block of the grid starting at point (i o,
j o, k o).  The basis is a tensor product of 1-D Bernstein polynomials,
so one family of tables serves every kernel: the values and derivatives
of the four 1-D polynomials at the Q points (_line_tables).  The
geometry is stored as one scaled inverse S = sqrt(w det J) J^{-1} per
grid point, formed from closed-form cofactors of J and kept as one
contiguous grid plane per entry of S in each cell, so every kernel
carries the quadrature weight w det J inside S.  Each job has one kernel:

- Gradients on the grid (_grid_gradients): three GEMMs against the 1-D
  tables take per-node fields to their parameter gradients at every grid
  point.  They give J from the control nets, the energies' gradients from
  the dof values and, from the 64 unit fields, the increments' gradient
  table.
- Whole cells (aggregate, sub_stiffness): sum factorization.  The
  stiffness is a sum of per-point coefficient planes in S, contracted one
  parameter at a time by GEMMs against the 1-D tables (Antolin, Buffa,
  Calabro, Martinelli and Sangalli, CMAME 284, 2015).  A cell costs about
  2 (16 Q^3 + 256 Q^2) flops per plane plus 8192 Q per block and group of
  the last contraction: 2.0 MFLOP for a heat cell at level 2 and 3.8 MFLOP
  for an elasticity cell at level 1, against 100 and 38 MFLOP for a Gram
  of its points' gradients, and the ratio grows 8x per level.
- Increments (add_increment): a Gram of the weighted physical gradients
  S^T Ghat of each run of (cell, sub-cube) pairs, expanded per point as

      B_i^T D B_j = lam g_i g_j^T + mu (g_j g_i^T + (g_i . g_j) I)

  with g_i the physical shape gradients.  For the few pairs of one cell
  that a BESO step touches it costs less than a whole-cell pass.
- Energies (sub_energies): the dof values' gradients on the grid,
  multiplied by S^T.

Sub-cube volumes and energies are sums over the o^3 blocks of the grid.
Every kernel works in batches whose working set stays within a fixed
budget, or one cell's if that is larger, so memory beside its output does
not grow with the mesh; all reductions run in a fixed order, so results
are deterministic.
"""

import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .hexmesh import CORNER_OFFSETS
from .spline import _bernstein, _bernstein_deriv

_PROBLEMS = ("heat", "elasticity")
# working-set bound of one batch of the geometry, the increments' Gram
# kernel, the sub-element energies and the preconditioner's cell blocks
_GRAM_BATCH_BYTES = 32 << 20
# tighter bound of one batch of the whole-array arithmetic on per-point
# planes (the geometry, the energies and the sum-factorized stiffness),
# which then stays in cache; the rows of a batch change none of the
# aggregates' bits
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


def _whole(value, name, least):
    """`value` as an int; a ValueError naming `name` unless it is a whole
    number >= least."""
    if not (isinstance(value, numbers.Real) and value >= least
            and float(value).is_integer()):
        raise ValueError("%s must be a whole number >= %d, got %r"
                         % (name, least, value))
    return int(value)


@lru_cache(maxsize=32)
def _line_tables(level, order):
    """Values and derivatives (Q, 4) of the four 1-D Bernstein polynomials
    at the Q = order * 2^level Gauss points of a cell's edge cut into
    2^level equal pieces, in order: grid point q = i * order + p is point p
    of piece i; and the points' Gauss weights (Q,) on the unit edge."""
    x, w = np.polynomial.legendre.leggauss(order)
    m = 2 ** level
    t = ((np.arange(m)[:, None] + (x + 1.0) / 2.0) / m).ravel()
    B, D, w = _bernstein(t), _bernstein_deriv(t), np.tile(w / 2.0, m) / m
    for a in (B, D, w):
        a.setflags(write=False)
    return B, D, w


def _grid_gradients(F, level, order):
    """Parameter gradients on each cell's Q^3 Gauss grid of per-node
    fields: F (n, 64, k) holds k fields per cell, node (a, b, c) at 16 a +
    4 b + c; returns G (3, n, k, Q^3) with G[e, i, j] the gradient along
    parameter e of field j of cell i at grid point (q1, q2, q3), flattened
    in that order.

    The basis is a tensor product, so the nodes are contracted one
    parameter at a time by three GEMMs against _line_tables: over a with
    the values and derivatives stacked, then over b likewise, and over c
    with the table each e needs.  Every GEMM keeps the cells in its rows
    or columns, so a cell's result does not depend on the others.  Beside
    G it holds 20 k Q^2 floats per cell."""
    B, D, _ = _line_tables(level, order)
    Q = len(B)
    n, _, k = F.shape
    BD = np.concatenate([B, D])
    # Z[b, i, j, c, t1, q1] and Y[t2, q2, i, j, c, t1, q1], t = 0 for the
    # values and 1 for the derivatives
    Z = F.reshape(n, 4, 4, 4, k).transpose(2, 0, 4, 3, 1).reshape(-1, 4) @ BD.T
    Y = (BD @ Z.reshape(4, -1)).reshape(2, Q, n, k, 4, 2, Q)
    G = np.empty((3, n, k, Q ** 3))
    for e, (t1, t2, X) in enumerate(((1, 0, B), (0, 1, B), (0, 0, D))):
        L = Y[t2, :, :, :, :, t1].transpose(1, 2, 4, 0, 3).reshape(-1, 4)
        np.matmul(L, X.T, out=G[e].reshape(-1, Q))
    return G


def _block_sums(x, m, o):
    """Sums of x (n, Q^3), Q = m o, over the m^3 blocks of o^3 points of
    each grid: (n, m^3).  The three parameters are summed in turn, the
    outermost first, so every sum but the last adds contiguous runs."""
    x = x.reshape(len(x), m, o, m, o, m, o)
    return x.sum(axis=2).sum(axis=3).sum(axis=4).reshape(len(x), -1)


# The (e, g) terms of the stiffness integrand, e and g parameter
# directions, in groups that share the pair of 1-D tables of the last (q1)
# contraction: (derivative, derivative), (derivative, value), (value,
# derivative), (value, value).  _UPPER (e <= g) fills the blocks d <= d' of
# the spatial components, _LOWER (e > g) the blocks d < d'; every other
# term is the transpose of one of these.
_UPPER = (((0, 0),), ((0, 1), (0, 2)), ((1, 1), (1, 2), (2, 2)))
_LOWER = (((1, 0), (2, 0)), ((2, 1),))
# the (d, d') blocks of an elasticity cell in kernel order: the diagonal,
# then the blocks (d, d + 1), then (0, 2)
_BLOCKS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))


@lru_cache(maxsize=2)
def _cell_gather(dpn):
    """Where each entry of a node-major (nd, nd) cell stiffness sits in the
    sum-factorization kernel's result: the (d, d') block of _BLOCKS (d <=
    d') and the position in that block, indexed (c, c', b, b', a, a') for
    the node pair ((a, b, c), (a', b', c')); a block d > d' is read from
    (d', d) transposed.  Also returns the permutation of a block's
    positions that transposes it."""
    a, b, c, a2, b2, c2 = np.indices((4,) * 6).reshape(6, -1)
    pos = ((((c * 4 + c2) * 4 + b) * 4 + b2) * 4 + a) * 4 + a2
    pos_t = ((((c2 * 4 + c) * 4 + b2) * 4 + b) * 4 + a2) * 4 + a
    swap = np.empty(4096, dtype=np.intp)
    swap[pos] = pos_t
    block = np.empty((64, dpn, 64, dpn), dtype=np.intp)
    at = np.empty_like(block)
    for k, (d, e) in enumerate(_BLOCKS[:1 if dpn == 1 else None]):
        block[:, e, :, d] = block[:, d, :, e] = k
        at[:, e, :, d] = pos_t.reshape(64, 64)
        at[:, d, :, e] = pos.reshape(64, 64)
    for t in (swap, block, at):
        t.setflags(write=False)
    return block.ravel(), at.ravel(), swap


class Assembly:
    """Precomputed quadrature data of a model at one sub-cube level.

    Holds S = sqrt(w det J) J^{-1}, nine floats at every point of each
    cell's Q^3 Gauss grid (see the module docstring), as S[c, e, a, q] for
    entry (e, a) at grid point q = (q1 Q + q2) Q + q3: (nc, 3, 3, Q^3), one
    contiguous plane per cell and entry; the sub-cube volumes; the load of
    a unit heat source; the cell-to-dof map; and batched routines for
    sub-element stiffness, aggregation over per-(cell, sub) stiffness
    factors, increments, matvec, and sub-element energies.  Sub-cube
    (i, j, k) has index (i 2^level + j) 2^level + k.  The constructor forms
    J from the control nets by _grid_gradients, det J and the adjugate by
    whole-array cofactor arithmetic on the planes over batches of cells,
    and the unit source by contracting w det J with the 1-D value tables;
    a det J that is not positive raises a ValueError naming the (cell,
    sub-cube, point) of the least one in the model.  All reductions run in
    a fixed order, so repeated assemblies are bit-identical.  Whole cells
    go through the sum-factorization kernel (_sum_factorized): aggregate
    runs it on every cell's grid, sub_stiffness on one sub-cube's block of
    it.  Increments go through the pair-run Gram kernel (_gram_batches) on
    a table of the basis gradients at every sub-cube's points, built on
    the first increment and kept: 50 MB at level 3.  sub_energies forms
    the weighted physical gradients S^T X from the dof values' gradients
    on the grid.  Each batch of these, and of those forming S, holds at
    most the larger of its budget (_PLANE_BATCH_BYTES for the per-point
    planes of the geometry, the energies and the sum factorization,
    _GRAM_BATCH_BYTES for the Grams) and one cell's working set.  So
    memory beside the results does not grow with the mesh, but it does
    with the level once one cell's working set passes the budget: at level
    3 one elasticity cell's energy planes take 5.5 MB and its
    sum-factorization workspace 11.3 MB, both above the 4 MiB plane
    budget, and both grow 8x a level finer.
    """

    def __init__(self, model, problem, mat=None, level=0, quad_order=4):
        if problem not in _PROBLEMS:
            raise ValueError("problem must be one of %s" % (_PROBLEMS,))
        if problem == "elasticity" and mat is None:
            raise ValueError("elasticity requires a Material")
        level = _whole(level, "level", 0)
        quad_order = _whole(quad_order, "quad_order", 1)
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
        nets = model.points[model.cell_nodes]                 # (nc, 64, 3)
        m, o = 2 ** level, quad_order
        B, _, w = _line_tables(level, o)
        nc, Q = len(nets), len(B)
        w = (w[:, None, None] * w[:, None] * w).ravel()       # on the grid
        self.S = np.empty((nc, 3, 3, Q ** 3))
        self.sub_volumes = np.empty((nc, self.nsub))
        source = np.empty((nc, 64))
        worst = (np.inf, 0)        # least det J and its flat index
        # R, two cofactor products, then det J, w det J, its root and the
        # scale: 13 floats per point beside S, or _grid_gradients' 60 per
        # Q^2 points while it forms R
        for rows in _row_batches(nc, (13 * Q + 60) * Q * Q * 8,
                                 min(_GRAM_BATCH_BYTES, _PLANE_BATCH_BYTES)):
            # J[a][e] = R[e, :, a] = sum_n x_a(n) dN_n/dxi_e
            R = _grid_gradients(nets[rows], level, o)
            J = [[R[e, :, a] for e in range(3)] for a in range(3)]
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
                worst = (least, rows.start * Q ** 3 + i)
            if not (worst[0] > 0):            # a NaN fails the test too
                continue
            wdet = w * det
            self.sub_volumes[rows] = _block_sums(wdet, m, o)
            # the unit source: w det J against the value tables
            source[rows] = np.einsum("cpqr,pa,qb,rd->cabd", wdet.reshape(
                -1, Q, Q, Q), B, B, B, optimize=True).reshape(-1, 64)
            S *= (np.sqrt(wdet) / det)[:, None, None]
        if not (worst[0] > 0):
            c, i, p, j, q, k, r = np.unravel_index(
                worst[1], (nc, m, o, m, o, m, o))
            raise ValueError(
                "non-positive Jacobian in cell %d (sub-element %d, "
                "quadrature point %d): det J = %g"
                % (c, (i * m + j) * m + k, (p * o + q) * o + r, worst[0]))
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

    @cached_property
    def _gram_table(self):
        """Parameter gradients of the 64 basis functions at every
        sub-cube's o^3 points, (nsub, o^3, 3, 64) indexed (sub, point, e,
        node): _grid_gradients of the 64 unit fields, reordered once.  Built
        on first use and kept with this Assembly: 50 MB at level 3."""
        m, o = 2 ** self.level, self.quad_order
        G = _grid_gradients(np.eye(64)[None], self.level, o).reshape(
            3, 64, m, o, m, o, m, o)
        table = G.transpose(2, 4, 6, 3, 5, 7, 0, 1).reshape(
            self.nsub, -1, 3, 64)
        table.setflags(write=False)
        return table

    def _gram_batches(self, cells, subs, scale):
        """Weighted gradient Grams summed over runs of (cell, sub) pairs, in
        batches of bounded size: the kernel of add_increment.

        cells, subs and scale are (n,) over pairs, and a row is a maximal
        run of consecutive pairs of one cell and one sign of scale.  A row's
        Gram is W = sum over its pairs and points of q q^T, with q =
        sqrt(|scale|) S^T Ghat the weighted physical gradients of the pair
        flattened component-major, (d, node), negated where the scale is
        negative; for heat the sum runs over d too, giving the stiffness
        itself.  A pair's S is gathered from its o^3 block of the grid as
        (point, a, e), Ghat is its sub-cube's slice of _gram_table, and a
        row's pairs are folded into the inner dimension of one GEMM.  Yields
        (first, W) with `first` the index of each row's first pair.  The
        batches are consecutive slices of pairs within _GRAM_BATCH_BYTES of
        gradients and Grams, whatever the rows; a row that straddles
        batches is yielded once, its slices' Grams summed in another order
        than one GEMM would, which changes W by rounding only.
        """
        Ghat = self._gram_table
        # per pair: gathered Ghat, gradients and the previous slice's,
        # bound until replaced (the gathered S adds under 5 % of one)
        pair = 3 * Ghat[0].nbytes
        gram = 4 * self.nd * self.nd * 8    # W, a slice's Gram and _expand
        step = max(1, _GRAM_BATCH_BYTES // (pair + gram))
        m, o = 2 ** self.level, self.quad_order
        S = self.S.reshape(len(self.S), 3, 3, m, o, m, o, m, o).transpose(
            0, 3, 5, 7, 4, 6, 8, 2, 1)
        i, j, k = np.unravel_index(subs, (m, m, m))
        neg = scale < 0
        root = np.sqrt(np.abs(scale))
        bounds = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1])
                                      | (neg[1:] != neg[:-1]), True])
        carry = None
        for q0 in range(0, len(cells), step):
            q1 = min(q0 + step, len(cells))
            St = S[cells[q0:q1], i[q0:q1], j[q0:q1], k[q0:q1]].reshape(
                q1 - q0, -1, 3, 3)
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

    def _kernel_floats(self, Q):
        """Floats of the sum-factorization kernel's workspace per cell of
        Q^3 points: S scaled in its own layout (then kappa U), U on the
        grid, one term's coefficient planes, three product planes and a
        sum plane, three terms' first contractions, three groups' second
        ones, the result, the _LOWER terms' result and the transposes of
        the diagonal blocks."""
        elastic = self.dpn == 3
        nb = len(_BLOCKS) if elastic else 1
        return ((18 + elastic + nb + 3) * Q ** 3 + 48 * nb * Q * Q
                + 768 * nb * Q + (nb + 5 * elastic + 1) * 4096)

    def _sum_factorized(self, S, root, lines, out, work):
        """Stiffness of n cells, or sub-cubes, by sum factorization.

        S (n, 3, 3, Q, Q, Q), which may be a strided view, holds the scaled
        inverse Jacobians of each on its Q^3 grid of Gauss points, root (n,
        m, m, m) the square roots of the stiffness factors of its m^3
        sub-cubes of (Q / m)^3 points, and lines[k] the (values,
        derivatives) tables (Q, 4) of the 1-D basis at the Q points along
        parameter k.  Writes the node-major stiffness (n, nd, nd) to `out`,
        which must be contiguous; `work` is a flat float64 buffer of at
        least n * _kernel_floats(Q) floats.

        The basis is a tensor product, so the integral of C_eg Xhat_e
        Xhat_g^T over the grid, Xhat_e the parameter gradient e of the
        basis, factors into one contraction per parameter against a 1-D
        table X_k[q, a] X'_k[q, b] (X, X' values or derivatives).  With U =
        sqrt(f) S the coefficient planes are C_eg = k0 (U U^T)_eg for heat
        and, per block (d, d') of the spatial components, C_eg = lam U_ed
        U_gd' + mu U_ed' U_gd + mu delta_dd' (U U^T)_eg for elasticity.
        One (e, g) term's planes are contracted over q3 and then q2 by
        GEMMs; the terms that share the q1 table are stacked along the
        second GEMM's inner dimension, which sums them, and the groups
        along the third's.  The (g, e) term is the transpose of the (e, g)
        one with d and d' swapped, so _UPPER and _LOWER list 45 of the 81
        (e, g, d, d') terms of elasticity (6 of 9 for heat): the diagonal
        terms (e = g, d = d') are halved and each diagonal block is added to
        its transpose.  Every GEMM keeps the cells in its rows, so the
        result does not depend on how many cells are batched together.
        Per cell and plane the first two contractions take 2 (16 Q^3 + 256
        Q^2) flops, and the last one 2 * 4096 Q per block and group (24 for
        elasticity, 3 for heat).  The coefficient planes are whole-array
        arithmetic, about three passes per plane.
        """
        n, m, Q = len(S), root.shape[1], S.shape[-1]
        o = Q // m
        elastic = self.dpn == 3
        nb = len(_BLOCKS) if elastic else 1
        at = 0

        def carve(*shape):
            nonlocal at
            size = int(np.prod(shape))
            at += size
            return work[at - size:at].reshape(shape)

        if elastic:
            scale, kappa = self.mat.mu, self.mat.lam / self.mat.mu
        else:
            scale = self.mat.e0 if self.mat is not None else 1.0
        # U[e, q2, q1, a, c, q3] = sqrt(scale f) S[c, e, a] on the grid:
        # scaled in S's layout by sqrt(scale f) spread over the grid (in the
        # planes' space until they are filled), then transposed in runs of
        # Q floats (the q3 rows of the grid), one void item each
        spare = carve(9 * n * Q ** 3)
        U = carve(3, Q, Q, 3, n, Q)
        planes = carve(Q * Q * nb * n * Q)
        f = planes[:n * Q ** 3].reshape(n, m, o, m, o, m, o)
        np.copyto(f, np.sqrt(scale) * root.reshape(n, m, 1, m, 1, m, 1))
        native = spare.reshape(n, 3, 3, Q, Q, Q)
        np.multiply(S, f.reshape(n, 1, 1, Q, Q, Q), out=native)
        run = np.dtype((np.void, 8 * Q))
        np.copyto(U.view(run)[..., 0],
                  native.view(run)[..., 0].transpose(1, 4, 3, 2, 0))
        T = carve(Q, Q, 3, n, Q)
        R1 = carve(3 * Q * Q * nb * n * 16)
        R2 = carve(3 * Q * nb * n * 256)
        R3 = carve(nb, n, 4096)
        if elastic:
            kU = spare.reshape(U.shape)
            np.multiply(U, kappa, out=kU)
            H = carve(Q, Q, n, Q)
            R3_lower = carve(3, n, 4096)
        mirror = carve(3 if elastic else 1, n, 4096)
        pairs = [{(de, dg): (line[de][:, :, None] * line[dg][:, None, :])
                  .reshape(-1, 16) for de in (0, 1) for dg in (0, 1)}
                 for line in lines]

        def off_diagonal(P, e, g):
            # blocks (0, 1), (1, 2), then (0, 2): lam U_ed U_gd' + mu
            # U_ed' U_gd, with mu in U
            for s, k in ((1, slice(0, 2)), (2, slice(2, 3))):
                np.multiply(kU[e, :, :, :3 - s], U[g, :, :, s:],
                            out=P[:, :, k])
                np.multiply(U[e, :, :, s:], U[g, :, :, :3 - s],
                            out=T[:, :, k])
                P[:, :, k] += T[:, :, k]

        def upper(P, e, g):
            half = 0.5 if e == g else 1.0
            np.multiply(U[e], U[g], out=T)
            if not elastic:
                np.add(T[:, :, 0], T[:, :, 1], out=P[:, :, 0])
                P[:, :, 0] += T[:, :, 2]
                if e == g:
                    P *= half
                return
            np.add(T[:, :, 0], T[:, :, 1], out=H)
            np.add(H, T[:, :, 2], out=H)
            np.multiply(H, half, out=H)
            np.multiply(T, half * (kappa + 1.0), out=P[:, :, :3])
            P[:, :, :3] += H[:, :, None]
            off_diagonal(P[:, :, 3:], e, g)

        def contract(groups, k, fill, res):
            # planes P[q2, q1, block, c, q3], then T1[term, q2, (q1, block,
            # c, cc')], G[(group, q1), (block, c, cc', bb')] and res[block,
            # c, cc', bb', aa']
            P = planes[:Q * Q * k * n * Q].reshape(Q, Q, k, n, Q)
            rows = Q * k * n * 16
            G = R2[:len(groups) * rows * 16].reshape(len(groups) * Q, -1)
            Y1 = []
            for i, group in enumerate(groups):
                T1 = R1[:len(group) * Q * rows].reshape(len(group), Q, rows)
                Y2 = []
                for j, (e, g) in enumerate(group):
                    fill(P, e, g)
                    np.matmul(P.reshape(-1, Q), pairs[2][e == 2, g == 2],
                              out=T1[j].reshape(-1, 16))
                    Y2.append(pairs[1][e == 1, g == 1])
                np.matmul(T1.reshape(len(group) * Q, rows).T,
                          np.concatenate(Y2),
                          out=G[i * Q:(i + 1) * Q].reshape(-1, 16))
                Y1.append(pairs[0][e == 0, g == 0])
            np.matmul(G.T, np.concatenate(Y1), out=res.reshape(-1, 16))

        contract(_UPPER, nb, upper, R3)
        if elastic:
            contract(_LOWER, 3, off_diagonal, R3_lower)
            R3[3:] += R3_lower
        block, pos, swap = _cell_gather(self.dpn)
        diag = R3[:len(mirror)]
        np.take(diag, swap, axis=2, out=mirror, mode="clip")
        diag += mirror
        index = block * (n * 4096) + pos
        flat = R3.reshape(-1)
        for c in range(n):
            np.take(flat[4096 * c:], index, out=out[c].reshape(-1),
                    mode="clip")

    def sub_stiffness(self, cells, subs, factors=None):
        """Stiffness of the given (cell, sub-cube) pairs, optionally scaled
        by per-pair factors (negative factors allowed, e.g. for incremental
        stiffness removal).  Each pair runs the sum-factorization kernel on
        its own o^3 block of its cell's grid, one pair at a time, so at
        level 0 it does aggregate's arithmetic on the whole cell.  A pair
        outside the model, or a factor that is not finite, raises a
        ValueError naming the pair."""
        cells = np.asarray(cells, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        _check_pairs(cells, subs, self.num_cells, self.nsub)
        scale = (np.ones(len(cells)) if factors is None
                 else np.asarray(factors, dtype=float))
        _check_factors(scale, cells, subs, "stiffness factor")
        m, o = 2 ** self.level, self.quad_order
        B, D, _ = _line_tables(self.level, o)
        S = self.S.reshape(self.num_cells, 3, 3, m * o, m * o, m * o)
        root = np.sqrt(np.abs(scale)).reshape(-1, 1, 1, 1)
        work = np.empty(self._kernel_floats(o))
        out = np.empty((len(cells), self.nd, self.nd))
        for i, (c, s) in enumerate(zip(cells, subs)):
            at = [slice(k * o, (k + 1) * o)
                  for k in np.unravel_index(s, (m, m, m))]
            self._sum_factorized(S[c:c + 1, :, :, at[0], at[1], at[2]],
                                 root[i:i + 1], [(B[a], D[a]) for a in at],
                                 out[i:i + 1], work)
            if scale[i] < 0:
                np.negative(out[i], out=out[i])
        return out

    def aggregate(self, factors, chunk=128):
        """Per-cell stiffness sum_s factors[c, s] * K0_{c,s}, (nc, nd, nd).

        Every cell is one run of the sum-factorization kernel over the
        grid of all its sub-cubes' Gauss points, its factors applied per
        point, in batches of at most `chunk` cells.  Beside the output a
        batch holds its workspace, at most the larger of _PLANE_BATCH_BYTES
        and one cell's (0.95 MB for an elasticity cell at level 1, 11.3 MB
        at level 3), and a gather index of nd^2 integers, so memory beside
        the output does not grow with the mesh.  The result does not depend
        on the batch size, and at level 0 it equals sub_stiffness bit for
        bit.  A factor that is negative or not finite raises a ValueError
        naming its (cell, sub) pair."""
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        nc = self.num_cells
        factors = np.asarray(factors, dtype=float).reshape(nc, self.nsub)
        _check_factors(factors, np.arange(nc)[:, None],
                       np.arange(self.nsub), "stiffness factor", 0.0)
        m, o = 2 ** self.level, self.quad_order
        floats = self._kernel_floats(m * o)
        step = min(chunk, max(1, _PLANE_BATCH_BYTES // (8 * floats)))
        S = self.S.reshape(nc, 3, 3, m * o, m * o, m * o)
        root = np.sqrt(factors).reshape(nc, m, m, m)
        lines = (_line_tables(self.level, o)[:2],) * 3
        work = np.empty(min(step, nc) * floats)
        out = np.empty((nc, self.nd, self.nd))
        for lo in range(0, nc, step):
            rows = slice(lo, min(lo + step, nc))
            self._sum_factorized(S[rows], root[rows], lines, out[rows], work)
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

        The dof values' gradients on the grid come from _grid_gradients,
        and S^T is applied by 3 * dpn whole-array multiply-adds over the
        contiguous grid planes of S and of the gradients; S carries w det
        J, so the energy density summed over a sub-cube's o^3 block of the
        grid is its energy.  The batches of cells hold their gradient
        tensors within _PLANE_BATCH_BYTES, or one cell's if that is larger:
        (6 dpn + 3) floats per point, 5.5 MB for an elasticity cell at
        level 3.  So the memory beside the (nc, nsub) result does not grow
        with the mesh, and grows 8x per level once a cell's tensors pass the
        budget."""
        k0 = self.mat.e0 if self.mat is not None else 1.0
        out = np.empty((self.num_cells, self.nsub))
        # T and H, 3 * dpn floats per point each, and three temporaries;
        # _grid_gradients holds under 5 dpn more per point beside T
        row = (6 * self.dpn + 3) * self.S[0, 0, 0].nbytes
        for rows in _row_batches(len(out), row, min(_GRAM_BATCH_BYTES,
                                                    _PLANE_BATCH_BYTES)):
            un = u[self.dofmap[rows]].reshape(-1, 64, self.dpn)
            # T[e, c, d] = the gradient along e of component d, and H[f][d]
            # = sum_e S[:, e, f] T[e, :, d]
            T = _grid_gradients(un, self.level, self.quad_order)
            S = self.S[rows]
            H = [[S[:, 0, f] * T[0, :, d] + S[:, 1, f] * T[1, :, d]
                  + S[:, 2, f] * T[2, :, d] for d in range(self.dpn)]
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
            out[rows] = _block_sums(dens, 2 ** self.level, self.quad_order)
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
    true residual to rtol, and x += d.  `r0` is the residual b - K x0 as
    the caller carries it (b itself at x0 = 0, or the residual of an
    earlier solve's x0 patched since), so the first sweep needs no float64
    pass.  It only starts that sweep, and one at or below rtol, or not
    finite, is evaluated first: a stale r0 costs iterations but never
    changes what is returned, and it is no restart.  The sweeps use
    `matvec32` (a float32 copy of K, half the memory traffic) when given,
    else `matvec` itself: in float64 one sweep normally suffices and the
    restart confirms it.  The float32 recurrence drifts from the true
    residual, and each restart gains the float32-attainable reduction
    again, so tight tolerances remain reachable as long as kappa * eps_f32
    stays well below one.  Beyond that (e.g. heavily voided systems with
    mu_min ~ 1e-9) the sweeps stop making progress and the loop raises
    instead of burning the iteration budget.  In float64 the same stall,
    after sweeps that met their goal, means the true residual has reached
    its rounding floor above an rtol too tight for float64; the loop then
    returns its best iterate with that residual.  `precond` is a callable
    applying M^-1.

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


def solve_system(op, rtol=1e-8):
    """Solve K U = F on a StiffnessOperator, which holds K, the load F, the
    Dirichlet lift and the state its solves start from; returns the
    Solution with compliance (1/2) U^T K U.

    CG starts from the operator's last solution u and its carried float64
    residual r, so no solve makes a float64 pass before its first sweep.
    Before the first solve they are the lift and b itself: a cold start
    from x = 0.  The solution and the solve's last float64 residual then
    replace them, so the next solve, after set_factors has patched r,
    starts warm from this one.

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
    """
    if not 0.0 < rtol < 1.0:          # a NaN fails the test too
        raise ValueError("rtol must lie in (0, 1), got %r" % (rtol,))
    assembly, K, free, g = op.assembly, op.K, op.free, op.g
    b = op._rhs()
    op.prepare()
    mv = partial(assembly.free_matvec, K, free)
    mv32 = (None if op.K32 is None
            else partial(assembly.free_matvec, op.K32, free))
    x0 = op.u[free]
    x, iters, res, restarts, r = _cg(mv, b, op.precond, x0, op.r, rtol,
                                     50 * len(x0), mv32)
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
    to one over its cells, a partition of unity, and of the exponents
    tried it took the fewest CG iterations in BESO runs.

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
    requires, and applies the weights.  Each block stays within a relative
    error of about 1e-5 of the weighted float64 inverse at condition
    numbers up to 4e4.

    It is complete when made: the constructor keeps `K_cells`, the
    float64 stack it preconditions, by reference, builds every cell block
    from it and factorizes the coarse matrix.  Its owner changes K_cells
    in place and then says so: `update(cells)` rebuilds the blocks of the
    cells whose stiffness changed, and no others, and `refresh()`
    refactorizes the coarse matrix from the current K_cells.  The
    neighbours of updated cells keep the blocks they had: each is still
    the inverse of a symmetric positive definite matrix scaled by the same
    positive diagonal on both sides, so M stays symmetric positive
    definite and CG stays valid; it only preconditions a little less
    sharply.  The weights depend on the mesh alone and never change.
    Blocks and the coarse products are built in batches of cells whose
    index arrays, float64 and float32 blocks and temporaries stay within
    _GRAM_BATCH_BYTES.  The StiffnessOperator that owns it builds it on
    its K and its mask `free` of unfixed dofs at the first solve, updates
    the cells its increments touched before every later one and refreshes
    it every _REFRESH_EVERY solves.  It is the preconditioner of every CG
    solve.
    """

    def __init__(self, assembly, free, K_cells):
        # the tables' temporaries are freed before the blocks are built,
        # so that the build reuses their memory instead of faulting in more
        self._tables(assembly, free)
        self.K = K_cells
        self._build(np.arange(assembly.num_cells))
        self.refresh()

    def _tables(self, assembly, free):
        """Everything that depends on the mesh and `free` alone: the coarse
        space, the cell overlaps, the weights, the cost of building each
        block and the empty block stack."""
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

    def _cell_blocks(self, cells):
        """Assembled principal submatrices on the dofs of `cells` (sorted,
        unique), Dirichlet dofs replaced by identity; float64."""
        asm, K_cells = self.assembly, self.K
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

    def _build(self, cells):
        """Build and invert the blocks of `cells` (sorted, unique)."""
        cost = self._block_bytes[cells]
        # consecutive batches within the budget, or one cell if larger
        batch = (np.cumsum(cost) - cost) // _GRAM_BATCH_BYTES
        for sel in np.split(cells, np.flatnonzero(np.diff(batch)) + 1):
            if len(sel):
                self.blocks[sel] = _sweep_inverse(
                    self._cell_blocks(sel), sel,
                    self._weight[self.assembly.dofmap[sel]])

    def update(self, cells):
        """The stiffness of the listed cells changed: rebuild their
        blocks."""
        self._build(np.unique(np.asarray(cells, dtype=np.int64)))

    def refresh(self):
        """Factorize the coarse matrix P_f^T K_ff P_f of the current K."""
        asm, K_cells = self.assembly, self.K
        nc, nd = asm.num_cells, asm.nd
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
        fine = self.assembly.free_matvec(self.blocks, self.free, r)
        return fine + self.P @ self.lu.solve(self.PT @ r)


class StiffnessOperator:
    """The per-cell stiffness of one design with everything its solves use.

    Resolves `bcs` first: the load `F`, the mask `free` of unfixed dofs and
    the lift `g` of the Dirichlet values; a `bcs` fixing no dof raises
    "insufficient constraints" before any stiffness is formed.  Then keeps
    `factors`, the design's per-(cell, sub) stiffness factors as an
    (nc, nsub) copy, and owns the float64 stack `K` (nc, nd, nd) aggregated
    from them; with `single_precision` also its float32 mirror `K32`, kept
    bit-identical to K.astype(np.float32) by re-casting the cells every
    increment touches.  `set_factors` keeps K, K32 and the factors in step.

    `precond`, the TwoLevelPreconditioner on K and `free`, is built whole
    on first use, normally by the first solve.  Before each later solve,
    `prepare` has it rebuild the blocks of the cells touched since the
    last one, and no others, and, every _REFRESH_EVERY solves, refactorize
    its coarse matrix.

    It also carries the state every solve starts from: `u`, the last
    solution U over every dof, and `r`, the float64 residual (F - K u)[free]
    of u.  Before the first solve u is the lift g, the state x = 0 of the
    free dofs, and r is b itself, so the first solve is a cold start.
    solve_system replaces both; `set_factors` patches r by the increment's
    product with u, so no solve needs a float64 pass to find its first
    residual.  A K changed in place by other means leaves r stale: the
    next solve then takes more iterations, never a wrong answer.
    """

    def __init__(self, assembly, factors, bcs, single_precision=False):
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
        self.factors = np.array(factors, dtype=float).reshape(
            assembly.num_cells, assembly.nsub)
        self.K = assembly.aggregate(self.factors)
        self.K32 = self.K.astype(np.float32) if single_precision else None
        # the lift is the state x = 0 of the free dofs: its residual is b
        self.u = self.g.copy()
        self.r = self._rhs()
        self._age = 0          # solves since the last refresh
        self._touched = []     # cells changed since the last solve

    @cached_property
    def precond(self):
        return TwoLevelPreconditioner(self.assembly, self.free, self.K)

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
            pc.update(np.concatenate(self._touched))
            self._touched = []
        if self._age >= _REFRESH_EVERY:
            pc.refresh()
            self._age = 0
        self._age += 1


def assemble_and_solve(model, mat, bcs, problem, rtol=1e-8,
                       single_precision=False):
    """Assemble the model's stiffness (every cell whole, factor 1) and
    solve one analysis problem."""
    asm = Assembly(model, problem, mat)
    op = StiffnessOperator(asm, np.ones((asm.num_cells, 1)), bcs,
                           single_precision=single_precision)
    return solve_system(op, rtol=rtol)
