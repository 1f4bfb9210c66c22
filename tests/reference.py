"""Dense reference computations shared across the test suite."""

import numpy as np

from ccsolid.iga import Solution
from ccsolid.spline import _bernstein, _bernstein_deriv


def dense_stiffness(asm, K_cells):
    """The global stiffness summed from the per-cell stack, as a dense
    (ndof, ndof) array."""
    K = np.zeros((asm.ndof, asm.ndof))
    for c in range(asm.num_cells):
        K[np.ix_(asm.dofmap[c], asm.dofmap[c])] += K_cells[c]
    return K


def dense_solve(op):
    """Solve a StiffnessOperator's system by a direct solve of the dense
    free block, as a reference for the CG solves.

    Returns the Solution solve_system would: the same Dirichlet lift and
    the same compliance formula, (1/2) x^T (b - r) on the free dofs for
    zero Dirichlet values and (1/2) U^T K U otherwise; 0 iterations and
    1 restart (the residual evaluation)."""
    asm, K, free, g = op.assembly, op.K, op.free, op.g
    lifted = bool(g.any())
    b = (op.F - asm.matvec(K, g))[free] if lifted else op.F[free]
    x = np.linalg.solve(dense_stiffness(asm, K)[np.ix_(free, free)], b)
    r = b - asm.free_matvec(K, free, x)
    U = np.array(g)
    U[free] = x
    if lifted:
        compliance = 0.5 * (U @ asm.matvec(K, U))
    else:
        compliance = 0.5 * (x @ (b - r))
    res = np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300)
    return Solution(u=U.reshape(-1, asm.dpn), compliance=float(compliance),
                    iterations=0, residual=float(res), restarts=1)


def pair_gram_stiffness(asm, factors, cells):
    """Per-cell stiffness (len(cells), nd, nd) of the listed cells, as the
    sum over each cell's (cell, sub) pairs of the pair's factor times the
    Gram of its points' weighted physical gradients.

    A pair's parameter gradients come from a table of the 1-D Bernstein
    values and derivatives at its o Gauss points per parameter, and its
    physical gradients from asm.S, which carries sqrt(w det J):
    g[p, d, n] = sum_e S[e, d] Ghat[p, e, n].  With W the Gram of g over the
    points, heat takes k0 sum_a W[a, n, a, m] and elasticity, per node
    pair (n, m) and components (d, d'), lam W[d, n, d', m] + mu (W[d', n,
    d, m] + delta_dd' sum_a W[a, n, a, m])."""
    m, o = 2 ** asm.level, asm.quad_order
    x, _ = np.polynomial.legendre.leggauss(o)
    t = ((np.arange(m)[:, None] + (x + 1) / 2) / m).ravel()
    B, D = _bernstein(t), _bernstein_deriv(t)
    S = asm.S.reshape(asm.num_cells, 3, 3, m, o, m, o, m, o)
    out = np.zeros((len(cells), asm.nd, asm.nd))
    for i, c in enumerate(cells):
        W = np.zeros((3 * 64, 3 * 64))
        for sub in range(asm.nsub):
            at = np.unravel_index(sub, (m, m, m))
            Bs = [B[k * o:(k + 1) * o] for k in at]
            Ds = [D[k * o:(k + 1) * o] for k in at]
            Ghat = np.stack([np.einsum("pa,qb,rc->pqrabc", *tables)
                             for tables in ((Ds[0], Bs[1], Bs[2]),
                                            (Bs[0], Ds[1], Bs[2]),
                                            (Bs[0], Bs[1], Ds[2]))])
            Ss = S[c, :, :, at[0], :, at[1], :, at[2], :]
            g = np.einsum("edpqr,epqrabc->pqrdabc", Ss,
                          Ghat).reshape(o ** 3, 3 * 64)
            W += factors[c, sub] * (g.T @ g)
        W = W.reshape(3, 64, 3, 64)
        trace = np.einsum("anam->nm", W)
        if asm.dpn == 1:
            out[i] = (asm.mat.e0 if asm.mat is not None else 1.0) * trace
            continue
        lam, mu = asm.mat.lam, asm.mat.mu
        K = (lam * W.transpose(1, 0, 3, 2) + mu * W.transpose(1, 2, 3, 0)
             + mu * np.einsum("nm,de->ndme", trace, np.eye(3)))
        out[i] = K.reshape(asm.nd, asm.nd)
    return out
