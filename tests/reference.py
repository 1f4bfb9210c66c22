"""Dense reference computations shared across the test suite."""

import numpy as np

from ccsolid.iga import Solution


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
