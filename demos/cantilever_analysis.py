"""
Solving on the smooth solid directly: a clamped beam and a heated block
=======================================================================

The spline model doubles as the analysis basis: its blending functions
discretize displacement (or temperature) fields on the exact smooth
geometry.  Here a slender beam is clamped at one end and sheared at the
other, and the tip deflection is compared with the Euler-Bernoulli
estimate; then the same machinery solves a heat problem with a uniform
volumetric source.
"""

import numpy as np
from ccsolid import (HexMesh, Material, DirichletSpec, LoadSpec,
                     BoundaryConditions, assemble_and_solve,
                     build_spline_model, subdivide)


def block(nx, ny, nz, h=1.0):
    gx, gy, gz = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                             np.arange(nz + 1), indexing="ij")
    verts = h * np.stack([gx, gy, gz], axis=-1).reshape(-1, 3).astype(float)
    vid = np.arange((nx + 1) * (ny + 1) * (nz + 1)).reshape(nx + 1, ny + 1,
                                                            nz + 1)
    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                cells.append([vid[i, j, k], vid[i + 1, j, k],
                              vid[i + 1, j + 1, k], vid[i, j + 1, k],
                              vid[i, j, k + 1], vid[i + 1, j, k + 1],
                              vid[i + 1, j + 1, k + 1], vid[i, j + 1, k + 1]])
    return HexMesh(verts, np.array(cells))


# ---- elasticity: end-loaded cantilever ------------------------------------

mesh = block(6, 1, 1)              # 6 x 1 x 1 beam
mesh, _ = subdivide(mesh)          # refine once for a usable resolution
model = build_spline_model(mesh)

big = 1e9
# the smooth solid pulls inside its control hull, so selection boxes need
# a little depth: half a refined cell reaches the outermost points
bcs = BoundaryConditions(
    dirichlet=[DirichletSpec((-big, -big, -big), (0.25, big, big),
                             components=(0, 1, 2), value=0.0)],
    loads=[LoadSpec((5.75, -big, -big), (big, big, big),
                    vector=(0.0, 0.0, -1.0))])

mat = Material(e0=200.0, nu=0.3)
sol = assemble_and_solve(model, mat, bcs, "elasticity")
tip = np.abs(sol.u[:, 2]).max()

# beam theory for a unit-square section: delta = P L^3 / (3 E I),
# with the load summed over every control point in the box
nload = int(((model.points[:, 0] > 5.75)).sum())
P = float(nload)
L, E, I = 6.0, mat.e0, 1.0 / 12.0
print("cantilever: %d dofs, %d loaded points" % (3 * model.num_control_points,
                                                 nload))
print("  tip deflection   %8.4f" % tip)
print("  beam estimate    %8.4f (shear/3d effects account for the rest)"
      % (P * L ** 3 / (3 * E * I)))
print("  compliance f.u   %8.4f" % sol.compliance)

# ---- heat: uniform source, cold walls -------------------------------------

mesh2 = block(3, 3, 3)
model2 = build_spline_model(mesh2)
bcs2 = BoundaryConditions(
    dirichlet=[DirichletSpec((-big, -big, -big), (big, big, 0.5),
                             components=(0,), value=0.0)],
    heat_source=1.0)

sol2 = assemble_and_solve(model2, Material(e0=1.0, nu=0.0), bcs2, "heat")
print("heated block: %d dofs, T in [%.4f, %.4f]"
      % (model2.num_control_points, sol2.u.min(), sol2.u.max()))
# hottest far from the cooled bottom face, as expected
hot = model2.points[np.argmax(sol2.u.ravel())]
print("  hottest control point sits at z = %.3f" % hot[2])
