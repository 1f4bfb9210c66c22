"""
Refining a hexahedral solid and finding where its vertices end up
=================================================================

A coarse block of hexahedra, refined over and over with the volumetric
averaging rules, converges to a smooth solid.  This script refines a
small lattice a few times and shows that the vertex positions approach
exactly the point the closed-form limit mask predicts -- without doing
any refinement at all.
"""

import numpy as np
from ccsolid import (HexMesh, subdivide, limit_point, limit_points,
                     local_subdivision_matrix, validate)


def block(nx, ny, nz, h=1.0):
    # a nx x ny x nz lattice of unit cubes, corner order x->y->z
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


mesh = block(2, 2, 2)
report = validate(mesh)
print("input lattice: %d vertices, %d cells, valid=%s"
      % (mesh.num_vertices, mesh.num_cells, report.ok))

# jitter the interior vertex so the limit is not trivially the start point
rng = np.random.default_rng(7)
verts = mesh.vertices.copy()
center = np.flatnonzero(np.all(verts == 1.0, axis=1))[0]
verts[center] += rng.uniform(-0.3, 0.3, 3)
mesh = HexMesh(verts, mesh.cells)

# where the closed-form mask says the center vertex will end up
target = limit_point(mesh, center)
print("predicted limit of the center vertex:", np.round(target, 6))

# refine and watch the vertex walk there; each level keeps old vertex ids
# at the front, so `center` stays meaningful
m = mesh
for level in range(1, 5):
    m, _ = subdivide(m)
    gap = np.linalg.norm(m.vertices[center] - target)
    print("  level %d: %7d cells, distance to limit %.2e"
          % (level, m.num_cells, gap))

# the contraction factor per level is the subordinate eigenvalue 1/4 of
# the 27-point local subdivision matrix
S = local_subdivision_matrix(mesh, center)
ev = np.sort(np.abs(np.linalg.eigvals(S)))[::-1]
print("leading eigenvalues of the local 27x27 matrix:", np.round(ev[:4], 6))

# limit_points does every interior vertex at once (boundary vertices use
# the quad-mesh surface mask)
lp, _ = limit_points(mesh)
print("limit positions computed for all %d vertices, max shift %.3f"
      % (len(lp), np.max(np.linalg.norm(lp - mesh.vertices, axis=1))))
