"""
The whole pipeline from the command line
========================================

Everything the library does is also reachable through the `ccsolid`
executable: validate a mesh file, refine it, fit the spline model, run
an analysis, optimize.  This script drives the same entry point the
console command uses, so each call below is exactly

    ccsolid <subcommand> <args...>

run from a temporary directory that is removed at the end.  The script
stops with that command's exit code at the first command that fails.
"""

import os
import sys
import tempfile
import numpy as np
from ccsolid import HexMesh, run_command, serialize_mesh


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


def ccsolid(*argv):
    """Echo one command line and run it; stop the tour if it fails."""
    print("\n$ ccsolid " + " ".join(argv))
    code = run_command(list(argv))
    if code:
        sys.exit(code)


def tour(work):
    # a mesh file in the plain ASCII format: `nv nc`, vertex lines, cell lines
    with open("beam.mesh", "w") as fh:
        fh.write(serialize_mesh(block(4, 1, 1)))

    ccsolid("validate", "beam.mesh")
    ccsolid("subdivide", "beam.mesh", "-n", "2", "-o", "fine.mesh")
    ccsolid("limit", "fine.mesh", "-o", "limit.vtk")
    ccsolid("bezier", "beam.mesh", "-o", "model.vtk")
    ccsolid("error", "beam.mesh", "--depth", "2")

    # an analysis needs a config: clamp one end, shear the other
    with open("pull.cfg", "w") as fh:
        fh.write("""\
[problem]
type = elasticity

[material]
E0 = 100.0
nu = 0.3

[mesh]
subdivide = 1

[dirichlet]
box = -1e9 -1e9 -1e9  0.25 1e9 1e9
dofs = xyz

[load]
box = 3.75 -1e9 -1e9  1e9 1e9 1e9
vector = 0 0 -1
""")
    ccsolid("solve", "beam.mesh", "--config", "pull.cfg", "-o", "pulled.vtk")

    # optimization reuses the config plus a [beso] block
    with open("carve.cfg", "w") as fh:
        fh.write(open("pull.cfg").read() + """
[mesh]
density_level = 1

[beso]
v_star = 0.6
er = 0.05
""")
    ccsolid("optimize", "beam.mesh", "--config", "carve.cfg", "-o", "carved")

    print("\nfiles produced:")
    for name in sorted(os.listdir(work)):
        path = os.path.join(work, name)
        if os.path.isdir(path):
            inner = sorted(os.listdir(path))
            print("  %s/ (%d files, e.g. %s)" % (name, len(inner), inner[:2]))
        else:
            print("  %s (%d bytes)" % (name, os.path.getsize(path)))


home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="pipeline_") as work:
    os.chdir(work)
    try:
        tour(work)
    finally:
        os.chdir(home)
