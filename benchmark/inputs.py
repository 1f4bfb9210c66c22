"""Seeded inputs of the benchmark workloads.

The meshes are built here, apart from the package's own test helpers, and
every workload derives its jitter from the run's seed alone: the same seed
gives the same inputs.  See README.md for the make-up of each input.
"""

import itertools
import math
import zlib

import numpy as np

from ccsolid.hexmesh import HexMesh
from ccsolid.iga import (BoundaryConditions, DirichletSpec, LoadSpec,
                         Material)
from ccsolid.topopt import BesoConfig

BIG = 1e9


def lattice(nx, ny, nz):
    """Axis-aligned block of nx*ny*nz unit cubes; vertex id (i, j, k) is
    i + (nx+1) * (j + (ny+1) * k)."""
    g = np.stack(np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                             np.arange(nz + 1), indexing="ij"), axis=-1)
    verts = g.transpose(2, 1, 0, 3).reshape(-1, 3).astype(float)

    def vid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    cells = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                cells.append([vid(i, j, k), vid(i + 1, j, k),
                              vid(i + 1, j + 1, k), vid(i, j + 1, k),
                              vid(i, j, k + 1), vid(i + 1, j, k + 1),
                              vid(i + 1, j + 1, k + 1), vid(i, j + 1, k + 1)])
    return verts, np.array(cells)


def wheel(k, layers):
    """k hexahedra per layer around a vertical axis; the axis vertices of
    the inner layers are interior with valence k + 2 and mixed edge
    degrees (k on the axis, 4 on the spokes)."""
    verts, vid = [], {}
    for z in range(layers + 1):
        vid["O", z] = len(verts)
        verts.append((0.0, 0.0, float(z)))
        for i in range(k):
            th = 2.0 * math.pi * i / k
            vid["s", i, z] = len(verts)
            verts.append((math.cos(th), math.sin(th), float(z)))
            th2 = 2.0 * math.pi * (i + 0.5) / k
            vid["d", i, z] = len(verts)
            verts.append((1.5 * math.cos(th2), 1.5 * math.sin(th2), float(z)))
    cells = []
    for z in range(layers):
        for i in range(k):
            quad = [("O",), ("s", i), ("d", i), ("s", (i + 1) % k)]
            cells.append([vid[q + (z,)] for q in quad]
                         + [vid[q + (z + 1,)] for q in quad])
    return np.array(verts), np.array(cells)


def tet_split():
    """A tetrahedron split into four hexahedra around its centroid, the one
    interior vertex (valence 4, all edge degrees 3)."""
    A = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    verts = [A[i] for i in range(4)]
    vid = {("v", i): i for i in range(4)}
    for i, j in itertools.combinations(range(4), 2):
        vid["e", i, j] = len(verts)
        verts.append((A[i] + A[j]) / 2.0)
    for tri in itertools.combinations(range(4), 3):
        vid[("f",) + tri] = len(verts)
        verts.append(A[list(tri)].mean(axis=0))
    vid["c"] = len(verts)
    verts.append(A.mean(axis=0))

    def e(x, y):
        return vid["e", min(x, y), max(x, y)]

    def f(*t):
        return vid[("f",) + tuple(sorted(t))]

    cells = []
    for i in range(4):
        a, b, c = [j for j in range(4) if j != i]
        cells.append([vid["v", i], e(i, a), f(i, a, b), e(i, b),
                      e(i, c), f(i, a, c), vid["c"], f(i, b, c)])
    return np.array(verts), np.array(cells)


def _rng(seed, name):
    # one stream per input, so adding an input never shifts another's jitter
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# geometry: three named meshes, every vertex jittered

GEOMETRY_SUBDIVISIONS = 2


def geometry_meshes(seed):
    out = []
    for name, (verts, cells), amp in (
            ("wheel5", wheel(5, 3), 0.08),
            ("tet_split", tet_split(), 0.08),
            ("lattice", lattice(3, 2, 2), 0.15)):
        verts = verts + _rng(seed, name).uniform(-amp, amp, verts.shape)
        out.append((name, HexMesh(verts, cells)))
    return out


# ---------------------------------------------------------------------------
# BESO problems

def _interior_vertices(verts, cells):
    return np.flatnonzero(~HexMesh(verts, cells).boundary_vertex_mask)


CANTILEVER_LOAD = (0.0, 0.0, -1.0)
CANTILEVER_LOAD_BOX = ((4.0 - 0.125, -BIG, -BIG), (BIG, BIG, BIG))
CANTILEVER_SUPPORT_BOX = ((-BIG, -BIG, -BIG), (0.125, BIG, BIG))


# A BESO problem is a dict: mesh, cfg (BesoConfig), mat, bcs, problem,
# subdivide and out_dir (whether optimize writes snapshots), plus the boxes
# the checks rebuild the boundary conditions from: support_box (every
# component fixed) and, for elasticity, load_box with its load vector.


def cantilever(seed):
    """lattice(4, 2, 2) clamped at x = 0 and pulled down at x = 4.

    The three interior vertices move by up to 0.1 in y and z.  Every
    control point's x coordinate depends on the vertices' x coordinates
    alone, so the support and load boxes select the same control points on
    every seed.
    """
    verts, cells = lattice(4, 2, 2)
    inner = _interior_vertices(verts, cells)
    verts[inner, 1:] += _rng(seed, "cantilever").uniform(
        -0.1, 0.1, (len(inner), 2))
    bcs = BoundaryConditions(
        dirichlet=[DirichletSpec(*CANTILEVER_SUPPORT_BOX, (0, 1, 2))],
        loads=[LoadSpec(*CANTILEVER_LOAD_BOX, CANTILEVER_LOAD)])
    cfg = BesoConfig(v_star=0.5, er=0.02, level=1, max_iterations=60,
                     rtol=2e-3, precond="twolevel", single_precision=True)
    return dict(mesh=HexMesh(verts, cells), cfg=cfg,
                mat=Material(1.0, 0.3, mu_min=1e-2), bcs=bcs,
                problem="elasticity", subdivide=2, out_dir=True,
                support_box=CANTILEVER_SUPPORT_BOX,
                load_box=CANTILEVER_LOAD_BOX, load=CANTILEVER_LOAD)


HEAT_SINK_TOP = 0.245


def multires_heat(seed):
    """Five-spoke wheel of three layers under a unit volumetric heat
    source, the lowest control points (z <= 0.245) held at zero.

    The two interior axis vertices move by up to 0.1 in x and y; z is kept,
    so the sink box selects the same control points on every seed.
    """
    verts, cells = wheel(5, 3)
    inner = _interior_vertices(verts, cells)
    verts[inner, :2] += _rng(seed, "multires_heat").uniform(
        -0.1, 0.1, (len(inner), 2))
    sink = ((-BIG, -BIG, -BIG), (BIG, BIG, HEAT_SINK_TOP))
    bcs = BoundaryConditions(dirichlet=[DirichletSpec(*sink, (0,))],
                             heat_source=1.0)
    cfg = BesoConfig(v_star=0.5, er=0.02, level=2, mu_min=1e-2)
    return dict(mesh=HexMesh(verts, cells), cfg=cfg,
                mat=Material(1.0, 0.3), bcs=bcs, problem="heat",
                subdivide=1, out_dir=False, support_box=sink)
