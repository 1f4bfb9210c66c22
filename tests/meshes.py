"""Mesh builders shared across the test suite."""

import itertools
import math

import numpy as np

from ccsolid.hexmesh import HexMesh
from ccsolid.spline import SplineModel


def lattice(nx, ny, nz, spacing=1.0, origin=(0.0, 0.0, 0.0)):
    """Axis-aligned block of nx*ny*nz unit cells.

    Returns (mesh, vid) where vid maps grid coordinates (i, j, k) to
    vertex ids.
    """
    vid = {}
    verts = []
    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                vid[(i, j, k)] = len(verts)
                verts.append((origin[0] + i * spacing,
                              origin[1] + j * spacing,
                              origin[2] + k * spacing))
    cells = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                cells.append([vid[(i, j, k)], vid[(i + 1, j, k)],
                              vid[(i + 1, j + 1, k)], vid[(i, j + 1, k)],
                              vid[(i, j, k + 1)], vid[(i + 1, j, k + 1)],
                              vid[(i + 1, j + 1, k + 1)], vid[(i, j + 1, k + 1)]])
    return HexMesh(verts, cells), vid


def one_cell_model(net):
    """Spline model of one tricubic patch with the (4, 4, 4, 3) control
    net `net`."""
    return SplineModel(points=np.asarray(net, dtype=float).reshape(64, 3),
                       cell_nodes=np.arange(64, dtype=np.int64)[None, :])


def unit_cube():
    mesh, _ = lattice(1, 1, 1)
    return mesh


def jittered_lattice(nx, ny, nz, seed=0, amp=0.15):
    """Lattice with every vertex displaced by uniform noise in [-amp, amp]^3."""
    mesh, vid = lattice(nx, ny, nz)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices + rng.uniform(-amp, amp, mesh.vertices.shape)
    return HexMesh(verts, mesh.cells), vid


def two_cubes_sharing_edge():
    """Two unit cubes that touch only along one edge (conformity violation)."""
    mesh_a, _ = lattice(1, 1, 1)
    verts = list(map(tuple, mesh_a.vertices))
    index = {v: i for i, v in enumerate(verts)}

    def vert(p):
        if p not in index:
            index[p] = len(verts)
            verts.append(p)
        return index[p]

    # second cube occupying [1,2]x[1,2]x[0,1]: shares only the edge x=1,y=1
    cube2 = []
    for dz in (0, 1):
        for (dx, dy) in ((0, 0), (1, 0), (1, 1), (0, 1)):
            cube2.append(vert((1.0 + dx, 1.0 + dy, float(dz))))
    c2 = [cube2[0], cube2[1], cube2[2], cube2[3],
          cube2[4], cube2[5], cube2[6], cube2[7]]
    cells = np.vstack([mesh_a.cells, np.array(c2)])
    return HexMesh(np.array(verts, dtype=float), cells)


def three_cells_on_one_face():
    """A unit cube's bottom quad shared by three cells: the cube, one cell
    below it and one taller cell above it (a non-manifold face)."""
    quad = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    verts = [(x, y, z) for z in (0.0, 1.0, -1.0, 2.0) for x, y in quad]
    cells = [[0, 1, 2, 3, 4, 5, 6, 7],
             [8, 9, 10, 11, 0, 1, 2, 3],
             [0, 1, 2, 3, 12, 13, 14, 15]]
    return HexMesh(np.array(verts), np.array(cells))


def wheel(k, layers=2):
    """k hexahedra per layer around a central vertical axis, `layers` layers.

    The mid-axis vertex is interior with valence k+2 and mixed edge
    degrees (two axis edges of degree k, k spoke edges of degree 4).
    """
    verts = []
    vid = {}

    def add(name, x, y, z):
        vid[(name, z)] = len(verts)
        verts.append((x, y, float(z)))

    for z in range(layers + 1):
        add("O", 0.0, 0.0, z)
        for i in range(k):
            th = 2.0 * math.pi * i / k
            add(("s", i), math.cos(th), math.sin(th), z)
            th2 = 2.0 * math.pi * (i + 0.5) / k
            add(("d", i), 1.5 * math.cos(th2), 1.5 * math.sin(th2), z)
    cells = []
    for z in range(layers):
        for i in range(k):
            quad = ["O", ("s", i), ("d", i), ("s", (i + 1) % k)]
            cells.append([vid[(nm, z)] for nm in quad]
                         + [vid[(nm, z + 1)] for nm in quad])
    return HexMesh(np.array(verts), np.array(cells)), vid


def tet_split():
    """Tetrahedron split into 4 hexahedra around its centroid.

    The centroid is the only interior vertex: valence 4, all edge
    degrees 3.
    """
    A = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    verts = [A[i] for i in range(4)]
    vid = {("v", i): i for i in range(4)}

    def add(key, p):
        vid[key] = len(verts)
        verts.append(p)

    for i, j in itertools.combinations(range(4), 2):
        add(("e", i, j), (A[i] + A[j]) / 2.0)
    for tri in itertools.combinations(range(4), 3):
        add(("f",) + tri, A[list(tri)].mean(axis=0))
    add(("c",), A.mean(axis=0))

    def e(x, y):
        return vid[("e", min(x, y), max(x, y))]

    def f(*t):
        return vid[("f",) + tuple(sorted(t))]

    cells = []
    for i in range(4):
        a, b, c = [j for j in range(4) if j != i]
        cells.append([vid[("v", i)], e(i, a), f(i, a, b), e(i, b),
                      e(i, c), f(i, a, c), vid[("c",)], f(i, b, c)])
    return HexMesh(np.array(verts), np.array(cells)), vid


def icosa_split():
    """Icosahedron split into 20 hexahedra around its center.

    The center is the only interior vertex: valence 12, all edge
    degrees 5.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            raw += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0), (s2 * phi, 0.0, s1)]
    P = np.array(raw)
    D = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    emin = D[D > 0].min()
    edges = {(i, j) for i in range(12) for j in range(i + 1, 12)
             if abs(D[i, j] - emin) < 1e-9}
    tris = [t for t in itertools.combinations(range(12), 3)
            if {(t[0], t[1]), (t[1], t[2]), (t[0], t[2])} <= edges]
    assert len(edges) == 30 and len(tris) == 20

    verts = [np.zeros(3)]
    vid = {("c",): 0}

    def add(key, p):
        vid[key] = len(verts)
        verts.append(p)

    for i in range(12):
        add(("v", i), P[i] / 2.0)
    for i, j in sorted(edges):
        add(("e", i, j), 0.75 * (P[i] + P[j]) / 2.0)
    for t in tris:
        add(("f",) + t, P[list(t)].mean(axis=0))

    def e(x, y):
        return vid[("e", min(x, y), max(x, y))]

    cells = []
    for (a, b, c) in tris:
        cells.append([vid[("c",)], vid[("v", a)], e(a, b), vid[("v", b)],
                      vid[("v", c)], e(a, c), vid[("f", a, b, c)], e(b, c)])
    return HexMesh(np.array(verts), np.array(cells)), vid


CUBE_TEXT = """\
# unit cube
8 1
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
0 1 2 3 4 5 6 7
"""
