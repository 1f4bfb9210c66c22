"""Tricubic Bezier approximation of the subdivision limit solid.

Every hexahedral cell gets a 4x4x4 Bernstein control net.  The 8 interior
points of a cell come from a per-corner mask over the cell's own corners

    [2(n-2) v1 + m2 v2 + m3 v3 + m5 v5 + 2(v4+v6+v7) + v8]
        / [2(n-2) + m2 + m3 + m5 + 7]

where v1 is the corner vertex (valence n), v2/v3/v5 its edge neighbours
inside the cell (edge degrees m2/m3/m5), v4/v6/v7 the face diagonals and
v8 the cell diagonal.  Face, edge and corner control points are the
averages of the interior points of all cells incident to the face, edge
or vertex, stored once in a global table so adjacent nets share their
boundary layers exactly (C0 by construction).  At a regular interior
vertex the corner point reproduces the subdivision limit stencil
(64, 16.., 4.., 1..)/216, and over fully regular cells the net equals the
uniform tricubic B-spline to Bezier conversion of the 4x4x4 vertex
neighbourhood.
"""

from dataclasses import dataclass

import numpy as np

from .hexmesh import CORNER_OFFSETS, LOCAL_EDGES, LOCAL_FACES, OPPOSITE_CORNER
from .subdivision import limit_points, subdivide

_CORNER_OF_BITS = {tuple(o): k for k, o in enumerate(CORNER_OFFSETS.tolist())}
_LOCAL_EDGE_OF = {frozenset(e): i for i, e in enumerate(LOCAL_EDGES)}
# local face with the given axis pinned to the given side
_FACE_OF_AXIS_SIDE = {(0, 0): 5, (0, 1): 3, (1, 0): 2,
                      (1, 1): 4, (2, 0): 0, (2, 1): 1}


def _flip(k, axes):
    bits = list(CORNER_OFFSETS[k])
    for ax in axes:
        bits[ax] ^= 1
    return _CORNER_OF_BITS[tuple(bits)]


# per corner: edge-neighbour corners (v2, v3, v5), their local edge ids,
# face-diagonal corners (v4, v6, v7)
_EDGE_NBR = [[_flip(k, (ax,)) for ax in range(3)] for k in range(8)]
_EDGE_LOCAL = [[_LOCAL_EDGE_OF[frozenset((k, _flip(k, (ax,))))]
                for ax in range(3)] for k in range(8)]
_FACE_DIAG = [[_flip(k, axes) for axes in ((0, 1), (0, 2), (1, 2))]
              for k in range(8)]


def _node_template():
    """The 64 net slots in (a, b, c) row-major order.

    Each entry is (kind, corner, local entity): kind 'v'/'e'/'f'/'c' for a
    slot owned by a mesh vertex, edge, face or cell, `corner` the nearest
    cell corner (the slot id within the entity), and the owning local
    edge/face where applicable.
    """
    template = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                idx = (a, b, c)
                bits = tuple(int(i >= 2) for i in idx)
                k = _CORNER_OF_BITS[bits]
                extreme = [i for i in range(3) if idx[i] in (0, 3)]
                if len(extreme) == 3:
                    template.append(("v", k, 0))
                elif len(extreme) == 2:
                    ax = ({0, 1, 2} - set(extreme)).pop()
                    le = _LOCAL_EDGE_OF[frozenset((k, _flip(k, (ax,))))]
                    template.append(("e", k, le))
                elif len(extreme) == 1:
                    ax = extreme[0]
                    template.append(("f", k, _FACE_OF_AXIS_SIDE[(ax, bits[ax])]))
                else:
                    template.append(("c", k, 0))
    return template


_NODE_TEMPLATE = _node_template()


def _interior_points(mesh):
    """Interior control points of every cell, shape (nc, 8, 3)."""
    valence = mesh.vertex_edges.counts
    edge_degree = mesh.edge_faces.counts
    V = mesh.vertices
    out = np.empty((mesh.num_cells, 8, 3))
    for k in range(8):
        v1 = mesh.cells[:, k]
        w1 = 2.0 * (valence[v1] - 2)
        num = w1[:, None] * V[v1]
        den = w1 + 7.0
        for ax in range(3):
            m = edge_degree[mesh.cell_edges[:, _EDGE_LOCAL[k][ax]]]
            num += m[:, None] * V[mesh.cells[:, _EDGE_NBR[k][ax]]]
            den += m
        for kd in _FACE_DIAG[k]:
            num += 2.0 * V[mesh.cells[:, kd]]
        num += V[mesh.cells[:, OPPOSITE_CORNER[k]]]
        out[:, k] = num / den[:, None]
    return out


def interior_bezier_point(mesh, cell, corner):
    """Interior control point of `cell` at `corner` (0..7) from the mask."""
    if not 0 <= cell < mesh.num_cells:
        raise ValueError("cell id %d out of range" % cell)
    if not 0 <= corner < 8:
        raise ValueError("corner %d out of range 0..7" % corner)
    return _interior_points(mesh)[cell, corner]


@dataclass
class BezierVolume:
    """Tricubic Bernstein patch; points has shape (4, 4, 4, 3), first index
    along the owning cell's local x axis."""
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape != (4, 4, 4, 3):
            raise ValueError("control net must have shape (4, 4, 4, 3)")


@dataclass
class SplineModel:
    """Global control table plus per-cell views into it.

    points : (ncp, 3) control points, ordered [vertex points][edge points,
        2 per edge][face points, 4 per face][interior points, 8 per cell];
        slot order within an entity follows ascending corner vertex id.
    cell_nodes : (nc, 64) indices into points, (a, b, c) row-major per cell.
    """
    points: np.ndarray
    cell_nodes: np.ndarray

    @property
    def num_control_points(self):
        return len(self.points)

    @property
    def num_cells(self):
        return len(self.cell_nodes)

    def bezier_volume(self, cell):
        if not 0 <= cell < len(self.cell_nodes):
            raise ValueError("cell id %d out of range" % cell)
        return BezierVolume(self.points[self.cell_nodes[cell]].reshape(4, 4, 4, 3))


def build_spline_model(mesh):
    """Assemble the global control table of a (validated) mesh.

    Interior points come from the per-corner mask; every face/edge/vertex
    point is the average of the interior points of the cells incident to
    that entity, computed once and shared by all incident cells' nets.
    """
    nv, ne, nf, nc = (mesh.num_vertices, mesh.num_edges,
                      mesh.num_faces, mesh.num_cells)
    ip = _interior_points(mesh)
    ncp = nv + 2 * ne + 4 * nf + 8 * nc
    sums = np.zeros((ncp, 3))
    counts = np.zeros(ncp, dtype=np.int64)
    cell_ids = np.arange(nc)
    cell_nodes = np.empty((nc, 64), dtype=np.int64)

    for t, (kind, k, local) in enumerate(_NODE_TEMPLATE):
        v = mesh.cells[:, k]
        if kind == "v":
            idx = v
        elif kind == "e":
            e = mesh.cell_edges[:, local]
            idx = nv + 2 * e + (mesh.edges[e, 0] != v)
        elif kind == "f":
            f = mesh.cell_faces[:, local]
            idx = nv + 2 * ne + 4 * f + np.argmax(mesh.faces[f] == v[:, None], axis=1)
        else:
            idx = nv + 2 * ne + 4 * nf + 8 * cell_ids + k
        cell_nodes[:, t] = idx
        np.add.at(sums, idx, ip[:, k])
        np.add.at(counts, idx, 1)

    points = sums / np.maximum(counts, 1)[:, None]
    # vertices in no cell keep their mesh position
    orphan = counts[:nv] == 0
    if orphan.any():
        points[:nv][orphan] = mesh.vertices[orphan]
    return SplineModel(points=points, cell_nodes=cell_nodes)


def _bernstein(t):
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    return np.stack([s ** 3, 3.0 * t * s ** 2, 3.0 * t ** 2 * s, t ** 3], axis=-1)


def _bernstein_deriv(t):
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    return np.stack([-3.0 * s ** 2, 3.0 * s ** 2 - 6.0 * t * s,
                     6.0 * t * s - 3.0 * t ** 2, 3.0 * t ** 2], axis=-1)


def _check_params(u, v, w):
    for name, t in (("u", u), ("v", v), ("w", w)):
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter %s=%g outside [0, 1]" % (name, t))


def evaluate(vol, u, v, w):
    """Point of the patch at (u, v, w) in [0, 1]^3."""
    _check_params(u, v, w)
    return np.einsum("a,b,c,abcd->d", _bernstein(u), _bernstein(v),
                     _bernstein(w), vol.points)


def jacobian(vol, u, v, w):
    """3x3 derivative of the geometry map; columns are d/du, d/dv, d/dw."""
    _check_params(u, v, w)
    Bu, Bv, Bw = _bernstein(u), _bernstein(v), _bernstein(w)
    dBu, dBv, dBw = (_bernstein_deriv(u), _bernstein_deriv(v),
                     _bernstein_deriv(w))
    P = vol.points
    return np.stack([
        np.einsum("a,b,c,abcd->d", dBu, Bv, Bw, P),
        np.einsum("a,b,c,abcd->d", Bu, dBv, Bw, P),
        np.einsum("a,b,c,abcd->d", Bu, Bv, dBw, P)], axis=1)


def _evaluate_batch(net, params):
    """Evaluate one (4,4,4,3) net at (m, 3) parameters."""
    Bu = _bernstein(params[:, 0])
    Bv = _bernstein(params[:, 1])
    Bw = _bernstein(params[:, 2])
    return np.einsum("ma,mb,mc,abcd->md", Bu, Bv, Bw, net)


def regular_vertex_mask(mesh):
    """Interior vertices with a simple regular star: valence 6, 12 faces,
    8 cells, all incident edge degrees 4."""
    ve = mesh.vertex_edges
    irregular_edges = np.bincount(ve.rows[mesh.edge_faces.counts[ve.items] != 4],
                                  minlength=mesh.num_vertices)
    return (~mesh.boundary_vertex_mask & (ve.counts == 6)
            & (mesh.vertex_faces.counts == 12) & (mesh.vertex_cells.counts == 8)
            & (irregular_edges == 0))


def fully_regular_cells(mesh):
    """Cells whose 8 corner vertices are all regular interior vertices;
    their nets equal the B-spline conversion of the 4x4x4 neighbourhood."""
    return regular_vertex_mask(mesh)[mesh.cells].all(axis=1)


@dataclass
class ErrorStats:
    """Distances between fine-vertex limit points and the spline.

    regular_interior marks samples that are interior at the fine level and
    whose ancestor cell is fully regular; over those the spline is exact
    up to rounding on meshes that are regular around the ancestor.
    """
    max_distance: float
    mean_distance: float
    distances: np.ndarray
    depth: int
    regular_interior: np.ndarray


def approximation_error(mesh, model, depth):
    """Distance between the subdivision limit and the spline at the dyadic
    parameters of `depth` rounds of refinement.

    Every vertex of the `depth`-times subdivided mesh knows its ancestor
    cell and parameter (i, j, k)/2^depth; the reported distances compare
    its limit position against the ancestor patch at that parameter.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if 8 ** depth * mesh.num_cells > 1e7:
        raise ValueError("depth %d would produce %d cells; refusing beyond 1e7"
                         % (depth, 8 ** depth * mesh.num_cells))

    fine = mesh
    ancestor = np.arange(mesh.num_cells)
    origin = np.zeros((mesh.num_cells, 3), dtype=np.int64)
    for _ in range(depth):
        fine, prov = subdivide(fine)
        origin = 2 * origin[prov.cell_parent] + CORNER_OFFSETS[prov.cell_octant]
        ancestor = ancestor[prov.cell_parent]

    vc = fine.vertex_cells
    first_cell = vc.items[np.searchsorted(vc.rows, np.arange(fine.num_vertices))]
    rows = fine.cells[first_cell]
    corner = np.argmax(rows == np.arange(fine.num_vertices)[:, None], axis=1)
    params = (origin[first_cell] + CORNER_OFFSETS[corner]) / float(2 ** depth)
    anc = ancestor[first_cell]

    limits, boundary = limit_points(fine)

    values = np.empty_like(limits)
    order = np.argsort(anc, kind="stable")
    bounds = np.searchsorted(anc[order], np.arange(mesh.num_cells + 1))
    for c in range(mesh.num_cells):
        sel = order[bounds[c]:bounds[c + 1]]
        if len(sel):
            net = model.points[model.cell_nodes[c]].reshape(4, 4, 4, 3)
            values[sel] = _evaluate_batch(net, params[sel])

    distances = np.linalg.norm(limits - values, axis=1)
    regular = ~boundary & fully_regular_cells(mesh)[anc]
    return ErrorStats(max_distance=float(distances.max()),
                      mean_distance=float(distances.mean()),
                      distances=distances,
                      depth=depth,
                      regular_interior=regular)


def regular_box_model(shape, spacing=1.0, origin=(0.0, 0.0, 0.0)):
    """Axis-aligned box of shape[0] x shape[1] x shape[2] cells with control
    points on the Greville lattice (i/3 spacing), so every patch carries the
    identity geometry of its cell.  Useful as a known-exact analysis domain;
    the general construction goes through build_spline_model."""
    a, b, c = (int(s) for s in shape)
    if min(a, b, c) < 1:
        raise ValueError("box must have at least one cell per axis")
    g = [np.arange(3 * s + 1) / 3.0 for s in (a, b, c)]
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), 3)
    pts = np.stack(np.meshgrid(*g, indexing="ij"), axis=-1)
    points = (pts * spacing + np.asarray(origin, dtype=float)).reshape(-1, 3)

    def gid(i, j, k):
        return (i * (3 * b + 1) + j) * (3 * c + 1) + k

    nodes = np.empty((a * b * c, 64), dtype=np.int64)
    for i in range(a):
        for j in range(b):
            for k in range(c):
                cell = (i * b + j) * c + k
                t = 0
                for da in range(4):
                    for db in range(4):
                        for dc in range(4):
                            nodes[cell, t] = gid(3 * i + da, 3 * j + db,
                                                 3 * k + dc)
                            t += 1
    return SplineModel(points=points, cell_nodes=nodes)


def serialize_model(model):
    """ASCII form: `ncp ncell`, the control points, then 64 indices per
    cell in (a, b, c) row-major order."""
    out = ["%d %d" % (model.num_control_points, model.num_cells)]
    for p in model.points:
        out.append("%.17g %.17g %.17g" % tuple(p))
    for row in model.cell_nodes:
        out.append(" ".join(str(int(i)) for i in row))
    return "\n".join(out) + "\n"


def parse_model(text):
    """Inverse of serialize_model; errors carry the offending line number."""
    data = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            data.append((lineno, line))
    if not data:
        raise ValueError("empty model file")
    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError("line %d: expected header 'ncp ncell'" % lineno)
    ncp, ncell = int(parts[0]), int(parts[1])
    if len(data) - 1 != ncp + ncell:
        raise ValueError("line %d: header promises %d data lines, found %d"
                         % (lineno, ncp + ncell, len(data) - 1))
    points = np.zeros((ncp, 3))
    for i in range(ncp):
        lineno, line = data[1 + i]
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("line %d: expected 3 coordinates" % lineno)
        points[i] = [float(p) for p in parts]
    nodes = np.zeros((ncell, 64), dtype=np.int64)
    for i in range(ncell):
        lineno, line = data[1 + ncp + i]
        parts = line.split()
        if len(parts) != 64:
            raise ValueError("line %d: expected 64 indices" % lineno)
        row = [int(p) for p in parts]
        if min(row) < 0 or max(row) >= ncp:
            raise ValueError("line %d: control point index out of range" % lineno)
        nodes[i] = row
    return SplineModel(points=points, cell_nodes=nodes)
