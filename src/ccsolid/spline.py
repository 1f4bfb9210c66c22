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

from .hexmesh import (CORNER_OF_CODE, CORNER_OFFSETS, LOCAL_ENTITY,
                      OPPOSITE_CORNER, lattice_ids, parse_counted_table,
                      serialize_counted_table)
from .subdivision import limit_points, subdivide

# per corner: edge-neighbour corners (v2, v3, v5) along x, y, z, their
# local edge ids, face-diagonal corners (v4, v6, v7) across xy, xz, yz,
# each found by flipping bits of the corner's code x + 2y + 4z
_CODE = CORNER_OFFSETS @ (1, 2, 4)
_EDGE_NBR = CORNER_OF_CODE[_CODE[:, None] ^ (1, 2, 4)]
_EDGE_LOCAL = [[LOCAL_ENTITY[frozenset((k, j))] for j in nbrs]
               for k, nbrs in enumerate(_EDGE_NBR.tolist())]
_FACE_DIAG = CORNER_OF_CODE[_CODE[:, None] ^ (3, 5, 6)]


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
        within an edge or face the slots follow the ascending vertex ids
        of their nearest corners, within a cell the local corner index.
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
    The points and cell_nodes are numbered by hexmesh.lattice_ids(mesh, 4).
    """
    nv, ne, nf, nc = (mesh.num_vertices, mesh.num_edges,
                      mesh.num_faces, mesh.num_cells)
    ip = _interior_points(mesh)
    ncp = nv + 2 * ne + 4 * nf + 8 * nc
    cell_nodes, corner = lattice_ids(mesh, 4)

    # slot-major, then cell order: the summation order of a per-slot scatter
    index = cell_nodes.T.ravel()
    values = ip[:, corner].transpose(1, 0, 2).reshape(-1, 3)
    sums = np.stack([np.bincount(index, weights=col, minlength=ncp)
                     for col in values.T], axis=1)
    counts = np.bincount(index, minlength=ncp)
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


def tensor_basis(params):
    """Tricubic Bernstein values at (p, 3) parameters, shape (p, 64), the
    columns in the (a, b, c) row-major order of `cell_nodes`."""
    params = np.asarray(params, dtype=float)
    Bu, Bv, Bw = (_bernstein(params[:, i]) for i in range(3))
    return (Bu[:, :, None, None] * Bv[:, None, :, None]
            * Bw[:, None, None, :]).reshape(len(params), 64)


def parameter_grid(g):
    """Every (g[i], g[j], g[k]) in (i, j, k) row-major order, shape
    (len(g)**3, 3)."""
    g = np.asarray(g, dtype=float)
    return g[np.indices((len(g),) * 3).reshape(3, -1).T]


def evaluate_cells(values, cell_nodes, params):
    """Every patch of a control-point field at the same parameters.

    values: (ncp, k) coefficients; cell_nodes: (ncell, 64) indices into
    them; params: (p, 3).  Returns (ncell, p, k).
    """
    return tensor_basis(params) @ values[cell_nodes]


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
    anc = ancestor[first_cell]

    limits, boundary = limit_points(fine)

    # every ancestor patch on the shared dyadic grid; each sample picks its
    # value by (ancestor, grid index)
    n = 2 ** depth + 1
    grid = parameter_grid(np.arange(n) / float(2 ** depth))
    i, j, k = (origin[first_cell] + CORNER_OFFSETS[corner]).T
    values = evaluate_cells(model.points, model.cell_nodes, grid)[
        anc, (i * n + j) * n + k]

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

    # lattice index of every (cell, net slot), both in row-major order
    i, j, k = (3 * np.indices((a, b, c)).reshape(3, -1, 1)
               + np.indices((4, 4, 4)).reshape(3, 1, 64))
    nodes = (i * (3 * b + 1) + j) * (3 * c + 1) + k
    return SplineModel(points=points, cell_nodes=nodes)


def serialize_model(model):
    """ASCII form: `ncp ncell`, the control points, then 64 indices per
    cell in (a, b, c) row-major order."""
    return serialize_counted_table(model.points, model.cell_nodes)


def parse_model(text):
    """Inverse of serialize_model; errors carry the offending line number."""
    points, nodes, _ = parse_counted_table(text, ("control point", "cell"),
                                           64)
    return SplineModel(points=points, cell_nodes=nodes)
