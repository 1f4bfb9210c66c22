"""Hexahedral mesh container with derived edge/face incidence.

Cells use a fixed 8-corner ordering: bottom quad counterclockwise viewed
from outside the cell (corners 0..3), then the top quad with corner k+4
vertically above corner k.  Corner k sits at CORNER_OFFSETS[k] in the
cell's local unit frame; every stencil in the other modules is written
against this frame.
"""

from dataclasses import dataclass, field

import numpy as np

# local coordinates of the 8 corners in the cell's unit frame
CORNER_OFFSETS = np.array(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
     (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=np.int64)

# the 12 edges / 6 quad faces of a hexahedron as corner-index tuples
LOCAL_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0),
               (4, 5), (5, 6), (6, 7), (7, 4),
               (0, 4), (1, 5), (2, 6), (3, 7))
LOCAL_FACES = ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
               (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))

# corner with all three coordinate bits flipped (the cell diagonal)
OPPOSITE_CORNER = (6, 7, 4, 5, 2, 3, 0, 1)

_LOCAL_EDGES_ARR = np.array(LOCAL_EDGES)
_LOCAL_FACES_ARR = np.array(LOCAL_FACES)


class Incidence:
    """Read-only incidence relation stored as compressed rows.

    Row r lists the ids related to entity r in ascending order.
    `inc[r]` returns that row as a read-only int64 array, `len(inc)` is
    the number of rows and `inc.counts` the length of every row.  The
    flat pair `inc.rows`, `inc.items` holds every (row, item) entry,
    sorted by row and then by item, for vectorized sums over all rows.
    """

    def __init__(self, rows, items, nrows):
        """Group `items` by `rows` (flat arrays of equal length); items keep
        their given order within a row, so pass them ascending."""
        order = np.argsort(rows, kind="stable")
        self.rows = rows[order]
        self.items = items[order]
        self.counts = np.bincount(rows, minlength=nrows)
        self._offsets = np.concatenate([[0], np.cumsum(self.counts)])
        for a in (self.rows, self.items, self.counts, self._offsets):
            a.setflags(write=False)

    @classmethod
    def inverse(cls, table, nrows):
        """Row r lists the rows of the (m, k) id `table` that contain r."""
        m, k = table.shape
        return cls(table.reshape(-1), np.repeat(np.arange(m), k), nrows)

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, r):
        r = range(len(self.counts))[r]     # list semantics for the row id
        return self.items[self._offsets[r]:self._offsets[r + 1]]


class HexMesh:
    """Immutable hexahedral mesh with derived adjacency.

    Parameters
    ----------
    vertices : (nv, 3) float array
    cells : (nc, 8) int array of vertex indices in the fixed corner order

    Derived on construction: unique edges (sorted vertex pairs, in
    lexicographic order), unique faces (canonicalized by sorted vertex
    set, with one oriented corner cycle kept per face), the per-cell and
    per-face id tables cell_edges, cell_faces and face_edges, and boundary
    masks (a face is boundary iff it has exactly one incident cell).

    The incidence relations edge_cells, face_cells, edge_faces,
    vertex_edges, vertex_faces and vertex_cells are Incidence objects:
    `mesh.vertex_cells[v]` is the ascending int64 array of the cells that
    contain vertex v, `mesh.vertex_cells.counts` the number of cells at
    every vertex, and `mesh.vertex_cells.rows`, `mesh.vertex_cells.items`
    the flat (vertex, cell) pairs of all rows, sorted by vertex.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        self.cells = np.array(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (nv, 3) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 8:
            raise ValueError("cells must be an (nc, 8) array")
        nv = len(self.vertices)
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= nv):
            raise ValueError("cell vertex index out of range")
        corners = np.sort(self.cells, axis=1)
        dup = np.flatnonzero((corners[:, 1:] == corners[:, :-1]).any(axis=1))
        if len(dup):
            raise ValueError("cell %d has duplicate vertex indices" % dup[0])
        self._build_derived()
        for a in (self.vertices, self.cells, self.edges, self.faces,
                  self.face_cycles, self.cell_edges, self.cell_faces):
            a.setflags(write=False)

    def _build_derived(self):
        nc = len(self.cells)
        nv = len(self.vertices)

        # an edge is keyed by lo * nv + hi; sorted keys order the edges
        # lexicographically by (lo, hi)
        pairs = np.sort(self.cells[:, _LOCAL_EDGES_ARR], axis=2).reshape(-1, 2)
        self._edge_keys, einv = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                                          return_inverse=True)
        self.edges = np.stack(np.divmod(self._edge_keys, nv), axis=1)
        self.cell_edges = einv.reshape(nc, 12)

        quads = self.cells[:, _LOCAL_FACES_ARR]              # oriented cycles
        keys = np.sort(quads, axis=2).reshape(-1, 4)
        self.faces, first, finv = np.unique(
            keys, axis=0, return_index=True, return_inverse=True)
        self.cell_faces = finv.reshape(nc, 6)
        self.face_cycles = quads.reshape(-1, 4)[first].copy()

        # a face contributes its 4 cycle edges to edge->face incidence
        ne, nf = len(self.edges), len(self.faces)
        nxt = np.roll(self.face_cycles, -1, axis=1)
        self.face_edges = np.searchsorted(
            self._edge_keys,
            np.minimum(self.face_cycles, nxt) * nv
            + np.maximum(self.face_cycles, nxt))

        self.edge_cells = Incidence.inverse(self.cell_edges, ne)
        self.face_cells = Incidence.inverse(self.cell_faces, nf)
        self.edge_faces = Incidence.inverse(self.face_edges, ne)
        self.vertex_edges = Incidence.inverse(self.edges, nv)
        self.vertex_faces = Incidence.inverse(self.faces, nv)
        self.vertex_cells = Incidence.inverse(self.cells, nv)

        self.boundary_face_mask = self.face_cells.counts == 1
        self.boundary_edge_mask = np.zeros(ne, dtype=bool)
        self.boundary_vertex_mask = np.zeros(nv, dtype=bool)
        bf = np.flatnonzero(self.boundary_face_mask)
        self.boundary_edge_mask[self.face_edges[bf].reshape(-1)] = True
        self.boundary_vertex_mask[self.faces[bf].reshape(-1)] = True

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_cells(self):
        return len(self.cells)

    def edge_index(self, a, b):
        """Edge id of the (a, b) vertex pair, or -1 if absent."""
        lo, hi = min(a, b), max(a, b)
        if lo < 0 or hi >= self.num_vertices:
            return -1
        key = lo * self.num_vertices + hi
        i = int(np.searchsorted(self._edge_keys, key))
        if i < self.num_edges and self._edge_keys[i] == key:
            return i
        return -1

    def face_centroid(self, f):
        return self.vertices[self.faces[f]].mean(axis=0)

    def edge_midpoint(self, e):
        return self.vertices[self.edges[e]].mean(axis=0)

    def cell_centroid(self, c):
        return self.vertices[self.cells[c]].mean(axis=0)

    def bbox_diagonal(self):
        if not len(self.vertices):
            return 0.0
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))


@dataclass
class VertexStar:
    """One-ring adjacency of a vertex: valence n, per-edge degree m_j
    (number of faces incident to that edge), incident face/cell ids."""
    center: int
    edges: np.ndarray
    edge_degrees: np.ndarray
    faces: np.ndarray
    cells: np.ndarray
    interior: bool

    @property
    def n(self):
        return len(self.edges)

    @property
    def n_face(self):
        return len(self.faces)

    @property
    def n_cell(self):
        return len(self.cells)

    @property
    def size(self):
        """Star vector length 1 + n + N_face + N_cell (= 6n-9 when simple)."""
        return 1 + self.n + self.n_face + self.n_cell

    @property
    def simple(self):
        """Interior star whose counts match N_face = 3(n-2), N_cell = 2(n-2)."""
        return (self.interior
                and self.n_face == 3 * (self.n - 2)
                and self.n_cell == 2 * (self.n - 2))


def vertex_star(mesh, v):
    """Build the VertexStar of vertex v."""
    if not 0 <= v < mesh.num_vertices:
        raise ValueError("vertex id %d out of range" % v)
    edges = mesh.vertex_edges[v]
    return VertexStar(center=int(v),
                      edges=edges,
                      edge_degrees=mesh.edge_faces.counts[edges],
                      faces=mesh.vertex_faces[v],
                      cells=mesh.vertex_cells[v],
                      interior=not mesh.boundary_vertex_mask[v])


@dataclass
class ValidationReport:
    """Findings from validate(); ok iff no findings."""
    findings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.findings

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(self.findings)


def validate(mesh):
    """Check manifoldness, conformity and interior-vertex star counts.

    Reported findings:
      * non-manifold faces (more than 2 incident cells),
      * non-manifold boundary edges (boundary edges whose boundary-face
        count differs from 2, e.g. two cells glued along a single edge),
      * conformity violations (two cells sharing 3 or more vertices
        without sharing a whole quad face),
      * interior vertices whose face/cell counts break
        N_face = 3(n-2), N_cell = 2(n-2).
    """
    report = ValidationReport()
    face_count = mesh.face_cells.counts
    for f in np.flatnonzero(face_count > 2):
        report.findings.append(
            "non-manifold face %d (vertices %s) with %d incident cells"
            % (f, tuple(mesh.faces[f].tolist()), face_count[f]))

    ef = mesh.edge_faces
    nbf = np.bincount(ef.rows[mesh.boundary_face_mask[ef.items]],
                      minlength=mesh.num_edges)
    for e in np.flatnonzero(mesh.boundary_edge_mask & (nbf != 2)):
        report.findings.append(
            "non-manifold edge %d (vertices %s) with %d boundary faces"
            % (e, tuple(mesh.edges[e].tolist()), nbf[e]))

    # cell pairs around every vertex in (vertex, i, j) scan order; a pair
    # occurs once per vertex the two cells share
    nc = mesh.num_cells
    pairs = _row_pairs(mesh.vertex_cells)
    keys, first, shared = np.unique(pairs[:, 0] * nc + pairs[:, 1],
                                    return_index=True, return_counts=True)
    face_pairs = _row_pairs(mesh.face_cells)
    no_face = ~np.isin(keys, face_pairs[:, 0] * nc + face_pairs[:, 1])
    flagged = np.flatnonzero((shared >= 3) & no_face | (shared > 4))
    for i in flagged[np.argsort(first[flagged])]:
        a, b = divmod(int(keys[i]), nc)
        if shared[i] >= 3 and no_face[i]:
            report.findings.append(
                "conformity: cells %d and %d share %d vertices but no face"
                % (a, b, shared[i]))
        else:
            report.findings.append(
                "conformity: cells %d and %d share %d vertices"
                % (a, b, shared[i]))

    n = mesh.vertex_edges.counts
    n_face, n_cell = mesh.vertex_faces.counts, mesh.vertex_cells.counts
    want_f, want_c = 3 * (n - 2), 2 * (n - 2)
    bad = ~mesh.boundary_vertex_mask & ((n_face != want_f) | (n_cell != want_c))
    for v in np.flatnonzero(bad):
        report.findings.append(
            "star: interior vertex %d has n=%d, N_face=%d (want %d), "
            "N_cell=%d (want %d)"
            % (v, n[v], n_face[v], want_f[v], n_cell[v], want_c[v]))
    return report


def _row_pairs(inc):
    """Every pair (a, b) of items in one row of `inc`, a listed before b,
    ordered by row and then as a nested loop over the row; shape (m, 2)."""
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    block_rows = [np.zeros(0, dtype=np.int64)]
    for k in np.unique(inc.counts[inc.counts > 1]):
        rows = np.flatnonzero(inc.counts == k)
        items = inc.items[inc._offsets[rows][:, None] + np.arange(k)]
        i, j = np.triu_indices(k, 1)
        blocks.append(np.stack([items[:, i], items[:, j]], axis=2).reshape(-1, 2))
        block_rows.append(np.repeat(rows, len(i)))
    order = np.argsort(np.concatenate(block_rows), kind="stable")
    return np.concatenate(blocks)[order]


def parse_mesh(text):
    """Parse the ASCII mesh format.

    Line 1: `nv nc`; then nv lines `x y z`; then nc lines of 8 vertex
    indices (0-based, fixed corner order).  `#` starts a comment;
    blank lines are skipped.  Errors carry the offending line number.
    """
    data = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            data.append((lineno, line))
    if not data:
        raise ValueError("empty mesh file")

    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError("line %d: expected header 'nv nc'" % lineno)
    try:
        nv, nc = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("line %d: malformed counts %r" % (lineno, header)) from None
    if nv < 0 or nc < 0:
        raise ValueError("line %d: negative counts" % lineno)
    if len(data) - 1 != nv + nc:
        raise ValueError(
            "line %d: header promises %d vertex and %d cell lines, found %d data lines"
            % (lineno, nv, nc, len(data) - 1))

    vertices = np.zeros((nv, 3))
    for i in range(nv):
        lineno, line = data[1 + i]
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("line %d: expected 3 coordinates" % lineno)
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError:
            raise ValueError("line %d: malformed coordinate" % lineno) from None

    cells = np.zeros((nc, 8), dtype=np.int64)
    for i in range(nc):
        lineno, line = data[1 + nv + i]
        parts = line.split()
        if len(parts) != 8:
            raise ValueError("line %d: expected 8 vertex indices" % lineno)
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise ValueError("line %d: malformed vertex index" % lineno) from None
        for p in idx:
            if not 0 <= p < nv:
                raise ValueError("line %d: vertex index %d out of range [0, %d)"
                                 % (lineno, p, nv))
        if len(set(idx)) != 8:
            raise ValueError("line %d: duplicate vertex index within cell" % lineno)
        cells[i] = idx
    return HexMesh(vertices, cells)


def serialize_mesh(mesh):
    """Serialize to the ASCII mesh format with round-trippable floats."""
    out = ["%d %d" % (mesh.num_vertices, mesh.num_cells)]
    for p in mesh.vertices:
        out.append("%.17g %.17g %.17g" % tuple(p))
    for c in mesh.cells:
        out.append(" ".join(str(int(i)) for i in c))
    return "\n".join(out) + "\n"
