"""Hexahedral mesh container with derived edge/face incidence.

Cells use a fixed 8-corner ordering: bottom quad counterclockwise viewed
from outside the cell (corners 0..3), then the top quad with corner k+4
vertically above corner k.  Corner k sits at CORNER_OFFSETS[k] in the
cell's local unit frame; every stencil in the other modules is written
against this frame.
"""

import math
import sys
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
    vertices : (nv, 3) array of finite floats
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
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            v = int(np.argmin(finite))
            raise ValueError("vertex %d has a non-finite coordinate: %s"
                             % (v, self.vertices[v].tolist()))
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


def text_lines(text):
    """Yield (lineno, line) for every non-blank line of `text`: 1-based
    line numbers, each line without its `#` comment and outer blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def at_least(lo):
    """The read_value kind of an integer >= lo."""
    return range(lo, sys.maxsize)


def read_value(token, kind, lineno, what):
    """Convert one token of line `lineno` to a value of `kind`.

    Kinds: float (a finite number), a range (a whole number in it: an
    index below a count, or at_least(lo)), bool (true or false) or a
    tuple of allowed words.  Every failure raises ValueError("line N:
    ...") naming `what`, the field the token belongs to.
    """
    if kind is bool:
        return read_value(token, ("true", "false"), lineno, what) == "true"
    if isinstance(kind, tuple):
        if token not in kind:
            raise ValueError("line %d: %s must be %s"
                             % (lineno, what, " or ".join(kind)))
        return token
    try:
        x = float(token)
    except ValueError:
        x = math.nan
    if kind is float:
        if math.isfinite(x):
            return x
        need = "a finite number"
    else:
        if x.is_integer() and int(x) in kind:
            return int(x)
        need = ("an integer >= %d" % kind.start if kind.stop == sys.maxsize
                else "an integer in [%d, %d)" % (kind.start, kind.stop))
    raise ValueError("line %d: bad number %r in %s: need %s"
                     % (lineno, token, what, need))


def read_values(tokens, kind, count, lineno, what):
    """read_value over the `count` tokens a line must hold."""
    if len(tokens) != count:
        raise ValueError("line %d: %s needs %d %s, got %d"
                         % (lineno, what, count,
                            "numbers" if kind is float else "values",
                            len(tokens)))
    return [read_value(t, kind, lineno, what) for t in tokens]


def parse_counted_table(text, names, width):
    """Parse the layout shared by the mesh and spline-model files.

    A header of two counts `n m`, then n lines of 3 finite coordinates,
    then m lines of `width` indices below n.  `#` starts a comment; blank
    lines are skipped.  `names` names the two kinds of row in messages.
    Returns the (n, 3) coordinates, the (m, width) int64 index table and
    the line number of each table row; every error names its line.
    """
    lines = list(text_lines(text))
    if not lines:
        raise ValueError("empty file: expected a header of %s and %s counts"
                         % names)
    lineno, header = lines[0]
    n, m = read_values(header.split(), at_least(0), 2, lineno, "header")
    if len(lines) - 1 != n + m:
        raise ValueError(
            "line %d: header promises %d %s and %d %s lines, found %d data "
            "lines" % (lineno, n, names[0], m, names[1], len(lines) - 1))
    points = [read_values(line.split(), float, 3, ln, names[0])
              for ln, line in lines[1:n + 1]]
    rows = lines[n + 1:]
    table = [read_values(line.split(), range(n), width, ln, names[1])
             for ln, line in rows]
    return (np.array(points, dtype=float).reshape(n, 3),
            np.array(table, dtype=np.int64).reshape(m, width),
            [ln for ln, _ in rows])


def serialize_counted_table(points, table):
    """Text form read by parse_counted_table, floats round-tripping."""
    points, table = np.asarray(points).tolist(), np.asarray(table).tolist()
    out = ["%d %d" % (len(points), len(table))]
    out += ["%.17g %.17g %.17g" % tuple(p) for p in points]
    out += [" ".join(map(str, row)) for row in table]
    return "\n".join(out) + "\n"


def parse_mesh(text):
    """Parse the ASCII mesh format (see parse_counted_table).

    Line 1: `nv nc`; then nv lines `x y z`; then nc lines of 8 distinct
    vertex indices (0-based, fixed corner order).  `#` starts a comment;
    blank lines are skipped.  Errors carry the offending line number.
    """
    vertices, cells, lines = parse_counted_table(text, ("vertex", "cell"), 8)
    corners = np.sort(cells, axis=1)
    dup = np.flatnonzero((corners[:, 1:] == corners[:, :-1]).any(axis=1))
    if len(dup):
        raise ValueError("line %d: duplicate vertex index within cell"
                         % lines[dup[0]])
    return HexMesh(vertices, cells)


def serialize_mesh(mesh):
    """Serialize to the ASCII mesh format with round-trippable floats."""
    return serialize_counted_table(mesh.vertices, mesh.cells)
