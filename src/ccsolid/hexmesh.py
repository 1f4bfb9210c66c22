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
from scipy import sparse

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
# the corner at offset (x, y, z), indexed by its code x + 2y + 4z
CORNER_OF_CODE = np.argsort(CORNER_OFFSETS @ (1, 2, 4))

# the local edge (2 corners) or local face (4 corners) with a given corner set
LOCAL_ENTITY = {frozenset(corners): i for group in (LOCAL_EDGES, LOCAL_FACES)
                for i, corners in enumerate(group)}

_LOCAL_EDGES_ARR = np.array(LOCAL_EDGES)
_LOCAL_FACES_ARR = np.array(LOCAL_FACES)
# local edge of side k (corner k to corner k+1 of the cycle) of each face
_LOCAL_FACE_EDGES = np.array(
    [[LOCAL_ENTITY[frozenset((f[k], f[(k + 1) % 4]))] for k in range(4)]
     for f in LOCAL_FACES])


class Incidence:
    """Read-only incidence relation stored as compressed rows.

    Row r lists the ids related to entity r in ascending order.
    `inc[r]` returns that row as a read-only int64 array, `len(inc)` is
    the number of rows and `inc.counts` the length of every row.  The
    flat pair `inc.rows`, `inc.items` holds every (row, item) entry,
    sorted by row and then by item, and `inc.sum` adds up a value per
    item over every row at once.
    """

    def __init__(self, rows, items, nrows):
        """Group the (row, item) pairs of the non-negative int64 arrays
        `rows` and `items` (any order; `items` broadcast to the shape of
        `rows`) into `nrows` rows, items ascending in each row: the one
        way every relation is built, every HexMesh's, input or refined,
        alike.  _sorted_pairs orders the pairs, np.bincount counts them.
        """
        self.rows, self.items = _sorted_pairs(rows, items)
        self.counts = np.bincount(self.rows, minlength=nrows)
        self._offsets = np.zeros(nrows + 1, dtype=np.int64)
        self.counts.cumsum(out=self._offsets[1:])
        for a in (self.rows, self.items, self.counts, self._offsets):
            a.setflags(write=False)

    @classmethod
    def inverse(cls, table, nrows):
        """Row r lists the rows of the (m, k) id `table` that contain r."""
        return cls(table, np.arange(len(table))[:, None], nrows)

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, r):
        r = range(len(self.counts))[r]     # list semantics for the row id
        return self.items[self._offsets[r]:self._offsets[r + 1]]

    def sum(self, values, where=None):
        """Per-row sum of the `values` rows (indexed by item) that each
        row lists, shape (len(self),) + values.shape[1:]; with a boolean
        `where` per item id, only the items it marks are added.

        One product with the 0/1 CSR matrix of the relation: every row
        adds its items in ascending order, starting from 0, the order of
        a sequential scatter over `rows`, `items`.  An unmarked item adds
        +-0.0, which leaves a sum that starts from +0.0 bit for bit as it
        is (for finite `values`).
        """
        values = np.asarray(values, dtype=float)
        weights = (np.ones(len(self.items)) if where is None
                   else where[self.items].astype(float))
        pick = sparse.csr_array((weights, self.items, self._offsets),
                                shape=(len(self), len(values)))
        return pick @ values


class HexMesh:
    """Immutable hexahedral mesh with derived adjacency.

    Parameters
    ----------
    vertices : (nv, 3) array of finite floats
    cells : (nc, 8) array of whole-number vertex indices in the fixed
        corner order

    Derived on construction, in two steps.  The numbering: unique edges
    (sorted vertex pairs, in lexicographic order), unique faces
    (canonicalized by sorted vertex set, with one oriented corner cycle
    kept per face) and the per-cell and per-face id tables cell_edges,
    cell_faces and face_edges.  Then, from those tables alone, the six
    incidences below and the boundary masks (a face is boundary iff it
    has exactly one incident cell).  subdivision.subdivide hands a refined
    mesh only its numbering, derived from the parent's without sorting
    the entities anew; the second step is the same for every mesh.

    The incidence relations edge_cells, face_cells, edge_faces,
    vertex_edges, vertex_faces and vertex_cells are Incidence objects:
    `mesh.vertex_cells[v]` is the ascending int64 array of the cells that
    contain vertex v, `mesh.vertex_cells.counts` the number of cells at
    every vertex, and `mesh.vertex_cells.rows`, `mesh.vertex_cells.items`
    the flat (vertex, cell) pairs of all rows, sorted by vertex.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        cells = np.asarray(cells)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (nv, 3) array")
        if cells.ndim != 2 or cells.shape[1] != 8:
            raise ValueError("cells must be an (nc, 8) array")
        if cells.dtype.kind not in "biu":
            cells = cells.astype(float)
            whole = (np.isfinite(cells) & (cells == np.floor(cells))).all(axis=1)
            if not whole.all():
                c = int(np.argmin(whole))
                raise ValueError("cell %d has a non-integer vertex index: %s"
                                 % (c, cells[c].tolist()))
        self.cells = cells.astype(np.int64)
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            v = int(np.argmin(finite))
            raise ValueError("vertex %d has a non-finite coordinate: %s"
                             % (v, self.vertices[v].tolist()))
        nv = len(self.vertices)
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= nv):
            raise ValueError("cell vertex index out of range")
        dup = _repeated_corner(self.cells)
        if dup is not None:
            raise ValueError("cell %d has duplicate vertex indices" % dup)
        self._number()
        self._relate()
        for a in (self.vertices, self.cells, self.edges, self.faces,
                  self.face_cycles, self.cell_edges, self.cell_faces):
            a.setflags(write=False)

    def _number(self):
        """Number the edges and faces and derive their id tables.

        Edges are numbered by their sorted vertex pair, lexicographically.
        Faces are numbered by their sorted vertex quadruple (a, b, c, d),
        lexicographically: one lexsort on the two integer keys a nv + b
        and c nv + d, which keeps equal keys in input order, so the first
        of every run of equal keys is the face's first occurrence in
        `cells`; that occurrence gives its corner cycle and its edges.
        Pairs and quadruples are sorted by min/max comparators over whole
        columns, not row by row.
        """
        nc = len(self.cells)
        nv = len(self.vertices)

        # an edge is keyed by lo * 2**b + hi with 2**b >= nv; sorted keys
        # order the edges lexicographically by (lo, hi)
        b = max(nv - 1, 0).bit_length()
        lo, hi = _min_max(*(self.cells[:, c] for c in _LOCAL_EDGES_ARR.T))
        edge_keys, einv = np.unique((lo << b | hi).reshape(-1),
                                    return_inverse=True)
        self.edges = np.stack([edge_keys >> b, edge_keys & ((1 << b) - 1)],
                              axis=1)
        self.cell_edges = einv.reshape(nc, 12)

        quads = self.cells[:, _LOCAL_FACES_ARR].reshape(-1, 4)   # cycles
        keys = _sort4(quads)
        k1 = keys[:, 0] * nv + keys[:, 1]
        k2 = keys[:, 2] * nv + keys[:, 3]
        order = np.lexsort((k2, k1))
        k1, k2 = k1[order], k2[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        first = order[new]
        finv = np.empty_like(order)
        finv[order] = np.cumsum(new) - 1
        self.faces = keys.take(first, axis=0)
        self.cell_faces = finv.reshape(nc, 6)
        self.face_cycles = quads.take(first, axis=0)
        # a face's 4 cycle edges, read off the cell of its first occurrence
        cell, local = np.divmod(first, 6)
        self.face_edges = self.cell_edges[cell[:, None],
                                          _LOCAL_FACE_EDGES[local]]

    def _relate(self):
        """The six incidences and three boundary masks, from the numbered
        tables: every mesh, input or refined, derives them here."""
        nv, ne, nf = len(self.vertices), len(self.edges), len(self.faces)
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


class _RefinedMesh(HexMesh):
    """A HexMesh handed the six id tables subdivide derives from the
    parent's: HexMesh.__init__ checks the vertices and cells and runs
    _relate as for any mesh, and _number installs the given tables in
    place of numbering the entities."""

    def __init__(self, vertices, cells, tables):
        self._tables = tables
        super().__init__(vertices, cells)

    def _number(self):
        self.__dict__.update(self.__dict__.pop("_tables"))


def _min_max(x, y):
    """Elementwise (min, max) of two integer arrays: one comparator."""
    return np.minimum(x, y), np.maximum(x, y)


def _sort4(quads):
    """np.sort(quads, axis=1) of an (m, 4) integer array, column-wise by
    the 5-comparator sorting network (0,1) (2,3) (0,2) (1,3) (1,2)."""
    a, b, c, d = quads.T
    a, b = _min_max(a, b)
    c, d = _min_max(c, d)
    a, c = _min_max(a, c)
    b, d = _min_max(b, d)
    b, c = _min_max(b, c)
    out = np.empty_like(quads)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = a, b, c, d
    return out


def _repeated_corner(cells):
    """Index of the first row of the (m, k) id table `cells` that lists
    an id twice, or None."""
    corners = np.sort(cells, axis=1)
    dup = np.flatnonzero((corners[:, 1:] == corners[:, :-1]).any(axis=1))
    return int(dup[0]) if len(dup) else None


def _lattice_table(n):
    """Per node of the n**3 cell lattice, (i, j, k) row-major: its column
    in the entity table of lattice_ids, its nearest corner, its offset in
    a cell, and (3, n**3) corners whose vertex ids rank it within its
    shared entity, padded with the nearest corner, which never ranks."""
    idx = np.indices((n,) * 3).reshape(3, -1).T
    near = CORNER_OF_CODE[(2 * idx >= n) @ (1, 2, 4)]
    # the owning entity's corners match the node wherever it sits at 0 or n-1
    on = ((idx[:, None] == (n - 1) * CORNER_OFFSETS)
          | ((idx > 0) & (idx < n - 1))[:, None]).all(axis=2)
    size = on.sum(axis=1)
    column = np.where(size == 1, near, 26)
    ranks = n == 4                      # at n = 3 an entity has one node
    others = np.tile(near, (3 * ranks, 1))
    for t in np.flatnonzero((size == 2) | (size == 4)):
        corners = frozenset(np.flatnonzero(on[t]).tolist())
        column[t] = (8 if size[t] == 2 else 20) + LOCAL_ENTITY[corners]
        if ranks:
            rest = sorted(corners - {near[t]})
            others[:len(rest), t] = rest
    table = (column, near, np.where((size == 8) & ranks, near, 0), others)
    for a in table:
        a.setflags(write=False)
    return table


_LATTICE_TABLES = {n: _lattice_table(n) for n in (3, 4)}


def lattice_ids(mesh, n):
    """Global ids of the n x n x n lattice nodes of every cell, n = 3 or 4,
    (nc, n**3) in (i, j, k) row-major order, and each node's nearest corner.

    A node belongs to the vertex, edge, face or cell holding it in its
    interior and is shared by every cell at that entity.  Ids run
    [vertices][edges][faces][cells], (n - 2)**d per entity of dimension d.
    At n = 4 a node's place in an edge or face is the rank of its nearest
    corner's vertex id among the entity's, in a cell that local corner.
    """
    if n not in _LATTICE_TABLES:
        raise ValueError("lattice size must be 3 or 4, got %r" % (n,))
    column, near, offset, others = _LATTICE_TABLES[n]
    s = n - 2
    first = np.cumsum([0, mesh.num_vertices, s * mesh.num_edges,
                       s * s * mesh.num_faces])
    local = (mesh.cells, mesh.cell_edges, mesh.cell_faces,
             np.arange(mesh.num_cells)[:, None])
    entity = np.hstack([first[d] + s ** d * a for d, a in enumerate(local)])
    nearest = mesh.cells[:, near]
    rank = sum(mesh.cells[:, o] < nearest for o in others)
    return entity[:, column] + offset + rank, near


# lattice node (of lattice_ids(mesh, 3)) of every corner of every child octant
_CHILD_NODE = (CORNER_OFFSETS[:, None] + CORNER_OFFSETS) @ (9, 3, 1)


def _child_tables():
    """The children of a split cell in the cell's 3 x 3 x 3 lattice.

    Each of the 54 lattice edges joins the nodes of two parent entities,
    one a dimension above the other: in a cell's table of them, column
    2 L + s is corner LOCAL_EDGES[L][s] to edge L, 24 + 4 F + s edge
    _LOCAL_FACE_EDGES[F][s] to face F, and 48 + F face F to the cell.  Of
    the 36 lattice faces, column 4 F + j lies on face F at corner
    LOCAL_FACES[F][j], and 24 + L inside the cell at edge L.  Returns the
    (8, 12) edge and (8, 6) face columns of every child, and per face
    column the corner cycle and cycle edges of its first occurrence among
    the children, as columns of the cell's 8 x 8 child corners and 8 x 12
    child edges.
    """
    node_col = _LATTICE_TABLES[3][0][_CHILD_NODE]       # k, 8 + L, 20 + F, 26
    edge_col = np.empty((8, 12), dtype=np.int64)
    face_col = np.empty((8, 6), dtype=np.int64)
    for o in range(8):
        for le, pair in enumerate(LOCAL_EDGES):
            a, b = sorted(node_col[o, list(pair)].tolist())
            if b < 20:
                edge_col[o, le] = 2 * (b - 8) + LOCAL_EDGES[b - 8].index(a)
            elif b < 26:
                sides = _LOCAL_FACE_EDGES[b - 20].tolist()
                edge_col[o, le] = 24 + 4 * (b - 20) + sides.index(a - 8)
            else:
                edge_col[o, le] = 48 + a - 20
        for lf, quad in enumerate(LOCAL_FACES):
            a, _, _, d = sorted(node_col[o, list(quad)].tolist())
            face_col[o, lf] = (4 * (d - 20) + LOCAL_FACES[d - 20].index(a)
                               if a < 8 else 24 + a - 8)
    _, first = np.unique(face_col, return_index=True)
    octant, lf = np.divmod(first, 6)
    return (edge_col, face_col, 8 * octant[:, None] + _LOCAL_FACES_ARR[lf],
            12 * octant[:, None] + _LOCAL_FACE_EDGES[lf])


(_CHILD_EDGE_COL, _CHILD_FACE_COL, _FIRST_CYCLE,
 _FIRST_CYCLE_EDGES) = _child_tables()
# the two local faces at every local edge, and the edge's column 4 F + s
# among the (6, 4) sides of the cell's faces, once in each
_EDGE_FACES = np.array([[f for f, quad in enumerate(LOCAL_FACES)
                         if set(pair) <= set(quad)] for pair in LOCAL_EDGES])
_EDGE_SIDES = np.array([[4 * f + _LOCAL_FACE_EDGES[f].tolist().index(le)
                         for f in two] for le, two in enumerate(_EDGE_FACES)])


def _pair_positions(inc, table):
    """(m, k) position among the flat pairs of `inc`, the relation
    Incidence.inverse(table, ...) of an (m, k) id `table` that lists
    distinct ids in each row, of the pair (table[i, j], i) of every slot."""
    m, k = table.shape
    hit = np.flatnonzero(table.take(inc.items, axis=0) == inc.rows[:, None])
    pos = np.empty(m * k, dtype=np.int64)
    pos[hit + k * (inc.items - np.arange(len(hit)))] = np.arange(len(hit))
    return pos.reshape(m, k)


def _sorted_pairs(rows, items):
    """The (row, item) pairs of `rows` and `items` (`items` broadcast to
    the shape of `rows`) in ascending order, as two flat arrays: one sort
    of the keys row * 2**b + item, 2**b above every item, split by mask
    and shift; equal keys are equal pairs, so no stability is needed."""
    b = int(items.max(initial=0)).bit_length()
    keys = rows << b
    keys |= items
    keys = keys.reshape(-1)
    keys.sort()
    items = keys & ((1 << b) - 1)
    keys >>= b
    return keys, items


def _refine(mesh, vertices):
    """The HexMesh one subdivision step makes of `mesh`, at `vertices`
    (its nodes in the order of lattice_ids(mesh, 3)), in the numbering
    subdivision.subdivide states.  Only its numbering, the six id tables,
    is derived here from the parent's; its incidences and boundary masks
    come from HexMesh._relate, as every mesh's do.

    A child cell's edge is its block's offset plus the position of its
    parent pair (vertex, edge), (edge, face) or (face, cell) in the
    parent relation.  The two blocks of child faces are each sorted by
    two positions in one row of a parent relation: the places of (vertex,
    lower edge) and (vertex, higher edge) in vertex_edges, or of (edge,
    lower face) and (edge, higher face) in edge_faces.  A face's cycle
    and edges come from its first occurrence, as HexMesh takes them: on
    parent face f, the child of the first cell at f; inside a cell, the
    lower of the two children at it.
    """
    nv, ne, nf, nc = (mesh.num_vertices, mesh.num_edges, mesh.num_faces,
                      mesh.num_cells)
    ve, ef, fc = mesh.vertex_edges, mesh.edge_faces, mesh.face_cells
    cells, ce, cf = mesh.cells, mesh.cell_edges, mesh.cell_faces
    fcyc, fedg = mesh.face_cycles, mesh.face_edges
    off_f, off_c = nv + ne, nv + ne + nf         # first face / cell node

    child_cells = lattice_ids(mesh, 3)[0].take(_CHILD_NODE.reshape(-1), axis=1)
    edges = np.empty((2 * ne + 4 * nf + 6 * nc, 2), dtype=np.int64)
    edges[:, 0] = np.concatenate([ve.rows, nv + ef.rows, off_f + fc.rows])
    edges[:, 1] = np.concatenate([nv + ve.items, off_f + ef.items,
                                  off_c + fc.items])

    # a cell's 54 lattice edges; `at` is the place in the face's stored
    # cycle of every corner of every cell face, and side s of the cell's
    # cycle is stored side `at`, or `at + 1` if the cycles run opposite ways
    pos_ve = _pair_positions(ve, mesh.edges).reshape(-1)
    pos_ef = _pair_positions(ef, fedg).reshape(-1)
    pos_fc = _pair_positions(fc, cf)
    higher = (cells.take(_LOCAL_EDGES_ARR[:, 0], axis=1)
              > cells.take(_LOCAL_EDGES_ARR[:, 1], axis=1))
    at = np.flatnonzero(fcyc.take(cf, axis=0)[:, :, None, :]
                        == cells.take(_LOCAL_FACES_ARR, axis=1)[..., None])
    at = (at & 3).reshape(nc, 6, 4)
    nxt = np.roll(at, -1, axis=2)
    side = np.where(nxt == (at + 1) & 3, at, nxt)
    face_sides = pos_ef.take(4 * cf[:, :, None] + side).reshape(nc, 24)
    child_edges = np.hstack([
        pos_ve.take(2 * ce[:, :, None]
                    + np.stack([higher, ~higher], axis=2)).reshape(nc, 24),
        2 * ne + face_sides, 2 * ne + 4 * nf + pos_fc]).take(
            _CHILD_EDGE_COL.reshape(-1), axis=1)

    # faces on parent faces, slot (f, k) at cycle vertex k, then inner
    # faces, slot (c, L) at local edge L; ties go to the lower slot
    lo, hi = _min_max(
        pos_ve.take(2 * fedg + (fcyc > np.roll(fcyc, -1, axis=1))),
        pos_ve.take(2 * np.roll(fedg, 1, axis=1)
                    + (fcyc > np.roll(fcyc, 1, axis=1))))
    key = lo * ve.counts.max(initial=1) + hi - lo
    _, order = _sorted_pairs(key.reshape(-1), np.arange(key.size))
    lo, hi = _min_max(face_sides.take(_EDGE_SIDES[:, 0], axis=1),
                      face_sides.take(_EDGE_SIDES[:, 1], axis=1))
    key = lo * ef.counts.max(initial=1) + hi - lo
    _, inner = _sorted_pairs(key.reshape(-1), np.arange(key.size))
    f, k = np.divmod(order, 4)
    c, le = np.divmod(inner, 12)
    e_lo, e_hi = _min_max(fedg.take(4 * f + (k - 1) % 4), fedg.take(order))
    f_lo, f_hi = _min_max(cf.take(6 * c + _EDGE_FACES[:, 0].take(le)),
                          cf.take(6 * c + _EDGE_FACES[:, 1].take(le)))
    faces = np.stack([
        np.concatenate([fcyc.take(order), nv + ce.take(inner)]),
        np.concatenate([nv + e_lo, off_f + f_lo]),
        np.concatenate([nv + e_hi, off_f + f_hi]),
        np.concatenate([off_f + f, off_c + c])], axis=1)
    rank = np.empty(len(faces), dtype=np.int64)
    rank[order] = np.arange(4 * nf)
    rank[4 * nf + inner] = np.arange(4 * nf, len(faces))
    lattice_faces = np.hstack([
        rank.take(4 * cf[:, :, None] + at).reshape(nc, 24),
        rank[4 * nf:].reshape(nc, 12)])

    # the cell and lattice column of every child face's first occurrence
    q, lf = np.nonzero(pos_fc == fc._offsets.take(cf))
    cols = (4 * lf).repeat(4) + np.tile(np.arange(4), nf)
    q = q.repeat(4)
    to_face = np.empty(4 * nf, dtype=np.int64)
    to_face[lattice_faces.take(36 * q + cols)] = np.arange(4 * nf)
    first_cell = np.concatenate([q.take(to_face), c])
    first_col = np.concatenate([cols.take(to_face), 24 + le])

    def first_occurrence(lattice, columns):
        at_cols = columns.take(first_col, axis=0)
        at_cols += lattice.shape[1] * first_cell[:, None]
        return lattice.take(at_cols)

    face_edges = first_occurrence(child_edges, _FIRST_CYCLE_EDGES)
    face_cycles = first_occurrence(child_cells, _FIRST_CYCLE)
    child_faces = lattice_faces.take(_CHILD_FACE_COL.reshape(-1), axis=1)
    return _RefinedMesh(vertices, child_cells.reshape(-1, 8), dict(
        edges=edges, faces=faces, face_cycles=face_cycles,
        cell_edges=child_edges.reshape(-1, 12),
        cell_faces=child_faces.reshape(-1, 6), face_edges=face_edges))


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
        a, b = pairs[first[i]].tolist()
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


def float_rows(values):
    """The rows of the float array `values`, (n,) or (n, k), as a list of
    n lines: every value at "%.17g" (round-tripping), separated by blanks.

    Equal rows, bit for bit (so 0.0 and -0.0 differ), are formatted once:
    one lexsort over the int64 view of the columns groups them, a single
    %-operation formats the distinct rows, and the lines are gathered
    back by each row's group.
    """
    rows = np.ascontiguousarray(values, dtype=float)
    if not len(rows):
        return []
    rows = rows.reshape(len(rows), -1)
    bits = rows.view(np.int64)
    order = np.lexsort(bits.T)
    ranked = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    distinct = rows[order[new]]
    fmt = " ".join(["%.17g"] * rows.shape[1])
    text = "\n".join([fmt] * len(distinct)) % tuple(distinct.ravel().tolist())
    return np.array(text.split("\n"), dtype=object)[group].tolist()


def serialize_counted_table(points, table):
    """Text form read by parse_counted_table, floats round-tripping."""
    table = np.asarray(table).tolist()
    out = ["%d %d" % (len(points), len(table))]
    out += float_rows(points)
    out += [" ".join(map(str, row)) for row in table]
    return "\n".join(out) + "\n"


def parse_mesh(text):
    """Parse the ASCII mesh format (see parse_counted_table).

    Line 1: `nv nc`; then nv lines `x y z`; then nc lines of 8 distinct
    vertex indices (0-based, fixed corner order).  `#` starts a comment;
    blank lines are skipped.  Errors carry the offending line number.
    """
    vertices, cells, lines = parse_counted_table(text, ("vertex", "cell"), 8)
    dup = _repeated_corner(cells)
    if dup is not None:
        raise ValueError("line %d: duplicate vertex index within cell"
                         % lines[dup])
    return HexMesh(vertices, cells)


def serialize_mesh(mesh):
    """Serialize to the ASCII mesh format with round-trippable floats."""
    return serialize_counted_table(mesh.vertices, mesh.cells)
