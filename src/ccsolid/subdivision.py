"""Catmull-Clark solid subdivision, limit points, and local subdivision matrices.

One subdivision step inserts a cell point per cell, a face point per face,
an edge point per edge, and moves every original vertex; each hexahedron
splits into 8.  Interior insertion rules:

    cell point   C = average of the 8 cell corners
    face point   F = (C1 + C2 + 2A) / 4        A: face centroid, C*: cell points
    edge point   E = (Cavg + 2Favg + M) / 4    M: midpoint, averages over the
                                               edge's incident cell points and
                                               incident face centroids
    vertex       V' = (Cavg + 3Favg + 3Eavg + V) / 8   averages over the
                                               vertex's incident cell points,
                                               face centroids, edge midpoints

Boundary entities follow the Catmull-Clark *surface* rules applied to the
boundary quad mesh (face point = centroid; edge point = (M + mean of the two
adjacent boundary-face centroids)/2; vertex = (Q + 2R + (n_s-3)V)/n_s), so the
boundary of the refined solid is the ordinary Catmull-Clark surface.

An interior vertex of valence n with simple star has 3(n-2) incident faces
and 2(n-2) incident cells; the star vector (v, e_1..e_n, f_1.., c_1..) has
length N = 6n-9 and transforms linearly under one subdivision step.  The
limit position is the weighted average

    v_inf = [16(n-2) v1 + 4 sum m_j e1_j + 4 sum f1_j + sum c1_j]
            / [30(n-2) + 4 sum m_j]

of the level-1 star quantities, m_j being the degree (incident face count)
of edge j.  These weights form the dominant left eigenvector of the local
subdivision matrix whenever all m_j are equal (e.g. the regular case
n=6, m=4 with weights (64, 16.., 4.., 1..)/216); for mixed-degree stars
they are the formula's stated values but only approximate the true
eigenvector, which has no comparably simple closed form.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .hexmesh import (CORNER_OFFSETS, LOCAL_EDGES, LOCAL_FACES,
                      OPPOSITE_CORNER, HexMesh, vertex_star)


def face_point_rule(c1, c2, centroid):
    """Interior face point from the two adjacent cell points and the centroid."""
    return (np.asarray(c1) + c2 + 2.0 * np.asarray(centroid)) / 4.0


def edge_point_rule(cell_avg, face_avg, midpoint):
    """Interior edge point from averaged incident cell points, averaged
    incident face centroids, and the edge midpoint."""
    return (np.asarray(cell_avg) + 2.0 * np.asarray(face_avg) + midpoint) / 4.0


def vertex_point_rule(cell_avg, face_avg, edge_avg, old):
    """Updated interior vertex from averaged incident cell points, face
    centroids, edge midpoints, and the old position."""
    return (np.asarray(cell_avg) + 3.0 * np.asarray(face_avg)
            + 3.0 * np.asarray(edge_avg) + old) / 8.0


@dataclass
class Provenance:
    """Origin of every vertex and cell of a subdivided mesh.

    kind[v] is one of VERTEX/EDGE/FACE/CELL and origin[v] the id of the
    source entity in the input mesh.  cell_parent[c] / cell_octant[c] give,
    for each new cell, its parent cell and the parent corner (0..7) whose
    octant the child occupies; the child's local frame is axis-aligned with
    the parent's.
    """
    VERTEX: ClassVar[int] = 0
    EDGE: ClassVar[int] = 1
    FACE: ClassVar[int] = 2
    CELL: ClassVar[int] = 3

    kind: np.ndarray
    origin: np.ndarray
    cell_parent: np.ndarray
    cell_octant: np.ndarray


def _sum_over(inc, values):
    """Per-row sum of the `values` rows listed by each row of `inc`."""
    acc = np.zeros((len(inc),) + values.shape[1:])
    np.add.at(acc, inc.rows, values[inc.items])
    return acc


def _mean_over(inc, values):
    """Per-row mean of the `values` rows listed by each row of `inc`."""
    return _sum_over(inc, values) / np.maximum(inc.counts, 1)[:, None]


def _level1_points(mesh):
    """All level-1 geometric quantities of one subdivision step.

    Returns (updated vertices, edge points, face points, cell points).
    """
    V = mesh.vertices
    cell_pts = V[mesh.cells].mean(axis=1)
    A = V[mesh.faces].mean(axis=1)          # face centroids
    M = V[mesh.edges].mean(axis=1)          # edge midpoints

    # face points
    face_pts = np.where(mesh.boundary_face_mask[:, None], A,
                        (_sum_over(mesh.face_cells, cell_pts) + 2.0 * A) / 4.0)

    # edge points
    ef = mesh.edge_faces
    edge_pts = edge_point_rule(_mean_over(mesh.edge_cells, cell_pts),
                               _mean_over(ef, A), M)
    if mesh.boundary_edge_mask.any():
        bfc, bfn = _boundary_sums(ef, mesh.boundary_face_mask, A)
        be = mesh.boundary_edge_mask
        edge_pts[be] = (M[be] + bfc[be] / np.maximum(bfn[be], 1)[:, None]) / 2.0

    # updated vertices
    vf, ve = mesh.vertex_faces, mesh.vertex_edges
    new_verts = vertex_point_rule(_mean_over(mesh.vertex_cells, cell_pts),
                                  _mean_over(vf, A), _mean_over(ve, M), V)
    if mesh.boundary_vertex_mask.any():
        Q, nQ = _boundary_sums(vf, mesh.boundary_face_mask, A)
        R, ns = _boundary_sums(ve, mesh.boundary_edge_mask, M)
        bv = mesh.boundary_vertex_mask
        nsb = np.maximum(ns[bv], 1).astype(float)[:, None]
        new_verts[bv] = (Q[bv] / np.maximum(nQ[bv], 1)[:, None]
                         + 2.0 * R[bv] / nsb
                         + (nsb - 3.0) * V[bv]) / nsb
    return new_verts, edge_pts, face_pts, cell_pts


def _boundary_sums(inc, boundary, values):
    """Per-row sum of `values` over the boundary entities each row lists,
    and their number."""
    sel = boundary[inc.items]
    acc = np.zeros((len(inc), values.shape[1]))
    np.add.at(acc, inc.rows[sel], values[inc.items[sel]])
    return acc, np.bincount(inc.rows[sel], minlength=len(inc))


def _dyadic_tables():
    """Role of each of the 27 dyadic nodes of a cell, and the node index of
    every corner of every child octant."""
    corners = CORNER_OFFSETS.tolist()
    le_index = {frozenset(e): i for i, e in enumerate(LOCAL_EDGES)}
    lf_index = {frozenset(f): i for i, f in enumerate(LOCAL_FACES)}
    roles = []
    for p0 in range(3):
        for p1 in range(3):
            for p2 in range(3):
                p = (p0, p1, p2)
                S = [k for k, o in enumerate(corners)
                     if all(p[d] == 1 or 2 * o[d] == p[d] for d in range(3))]
                if len(S) == 1:
                    roles.append(("v", S[0]))
                elif len(S) == 2:
                    roles.append(("e", le_index[frozenset(S)]))
                elif len(S) == 4:
                    roles.append(("f", lf_index[frozenset(S)]))
                else:
                    roles.append(("c", 0))
    child_node = np.zeros((8, 8), dtype=np.int64)
    for k, xk in enumerate(corners):
        for j, yj in enumerate(corners):
            p = [xk[d] + yj[d] for d in range(3)]
            child_node[k, j] = p[0] * 9 + p[1] * 3 + p[2]
    return roles, child_node


_NODE_ROLES, _CHILD_NODE = _dyadic_tables()


def subdivide(mesh):
    """One Catmull-Clark solid subdivision step.

    Returns (refined HexMesh, Provenance).  New vertices are ordered as
    [updated original vertices][edge points][face points][cell points];
    children of cell q occupy ids 8q..8q+7, one per parent corner octant,
    with child frames axis-aligned to the parent's.
    """
    new_verts, edge_pts, face_pts, cell_pts = _level1_points(mesh)
    nv, ne, nf, nc = (mesh.num_vertices, mesh.num_edges,
                      mesh.num_faces, mesh.num_cells)

    node_ids = np.empty((nc, 27), dtype=np.int64)
    for node, (kind, local) in enumerate(_NODE_ROLES):
        if kind == "v":
            node_ids[:, node] = mesh.cells[:, local]
        elif kind == "e":
            node_ids[:, node] = nv + mesh.cell_edges[:, local]
        elif kind == "f":
            node_ids[:, node] = nv + ne + mesh.cell_faces[:, local]
        else:
            node_ids[:, node] = nv + ne + nf + np.arange(nc)
    new_cells = node_ids[:, _CHILD_NODE].reshape(-1, 8)

    verts = np.vstack([new_verts, edge_pts, face_pts, cell_pts])
    prov = Provenance(
        kind=np.repeat(np.array([Provenance.VERTEX, Provenance.EDGE,
                                 Provenance.FACE, Provenance.CELL]),
                       [nv, ne, nf, nc]),
        origin=np.concatenate([np.arange(nv), np.arange(ne),
                               np.arange(nf), np.arange(nc)]),
        cell_parent=np.repeat(np.arange(nc), 8),
        cell_octant=np.tile(np.arange(8), nc),
    )
    return HexMesh(verts, new_cells), prov


def _star_ring(mesh, star):
    """Star vertex ids in the canonical order (center, edge neighbours,
    face diagonals, cell diagonals).  Raises for non-simple stars."""
    v = star.center
    if not star.simple:
        raise ValueError("vertex %d is not a simple interior vertex" % v)
    ring = [v]
    for e in star.edges:
        a, b = mesh.edges[e]
        ring.append(int(b) if a == v else int(a))
    for f in star.faces:
        cyc = mesh.face_cycles[f].tolist()
        ring.append(cyc[(cyc.index(v) + 2) % 4])
    for c in star.cells:
        cell = mesh.cells[c].tolist()
        ring.append(cell[OPPOSITE_CORNER[cell.index(v)]])
    if len(set(ring)) != len(ring):
        raise ValueError("star of vertex %d is not simple "
                         "(one-ring vertices repeat)" % v)
    return ring


def _star_one_step(mesh, star, ring, P):
    """Apply one subdivision step to positions P (rows follow `ring`),
    restricted to the new star; returns rows (v1, e1.., f1.., c1..)."""
    index = {w: i for i, w in enumerate(ring)}
    P = np.asarray(P, dtype=float)

    def cellpt(c):
        return P[[index[int(w)] for w in mesh.cells[c]]].mean(axis=0)

    def facecen(f):
        return P[[index[int(w)] for w in mesh.faces[f]]].mean(axis=0)

    def edgemid(e):
        a, b = mesh.edges[e]
        return (P[index[int(a)]] + P[index[int(b)]]) / 2.0

    cell_pt = {int(c): cellpt(c) for c in star.cells}
    face_cen = {int(f): facecen(f) for f in star.faces}
    edge_mid = {int(e): edgemid(e) for e in star.edges}

    rows = [vertex_point_rule(
        np.mean([cell_pt[c] for c in cell_pt], axis=0),
        np.mean([face_cen[f] for f in face_cen], axis=0),
        np.mean([edge_mid[e] for e in edge_mid], axis=0),
        P[0])]
    for e in star.edges:
        rows.append(edge_point_rule(
            np.mean([cell_pt[int(c)] for c in mesh.edge_cells[e]], axis=0),
            np.mean([face_cen[int(f)] for f in mesh.edge_faces[e]], axis=0),
            edge_mid[int(e)]))
    for f in star.faces:
        c1, c2 = mesh.face_cells[f]
        rows.append(face_point_rule(cell_pt[int(c1)], cell_pt[int(c2)],
                                    face_cen[int(f)]))
    for c in star.cells:
        rows.append(cell_pt[int(c)])
    return np.array(rows)


def local_subdivision_matrix(mesh, v):
    """N x N one-step matrix of the star of simple interior vertex v,
    rows/columns ordered (vertex, edges, faces, cells); built by pushing
    indicator position vectors through one subdivision step."""
    star = vertex_star(mesh, v)
    ring = _star_ring(mesh, star)
    return _star_one_step(mesh, star, ring, np.eye(len(ring)))


@dataclass
class LimitWeights:
    """Normalized limit-point weights over a star, ordered like its vector."""
    vertex: float
    edges: np.ndarray
    faces: np.ndarray
    cells: np.ndarray

    @property
    def vector(self):
        return np.concatenate([[self.vertex], self.edges, self.faces, self.cells])


def limit_weights(star):
    """Limit weights (16(n-2), 4*m_j.., 4.., 1..) / (30(n-2) + 4*sum m_j)."""
    if not star.simple:
        raise ValueError("vertex %d is not a simple interior vertex"
                         % star.center)
    n = star.n
    den = 30.0 * (n - 2) + 4.0 * star.edge_degrees.sum()
    return LimitWeights(
        vertex=16.0 * (n - 2) / den,
        edges=4.0 * star.edge_degrees / den,
        faces=np.full(star.n_face, 4.0 / den),
        cells=np.full(star.n_cell, 1.0 / den))


def limit_point(mesh, v):
    """Limit position of vertex v under infinite subdivision.

    Simple interior vertices apply the limit weights to the level-1 star
    quantities computed locally from the subdivision rules.  Boundary
    vertices fall back to the Catmull-Clark surface limit mask
    (n_s^2 V + 4*sum edge midpoints + sum face centroids) / (n_s (n_s+5))
    over the boundary edges/faces at v.
    """
    star = vertex_star(mesh, v)
    if not star.interior:
        return _boundary_limit(mesh, v)
    ring = _star_ring(mesh, star)
    V1 = _star_one_step(mesh, star, ring, mesh.vertices[ring])
    return limit_weights(star).vector @ V1


def _boundary_limit(mesh, v):
    bedges = [e for e in mesh.vertex_edges[v] if mesh.boundary_edge_mask[e]]
    bfaces = [f for f in mesh.vertex_faces[v] if mesh.boundary_face_mask[f]]
    ns = len(bedges)
    mids = 2.0 * mesh.vertices[mesh.edges[bedges]].sum(axis=1)  # 4 * midpoint
    cents = mesh.vertices[mesh.faces[bfaces]].mean(axis=1)
    return ((ns * ns * mesh.vertices[v] + mids.sum(axis=0) + cents.sum(axis=0))
            / (ns * (ns + 5.0)))


def limit_points(mesh):
    """Limit positions of all vertices at once.

    Interior vertices must satisfy the simple-star counts (validated mesh);
    boundary vertices use the surface fallback mask.  Returns
    (points (nv,3), boundary mask (nv,)).  Agrees with limit_point up to
    rounding.
    """
    new_verts, edge_pts, face_pts, cell_pts = _level1_points(mesh)
    nv = mesh.num_vertices
    ve, vf, vc = mesh.vertex_edges, mesh.vertex_faces, mesh.vertex_cells
    e_cnt, f_cnt, c_cnt = ve.counts, vf.counts, vc.counts
    edge_deg = mesh.edge_faces.counts.astype(float)
    accE = _sum_over(ve, edge_deg[:, None] * edge_pts)
    sum_m = _sum_over(ve, edge_deg)
    accF = _sum_over(vf, face_pts)
    accC = _sum_over(vc, cell_pts)

    n = e_cnt.astype(float)
    interior = ~mesh.boundary_vertex_mask
    bad = interior & ((f_cnt != 3 * (e_cnt - 2)) | (c_cnt != 2 * (e_cnt - 2)))
    if bad.any():
        raise ValueError("interior vertices with non-simple stars: %s"
                         % np.flatnonzero(bad).tolist())

    den = 30.0 * (n - 2) + 4.0 * sum_m
    points = np.array(mesh.vertices)
    points[interior] = ((16.0 * (n - 2)[:, None] * new_verts
                         + 4.0 * accE + 4.0 * accF + accC)[interior]
                        / den[interior, None])
    # boundary: the surface mask of _boundary_limit, summed over all rows
    V = mesh.vertices
    mids4, ns = _boundary_sums(ve, mesh.boundary_edge_mask,
                               2.0 * V[mesh.edges].sum(axis=1))
    cents, _ = _boundary_sums(vf, mesh.boundary_face_mask,
                              V[mesh.faces].mean(axis=1))
    bv = mesh.boundary_vertex_mask
    nsb = ns[bv, None]
    points[bv] = (nsb * nsb * V[bv] + mids4[bv] + cents[bv]) / (nsb * (nsb + 5.0))
    return points, np.array(mesh.boundary_vertex_mask)
