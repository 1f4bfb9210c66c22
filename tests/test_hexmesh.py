import itertools

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from ccsolid.hexmesh import (CORNER_OFFSETS, LOCAL_EDGES, LOCAL_FACES,
                             HexMesh, Incidence, lattice_ids, parse_mesh,
                             serialize_mesh, validate, vertex_star)
from ccsolid.subdivision import subdivide

from meshes import (CUBE_TEXT, icosa_split, jittered_lattice, lattice,
                    tet_split, two_cubes_sharing_edge, unit_cube, wheel)


def test_cube_counts():
    mesh = parse_mesh(CUBE_TEXT)
    assert mesh.num_vertices == 8
    assert mesh.num_cells == 1
    assert mesh.num_edges == 12
    assert mesh.num_faces == 6
    assert mesh.boundary_face_mask.all()
    assert mesh.boundary_vertex_mask.all()


def test_lattice_counts():
    mesh, vid = lattice(2, 2, 2)
    assert mesh.num_vertices == 27
    assert mesh.num_cells == 8
    assert mesh.num_edges == 54          # 3 axes * 2 * 3 * 3
    assert mesh.num_faces == 36
    assert mesh.boundary_face_mask.sum() == 24


def test_center_vertex_star():
    mesh, vid = lattice(2, 2, 2)
    star = vertex_star(mesh, vid[(1, 1, 1)])
    assert star.interior
    assert star.n == 6
    assert star.n_face == 12
    assert star.n_cell == 8
    assert (star.edge_degrees == 4).all()
    assert star.size == 27
    assert star.simple


def test_cube_corner_star():
    mesh = unit_cube()
    star = vertex_star(mesh, 0)
    assert star.n == 3
    assert not star.interior
    assert not star.simple


def test_extraordinary_edge_degree():
    mesh, vid = wheel(3)
    star = vertex_star(mesh, vid[("O", 1)])
    assert star.interior
    assert star.n == 5
    assert sorted(star.edge_degrees.tolist()) == [3, 3, 4, 4, 4]


def test_vertex_star_bad_id():
    mesh = unit_cube()
    with pytest.raises(ValueError):
        vertex_star(mesh, 99)


def test_parse_errors_carry_line_numbers():
    bad_index = "8 1\n" + "\n".join("0 0 %d" % i for i in range(8)) \
        + "\n0 1 2 3 4 5 6 99\n"
    with pytest.raises(ValueError, match="line 10"):
        parse_mesh(bad_index)

    with pytest.raises(ValueError, match="line 1"):
        parse_mesh("not a header\n")

    dup = "8 1\n" + "\n".join("0 0 %d" % i for i in range(8)) \
        + "\n0 1 2 3 4 5 6 6\n"
    with pytest.raises(ValueError, match="line 10.*duplicate"):
        parse_mesh(dup)

    with pytest.raises(ValueError, match="line 1"):
        parse_mesh("8 2\n" + "\n".join("0 0 %d" % i for i in range(8))
                   + "\n0 1 2 3 4 5 6 7\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_non_finite_coordinates(bad):
    text = "8 1\n" + "\n".join("0 %s %d" % (bad if i == 3 else "0", i)
                                for i in range(8)) + "\n0 1 2 3 4 5 6 7\n"
    with pytest.raises(ValueError, match="line 5: bad number"):
        parse_mesh(text)


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\n\n8 1  # counts\n" \
        + "\n".join("%d 0 0" % i for i in range(8)) \
        + "\n\n0 1 2 3 4 5 6 7   # the cell\n"
    mesh = parse_mesh(text)
    assert mesh.num_cells == 1


def test_round_trip_bit_exact():
    mesh, _ = lattice(2, 1, 1, spacing=1.0 / 3.0)
    verts = mesh.vertices + np.pi * 1e-7
    mesh = HexMesh(verts, mesh.cells)
    again = parse_mesh(serialize_mesh(mesh))
    assert (again.vertices == mesh.vertices).all()
    assert (again.cells == mesh.cells).all()
    third = parse_mesh(serialize_mesh(again))
    assert (third.vertices == again.vertices).all()


def test_entity_sets_independent_of_cell_order():
    mesh, _ = lattice(2, 2, 1)
    shuffled = HexMesh(mesh.vertices, mesh.cells[::-1])
    edges_a = set(map(tuple, mesh.edges.tolist()))
    edges_b = set(map(tuple, shuffled.edges.tolist()))
    assert edges_a == edges_b
    faces_a = set(map(tuple, mesh.faces.tolist()))
    faces_b = set(map(tuple, shuffled.faces.tolist()))
    assert faces_a == faces_b


def test_validate_lattice_ok():
    mesh, _ = lattice(2, 2, 2)
    report = validate(mesh)
    assert report.ok
    assert str(report) == "ok"


def test_validate_cube_vacuous():
    assert validate(unit_cube()).ok


def test_validate_edge_glued_cubes():
    report = validate(two_cubes_sharing_edge())
    assert not report.ok
    assert any("non-manifold edge" in f for f in report.findings)
    # vertex ids read as plain integers
    assert "non-manifold edge 7 (vertices (3, 7)) with 4 boundary faces" \
        in report.findings


def test_validate_extraordinary_meshes_ok():
    for mesh in (wheel(3)[0], wheel(5)[0], tet_split()[0], icosa_split()[0]):
        assert validate(mesh).ok


def test_constructor_rejects_bad_cells():
    verts = np.zeros((8, 3))
    with pytest.raises(ValueError):
        HexMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 9]])
    with pytest.raises(ValueError,
                       match="^cell 0 has duplicate vertex indices$"):
        HexMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 6]])
    mesh, _ = lattice(2, 1, 3)
    cells = mesh.cells.copy()
    cells[[1, 2], 5] = cells[[1, 2], 0]        # the first of two is named
    with pytest.raises(ValueError,
                       match="^cell 1 has duplicate vertex indices$"):
        HexMesh(mesh.vertices, cells)


def test_constructor_rejects_non_integer_cells():
    # a fractional index was once truncated to the vertex below it
    mesh, _ = lattice(2, 1, 1)
    cells = mesh.cells.astype(float)
    cells[1, 3] += 0.5
    with pytest.raises(ValueError, match="cell 1 has a non-integer vertex"):
        HexMesh(mesh.vertices, cells)
    with pytest.raises(ValueError, match="cell 0 has a non-integer vertex"):
        HexMesh(mesh.vertices, mesh.cells + 0.5)
    cells[1, 3] = np.nan
    with pytest.raises(ValueError, match="cell 1"):
        HexMesh(mesh.vertices, cells)
    whole = HexMesh(mesh.vertices, mesh.cells.astype(float))
    assert np.array_equal(whole.cells, mesh.cells)
    assert whole.cells.dtype == np.int64


def test_constructor_rejects_non_finite_vertices():
    # one NaN coordinate once spread through validate, the spline fit
    # and the analysis
    mesh, _ = lattice(3, 1, 1)
    verts = mesh.vertices.copy()
    verts[5, 1] = np.nan
    with pytest.raises(ValueError, match="vertex 5 has a non-finite"):
        HexMesh(verts, mesh.cells)
    verts[5, 1] = -np.inf
    with pytest.raises(ValueError, match="vertex 5"):
        HexMesh(verts, mesh.cells)


def test_tet_split_star():
    mesh, vid = tet_split()
    star = vertex_star(mesh, vid[("c",)])
    assert star.interior and star.simple
    assert star.n == 4
    assert (star.edge_degrees == 3).all()


def test_icosa_split_star():
    mesh, vid = icosa_split()
    star = vertex_star(mesh, vid[("c",)])
    assert star.interior and star.simple
    assert star.n == 12
    assert (star.edge_degrees == 5).all()


def _brute_incidences(mesh):
    """The six incidence relations from `cells` alone, with Python sets;
    entity ids are looked up in mesh.edges / mesh.faces."""
    cell_edges = [{frozenset((c[i], c[j])) for i, j in LOCAL_EDGES}
                  for c in mesh.cells.tolist()]
    cell_faces = {}    # vertex set of a face -> its edges, per cell
    for ci, c in enumerate(mesh.cells.tolist()):
        for lf in LOCAL_FACES:
            key = frozenset(c[k] for k in lf)
            cell_faces[ci, key] = {frozenset((c[i], c[j])) for i, j in LOCAL_EDGES
                                   if i in lf and j in lf}
    edges = {frozenset(e) for es in cell_edges for e in es}
    faces = {key for _, key in cell_faces}
    assert edges == {frozenset(e) for e in mesh.edges.tolist()}
    assert faces == {frozenset(f) for f in mesh.faces.tolist()}
    eid = {frozenset(e): i for i, e in enumerate(mesh.edges.tolist())}
    fid = {frozenset(f): i for i, f in enumerate(mesh.faces.tolist())}
    face_edges = {key: es for (_, key), es in cell_faces.items()}

    rel = {name: [set() for _ in range(n)] for name, n in (
        ("edge_cells", len(edges)), ("face_cells", len(faces)),
        ("edge_faces", len(edges)), ("vertex_edges", mesh.num_vertices),
        ("vertex_faces", mesh.num_vertices),
        ("vertex_cells", mesh.num_vertices))}
    for ci, es in enumerate(cell_edges):
        for e in es:
            rel["edge_cells"][eid[e]].add(ci)
    for ci, key in cell_faces:
        rel["face_cells"][fid[key]].add(ci)
    for key, es in face_edges.items():
        for e in es:
            rel["edge_faces"][eid[e]].add(fid[key])
    for e, i in eid.items():
        for v in e:
            rel["vertex_edges"][v].add(i)
    for f, i in fid.items():
        for v in f:
            rel["vertex_faces"][v].add(i)
    for ci, c in enumerate(mesh.cells.tolist()):
        for v in c:
            rel["vertex_cells"][v].add(ci)
    return {name: [sorted(r) for r in rows] for name, rows in rel.items()}


@pytest.mark.parametrize("build", [
    lambda: lattice(2, 2, 2)[0], lambda: tet_split()[0],
    lambda: icosa_split()[0], two_cubes_sharing_edge],
    ids=["lattice", "tet_split", "icosa_split", "two_cubes_sharing_edge"])
def test_incidences_match_brute_force(build):
    mesh = build()
    for name, expect in _brute_incidences(mesh).items():
        inc = getattr(mesh, name)
        assert len(inc) == len(expect), name
        assert inc.counts.tolist() == [len(r) for r in expect], name
        for i, row in enumerate(expect):
            assert inc[i].dtype == np.int64
            assert inc[i].tolist() == row, (name, i)
        pairs = [(i, j) for i, row in enumerate(expect) for j in row]
        assert list(zip(inc.rows.tolist(), inc.items.tolist())) == pairs, name
        assert inc[-1].tolist() == expect[-1]
        with pytest.raises(IndexError):
            inc[len(expect)]


def _reference_incidence(rows, items, nrows):
    """(rows, items, counts) grouped by a stable sort on the row."""
    order = np.argsort(rows, kind="stable")
    return rows[order], items[order], np.bincount(rows, minlength=nrows)


def _reference_derived(vertices, cells):
    """Entity numbering and adjacency as np.unique(axis=0), searchsorted
    and stable argsort give them: the reference HexMesh must match."""
    nc, nv = len(cells), len(vertices)
    pairs = np.sort(cells[:, LOCAL_EDGES], axis=2).reshape(-1, 2)
    edge_keys, einv = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                                return_inverse=True)
    quads = cells[:, LOCAL_FACES]
    keys = np.sort(quads, axis=2).reshape(-1, 4)
    faces, first, finv = np.unique(keys, axis=0, return_index=True,
                                   return_inverse=True)
    cycles = quads.reshape(-1, 4)[first]
    nxt = np.roll(cycles, -1, axis=1)
    ref = dict(edges=np.stack(np.divmod(edge_keys, nv), axis=1),
               faces=faces, face_cycles=cycles,
               cell_edges=einv.reshape(nc, 12),
               cell_faces=finv.reshape(nc, 6),
               face_edges=np.searchsorted(
                   edge_keys, np.minimum(cycles, nxt) * nv
                   + np.maximum(cycles, nxt)))
    ne, nf = len(ref["edges"]), len(faces)
    for name, table, nrows in (
            ("edge_cells", ref["cell_edges"], ne),
            ("face_cells", ref["cell_faces"], nf),
            ("edge_faces", ref["face_edges"], ne),
            ("vertex_edges", ref["edges"], nv),
            ("vertex_faces", faces, nv),
            ("vertex_cells", cells, nv)):
        m, k = table.shape
        ref[name] = _reference_incidence(table.reshape(-1),
                                         np.repeat(np.arange(m), k), nrows)
    ref["boundary_face_mask"] = ref["face_cells"][2] == 1
    bf = np.flatnonzero(ref["boundary_face_mask"])
    ref["boundary_edge_mask"] = np.isin(np.arange(ne), ref["face_edges"][bf])
    ref["boundary_vertex_mask"] = np.isin(np.arange(nv), faces[bf])
    return ref


def _level3(build):
    mesh = build()[0]
    for _ in range(3):
        mesh, _ = subdivide(mesh)
    return mesh


def _with_loose_vertex():
    mesh, _ = lattice(2, 1, 1)
    return HexMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), mesh.cells)


def _repeated_cell():
    mesh, _ = lattice(2, 1, 1)      # the shared face gets three cells
    return HexMesh(mesh.vertices, mesh.cells[[0, 1, 0]])


@pytest.mark.parametrize("build", [
    lambda: _level3(lambda: wheel(5, 3)), lambda: _level3(tet_split),
    lambda: _level3(lambda: lattice(3, 2, 2)),
    lambda: HexMesh(np.zeros((4, 3)), np.zeros((0, 8), dtype=np.int64)),
    _with_loose_vertex, _repeated_cell, two_cubes_sharing_edge],
    ids=["wheel_level3", "tet_split_level3", "lattice_level3", "no_cells",
         "loose_vertex", "repeated_cell", "two_cubes_sharing_edge"])
def test_entity_numbering_matches_reference(build):
    _assert_matches_reference(build())


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_face_keys_sort_every_vertex_order(order):
    # relabel the 4 vertices of the face two cubes share, so its corner
    # cycle lists their ids in each of the 24 relative orders; every
    # comparator of the face sorting network is needed by one of them
    mesh, _ = lattice(2, 1, 1)
    shared = np.intersect1d(mesh.cells[0], mesh.cells[1])
    ids = np.arange(mesh.num_vertices)
    ids[shared] = shared[list(order)]
    _assert_matches_reference(HexMesh(mesh.vertices, ids[mesh.cells]))


_TABLES = ("edges", "faces", "face_cycles", "cell_edges", "cell_faces",
           "face_edges")
_INCIDENCES = ("edge_cells", "face_cells", "edge_faces", "vertex_edges",
               "vertex_faces", "vertex_cells")
_MASKS = ("boundary_face_mask", "boundary_edge_mask", "boundary_vertex_mask")


def _fields(mesh):
    """The tables, incidences (rows, items, counts) and boundary masks of
    `mesh`, as the arrays it holds."""
    out = {name: getattr(mesh, name) for name in _TABLES + _MASKS}
    for name in _INCIDENCES:
        inc = getattr(mesh, name)
        out[name] = (inc.rows, inc.items, inc.counts)
    return out


def _assert_matches_reference(mesh, ref=None):
    """Every field of `mesh` equals, in dtype, shape and value, that of
    `ref` (the _fields of another mesh), by default the independent
    _reference_derived of the mesh's cells."""
    if ref is None:
        ref = _reference_derived(mesh.vertices, mesh.cells)
    got = _fields(mesh)
    for name in _TABLES + _MASKS:
        want = np.asarray(ref[name])
        assert got[name].dtype == (bool if name in _MASKS else np.int64), name
        assert got[name].shape == want.shape, name
        assert np.array_equal(got[name], want), name
    for name in _INCIDENCES:
        for attr, a, want in zip(("rows", "items", "counts"), got[name],
                                 ref[name]):
            assert a.dtype == np.int64, (name, attr)
            assert np.array_equal(a, want), (name, attr)
        offsets = getattr(mesh, name)._offsets
        assert offsets[0] == 0, name
        assert np.array_equal(offsets[1:], np.cumsum(got[name][2])), name


_SPECIAL = [
    lambda: HexMesh(np.zeros((4, 3)), np.zeros((0, 8), dtype=np.int64)),
    _with_loose_vertex, _repeated_cell, two_cubes_sharing_edge]
_SPECIAL_IDS = ["no_cells", "loose_vertex", "repeated_cell",
                "two_cubes_sharing_edge"]


@pytest.mark.parametrize("build, levels", [
    (lambda: wheel(5, 3)[0], 3), (lambda: tet_split()[0], 3),
    (lambda: icosa_split()[0], 3), (lambda: lattice(3, 2, 2)[0], 3)]
    + [(b, 2) for b in _SPECIAL],
    ids=["wheel", "tet_split", "icosa_split", "lattice"] + _SPECIAL_IDS)
def test_subdivide_derives_the_tables_a_fresh_build_gives(build, levels):
    # subdivide numbers the child from the parent's tables; at every level
    # each field must be what HexMesh derives from the child's cells alone
    mesh = build()
    for _ in range(levels):
        mesh, _ = subdivide(mesh)
        _assert_matches_reference(
            mesh, _fields(HexMesh(mesh.vertices, mesh.cells)))
    _assert_matches_reference(mesh)


def _arrays(mesh):
    """Every array `mesh` holds, by name, those of its incidences too."""
    out = {}
    for name, value in vars(mesh).items():
        if isinstance(value, Incidence):
            out.update((name + "." + a, v) for a, v in vars(value).items())
        else:
            out[name] = value
    return out


@pytest.mark.parametrize("build", [lambda: tet_split()[0]] + _SPECIAL,
                         ids=["tet_split"] + _SPECIAL_IDS)
def test_subdivided_arrays_are_read_only_as_built(build):
    child, _ = subdivide(build())
    got = _arrays(child)
    want = _arrays(HexMesh(child.vertices, child.cells))
    assert got.keys() == want.keys()
    for name, a in got.items():
        assert a.flags.writeable == want[name].flags.writeable, name
    frozen = ["vertices", "cells", "edges", "faces", "face_cycles",
              "cell_edges", "cell_faces"]
    frozen += [n for n in got if "." in n]
    assert len(frozen) == 7 + 6 * 4
    for name in frozen:
        assert not got[name].flags.writeable, name


def test_incidence_sorts_pairs_in_any_order():
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 50, 400)
    items = rng.permutation(400) % 97
    inc = Incidence(rows, items, 60)
    want = sorted(zip(rows.tolist(), items.tolist()))
    assert list(zip(inc.rows.tolist(), inc.items.tolist())) == want
    assert np.array_equal(inc.counts, np.bincount(rows, minlength=60))
    assert inc[55].size == 0
    empty = Incidence(np.zeros(0, np.int64), np.zeros(0, np.int64), 3)
    assert empty.counts.tolist() == [0, 0, 0] and empty.items.size == 0


def _assert_groups(inc, pairs, nrows):
    """`inc` holds the (row, item) `pairs` in `nrows` rows, as plain
    Python's sorted() orders them."""
    want = sorted(pairs)
    assert list(zip(inc.rows.tolist(), inc.items.tolist())) == want
    rows = [[i for r, i in want if r == row] for row in range(nrows)]
    assert [inc[row].tolist() for row in range(nrows)] == rows
    assert inc.counts.tolist() == [len(r) for r in rows]
    assert inc._offsets.tolist() == [0] + np.cumsum(inc.counts).tolist()
    for a in (inc.rows, inc.items, inc.counts, inc._offsets):
        assert a.dtype == np.int64 and not a.flags.writeable


@pytest.mark.parametrize("top", [63, 64])
def test_incidence_key_holds_the_largest_item(top):
    # a pair is packed as row * 2**b + item: 2**b must exceed the largest
    # item, 2**6 - 1 or 2**6 here, or the item's top bit spills into the
    # row; the pairs are unsorted, some repeated, rows 1, 3, 5 and 6 empty
    rows = np.array([4, 0, 2, 0, 4, 2, 0, 4, 2])
    items = np.array([top, 1, top, top, 0, 5, 1, top, 0])
    _assert_groups(Incidence(rows, items, 7),
                   list(zip(rows.tolist(), items.tolist())), 7)
    _assert_groups(Incidence(rows[:0], items[:0], 2), [], 2)


@pytest.mark.parametrize("m", [64, 65])
def test_incidence_inverse_packs_the_table_row(m):
    # inverse packs every slot with its table row, the largest of which
    # is m - 1 = 63 or 64; it must group what the flat pairs give
    rng = np.random.default_rng(m)
    table = rng.integers(0, 80, (m, 3))
    inc = Incidence.inverse(table, 85)   # ids 80 to 84 list no row
    flat = Incidence(table.ravel(), np.arange(m).repeat(3), 85)
    for a in ("rows", "items", "counts", "_offsets"):
        assert np.array_equal(getattr(inc, a), getattr(flat, a)), a
    _assert_groups(inc, [(int(v), i) for i, row in enumerate(table)
                         for v in row], 85)
    _assert_groups(Incidence.inverse(table[:0], 4), [], 4)


def _trilinear(mesh, u):
    """Trilinear image of every cell's corners at the (p, 3) parameters
    `u`, shape (nc, p, 3)."""
    w = np.where(CORNER_OFFSETS == 1, u[:, None], 1 - u[:, None]).prod(axis=2)
    return np.einsum("pk,ckd->cpd", w, mesh.vertices[mesh.cells])


def _layout_points(mesh, n):
    """The point of every lattice id, built from the documented layout:
    the vertices, then the slots of every edge, face and cell.  At n = 3
    an entity's one slot is its centre.  At n = 4 slot r of an edge or a
    face lies a third of the way in from its r-th lowest vertex id, and
    slot r of a cell a third of the way in from its local corner r."""
    X = mesh.vertices
    if n == 3:
        return np.vstack([X] + [X[a].mean(axis=1)
                                for a in (mesh.edges, mesh.faces, mesh.cells)])
    E, F = X[mesh.edges], X[mesh.faces]
    edge = (E.sum(axis=1, keepdims=True) + E) / 3
    # bilinear weights 4/9 at the vertex, 2/9 at its cycle neighbours and
    # 1/9 at the diagonal vertex
    at = np.argmax(mesh.face_cycles[:, None, :] == mesh.faces[:, :, None],
                   axis=2)
    diag = X[np.take_along_axis(mesh.face_cycles, (at + 2) % 4, axis=1)]
    face = (2 * F.sum(axis=1, keepdims=True) + 2 * F - diag) / 9
    cell = _trilinear(mesh, (1 + CORNER_OFFSETS) / 3)
    return np.vstack([X] + [b.reshape(-1, 3) for b in (edge, face, cell)])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("build", [lambda: jittered_lattice(3, 2, 2)[0],
                                   lambda: wheel(5)[0],
                                   lambda: tet_split()[0]],
                         ids=["jittered_lattice", "wheel", "tet_split"])
def test_lattice_ids_follow_documented_layout(build, n):
    mesh = build()
    ids, near = lattice_ids(mesh, n)
    s = n - 2
    total = (mesh.num_vertices + s * mesh.num_edges
             + s * s * mesh.num_faces + s ** 3 * mesh.num_cells)
    assert ids.shape == (mesh.num_cells, n ** 3)
    assert np.array_equal(np.unique(ids), np.arange(total))
    u = np.indices((n,) * 3).reshape(3, -1).T / (n - 1)
    image = _trilinear(mesh, u)
    # every (cell, node) pair holding an id maps to one point
    shared = np.empty((total, 3))
    shared[ids] = image
    assert np.abs(image - shared[ids]).max() <= 1e-12
    # the point the layout gives that id, and distinct ids part
    layout = _layout_points(mesh, n)
    assert np.abs(image - layout[ids]).max() <= 1e-12
    assert pdist(layout).min() > 1e-3
    dist = np.linalg.norm(u[:, None] - CORNER_OFFSETS, axis=2)
    assert np.array_equal(dist[np.arange(n ** 3), near], dist.min(axis=1))


@pytest.mark.parametrize("n", [2, 5])
def test_lattice_ids_rejects_other_sizes(n):
    with pytest.raises(ValueError, match="lattice size must be 3 or 4"):
        lattice_ids(unit_cube(), n)
