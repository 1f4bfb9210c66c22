import numpy as np
import pytest

from ccsolid.hexmesh import (LOCAL_EDGES, LOCAL_FACES, HexMesh, parse_mesh,
                             serialize_mesh, validate, vertex_star)

from meshes import (CUBE_TEXT, icosa_split, lattice, tet_split,
                    two_cubes_sharing_edge, unit_cube, wheel)


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


def test_validate_extraordinary_meshes_ok():
    for mesh in (wheel(3)[0], wheel(5)[0], tet_split()[0], icosa_split()[0]):
        assert validate(mesh).ok


def test_constructor_rejects_bad_cells():
    verts = np.zeros((8, 3))
    with pytest.raises(ValueError):
        HexMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 9]])
    with pytest.raises(ValueError):
        HexMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 6]])


def test_edge_index_lookup():
    mesh = unit_cube()
    e = mesh.edge_index(0, 1)
    assert e >= 0
    assert sorted(mesh.edges[e].tolist()) == [0, 1]
    assert mesh.edge_index(0, 6) == -1       # cell diagonal is not an edge


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
