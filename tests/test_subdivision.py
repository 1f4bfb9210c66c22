from collections import Counter

import numpy as np
import pytest

from ccsolid.hexmesh import HexMesh, validate, vertex_star
from ccsolid.subdivision import (Provenance, _boundary_sums, _mean_over,
                                 edge_point_rule, face_point_rule,
                                 limit_point, limit_points, limit_weights,
                                 local_subdivision_matrix, subdivide,
                                 vertex_point_rule)

from meshes import icosa_split, jittered_lattice, lattice, tet_split, unit_cube, wheel


def test_rule_substitution():
    z = np.zeros(3)
    e = edge_point_rule(z, z, np.array([4.0, 0, 0]))
    assert np.allclose(e, [1, 0, 0])
    f = face_point_rule(z, z, np.array([2.0, 0, 0]))
    assert np.allclose(f, [1, 0, 0])
    v = vertex_point_rule(z, z, z, np.array([8.0, 0, 0]))
    assert np.allclose(v, [1, 0, 0])


def test_subdivide_cube():
    fine, prov = subdivide(unit_cube())
    assert fine.num_cells == 8
    assert fine.num_vertices == 27
    # cell point is appended last and sits at the centroid
    assert np.allclose(fine.vertices[26], [0.5, 0.5, 0.5])
    assert validate(fine).ok


def test_cube_boundary_is_surface_subdivision():
    fine, _ = subdivide(unit_cube())
    # corner vertex keeps its id; surface vertex rule with n_s = 3:
    # Q = (1/3,1/3,1/3), R = (1/6,1/6,1/6), V' = (Q + 2R + 0*V)/3
    assert np.allclose(fine.vertices[0], [2.0 / 9] * 3, atol=1e-15)


def test_shared_face_point():
    mesh, vid = lattice(1, 1, 2)
    fine, _ = subdivide(mesh)
    shared = sorted(vid[(i, j, 1)] for i in (0, 1) for j in (0, 1))
    fid = [f for f in range(mesh.num_faces)
           if sorted(mesh.faces[f].tolist()) == shared]
    assert len(fid) == 1
    new_id = mesh.num_vertices + mesh.num_edges + fid[0]
    assert np.allclose(fine.vertices[new_id], [0.5, 0.5, 1.0])


def test_provenance_partition():
    mesh, _ = lattice(2, 2, 2)
    fine, prov = subdivide(mesh)
    counts = Counter(prov.kind.tolist())
    assert counts[Provenance.VERTEX] == mesh.num_vertices
    assert counts[Provenance.EDGE] == mesh.num_edges
    assert counts[Provenance.FACE] == mesh.num_faces
    assert counts[Provenance.CELL] == mesh.num_cells
    assert len(prov.kind) == fine.num_vertices
    assert (prov.cell_parent == np.repeat(np.arange(8), 8)).all()
    assert set(prov.cell_octant.tolist()) == set(range(8))
    # children inherit the parent corner vertex at matching local corner
    for c in range(fine.num_cells):
        k = prov.cell_octant[c]
        assert fine.cells[c, k] == mesh.cells[prov.cell_parent[c], k]


def test_affine_invariance():
    rng = np.random.default_rng(7)
    for mesh in (jittered_lattice(2, 2, 2, seed=1)[0], tet_split()[0]):
        A = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        b = rng.normal(size=3)
        mapped = HexMesh(mesh.vertices @ A.T + b, mesh.cells)
        fine, _ = subdivide(mesh)
        fine_mapped, _ = subdivide(mapped)
        assert np.allclose(fine_mapped.vertices, fine.vertices @ A.T + b,
                           atol=1e-12)


def _regular_center():
    mesh, vid = lattice(2, 2, 2)
    return mesh, vid[(1, 1, 1)]


def test_s6_vertex_row():
    mesh, v = _regular_center()
    S = local_subdivision_matrix(mesh, v)
    assert S.shape == (27, 27)
    assert abs(S[0, 0] - 27 / 64) <= 1e-15
    assert np.abs(S[0, 1:7] - 9 / 128).max() <= 1e-15
    assert np.abs(S[0, 7:19] - 3 / 256).max() <= 1e-15
    assert np.abs(S[0, 19:] - 1 / 512).max() <= 1e-15


def _row_multiset(row):
    return Counter(np.round(row, 12).tolist())


def test_s6_row_classes():
    mesh, v = _regular_center()
    S = local_subdivision_matrix(mesh, v)
    for j in range(6):
        row = S[1 + j]
        assert abs(row[0] - 9 / 32) <= 1e-15
        assert abs(row[1 + j] - 9 / 32) <= 1e-15
        assert _row_multiset(row) == Counter({round(9 / 32, 12): 2,
                                              round(3 / 64, 12): 8,
                                              round(1 / 128, 12): 8,
                                              0.0: 9})
    for j in range(12):
        row = S[7 + j]
        assert abs(row[0] - 3 / 16) <= 1e-15
        assert _row_multiset(row) == Counter({round(3 / 16, 12): 4,
                                              round(1 / 32, 12): 8,
                                              0.0: 15})
    for j in range(8):
        row = S[19 + j]
        assert abs(row[0] - 1 / 8) <= 1e-15
        assert _row_multiset(row) == Counter({round(1 / 8, 12): 8, 0.0: 19})


def _eigen_check(S):
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-14
    ev = np.sort(np.abs(np.linalg.eigvals(S)))[::-1]
    assert abs(ev[0] - 1.0) <= 1e-12
    assert ev[1] < 1.0 - 1e-6


def test_eigen_structure_all_test_meshes():
    cases = []
    mesh, vid = lattice(2, 2, 2)
    cases.append((mesh, vid[(1, 1, 1)]))
    for build in (tet_split, icosa_split):
        m, vid = build()
        cases.append((m, vid[("c",)]))
    for mesh, v in cases:
        S = local_subdivision_matrix(mesh, v)
        _eigen_check(S)
        l = limit_weights(vertex_star(mesh, v)).vector
        assert np.abs(l @ S - l).max() <= 1e-12


def test_spectral_structure_mixed_degree_stars():
    # Mixed-degree stars still have the right spectrum; the closed-form
    # weights are exact left eigenvectors only for constant-degree stars,
    # so no eigenvector identity is asserted here.
    for k in (3, 5):
        mesh, vid = wheel(k)
        S = local_subdivision_matrix(mesh, vid[("O", 1)])
        _eigen_check(S)


def test_limit_weights_regular():
    mesh, v = _regular_center()
    w = limit_weights(vertex_star(mesh, v))
    assert abs(w.vertex - 64 / 216) <= 1e-15
    assert np.abs(w.edges - 16 / 216).max() <= 1e-15
    assert np.abs(w.faces - 4 / 216).max() <= 1e-15
    assert np.abs(w.cells - 1 / 216).max() <= 1e-15
    assert abs(w.vector.sum() - 1.0) <= 1e-14


def test_limit_weights_sum_any_star():
    for build in (lambda: wheel(3), lambda: wheel(5), tet_split, icosa_split):
        mesh, vid = build()
        key = ("O", 1) if ("O", 1) in vid else ("c",)
        w = limit_weights(vertex_star(mesh, vid[key]))
        assert abs(w.vector.sum() - 1.0) <= 1e-14


def test_limit_point_symmetric_center():
    mesh, v = _regular_center()
    assert np.allclose(limit_point(mesh, v), mesh.vertices[v], atol=1e-14)


def _power_iteration_limit(mesh, v, steps=30):
    from ccsolid.subdivision import _star_ring
    star = vertex_star(mesh, v)
    ring = _star_ring(mesh, star)
    S = local_subdivision_matrix(mesh, v)
    P = np.linalg.matrix_power(S, steps) @ mesh.vertices[ring]
    return P[0]


def test_limit_point_perturbed_center_vs_power_iteration():
    mesh, v = _regular_center()
    verts = np.array(mesh.vertices)
    verts[v] = [1.1, 1.0, 1.0]
    mesh = HexMesh(verts, mesh.cells)
    lp = limit_point(mesh, v)
    assert np.linalg.norm(lp - _power_iteration_limit(mesh, v)) <= 1e-9


def test_limit_point_vs_power_iteration_random_stars():
    rng = np.random.default_rng(42)
    base = []
    mesh, vid = lattice(2, 2, 2)
    base.append((mesh, vid[(1, 1, 1)]))
    for build in (tet_split, icosa_split):
        m, vid = build()
        base.append((m, vid[("c",)]))
    for mesh, v in base:
        for _ in range(5):
            verts = mesh.vertices + rng.uniform(-0.1, 0.1, mesh.vertices.shape)
            m2 = HexMesh(verts, mesh.cells)
            err = np.linalg.norm(limit_point(m2, v) - _power_iteration_limit(m2, v))
            assert err <= 1e-9 * np.linalg.norm(verts.max(0) - verts.min(0))


def test_limit_stationarity():
    mesh, vid = jittered_lattice(2, 2, 2, seed=3, amp=0.1)
    v = vid[(1, 1, 1)]
    fine, _ = subdivide(mesh)
    assert np.linalg.norm(limit_point(fine, v) - limit_point(mesh, v)) <= 1e-10

    tmesh, tvid = tet_split()
    v = tvid[("c",)]
    tfine, _ = subdivide(tmesh)
    assert np.linalg.norm(limit_point(tfine, v) - limit_point(tmesh, v)) <= 1e-10


def test_limit_points_batch_matches_pointwise():
    mesh, vid = jittered_lattice(2, 2, 2, seed=5)
    pts, boundary = limit_points(mesh)
    assert boundary.sum() == 26
    for v in range(mesh.num_vertices):
        assert np.allclose(pts[v], limit_point(mesh, v), atol=1e-13)


def test_boundary_limit_mask():
    # lattice corner: n_s = 3 boundary edges with midpoints summing to
    # (1/2,1/2,1/2), 3 boundary face centroids summing to (1,1,1)
    mesh, vid = lattice(2, 2, 2)
    p = limit_point(mesh, vid[(0, 0, 0)])
    expect = (4.0 * np.array([0.5, 0.5, 0.5]) + np.array([1.0, 1.0, 1.0])) / (3 * 8)
    assert np.allclose(p, expect, atol=1e-15)


def test_non_simple_star_raises():
    mesh = unit_cube()
    with pytest.raises(ValueError):
        local_subdivision_matrix(mesh, 0)


def test_subdivided_extraordinary_meshes_validate():
    for build in (tet_split, icosa_split):
        mesh, _ = build()
        fine, _ = subdivide(mesh)
        assert validate(fine).ok
        assert fine.num_cells == 8 * mesh.num_cells
        assert fine.num_vertices == (mesh.num_vertices + mesh.num_edges
                                     + mesh.num_faces + mesh.num_cells)


def _sequential_sums(rows, items, values, n):
    """Per-row sums added one pair at a time in the given order, from 0."""
    if values.ndim == 1:
        return np.bincount(rows, weights=values[items], minlength=n)
    return np.stack([np.bincount(rows, weights=values[items, k], minlength=n)
                     for k in range(values.shape[1])], axis=1)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def test_row_sums_are_sequential_bit_for_bit():
    # magnitudes from 1e-12 to 1e12 make every reordering of a row's
    # additions show in the last bits
    base, _ = wheel(5, 3)
    fine, _ = subdivide(base)
    mesh = HexMesh(np.vstack([fine.vertices, [[9.0, 9.0, 9.0]]]), fine.cells)
    counts = mesh.vertex_cells.counts
    assert counts[-1] == 0 and counts.max() >= 8      # empty and long rows
    rng = np.random.default_rng(7)
    boundary = {"edge": mesh.boundary_edge_mask, "face": mesh.boundary_face_mask,
                "cell": np.zeros(mesh.num_cells, dtype=bool)}
    for name, kind in (("edge_cells", "cell"), ("face_cells", "cell"),
                       ("edge_faces", "face"), ("vertex_edges", "edge"),
                       ("vertex_faces", "face"), ("vertex_cells", "cell")):
        inc = getattr(mesh, name)
        n_items = len(boundary[kind])
        values = (rng.standard_normal((n_items, 3))
                  * 10.0 ** rng.integers(-12, 13, (n_items, 3)))
        want = _sequential_sums(inc.rows, inc.items, values, len(inc))
        assert _same_bits(inc.sum(values), want), name
        assert _same_bits(inc.sum(values[:, 1]), want[:, 1]), name
        mean = want / np.maximum(inc.counts, 1)[:, None]
        assert _same_bits(_mean_over(inc, values), mean), name
        mask = boundary[kind] | (rng.random(n_items) < 0.3)
        sel = mask[inc.items]
        sums, counts = _boundary_sums(inc, mask, values)
        assert _same_bits(sums, _sequential_sums(inc.rows[sel], inc.items[sel],
                                                 values, len(inc))), name
        assert np.array_equal(counts, np.bincount(inc.rows[sel],
                                                  minlength=len(inc))), name
