import numpy as np
import pytest

from ccsolid.hexmesh import CORNER_OFFSETS, HexMesh
from ccsolid.spline import (BezierVolume, approximation_error,
                            build_spline_model, evaluate, evaluate_cells,
                            fully_regular_cells, interior_bezier_point,
                            jacobian, parse_model, serialize_model)
from ccsolid.subdivision import limit_point, limit_points, subdivide

from meshes import jittered_lattice, lattice, tet_split


# ---------------------------------------------------------------- oracles

def _de_casteljau_1d(pts, t):
    pts = np.array(pts, dtype=float)
    while len(pts) > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]


def _de_casteljau_3d(net, u, v, w):
    tmp = np.array([[_de_casteljau_1d(net[a, b], w) for b in range(4)]
                    for a in range(4)])
    tmp = np.array([_de_casteljau_1d(tmp[a], v) for a in range(4)])
    return _de_casteljau_1d(tmp, u)


def _bspline_to_bezier_1d(arr, axis):
    """Cubic uniform B-spline segment -> Bezier along one axis of a
    (4,4,4,3) array."""
    p = np.moveaxis(arr, axis, 0)
    out = np.empty_like(p)
    out[0] = (p[0] + 4.0 * p[1] + p[2]) / 6.0
    out[1] = (2.0 * p[1] + p[2]) / 3.0
    out[2] = (p[1] + 2.0 * p[2]) / 3.0
    out[3] = (p[1] + 4.0 * p[2] + p[3]) / 6.0
    return np.moveaxis(out, 0, axis)


def _bspline_to_bezier(nbhd):
    out = nbhd
    for axis in range(3):
        out = _bspline_to_bezier_1d(out, axis)
    return out


# ---------------------------------------------------------- interior mask

def test_interior_mask_regular_weights():
    mesh, vid = jittered_lattice(3, 3, 3, seed=11)
    # cell whose corner 0 is the interior vertex (1,1,1)
    cell = [c for c in range(mesh.num_cells)
            if mesh.cells[c, 0] == vid[(1, 1, 1)]]
    assert len(cell) == 1
    X = mesh.vertices
    expect = (8.0 * X[vid[(1, 1, 1)]]
              + 4.0 * (X[vid[(2, 1, 1)]] + X[vid[(1, 2, 1)]] + X[vid[(1, 1, 2)]])
              + 2.0 * (X[vid[(2, 2, 1)]] + X[vid[(2, 1, 2)]] + X[vid[(1, 2, 2)]])
              + X[vid[(2, 2, 2)]]) / 27.0
    got = interior_bezier_point(mesh, cell[0], 0)
    assert np.allclose(got, expect, atol=1e-14)


def test_interior_mask_lattice_corner_example():
    # interior vertex at the origin, neighbours at 1/3 spacing
    mesh, vid = lattice(2, 2, 2, spacing=1.0 / 3,
                        origin=(-1.0 / 3, -1.0 / 3, -1.0 / 3))
    cell = [c for c in range(mesh.num_cells)
            if mesh.cells[c, 0] == vid[(1, 1, 1)]][0]
    assert np.allclose(interior_bezier_point(mesh, cell, 0),
                       [1.0 / 9] * 3, atol=1e-15)


def test_interior_mask_coincident_cell():
    verts = np.tile([2.0, -1.0, 0.5], (8, 1))
    mesh = HexMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 7]])
    for k in range(8):
        assert np.allclose(interior_bezier_point(mesh, 0, k),
                           [2.0, -1.0, 0.5], atol=1e-15)


def test_interior_mask_bad_ids():
    mesh, _ = lattice(1, 1, 1)
    with pytest.raises(ValueError):
        interior_bezier_point(mesh, 5, 0)
    with pytest.raises(ValueError):
        interior_bezier_point(mesh, 0, 8)


# ------------------------------------------------------------ model build

def test_model_size_lattice():
    mesh, _ = lattice(2, 2, 2)
    model = build_spline_model(mesh)
    assert model.num_control_points == 343  # (3*2+1)**3
    assert model.cell_nodes.shape == (8, 64)


def test_corner_points_are_limit_points():
    mesh, vid = jittered_lattice(2, 2, 2, seed=2)
    model = build_spline_model(mesh)
    v = vid[(1, 1, 1)]
    assert np.allclose(model.points[v], limit_point(mesh, v), atol=1e-14)


def test_shared_face_layers_identical():
    mesh, _ = lattice(1, 1, 2)
    model = build_spline_model(mesh)
    n0 = model.cell_nodes[0].reshape(4, 4, 4)
    n1 = model.cell_nodes[1].reshape(4, 4, 4)
    # cells stacked along z: top layer of cell 0 is bottom layer of cell 1
    assert np.array_equal(n0[:, :, 3], n1[:, :, 0])


def test_boundary_face_point_single_cell():
    mesh, _ = lattice(1, 1, 1)
    model = build_spline_model(mesh)
    nodes = model.cell_nodes[0].reshape(4, 4, 4)
    # face slot on z=0 next to corner 0 averages exactly one interior point
    assert np.allclose(model.points[nodes[1, 1, 0]],
                       interior_bezier_point(mesh, 0, 0), atol=1e-15)


def test_translation_invariance():
    mesh, _ = jittered_lattice(2, 2, 2, seed=9)
    t = np.array([3.0, -2.0, 0.25])
    moved = HexMesh(mesh.vertices + t, mesh.cells)
    a = build_spline_model(mesh)
    b = build_spline_model(moved)
    assert np.array_equal(a.cell_nodes, b.cell_nodes)
    assert np.allclose(b.points, a.points + t, atol=1e-12)


def test_bspline_conversion_on_regular_cells():
    mesh, vid = jittered_lattice(4, 4, 4, seed=4, amp=0.15)
    model = build_spline_model(mesh)
    regular = fully_regular_cells(mesh)
    assert regular.sum() == 8
    X = mesh.vertices
    for c in np.flatnonzero(regular):
        i0, j0, k0 = min((i, j, k) for i in range(5) for j in range(5)
                         for k in range(5)
                         if vid[(i, j, k)] in set(mesh.cells[c].tolist()))
        nbhd = np.array([[[X[vid[(i0 - 1 + a, j0 - 1 + b, k0 - 1 + cc)]]
                           for cc in range(4)] for b in range(4)]
                         for a in range(4)])
        net = model.points[model.cell_nodes[c]].reshape(4, 4, 4, 3)
        assert np.abs(net - _bspline_to_bezier(nbhd)).max() <= 1e-12


# ------------------------------------------------------------- evaluation

def test_evaluate_corners_and_center():
    mesh, _ = lattice(4, 4, 4)
    model = build_spline_model(mesh)
    c = int(np.flatnonzero(fully_regular_cells(mesh))[0])
    vol = model.bezier_volume(c)
    assert np.allclose(evaluate(vol, 0, 0, 0), vol.points[0, 0, 0], atol=1e-15)
    assert np.allclose(evaluate(vol, 1, 1, 1), vol.points[3, 3, 3], atol=1e-15)
    assert np.allclose(evaluate(vol, 0.5, 0.5, 0.5),
                       mesh.vertices[mesh.cells[c]].mean(axis=0), atol=1e-14)


def test_evaluate_matches_de_casteljau():
    rng = np.random.default_rng(13)
    vol = BezierVolume(rng.normal(size=(4, 4, 4, 3)))
    for _ in range(20):
        u, v, w = rng.uniform(0, 1, 3)
        assert np.allclose(evaluate(vol, u, v, w),
                           _de_casteljau_3d(vol.points, u, v, w), atol=1e-14)


def test_partition_of_unity():
    vol = BezierVolume(np.ones((4, 4, 4, 3)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        u, v, w = rng.uniform(0, 1, 3)
        assert np.allclose(evaluate(vol, u, v, w), [1, 1, 1], atol=1e-14)


def test_evaluate_rejects_out_of_range():
    vol = BezierVolume(np.zeros((4, 4, 4, 3)))
    with pytest.raises(ValueError):
        evaluate(vol, 1.5, 0, 0)
    with pytest.raises(ValueError):
        jacobian(vol, 0, -0.1, 0)


def test_jacobian_greville_identity():
    g = np.arange(4) / 3.0
    net = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    vol = BezierVolume(net)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u, v, w = rng.uniform(0, 1, 3)
        assert np.allclose(jacobian(vol, u, v, w), np.eye(3), atol=1e-13)
    vol2 = BezierVolume(2.0 * net)
    assert np.allclose(jacobian(vol2, 0.3, 0.6, 0.9), 2.0 * np.eye(3),
                       atol=1e-13)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    vol = BezierVolume(rng.normal(size=(4, 4, 4, 3)))
    h = 1e-6
    for _ in range(5):
        p = rng.uniform(0.1, 0.9, 3)
        J = jacobian(vol, *p)
        for ax in range(3):
            lo, hi = np.array(p), np.array(p)
            lo[ax] -= h
            hi[ax] += h
            fd = (evaluate(vol, *hi) - evaluate(vol, *lo)) / (2 * h)
            assert np.abs(J[:, ax] - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_evaluate_cells_matches_scalar_evaluate():
    mesh, _ = subdivide(jittered_lattice(2, 1, 1, seed=5)[0])
    model = build_spline_model(mesh)
    params = np.random.default_rng(11).uniform(0.0, 1.0, (7, 3))
    got = evaluate_cells(model.points, model.cell_nodes, params)
    assert got.shape == (model.num_cells, 7, 3)
    scale = np.abs(model.points).max()
    for c in range(model.num_cells):
        vol = model.bezier_volume(c)
        want = np.array([evaluate(vol, *p) for p in params])
        assert np.abs(got[c] - want).max() <= 1e-13 * scale


# ---------------------------------------------------------- approximation

def test_error_zero_on_regular_interior():
    mesh, _ = lattice(4, 4, 4)
    model = build_spline_model(mesh)
    stats = approximation_error(mesh, model, depth=2)
    assert stats.regular_interior.sum() > 0
    assert stats.distances[stats.regular_interior].max() <= 1e-12
    # boundary-affected samples are genuinely off the patch
    assert stats.max_distance > 1e-6


def test_error_depth0_regular_corners():
    mesh, _ = lattice(4, 4, 4)
    model = build_spline_model(mesh)
    stats = approximation_error(mesh, model, depth=0)
    assert stats.depth == 0
    assert stats.distances[stats.regular_interior].max() <= 1e-13


def test_error_matches_per_sample_evaluation():
    # reference: every fine vertex against its ancestor patch, one scalar
    # evaluate per sample, the ancestry replayed here from the provenance
    mesh, _ = tet_split()
    model = build_spline_model(mesh)
    stats = approximation_error(mesh, model, depth=2)
    fine, ancestor = mesh, np.arange(mesh.num_cells)
    origin = np.zeros((mesh.num_cells, 3), dtype=np.int64)
    for _ in range(2):
        fine, prov = subdivide(fine)
        origin = 2 * origin[prov.cell_parent] + CORNER_OFFSETS[prov.cell_octant]
        ancestor = ancestor[prov.cell_parent]
    limits, _ = limit_points(fine)
    want = np.empty(fine.num_vertices)
    for v in range(fine.num_vertices):
        c, k = np.argwhere(fine.cells == v)[0]
        u = (origin[c] + CORNER_OFFSETS[k]) / 4.0
        point = evaluate(model.bezier_volume(ancestor[c]), *u)
        want[v] = np.linalg.norm(limits[v] - point)
    assert stats.distances.shape == want.shape
    assert np.abs(stats.distances - want).max() <= 1e-13 * np.abs(limits).max()


def test_error_positive_on_extraordinary_mesh():
    mesh, _ = tet_split()
    model = build_spline_model(mesh)
    stats = approximation_error(mesh, model, depth=1)
    assert np.isfinite(stats.max_distance)
    assert stats.max_distance > 0
    assert stats.mean_distance <= stats.max_distance


def test_error_depth_guard():
    mesh, _ = lattice(2, 2, 2)
    with pytest.raises(ValueError):
        approximation_error(mesh, build_spline_model(mesh), depth=8)


# ----------------------------------------------------------- persistence

def test_model_round_trip():
    mesh, _ = jittered_lattice(2, 2, 1, seed=21)
    model = build_spline_model(mesh)
    again = parse_model(serialize_model(model))
    assert np.array_equal(model.cell_nodes, again.cell_nodes)
    assert np.array_equal(model.points, again.points)


def test_model_parse_errors():
    with pytest.raises(ValueError):
        parse_model("")
    with pytest.raises(ValueError):
        parse_model("1 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_model("1 1\n0 0 0\n" + " ".join(["0"] * 63) + "\n")


_CELL = " ".join(["0"] * 64)


@pytest.mark.parametrize("text,match", [
    ("1 x\n", r"^line 1: bad number 'x'"),
    ("-1 0\n", r"^line 1: bad number '-1'"),
    ("1 1\n0 0 x\n" + _CELL, r"^line 2: bad number 'x'"),
    ("1 1\n# c\n0 nan 0\n" + _CELL, r"^line 3: bad number 'nan'"),
    ("1 1\n0 0 0\n" + _CELL[:-1] + "x", r"^line 3: bad number 'x'"),
    ("1 1\n0 0 0\n" + _CELL[:-1] + "1", r"^line 3: .* in \[0, 1\)"),
])
def test_model_parse_errors_name_their_line(text, match):
    with pytest.raises(ValueError, match=match):
        parse_model(text)
