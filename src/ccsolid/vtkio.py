"""Legacy ASCII VTK (DataFile version 3.0) output.

Everything is written as an UNSTRUCTURED_GRID: hexahedra (cell type 12)
for meshes and sampled spline models, vertices (cell type 1) for point
clouds such as limit-point exports.  Floats carry 17 significant digits
so a write/read cycle is lossless for doubles.
"""

import numpy as np

VTK_HEXAHEDRON = 12
VTK_VERTEX = 1


def _rows(fmt, values):
    """The rows of `values` as newline-separated text, formatted by a single
    %-operation over the flattened array; [] for an empty array, so an
    empty section adds no line."""
    values = np.asarray(values)
    if not len(values):
        return []
    return ["\n".join([fmt] * len(values)) % tuple(values.ravel().tolist())]


def _data_section(lines, data, n, kind):
    lines.append("%s %d" % (kind, n))
    for name, values in data.items():
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            if values.shape != (n,):
                raise ValueError("field %r has %d values, expected %d"
                                 % (name, values.shape[0], n))
            lines.append("SCALARS %s double 1" % name)
            lines.append("LOOKUP_TABLE default")
            lines.extend(_rows("%.17g", values))
        elif values.shape == (n, 3):
            lines.append("VECTORS %s double" % name)
            lines.extend(_rows("%.17g %.17g %.17g", values))
        else:
            raise ValueError("field %r must be (%d,) or (%d, 3), got %s"
                             % (name, n, n, values.shape))


def write_vtk(path, points, cells, cell_type=VTK_HEXAHEDRON,
              cell_data=None, point_data=None, title="ccsolid output"):
    """Write an ASCII unstructured grid.

    points: (n, 3); cells: (m, k) integer connectivity, every cell of the
    same `cell_type`; cell_data / point_data: dicts of scalar (n,) or
    vector (n, 3) arrays.
    """
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=int)
    if cells.ndim == 1:
        cells = cells[:, None]
    m, k = cells.shape
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             "POINTS %d double" % len(points)]
    lines.extend(_rows("%.17g %.17g %.17g", points))
    lines.append("CELLS %d %d" % (m, m * (k + 1)))
    lines.extend(_rows(" ".join(["%d"] * (k + 1)),
                       np.column_stack([np.full(m, k), cells])))
    lines.append("CELL_TYPES %d" % m)
    lines.extend([str(int(cell_type))] * m)
    if cell_data:
        _data_section(lines, cell_data, m, "CELL_DATA")
    if point_data:
        _data_section(lines, point_data, len(points), "POINT_DATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_model(model, d):
    """Sample every patch of a spline model on a d x d x d grid of
    sub-hexahedra.

    Returns (points, hexes): points are per-cell blocks of (d+1)^3
    evaluations (faces between cells are duplicated, which viewers accept),
    hexes is (num_cells * d^3, 8) with sub-cells ordered cell-major and
    row-major in (i, j, k) within a cell -- the same flat order used for
    per-element density values.
    """
    d = int(d)
    if d < 1:
        raise ValueError("sample density must be >= 1")
    npts = (d + 1) ** 3

    def pid(i, j, k):
        return (i * (d + 1) + j) * (d + 1) + k

    ii, jj, kk = np.meshgrid(np.arange(d), np.arange(d), np.arange(d),
                             indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    local = np.column_stack([
        pid(ii, jj, kk), pid(ii + 1, jj, kk),
        pid(ii + 1, jj + 1, kk), pid(ii, jj + 1, kk),
        pid(ii, jj, kk + 1), pid(ii + 1, jj, kk + 1),
        pid(ii + 1, jj + 1, kk + 1), pid(ii, jj + 1, kk + 1)])
    offsets = npts * np.arange(model.num_cells)
    hexes = (local + offsets[:, None, None]).reshape(-1, 8)
    return sample_field(model, model.points, d), hexes


def sample_field(model, values, d):
    """Evaluate a control-point field on the grid used by sample_model.

    values: (num_control_points, m) coefficients in the spline basis;
    returns (num_cells * (d+1)^3, m) values aligned with the sampled
    points.
    """
    from .spline import _evaluate_batch

    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    m = values.shape[1]
    g = np.arange(d + 1) / d
    uu, vv, ww = np.meshgrid(g, g, g, indexing="ij")
    params = np.column_stack([uu.ravel(), vv.ravel(), ww.ravel()])
    npts = (d + 1) ** 3
    out = np.empty((model.num_cells * npts, m))
    for c in range(model.num_cells):
        net = values[model.cell_nodes[c]].reshape(4, 4, 4, m)
        out[c * npts:(c + 1) * npts] = _evaluate_batch(net, params)
    return out


def write_mesh_vtk(path, mesh, cell_data=None, point_data=None,
                   title="hexahedral mesh"):
    write_vtk(path, mesh.vertices, mesh.cells, VTK_HEXAHEDRON,
              cell_data=cell_data, point_data=point_data, title=title)


def write_point_cloud(path, points, point_data=None, title="point cloud"):
    cells = np.arange(len(points), dtype=int)[:, None]
    write_vtk(path, points, cells, VTK_VERTEX,
              point_data=point_data, title=title)
