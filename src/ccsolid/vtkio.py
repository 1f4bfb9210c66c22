"""Legacy ASCII VTK (DataFile version 3.0) output.

Everything is written as an UNSTRUCTURED_GRID: hexahedra (cell type 12)
for meshes and sampled spline models, vertices (cell type 1) for point
clouds such as limit-point exports.  Floats carry 17 significant digits
so a write/read cycle is lossless for doubles.
"""

import numpy as np

from .hexmesh import CORNER_OFFSETS, float_rows
from .spline import evaluate_cells, parameter_grid

VTK_HEXAHEDRON = 12
VTK_VERTEX = 1


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
        elif values.shape == (n, 3):
            lines.append("VECTORS %s double" % name)
        else:
            raise ValueError("field %r must be (%d,) or (%d, 3), got %s"
                             % (name, n, n, values.shape))
        lines.extend(float_rows(values))


class VtkGrid:
    """The points, cells and cell types of an unstructured grid as text,
    formatted once for every file write_vtk writes on the grid.

    points: (n, 3); cells: (m, k) integer connectivity, every cell of the
    same `cell_type`.
    """

    def __init__(self, points, cells, cell_type=VTK_HEXAHEDRON):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array, got %s"
                             % (points.shape,))
        cells = np.asarray(cells, dtype=int)
        if cells.ndim == 1:
            cells = cells[:, None]
        m, k = cells.shape
        self.num_points, self.num_cells = len(points), m
        lines = ["POINTS %d double" % len(points)]
        lines.extend(float_rows(points))
        lines.append("CELLS %d %d" % (m, m * (k + 1)))
        if m:
            lines.append("\n".join([" ".join(["%d"] * (k + 1))] * m)
                         % tuple(np.column_stack([np.full(m, k), cells])
                                 .ravel().tolist()))
        lines.append("CELL_TYPES %d" % m)
        lines.extend([str(int(cell_type))] * m)
        self.text = "\n".join(lines)


def write_vtk(path, points, cells=None, cell_type=VTK_HEXAHEDRON,
              cell_data=None, point_data=None, title="ccsolid output"):
    """Write an ASCII unstructured grid.

    points: (n, 3); cells: (m, k) integer connectivity, every cell of the
    same `cell_type`; cell_data / point_data: dicts of scalar (n,) or
    vector (n, 3) arrays.  `points` may instead be a VtkGrid, given
    without cells, so that files on one grid format it once.
    """
    if isinstance(points, VtkGrid):
        if cells is not None:
            raise ValueError("a VtkGrid carries its own cells")
        grid = points
    else:
        grid = VtkGrid(points, cells, cell_type)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", grid.text]
    if cell_data:
        _data_section(lines, cell_data, grid.num_cells, "CELL_DATA")
    if point_data:
        _data_section(lines, point_data, grid.num_points, "POINT_DATA")
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
    # grid (i, j, k) of every corner of every sub-hexahedron, VTK order
    i, j, k = np.indices((d, d, d)).reshape(3, -1, 1) + CORNER_OFFSETS.T[:, None]
    local = (i * (d + 1) + j) * (d + 1) + k
    offsets = (d + 1) ** 3 * np.arange(model.num_cells)
    hexes = (local + offsets[:, None, None]).reshape(-1, 8)
    return sample_field(model, model.points, d), hexes


def sample_field(model, values, d):
    """Evaluate a control-point field on the grid used by sample_model.

    values: (num_control_points, m) coefficients in the spline basis;
    returns (num_cells * (d+1)^3, m) values aligned with the sampled
    points.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    params = parameter_grid(np.arange(d + 1) / d)
    return evaluate_cells(values, model.cell_nodes, params).reshape(
        -1, values.shape[1])


def write_point_cloud(path, points, point_data=None, title="point cloud"):
    cells = np.arange(len(points), dtype=int)[:, None]
    write_vtk(path, points, cells, VTK_VERTEX,
              point_data=point_data, title=title)
