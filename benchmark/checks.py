"""Correctness checks on the outputs a workload recorded.

Every check compares against a property the method must have or against
a computation made here, apart from the package; none compares against a
stored copy of earlier output.  Each returns a list of failure messages
(empty when the outputs pass), so a run reports every failed check.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

# ---------------------------------------------------------------------------
# files


def read_vtk(path):
    """Header counts and scalar cell data of a legacy ASCII VTK file.

    Returns {"points": n, "cells": m, "cells_size": k, "cell_types": m,
    "cell_data": {name: array}}.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    out = {"cell_data": {}}
    i = 0
    section = None
    while i < len(lines):
        parts = lines[i].split()
        head = parts[0] if parts else ""
        if head == "POINTS":
            out["points"] = int(parts[1])
        elif head == "CELLS":
            out["cells"], out["cells_size"] = int(parts[1]), int(parts[2])
        elif head == "CELL_TYPES":
            out["cell_types"] = int(parts[1])
        elif head in ("CELL_DATA", "POINT_DATA"):
            section = (head, int(parts[1]))
        elif head == "SCALARS" and section and section[0] == "CELL_DATA":
            n = section[1]
            vals = np.array(lines[i + 2:i + 2 + n], dtype=float)
            out["cell_data"][parts[1]] = vals
            i += 1 + n
        i += 1
    return out


def read_history(path):
    """Rows (iter, compliance, volume_fraction, killed) of history.csv and
    its header line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        it, comp, frac, killed = line.split(",")
        rows.append((int(it), float(comp), float(frac), int(killed)))
    return lines[0] if lines else "", rows


# ---------------------------------------------------------------------------
# geometry


def check_levels(levels):
    """levels: (nv, ne, nf, nc, validate_ok) per subdivision level.  Each
    step has 8x the cells and nv + ne + nf + nc vertices; validate is ok
    at every level."""
    bad = []
    for k, (nv, ne, nf, nc, ok) in enumerate(levels):
        if not ok:
            bad.append("level %d: validate reported findings" % k)
        if k:
            pnv, pne, pnf, pnc, _ = levels[k - 1]
            if nc != 8 * pnc:
                bad.append("level %d: %d cells, want 8 * %d" % (k, nc, pnc))
            if nv != pnv + pne + pnf + pnc:
                bad.append("level %d: %d vertices, want %d"
                           % (k, nv, pnv + pne + pnf + pnc))
    return bad


def _close(a, b, scale, rel=1e-9):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= rel * scale


def check_affine(original, mapped, A, b, scale):
    """original / mapped: dicts of point arrays ("fine", "limits",
    "control") computed from the input and from its affine image x -> A x
    + b.  Subdivision, limit points and the spline fit are affine-
    invariant, so each mapped array is the image of the original."""
    bad = []
    for key in ("fine", "limits", "control"):
        want = original[key] @ A.T + b
        if mapped[key].shape != want.shape or \
                not _close(mapped[key], want, scale):
            bad.append("%s do not commute with an affine map" % key)
    return bad


_REGULAR_WEIGHTS = {8: 64.0, 4: 16.0, 2: 4.0, 1: 1.0}
# how many of the 27 one-ring vertices occur 0..8 times in the 8 cells
_REGULAR_PATTERN = [0, 8, 12, 0, 6, 0, 0, 0, 1]


def regular_stencil_limits(vertices, cells):
    """Limit points at regular interior vertices from the one-ring.

    A vertex is regular interior when its incident cells form a 2x2x2
    block: 8 cells whose 27 distinct vertices occur 8 times (the vertex
    itself), 4 times (6 edge neighbours), twice (12 face diagonals) and
    once (8 cell diagonals).  The limit of tricubic B-spline subdivision
    there is the tensor product of (1, 4, 1)/6, i.e. the weights
    (64, 16, 4, 1)/216 by multiplicity.  Returns (vertex ids, points).
    """
    vertices = np.asarray(vertices, dtype=float)
    flat = cells.reshape(-1)
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(len(vertices) + 1))
    ids, pts = [], []
    for v in range(len(vertices)):
        inc = order[starts[v]:starts[v + 1]] // 8
        if len(inc) != 8:
            continue
        uniq, mult = np.unique(cells[inc].reshape(-1), return_counts=True)
        if np.bincount(mult, minlength=9).tolist() != _REGULAR_PATTERN \
                or mult[uniq == v][0] != 8:
            continue
        w = np.array([_REGULAR_WEIGHTS[m] for m in mult]) / 216.0
        ids.append(v)
        pts.append(w @ vertices[uniq])
    return np.array(ids, dtype=np.int64), np.array(pts).reshape(-1, 3)


def check_stencil(fine_vertices, fine_cells, limits, control, scale):
    """limit_points, and the spline's vertex control points, equal the
    regular stencil at every regular interior vertex."""
    ids, want = regular_stencil_limits(fine_vertices, fine_cells)
    if not len(ids):
        return ["no regular interior vertex to compare"]
    bad = []
    if not _close(limits[ids], want, scale, 1e-12):
        bad.append("limit_points differ from the regular stencil")
    if not _close(control[ids], want, scale, 1e-12):
        bad.append("vertex control points differ from the regular stencil")
    return bad


def check_regular_error(distances, regular, tol=1e-12):
    """approximation_error is exact (<= tol) on regular-interior samples."""
    if not np.any(regular):
        return ["no regular-interior samples"]
    worst = float(np.max(np.asarray(distances)[regular]))
    if worst > tol:
        return ["approximation error %.3g > %g on regular-interior samples"
                % (worst, tol)]
    return []


def check_vtk_header(header, num_patches, d):
    """A model sampled d x d x d per patch holds (d+1)^3 points and d^3
    hexahedra (9 connectivity entries each) per patch."""
    bad = []
    want_pts, want_cells = num_patches * (d + 1) ** 3, num_patches * d ** 3
    if header.get("points") != want_pts:
        bad.append("VTK has %s points, want %d"
                   % (header.get("points"), want_pts))
    if header.get("cells") != want_cells or \
            header.get("cell_types") != want_cells or \
            header.get("cells_size") != 9 * want_cells:
        bad.append("VTK has %s cells, want %d hexahedra"
                   % (header.get("cells"), want_cells))
    return bad


# ---------------------------------------------------------------------------
# BESO


def check_schedule(iterations, targets, alive, volumes, v_star, er,
                   finished):
    """Volume schedule and deletion-only updates.

    iterations / targets: per callback; alive: (n, num_elements) masks
    after each update; volumes: element volumes.  The target after
    iteration k is max(v*, (1 - er)^k) V; the retained volume sits at most
    one element below it; no element comes back; a finished run ends
    within one element of v*.
    """
    bad = []
    volumes = np.asarray(volumes, dtype=float).reshape(-1)
    total, maxvol = volumes.sum(), volumes.max()
    prev = np.ones(len(volumes), dtype=bool)
    for k, target, mask in zip(iterations, targets, alive):
        want = max(v_star, (1.0 - er) ** k) * total
        if not np.isclose(target, want, rtol=1e-12, atol=0.0):
            bad.append("iteration %d: target %.17g, schedule %.17g"
                       % (k, target, want))
        retained = volumes[mask].sum()
        if retained > target * (1.0 + 1e-12) or \
                target - retained > maxvol * (1.0 + 1e-12):
            bad.append("iteration %d: retained %.6g not within one element "
                       "below the target %.6g" % (k, retained, target))
        if (mask & ~prev).any():
            bad.append("iteration %d: %d elements revived"
                       % (k, int((mask & ~prev).sum())))
        prev = mask
    if finished and len(alive):
        frac = volumes[alive[-1]].sum() / total
        if abs(frac - v_star) > maxvol / total:
            bad.append("final fraction %.6f not within one element of %g"
                       % (frac, v_star))
    return bad


def check_monotone(compliance, rtol, stats=None):
    """Elements only lose stiffness, so compliance never decreases; allow
    the solve tolerance on each side."""
    bad = []
    if stats is not None and len(compliance) > 1:
        c = np.asarray(compliance)
        stats["min_compliance_ratio"] = float((c[1:] / c[:-1]).min())
    for k in range(1, len(compliance)):
        if compliance[k] < compliance[k - 1] * (1.0 - 2.0 * rtol):
            bad.append("compliance fell from %.9g to %.9g at callback %d"
                       % (compliance[k - 1], compliance[k], k + 1))
    return bad


def element_matvec(K_cells, dofmap, u, ndof):
    """sum_c P_c^T K_c P_c u with a plain gather / scatter."""
    ve = np.einsum("cij,cj->ci", K_cells, u[dofmap])
    out = np.zeros(ndof)
    np.add.at(out, dofmap.reshape(-1), ve.reshape(-1))
    return out


def dofmap_of(cell_nodes, dpn):
    if dpn == 1:
        return np.asarray(cell_nodes)
    return (dpn * cell_nodes[:, :, None] + np.arange(dpn)).reshape(
        len(cell_nodes), -1)


def check_final_state(K_cells, dofmap, F, fixed, u, compliance, rtol,
                      direct=False, stats=None):
    """The last history row against the fresh float64 operator of the
    design it was solved on.

    K_cells is aggregated from scratch (no increments) by the caller.  The
    run's u must satisfy K u = F on the free dofs to the run's rtol, and
    its compliance must be (1/2) u^T K u and (1/2) F^T u.  With `direct`
    the system is also solved here by a sparse LU factorization, and the
    compliance must match that solve's within 10 rtol.  `stats` receives
    the measured residual and relative compliance differences.
    """
    bad = []
    stats = {} if stats is None else stats
    ndof = len(F)
    free = np.ones(ndof, dtype=bool)
    free[fixed] = False
    u = np.asarray(u, dtype=float).reshape(-1)
    if np.any(u[fixed] != 0.0):
        bad.append("Dirichlet dofs of the solution are not zero")
    Ku = element_matvec(K_cells, dofmap, u, ndof)
    res = np.linalg.norm((F - Ku)[free]) / np.linalg.norm(F[free])
    if not res <= 1.05 * rtol:
        bad.append("relative residual %.3g on the fresh operator exceeds "
                   "rtol %g" % (res, rtol))
    energy = 0.5 * u @ Ku
    work = 0.5 * F @ u
    stats.update(residual=float(res),
                 energy_rel=float(abs(energy - compliance) / abs(compliance)),
                 work_rel=float(abs(work - compliance) / abs(compliance)))
    if not abs(energy - compliance) <= 1e-9 * abs(compliance):
        bad.append("compliance %.12g != 1/2 u^T K u = %.12g"
                   % (compliance, energy))
    if not abs(work - compliance) <= 10.0 * rtol * abs(compliance):
        bad.append("compliance %.12g != 1/2 F^T u = %.12g"
                   % (compliance, work))
    if direct:
        nd = dofmap.shape[1]
        rows = np.repeat(dofmap, nd, axis=1).reshape(-1)
        cols = np.tile(dofmap, (1, nd)).reshape(-1)
        K = sparse.csr_matrix((K_cells.reshape(-1), (rows, cols)),
                              shape=(ndof, ndof))
        idx = np.flatnonzero(free)
        x = spsolve(K[idx][:, idx].tocsc(), F[idx])
        exact = 0.5 * F[idx] @ x
        stats["direct_rel"] = float(abs(exact - compliance) / abs(exact))
        if not abs(exact - compliance) <= 10.0 * rtol * abs(exact):
            bad.append("compliance %.12g != direct solve %.12g"
                       % (compliance, exact))
    return bad


def check_history_file(header, rows, records):
    """history.csv holds the callback records, one row per iteration;
    floats are written with 17 digits, so they must match exactly."""
    if header != "iter,compliance,volume_fraction,killed_count":
        return ["history.csv header %r" % header]
    if len(rows) != len(records):
        return ["history.csv has %d rows for %d iterations"
                % (len(rows), len(records))]
    bad = []
    for row, rec in zip(rows, records):
        if tuple(row) != tuple(rec):
            bad.append("history.csv row %r != callback record %r"
                       % (row, rec))
    return bad


def check_snapshot(densities, alive, rho_min):
    """A density snapshot holds one value per element, rho_min or 1, equal
    to the design after that iteration."""
    densities = np.asarray(densities, dtype=float)
    if densities.shape != alive.shape:
        return ["snapshot has %d densities, want %d"
                % (densities.size, alive.size)]
    want = np.where(alive, 1.0, rho_min)
    if not np.array_equal(densities, want):
        return ["snapshot densities differ from the design in %d elements"
                % int((densities != want).sum())]
    return []
