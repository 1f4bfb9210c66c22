"""Spans around calls into the package's layers, recorded from outside.

`Tracer.instrument()` replaces the public functions and methods listed in
LAYER_CALLS with wrappers.  A module-level function is replaced in its
home module and in every other ccsolid module that imported it by name
(so `topopt.subdivide_mesh` and `spline.subdivide` are traced too); a
method is replaced on its class.  Each call records one span (name,
start, end, parent) in memory; `restore()` puts the originals back.

A span's self time is its duration minus the time covered by its child
spans, so `Assembly.matvec` called from a preconditioner apply counts
towards `iga.matvec_s`, not `iga.precond_apply_s`.
"""

import importlib
import os
import sys
import time

# (metric stem, module, attribute path); the stem gives the `<stem>_s`
# self-time metric
LAYER_CALLS = (
    ("hexmesh.parse", "ccsolid.hexmesh", "parse_mesh"),
    ("hexmesh.init", "ccsolid.hexmesh", "HexMesh.__init__"),
    ("hexmesh.validate", "ccsolid.hexmesh", "validate"),
    ("subdivision.subdivide", "ccsolid.subdivision", "subdivide"),
    ("subdivision.limit_points", "ccsolid.subdivision", "limit_points"),
    ("spline.build_model", "ccsolid.spline", "build_spline_model"),
    ("spline.approx_error", "ccsolid.spline", "approximation_error"),
    ("iga.assembly_init", "ccsolid.iga", "Assembly.__init__"),
    ("iga.aggregate", "ccsolid.iga", "Assembly.aggregate"),
    ("iga.add_increment", "ccsolid.iga", "Assembly.add_increment"),
    ("iga.matvec", "ccsolid.iga", "Assembly.matvec"),
    ("iga.sub_energies", "ccsolid.iga", "Assembly.sub_energies"),
    ("iga.load_vector", "ccsolid.iga", "Assembly.load_vector"),
    ("iga.solve", "ccsolid.iga", "solve_system"),
    ("iga.precond_build", "ccsolid.iga", "TwoLevelPreconditioner.__init__"),
    ("iga.precond_refresh", "ccsolid.iga", "TwoLevelPreconditioner.refresh"),
    ("iga.precond_update", "ccsolid.iga", "TwoLevelPreconditioner.update"),
    ("iga.precond_apply", "ccsolid.iga", "TwoLevelPreconditioner.__call__"),
    ("topopt.adjacency", "ccsolid.topopt", "density_adjacency"),
    ("topopt.filter_build", "ccsolid.topopt", "SensitivityFilter.__init__"),
    ("topopt.filter_apply", "ccsolid.topopt", "SensitivityFilter.apply"),
    ("topopt.beso_iterate", "ccsolid.topopt", "beso_iterate"),
    ("vtkio.sample", "ccsolid.vtkio", "sample_model"),
    ("vtkio.write", "ccsolid.vtkio", "write_vtk"),
)

COUNT_METRICS = ("subdivision.cells_out", "iga.matvecs", "iga.solves",
                 "iga.cg_iters", "iga.cg_iters_max", "topopt.killed")
DERIVED_METRICS = (("iga.matvec_gb", "GB"), ("iga.matvec_gbps", "GB/s"),
                   ("vtkio.write_mb", "MB"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    return ([(stem + "_s", "s") for stem, _, _ in LAYER_CALLS]
            + [(n, "count") for n in COUNT_METRICS] + list(DERIVED_METRICS))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []      # span name per span
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self._stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.matvec_bytes = 0
        self.written_bytes = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, stem, fn):
        tracer = self
        post = _POST.get(stem)

        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(stem)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(None)
            tracer.ends.append(None)
            tracer._stack.append(i)
            pre = post[0](tracer, args) if post else None
            tracer.starts[i] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if post:
                post[1](tracer, args, out, pre)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", stem)
        return traced

    def instrument(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "ccsolid" or n.startswith("ccsolid.")]
        for stem, modname, path in LAYER_CALLS:
            home = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(home, cls_name)
                fn = owner.__dict__[meth]
                self._saved.append((owner, meth, fn))
                setattr(owner, meth, self._wrap(stem, fn))
                continue
            fn = getattr(home, path)
            wrapped = self._wrap(stem, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self):
        """{stem: (calls, inclusive seconds, self seconds)} over closed
        spans."""
        n = len(self.names)
        dur = [(self.ends[i] - self.starts[i]) if self.ends[i] is not None
               else 0.0 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            calls, incl, self_t = out.get(self.names[i], (0, 0.0, 0.0))
            out[self.names[i]] = (calls + 1, incl + dur[i],
                                  self_t + dur[i] - child[i])
        return out

    def metrics(self):
        """Every per-layer metric as {name: {"value", "unit"}}."""
        summ = self.summary()
        vals = {}
        for stem, _, _ in LAYER_CALLS:
            vals[stem + "_s"] = summ.get(stem, (0, 0.0, 0.0))[2]
        vals.update(self.counts)
        mv_s = vals["iga.matvec_s"]
        vals["iga.matvec_gb"] = self.matvec_bytes / 1e9
        vals["iga.matvec_gbps"] = (self.matvec_bytes / 1e9 / mv_s
                                   if mv_s > 0 else 0.0)
        vals["vtkio.write_mb"] = self.written_bytes / 1e6
        return {name: {"value": vals[name], "unit": unit}
                for name, unit in per_layer_names()}

    def spans(self):
        return [{"name": self.names[i], "start": self.starts[i],
                 "end": self.ends[i], "parent": self.parents[i]}
                for i in range(len(self.names))]


# -- per-call counters: (before(tracer, args), after(tracer, args, out, pre))


def _cells_out(tracer, args, out, pre):
    tracer.counts["subdivision.cells_out"] += out[0].num_cells


def _matvec(tracer, args, out, pre):
    tracer.counts["iga.matvecs"] += 1
    tracer.matvec_bytes += args[1].nbytes          # the (nc, nd, nd) stack


def _solve(tracer, args, out, pre):
    c = tracer.counts
    c["iga.solves"] += 1
    c["iga.cg_iters"] += int(out.iterations)
    c["iga.cg_iters_max"] = max(c["iga.cg_iters_max"], int(out.iterations))


def _alive_before(tracer, args):
    return int(args[0].density.alive.sum())


def _killed(tracer, args, out, pre):
    tracer.counts["topopt.killed"] += pre - int(out.density.alive.sum())


def _written(tracer, args, out, pre):
    tracer.written_bytes += os.path.getsize(args[0])


def _none(tracer, args):
    return None


_POST = {
    "subdivision.subdivide": (_none, _cells_out),
    "iga.matvec": (_none, _matvec),
    "iga.solve": (_none, _solve),
    "topopt.beso_iterate": (_alive_before, _killed),
    "vtkio.write": (_none, _written),
}
