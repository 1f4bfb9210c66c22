"""Benchmark of the ccsolid pipeline; see README.md.

    python3 benchmark/run.py [--trace 0|1] [--seed N] [--seconds S]
        runs every workload, each in its own process, one after another,
        prints each one's metrics and exits non-zero if any check failed;
        with --trace 1 each workload also runs traced, and the tracing
        overhead is printed.
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace T
        runs one workload in this process; the last line of standard
        output is the result as JSON.

Results go to benchmark_out/results, span dumps to benchmark_out/traces;
scratch output is written under benchmark_out/work and removed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "benchmark_out")
WORKLOADS = ("geometry", "beso_cantilever", "beso_multires_heat")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap the BLAS pool at the cores this process may use; must run before
    numpy is imported.  Returns the setting."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            want = min(int(os.environ.get(var, ncpu)), ncpu)
        except ValueError:
            want = ncpu
        os.environ[var] = str(max(want, 1))
    return {var: os.environ[var] for var in BLAS_VARS}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import ccsolid from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import ccsolid
    except ImportError as exc:
        sys.exit("benchmark: cannot import ccsolid from %s: %s" % (SRC, exc))
    where = os.path.dirname(os.path.abspath(ccsolid.__file__))
    if os.path.dirname(where) != SRC:
        sys.exit("benchmark: imported ccsolid from %s, not %s" % (where, SRC))


def run_one(args, blas):
    import_package()
    import tracing
    import workloads

    work = os.path.join(OUT, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.instrument()
        try:
            run = workloads.run_workload(args.workload, args.seed,
                                         args.seconds, work,
                                         traced=bool(args.trace))
        finally:
            if tracer:
                tracer.restore()
        run.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        metrics = tracer.metrics()
    else:
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in workloads.end_to_end(run).items()}
    op_median = statistics.median(run.op_s) if run.op_s else None
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    detail = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, blas_threads=blas,
                  attempted=run.attempted, failed=run.failed,
                  errors=run.errors, failures=run.failures, metrics=metrics,
                  setup_samples=run.setup_s, op_samples=run.op_s,
                  cal_samples=run.cal_s,
                  op_median_s=op_median, **run.info)
    if tracer:
        detail["layers"] = {k: dict(calls=c, inclusive_s=i, self_s=s)
                            for k, (c, i, s) in tracer.summary().items()}
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with open(os.path.join(OUT, "traces", tag + ".json"), "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=float)

    print("workload %s seed %d trace %d: BLAS threads %s"
          % (args.workload, args.seed, args.trace,
             blas["OPENBLAS_NUM_THREADS"]))
    if tracer:
        print("%-28s %7s %11s %11s" % ("span", "calls", "inclusive s",
                                       "self s"))
        for k, v in sorted(detail["layers"].items()):
            print("%-28s %7d %11.4f %11.4f" % (k, v["calls"],
                                               v["inclusive_s"],
                                               v["self_s"]))
    for name, m in metrics.items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    if op_median is not None:
        print("  operations: %d attempted, %d failed; median operation "
              "%.4f s over %d samples" % (run.attempted, run.failed,
                                          op_median, len(run.op_s)))
    if "speed_factor" in run.info:
        print("  speed factor %.4f over %d calibration chunks"
              % (run.info["speed_factor"], run.info["cal_chunks"]))
    for e in run.errors:
        print("OPERATION FAILED: %s" % e)
    for f in run.failures:
        print("CHECK FAILED: %s" % f)
    correct = not run.failures
    print(json.dumps({"correct": bool(correct), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_child(args, workload, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write(done.stdout)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def run_all(args):
    status = 0
    for workload in WORKLOADS:
        code, plain = run_child(args, workload, 0)
        status |= code != 0
        if args.trace:
            tcode, _ = run_child(args, workload, 1)
            status |= tcode != 0
            tag = "%s-seed%d-trace%%d.json" % (workload, args.seed)
            res = os.path.join(OUT, "results", tag)
            try:
                with open(res % 0) as fh:
                    base = json.load(fh)["op_median_s"]
                with open(res % 1) as fh:
                    traced = json.load(fh)["op_median_s"]
                print("tracing overhead on %s: median operation %.4f s "
                      "traced, %.4f s untraced (%+.1f%%)"
                      % (workload, traced, base,
                         100.0 * (traced - base) / base))
            except (OSError, KeyError, TypeError, ZeroDivisionError):
                print("tracing overhead on %s: not available" % workload)
        if plain is None:
            print("%s: no result" % workload)
        print()
    print("all checks passed" if not status else "SOME CHECKS FAILED")
    return int(status)


def main(argv=None):
    args = parse_args(argv)
    blas = cap_blas_threads()
    if args.workload is None:
        return run_all(args)
    return run_one(args, blas)


if __name__ == "__main__":
    sys.exit(main())
