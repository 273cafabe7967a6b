"""Benchmark for shapetensors: one workload per run, one JSON line out.

    python3 bench/run.py --workload ensemble-fit --seed 0 --seconds 15 --trace 0

Run from anywhere; the program is imported from the ``src`` directory
next to this one.  A run starts its worker processes one after another;
each pins itself to one CPU, runs BLAS and OpenMP single-threaded, sets
the workload up once and repeats its rounds for its share of
``--seconds``.  The speed of one process on the reference machine varies
by up to a third from process to process, so pooling the operations of
several processes is what keeps a run's medians steady.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(set-up time, peak resident size, round time); with ``--trace 1`` one
worker runs the whole time with spans around the calls into each module
and the line carries the per-layer metrics.  Progress and failures go to
stderr.  Exit status 2 means the program could not be imported, 1 that a
worker died.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# worker processes per untraced run; each sets the workload up once
WORKERS = {"ensemble-fit": 3, "cli-pipeline": 4, "blade-loft": 4}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_process():
    """One CPU and one BLAS/OpenMP thread; must precede importing numpy.
    Child processes inherit both."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    if not os.path.isfile(os.path.join(SRC, "shapetensors", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import shapetensors
    import shapetensors.cli  # noqa: F401  (loads every module the CLI uses)
    if not os.path.abspath(shapetensors.__file__).startswith(SRC + os.sep):
        return None
    return shapetensors


class Ops:
    """Counts, times and checks the operations of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(list)  # label -> seconds of each call

    def run(self, label, call, check):
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as err:  # a raising operation is a failed one
            self.times[label].append(time.perf_counter() - t0)
            self._fail(f"{label}: raised {err!r}")
            return
        self.times[label].append(time.perf_counter() - t0)
        self.check(label, lambda: check(out))

    def check(self, label, check):
        """Count one checked result; a failed check is a failed operation."""
        try:
            bad = check()
        except Exception as err:
            bad = [f"{label}: check raised {err!r}"]
        if bad:
            self._fail("; ".join(bad[:3]))

    def _fail(self, message):
        self.failed += 1
        if self.failed <= 20:
            print(f"FAILED {message}", file=sys.stderr)


def worker(args):
    """Set the workload up once, run rounds for args.seconds, print a JSON
    line with the raw times and counts (and the per-layer metrics)."""
    pin_process()
    program = import_program()
    sys.path.insert(0, HERE)
    import spans
    from workloads import WORKLOADS

    work = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    verified = set()
    if os.path.exists(args.verified):
        with open(args.verified) as fh:
            verified = set(json.load(fh))
    workload = WORKLOADS[args.workload](program, args.seed, work, verified)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        for name in sorted(tracer.absent):
            print(f"absent: {name} (no such function; its metrics are left out)",
                  file=sys.stderr)
    ops = Ops()
    try:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup = time.perf_counter() - t0
        ops.attempted += 1
        ops.check("set-up", workload.verify_setup)
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.phase = f"round{rounds}"
            workload.run_round(ops)
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    with open(args.verified, "w") as fh:
        json.dump(sorted(verified), fh)
    out = {"setup": setup, "rounds": rounds, "times": ops.times,
           "attempted": ops.attempted, "failed": ops.failed,
           "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.dump(os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        out["per_layer"] = spans.per_layer_metrics(tracer)
    print(json.dumps(out))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="ensemble-fit", choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--verified", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)

    cpu = pin_process()
    if not os.path.isfile(os.path.join(SRC, "shapetensors", "__init__.py")):
        print(f"error: no shapetensors package under {SRC}", file=sys.stderr)
        return 2
    count = 1 if args.trace else WORKERS[args.workload]
    os.makedirs(RUN_DIR, exist_ok=True)
    verified = os.path.join(RUN_DIR, f"verified-{os.getpid()}.json")
    results = []
    try:
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds / count), "--trace", str(args.trace),
                 "--verified", verified],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
    finally:
        if os.path.exists(verified):
            os.remove(verified)

    times = defaultdict(list)
    for r in results:
        for label, t in r["times"].items():
            times[label] += t
    rounds = sum(r["rounds"] for r in results)
    setups = [r["setup"] for r in results]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload} seed {args.seed} cpu {cpu}: {count} workers, "
          f"{rounds} rounds, {attempted} operations, {failed} failed; set-up "
          + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)
    for label, t in times.items():
        lo, hi = quartiles(t)
        print(f"  {label}: {len(t)} x median {statistics.median(t):.4f} s "
              f"(quartiles {lo:.4f}, {hi:.4f})", file=sys.stderr)
    with open(os.path.join(RUN_DIR, f"ops-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({"setup": setups, "ops": times}, fh)

    if args.trace:
        metrics = results[0]["per_layer"]
    else:
        # a round: for each kind of operation, the median time of one call
        # over every worker, times the calls per round
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_mb"] for r in results), "unit": "MB"},
            "round_s": {"value": sum(len(t) / rounds * statistics.median(t)
                                     for t in times.values()), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
