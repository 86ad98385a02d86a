"""Benchmark of gradba: one workload per process, one result line of JSON.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

Run from the root of a gradba checkout; gradba is imported from ``src/``
there. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with spans around gradba's layers and prints the per-layer
metrics. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# One BLAS thread: a two-thread BLAS on a shared two-core machine spreads the
# timings and changes the last digits of a solve. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

MIN_ROUNDS = 3
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_gradba(root):
    """Import gradba from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gradba", "__init__.py")):
        raise SystemExit(f"perfbench: no gradba sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gradba
    if not os.path.abspath(gradba.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"perfbench: gradba imported from {gradba.__file__}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def without_gc(fn, *args):
    """``fn(*args)`` after a full collection, with the cyclic collector off,
    as ``timeit`` runs its statements. Automatic collections cost in
    proportion to everything alive in the process, so they would charge one
    operation for the garbage and spans of others."""
    gc.collect()
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


class Run:
    """Attempted and failed operations, and every failure message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def operation(self, workload, k, inp):
        """One checked operation on input k; its seconds, or None on failure."""
        self.attempted += 1
        try:
            seconds, output = without_gc(workload.run, k, inp)
            errors = workload.check(k, inp, output)
        except Exception as exc:  # noqa: BLE001 -- an exception is a failed operation
            self.failed += 1
            self.messages.append(f"input {k}: {type(exc).__name__}: {exc}")
            return None
        if errors:
            self.failed += 1
            self.correct = False
            self.messages.extend(f"input {k}: {e}" for e in errors)
            return None
        return seconds

    def round(self, workload, inputs, tracer=None):
        """One operation on each input: their mean seconds, or None when an
        operation failed."""
        timings = []
        for k, inp in enumerate(inputs):
            if tracer is not None:
                tracer.begin_phase("op")
            timings.append(self.operation(workload, k, inp))
            if tracer is not None:
                tracer.end_phase()
        return None if None in timings else statistics.fmean(timings)


def rounds(run_one, seconds, min_rounds):
    """``run_one()`` until ``seconds`` have passed and at least ``min_rounds``
    ran; the rounds in which no operation failed."""
    out = []
    start = time.perf_counter()
    n = 0
    while n < min_rounds or time.perf_counter() - start < seconds:
        n += 1
        out.append(run_one())
    return [r for r in out if r is not None]


def setups(workload, tracer=None):
    """Every input, each set up and timed on its own; the median time."""
    inputs, times = [], []
    for k in range(workload.n_inputs):
        gc.collect()
        if tracer is not None:
            tracer.begin_phase("setup")
        t0 = time.perf_counter()
        inputs.append(workload.setup(k))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_phase()
    return inputs, statistics.median(times)


def warm_up(run, workload, inputs):
    """One operation whose time is discarded: imports, caches and first-call
    costs are paid here."""
    run.operation(workload, 0, inputs[0])


def end_to_end(workload, seconds):
    run = Run()
    inputs, setup_s = setups(workload)
    warm_up(run, workload, inputs)
    means = rounds(lambda: run.round(workload, inputs), seconds, MIN_ROUNDS)
    metrics = {"setup_s": (setup_s, "s")}
    if means:
        # one operation of each workload, under each of the three names; the
        # README says which name each workload's operation is
        op_s = statistics.median(means)
        metrics.update({"solve_s": (op_s, "s"), "step_s": (op_s, "s"),
                        "pipeline_s": (op_s, "s")})
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return run, metrics


def traced(workload, seconds, root, seed):
    import layers
    from spans import Tracer

    run = Run()
    tracer = Tracer()
    targets = layers.targets()
    tracer.install(targets)
    try:
        inputs, _ = setups(workload, tracer)
    finally:
        tracer.uninstall()
    warm_up(run, workload, inputs)
    # traced and untraced rounds alternate, so that a drift in the machine's
    # speed during the run does not show as tracing overhead
    plain, with_spans = [], []

    def pair():
        plain.append(run.round(workload, inputs))
        tracer.install(targets)
        try:
            with_spans.append(run.round(workload, inputs, tracer))
        finally:
            tracer.uninstall()

    rounds(pair, seconds, MIN_ROUNDS - 1)
    plain = [r for r in plain if r is not None]
    with_spans = [r for r in with_spans if r is not None]
    metrics = layers.metrics(tracer)
    if plain and with_spans:
        metrics["trace.overhead_s"] = (
            statistics.median(with_spans) - statistics.median(plain), "s")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"trace-{workload.name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   **tracer.dump()}, fh)
    return run, metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_gradba(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(root, OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            run, metrics = traced(workload, args.seconds, root, args.seed)
        else:
            run, metrics = end_to_end(workload, args.seconds)
    finally:
        workload.close()
    for m in run.messages:
        print(f"perfbench: {m}", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
