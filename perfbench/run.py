"""Benchmark of orbitent: the closed-form, oracle and cli workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``setup_s`` is the median of set-ups timed before the operation list and
between chunks of it.
``--trace 1`` runs the same operation list twice, untraced and traced in
alternating chunks, and reports the per-layer metrics and the tracing
overhead (traced minus untraced operation time); on ``cli`` both passes call
``orbitent.cli.main`` in-process and ``cli.startup_ms`` is timed from
outside.  Spans of the traced pass are written to
``.bench_build/perfbench/spans-<workload>-<seed>.csv.gz``.

The lines printed first give each metric by name with its unit, the
failures by kind and the environment; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program exits 1 without a result when the checkout holds no orbitent
sources.  Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
#: BLAS on one thread, set before numpy is imported and inherited by the
#: CLI children
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
#: set-up, with the import of a fresh interpreter, is timed before the
#: measured loop and again after each of this many chunks of it, and the
#: median reported: on a shared host, samples spread over the run see the
#: same drift of the machine as the operations do
SETUP_SAMPLES = 8
#: the tail percentile leaves at least this many samples beyond it, and
#: stops at p99.9: further out, the value of a 30 s in-process run is set
#: by rare stalls of the host rather than by the workload
TAIL_BEYOND = 10
#: the traced run alternates traced and untraced passes over this many chunks
TRACE_CHUNKS = 20
#: the names in ``workloads.WORKLOADS``, which loads only after the pin
WORKLOAD_NAMES = ("closed-form", "oracle", "cli")


def tail_percentile(values) -> tuple[float, int, float]:
    """(percentile, samples beyond it, value) by nearest rank, for the
    highest percentile up to p99.9 that leaves at least ``TAIL_BEYOND``
    samples beyond it; the median when the list is shorter than twice
    that."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        rank = n - max(TAIL_BEYOND, n // 1000)
    else:
        rank = math.ceil(n / 2)
    return 100.0 * rank / n, n - rank, ordered[rank - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def environment(args, ops) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    percentile, beyond, _ = tail_percentile(range(len(ops)))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "ops_by_kind": dict(Counter(op.kind for op in ops)),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }


def end_to_end(outcome, setup_s, children: bool) -> dict:
    latencies_ms = [x / 1e6 for x in outcome.latencies_ns]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail_percentile(latencies_ms)[2], "ms"),
        "verify_states_per_s": (outcome.verify_states / (outcome.verify_ns / 1e9), "1/s"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
    }


def set_up(workload, args, workdir) -> tuple[list, float]:
    """The operation list and the seconds it took: the import of orbitent
    in a fresh interpreter plus one set-up, from a collected heap."""
    import workloads

    import_s = workloads.fresh_import(probes=1)[1]
    gc.collect()
    start = perf_counter()
    ops = workload.prepare(args.seed, args.seconds, workdir,
                           in_process=bool(args.trace))
    return ops, import_s + perf_counter() - start


def untraced(workload, ops, args, workdir, setup_s) -> tuple:
    """Run the list in ``SETUP_SAMPLES`` chunks, timing one more set-up
    after each; returns the outcome and every set-up time."""
    import workloads

    outcome, setup_times = workloads.Outcome(), [setup_s]
    size = math.ceil(len(ops) / SETUP_SAMPLES)
    for start in range(0, len(ops), size):
        outcome.merge(workloads.run_ops(ops[start:start + size]))
        setup_times.append(set_up(workload, args, workdir)[1])
    return outcome, setup_times


def result(outcome, metrics) -> dict:
    """The last line: correct only if no operation raised, exited nonzero
    or gave a wrong output."""
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def traced(workload, ops, seed) -> tuple:
    """Run the list untraced and traced, chunk by chunk, alternating which
    goes first so that slow drift of the machine cancels out of the
    overhead."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain, spanned = workloads.Outcome(), workloads.Outcome()
    size = max(1, len(ops) // TRACE_CHUNKS)
    for chunk, start in enumerate(range(0, len(ops), size)):
        part = ops[start:start + size]
        for with_spans in ((False, True) if chunk % 2 == 0 else (True, False)):
            if with_spans:
                with tracer:
                    spanned.merge(workloads.run_ops(part, tracer, start))
            else:
                plain.merge(workloads.run_ops(part))
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{workload.name}-{seed}.csv.gz"))
    metrics = tracing.layer_metrics(tracer)
    op_ms = sum(spanned.latencies_ns) / 1e6
    metrics["trace.overhead_ms"] = (op_ms - sum(plain.latencies_ns) / 1e6, "ms")
    metrics["cli.startup_ms"] = (
        workloads.fresh_import()[0] if workload.name == "cli" else 0.0, "ms")
    print(f"traced operation time {op_ms:.1f} ms; self-time share by layer:")
    shares = sorted(((v, k[:-len(".self_ms")]) for k, (v, _) in metrics.items()
                     if k.endswith(".self_ms")), reverse=True)
    for value, name in shares:
        if value:
            print(f"  {name:<32} {value:12.1f} ms {100 * value / op_ms:6.1f} %")
    plain.merge(spanned)
    return metrics, plain


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    # the default clustering tolerance, the same in-process and in the children
    os.environ.pop("ORBITENT_DEFAULT_TOL", None)
    if not os.path.isfile(os.path.join(SRC, "orbitent", "__init__.py")):
        print(f"perfbench: no orbitent sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    # numpy and the benchmark's own modules load only now, after the pin
    import orbitent
    if not os.path.abspath(orbitent.__file__).startswith(SRC + os.sep):
        print(f"perfbench: orbitent imported from {orbitent.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops, setup_s = set_up(workload, args, workdir)
        setup_times = [setup_s]
        if args.trace:
            metrics, outcome = traced(workload, ops, args.seed)
        else:
            outcome, setup_times = untraced(workload, ops, args, workdir, setup_s)
            metrics = end_to_end(outcome, statistics.median(setup_times),
                                 workload.name == "cli")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    percentile, beyond, _ = tail_percentile(range(outcome.attempted))
    notes = {"latency_tail_ms":
             f"  (p{percentile:.4g} of {outcome.attempted}, {beyond} beyond)"}
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}{notes.get(name, '')}")
    print(f"{'fail_frac':<40} {outcome.failed / outcome.attempted:>16.6g} ratio")
    print("failures", json.dumps(dict(outcome.failures), sort_keys=True))
    env = environment(args, ops)
    env["setup_samples_s"] = setup_times
    print("env", json.dumps(env, sort_keys=True))
    print(json.dumps(result(outcome, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
