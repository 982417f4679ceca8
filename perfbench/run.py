#!/usr/bin/env python3
"""Benchmark of gasadapt on the tree-12 fixture.

    python3 perfbench/run.py --workload adaptive-tree12 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. One process, one thread of load, closed loop: the next
operation starts when the previous one has returned and been checked.

With `--trace 0` the operations run untraced and the result line carries
the end-to-end metrics: the medians of `wall_s` and `cpu_s` over the
operations, the median `setup_s` over several set-ups, and the process's
`peak_rss_mb`. With `--trace 1` untraced and traced operations alternate;
the result line carries the per-layer metrics of the traced operations
(each the low median over them) and `trace.overhead`,
and the spans are written to `.bench_out/`. `--workload all` runs the three
workloads one after another and prints a table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("adaptive-tree12", "uniform-tree12", "estimate-tree12")
SETUP_REPEATS = 3
IMPORT_PROBE = f"import sys; sys.path.insert(0, {SRC!r}); import gasadapt.cli"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def _set_up(workload, seed, workdir):
    """One set-up: a fresh interpreter importing the package, timed from
    outside, plus the workload's own preparation in this process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
    imports_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ctx = workload.prepare(seed, workdir)
    return ctx, imports_s + time.perf_counter() - t0


def _run_workload(args, workdir):
    # imported here: both need the package on sys.path
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setups = [_set_up(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    ctx = setups[-1][0]
    setup_s = statistics.median(s for _, s in setups)

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    cpus = []
    layers = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    # a traced run needs one untraced and one traced operation at least
    minimum = 2 if args.trace else 1
    wall = 0.0
    # start an operation only if, lasting as long as the last one, it would
    # end less than half its length after the deadline
    while attempted < minimum or time.perf_counter() + 0.5 * wall < deadline:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        first = len(tracer.spans)
        try:
            if traced:
                with tracer.installed():
                    root = tracer.open("op")
                    try:
                        w0, c0 = time.perf_counter(), time.process_time()
                        output = workload.operation(ctx)
                        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
                    finally:
                        tracer.close(root)
            else:
                w0, c0 = time.perf_counter(), time.process_time()
                output = workload.operation(ctx)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            problems = workload.check(ctx, output)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            problems = ["operation raised"]
        if problems:
            failed += 1
            print(f"operation {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        print(f"operation {attempted}{' traced' if traced else ''}: "
              f"wall {wall:.4f} s, cpu {cpu:.4f} s", file=sys.stderr)
        walls[traced].append(wall)
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans, first, len(tracer.spans)))
        else:
            cpus.append(cpu)

    correct = failed == 0
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        } if walls[False] else {}
        return correct and bool(metrics), attempted, failed, metrics

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.write_jsonl(
        os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    )
    if not layers or not walls[False]:
        return False, attempted, failed, {}
    for name in tracing.EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) > 1:
            print(f"determinism: {name} differs between operations: {values}",
                  file=sys.stderr)
            correct = False
    medians = tracing.median_metrics(layers)
    metrics = {name: (medians[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return correct, attempted, failed, metrics


def _run_all(args):
    """Each workload in its own process, so that peak RSS is its own."""
    rows, results = [], {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            rows.append(f"{name:16s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    print("\n".join(rows))
    print(
        _result_line(
            all(r["correct"] for r in results.values()),
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {
                f"{name}/{metric}": (entry["value"], entry["unit"])
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        )
    )
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gasadapt", "__init__.py")):
        print(f"error: no gasadapt package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        correct, attempted, failed, metrics = _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(_result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
