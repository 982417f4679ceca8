#!/usr/bin/env python3
"""Compare the adaptive loop against a uniformly fine single solve.

For each benchmark network the adaptive controller is run to eps-feasibility;
a uniform reference then solves one NLP with every pipe at the most accurate
model and the finest grid the adaptive run ended up using anywhere, which by
construction also meets the tolerance. Reported: wall times and speed-up,
and for each adaptive run the minor page faults it made and how far it
raised the process's peak RSS (`resource.getrusage` of this process, read
before and after the run; the script sets nothing).

Each network's pair is timed twice in one process, tree-12 first. In a fresh
process the first adaptive run is the first timed work and runs cold, while
the uniform solve after it runs warm; the second pair shows how far that moves
the ratio.

Usage: python3 scripts/speedup_experiment.py [--eps-bar 1e-4]
"""

import argparse
import resource
import time

from gasadapt import fixtures, nlp
from gasadapt.controller import AdaptiveConfig, run
from gasadapt.models import ModelLevel


def one_case(name, fixture, eps):
    net, gas, scn = fixture()
    config = AdaptiveConfig(eps=eps)

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    sol, state = run(net, scn, gas, config)
    adaptive_seconds = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    minor_faults = after.ru_minflt - before.ru_minflt
    # ru_maxrss is in KiB on Linux
    rss_growth_mb = (after.ru_maxrss - before.ru_maxrss) / 1024

    # uniform reference: level 1 everywhere, every pipe at the smallest
    # interval count reached by any pipe in the adaptive run
    max_intervals = max(
        round(p.length / state.stepsizes[pid]) for pid, p in net.pipes.items()
    )
    uniform_state = {
        pid: (ModelLevel.FULL, p.length / max_intervals)
        for pid, p in net.pipes.items()
    }
    t0 = time.perf_counter()
    instance = nlp.assemble(net, scn, gas, uniform_state)
    uniform_sol = nlp.solve(instance)
    uniform_seconds = time.perf_counter() - t0

    print(f"{name}:")
    print(f"  adaptive: {len(state.trace)} solves, {adaptive_seconds:.2f} s, "
          f"objective {sol.objective:.6g}, {minor_faults} minor faults, "
          f"peak RSS +{rss_growth_mb:.1f} MB")
    print(f"  uniform (n={max_intervals}, {instance.n_vars} vars): "
          f"{uniform_sol.status}, {uniform_seconds:.2f} s, "
          f"objective {uniform_sol.objective:.6g}")
    print(f"  speed-up: {uniform_seconds / adaptive_seconds:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--eps-bar", type=float, default=1e-4,
                        help="tolerance in bar (default 1e-4)")
    args = parser.parse_args()
    eps = args.eps_bar * 1e5
    # load scipy first, so that no timed run pays for the one-time import
    # that the first `nlp.assemble` of a process makes
    nlp._load_scipy()

    for name, fixture in (("tree-12", fixtures.tree12),
                          ("chain-5", fixtures.chain5)):
        for attempt in ("first", "second"):
            one_case(f"{name}, {attempt} pair", fixture, eps)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
