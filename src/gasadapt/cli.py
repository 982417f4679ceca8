"""Command-line interface.

Subcommands:
  run              adaptive model/grid control on a network file
  simulate         integrate a single pipe and emit an x/pressure CSV
  estimate         per-pipe error estimates for a stored solution
  validate-params  check the finite-termination parameter inequalities
  nlp-solve        one NLP solve at a fixed uniform level/grid

Exit codes: 0 success, 2 infeasible problem, 1 any other error, usage
errors included.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import fileio, nlp
from .controller import AdaptiveConfig, compute_estimates, run, validate_parameters
from .errors import GasAdaptError, InfeasibleProblem, ValidationError
from .integrate import Grid, integrate
from .models import ModelLevel
from .network import GasParameters, Pipe

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _finite(kind, low=None, high=None):
    """argparse type: a finite `kind`, above `low` and below `high` if given."""

    def parse(text):
        value = kind(text)
        if (
            not math.isfinite(value)
            or (low is not None and value <= low)
            or (high is not None and value >= high)
        ):
            above = "" if low is None else f" above {low}"
            below = "" if high is None else f" below {high}"
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite {kind.__name__}{above}{below}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


@functools.cache  # argparse parsers can be reused; build once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gasadapt",
        description="Adaptive model and discretization error control for "
        "stationary gas network operation-cost minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="adaptive control loop; writes solution, trace, estimates"
    )
    p_run.add_argument("--network", required=True)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--config", help="JSON config; defaults otherwise")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--quiet", action="store_true")

    p_sim = sub.add_parser("simulate", help="single-pipe integration to CSV")
    p_sim.add_argument("--level", type=int, default=3, choices=(1, 2, 3))
    p_sim.add_argument(
        "--h", type=_finite(float, 0), help="stepsize [m]; default L/100"
    )
    p_sim.add_argument(
        "--p0", type=_finite(float, 0), default=60e5, help="inlet pressure [Pa]"
    )
    p_sim.add_argument(
        "--q", type=_finite(float), default=100.0, help="mass flow [kg/s]"
    )
    p_sim.add_argument("--length", type=_finite(float, 0), default=10000.0)
    p_sim.add_argument("--diameter", type=_finite(float, 0), default=0.6)
    p_sim.add_argument("--friction", type=_finite(float, 0), default=0.01)
    # of magnitude below 1, as network files require of a pipe's slope
    p_sim.add_argument("--slope", type=_finite(float, -1, 1), default=0.0)
    p_sim.add_argument("--out", help="CSV path; stdout when omitted")

    p_est = sub.add_parser(
        "estimate", help="per-pipe error estimates for a solution file"
    )
    p_est.add_argument("--network", required=True)
    p_est.add_argument(
        "--solution", required=True, help="solution JSON with its pipe states"
    )
    p_est.add_argument("--out", help="CSV path; stdout when omitted")

    p_val = sub.add_parser(
        "validate-params", help="check the finite-termination inequalities"
    )
    p_val.add_argument("--config", help="JSON config; defaults otherwise")
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-pipes", type=_finite(int, 0))
    group.add_argument("--network")

    p_nlp = sub.add_parser(
        "nlp-solve", help="one NLP solve at a fixed uniform level and grid"
    )
    p_nlp.add_argument("--network", required=True)
    p_nlp.add_argument("--scenario", required=True)
    p_nlp.add_argument("--level", type=int, default=1, choices=(1, 2, 3))
    p_nlp.add_argument("--intervals", type=_finite(int, 0), default=4,
                       help="intervals per pipe (multiple of 4)")
    p_nlp.add_argument("--out", help="solution JSON path; stdout when omitted")

    return parser


def _load_problem(args):
    """Network, gas and scenario of a command; `nlp.assemble` checks the
    scenario against the network."""
    net, gas = fileio.load_network(args.network)
    return net, gas, fileio.load_scenario(args.scenario)


def _cmd_run(args) -> int:
    net, gas, scn = _load_problem(args)
    config = fileio.load_config(args.config) if args.config else AdaptiveConfig()

    for warning in validate_parameters(config, len(net.pipes)):
        print(f"warning: {warning}", file=sys.stderr)

    progress = None
    if not args.quiet:
        def progress(record):
            print(
                f"solve {record.solve_index}: outer {record.outer_k} "
                f"inner {record.inner_j} avg_eta {record.avg_eta:.6g} Pa "
                f"(+{record.n_refined} refined, +{record.n_switched_up} up)",
                file=sys.stderr,
            )

    sol, state = run(net, scn, gas, config, progress=progress)

    os.makedirs(args.out, exist_ok=True)
    fileio.save_solution(sol, os.path.join(args.out, "solution.json"))
    fileio.export_trace(state, os.path.join(args.out, "trace.csv"))
    fileio.export_estimates(
        state.estimates.values(), os.path.join(args.out, "estimates.csv")
    )
    if not args.quiet:
        print(
            f"eps-feasible after {len(state.trace)} solves; "
            f"objective {sol.objective:.6g}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    pipe = Pipe(
        id="pipe",
        from_node="a",
        to_node="b",
        length=args.length,
        diameter=args.diameter,
        friction=args.friction,
    )
    gas = GasParameters()
    h = args.h if args.h is not None else args.length / 100.0
    grid = Grid(h, round(args.length / h))
    values = integrate(
        ModelLevel.of(args.level), pipe, gas, args.p0, args.q, grid, args.slope
    )
    fileio.export_profile(grid, values, args.out if args.out else sys.stdout)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    net, gas = fileio.load_network(args.network)
    sol = fileio.load_solution(args.solution)
    problems = [
        f"solution: {name} misses {missing}"
        for name, given, needed in (
            ("node_pressures", sol.node_pressures, net.nodes),
            ("arc_flows", sol.arc_flows, net.pipes),
            ("pipe_states", sol.pipe_states, net.pipes),
        )
        if (missing := sorted(set(needed) - set(given)))
    ]
    if problems:
        raise ValidationError(problems)
    levels = {pid: lv for pid, (lv, _) in sol.pipe_states.items()}
    stepsizes = {pid: h for pid, (_, h) in sol.pipe_states.items()}
    estimates, _ = compute_estimates(net, gas, sol, levels, stepsizes)
    fileio.export_estimates(estimates.values(), args.out if args.out else sys.stdout)
    return EXIT_OK


def _cmd_validate_params(args) -> int:
    config = fileio.load_config(args.config) if args.config else AdaptiveConfig()
    if args.network is not None:
        net, _ = fileio.load_network(args.network)
        n_pipes = len(net.pipes)
    else:
        n_pipes = args.n_pipes
    warnings = validate_parameters(config, n_pipes)
    for warning in warnings:
        print(f"warning: {warning}")
    if not warnings:
        print("ok: both finite-termination inequalities hold")
    return EXIT_OK


def _cmd_nlp_solve(args) -> int:
    net, gas, scn = _load_problem(args)
    level = ModelLevel.of(args.level)
    state = {pid: (level, p.length / args.intervals) for pid, p in net.pipes.items()}
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    fileio.save_solution(sol, args.out if args.out else sys.stdout)
    nlp.raise_unless_optimal(sol)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "validate-params": _cmd_validate_params,
    "nlp-solve": _cmd_nlp_solve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GasAdaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
