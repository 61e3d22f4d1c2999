"""Command-line surface: generation, counting, solving, verification,
decision, reductions, and DOT export.

Exit codes are stable so shell pipelines can branch on them:
0 success / accept / yes, 1 reject / no, 2 usage or parse error,
3 exploration budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import files, reductions, solver, tree, verifier
from .files import FileFormatError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _at_least(low: int):
    """argparse type for an integer flag that must be >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _cpu_count() -> int:
    """CPUs this process may run on, which a cgroup or taskset can limit."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="makespan",
        description="Exact workbench for makespan scheduling on identical parallel machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file on stdout")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=_at_least(2), required=True, help="machine count (>= 2)")
    p.add_argument("--n", type=_at_least(1), required=True, help="job count (>= 1)")
    p.add_argument("--pmax", type=_at_least(1), required=True, help="largest processing time")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="closed-form tree and schedule counts")
    p.add_argument("--m", type=_at_least(2), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("solve", help="exact optimum of an instance file")
    p.add_argument("instance_file")
    p.add_argument("--method", choices=("brute", "bnb"), default="brute")
    p.add_argument(
        "--threads",
        type=_at_least(1),
        default=None,
        help="worker processes for the brute-force scan (default: usable CPUs)",
    )
    p.add_argument(
        "--leaf-budget",
        type=_at_least(1),
        default=solver.DEFAULT_LEAF_BUDGET,
        help="most leaves the brute-force scan may price, or nodes bnb may generate",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against a threshold")
    p.add_argument("instance_file")
    p.add_argument("certificate_file")
    p.add_argument("--threshold", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decide", help="is there a schedule within the threshold?")
    p.add_argument("instance_file")
    p.add_argument("--threshold", type=_at_least(1), required=True)
    p.add_argument("--witness-out", help="also write the witness certificate here")
    p.add_argument("--leaf-budget", type=_at_least(1), default=solver.DEFAULT_LEAF_BUDGET)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser(
        "reduce-partition",
        help="map a partition file to a 2-machine instance (stdout) and threshold (stderr)",
    )
    p.add_argument("partition_file")
    p.set_defaults(func=_cmd_reduce_partition)

    p = sub.add_parser(
        "reduce-mumpsp", help="wrap an instance as its single-user multi-user form"
    )
    p.add_argument("instance_file")
    p.set_defaults(func=_cmd_reduce_mumpsp)

    p = sub.add_parser("dot", help="Graphviz rendering of the assignment tree")
    p.add_argument("instance_file")
    p.add_argument("--max-level", type=_at_least(0), required=True)
    p.add_argument("--node-cap", type=_at_least(1), default=tree.DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_dot)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    jobs = [rng.randint(1, args.pmax) for _ in range(args.n)]
    print(files.dump_json({"machines": args.m, "jobs": jobs}))
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    formula = tree.count_essential_formula(m, n)
    exact = tree.count_essential_exact(m, n)
    print(f"nodes={tree.count_nodes(m, n)}")
    print(f"schedules={tree.count_schedules(m, n)}")
    print(f"partial={tree.count_partial(m, n)}")
    print(f"essential_formula={formula}")
    print(f"essential_exact={exact}")
    if formula != exact:
        print(
            "note: essential_formula removes only the m single-machine schedules; "
            "essential_exact is the true machine-covering count"
        )
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance_file)
    if args.method == "brute":
        result = solver.brute_force_opt(
            instance, leaf_budget=args.leaf_budget, workers=args.threads or _cpu_count()
        )
    else:
        result = solver.branch_and_bound(instance, node_budget=args.leaf_budget)
    print(
        files.dump_json(
            {
                "optimum": result.optimum,
                "assignment": list(result.best_schedule),
                "leaves_explored": result.leaves_explored,
                "nodes_pruned": result.nodes_pruned,
            }
        )
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance_file)
    cert = files.load_certificate(args.certificate_file)
    verdict = verifier.verify_certificate(instance, cert, args.threshold)
    print(verdict.describe())
    return EXIT_OK if verdict.accepted else EXIT_NO


def _cmd_decide(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance_file)
    yes, witness = verifier.decide(
        instance, args.threshold, leaf_budget=args.leaf_budget
    )
    if not yes:
        print("no")
        return EXIT_NO
    payload = files.dump_json(files.certificate_to_json(witness))
    # write the side file first, so a failed write leaves stdout empty
    if args.witness_out:
        try:
            with open(args.witness_out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise FileFormatError(f"{args.witness_out}: {exc.strerror or exc}") from exc
    print("yes")
    print(payload)
    return EXIT_OK


def _cmd_reduce_partition(args: argparse.Namespace) -> int:
    pp = files.load_partition(args.partition_file)
    instance, threshold = reductions.partition_to_2psp(pp)
    # stdout stays a pure instance file so it pipes straight into `decide`
    print(files.dump_json(files.instance_to_json(instance)))
    print(f"threshold={threshold}", file=sys.stderr)
    return EXIT_OK


def _cmd_reduce_mumpsp(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance_file)
    mapped = reductions.mpsp_to_mumpsp(instance)
    print(files.dump_json(files.mumpsp_to_json(mapped)))
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance_file)
    sys.stdout.write(tree.to_dot(instance, args.max_level, node_cap=args.node_cap))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FileFormatError, tree.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (solver.BudgetExceeded, tree.TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
