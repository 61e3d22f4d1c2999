"""Command-line surface: generation, counting, solving, verification,
decision, reductions, and DOT export.

Exit codes are stable so shell pipelines can branch on them:
0 success / accept / yes, 1 reject / no, 2 usage or parse error or a
closed stdout, 3 exploration budget exceeded.

Each command loads only the modules it runs.  `files` and `model` are
imported here, because `main` maps their exceptions to exit codes; each
handler imports `tree`, `solver`, `verifier` or `reductions` itself, so
`count`, `gen` and `dot` start without the solver, and `solve` imports it
only once its instance file has loaded.  The standard library follows the
same rule: only `gen` imports `random`.
"""

import argparse
import functools
import os
import sys

from . import files
from .files import FileFormatError
from .model import DEFAULT_LEAF_BUDGET, DEFAULT_NODE_CAP, BudgetExceeded, DomainError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# gen holds its whole job list and printed file before the file rules see
# them, so it refuses first more jobs, or more printed characters, than these.
MAX_GEN_JOBS = 1 << 20
MAX_GEN_CHARS = 1 << 24

BUDGET_HELP = "most leaves the brute-force scan may price, or nodes the pruned search may generate"


def _at_least(low: int):
    """argparse type for an integer flag that must be >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process.

    Sharing is safe because parsing leaves the parser as it found it: every
    default is immutable, the `_at_least` type closures are pure, and each
    subcommand dispatches through `set_defaults(func=...)`, which nothing
    patches.  Each parse_args call fills a fresh Namespace, so no value
    carries over from one call to the next.  Every caller gets the same
    object, so none may add to it.
    """
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
        help="accepted and ignored: the brute-force scan runs in this process "
        "(the flag goes once the benchmark stops passing it)",
    )
    p.add_argument(
        "--leaf-budget", type=_at_least(1), default=DEFAULT_LEAF_BUDGET, help=BUDGET_HELP
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
    p.add_argument(
        "--leaf-budget", type=_at_least(1), default=DEFAULT_LEAF_BUDGET, help=BUDGET_HELP
    )
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
    p.add_argument("--node-cap", type=_at_least(1), default=DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_dot)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n > MAX_GEN_JOBS:
        raise DomainError(f"--n: at most {MAX_GEN_JOBS}, got {args.n}")
    # up to n jobs of pmax's digits plus a comma; 2**10 > 10**3 counts them from below
    chars = args.n * ((args.pmax.bit_length() - 1) * 3 // 10 + 2)
    if chars > MAX_GEN_CHARS:
        raise DomainError(f"--n times --pmax's digits: at most {MAX_GEN_CHARS} characters, got {chars}")
    import random

    rng = random.Random(args.seed)
    jobs = [rng.randint(1, args.pmax) for _ in range(args.n)]
    # the file rules refuse what the other commands could not load
    instance = files.parse_instance({"machines": args.m, "jobs": jobs})
    print(files.dump_json(files.instance_to_json(instance)))
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    from . import tree

    m, n = args.m, args.n
    # m**n is refused before it is taken, then the node count, the largest
    # number printed
    files._check_printable(m, f"{m}^{n}", n, DomainError)
    nodes = tree.count_nodes(m, n)
    files._check_printable(nodes, "the node count", error=DomainError)
    formula = tree.count_essential_formula(m, n)
    exact = tree.count_essential_exact(m, n)
    print(f"nodes={nodes}")
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
    from . import solver

    if args.method == "brute":
        result = solver.brute_force_opt(instance, leaf_budget=args.leaf_budget)
    else:
        # longest job first: the optimum is the same, the search much shorter
        result = solver.branch_and_bound(
            instance, lpt_order=True, node_budget=args.leaf_budget
        )
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
    from . import verifier

    instance = files.load_instance(args.instance_file)
    cert = files.load_certificate(args.certificate_file)
    verdict = verifier.verify_certificate(instance, cert, args.threshold)
    print(verdict.describe())
    return EXIT_OK if verdict.accepted else EXIT_NO


def _cmd_decide(args: argparse.Namespace) -> int:
    from . import verifier

    instance = files.load_instance(args.instance_file)
    yes, witness = verifier.decide(instance, args.threshold, node_budget=args.leaf_budget)
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
    from . import reductions

    pp = files.load_partition(args.partition_file)
    instance, threshold = reductions.partition_to_2psp(pp)
    # stdout stays a pure instance file so it pipes straight into `decide`
    print(files.dump_json(files.instance_to_json(instance)))
    print(f"threshold={threshold}", file=sys.stderr)
    return EXIT_OK


def _cmd_reduce_mumpsp(args: argparse.Namespace) -> int:
    from . import reductions

    instance = files.load_instance(args.instance_file)
    mapped = reductions.mpsp_to_mumpsp(instance)
    print(files.dump_json(files.mumpsp_to_json(mapped)))
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    from . import tree

    instance = files.load_instance(args.instance_file)
    sys.stdout.write(tree.to_dot(instance, args.max_level, node_cap=args.node_cap))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed the usage message
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            code = args.func(args)
        # a closed stdout shows here at the latest, not at interpreter exit
        sys.stdout.flush()
        return code
    except (FileFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError as exc:
        print(f"error: stdout: {exc.strerror or exc}", file=sys.stderr)
        # point stdout's descriptor at the null device, so the interpreter's
        # final flush raises nothing; an in-process caller's StringIO has none
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
