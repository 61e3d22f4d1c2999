"""Exact makespan solvers over the assignment tree.

``brute_force_opt`` prices every one of the m^n leaves and returns the
lexicographically least optimal schedule.  ``_search`` is the one pruned
search: identical-machine symmetry breaking, an LPT incumbent and a stop at
the lower bound.  ``branch_and_bound`` and the verifier's ``prove`` and
``decide`` run it, and it returns the same optimum as the full scan.
``magic_schedule`` is the two-machine balanced-split
procedure: it succeeds only when a schedule's makespan equals the ideal
half-total exactly, with the nondeterministic choice of partition supplied as
an explicit, testable strategy (exhaustive search, a fixed certificate, or
random sampling).
"""

from __future__ import annotations

import heapq
import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .model import (
    Instance,
    NotTwoMachines,
    Schedule,
    SchedulingError,
    loads,
)

DEFAULT_LEAF_BUDGET = 1 << 26

# Fan-out across processes only pays off once a scan is this large.
_PARALLEL_MIN_LEAVES = 1 << 18


class BudgetExceeded(SchedulingError):
    """The requested exploration would exceed the configured budget."""


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of an exact solve.

    leaves_explored counts priced leaves; nodes_pruned counts subtrees cut
    before expansion, including machines skipped because an earlier machine
    has the same load (always 0 for the full scan).
    """

    best_schedule: Schedule
    optimum: int
    leaves_explored: int
    nodes_pruned: int


def _scan_subtree(
    m: int, times: tuple[int, ...], prefix: tuple[int, ...]
) -> tuple[int, Schedule]:
    """Depth-first scan of every leaf below `prefix`.

    Returns (minimum leaf weight, lexicographically least argmin schedule).
    Memory stays O(n * m): one mutable path, no tree materialization.
    """
    n = len(times)
    current = [0] * m
    for level, machine in enumerate(prefix):
        current[machine - 1] += times[level]
    if len(prefix) == n:
        return max(current), tuple(prefix)

    assign = list(prefix) + [0] * (n - len(prefix))
    best_w: float = float("inf")
    best_a: Schedule = ()
    last = n - 1
    machines = range(m)

    def visit(level: int) -> None:
        nonlocal best_w, best_a
        p = times[level]
        if level == last:
            for j in machines:
                current[j] += p
                w = max(current)
                # first strict improvement in DFS order = lexicographic least
                if w < best_w:
                    assign[level] = j + 1
                    best_w = w
                    best_a = tuple(assign)
                current[j] -= p
            return
        nxt = level + 1
        for j in machines:
            assign[level] = j + 1
            current[j] += p
            visit(nxt)
            current[j] -= p

    visit(len(prefix))
    return int(best_w), best_a


def _check_leaf_budget(m: int, n: int, leaf_budget: int) -> int:
    """The tree's leaf count m^n; BudgetExceeded when it passes leaf_budget."""
    total_leaves = m**n
    if total_leaves > leaf_budget:
        raise BudgetExceeded(
            f"{m}^{n} = {total_leaves} leaves exceed the budget of {leaf_budget}"
        )
    return total_leaves


def brute_force_opt(
    instance: Instance,
    leaf_budget: int = DEFAULT_LEAF_BUDGET,
    workers: int = 1,
) -> SolveResult:
    """Exact optimum by pricing all m^n leaves.

    Raises BudgetExceeded before starting any work when m^n > leaf_budget.
    With workers > 1 (and a large enough scan) disjoint prefix subtrees are
    scanned by separate processes and min-reduced; the result is identical to
    the sequential scan.
    """
    m = instance.machine_count
    times = instance.processing_times
    n = len(times)
    total_leaves = _check_leaf_budget(m, n, leaf_budget)

    if workers > 1 and total_leaves >= _PARALLEL_MIN_LEAVES and n > 2:
        depth = 1
        while m**depth < workers and depth < n - 1:
            depth += 1
        prefixes = list(itertools.product(range(1, m + 1), repeat=depth))
        with ProcessPoolExecutor(max_workers=min(workers, len(prefixes))) as pool:
            results = pool.map(
                _scan_subtree, itertools.repeat(m), itertools.repeat(times), prefixes
            )
            # prefix blocks partition the leaf order and min keeps the first
            # minimum, so this is the lexicographically least argmin
            best_w, best_a = min(results, key=lambda result: result[0])
    else:
        best_w, best_a = _scan_subtree(m, times, ())

    return SolveResult(
        best_schedule=best_a,
        optimum=best_w,
        leaves_explored=total_leaves,
        nodes_pruned=0,
    )


def _lpt_makespan(m: int, times: Iterable[int]) -> int:
    """Makespan of the LPT schedule (Graham 1969): jobs longest first, each
    on a least-loaded machine.  An upper bound on the optimum."""
    heap = [0] * m
    for p in sorted(times, reverse=True):
        heapq.heapreplace(heap, heap[0] + p)
    return max(heap)


def _search(
    m: int, times: tuple[int, ...], limit: int, node_budget: int | None = None
) -> SolveResult:
    """The pruned depth-first search over the assignment tree.

    Returns the lexicographically least schedule of least makespan below
    `limit`, or best_schedule () and optimum `limit` when no schedule is
    below it.  Machines are tried in index order, and of several machines
    with equal current load only the first: relabelling the others gives a
    lexicographically larger schedule of the same makespan.  A child is cut
    when its largest load reaches the incumbent; the other lower bounds,
    ceil(total/m) and the largest remaining job, never exceed `target`, so
    they are below the incumbent for as long as the search runs.  The search
    stops as soon as the incumbent reaches `target`, which no schedule beats.

    Raises BudgetExceeded once more than `node_budget` nodes are generated
    (all m children of each expanded node count).
    """
    n = len(times)
    target = max(-(-sum(times) // m), max(times))
    if limit <= target:
        return SolveResult((), limit, 0, 0)
    current = [0] * m
    assign = [0] * n
    best = limit
    best_a: Schedule = ()
    leaves = pruned = generated = 0
    last = n - 1
    machines = range(m)

    def visit(level: int, high: int) -> bool:
        """Expand the node at `level` whose largest load is `high`; True once
        the incumbent is optimal."""
        nonlocal best, best_a, leaves, pruned, generated
        generated += m
        if node_budget is not None and generated > node_budget:
            raise BudgetExceeded(f"the search generated more than {node_budget} nodes")
        p = times[level]
        seen = set()
        for j in machines:
            load = current[j]
            if load in seen:
                pruned += 1
                continue
            seen.add(load)
            load += p
            top = load if load > high else high
            if top >= best:
                pruned += 1
                continue
            assign[level] = j + 1
            if level == last:
                # every leaf reached is an improvement, and DFS order makes
                # the first one of each value the lexicographically least
                leaves += 1
                best = top
                best_a = tuple(assign)
                if best <= target:
                    return True
                continue
            current[j] = load
            done = visit(level + 1, top)
            current[j] = load - p
            if done:
                return True
        return False

    visit(0, 0)
    return SolveResult(best_a, best, leaves, pruned)


def branch_and_bound(
    instance: Instance,
    lpt_order: bool = False,
    node_budget: int = DEFAULT_LEAF_BUDGET,
) -> SolveResult:
    """Exact optimum by the pruned search, seeded with the LPT makespan.

    The optimum always equals brute_force_opt's; the schedule is the
    lexicographically least optimal one in search order.  With
    lpt_order=True jobs are considered longest-first, which usually finds
    good schedules much sooner; the schedule is then least in that order.
    Raises BudgetExceeded once the search generates more than `node_budget`
    nodes.
    """
    m = instance.machine_count
    n = instance.job_count
    if lpt_order:
        order = sorted(range(n), key=lambda i: (-instance.processing_times[i], i))
    else:
        order = list(range(n))
    times = tuple(instance.processing_times[i] for i in order)

    # +1: the search may return a schedule as long as the LPT one
    result = _search(m, times, _lpt_makespan(m, times) + 1, node_budget)
    schedule = [0] * n
    for pos, job in enumerate(order):
        schedule[job] = result.best_schedule[pos]
    return replace(result, best_schedule=tuple(schedule))


@dataclass(frozen=True, slots=True)
class MsOutcome:
    """Success carries the balanced two-machine schedule; Failure carries
    nothing."""

    success: bool
    partition: Schedule | None = None


# A strategy streams candidate schedules for an instance; magic_schedule
# checks each against the exact half-total target.
SelectPartitionStrategy = Callable[[Instance], Iterable[Schedule]]


def exhaustive_strategy(instance: Instance) -> Iterator[Schedule]:
    """Stream every balanced split, lexicographically least first.

    Depth-first over the assignment tree, cutting any branch whose load
    already exceeds half the total work; since loads only grow, the surviving
    leaves are exactly the schedules with both loads equal to half the total.
    Yields nothing when the total is odd.
    """
    if instance.machine_count != 2:
        raise NotTwoMachines(
            f"balanced-split search needs 2 machines, got {instance.machine_count}"
        )
    total = instance.total_work
    if total % 2:
        return
    half = total // 2
    times = instance.processing_times
    n = len(times)
    assign = [0] * n

    def walk(level: int, load_one: int, load_two: int) -> Iterator[Schedule]:
        if level == n:
            yield tuple(assign)
            return
        p = times[level]
        if load_one + p <= half:
            assign[level] = 1
            yield from walk(level + 1, load_one + p, load_two)
        if load_two + p <= half:
            assign[level] = 2
            yield from walk(level + 1, load_one, load_two + p)

    yield from walk(0, 0, 0)


def certificate_strategy(schedule: Iterable[int]) -> SelectPartitionStrategy:
    """Strategy that proposes exactly the supplied schedule."""
    fixed = tuple(schedule)

    def candidates(instance: Instance) -> Iterator[Schedule]:
        yield fixed

    return candidates


def random_strategy(seed: int, trials: int) -> SelectPartitionStrategy:
    """Strategy that samples `trials` assignments uniformly at random."""

    def candidates(instance: Instance) -> Iterator[Schedule]:
        rng = random.Random(seed)
        n = instance.job_count
        for _ in range(trials):
            yield tuple(rng.choices((1, 2), k=n))

    return candidates


def magic_schedule(
    instance: Instance,
    strategy: SelectPartitionStrategy = exhaustive_strategy,
) -> MsOutcome:
    """Two-machine balanced-split procedure.

    Succeeds on the first candidate whose makespan equals half the total work
    exactly (impossible for odd totals), returning that schedule; fails when
    the strategy's candidates are exhausted.  Raises NotTwoMachines for
    instances with m != 2.
    """
    if instance.machine_count != 2:
        raise NotTwoMachines(
            f"magic_schedule needs 2 machines, got {instance.machine_count}"
        )
    total = instance.total_work
    for candidate in strategy(instance):
        # C_max == total/2 exactly, kept in integers
        if 2 * max(loads(instance, candidate)) == total:
            return MsOutcome(True, tuple(candidate))
    return MsOutcome(False, None)
