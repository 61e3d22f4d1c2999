"""Exact makespan solvers over the assignment tree.

``brute_force_opt`` prices every one of the m^n leaves and returns the
lexicographically least optimal schedule.  ``branch_and_bound`` prunes
subtrees with simple lower bounds but is guaranteed to return the identical
optimum value.  ``magic_schedule`` is the two-machine balanced-split
procedure: it succeeds only when a schedule's makespan equals the ideal
half-total exactly, with the nondeterministic choice of partition supplied as
an explicit, testable strategy (exhaustive search, a fixed certificate, or
random sampling).
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    before expansion (always 0 for the full scan).
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
    total_leaves = m**n
    if total_leaves > leaf_budget:
        raise BudgetExceeded(
            f"{m}^{n} = {total_leaves} leaves exceed the budget of {leaf_budget}"
        )

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


def branch_and_bound(instance: Instance, lpt_order: bool = False) -> SolveResult:
    """Exact optimum by depth-first search with lower-bound pruning.

    The optimum always equals brute_force_opt's; the returned schedule may be
    a different optimal one.  A subtree is cut when
    max(largest load so far, ceil(total/m), largest remaining time) already
    matches the incumbent.  The incumbent is the first leaf reached
    depth-first (machine 1 branch first); with lpt_order=True jobs are
    considered longest-first, which usually tightens it much sooner.
    """
    m = instance.machine_count
    n = instance.job_count
    if lpt_order:
        order = sorted(range(n), key=lambda i: (-instance.processing_times[i], i))
    else:
        order = list(range(n))
    times = tuple(instance.processing_times[i] for i in order)

    total = instance.total_work
    base_lb = -(-total // m)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(times[i], suffix_max[i + 1])

    current = [0] * m
    assign = [0] * n
    best_w: float = float("inf")
    best_a: tuple[int, ...] = ()
    leaves_explored = 0
    nodes_pruned = 0
    machines = range(m)

    def visit(level: int) -> None:
        nonlocal best_w, best_a, leaves_explored, nodes_pruned
        if level == n:
            leaves_explored += 1
            w = max(current)
            if w < best_w:
                best_w = w
                best_a = tuple(assign)
            return
        p = times[level]
        tail_max = suffix_max[level + 1]
        for j in machines:
            current[j] += p
            bound = max(current)
            if bound < base_lb:
                bound = base_lb
            if bound < tail_max:
                bound = tail_max
            if bound >= best_w:
                nodes_pruned += 1
            else:
                assign[level] = j + 1
                visit(level + 1)
            current[j] -= p

    visit(0)

    schedule = [0] * n
    for pos, job in enumerate(order):
        schedule[job] = best_a[pos]
    return SolveResult(
        best_schedule=tuple(schedule),
        optimum=int(best_w),
        leaves_explored=leaves_explored,
        nodes_pruned=nodes_pruned,
    )


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
