"""Exact makespan solvers over the assignment tree.

``brute_force_opt`` prices every one of the m^n leaves and returns the
lexicographically least optimal schedule.  ``_search`` is the one pruned
search: identical-machine symmetry breaking, an LPT incumbent, a cut at the
incumbent, a wasted-space cut, a load-window cut over the subset sums of the
last jobs (off at m=2; tables for at most n // 2 + 2 levels, capped at
_WINDOW_LEVELS; a bound on the gap between consecutive sums is worked out for
each such level when the search starts, and the check is skipped while the
slack is at least that bound) and a stop at the lower bound.  It searches the
times divided by their common factor.
``branch_and_bound``, ``exhaustive_strategy`` and the verifier's ``prove``
and ``decide`` run it, and it returns the same optimum as the full scan.
``_splits_evenly`` decides from two lists of half sums whether weights split
into two equal sums, and owns the split rules: an odd total is a no, and
past 2^n > DEFAULT_LEAF_BUDGET it refuses.  ``decide_partition`` and
``exhaustive_strategy`` share it: the half sums decide, the search builds
the least split.  ``magic_schedule`` is the two-machine balanced-split
procedure: it succeeds only when a schedule's makespan equals the ideal
half-total exactly, with the nondeterministic choice of partition supplied
as a testable strategy (the least balanced split, a fixed certificate, or
random sampling).
"""

import heapq
import itertools
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence

from .model import (
    DEFAULT_LEAF_BUDGET,
    BudgetExceeded,
    Instance,
    InvalidInstance,
    Schedule,
    _power_exceeds,
    _Record,
    _refuse_leaves_past,
    _set_field,
    loads,
)

# The full scan's tail table holds at most this many loads: m^k rows of m.
_TAIL_CELLS = 1 << 12

# The pruned search's window cut keeps the subset sums of the jobs left for
# at most this many levels, so for at most 2^14 sums a level and 2^15 in all:
# with times below 2^30 a search's tracemalloc peak stays under 2 MiB.
_WINDOW_LEVELS = 14


class SolveResult(_Record):
    """Outcome of an exact solve.

    leaves_explored counts priced leaves; nodes_pruned counts the children
    the pruned search does not expand: machines skipped because an earlier
    machine has the same load, children whose largest load reaches the
    incumbent, children cut for wasted space, and children cut because the
    jobs left cannot bring some machine into its load window (always 0 for
    the full scan).
    """

    __slots__ = __match_args__ = ("best_schedule", "optimum", "leaves_explored", "nodes_pruned")
    best_schedule: Schedule
    optimum: int
    leaves_explored: int
    nodes_pruned: int

    def __init__(
        self, best_schedule: Schedule, optimum: int, leaves_explored: int, nodes_pruned: int
    ) -> None:
        _set_field(self, "best_schedule", best_schedule)
        _set_field(self, "optimum", optimum)
        _set_field(self, "leaves_explored", leaves_explored)
        _set_field(self, "nodes_pruned", nodes_pruned)


def brute_force_opt(
    instance: Instance,
    leaf_budget: int = DEFAULT_LEAF_BUDGET,
    workers: int = 1,
) -> SolveResult:
    """Exact optimum by pricing all m^n leaves, with no incumbent cut.

    Returns the least makespan and the lexicographically least schedule of
    that makespan.  The k jobs just above the last one form the tail, k the
    most that fit above it with m^(k+1) <= _TAIL_CELLS.  A table lists, per
    machine, the load each of the m^k tail assignments adds to it, in
    lexicographic order.  The levels above the tail are the head, whose
    nodes are visited in lexicographic order; at each, every table row is
    priced at once.  Placing the last job q on machine j only raises j's
    load, so with `top` and `low` the row's largest and smallest load that
    leaf weighs max(top, load_j + q): the row's least leaf is
    max(top, low + q), reached first on the first j with load_j + q at most
    that.  Each machine but the last takes two list passes over the rows,
    one for `top` and one for `low`; one more pass prices the last machine
    and the last job together.  With t and l the largest and smallest load
    of the other machines and y the last machine's, the row's least leaf is
    max(y, l + q) when y > t, max(t, y + q) when y < l, and max(t, l + q)
    otherwise.  The first minimum in row order, and a strict improvement
    across head nodes, keep the lexicographically least witness.  Memory is
    O(n*m + 2^12) cells, and the scan runs in this process.  Raises
    BudgetExceeded before starting any work, or taking m^n, when
    m^n > leaf_budget.
    `workers` is accepted and ignored; it goes once the benchmark stops
    passing it.
    """
    m = instance.machine_count
    times = instance.processing_times
    n = len(times)
    _refuse_leaves_past(m, n, leaf_budget, "budget")
    last = n - 1
    q = times[last]
    k = 0
    while k < last and m ** (k + 2) <= _TAIL_CELLS:
        k += 1
    mid = last - k
    machines = range(m)
    columns = [[0] for _ in machines]
    for p in times[mid:last]:
        columns = [
            [x + p if a == j else x for x in column for a in machines]
            for j, column in enumerate(columns)
        ]
    head_times = times[:mid]
    best_w: float = float("inf")
    for head in itertools.product(machines, repeat=mid):
        current = [0] * m
        for p, j in zip(head_times, head):
            current[j] += p
        # loads are kept relative to machine 1's, which saves one pass
        c0 = current[0]
        top = low = columns[0]
        for j in range(1, m - 1):
            d = current[j] - c0
            column = columns[j]
            top = [t if t > x + d else x + d for t, x in zip(top, column)]
            low = [t if t < x + d else x + d for t, x in zip(low, column)]
        # the last machine's load y and the last job q priced in one pass
        d = current[-1] - c0
        acc = [
            (y if y > l + q else l + q) if y > t
            else (t if t > y + q else y + q) if y < l
            else (t if t > l + q else l + q)
            for t, l, x in zip(top, low, columns[-1])
            for y in (x + d,)
        ]
        w = min(acc) + c0
        if w < best_w:
            best_w, best_current, best_head = w, current, head
            best_row = acc.index(w - c0)

    row = best_row
    tail = []
    for _ in range(k):
        row, a = divmod(row, m)
        tail.append(a)
    last_machine = next(
        j
        for j, (c, column) in enumerate(zip(best_current, columns))
        if c + column[best_row] + q <= best_w
    )
    rest = (*best_head, *reversed(tail), last_machine)
    return SolveResult(
        best_schedule=tuple(a + 1 for a in rest),
        optimum=int(best_w),
        leaves_explored=m**n,
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
    m: int, times: tuple[int, ...], threshold: int, node_budget: int
) -> SolveResult:
    """The pruned depth-first search over the assignment tree, behind
    branch_and_bound, exhaustive_strategy, prove and decide.

    Returns the lexicographically least schedule of least makespan at most
    `threshold`, or best_schedule () when there is none.  Every makespan is
    a multiple of g, the common factor of the times, so the search runs on
    times // g against threshold // g and scales its optimum back by g: the
    same schedules pass, in the same order, so the witness is the same, and
    a bound that no schedule meets only for want of the factor (an odd
    ceil(total/m) over even times) is not left to be proved by exhausting
    the tree.  The incumbent starts at limit = min(LPT makespan, threshold)
    + 1 on the divided times: the +1 lets the search still reach the least
    schedule when LPT is already optimal, and a "no" returns limit * g.
    Machines are tried in index order, and of several machines with equal
    current load only the first: relabelling the others gives a
    lexicographically larger schedule of the same makespan.  A child is cut
    when its largest load reaches the incumbent; the other lower bounds,
    ceil(total/m) and the largest remaining job, never exceed `target`, so
    they are below the incumbent for as long as the search runs.  A child is
    also cut for wasted space: a machine whose load is within the shortest
    remaining job of cap = incumbent - 1 can take no more jobs, and when the
    space so lost exceeds the slack m*cap - total, the remaining jobs cannot
    fit under cap.  A child is last cut by its load window (Korf 2009;
    Schreiber, Korf & Moffitt 2018): below cap every final load lies in
    [total - (m-1)*cap, cap], so a machine of load x needs a subset of the
    jobs left whose sum brings it there.  For the last n // 2 + 2 levels,
    at most _WINDOW_LEVELS, the sorted subset sums of the jobs left are
    listed, each list on first use, and bisected once per machine.  Deeper
    tables cut nearer the root, where a cut drops more, but a level k jobs
    from the end lists 2^k sums: the rule keeps up to 13 jobs at 8 levels
    or fewer, and reaches the cap, which bounds the tables' memory, at 24
    jobs.  No two consecutive subset sums lie further apart than gap, worked
    out for each of those levels when the search starts, so while the slack
    is at least gap every window holds a sum, and neither the check nor its
    list is made.  The window cut is off at m=2, where window_from = n
    leaves gap 0 at every level: there it would make the balanced-split
    search over ten times faster, but the benchmark keeps every op's record,
    so the extra ops would overrun its memory bound until those records take
    fixed memory.  All three cuts drop only subtrees without a schedule
    below the incumbent, so the witness does not depend on them.
    The search stops as soon as the incumbent reaches `target`, which no
    schedule beats.

    Raises BudgetExceeded once more than `node_budget` nodes are generated
    (all m children of each expanded node count), or when a path from the
    root is deeper than the interpreter's recursion limit allows.
    """
    g = math.gcd(*times)
    if g > 1:
        times = tuple(p // g for p in times)
        threshold //= g
    n = len(times)
    total = sum(times)
    target = max(-(-total // m), max(times))
    limit = min(_lpt_makespan(m, times), threshold) + 1
    if limit <= target:
        return SolveResult((), limit * g, 0, 0)
    # least[k] is the shortest of the jobs from level k on (0 past the end)
    least = list(itertools.accumulate(reversed(times), min))[::-1] + [0]
    # For the levels k from window_from on, reach[k] is the sorted list of
    # subset sums of times[k:], built on first use, and no two consecutive
    # ones are further apart than gap[k]: taking those jobs shortest first,
    # a job q puts no new sum more than q - (sum of the shorter ones) above
    # an old one.  gap is 0 on the other levels.
    window_from = n - min(n // 2 + 2, _WINDOW_LEVELS) if m > 2 else n
    reach: list[list[int] | None] = [None] * n + [[0]]
    gap = [0] * n
    for k in range(max(window_from, 0), n):
        shorter = widest = 0
        for q in sorted(times[k:]):
            if q - shorter > widest:
                widest = q - shorter
            shorter += q
        gap[k] = widest

    def subset_sums(k: int) -> list[int]:
        below = reach[k + 1] or subset_sums(k + 1)
        p = times[k]
        sums = reach[k] = sorted(below + [s + p for s in below])
        return sums

    current = [0] * m
    assign = [0] * n
    best = limit
    # m*cap - total, the room below cap = best - 1 that the jobs leave; at
    # least 0 while the search runs, since cap stays at or above target
    slack = m * (limit - 1) - total
    best_a: Schedule = ()
    leaves = pruned = generated = 0
    last = n - 1
    machines = range(m)

    def visit(level: int, high: int) -> bool:
        """Expand the node at `level` whose largest load is `high`; True once
        the incumbent is optimal."""
        nonlocal best, best_a, leaves, pruned, generated, slack
        generated += m
        if generated > node_budget:
            raise BudgetExceeded(f"the search generated more than {node_budget} nodes")
        p = times[level]
        nxt = level + 1
        shortest = least[nxt]
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
                slack = m * (top - 1) - total
                best_a = tuple(assign)
                if best <= target:
                    return True
                continue
            current[j] = load
            # Wasted space: a completion that beats the incumbent keeps every
            # load at most cap, so a machine above cap - shortest takes no
            # further job and its residual is lost.  Once more is lost than
            # the m*cap - total units of slack, the jobs left cannot fit.
            # Nothing is lost while the largest load is at most that edge, and
            # the largest load's loss alone usually settles the question.
            if top + shortest >= best:
                cap = best - 1
                waste = cap - top
                if waste <= slack:
                    edge = cap - shortest
                    waste = 0
                    for x in current:
                        if x > edge:
                            waste += cap - x
                if waste > slack:
                    current[j] = load - p
                    pruned += 1
                    continue
            # Window: a completion below the incumbent leaves every machine at
            # least floor = total - (m-1)*cap, so one of load x < floor needs
            # jobs left whose sum lies in [floor - x, cap - x].  Each window
            # is slack wide, so a slack of at least gap[nxt] leaves a sum in
            # every one.  floor - x is at most the sum of the jobs left, the
            # last entry of sums.
            if slack < gap[nxt]:
                sums = reach[nxt] or subset_sums(nxt)
                cap = best - 1
                floor = cap - slack
                cut = False
                for x in current:
                    if x < floor and sums[bisect_left(sums, floor - x)] > cap - x:
                        cut = True
                        break
                if cut:
                    current[j] = load - p
                    pruned += 1
                    continue
            done = visit(nxt, top)
            current[j] = load - p
            if done:
                return True
        return False

    try:
        visit(0, 0)
    except RecursionError:
        raise BudgetExceeded(
            f"the search nests one call per job, and {n} jobs go deeper "
            f"than the interpreter's recursion limit allows"
        ) from None
    return SolveResult(best_a, best * g, leaves, pruned)


def branch_and_bound(
    instance: Instance,
    lpt_order: bool = False,
    node_budget: int = DEFAULT_LEAF_BUDGET,
) -> SolveResult:
    """Exact optimum by the pruned search, seeded with the LPT makespan.

    The search skips machines of equal load and cuts children whose largest
    load reaches the incumbent, whose wasted space leaves the remaining jobs
    no room below it, or, from m=3 on, where no subset of the last jobs
    brings some machine into its load window (see _search).  The optimum
    always equals brute_force_opt's; the schedule is the lexicographically
    least optimal one in search order.  The jobs are searched in file order,
    or with lpt_order=True longest first, which usually finds good schedules
    much sooner; either way the one search runs on the reordered times and
    its schedule is mapped back to file order.
    Raises BudgetExceeded once the search generates more than `node_budget`
    nodes.
    """
    times = instance.processing_times
    n = len(times)
    # a stable sort keeps equal jobs in file order, reverse=True included
    order = sorted(range(n), key=times.__getitem__, reverse=True) if lpt_order else range(n)
    # the total work bounds every makespan, so this threshold cuts nothing
    result = _search(
        instance.machine_count, tuple(times[i] for i in order), instance.total_work, node_budget
    )
    schedule = [0] * n
    for job, machine in zip(order, result.best_schedule):
        schedule[job] = machine
    return SolveResult(tuple(schedule), result.optimum, result.leaves_explored, result.nodes_pruned)


class MsOutcome(_Record):
    """Success carries the balanced two-machine schedule; Failure carries
    nothing."""

    __slots__ = __match_args__ = ("success", "partition")
    success: bool
    partition: Schedule | None

    def __init__(self, success: bool, partition: Schedule | None = None) -> None:
        _set_field(self, "success", success)
        _set_field(self, "partition", partition)


# A strategy streams candidate schedules for an instance; magic_schedule
# checks each against the exact half-total target.
SelectPartitionStrategy = Callable[[Instance], Iterable[Schedule]]


def _splits_evenly(weights: Sequence[int]) -> bool:
    """True iff the weights split into two subsets of equal sum.

    An odd total is a no.  Otherwise, past 2^n > DEFAULT_LEAF_BUDGET, it
    raises the full scan's BudgetExceeded before any work, so a half never
    holds more than 2^13 sums.  Then the half sums meet in the middle
    (Horowitz & Sahni 1974): every subset sum of each half of the weights is
    listed by doubling a list, the second half's go into a set, and the
    answer is yes iff some first-half sum a has total/2 - a in it.
    """
    half, odd = divmod(sum(weights), 2)
    if odd:
        return False
    _refuse_leaves_past(2, len(weights), DEFAULT_LEAF_BUDGET, "budget")
    mid = len(weights) // 2
    halves = []
    for part in (weights[:mid], weights[mid:]):
        sums = [0]
        for w in part:
            sums += [s + w for s in sums]
        halves.append(sums)
    first, second = halves
    return not set(second).isdisjoint(half - a for a in first)


def exhaustive_strategy(instance: Instance) -> Iterator[Schedule]:
    """Yield the lexicographically least balanced split, if there is one.

    A balanced split is a schedule of makespan at most total/2.  Up to
    2^n <= DEFAULT_LEAF_BUDGET the half sums (_splits_evenly) decide whether
    a split exists, so a "no" walks no tree; on a "yes", and past that size,
    the pruned search at threshold total/2 builds the least split.  Past it
    an odd total costs the search no node: its lower bound ceil(total/2)
    already exceeds the threshold.  Raises BudgetExceeded once that search
    generates more than DEFAULT_LEAF_BUDGET nodes.
    """
    if instance.machine_count != 2:
        raise InvalidInstance(
            f"balanced-split search needs 2 machines, got {instance.machine_count}"
        )
    times = instance.processing_times
    if not _power_exceeds(2, len(times), DEFAULT_LEAF_BUDGET) and not _splits_evenly(times):
        return
    result = _search(2, times, instance.total_work // 2, DEFAULT_LEAF_BUDGET)
    if result.best_schedule:
        yield result.best_schedule


def certificate_strategy(schedule: Iterable[int]) -> SelectPartitionStrategy:
    """Strategy that proposes exactly the supplied schedule."""
    fixed = tuple(schedule)

    def candidates(instance: Instance) -> Iterator[Schedule]:
        yield fixed

    return candidates


def random_strategy(seed: int, trials: int) -> SelectPartitionStrategy:
    """Strategy that samples `trials` assignments uniformly at random."""
    import random

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
    the strategy's candidates are exhausted.  Raises InvalidInstance for
    instances with m != 2, and propagates the strategy's BudgetExceeded.  A
    candidate of the wrong length raises LengthMismatch, and one with an
    entry other than the plain int 1 or 2 raises InvalidMachineIndex (both
    from loads).
    """
    if instance.machine_count != 2:
        raise InvalidInstance(
            f"magic_schedule needs 2 machines, got {instance.machine_count}"
        )
    total = instance.total_work
    for candidate in strategy(instance):
        # C_max == total/2 exactly, kept in integers
        if 2 * max(loads(instance, candidate)) == total:
            return MsOutcome(True, tuple(candidate))
    return MsOutcome(False, None)
