"""Problem reductions and the multi-user scheduling data model.

Two transformations live here.  The first maps a partition instance (a
multiset of positive weights) to a two-machine scheduling instance with the
half-total threshold: the weight multiset splits evenly iff some schedule
meets that threshold, and witnesses translate both ways by reading machine 1
as the chosen subset.  The second maps an ordinary instance to the
single-user case of the multi-user model, where jobs arrive in per-user lists
and each user cares about the completion time of their own last job.

``subset_sum_oracle`` is an independent pseudo-polynomial dynamic program
over achievable sums, kept free of the tree machinery so it can cross-check
the reduction end to end.

Multi-user schedules carry an explicit per-machine job order because per-user
completion times depend on it (the overall makespan does not).  Machines run
their sequences back to back from time 0 with no inserted idleness.
"""

from typing import TYPE_CHECKING, Iterable, Sequence

from .model import (
    BudgetExceeded,
    Instance,
    InvalidInstance,
    InvalidMachineIndex,
    InvalidSchedule,
    LengthMismatch,
    _budget_text,
    _int_at_least,
    _positive_ints,
    _Record,
    _set_field,
    make_instance,
)
from . import solver
from .verifier import decide  # noqa: F401  bench/spans.py wraps reductions.decide

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_SUM_BUDGET = 1 << 24

# Per-machine job sequences; each entry is a (user, index) pair, both 1-based.
OrderedSchedule = tuple[tuple[tuple[int, int], ...], ...]


class PartitionInstance(_Record):
    """A multiset of positive integer weights to split into two equal-sum
    halves."""

    __slots__ = __match_args__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]) -> None:
        weights = tuple(weights)
        if not weights:
            raise InvalidInstance("need at least one weight")
        _positive_ints(weights, "weight {}")
        _set_field(self, "weights", weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


class MumpspInstance(_Record):
    """Multi-user instance: m machines plus one non-empty job list per user."""

    __slots__ = __match_args__ = ("machine_count", "user_job_lists")
    machine_count: int
    user_job_lists: tuple[tuple[int, ...], ...]

    def __init__(
        self, machine_count: int, user_job_lists: Iterable[Iterable[int]]
    ) -> None:
        lists = tuple(tuple(jobs) for jobs in user_job_lists)
        _int_at_least(machine_count, 2, "machine count")
        if not lists:
            raise InvalidInstance("need at least one user")
        for r, jobs in enumerate(lists, 1):
            if not jobs:
                raise InvalidInstance(f"user {r} has no jobs")
            _positive_ints(jobs, f"processing time {{}} of user {r}")
        _set_field(self, "machine_count", machine_count)
        _set_field(self, "user_job_lists", lists)

    @property
    def user_count(self) -> int:
        return len(self.user_job_lists)

    @property
    def job_count(self) -> int:
        return sum(len(jobs) for jobs in self.user_job_lists)


def partition_to_2psp(pp: PartitionInstance) -> tuple[Instance, "Fraction"]:
    """Map a partition instance to (two-machine instance, half-total
    threshold).

    Weights become processing times verbatim; the threshold is the exact
    rational total/2, integral iff the total is even.  O(n).
    """
    # imported here, so that every command that needs no fraction starts
    # without it
    from fractions import Fraction

    instance = make_instance(2, pp.weights)
    return instance, Fraction(pp.total_weight, 2)


def decide_partition(pp: PartitionInstance) -> bool:
    """True iff the weights split into two subsets of equal sum.

    The same question as whether the mapped two-machine instance has a
    schedule of makespan total/2: machine 1's jobs are one of the subsets.
    The answer is solver._splits_evenly's, the half-sum kernel it shares
    with the balanced-split procedure: no tree is walked, an odd total is a
    no, and an even total past 2^n > DEFAULT_LEAF_BUDGET raises
    BudgetExceeded before any work.
    """
    return solver._splits_evenly(pp.weights)


def schedule_to_partition(schedule: Sequence[int]) -> tuple[set[int], set[int]]:
    """Read a two-machine schedule as (jobs on machine 1, jobs on machine 2),
    as sets of 1-based indices.  Raises InvalidMachineIndex on any entry that
    is not the plain int 1 or 2 (so not True or 2.0, as in loads)."""
    first: set[int] = set()
    second: set[int] = set()
    for job, machine in enumerate(schedule, 1):
        if type(machine) is not int or machine not in (1, 2):
            raise InvalidMachineIndex(
                f"job {job} assigned to machine {machine!r}; expected 1 or 2"
            )
        (first if machine == 1 else second).add(job)
    return first, second


def subset_sum_oracle(
    weights: Iterable[int], target: int, sum_budget: int = DEFAULT_SUM_BUDGET
) -> bool:
    """True iff some subset of the weights sums exactly to target.

    Pseudo-polynomial dynamic program over achievable sums, encoded as a
    bitset (bit s set = sum s reachable).  Independent of the tree machinery
    by design, so it can serve as a conformance oracle for the reduction.
    Raises BudgetExceeded when the weight total exceeds sum_budget.
    """
    ws = list(weights)
    _positive_ints(ws, "weight {}")
    if target < 0:
        return False
    total = sum(ws)
    if total > sum_budget:
        raise BudgetExceeded(
            f"the weight total exceeds the sum budget of {_budget_text(sum_budget)}"
        )
    if target > total:
        return False
    reachable = 1  # bit 0: the empty subset
    for w in ws:
        reachable |= reachable << w
    return bool((reachable >> target) & 1)


def mpsp_to_mumpsp(instance: Instance) -> MumpspInstance:
    """Wrap an instance as its single-user multi-user equivalent (one user
    owning the whole job list).  O(n)."""
    return MumpspInstance(instance.machine_count, (instance.processing_times,))


def mumpsp_flatten(instance: MumpspInstance) -> Instance:
    """Forget user boundaries: the plain instance over all jobs in user order."""
    return make_instance(instance.machine_count, [p for jobs in instance.user_job_lists for p in jobs])


def mumpsp_user_makespans(
    instance: MumpspInstance, schedule: OrderedSchedule
) -> list[int]:
    """Per-user makespans under an ordered schedule.

    Each machine runs its sequence back to back from time 0; a job's
    completion time is the sum of its own and all earlier times on its
    machine, and a user's makespan is the latest completion among their jobs.
    Raises InvalidSchedule when the schedule has no length (an int, None or
    an iterator), a machine row is not iterable or any job is missing,
    duplicated, or unknown, and LengthMismatch when the machine rows do not
    match the instance.
    """
    try:
        rows = len(schedule)
    except TypeError:
        raise InvalidSchedule(f"schedule is {schedule!r}, not a sequence of machine rows") from None
    if rows != instance.machine_count:
        raise LengthMismatch(
            f"schedule has {rows} machine rows, instance has {instance.machine_count} machines"
        )
    expected = {
        (r, i)
        for r, jobs in enumerate(instance.user_job_lists, 1)
        for i in range(1, len(jobs) + 1)
    }
    seen: set[tuple[int, int]] = set()
    result = [0] * instance.user_count
    for machine, row in enumerate(schedule, 1):
        try:
            entries = iter(row)
        except TypeError:  # a flat assignment such as (1, 2)
            raise InvalidSchedule(
                f"machine row {machine} is {row!r}, not a sequence of (user, index) jobs"
            ) from None
        clock = 0
        for entry in entries:
            try:
                user, index = entry
                # plain ints only: (1.0, 1) and (True, 1) both equal (1, 1)
                known = type(user) is type(index) is int and (user, index) in expected
            except (TypeError, ValueError):  # not a (user, index) pair
                known = False
            if not known:
                raise InvalidSchedule(f"unknown job {entry!r}, expected (user, index)")
            if (user, index) in seen:
                raise InvalidSchedule(
                    f"job (user {user}, index {index}) appears more than once"
                )
            seen.add((user, index))
            clock += instance.user_job_lists[user - 1][index - 1]
            if clock > result[user - 1]:
                result[user - 1] = clock
    if seen != expected:
        missing = sorted(expected - seen)
        raise InvalidSchedule(
            f"{len(missing)} job(s) never scheduled, first: "
            f"(user {missing[0][0]}, index {missing[0][1]})"
        )
    return result
