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

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    Instance,
    InvalidInstance,
    LengthMismatch,
    NotTwoMachines,
    SchedulingError,
    _int_at_least,
    make_instance,
)
from . import solver
from .solver import DEFAULT_LEAF_BUDGET, BudgetExceeded
from .verifier import decide  # noqa: F401  bench/spans.py wraps reductions.decide

DEFAULT_SUM_BUDGET = 1 << 24

# Per-machine job sequences; each entry is a (user, index) pair, both 1-based.
OrderedSchedule = tuple[tuple[tuple[int, int], ...], ...]


class ZeroWeight(SchedulingError):
    """A partition weight below 1 cannot map to a processing time."""


class CoverageMismatch(SchedulingError):
    """An ordered schedule does not run each job exactly once."""


@dataclass(frozen=True, slots=True)
class PartitionInstance:
    """A multiset of positive integer weights to split into two equal-sum
    halves."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ZeroWeight("need at least one weight")
        for i, w in enumerate(self.weights, 1):
            _int_at_least(w, 1, f"weight {i}", ZeroWeight)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True, slots=True)
class MumpspInstance:
    """Multi-user instance: m machines plus one non-empty job list per user."""

    machine_count: int
    user_job_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "user_job_lists",
            tuple(tuple(jobs) for jobs in self.user_job_lists),
        )
        _int_at_least(self.machine_count, 2, "machine count")
        if not self.user_job_lists:
            raise InvalidInstance("need at least one user")
        for r, jobs in enumerate(self.user_job_lists, 1):
            if not jobs:
                raise InvalidInstance(f"user {r} has no jobs")
            for i, p in enumerate(jobs, 1):
                _int_at_least(p, 1, f"processing time {i} of user {r}")

    @property
    def user_count(self) -> int:
        return len(self.user_job_lists)

    @property
    def job_count(self) -> int:
        return sum(len(jobs) for jobs in self.user_job_lists)


def partition_to_2psp(pp: PartitionInstance) -> tuple[Instance, Fraction]:
    """Map a partition instance to (two-machine instance, half-total
    threshold).

    Weights become processing times verbatim; the threshold is the exact
    rational total/2, integral iff the total is even.  O(n).
    """
    instance = make_instance(2, pp.weights)
    return instance, Fraction(pp.total_weight, 2)


def decide_partition(
    pp: PartitionInstance, leaf_budget: int = DEFAULT_LEAF_BUDGET
) -> bool:
    """True iff the weights split into two subsets of equal sum.

    Answered through the scheduling side: an even total and an optimum of the
    mapped instance of at most total/2.  The optimum comes from the full scan,
    not the pruned search behind `decide`, so the cost is 2^n leaves whatever
    the weights are; the search's cost swings with where, and whether, a
    balanced split lies.  Propagates BudgetExceeded.
    """
    instance, half = partition_to_2psp(pp)
    if half.denominator != 1:
        return False
    return solver.brute_force_opt(instance, leaf_budget).optimum <= half


def schedule_to_partition(schedule: Sequence[int]) -> tuple[set[int], set[int]]:
    """Read a two-machine schedule as (jobs on machine 1, jobs on machine 2),
    as sets of 1-based indices.  Raises NotTwoMachines on any other machine
    index."""
    first: set[int] = set()
    second: set[int] = set()
    for job, machine in enumerate(schedule, 1):
        if machine == 1:
            first.add(job)
        elif machine == 2:
            second.add(job)
        else:
            raise NotTwoMachines(
                f"job {job} assigned to machine {machine}; expected 1 or 2"
            )
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
    for i, w in enumerate(ws, 1):
        _int_at_least(w, 1, f"weight {i}", ZeroWeight)
    if target < 0:
        return False
    total = sum(ws)
    if total > sum_budget:
        raise BudgetExceeded(
            f"weight total {total} exceeds the sum budget of {sum_budget}"
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
    times: list[int] = []
    for jobs in instance.user_job_lists:
        times.extend(jobs)
    return make_instance(instance.machine_count, times)


def mumpsp_user_makespans(
    instance: MumpspInstance, schedule: OrderedSchedule
) -> list[int]:
    """Per-user makespans under an ordered schedule.

    Each machine runs its sequence back to back from time 0; a job's
    completion time is the sum of its own and all earlier times on its
    machine, and a user's makespan is the latest completion among their jobs.
    Raises CoverageMismatch when any job is missing, duplicated, or unknown,
    and LengthMismatch when the machine rows do not match the instance.
    """
    if len(schedule) != instance.machine_count:
        raise LengthMismatch(
            f"schedule has {len(schedule)} machine rows, instance has "
            f"{instance.machine_count} machines"
        )
    expected = {
        (r, i)
        for r, jobs in enumerate(instance.user_job_lists, 1)
        for i in range(1, len(jobs) + 1)
    }
    seen: set[tuple[int, int]] = set()
    result = [0] * instance.user_count
    for row in schedule:
        clock = 0
        for entry in row:
            try:
                user, index = entry
                known = (user, index) in expected
            except (TypeError, ValueError):  # not a hashable (user, index) pair
                known = False
            if not known:
                raise CoverageMismatch(f"unknown job {entry!r}, expected (user, index)")
            if (user, index) in seen:
                raise CoverageMismatch(
                    f"job (user {user}, index {index}) appears more than once"
                )
            seen.add((user, index))
            clock += instance.user_job_lists[user - 1][index - 1]
            if clock > result[user - 1]:
                result[user - 1] = clock
    if seen != expected:
        missing = sorted(expected - seen)
        raise CoverageMismatch(
            f"{len(missing)} job(s) never scheduled, first: "
            f"(user {missing[0][0]}, index {missing[0][1]})"
        )
    return result
