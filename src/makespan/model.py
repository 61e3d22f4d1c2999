"""Problem instances, schedules, and exact load arithmetic.

An instance is a count of identical machines plus a list of positive integer
processing times; job i (1-based) is the i-th entry of that list.  A schedule
is a total assignment of jobs to machines, stored as one machine index per
job, so disjointness and coverage of the induced per-machine job sets hold by
construction.  All load arithmetic is exact integer arithmetic, which keeps
every downstream equality check bit-exact.

Machine indices are 1-based everywhere in the public surface.
"""

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# A complete schedule: entry i-1 names the machine (1..m) running job i.
Schedule = tuple[int, ...]

# Every load vector has one entry per machine, so an instance may have at
# most this many machines: 8 MiB of pointers per vector.
MAX_MACHINES = 1 << 20

# Most leaves the full scan may price, or nodes the pruned search may
# generate, unless the caller passes a budget: shared by solver, verifier and CLI.
DEFAULT_LEAF_BUDGET = 1 << 26

# Most nodes the widest level of a DOT rendering may hold, unless the caller
# passes a cap: shared by tree and CLI.
DEFAULT_NODE_CAP = 4096


class SchedulingError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstance(SchedulingError):
    """Instance parameters violate the model (m < 2 or m > 2^20, no jobs, or
    p < 1), or an operation defined for two machines got another count."""


class InvalidSchedule(SchedulingError):
    """Per-machine job sets or job sequences do not run each job exactly
    once."""


class LengthMismatch(SchedulingError):
    """An assignment's length differs from the instance's job count."""


class InvalidMachineIndex(SchedulingError):
    """An assignment entry is not an int in 1..machine_count."""


class DomainError(SchedulingError):
    """An argument outside a function's domain: counting arguments outside
    m >= 2, n >= 1 (or h >= 0), a level outside the tree, or the children of
    a leaf."""


class BudgetExceeded(SchedulingError):
    """The requested exploration would exceed the configured budget."""


def _int_at_least(
    value: object, low: int, what: str, error: type[SchedulingError] = InvalidInstance
) -> int:
    """The one integer rule for machine counts, processing times and weights:
    a plain int (so not a bool) that is at least `low`, else `error`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def _positive_ints(values: Sequence[object], what: str) -> None:
    """Refuse the first entry that is not a plain int >= 1, as _int_at_least
    would, naming entry i (from 1) what.format(i) only once it fails.

    The first walk tests each value and nothing else; only when one fails
    does a second walk count the entries to name it."""
    for v in values:
        if type(v) is not int or v < 1:
            break
    else:
        return
    for i, v in enumerate(values, 1):
        if type(v) is not int or v < 1:
            _int_at_least(v, 1, what.format(i))


def _power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """base**exponent > bound, for ints all >= 0, without building a power
    much longer than the bound: the one rule for refusing m^k up front.

    base**exponent is at least 2**(exponent * (bits - 1)) for a base of
    `bits` bits, so once that exponent reaches the bound's bit length the
    answer is yes.  Otherwise, for a base >= 2, the power has fewer than
    twice the bound's bits (a base of 0 or 1 gives 0 or 1)."""
    if exponent * (base.bit_length() - 1) >= bound.bit_length():
        return True
    return base**exponent > bound


def _budget_text(budget: int) -> str:
    """A caller's budget as a refusal names it: its digits, or its bit length
    when it has more digits than the interpreter's int-to-str limit allows,
    so that printing it cannot turn a BudgetExceeded into a ValueError."""
    try:
        return str(budget)
    except ValueError:
        return f"a {budget.bit_length()}-bit number"


# Stores a record's field past _Record.__setattr__; bound once, so that a
# record's __init__ is no slower than a frozen dataclass's.
_set_field = object.__setattr__


class _Record:
    """Base of the package's immutable value records.

    A record lists its fields, in order, as both `__slots__` and
    `__match_args__`, and its `__init__` checks the values and stores each
    with _set_field.  Records compare and hash by their field values,
    and only against a record of the same class; repr names every field;
    assignment and deletion raise AttributeError; pickle and copy rebuild a
    record through its class, so its checks run again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Instance(_Record):
    """m identical machines plus one positive processing time per job.

    Any job count n >= 1 is accepted; n is not required to exceed the machine
    count (a single job on many machines is a valid, if lopsided, instance).
    """

    __slots__ = __match_args__ = ("machine_count", "processing_times")
    machine_count: int
    processing_times: tuple[int, ...]

    def __init__(self, machine_count: int, processing_times: Iterable[int]) -> None:
        times = tuple(processing_times)
        m = _int_at_least(machine_count, 2, "machine count")
        if m > MAX_MACHINES:
            raise InvalidInstance(f"machine count must be <= {MAX_MACHINES}, got {m}")
        if not times:
            raise InvalidInstance("need at least one job")
        _positive_ints(times, "processing time of job {}")
        _set_field(self, "machine_count", m)
        _set_field(self, "processing_times", times)

    @property
    def job_count(self) -> int:
        return len(self.processing_times)

    @property
    def total_work(self) -> int:
        return sum(self.processing_times)


def make_instance(machine_count: int, processing_times: Iterable[int]) -> Instance:
    """Validate and build an :class:`Instance`: raises InvalidInstance unless
    2 <= machine_count <= MAX_MACHINES and there are jobs, each an int >= 1."""
    return Instance(machine_count, tuple(processing_times))


def loads(instance: Instance, schedule: Sequence[int]) -> list[int]:
    """Per-machine load vector: entry j-1 sums the times of jobs on machine j.

    This is the one validated walk of a schedule: raises LengthMismatch
    unless the schedule has a length and one entry per job (so None, an int
    or an iterator is refused), and InvalidMachineIndex for any entry that is
    not a plain int (so not a bool) in 1..machine_count.  The entries always
    sum to the instance's total work.
    """
    try:
        length = len(schedule)
    except TypeError:
        raise LengthMismatch(
            f"assignment {schedule!r} has no length, instance has {instance.job_count} jobs"
        ) from None
    if length != instance.job_count:
        raise LengthMismatch(
            f"assignment has {length} entries, instance has {instance.job_count} jobs"
        )
    m = instance.machine_count
    # out[j] is machine j's load, so an entry indexes it as it is; out[0]
    # stays 0, and an entry past m raises IndexError
    out = [0] * (m + 1)
    try:
        for p, machine in zip(instance.processing_times, schedule):
            if type(machine) is not int or machine < 1:
                break
            out[machine] += p
        else:
            del out[0]
            return out
    except IndexError:
        pass
    # some entry failed: only now count the entries to name the first one
    for job, machine in enumerate(schedule, 1):
        if type(machine) is not int or not 1 <= machine <= m:
            raise InvalidMachineIndex(
                f"job {job} assigned to machine {machine!r}, valid range is 1..{m}"
            )


def makespan(instance: Instance, schedule: Sequence[int]) -> int:
    """Largest machine load under the given schedule."""
    return max(loads(instance, schedule))


def is_essential(instance: Instance, schedule: Sequence[int]) -> bool:
    """True when every machine runs at least one job."""
    loads(instance, schedule)  # raises unless the schedule is valid
    return len(set(schedule)) == instance.machine_count


def theoretical_opt(instance: Instance) -> "Fraction":
    """Perfectly balanced makespan total_work / machine_count as an exact
    fraction.

    This is only a lower bound on the achievable makespan and is deliberately
    not rounded; the attainable optimum comes from the solvers.
    """
    # imported here, so that every command that needs no fraction starts
    # without it
    from fractions import Fraction

    return Fraction(instance.total_work, instance.machine_count)


def job_sets(instance: Instance, schedule: Sequence[int]) -> list[set[int]]:
    """Partition view of a schedule: 1-based job ids per machine.

    Derived from the assignment on demand, never stored.
    """
    loads(instance, schedule)  # raises unless the schedule is valid
    sets: list[set[int]] = [set() for _ in range(instance.machine_count)]
    for job, machine in enumerate(schedule, 1):
        sets[machine - 1].add(job)
    return sets


def schedule_from_job_sets(job_sets_: Sequence[Iterable[int]]) -> Schedule:
    """Build a schedule from per-machine job sets (machine j = entry j-1).

    The sets must hold plain int job ids (so not True or 1.0), be pairwise
    disjoint and cover 1..n exactly; raises InvalidSchedule otherwise.
    """
    assignment: dict[int, int] = {}
    for machine, jobs in enumerate(job_sets_, 1):
        for job in jobs:
            if type(job) is not int:
                raise InvalidSchedule(f"job id {job!r} is not an integer")
            if job in assignment:
                raise InvalidSchedule(f"job {job} appears on more than one machine")
            assignment[job] = machine
    # n distinct ids cover 1..n unless one lies outside it
    n = len(assignment)
    for job in assignment:
        if not 1 <= job <= n:
            raise InvalidSchedule(f"job id {job} is outside 1..{n}")
    return tuple(assignment[job] for job in range(1, n + 1))
