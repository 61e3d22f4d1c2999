"""One-shot prover/verifier exchange for scheduling certificates.

A certificate is a schedule plus the makespan its prover claims for it.  The
verifier replays the certificate as a root-to-leaf walk of the assignment
tree, carrying the load vector along the path, and accepts only when the walk
is valid, the claimed makespan equals the leaf weight, and the claim is
within the caller's threshold.  Verification costs O(n * m) time, independent
of the m^n solution space.

Thresholds are integers (every achievable makespan is one); callers holding
the fractional ideal bound should pass its ceiling.  ``decide`` answers the
threshold decision question exactly by the pruned search, and ``prove`` plays
the prover role by emitting the optimal certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, InvalidMachineIndex, LengthMismatch, Schedule, loads
from .solver import (
    DEFAULT_LEAF_BUDGET,
    SolveResult,
    _check_leaf_budget,
    _lpt_makespan,
    _search,
    brute_force_opt,  # noqa: F401  bench/spans.py wraps verifier.brute_force_opt
)

ACCEPT = "accept"
REJECT_INVALID_SCHEDULE = "reject_invalid_schedule"
REJECT_WRONG_MAKESPAN = "reject_wrong_makespan"
REJECT_ABOVE_THRESHOLD = "reject_above_threshold"

REASON_LENGTH_MISMATCH = "length_mismatch"
REASON_BAD_MACHINE_INDEX = "machine_index_out_of_range"


@dataclass(frozen=True, slots=True)
class Certificate:
    """A schedule plus the makespan claimed for it.  Nothing is validated at
    construction; checking the claim is the verifier's job."""

    schedule: Schedule
    claimed_makespan: int


@dataclass(frozen=True, slots=True)
class Verdict:
    """Exactly one verdict variant, selected by `code`; the remaining fields
    carry that variant's machine-readable detail."""

    code: str
    reason: str | None = None
    claimed: int | None = None
    actual: int | None = None
    threshold: int | None = None

    @property
    def accepted(self) -> bool:
        return self.code == ACCEPT

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(ACCEPT)

    @classmethod
    def invalid_schedule(cls, reason: str) -> "Verdict":
        return cls(REJECT_INVALID_SCHEDULE, reason=reason)

    @classmethod
    def wrong_makespan(cls, claimed: int, actual: int) -> "Verdict":
        return cls(REJECT_WRONG_MAKESPAN, claimed=claimed, actual=actual)

    @classmethod
    def above_threshold(cls, actual: int, threshold: int) -> "Verdict":
        return cls(REJECT_ABOVE_THRESHOLD, actual=actual, threshold=threshold)

    def describe(self) -> str:
        if self.code == ACCEPT:
            return ACCEPT
        if self.code == REJECT_INVALID_SCHEDULE:
            return f"{self.code} reason={self.reason}"
        if self.code == REJECT_WRONG_MAKESPAN:
            return f"{self.code} claimed={self.claimed} actual={self.actual}"
        return f"{self.code} actual={self.actual} threshold={self.threshold}"


def verify_certificate(
    instance: Instance, cert: Certificate, threshold: int
) -> Verdict:
    """Check a certificate against an instance and a threshold.

    Accepts iff (a) the schedule is a valid root-to-leaf path (n entries, each
    in 1..m), (b) the claimed makespan equals the recomputed leaf weight, and
    (c) the claim is <= threshold.  Every failure is a verdict variant, never
    an exception.

    The walk is model.loads, which carries only the load vector down the
    path, so the check is O(n * m) time and O(m) extra space.
    """
    try:
        actual = max(loads(instance, cert.schedule))
    except LengthMismatch:
        return Verdict.invalid_schedule(REASON_LENGTH_MISMATCH)
    except InvalidMachineIndex:
        return Verdict.invalid_schedule(REASON_BAD_MACHINE_INDEX)
    # True == 1 and 3.0 == 3, but a leaf weight is always a plain int
    if type(cert.claimed_makespan) is not int or cert.claimed_makespan != actual:
        return Verdict.wrong_makespan(cert.claimed_makespan, actual)
    if actual > threshold:
        return Verdict.above_threshold(actual, threshold)
    return Verdict.accept()


def _least_schedule(
    instance: Instance, threshold: int, leaf_budget: int
) -> SolveResult:
    """The pruned search over the jobs in file order: the lexicographically
    least optimal schedule when the optimum is at most `threshold`, else
    best_schedule ().  Raises BudgetExceeded before any work when
    m^n > leaf_budget."""
    m, times = instance.machine_count, instance.processing_times
    _check_leaf_budget(m, len(times), leaf_budget)
    return _search(m, times, min(_lpt_makespan(m, times), threshold) + 1)


def prove(
    instance: Instance, leaf_budget: int = DEFAULT_LEAF_BUDGET
) -> Certificate:
    """Prover role: the optimal certificate, lexicographically least.

    Always passes verify_certificate with threshold equal to its own claim.
    Propagates BudgetExceeded for instances beyond the leaf budget.
    """
    # the total work bounds every makespan, so this threshold cuts nothing
    result = _least_schedule(instance, instance.total_work, leaf_budget)
    return Certificate(result.best_schedule, result.optimum)


def decide(
    instance: Instance, threshold: int, leaf_budget: int = DEFAULT_LEAF_BUDGET
) -> tuple[bool, Certificate | None]:
    """Decision question: does any schedule reach makespan <= threshold?

    Returns (True, witness certificate) or (False, None).  The witness is the
    optimal certificate, so it passes verify_certificate at the same
    threshold.  Monotone in the threshold.  Propagates BudgetExceeded.
    """
    result = _least_schedule(instance, threshold, leaf_budget)
    if not result.best_schedule:
        return False, None
    return True, Certificate(result.best_schedule, result.optimum)
