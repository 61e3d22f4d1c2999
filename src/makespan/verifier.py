"""One-shot prover/verifier exchange for scheduling certificates.

A certificate is a schedule plus the makespan its prover claims for it.  The
verifier replays the certificate as a root-to-leaf walk of the assignment
tree, carrying the load vector along the path, and accepts only when the walk
is valid, the claimed makespan equals the leaf weight, and the claim is
within the caller's threshold.  Verification costs O(n + m) time: one
addition per job, then the m-entry load vector and its max.  That is within
the O(n * m) bound that puts the problem in NP, and independent of the m^n
solution space.

Thresholds are integers (every achievable makespan is one); callers holding
the fractional ideal bound should pass its ceiling.  ``decide`` answers the
threshold decision question exactly by the pruned search, and ``prove`` plays
the prover role by emitting the optimal certificate.
"""

from .model import (
    DEFAULT_LEAF_BUDGET,
    Instance,
    InvalidMachineIndex,
    LengthMismatch,
    Schedule,
    _Record,
    _set_field,
    loads,
)
from .solver import (
    _search,
    brute_force_opt,  # noqa: F401  bench/spans.py wraps verifier.brute_force_opt
)

ACCEPT = "accept"
REJECT_INVALID_SCHEDULE = "reject_invalid_schedule"
REJECT_WRONG_MAKESPAN = "reject_wrong_makespan"
REJECT_ABOVE_THRESHOLD = "reject_above_threshold"

REASON_LENGTH_MISMATCH = "length_mismatch"
REASON_BAD_MACHINE_INDEX = "machine_index_out_of_range"

# The detail fields each verdict code carries, in the order describe() prints
# them after the code.
_DETAILS = {
    ACCEPT: (),
    REJECT_INVALID_SCHEDULE: ("reason",),
    REJECT_WRONG_MAKESPAN: ("claimed", "actual"),
    REJECT_ABOVE_THRESHOLD: ("actual", "threshold"),
}


class Certificate(_Record):
    """A schedule plus the makespan claimed for it.  Nothing is validated at
    construction; checking the claim is the verifier's job."""

    __slots__ = __match_args__ = ("schedule", "claimed_makespan")
    schedule: Schedule
    claimed_makespan: int

    def __init__(self, schedule: Schedule, claimed_makespan: int) -> None:
        _set_field(self, "schedule", schedule)
        _set_field(self, "claimed_makespan", claimed_makespan)


class Verdict(_Record):
    """Exactly one verdict variant, selected by `code`; the remaining fields
    carry that variant's machine-readable detail."""

    __slots__ = __match_args__ = ("code", "reason", "claimed", "actual", "threshold")
    code: str
    reason: str | None
    claimed: int | None
    actual: int | None
    threshold: int | None

    def __init__(
        self,
        code: str,
        reason: str | None = None,
        claimed: int | None = None,
        actual: int | None = None,
        threshold: int | None = None,
    ) -> None:
        _set_field(self, "code", code)
        _set_field(self, "reason", reason)
        _set_field(self, "claimed", claimed)
        _set_field(self, "actual", actual)
        _set_field(self, "threshold", threshold)

    @property
    def accepted(self) -> bool:
        return self.code == ACCEPT

    def describe(self) -> str:
        return " ".join(
            [self.code] + [f"{name}={getattr(self, name)}" for name in _DETAILS[self.code]]
        )


def verify_certificate(
    instance: Instance, cert: Certificate, threshold: int
) -> Verdict:
    """Check a certificate against an instance and a threshold.

    Accepts iff (a) the schedule is a valid root-to-leaf path (n entries, each
    in 1..m), (b) the claimed makespan equals the recomputed leaf weight, and
    (c) the claim is <= threshold.  Every failure is a verdict variant, never
    an exception.

    The walk is model.loads, which carries only the load vector down the
    path: one addition per job, then the max of the m loads, so the check is
    O(n + m) time (within the paper's O(n * m) bound) and O(m) extra space.
    """
    try:
        actual = max(loads(instance, cert.schedule))
    except LengthMismatch:
        return Verdict(REJECT_INVALID_SCHEDULE, reason=REASON_LENGTH_MISMATCH)
    except InvalidMachineIndex:
        return Verdict(REJECT_INVALID_SCHEDULE, reason=REASON_BAD_MACHINE_INDEX)
    # True == 1 and 3.0 == 3, but a leaf weight is always a plain int
    if type(cert.claimed_makespan) is not int or cert.claimed_makespan != actual:
        return Verdict(REJECT_WRONG_MAKESPAN, claimed=cert.claimed_makespan, actual=actual)
    if actual > threshold:
        return Verdict(REJECT_ABOVE_THRESHOLD, actual=actual, threshold=threshold)
    return Verdict(ACCEPT)


def prove(
    instance: Instance, node_budget: int = DEFAULT_LEAF_BUDGET
) -> Certificate:
    """Prover role: the optimal certificate, lexicographically least.

    Always passes verify_certificate with threshold equal to its own claim.
    Propagates BudgetExceeded once the search generates more than
    `node_budget` nodes.
    """
    # every schedule is within the total work, so this "yes" is the optimum
    return decide(instance, instance.total_work, node_budget)[1]


def decide(
    instance: Instance, threshold: int, node_budget: int = DEFAULT_LEAF_BUDGET
) -> tuple[bool, Certificate | None]:
    """Decision question: does any schedule reach makespan <= threshold?

    Returns (True, witness certificate) or (False, None).  The witness is the
    optimal certificate, so it passes verify_certificate at the same
    threshold.  Monotone in the threshold.  Propagates BudgetExceeded once
    the search generates more than `node_budget` nodes.
    """
    result = _search(
        instance.machine_count, instance.processing_times, threshold, node_budget
    )
    if not result.best_schedule:
        return False, None
    return True, Certificate(result.best_schedule, result.optimum)
