import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import (
    Certificate,
    Instance,
    InvalidInstance,
    InvalidMachineIndex,
    InvalidSchedule,
    LengthMismatch,
    MsOutcome,
    MumpspInstance,
    PartitionInstance,
    SchedulingError,
    SolveResult,
    TreeNode,
    Verdict,
    is_essential,
    job_sets,
    loads,
    magic_schedule,
    make_instance,
    makespan,
    schedule_from_job_sets,
    theoretical_opt,
    walk_path,
)
from makespan.files import FileFormatError, parse_certificate
from makespan.model import MAX_MACHINES, _power_exceeds


@st.composite
def instances(draw, max_machines=4, max_jobs=8, max_time=20):
    m = draw(st.integers(2, max_machines))
    times = draw(st.lists(st.integers(1, max_time), min_size=1, max_size=max_jobs))
    return make_instance(m, times)


@st.composite
def instances_with_schedule(draw):
    instance = draw(instances())
    schedule = tuple(
        draw(st.integers(1, instance.machine_count))
        for _ in range(instance.job_count)
    )
    return instance, schedule


class TestMakeInstance:
    def test_basic(self):
        inst = make_instance(2, [1, 1, 3])
        assert inst.machine_count == 2
        assert inst.processing_times == (1, 1, 3)
        assert inst.job_count == 3
        assert inst.total_work == 5

    def test_single_job(self):
        inst = make_instance(2, [5])
        assert inst.processing_times == (5,)

    def test_zero_time_rejected(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [1, 0, 3])

    def test_one_machine_rejected(self):
        with pytest.raises(InvalidInstance):
            make_instance(1, [1, 2])

    def test_empty_jobs_rejected(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInstance):
            make_instance(2, [1, 2.5])
        with pytest.raises(InvalidInstance):
            make_instance(2, [1, True])

    def test_direct_construction_validates_too(self):
        with pytest.raises(InvalidInstance):
            Instance(0, (1,))

    def test_machine_count_bound(self):
        assert make_instance(MAX_MACHINES, [1]).machine_count == MAX_MACHINES
        with pytest.raises(InvalidInstance, match=f"machine count must be <= {MAX_MACHINES}"):
            make_instance(MAX_MACHINES + 1, [1])


@st.composite
def power_cases(draw):
    """(base, exponent, bound) with the bound next to the power, 0 or random."""
    base = draw(st.integers(0, 2**70))
    exponent = draw(st.integers(0, 200))
    power = base**exponent
    bound = draw(st.sampled_from([power - 1, power, power + 1, 0]) | st.integers(0, 2**15000))
    return base, exponent, max(bound, 0)


class TestPowerExceeds:
    @given(power_cases())
    def test_equals_the_power(self, case):
        base, exponent, bound = case
        assert _power_exceeds(base, exponent, bound) == (base**exponent > bound)

    def test_decided_without_the_power(self):
        # (2^20 - 1)^(2^20) has about 2^24.3 bits; only the bit lengths are used
        assert _power_exceeds(2**20 - 1, 2**20, 2**26) is True


class TestLoads:
    def test_split(self, demo_instance):
        assert loads(demo_instance, (1, 1, 2)) == [2, 3]

    def test_monochromatic(self, demo_instance):
        assert loads(demo_instance, (1, 1, 1)) == [5, 0]

    def test_symmetric(self):
        inst = make_instance(3, [4, 4, 4])
        assert loads(inst, (1, 2, 3)) == [4, 4, 4]

    def test_length_mismatch(self, demo_instance):
        with pytest.raises(LengthMismatch):
            loads(demo_instance, (1, 1))

    # a schedule with no length is refused as one of the wrong length, never
    # with the TypeError of len()
    @pytest.mark.parametrize(
        "schedule",
        [None, 5, iter([1, 2]), (machine for machine in (1, 1, 2))],
        ids=["None", "int", "iterator", "generator"],
    )
    def test_no_length(self, demo_instance, schedule):
        with pytest.raises(LengthMismatch, match="has no length, instance has 3 jobs"):
            loads(demo_instance, schedule)

    @pytest.mark.parametrize("validate", [makespan, is_essential, job_sets, walk_path])
    def test_no_length_through_every_validator(self, demo_instance, validate):
        with pytest.raises(LengthMismatch):
            validate(demo_instance, iter((1, 1, 2)))

    def test_no_length_candidate(self):
        instance = make_instance(2, [1, 1])
        with pytest.raises(LengthMismatch):
            magic_schedule(instance, lambda _: [iter((1, 2))])

    def test_bad_machine(self, demo_instance):
        with pytest.raises(InvalidMachineIndex):
            loads(demo_instance, (1, 3, 1))
        with pytest.raises(InvalidMachineIndex):
            loads(demo_instance, (1, 0, 1))
        with pytest.raises(InvalidMachineIndex, match="job 2 assigned to machine True"):
            loads(demo_instance, (1, True, 1))
        with pytest.raises(InvalidMachineIndex, match="job 3 assigned to machine '1'"):
            loads(demo_instance, (1, 1, "1"))


class TestMakespan:
    @pytest.mark.parametrize(
        "schedule,expected",
        [((1, 1, 2), 3), ((1, 2, 2), 4), ((2, 2, 2), 5)],
    )
    def test_values(self, demo_instance, schedule, expected):
        assert makespan(demo_instance, schedule) == expected


class TestIsEssential:
    def test_both_used(self, demo_instance):
        assert is_essential(demo_instance, (1, 1, 2)) is True

    def test_one_machine_idle(self, demo_instance):
        assert is_essential(demo_instance, (1, 1, 1)) is False

    def test_three_machines_one_idle(self):
        inst = make_instance(3, [1, 1, 1])
        assert is_essential(inst, (1, 2, 2)) is False


class TestTheoreticalOpt:
    def test_fractional(self, demo_instance):
        assert theoretical_opt(demo_instance) == Fraction(5, 2)

    def test_balanced(self):
        assert theoretical_opt(make_instance(2, [2, 2])) == 2

    def test_three_machines(self):
        assert theoretical_opt(make_instance(3, [1, 1, 1])) == 1


class TestJobSets:
    def test_round_trip(self, demo_instance):
        sets = job_sets(demo_instance, (1, 2, 1))
        assert sets == [{1, 3}, {2}]
        assert schedule_from_job_sets(sets) == (1, 2, 1)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidSchedule):
            schedule_from_job_sets([{1, 2}, {2}])

    def test_gap_rejected(self):
        with pytest.raises(InvalidSchedule):
            schedule_from_job_sets([{1}, {3}])

    @pytest.mark.parametrize(
        "sets,message",
        [
            ([[0], [1]], "job id 0 is outside 1..2"),
            ([[-1, 1, 2]], "job id -1 is outside 1..3"),
            ([{1}, {3}], "job id 3 is outside 1..2"),
        ],
        ids=["zero", "negative", "past-n"],
    )
    def test_id_outside_range_named(self, sets, message):
        with pytest.raises(InvalidSchedule) as excinfo:
            schedule_from_job_sets(sets)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("sets", [[{True}, {2}], [{1}, {2.0}]])
    def test_non_int_job_rejected(self, sets):
        with pytest.raises(InvalidSchedule, match="is not an integer"):
            schedule_from_job_sets(sets)

    @pytest.mark.parametrize(
        "sets,message",
        [
            ([1, 2], "machine 1's job set is 1, not a set of job ids"),
            ([{1}, None], "machine 2's job set is None, not a set of job ids"),
            (None, "job sets are None, not a sequence of sets of job ids"),
        ],
        ids=["flat-assignment", "none-row", "none"],
    )
    def test_not_iterable_named(self, sets, message):
        # a flat assignment such as (1, 2) is not a list of job sets
        with pytest.raises(InvalidSchedule) as excinfo:
            schedule_from_job_sets(sets)
        assert str(excinfo.value) == message


class TestInvariants:
    @given(instances_with_schedule())
    @settings(max_examples=150, deadline=None)
    def test_load_conservation(self, case):
        instance, schedule = case
        assert sum(loads(instance, schedule)) == instance.total_work

    @given(instances_with_schedule())
    @settings(max_examples=150, deadline=None)
    def test_makespan_lower_bounds(self, case):
        instance, schedule = case
        value = makespan(instance, schedule)
        assert value >= math.ceil(instance.total_work / instance.machine_count)
        assert value >= max(instance.processing_times)

    @given(instances_with_schedule(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_machine_relabeling_invariance(self, case, rng):
        instance, schedule = case
        relabel = list(range(1, instance.machine_count + 1))
        rng.shuffle(relabel)
        permuted = tuple(relabel[j - 1] for j in schedule)
        assert makespan(instance, permuted) == makespan(instance, schedule)

    @given(instances_with_schedule())
    @settings(max_examples=150, deadline=None)
    def test_essential_characterization(self, case):
        instance, schedule = case
        if instance.job_count < instance.machine_count:
            assert is_essential(instance, schedule) is False
        if instance.machine_count == 2:
            constant = len(set(schedule)) == 1
            assert is_essential(instance, schedule) == (not constant)


# Entries that some reader refuses: not plain ints, or ints outside a range.
# The machine number m + 1 is added where there is an m.
BAD_ENTRIES = (True, 1.0, "1", None, 0, -1, 10**30)


@st.composite
def with_bad_entries(draw, good, extra=()):
    """A list of `good` values with one to three entries of BAD_ENTRIES (or
    `extra`) inserted anywhere, the first and the last place most often."""
    values = draw(st.lists(good, max_size=12))
    bad = st.sampled_from(BAD_ENTRIES + tuple(extra))
    for _ in range(draw(st.integers(1, 3))):
        place = st.sampled_from([0, len(values)]) | st.integers(0, len(values))
        values.insert(draw(place), draw(bad))
    return values


def raised(call):
    """(class, message) of the SchedulingError `call` raises, or None."""
    try:
        call()
    except SchedulingError as exc:
        return type(exc), str(exc)
    return None


def reference_loads(m, times, schedule):
    """Plain walk: the load vector, or the first bad entry's error."""
    out = [0] * m
    for job, (p, machine) in enumerate(zip(times, schedule), 1):
        if type(machine) is not int or not 1 <= machine <= m:
            message = f"job {job} assigned to machine {machine!r}, valid range is 1..{m}"
            return InvalidMachineIndex, message
        out[machine - 1] += p
    return out


def reference_positive(values, what):
    """Plain walk: the error for the first entry i (from 1) that is not a
    plain int >= 1, named what.format(i), or None."""
    for i, v in enumerate(values, 1):
        if type(v) is not int:
            return InvalidInstance, f"{what.format(i)} must be an integer, got {v!r}"
        if v < 1:
            return InvalidInstance, f"{what.format(i)} must be >= 1, got {v}"
    return None


class TestNamingWalks:
    """Each reader tests values in a tight loop and counts entries only once
    one fails; its error must be the one a plain counting walk names."""

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_loads(self, m, data):
        schedule = data.draw(with_bad_entries(st.integers(1, m), extra=(m + 1,)))
        times = data.draw(st.lists(st.integers(1, 10**6), min_size=len(schedule),
                                   max_size=len(schedule)))
        instance = make_instance(m, times)
        expected = reference_loads(m, times, schedule)
        assert raised(lambda: loads(instance, schedule)) == expected
        assert raised(lambda: loads(instance, tuple(schedule))) == expected

    @given(st.integers(2, 300), st.data())
    @settings(max_examples=150, deadline=None)
    def test_loads_of_valid_schedules(self, m, data):
        # n below m too, so that some machines run no job
        times = data.draw(st.lists(st.integers(1, 10**30), min_size=1, max_size=2 * m))
        schedule = data.draw(st.lists(st.integers(1, m), min_size=len(times),
                                      max_size=len(times)))
        assert loads(make_instance(m, times), schedule) == reference_loads(m, times, schedule)

    @given(with_bad_entries(st.integers(1, 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_instance(self, times):
        expected = reference_positive(times, "processing time of job {}")
        assert raised(lambda: Instance(3, times)) == expected

    @given(with_bad_entries(st.integers(1, 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_partition_instance(self, weights):
        expected = reference_positive(weights, "weight {}")
        assert raised(lambda: PartitionInstance(weights)) == expected

    @given(
        st.lists(st.lists(st.integers(1, 10**30), min_size=1, max_size=4), min_size=1,
                 max_size=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mumpsp_instance(self, users, data):
        # one or more users get bad entries
        for r in data.draw(st.sets(st.integers(0, len(users) - 1), min_size=1)):
            users[r] = data.draw(with_bad_entries(st.integers(1, 10**30)))
        expected = None
        for r, jobs in enumerate(users, 1):
            expected = reference_positive(jobs, f"processing time {{}} of user {r}")
            if expected:
                break
        assert raised(lambda: MumpspInstance(2, users)) == expected

    @given(with_bad_entries(st.integers(-(10**30), 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_certificate_file(self, assignment):
        # the reader wants plain ints of any value; loads checks the range
        expected = None
        for i, v in enumerate(assignment):
            if type(v) is not int:
                expected = FileFormatError, f"assignment[{i}]: expected an integer, got {v!r}"
                break
        data = {"assignment": assignment, "makespan": 1}
        assert raised(lambda: parse_certificate(data)) == expected
        if expected is None:
            assert parse_certificate(data) == Certificate(tuple(assignment), 1)


# Every record type, its field names in order, and two objects' field values
# that differ only in the last field.
RECORDS = [
    (Instance, ("machine_count", "processing_times"), (2, (3, 1)), (2, (3, 2))),
    (PartitionInstance, ("weights",), ((3, 1),), ((3, 2),)),
    (MumpspInstance, ("machine_count", "user_job_lists"), (2, ((3,), (1, 1))), (2, ((3,),))),
    (
        SolveResult,
        ("best_schedule", "optimum", "leaves_explored", "nodes_pruned"),
        ((1, 2), 3, 4, 0),
        ((1, 2), 3, 4, 1),
    ),
    (MsOutcome, ("success", "partition"), (True, (1, 2)), (True, (2, 1))),
    (TreeNode, ("level", "assignment_prefix", "load_vector"), (1, (2,), (0, 3)), (1, (2,), (3, 0))),
    (Certificate, ("schedule", "claimed_makespan"), ((1, 2), 3), ((1, 2), 4)),
    (
        Verdict,
        ("code", "reason", "claimed", "actual", "threshold"),
        ("reject_above_threshold", None, None, 4, 3),
        ("reject_above_threshold", None, None, 4, 2),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, values, other", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
class TestRecordValues:
    """Every record is a frozen value: fields in order, compared and hashed by
    value within its own class, and rebuilt equal by pickle and copy."""

    def test_equal_fields_equal_objects(self, cls, fields, values, other):
        a, b = cls(*values), cls(**dict(zip(fields, values)))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert tuple(getattr(a, name) for name in fields) == values
        assert cls.__match_args__ == fields
        assert a != cls(*other)

    def test_other_class_with_the_same_fields_is_unequal(self, cls, fields, values, other):
        same_fields = type("SameFields", (cls,), {"__slots__": ()})
        assert cls(*values) != same_fields(*values)
        assert same_fields(*values) != cls(*values)
        assert cls(*values) != values

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, values, other):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*values)

    def test_new_attribute_raises_attribute_error(self, cls, fields, values, other):
        # a frozen slotted dataclass raised TypeError here
        with pytest.raises(AttributeError):
            cls(*values).extra = 1

    def test_repr_names_each_field(self, cls, fields, values, other):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"

    def test_pickle_and_copy_round_trip(self, cls, fields, values, other):
        record = cls(*values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is cls and again == record
        assert type(copy.copy(record)) is cls and copy.copy(record) == record
        assert copy.deepcopy(record) == record


def test_record_defaults():
    assert Verdict("accept") == Verdict("accept", None, None, None, None)
    assert Verdict(code="accept", actual=3).actual == 3
    assert MsOutcome(False) == MsOutcome(False, None)
    assert MsOutcome(success=False).partition is None
