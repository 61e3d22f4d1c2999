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
    SolveResult,
    TreeNode,
    Verdict,
    is_essential,
    job_sets,
    loads,
    make_instance,
    makespan,
    schedule_from_job_sets,
    theoretical_opt,
)
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

    @pytest.mark.parametrize("sets", [[{True}, {2}], [{1}, {2.0}]])
    def test_non_int_job_rejected(self, sets):
        with pytest.raises(InvalidSchedule, match="is not an integer"):
            schedule_from_job_sets(sets)


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
