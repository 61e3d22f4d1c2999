import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import (
    BudgetExceeded,
    InvalidInstance,
    InvalidMachineIndex,
    InvalidSchedule,
    LengthMismatch,
    MumpspInstance,
    PartitionInstance,
    brute_force_opt,
    decide,
    decide_partition,
    loads,
    magic_schedule,
    make_instance,
    mpsp_to_mumpsp,
    mumpsp_flatten,
    mumpsp_user_makespans,
    partition_to_2psp,
    schedule_to_partition,
    subset_sum_oracle,
)
from makespan import reductions, solver
from makespan.model import MAX_MACHINES


def subset_enumeration_oracle(weights, target):
    """Independent oracle: scan all subsets explicitly."""
    for r in range(len(weights) + 1):
        for combo in combinations(weights, r):
            if sum(combo) == target:
                return True
    return False


@st.composite
def weight_sets(draw):
    """1 to 14 weights, narrow (1-6) or wide (10^5-10^6): drawn one by one,
    all equal, or with one weight above half the total.  About half the
    totals come out odd."""
    n = draw(st.integers(1, 14))
    low, high = draw(st.sampled_from([(1, 6), (10**5, 10**6)]))
    shape = draw(st.sampled_from(["drawn", "equal", "heavy"]))
    if shape == "equal":
        return [draw(st.integers(low, high))] * n
    weights = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    if shape == "heavy":
        weights[draw(st.integers(0, n - 1))] = sum(weights) + draw(st.integers(low, high))
    return weights


def _raise(*args, **kwargs):
    raise AssertionError("decide_partition must not call this")


def all_ordered_schedules(m, n):
    """Every (assignment, per-machine order) pair for one user's n jobs."""
    for assign in product(range(1, m + 1), repeat=n):
        groups = [[i + 1 for i in range(n) if assign[i] == j] for j in range(1, m + 1)]
        for orders in product(*(permutations(g) for g in groups)):
            yield tuple(tuple((1, i) for i in row) for row in orders)


class TestPartitionInstance:
    def test_total(self):
        assert PartitionInstance((2, 3, 5, 4)).total_weight == 14

    def test_zero_weight(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance((1, 0, 3))

    def test_negative_weight(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance((1, -2, 3))

    def test_empty(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance(())


class TestPartitionTo2psp:
    def test_even_total(self):
        instance, threshold = partition_to_2psp(PartitionInstance((2, 3, 5, 4)))
        assert instance.machine_count == 2
        assert instance.processing_times == (2, 3, 5, 4)
        assert threshold == 7

    def test_odd_total_fractional_threshold(self):
        _, threshold = partition_to_2psp(PartitionInstance((1, 1, 3)))
        assert threshold == Fraction(5, 2)


class TestDecidePartition:
    def test_yes(self):
        assert decide_partition(PartitionInstance((2, 3, 5, 4))) is True

    def test_no_odd_total(self):
        assert decide_partition(PartitionInstance((1, 1, 3))) is False

    def test_yes_pair(self):
        assert decide_partition(PartitionInstance((5, 5))) is True

    def test_no_even_total(self):
        assert decide_partition(PartitionInstance((1, 1, 6))) is False

    def test_budget_past_the_digit_limit(self):
        # an even total, so the answer is not settled before the scan
        with pytest.raises(BudgetExceeded, match=r"^2\^14285 leaves exceed the budget"):
            decide_partition(PartitionInstance((2,) * 14285))

    def test_budget_at_27_weights(self):
        with pytest.raises(BudgetExceeded) as info:
            decide_partition(PartitionInstance((2,) * 27))
        assert str(info.value) == "2^27 leaves exceed the budget of 67108864"

    def test_odd_total_past_the_budget(self):
        # 27 weights: the odd total answers before the 2^27 refusal
        assert decide_partition(PartitionInstance((1,) + (2,) * 26)) is False

    def test_top_of_the_budget(self, monkeypatch):
        # 26 weights, 2^26 leaves: a yes set, and a no set whose weights are
        # all even while half their total is odd; totals stay within the
        # oracle's sum budget
        rng = random.Random(0)
        yes_set = [rng.randint(10**5, 5 * 10**5) for _ in range(26)]
        yes_set[-1] += sum(yes_set) % 2
        no_set = [2 * rng.randint(5 * 10**4, 25 * 10**4 - 1) for _ in range(26)]
        no_set[-1] += 2 * (1 - sum(no_set) // 2 % 2)
        expected = [subset_sum_oracle(ws, sum(ws) // 2) for ws in (yes_set, no_set)]
        assert expected == [True, False]
        # neither scan nor search nor oracle: the answer is the half sums'
        for module, name in (
            (solver, "brute_force_opt"),
            (solver, "_search"),
            (reductions, "subset_sum_oracle"),
        ):
            monkeypatch.setattr(module, name, _raise)
        answers = [decide_partition(PartitionInstance(ws)) for ws in (yes_set, no_set)]
        assert answers == expected

    @given(weight_sets())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_three_oracles(self, weights):
        pp = PartitionInstance(weights)
        total = pp.total_weight
        instance, _ = partition_to_2psp(pp)
        answer = decide_partition(pp)
        assert answer == (total % 2 == 0 and subset_sum_oracle(weights, total // 2, total))
        assert answer == (2 * brute_force_opt(instance).optimum == total)
        # the balanced-split procedure answers from the same half-sum kernel
        # as decide_partition and builds its split by the pruned search; the
        # bitset DP and the full scan above stay the independent checks
        assert answer == magic_schedule(instance).success

    def test_agrees_with_subset_scan(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 10)
            weights = tuple(rng.randint(1, 25) for _ in range(n))
            total = sum(weights)
            expected = total % 2 == 0 and subset_enumeration_oracle(weights, total // 2)
            assert decide_partition(PartitionInstance(weights)) == expected

    def test_witness_round_trips(self):
        pp = PartitionInstance((2, 3, 5, 4))
        instance, threshold = partition_to_2psp(pp)
        yes, witness = decide(instance, int(threshold))
        assert yes
        first, second = schedule_to_partition(witness.schedule)
        assert sum(pp.weights[i - 1] for i in first) == 7
        assert sum(pp.weights[i - 1] for i in second) == 7


class TestEntryMessages:
    """Each list of positive ints names the first entry that fails."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: make_instance(2, [1, 0]), "processing time of job 2 must be >= 1, got 0"),
            (
                lambda: make_instance(2, [1, 2.5]),
                "processing time of job 2 must be an integer, got 2.5",
            ),
            (lambda: PartitionInstance((1, True)), "weight 2 must be an integer, got True"),
            (
                lambda: MumpspInstance(2, ((1,), (3, 0))),
                "processing time 2 of user 2 must be >= 1, got 0",
            ),
            (lambda: subset_sum_oracle([1, -2], 1), "weight 2 must be >= 1, got -2"),
        ],
    )
    def test_message(self, build, message):
        with pytest.raises(InvalidInstance) as info:
            build()
        assert str(info.value) == message


class TestScheduleToPartition:
    def test_mixed(self):
        assert schedule_to_partition((1, 2, 2, 1)) == ({1, 4}, {2, 3})

    def test_all_first(self):
        assert schedule_to_partition((1, 1, 1)) == ({1, 2, 3}, set())

    def test_swapped(self):
        assert schedule_to_partition((2, 1)) == ({2}, {1})

    @pytest.mark.parametrize("schedule", [(1, 3, 1), (1, True), (1, 2.0)])
    def test_not_two_machines(self, schedule):
        with pytest.raises(InvalidMachineIndex):
            schedule_to_partition(schedule)


class TestSubsetSumOracle:
    def test_reachable(self):
        assert subset_sum_oracle([2, 3, 5, 4], 7) is True

    def test_small(self):
        assert subset_sum_oracle([1, 1, 3], 2) is True

    def test_parity_gap(self):
        assert subset_sum_oracle([2, 4, 6], 5) is False

    def test_empty_subset(self):
        assert subset_sum_oracle([3, 4], 0) is True

    def test_above_total(self):
        assert subset_sum_oracle([3, 4], 8) is False

    def test_negative_target(self):
        assert subset_sum_oracle([3, 4], -1) is False

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            subset_sum_oracle([10, 10], 10, sum_budget=15)

    def test_budget_longer_than_the_digit_limit(self):
        # a budget of 5001 digits is named by its bit length, not printed
        with pytest.raises(BudgetExceeded, match=r"sum budget of a 16610-bit number$"):
            subset_sum_oracle([10**5000, 1], 1, sum_budget=10**5000)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInstance):
            subset_sum_oracle([1, 0], 1)

    def test_matches_enumeration(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 10)
            weights = [rng.randint(1, 20) for _ in range(n)]
            target = rng.randint(0, sum(weights) + 3)
            assert subset_sum_oracle(weights, target) == subset_enumeration_oracle(
                weights, target
            )


class TestMumpspModel:
    def test_wrap_single_user(self, demo_instance):
        wrapped = mpsp_to_mumpsp(demo_instance)
        assert wrapped.machine_count == 2
        assert wrapped.user_job_lists == ((1, 1, 3),)
        assert wrapped.user_count == 1
        assert wrapped.job_count == 3

    def test_wrap_one_job(self):
        wrapped = mpsp_to_mumpsp(make_instance(3, [7]))
        assert wrapped.user_job_lists == ((7,),)

    def test_round_trip(self, demo_instance):
        assert mumpsp_flatten(mpsp_to_mumpsp(demo_instance)) == demo_instance

    def test_validation(self):
        with pytest.raises(InvalidInstance):
            MumpspInstance(1, ((1,),))
        with pytest.raises(InvalidInstance):
            MumpspInstance(2, ())
        with pytest.raises(InvalidInstance):
            MumpspInstance(2, ((1,), ()))
        with pytest.raises(InvalidInstance):
            MumpspInstance(2, ((1, 0),))
        with pytest.raises(InvalidInstance):
            MumpspInstance("3", ((1,),))

    def test_machine_ceiling(self):
        # Instance's ceiling and message, so mumpsp_flatten refuses no built record
        message = rf"^machine count must be <= {MAX_MACHINES}, got {MAX_MACHINES + 1}$"
        with pytest.raises(InvalidInstance, match=message):
            MumpspInstance(MAX_MACHINES + 1, ((1,),))
        widest = MumpspInstance(MAX_MACHINES, ((1,),))
        assert mumpsp_flatten(widest) == make_instance(MAX_MACHINES, [1])


class TestUserMakespans:
    def test_single_user(self):
        instance = MumpspInstance(2, ((1, 1, 3),))
        schedule = (((1, 1), (1, 2)), ((1, 3),))
        assert mumpsp_user_makespans(instance, schedule) == [3]

    def test_two_users_symmetric(self):
        instance = MumpspInstance(2, ((2,), (2,)))
        schedule = (((1, 1),), ((2, 1),))
        assert mumpsp_user_makespans(instance, schedule) == [2, 2]

    def test_waiting_behind_other_user(self):
        instance = MumpspInstance(2, ((1,), (3,)))
        schedule = (((2, 1), (1, 1)), ())
        assert mumpsp_user_makespans(instance, schedule) == [4, 3]

    def test_missing_job(self):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule):
            mumpsp_user_makespans(instance, (((1, 1),), ()))

    def test_duplicate_job(self):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule):
            mumpsp_user_makespans(instance, (((1, 1), (1, 1)), ((1, 2),)))

    def test_unknown_job(self):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule):
            mumpsp_user_makespans(instance, (((1, 1), (1, 2)), ((2, 1),)))

    @pytest.mark.parametrize(
        "entry", [(1,), 5, (1, 2, 3), ([1], 2), (1.0, 2), (True, 2), (1, 2.0)]
    )
    def test_malformed_entry(self, entry):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule):
            mumpsp_user_makespans(instance, (((1, 1), entry), ()))

    @pytest.mark.parametrize(
        "schedule, machine",
        [
            pytest.param((1, 2), 1, id="flat assignment"),
            pytest.param((((1, 1), (1, 2)), None), 2, id="None row"),
        ],
    )
    def test_row_not_iterable(self, schedule, machine):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule, match=rf"^machine row {machine} is "):
            mumpsp_user_makespans(instance, schedule)

    @pytest.mark.parametrize(
        "schedule",
        [
            pytest.param(3, id="int"),
            pytest.param(None, id="None"),
            pytest.param(iter((((1, 1), (1, 2)), ())), id="iterator of rows"),
        ],
    )
    def test_schedule_without_length(self, schedule):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(InvalidSchedule, match=rf"^schedule is {re.escape(repr(schedule))}, "):
            mumpsp_user_makespans(instance, schedule)

    def test_wrong_machine_rows(self):
        instance = MumpspInstance(2, ((1, 2),))
        with pytest.raises(LengthMismatch):
            mumpsp_user_makespans(instance, (((1, 1), (1, 2)),))

    def test_overall_max_is_order_independent(self):
        rng = random.Random(47)
        for _ in range(30):
            m = rng.choice((2, 3))
            n = rng.randint(1, 6)
            times = [rng.randint(1, 9) for _ in range(n)]
            instance = MumpspInstance(m, (tuple(times),))
            assignment = [rng.randint(1, m) for _ in range(n)]
            machine_loads = loads(make_instance(m, times), assignment)
            rows = [[i + 1 for i in range(n) if assignment[i] == j] for j in range(1, m + 1)]
            for row in rows:
                rng.shuffle(row)
            schedule = tuple(tuple((1, i) for i in row) for row in rows)
            result = mumpsp_user_makespans(instance, schedule)
            assert max(result) == max(machine_loads)


class TestSingleUserEquivalence:
    def test_min_user_makespan_equals_optimum(self):
        rng = random.Random(53)
        cases = [(2, [1, 1, 3]), (3, [2, 2, 2, 3])]
        cases += [
            (rng.choice((2, 3)), [rng.randint(1, 9) for _ in range(rng.randint(1, 4))])
            for _ in range(6)
        ]
        for m, times in cases:
            instance = make_instance(m, times)
            wrapped = mpsp_to_mumpsp(instance)
            best = min(
                mumpsp_user_makespans(wrapped, ordered)[0]
                for ordered in all_ordered_schedules(m, len(times))
            )
            assert best == brute_force_opt(instance).optimum
