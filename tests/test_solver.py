import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import (
    BudgetExceeded,
    Certificate,
    NotTwoMachines,
    SolveResult,
    branch_and_bound,
    brute_force_opt,
    certificate_strategy,
    decide,
    exhaustive_strategy,
    loads,
    magic_schedule,
    make_instance,
    makespan,
    prove,
    random_strategy,
)
from makespan import solver as solver_module


def oracle_min_makespan(m, times):
    """Independent exhaustive oracle: direct product scan with plain sums."""
    best = None
    best_assign = None
    for assign in product(range(1, m + 1), repeat=len(times)):
        machine_loads = [0] * m
        for p, j in zip(times, assign):
            machine_loads[j - 1] += p
        value = max(machine_loads)
        if best is None or value < best:
            best, best_assign = value, assign
    return best, best_assign


def half_sum_reachable(times):
    """Independent subset-sum check via a plain set of achievable sums."""
    total = sum(times)
    if total % 2:
        return False
    sums = {0}
    for p in times:
        sums |= {s + p for s in sums}
    return total // 2 in sums


class TestBruteForce:
    def test_demo_instance(self, demo_instance):
        # leaf weights of this instance are 5,3,4,4,4,4,3,5 in leaf order
        result = brute_force_opt(demo_instance)
        assert result.optimum == 3
        assert result.best_schedule == (1, 1, 2)
        assert result.leaves_explored == 8
        assert result.nodes_pruned == 0

    def test_single_job(self):
        result = brute_force_opt(make_instance(2, [4]))
        assert result.optimum == 4
        assert result.best_schedule == (1,)

    def test_perfect_split(self):
        result = brute_force_opt(make_instance(2, [2, 2]))
        assert result.optimum == 2
        assert result.best_schedule == (1, 2)

    def test_budget_checked_before_work(self):
        big = make_instance(2, [1] * 30)
        with pytest.raises(BudgetExceeded):
            brute_force_opt(big)

    def test_budget_boundary(self, demo_instance):
        assert brute_force_opt(demo_instance, leaf_budget=8).optimum == 3
        with pytest.raises(BudgetExceeded):
            brute_force_opt(demo_instance, leaf_budget=7)

    def test_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.choice((2, 3))
            n = rng.randint(1, 7)
            times = [rng.randint(1, 30) for _ in range(n)]
            instance = make_instance(m, times)
            expected_value, expected_assign = oracle_min_makespan(m, times)
            result = brute_force_opt(instance)
            assert result.optimum == expected_value
            assert result.best_schedule == expected_assign  # lexicographic least

    def test_parallel_matches_sequential(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_PARALLEL_MIN_LEAVES", 64)
        rng = random.Random(9)
        instance = make_instance(2, [rng.randint(1, 20) for _ in range(10)])
        assert brute_force_opt(instance, workers=4) == brute_force_opt(instance)


class TestBranchAndBound:
    def test_demo_instance(self, demo_instance):
        result = branch_and_bound(demo_instance)
        assert result.optimum == 3
        assert makespan(demo_instance, result.best_schedule) == 3

    def test_two_jobs_per_machine(self):
        assert branch_and_bound(make_instance(2, [6, 6, 6, 6])).optimum == 12

    def test_no_perfect_three_way_split(self):
        # 18 total over 3 machines, but {5,4,3,3,3} has no 6+6+6 partition
        instance = make_instance(3, [5, 4, 3, 3, 3])
        expected, _ = oracle_min_makespan(3, [5, 4, 3, 3, 3])
        assert expected == 7
        assert branch_and_bound(instance).optimum == 7

    def test_counters(self, demo_instance):
        result = branch_and_bound(demo_instance)
        assert result.leaves_explored >= 1
        assert result.nodes_pruned >= 0
        assert result.leaves_explored <= 8

    def test_lpt_order_same_optimum(self):
        rng = random.Random(17)
        for _ in range(25):
            m = rng.choice((2, 3))
            n = rng.randint(1, 9)
            instance = make_instance(m, [rng.randint(1, 40) for _ in range(n)])
            plain = branch_and_bound(instance)
            lpt = branch_and_bound(instance, lpt_order=True)
            assert plain.optimum == lpt.optimum
            assert makespan(instance, lpt.best_schedule) == lpt.optimum

    @given(
        st.integers(2, 3),
        st.lists(st.integers(1, 25), min_size=1, max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, m, times):
        instance = make_instance(m, times)
        assert branch_and_bound(instance).optimum == brute_force_opt(instance).optimum

    def test_stops_at_the_lower_bound(self):
        # LPT already reaches ceil(16/4); the first leaf the search meets is
        # optimal, and the search ends there
        result = branch_and_bound(make_instance(4, [1] * 16))
        assert result.optimum == 4
        assert result.leaves_explored == 1

    def test_equal_loads_tried_once(self):
        # the optimum 6 is above ceil(12/3), so the search runs to the end;
        # of its 12 cuts, 7 skip a machine whose load equals an earlier
        # machine's and 5 are load bounds against the incumbent
        result = branch_and_bound(make_instance(3, [3, 3, 3, 3]))
        assert result == SolveResult((1, 1, 2, 2), 6, 1, 7 + 5)

    def test_node_budget(self):
        # reaching the first leaf alone generates 9 * 3 children
        instance = make_instance(3, [10, 11, 12, 13, 14, 15, 16, 17, 19])
        assert branch_and_bound(instance, node_budget=10**6).optimum == 43
        with pytest.raises(BudgetExceeded):
            branch_and_bound(instance, node_budget=20)


class TestSearchWitnesses:
    """prove and decide run the pruned search, yet certify exactly what the
    full scan finds: the lexicographically least optimal schedule."""

    @given(
        st.integers(2, 4),
        st.one_of(
            st.lists(st.integers(1, 6), min_size=1, max_size=8),
            st.lists(st.integers(10**5, 10**6), min_size=1, max_size=8),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_certificate_as_the_full_scan(self, m, times):
        instance = make_instance(m, times)
        full = brute_force_opt(instance)
        expected = Certificate(full.best_schedule, full.optimum)
        assert prove(instance) == expected
        for threshold in range(full.optimum - 2, full.optimum + 3):
            if threshold >= full.optimum:
                assert decide(instance, threshold) == (True, expected)
            else:
                assert decide(instance, threshold) == (False, None)


class TestMagicSchedule:
    def test_exhaustive_success(self):
        instance = make_instance(2, [2, 3, 5, 4])
        outcome = magic_schedule(instance)
        assert outcome.success
        assert outcome.partition == (1, 2, 1, 2)  # first balanced split
        assert loads(instance, outcome.partition) == [7, 7]

    def test_exhaustive_failure_odd_total(self, demo_instance):
        outcome = magic_schedule(demo_instance)
        assert not outcome.success
        assert outcome.partition is None

    def test_exhaustive_failure_even_total(self):
        # total 8 is even, but {1,1,6} has no 4+4 split
        outcome = magic_schedule(make_instance(2, [1, 1, 6]))
        assert not outcome.success

    def test_certificate_accepts_balanced(self):
        instance = make_instance(2, [2, 2])
        assert magic_schedule(instance, certificate_strategy((1, 2))).success

    def test_certificate_rejects_unbalanced(self):
        instance = make_instance(2, [2, 2])
        outcome = magic_schedule(instance, certificate_strategy((1, 1)))
        assert not outcome.success

    def test_random_strategy_success_is_verified(self):
        instance = make_instance(2, [3, 1, 2, 2])
        outcome = magic_schedule(instance, random_strategy(seed=1, trials=200))
        assert outcome.success
        assert loads(instance, outcome.partition) == [4, 4]

    def test_random_strategy_deterministic(self):
        instance = make_instance(2, [3, 1, 2, 2])
        strategy = random_strategy(seed=1, trials=50)
        assert magic_schedule(instance, strategy) == magic_schedule(instance, strategy)

    def test_not_two_machines(self):
        with pytest.raises(NotTwoMachines):
            magic_schedule(make_instance(3, [1, 2, 3]))

    def test_exhaustive_iff_balanced_split_exists(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 12)
            times = [rng.randint(1, 30) for _ in range(n)]
            instance = make_instance(2, times)
            assert magic_schedule(instance).success == half_sum_reachable(times)

    def test_exhaustive_success_iff_optimum_is_half(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 10)
            times = [rng.randint(1, 20) for _ in range(n)]
            instance = make_instance(2, times)
            optimum = brute_force_opt(instance).optimum
            assert magic_schedule(instance).success == (2 * optimum == sum(times))

    def test_exhaustive_strategy_yields_balanced_only(self):
        instance = make_instance(2, [1, 1, 2, 2])
        for candidate in exhaustive_strategy(instance):
            assert loads(instance, candidate) == [3, 3]
