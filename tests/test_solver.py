import json
import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makespan import (
    BudgetExceeded,
    Certificate,
    InvalidInstance,
    MsOutcome,
    PartitionInstance,
    SolveResult,
    branch_and_bound,
    brute_force_opt,
    certificate_strategy,
    decide,
    decide_partition,
    exhaustive_strategy,
    loads,
    magic_schedule,
    make_instance,
    makespan,
    prove,
    random_strategy,
    subset_sum_oracle,
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

    def test_budget_past_the_digit_limit(self):
        # 2^14285 has 4301 digits, more than the interpreter prints by default
        with pytest.raises(BudgetExceeded, match=r"^2\^14285 leaves exceed the budget"):
            brute_force_opt(make_instance(2, [1] * 14285))

    def test_budget_longer_than_the_digit_limit(self):
        # a budget of 5001 digits is named by its bit length, not printed
        with pytest.raises(BudgetExceeded, match=r"budget of a 16610-bit number$"):
            brute_force_opt(make_instance(2, [1] * 16700), leaf_budget=10**5000)

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

    def test_workers_change_nothing(self, monkeypatch):
        # workers= is accepted and ignored: no pool starts, the result is the
        # in-process scan's
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("the full scan started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        rng = random.Random(9)
        for n in (10, 14):
            instance = make_instance(2, [rng.randint(1, 20) for _ in range(n)])
            assert brute_force_opt(instance, workers=4) == brute_force_opt(instance)

    def test_large_scan_imports_no_pool(self, tmp_path):
        # 2^22 leaves, the size of CI's largest scans, runs in this process too
        path = tmp_path / "big.json"
        rng = random.Random(5)
        jobs = [rng.randint(1, 100_000) for _ in range(22)]
        path.write_text(json.dumps({"machines": 2, "jobs": jobs}))
        code = (
            "import sys\n"
            "from makespan.cli import main\n"
            f"code = main(['solve', {str(path)!r}, '--method', 'brute'])\n"
            "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stderr == "0 False\n"
        assert json.loads(result.stdout)["leaves_explored"] == 2**22


class TestScanSubtree:
    """The full scan, against the oracle's product scan."""

    def check(self, m, times):
        expected = oracle_min_makespan(m, tuple(times))
        result = brute_force_opt(make_instance(m, times))
        assert (result.optimum, result.best_schedule) == expected

    def test_head_levels_above_the_tail(self):
        # at m=2 the tail table holds 11 jobs, so n = 13-15 leaves head
        # levels above the tail
        rng = random.Random(41)
        for n in (13, 14, 15):
            times = [rng.randint(1, rng.choice((3, 10**6))) for _ in range(n)]
            self.check(2, times)

    def test_no_tail_jobs(self):
        # from m=65 on, m^2 > 2^12: no job but the last fits in the table
        rng = random.Random(43)
        for m in (65, 66, 70):
            self.check(m, [rng.randint(1, 50) for _ in range(2)])

    def test_small_instances(self):
        rng = random.Random(47)
        for _ in range(40):
            m = rng.randint(2, 5)
            n = rng.randint(1, 6)
            self.check(m, [rng.randint(1, 30) for _ in range(n)])

    def test_equal_times_break_ties_lexicographically(self):
        for m, n in ((2, 13), (2, 6), (3, 7), (4, 5), (70, 2)):
            self.check(m, [7] * n)

    # loads in units of 7 before the last job, per machine, at m=2 and m=3:
    # the last machine's load y against the largest (t) and the least (l) of
    # the others'; at m=2 t == l, so y between them means y == t == l
    @pytest.mark.parametrize(
        "loads_in_jobs",
        [
            pytest.param(((1, 3), (1, 2, 3)), id="y above t"),
            pytest.param(((3, 1), (2, 3, 1)), id="y below l"),
            pytest.param(((2, 2), (1, 3, 2)), id="y between"),
            pytest.param(((2, 2), (1, 3, 3)), id="y equals t"),
            pytest.param(((2, 2), (3, 1, 1)), id="y equals l"),
        ],
    )
    def test_last_machine_and_last_job_in_one_pass(self, loads_in_jobs):
        for counts in loads_in_jobs:
            # one job per machine, each longer than all the others together,
            # so every optimal leaf runs them on distinct machines and the
            # least one puts job j on machine j: its row has these loads
            # (plus 10^6 each) before the last job
            head = [10**6 + 7 * c for c in counts]
            # a last job as long as the others, so that ties must go to the
            # least leaf, and one longer than any gap between two loads
            for q in (7, 30):
                self.check(len(counts), head + [q])

    def test_random_instances(self):
        rng = random.Random(59)
        for _ in range(60):
            m = rng.randint(2, 5)
            n = rng.randint(1, {2: 14, 3: 8, 4: 6, 5: 5}[m])
            self.check(m, [rng.randint(1, rng.choice((2, 100, 10**9))) for _ in range(n)])


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
        # of its 8 cuts, 4 skip a machine whose load equals an earlier
        # machine's (2 at the root, 1 below [3, 0, 0], 1 below [6, 0, 0]),
        # 3 are load bounds against the incumbent (1 below [6, 0, 0], 2
        # below [6, 3, 0]), and 1 is for wasted space: once the leaf
        # (1, 1, 2, 2) makes the incumbent 6, the child [3, 3, 0] leaves
        # cap 5, where machines of load 3 cannot take another job of 3;
        # they lose 2 + 2 = 4, more than the slack 3 * 5 - 12 = 3
        result = branch_and_bound(make_instance(3, [3, 3, 3, 3]))
        assert result == SolveResult((1, 1, 2, 2), 6, 1, 4 + 3 + 1)

    @given(
        st.integers(2, 5),
        st.one_of(
            st.lists(st.integers(1, 6), min_size=1, max_size=8),
            st.lists(st.integers(10**5, 10**6), min_size=1, max_size=8),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_lpt_order_agrees_with_brute_force(self, m, times):
        instance = make_instance(m, times)
        result = branch_and_bound(instance, lpt_order=True)
        assert result.optimum == brute_force_opt(instance).optimum
        assert makespan(instance, result.best_schedule) == result.optimum

    def test_wasted_space_cut(self):
        # 14 jobs of 3 on 3 machines: the optimum 15 is above ceil(42/3), so
        # once the first leaf is found the search must show that nothing
        # fits under cap 14.  The slack 3 * 14 - 42 is 0, so a machine that
        # reaches 12 loses 2 units no job fills, and the wasted-space cut
        # ends that subtree at once.  The search then generates 582 nodes;
        # without the cut it generates 6132.
        instance = make_instance(3, [3] * 14)
        assert branch_and_bound(instance, node_budget=1000).optimum == 15

    def test_node_budget(self):
        # reaching the first leaf alone generates 9 * 3 children
        instance = make_instance(3, [10, 11, 12, 13, 14, 15, 16, 17, 19])
        assert branch_and_bound(instance, node_budget=10**6).optimum == 43
        with pytest.raises(BudgetExceeded):
            branch_and_bound(instance, node_budget=20)

    def test_deeper_than_the_recursion_limit(self):
        # every time is even, so no schedule reaches the bound 10002/2 = 5001
        # and LPT's 5002 must be proved by a search 5000 levels deep; it nests
        # one call per level and stops as over budget at the recursion limit
        instance = make_instance(2, [2] * 4999 + [4])
        for call in (branch_and_bound, prove, magic_schedule):
            with pytest.raises(BudgetExceeded, match="5000 jobs go deeper"):
                call(instance)


@st.composite
def window_cases(draw):
    """m 3-5 and narrow (1-6) or wide (10^5-10^6) times, up to 11 jobs at m=3
    so that the first levels sit above the _WINDOW_JOBS levels that keep
    subset sums, and few enough at m=4-5 for the full scan."""
    m = draw(st.integers(3, 5))
    low, high = draw(st.sampled_from([(1, 6), (10**5, 10**6)]))
    n = draw(st.integers(1, {3: 11, 4: 9, 5: 8}[m]))
    return m, draw(st.lists(st.integers(low, high), min_size=n, max_size=n))


class TestWindowCut:
    """The load-window cut: below cap = incumbent - 1 every final load lies in
    [total - (m-1)*cap, cap], and a child whose jobs left have no subset sum
    that brings some machine there is cut.  It is off at m=2."""

    def test_window_cut_alone(self):
        # total 21 over 3 machines, bound 7, LPT 8.  The first leaf
        # (1, 1, 2, 2, 3, 3) makes the incumbent 8, so cap is 7 and every
        # final load must be at least 21 - 2 * 7 = 7.  Of the 12 cuts, 6 skip
        # a machine whose load equals an earlier machine's (2 at the root, 1
        # each below [4, 0, 0], [8, 0, 0], [8, 8, 0] and [8, 8, 4]), 5 are
        # load bounds against the incumbent (1 below [8, 0, 0], 2 below
        # [8, 4, 0], 1 below [8, 8, 0], 1 below [8, 8, 4]), and 1 is the
        # window cut: the child [4, 4, 0] needs jobs summing to exactly 3 on
        # a machine of load 4, and the jobs left, 4, 4, 4 and 1, sum to 0, 1,
        # 4, 5, 8, 9, 12 or 13.  The wasted-space cut fires nowhere in this
        # search; without the window cut [4, 4, 0] is expanded, and the
        # search makes 16 cuts.
        result = branch_and_bound(make_instance(3, [4, 4, 4, 4, 4, 1]))
        assert result == SolveResult((1, 1, 2, 2, 3, 3), 8, 1, 6 + 5 + 1)

    def test_hard_instance_node_budget(self):
        # m=3/n=20 with times in [10^5, 10^6], longest first: nearly all of
        # the search proves that nothing beats the optimum 3717627, 58 above
        # ceil(total/3).  With the window cut it generates 54,789 nodes;
        # without it, 1,301,664.
        rng = random.Random(0)
        times = sorted((rng.randint(10**5, 10**6) for _ in range(20)), reverse=True)
        result = branch_and_bound(make_instance(3, times), node_budget=10**5)
        assert result.optimum == 3717627

    @given(window_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_full_scan(self, case):
        m, times = case
        instance = make_instance(m, times)
        full = brute_force_opt(instance)
        expected = Certificate(full.best_schedule, full.optimum)
        lpt = branch_and_bound(instance, lpt_order=True)
        assert lpt.optimum == full.optimum
        assert makespan(instance, lpt.best_schedule) == full.optimum
        assert prove(instance) == expected
        assert decide(instance, full.optimum) == (True, expected)
        assert decide(instance, full.optimum - 1) == (False, None)

    # The full result of the search, its counts included, on times drawn by
    # random.Random(m).randint(10**5, 10**6), in file order and longest
    # first, at the total work and one below the optimum.  A change to how
    # the cut is set up that moves a count fails here, while the tests
    # against the full scan, which look only at the optimum and the
    # witness, still pass.
    @pytest.mark.parametrize(
        "m, n, lpt, optimum, at_total, pruned_below",
        [
            pytest.param(
                3, 16, False, 2966740,
                ((1, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 3, 3, 2, 2, 3), 8, 1409), 1063,
                id="m3-n16-file",
            ),
            pytest.param(
                3, 16, True, 2966740,
                ((1, 2, 3, 2, 2, 1, 1, 3, 3, 3, 1, 3, 2, 2, 2, 1), 6, 867), 653,
                id="m3-n16-lpt",
            ),
            pytest.param(
                4, 13, False, 1336760,
                ((1, 2, 1, 3, 2, 1, 3, 3, 1, 4, 4, 4, 2), 6, 1129), 688,
                id="m4-n13-file",
            ),
            pytest.param(
                4, 13, True, 1336760,
                ((1, 2, 3, 2, 4, 4, 4, 3, 1, 1, 3, 3, 2), 8, 560), 271,
                id="m4-n13-lpt",
            ),
            pytest.param(
                5, 11, False, 1628998,
                ((1, 2, 2, 3, 4, 5, 3, 1, 5, 4, 2), 1, 336), 325,
                id="m5-n11-file",
            ),
            pytest.param(
                5, 11, True, 1628998,
                ((1, 2, 3, 4, 5, 5, 4, 2, 1, 3, 1), 1, 44), 29,
                id="m5-n11-lpt",
            ),
        ],
    )
    def test_pinned_counts(self, m, n, lpt, optimum, at_total, pruned_below):
        rng = random.Random(m)
        times = [rng.randint(10**5, 10**6) for _ in range(n)]
        if lpt:
            times.sort(reverse=True)
        times = tuple(times)
        schedule, leaves, pruned = at_total
        assert solver_module._search(m, times, sum(times), 10**6) == SolveResult(
            schedule, optimum, leaves, pruned
        )
        # below the optimum no leaf is reached, and the search returns its
        # starting incumbent, the threshold plus one
        assert solver_module._search(m, times, optimum - 1, 10**6) == SolveResult(
            (), optimum, 0, pruned_below
        )

    # With the cut on at m=2 these three searches would make 25, 33 and 60
    # cuts; the pinned counts are the search without it.
    @pytest.mark.parametrize(
        "times, threshold, expected",
        [
            pytest.param(
                [439563, 258176, 514002, 782554, 150631, 175954, 961168,
                 661913, 198702, 483452, 711097, 160816, 632084, 1084382],
                3607247,
                SolveResult((1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2), 3607247, 1, 1206),
                id="even split",
            ),
            pytest.param(
                [337718, 488404, 493602, 232466, 302496, 839054, 145904,
                 189322, 243490, 359460, 950672, 630956, 319568, 520174],
                3026643,
                SolveResult((), 3026644, 0, 1471),
                id="even total, no split",
            ),
            pytest.param(
                [585498, 743002, 491445, 380110, 245269, 295187, 809512,
                 106747, 454760, 627205, 586247, 734072, 184740, 450249],
                3362470,
                SolveResult((1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 1), 3347571, 4, 1454),
                id="threshold below LPT",
            ),
        ],
    )
    def test_off_at_two_machines(self, times, threshold, expected):
        result = solver_module._search(2, tuple(times), threshold, 10**6)
        assert result == expected


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
        with pytest.raises(InvalidInstance):
            magic_schedule(make_instance(3, [1, 2, 3]))

    def test_exhaustive_strategy_not_two_machines(self):
        with pytest.raises(InvalidInstance, match="needs 2 machines, got 3"):
            list(exhaustive_strategy(make_instance(3, [1, 2, 3])))

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

    def test_exhaustive_node_budget(self, monkeypatch):
        # every weight is even but half the total, 21, is odd: no balanced
        # split, and the search would generate about 47 k nodes
        instance = make_instance(2, [2] * 19 + [4])
        monkeypatch.setattr(solver_module, "DEFAULT_LEAF_BUDGET", 1000)
        with pytest.raises(BudgetExceeded):
            magic_schedule(instance)
        with pytest.raises(BudgetExceeded):
            list(exhaustive_strategy(instance))

    def test_exhaustive_strategy_yields_balanced_only(self):
        instance = make_instance(2, [1, 1, 2, 2])
        for candidate in exhaustive_strategy(instance):
            assert loads(instance, candidate) == [3, 3]

    def test_exhaustive_strategy_yields_least_balanced_split(self):
        rng = random.Random(31)
        # odd total, a job longer than half, n=1, and wide-time yes cases
        cases = [[3, 1, 1], [1, 1, 6], [4], [7], [2, 2]]
        cases += [[10**6, 10**6], [999_999, 1, 999_997, 3]]
        for high in (3, 10**6):
            cases += [
                [rng.randint(1, high) for _ in range(rng.randint(1, 12))]
                for _ in range(40)
            ]
        for times in cases:
            half, odd = divmod(sum(times), 2)
            balanced = [
                assign
                for assign in product((1, 2), repeat=len(times))
                if not odd and sum(p for p, j in zip(times, assign) if j == 1) == half
            ]
            expected = [min(balanced)] if balanced else []
            assert list(exhaustive_strategy(make_instance(2, times))) == expected


def _raise(*args, **kwargs):
    raise AssertionError("this route must not call this")


@st.composite
def split_weights(draw):
    """1 to 12 weights, narrow (1-6) or wide (10^5-10^6).  Half the draws are
    forced no sets: every weight is doubled, and the last one raised by 2 if
    need be, so that half the total is odd while every weight is even."""
    n = draw(st.integers(1, 12))
    low, high = draw(st.sampled_from([(1, 6), (10**5, 10**6)]))
    weights = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = [2 * w for w in weights]
        weights[-1] += 2 * (1 - sum(weights) // 2 % 2)
    return weights


class TestBalancedSplitRoutes:
    """exhaustive_strategy answers "no" from the half sums and searches only
    to build the least split; past 2^n > DEFAULT_LEAF_BUDGET it searches."""

    def test_no_sets_skip_the_search(self, monkeypatch):
        # a 26-weight no set: every weight even, half the total odd
        rng = random.Random(0)
        no_set = [2 * rng.randint(5 * 10**4, 25 * 10**4 - 1) for _ in range(26)]
        no_set[-1] += 2 * (1 - sum(no_set) // 2 % 2)
        assert not half_sum_reachable(no_set)
        monkeypatch.setattr(solver_module, "_search", _raise)
        # [2] * 19 + [4] took about 47 k search nodes to refute
        for times in ([1, 1, 6], [2] * 19 + [4], no_set):
            instance = make_instance(2, times)
            assert list(exhaustive_strategy(instance)) == []
            assert magic_schedule(instance) == MsOutcome(False, None)

    def test_past_the_gate_the_search_decides(self, monkeypatch):
        # 2^27 leaves are past the default budget, so the half sums are not
        # listed and the search, at threshold 76, finds no split
        calls = []
        search = solver_module._search

        def counted(*args):
            calls.append(args[2])
            return search(*args)

        monkeypatch.setattr(solver_module, "_splits_evenly", _raise)
        monkeypatch.setattr(solver_module, "_search", counted)
        instance = make_instance(2, [100] + [2] * 26)
        assert magic_schedule(instance) == MsOutcome(False, None)
        assert calls == [76]

    def test_decide_partition_shares_the_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            solver_module, "_splits_evenly", lambda weights: calls.append(weights) or False
        )
        assert not decide_partition(PartitionInstance((2, 3, 5, 4)))
        assert calls == [(2, 3, 5, 4)]

    def test_odd_total_past_the_gate(self):
        # 27 weights, total 53: the search's lower bound 27 is above the
        # threshold 26, so it answers before generating a node
        instance = make_instance(2, [1] + [2] * 26)
        assert list(exhaustive_strategy(instance)) == []
        result = solver_module._search(2, instance.processing_times, 26, 1)
        assert (result.leaves_explored, result.nodes_pruned) == (0, 0)

    @given(split_weights())
    @example([1, 2])
    @example([3, 3, 1])
    @settings(max_examples=200, deadline=None)
    def test_kernel_answers_odd_totals(self, weights):
        total = sum(weights)
        expected = total % 2 == 0 and subset_sum_oracle(weights, total // 2, total)
        assert solver_module._splits_evenly(weights) == expected

    @given(split_weights())
    @settings(max_examples=200, deadline=None)
    def test_least_balanced_split(self, times):
        half, odd = divmod(sum(times), 2)
        balanced = [
            assign
            for assign in product((1, 2), repeat=len(times))
            if not odd and sum(p for p, j in zip(times, assign) if j == 1) == half
        ]
        expected = [min(balanced)] if balanced else []
        assert list(exhaustive_strategy(make_instance(2, times))) == expected
