import json
import random
import tracemalloc
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
    verify_certificate,
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
        # the optimum 6 is above ceil(13/3), so the search runs to the end;
        # of its 8 cuts, 4 skip a machine whose load equals an earlier
        # machine's (2 at the root, 1 below [3, 0, 0], 1 below [6, 0, 0]),
        # 3 are load bounds against the starting incumbent 7, LPT's 6 plus 1
        # (1 below [6, 0, 0], 2 below [6, 3, 0]), and 1 is the fit cut:
        # once the leaf (1, 1, 2, 3) makes the incumbent 6, the child
        # [3, 3, 0] leaves cap 5, where machines of load 3 can take neither
        # job left, 3 or 4; they lose 2 + 2 = 4, already more than the
        # slack 3 * 5 - 13 = 2
        result = branch_and_bound(make_instance(3, [3, 3, 3, 4]))
        assert result == SolveResult((1, 1, 2, 3), 6, 1, 4 + 3 + 1)

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
        # total 63 on 3 machines: the optimum 24 is above ceil(63/3), so
        # once the first leaf is found the search must show that nothing
        # fits under cap 23.  The slack 3 * 23 - 63 is 6, and below the first
        # job the shortest job left is 6, so a machine above 17 loses the
        # space between its load and cap, which no job fills; once the
        # machines lose more than 6 between them, the fit cut ends that
        # subtree at once.  No two subset sums of the jobs left lie more than
        # 6 apart, so the slack is never below that step, and the cut runs
        # its coarse estimate, from the shortest job left, throughout.  The
        # search then generates 600 nodes; without the cut it generates 2085.
        instance = make_instance(3, [7, 6, 6, 8, 6, 6, 6, 6, 6, 6])
        assert branch_and_bound(instance, node_budget=1000).optimum == 24

    def test_node_budget(self):
        # reaching the first leaf alone generates 9 * 3 children
        instance = make_instance(3, [10, 11, 12, 13, 14, 15, 16, 17, 19])
        assert branch_and_bound(instance, node_budget=10**6).optimum == 43
        with pytest.raises(BudgetExceeded):
            branch_and_bound(instance, node_budget=20)

    def test_deeper_than_the_recursion_limit(self):
        # every time is even, and the common factor 2 leaves 4999 jobs of 1
        # and one of 2, whose LPT makespan meets the bound 2501; but the
        # least such schedule lies at a leaf 5000 levels deep, and the search
        # nests one call per level and stops as over budget at the recursion
        # limit.  Ones split evenly, but only at such a leaf too.
        instance = make_instance(2, [2] * 4999 + [4])
        for call in (branch_and_bound, prove):
            with pytest.raises(BudgetExceeded, match="5000 jobs go deeper"):
                call(instance)
        with pytest.raises(BudgetExceeded, match="5000 jobs go deeper"):
            magic_schedule(make_instance(2, [1] * 5000))
        # a balanced split needs loads of 5001, which even times cannot
        # make: the divided threshold is below the bound, so nothing is
        # searched
        assert magic_schedule(instance) == MsOutcome(False, None)


@st.composite
def window_cases(draw):
    """m 3-5 and narrow (1-6) or wide (10^5-10^6) times, up to 11 jobs at m=3
    so that the first levels sit above the last n // 2 + 2, which keep
    subset sums, and few enough at m=4-5 for the full scan."""
    m = draw(st.integers(3, 5))
    low, high = draw(st.sampled_from([(1, 6), (10**5, 10**6)]))
    n = draw(st.integers(1, {3: 11, 4: 9, 5: 8}[m]))
    return m, draw(st.lists(st.integers(low, high), min_size=n, max_size=n))


class TestWindowCut:
    """The fit cut's subset-sum estimate: below cap = incumbent - 1 a machine
    of load x fills at most the largest subset sum of the jobs left within
    its room cap - x, and a child whose machines lose more room than the
    slack m*cap - total is cut.  The sums are off at m=2."""

    def test_window_cut_alone(self):
        # total 21 over 3 machines, bound 7, LPT 8.  The first leaf
        # (1, 1, 2, 2, 3, 3) makes the incumbent 8, so cap is 7 and the slack
        # 3 * 7 - 21 is 0.  Of the 12 cuts, 6 skip a machine whose load
        # equals an earlier machine's (2 at the root, 1 each below
        # [4, 0, 0], [8, 0, 0], [8, 8, 0] and [8, 8, 4]), 5 are load bounds
        # against the incumbent (1 below [8, 0, 0], 2 below [8, 4, 0], 1
        # below [8, 8, 0], 1 below [8, 8, 4]), and 1 is the fit cut: the
        # child [4, 4, 0] has rooms 3, 3 and 7, and the jobs left, 4, 4, 4
        # and 1, sum to 0, 1, 4, 5, 8, 9, 12 or 13, so the machines fill 1,
        # 1 and 5 and lose 6.  No machine's load is within the shortest job
        # left, 1, of cap, so the coarse estimate would lose nothing; with it
        # alone [4, 4, 0] is expanded, and the search makes 16 cuts.
        result = branch_and_bound(make_instance(3, [4, 4, 4, 4, 4, 1]))
        assert result == SolveResult((1, 1, 2, 2, 3, 3), 8, 1, 6 + 5 + 1)

    def test_summed_waste_alone(self):
        # total 24 over 3 machines, bound 8, LPT 10.  The first leaf
        # (1, 2, 2, 3, 1) makes the incumbent 10, so cap is 9 and the slack
        # 3 * 9 - 24 is 3.  Of the 10 cuts, 3 skip a machine whose load
        # equals an earlier machine's (2 at the root, 1 below [8, 0, 0]), 6
        # are load bounds against the incumbent (1 each below [8, 0, 0] and
        # [8, 5, 0], 2 each below [8, 10, 0] and [8, 10, 5]), and 1 is the
        # fit cut: the child [8, 5, 5] has rooms 1, 4 and 4, and the jobs
        # left, 5 and 1, sum to 0, 1, 5 or 6, so the machines fill 1, 1 and
        # 1 and lose 0 + 3 + 3 = 6.  Each machine of load 5 alone loses 3,
        # no more than the slack, and can still reach the final load
        # 24 - 2 * 9 = 6 that every machine needs; only their summed loss
        # cuts [8, 5, 5].  A test of one machine at a time expands it, and
        # that search makes 12 cuts.
        result = branch_and_bound(make_instance(3, [8, 5, 5, 5, 1]))
        assert result == SolveResult((1, 2, 2, 3, 1), 10, 1, 3 + 6 + 1)

    def test_hard_instance_node_budget(self):
        # m=3/n=20 with times in [10^5, 10^6], longest first: nearly all of
        # the search proves that nothing beats the optimum 3717627, 58 above
        # ceil(total/3).  With the fit cut's subset-sum estimate it
        # generates 2,076 nodes; with its coarse estimate alone, 1,301,664.
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
                ((1, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 3, 3, 2, 2, 3), 8, 307), 129,
                id="m3-n16-file",
            ),
            pytest.param(
                3, 16, True, 2966740,
                ((1, 2, 3, 2, 2, 1, 1, 3, 3, 3, 1, 3, 2, 2, 2, 1), 6, 243), 115,
                id="m3-n16-lpt",
            ),
            pytest.param(
                4, 13, False, 1336760,
                ((1, 2, 1, 3, 2, 1, 3, 3, 1, 4, 4, 4, 2), 6, 412), 151,
                id="m4-n13-file",
            ),
            pytest.param(
                4, 13, True, 1336760,
                ((1, 2, 3, 2, 4, 4, 4, 3, 1, 1, 3, 3, 2), 8, 290), 82,
                id="m4-n13-lpt",
            ),
            pytest.param(
                5, 11, False, 1628998,
                ((1, 2, 2, 3, 4, 5, 3, 1, 5, 4, 2), 1, 212), 197,
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

    # With the cut on at m=2 these three searches would make 15, 17 and 47
    # cuts; the pinned counts are the search without it.  The times share
    # no common factor, so the search runs on them as they are.
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
                [337719, 488403, 493602, 232466, 302496, 839054, 145904,
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

    def test_tables_stay_under_their_memory_bound(self):
        # 40 jobs get the cap of 14 levels of tables, built within the first
        # 10^4 nodes; the deepest lists 2^14 sums, whose pointers alone take
        # 128 KiB, so a peak above that shows it was built.  The bound is
        # the one stated next to _WINDOW_LEVELS.
        rng = random.Random(0)
        times = tuple(sorted((rng.randint(10**5, 10**6) for _ in range(40)), reverse=True))
        assert solver_module._WINDOW_LEVELS == 14
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                solver_module._search(3, times, sum(times), 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2**14 * 8 < peak < 2 * 2**20


def planted_case(seed):
    """m 3-5 machines and 20-60 jobs whose optimum is C, the lower bound:
    m groups of parts, each group a random split of C, shuffled together.
    C is 10^3 or 10^6."""
    rng = random.Random(seed)
    m = 3 + seed % 3
    n = rng.randint(20, 60)
    goal = rng.choice([10**3, 10**6])
    times = []
    for j in range(m):
        cuts = sorted(rng.sample(range(1, goal), n // m + (j < n % m) - 1))
        times += [b - a for a, b in zip([0, *cuts], [*cuts, goal])]
    rng.shuffle(times)
    return m, times, goal


def three_machines_fit(times, cap):
    """Independent decision for m=3: can the jobs run with every load at most
    cap?  A dynamic program over machine 1's load, each row one int whose
    set bits are the loads machine 2 can have beside it, capped at cap;
    machine 3 takes the rest, so the answer is yes iff some pair leaves it
    at most cap."""
    mask = (1 << (cap + 1)) - 1
    rows = [1] + [0] * cap
    for p in times:
        # the job goes to machine 3 (row kept), 2 (row shifted) or 1 (row
        # moved p places along)
        rows = [
            (row | row << p | (rows[load - p] if load >= p else 0)) & mask
            for load, row in enumerate(rows)
        ]
    total = sum(times)
    return any(row >> max(total - load - cap, 0) for load, row in enumerate(rows))


def three_machine_optimum(times):
    cap = max(-(-sum(times) // 3), max(times))
    while not three_machines_fit(times, cap):
        cap += 1
    return cap


def three_machine_case(seed):
    """14-24 times in 1-60: plain draws at even seeds; at odd seeds even
    times with the first one less 1, whose odd total often leaves the bound
    ceil(total/3) out of reach, so that the search must prove it."""
    rng = random.Random(seed)
    n = rng.randint(14, 24)
    if seed % 2 == 0:
        return [rng.randint(1, 60) for _ in range(n)]
    times = [2 * rng.randint(1, 30) for _ in range(n)]
    times[0] -= 1
    return times


@st.composite
def beyond_the_full_scan(draw):
    """m 3-5 and 12-20 wide (10^5-10^6) times: past what the full scan or
    the tests' product oracle can price, and deep enough for the fit cut's
    tables of subset sums to reach above the middle."""
    m = draw(st.integers(3, 5))
    n = draw(st.integers(12, {3: 20, 4: 17, 5: 15}[m]))
    return m, draw(st.lists(st.integers(10**5, 10**6), min_size=n, max_size=n))


class TestPastTheFullScan:
    """Checks of the search at sizes the full scan cannot reach, whose
    answers come from how the instance was made or from a second search."""

    # Planted instances past 10^5 nodes, as (seed, lpt_order).  These are
    # the searches that do not find a perfect schedule in time: mostly
    # C = 10^6, where perfect schedules are rare among the m^n.
    OVER_BUDGET = {
        (0, False), (0, True), (4, False), (4, True), (5, False), (5, True),
        (8, False), (8, True), (9, False), (10, True), (11, False),
        (11, True), (12, True), (13, False), (13, True),
    }

    def test_planted_optimum(self):
        over = set()
        for seed in range(16):
            m, times, goal = planted_case(seed)
            instance = make_instance(m, times)
            assert -(-instance.total_work // m) == goal
            for lpt in (False, True):
                try:
                    result = branch_and_bound(instance, lpt_order=lpt, node_budget=10**5)
                except BudgetExceeded:
                    over.add((seed, lpt))
                    continue
                assert result.optimum == goal
                assert makespan(instance, result.best_schedule) == goal
        assert over == self.OVER_BUDGET

    # Three-machine cases past 10^5 nodes, as (seed, lpt_order).
    OVER_BUDGET_AT_THREE = {(5, True)}

    def test_three_machine_load_oracle(self):
        over = set()
        above_the_bound = 0
        for seed in range(24):
            times = three_machine_case(seed)
            optimum = three_machine_optimum(times)
            above_the_bound += optimum > -(-sum(times) // 3)
            instance = make_instance(3, times)
            for lpt in (False, True):
                try:
                    result = branch_and_bound(instance, lpt_order=lpt, node_budget=10**5)
                except BudgetExceeded:
                    over.add((seed, lpt))
                    continue
                assert result.optimum == optimum
                assert makespan(instance, result.best_schedule) == optimum
        assert over == self.OVER_BUDGET_AT_THREE
        # the searches that refute the bound are the ones the oracle checks
        assert above_the_bound == 5

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_load_oracle_agrees_with_the_product_scan(self, times):
        optimum, _ = oracle_min_makespan(3, times)
        assert three_machine_optimum(times) == optimum
        assert not three_machines_fit(times, optimum - 1)

    @given(beyond_the_full_scan(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_permuting_the_jobs_keeps_the_optimum(self, case, rng):
        m, times = case
        shuffled = list(times)
        rng.shuffle(shuffled)
        optima = {
            branch_and_bound(make_instance(m, order), lpt_order=lpt).optimum
            for order in (times, shuffled)
            for lpt in (False, True)
        }
        assert len(optima) == 1

    @given(beyond_the_full_scan(), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_decide_is_monotone_in_the_threshold(self, case, step):
        m, times = case
        instance = make_instance(m, times)
        optimum = branch_and_bound(instance, lpt_order=True).optimum
        # the optimum +- 1 and a further step either side, in units of the
        # shortest job
        shortest = min(times)
        for threshold in (optimum - 1, optimum, optimum + 1, optimum + step * shortest):
            yes, witness = decide(instance, threshold)
            assert yes == (threshold >= optimum)
            if yes:
                assert witness.claimed_makespan == optimum
                assert verify_certificate(instance, witness, threshold).accepted


# The low-precision file: 30 even times on 3 machines, whose bound
# ceil(1316 / 3) = 439 is odd, so no schedule meets it
LOW_PRECISION = [50, 54, 6, 34, 66, 64, 52, 40, 62, 46, 76, 28, 66, 18, 38,
                 18, 14, 80, 34, 70, 78, 20, 40, 14, 10, 44, 62, 72, 14, 46]


class TestCommonFactor:
    """The search runs on the times divided by their common factor, which
    keeps every schedule's rank and divides every makespan."""

    def test_low_precision_file(self):
        # undivided, proving that nothing reaches 439 takes more than 2^26
        # nodes; halved, the bound 220 is met at the first leaf
        instance = make_instance(3, LOW_PRECISION)
        for lpt in (False, True):
            result = branch_and_bound(instance, lpt_order=lpt, node_budget=10_000)
            assert result.optimum == 440
            assert makespan(instance, result.best_schedule) == 440
        assert decide(instance, 1000, node_budget=10_000)[0]
        assert decide(instance, 439, node_budget=10_000) == (False, None)

    @given(
        st.integers(2, 5),
        st.lists(st.integers(1, 50), min_size=1, max_size=10),
        st.sampled_from([2, 3, 1000, 10**6 + 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_the_times(self, m, times, c):
        instance = make_instance(m, times)
        scaled = make_instance(m, [c * p for p in times])
        for lpt in (False, True):
            result = branch_and_bound(instance, lpt_order=lpt)
            assert branch_and_bound(scaled, lpt_order=lpt) == SolveResult(
                result.best_schedule,
                c * result.optimum,
                result.leaves_explored,
                result.nodes_pruned,
            )
        optimum = result.optimum
        witness = prove(instance).schedule
        assert decide(scaled, c * optimum) == (True, Certificate(witness, c * optimum))
        # a "no" runs the same search as the unscaled one below threshold // c
        no = solver_module._search(m, instance.processing_times, optimum - 1, 10**6)
        assert no.best_schedule == ()
        for threshold in (c * optimum - 1, c * optimum - c, c * (optimum - 1) + 1):
            assert decide(scaled, threshold) == (False, None)
            assert solver_module._search(
                m, scaled.processing_times, threshold, 10**6
            ) == SolveResult((), c * no.optimum, no.leaves_explored, no.nodes_pruned)


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
        # the total 58 is even, but every subset sums to a multiple of 3 or
        # one more, and half the total, 29, is neither: no balanced split,
        # and the search would generate about 47 k nodes
        instance = make_instance(2, [3] * 19 + [1])
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
        # [2] * 19 + [4] is refuted here by the half sums, before the
        # search's division by the common factor
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
