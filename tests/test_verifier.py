import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import (
    ACCEPT,
    REJECT_ABOVE_THRESHOLD,
    REJECT_INVALID_SCHEDULE,
    REJECT_WRONG_MAKESPAN,
    BudgetExceeded,
    Certificate,
    brute_force_opt,
    decide,
    leaves,
    make_instance,
    makespan,
    prove,
    verify_certificate,
)


def direct_makespan(times, schedule, m):
    """Test-local recomputation, independent of the library's load walk."""
    per_machine = [0] * m
    for p, j in zip(times, schedule):
        per_machine[j - 1] += p
    return max(per_machine)


class TestVerifyCertificate:
    def test_accept(self, demo_instance):
        verdict = verify_certificate(demo_instance, Certificate((1, 1, 2), 3), 3)
        assert verdict.code == ACCEPT
        assert verdict.accepted
        assert verdict.describe() == "accept"

    @pytest.mark.parametrize(
        "cert,threshold,line",
        [
            (Certificate((1, 1, 2), 3), 3, "accept"),
            (Certificate((1, 1), 2), 9, "reject_invalid_schedule reason=length_mismatch"),
            (
                Certificate((1, 3, 1), 4),
                9,
                "reject_invalid_schedule reason=machine_index_out_of_range",
            ),
            (Certificate((1, 1, 2), 2), 3, "reject_wrong_makespan claimed=2 actual=3"),
            (Certificate((1, 1, 2), None), 3, "reject_wrong_makespan claimed=None actual=3"),
            (Certificate((1, 1, 2), True), 3, "reject_wrong_makespan claimed=True actual=3"),
            (Certificate((1, 1, 1), 5), 3, "reject_above_threshold actual=5 threshold=3"),
        ],
    )
    def test_describe_every_variant(self, demo_instance, cert, threshold, line):
        assert verify_certificate(demo_instance, cert, threshold).describe() == line

    # every failure is a verdict, so a schedule with no length is one too
    @pytest.mark.parametrize(
        "schedule",
        [None, 5, iter([1, 2]), (machine for machine in (1, 1, 2))],
        ids=["None", "int", "iterator", "generator"],
    )
    def test_no_length(self, demo_instance, schedule):
        verdict = verify_certificate(demo_instance, Certificate(schedule, 3), 3)
        assert verdict.describe() == "reject_invalid_schedule reason=length_mismatch"

    def test_wrong_makespan(self, demo_instance):
        verdict = verify_certificate(demo_instance, Certificate((1, 1, 2), 2), 3)
        assert verdict.code == REJECT_WRONG_MAKESPAN
        assert (verdict.claimed, verdict.actual) == (2, 3)

    def test_above_threshold(self, demo_instance):
        verdict = verify_certificate(demo_instance, Certificate((1, 1, 1), 5), 3)
        assert verdict.code == REJECT_ABOVE_THRESHOLD
        assert (verdict.actual, verdict.threshold) == (5, 3)

    def test_invalid_machine_index(self, demo_instance):
        verdict = verify_certificate(demo_instance, Certificate((1, 3, 1), 4), 9)
        assert verdict.code == REJECT_INVALID_SCHEDULE
        assert verdict.reason == "machine_index_out_of_range"

    def test_wrong_length(self, demo_instance):
        verdict = verify_certificate(demo_instance, Certificate((1, 1), 2), 9)
        assert verdict.code == REJECT_INVALID_SCHEDULE
        assert verdict.reason == "length_mismatch"

    def test_never_raises_on_garbage_claims(self, demo_instance):
        assert not verify_certificate(demo_instance, Certificate((1, 1, 2), -7), 3).accepted
        assert not verify_certificate(demo_instance, Certificate((1, 1, 2), 0), 3).accepted
        # the makespan here is 1, and True == 1 == 1.0, yet neither is a makespan
        single = make_instance(2, [1])
        for claim in (True, 1.0):
            verdict = verify_certificate(single, Certificate((1,), claim), 3)
            assert (verdict.code, verdict.actual) == (REJECT_WRONG_MAKESPAN, 1)


class TestDecide:
    def test_yes_with_witness(self, demo_instance):
        yes, witness = decide(demo_instance, 3)
        assert yes
        assert witness.schedule == (1, 1, 2)
        assert witness.claimed_makespan == 3
        assert verify_certificate(demo_instance, witness, 3).accepted

    def test_no(self, demo_instance):
        yes, witness = decide(demo_instance, 2)
        assert not yes
        assert witness is None

    def test_tight_threshold(self):
        yes, _ = decide(make_instance(2, [2, 2]), 2)
        assert yes

    def test_budget_propagates(self):
        # the optimum 43 is ceil(127/3), so a threshold below it is answered
        # before any node is generated; at the optimum, reaching the first
        # leaf generates 9 * 3 children
        instance = make_instance(3, [10, 11, 12, 13, 14, 15, 16, 17, 19])
        assert decide(instance, 42, node_budget=20) == (False, None)
        with pytest.raises(BudgetExceeded):
            decide(instance, 43, node_budget=20)

    def test_budget_counts_nodes_not_leaves(self):
        # 2^27 leaves, yet the first leaf the search reaches is optimal
        yes, witness = decide(make_instance(2, [1] * 27), 14)
        assert yes
        assert witness == Certificate((1,) * 14 + (2,) * 13, 14)

    def test_monotone_in_threshold(self):
        rng = random.Random(31)
        for _ in range(20):
            instance = make_instance(2, [rng.randint(1, 9) for _ in range(rng.randint(1, 8))])
            answers = [decide(instance, t)[0] for t in range(1, instance.total_work + 2)]
            assert answers == sorted(answers)  # False..False True..True


class TestProve:
    def test_demo(self, demo_instance):
        cert = prove(demo_instance)
        assert cert == Certificate((1, 1, 2), 3)
        assert verify_certificate(demo_instance, cert, cert.claimed_makespan).accepted

    def test_single_job(self):
        assert prove(make_instance(2, [7])) == Certificate((1,), 7)

    def test_three_machines(self):
        assert prove(make_instance(3, [1, 1, 1])) == Certificate((1, 2, 3), 1)

    def test_budget_counts_nodes_not_leaves(self):
        assert prove(make_instance(2, [1] * 27)) == Certificate((1,) * 14 + (2,) * 13, 14)


class TestSoundnessAndCompleteness:
    def test_completeness_all_schedules_small(self):
        instance = make_instance(2, [2, 5, 1, 4])
        for schedule in leaves(instance):
            actual = makespan(instance, schedule)
            verdict = verify_certificate(instance, Certificate(schedule, actual), actual)
            assert verdict.accepted

    def test_mutation_fuzz_mini(self):
        rng = random.Random(37)
        instance = make_instance(2, [3, 1, 4, 1, 5])
        m, times = instance.machine_count, instance.processing_times
        for _ in range(300):
            schedule = tuple(rng.randint(1, 2) for _ in range(5))
            actual = direct_makespan(times, schedule, m)
            threshold = actual
            # mutate one assignment entry or the claim
            mutant_schedule, claim = list(schedule), actual
            if rng.random() < 0.5:
                pos = rng.randrange(5)
                mutant_schedule[pos] = rng.choice([v for v in (1, 2, 3) if v != schedule[pos]])
            else:
                claim = actual + rng.choice((-2, -1, 1, 2, 10))
            mutant = Certificate(tuple(mutant_schedule), claim)
            verdict = verify_certificate(instance, mutant, threshold)
            valid = all(1 <= j <= m for j in mutant.schedule)
            truth = valid and direct_makespan(times, mutant.schedule, m) == claim and claim <= threshold
            assert verdict.accepted == truth

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 12), min_size=1, max_size=7),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_completeness_property(self, m, times, data):
        instance = make_instance(m, times)
        schedule = tuple(
            data.draw(st.integers(1, m)) for _ in range(instance.job_count)
        )
        actual = makespan(instance, schedule)
        assert verify_certificate(instance, Certificate(schedule, actual), actual).accepted
        # anything claiming a different value must be rejected
        assert not verify_certificate(
            instance, Certificate(schedule, actual + 1), actual + 1
        ).accepted

    def test_accepted_claims_never_beat_the_optimum(self):
        rng = random.Random(61)
        for _ in range(30):
            m = rng.choice((2, 3))
            n = rng.randint(1, 8)
            instance = make_instance(m, [rng.randint(1, 15) for _ in range(n)])
            optimum = brute_force_opt(instance).optimum
            schedule = tuple(rng.randint(1, m) for _ in range(n))
            actual = makespan(instance, schedule)
            verdict = verify_certificate(
                instance, Certificate(schedule, actual), instance.total_work
            )
            assert verdict.accepted
            assert actual >= optimum

    def test_cost_grows_roughly_linearly(self):
        # measured guard, not an exact assertion: a quadratic walk would blow
        # the generous factor below
        def cost(n, repeats=5):
            instance = make_instance(2, [1] * n)
            cert = Certificate(tuple(1 + (i % 2) for i in range(n)), n // 2)
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                verify_certificate(instance, cert, n)
                best = min(best, time.perf_counter() - t0)
            return best

        small, large = cost(500), cost(5000)
        assert large < 40 * small + 1e-3
