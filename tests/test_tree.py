from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import (
    BudgetExceeded,
    DomainError,
    InvalidMachineIndex,
    LengthMismatch,
    children,
    count_essential_exact,
    count_essential_formula,
    count_nodes,
    count_partial,
    count_schedules,
    leaves,
    loads,
    make_instance,
    root,
    to_dot,
    walk_path,
)


def enumerate_level_counts(instance, up_to_level):
    """Independent per-level tally by expanding children() exhaustively."""
    counts = [0] * (up_to_level + 1)

    def visit(node):
        counts[node.level] += 1
        if node.level < up_to_level:
            for child in children(instance, node):
                visit(child)

    visit(root(instance))
    return counts


class TestRoot:
    def test_demo(self, demo_instance):
        node = root(demo_instance)
        assert node.level == 0
        assert node.assignment_prefix == ()
        assert node.load_vector == (0, 0)
        assert node.weight == 0

    def test_three_machines(self):
        node = root(make_instance(3, [7]))
        assert node.load_vector == (0, 0, 0)


class TestChildren:
    def test_of_root(self, demo_instance):
        first, second = children(demo_instance, root(demo_instance))
        assert first.assignment_prefix == (1,)
        assert first.load_vector == (1, 0)
        assert second.assignment_prefix == (2,)
        assert second.load_vector == (0, 1)

    def test_two_levels_down(self, demo_instance):
        node = root(demo_instance)
        node = children(demo_instance, node)[0]
        node = children(demo_instance, node)[0]
        assert node.assignment_prefix == (1, 1)
        first, second = children(demo_instance, node)
        assert first.assignment_prefix == (1, 1, 1)
        assert first.load_vector == (5, 0)
        assert second.assignment_prefix == (1, 1, 2)
        assert second.load_vector == (2, 3)

    def test_leaf_has_no_children(self, demo_instance):
        leaf = walk_path(demo_instance, (1, 1, 2))[-1]
        with pytest.raises(DomainError):
            children(demo_instance, leaf)


class TestLeaves:
    def test_demo_order(self, demo_instance):
        got = list(leaves(demo_instance))
        assert len(got) == 8
        assert got[0] == (1, 1, 1)
        assert got[-1] == (2, 2, 2)
        assert got == sorted(set(got))

    def test_single_job(self):
        assert list(leaves(make_instance(2, [9]))) == [(1,), (2,)]

    def test_three_by_two(self):
        assert len(list(leaves(make_instance(3, [1, 2])))) == 9

    def test_lazy(self):
        # pulling two leaves of a 2^40 space must not enumerate the rest
        big = make_instance(2, [1] * 40)
        first_two = list(islice(leaves(big), 2))
        assert first_two[0] == (1,) * 40


class TestWalkPath:
    def test_demo_path(self, demo_instance):
        path = walk_path(demo_instance, (1, 1, 2))
        assert len(path) == 4
        assert [node.level for node in path] == [0, 1, 2, 3]
        assert path[-1].load_vector == (2, 3)
        assert path[-1].weight == 3
        assert path[2].assignment_prefix == (1, 1)

    def test_monochromatic(self, demo_instance):
        assert walk_path(demo_instance, (2, 2, 2))[-1].load_vector == (0, 5)

    def test_bad_machine(self, demo_instance):
        with pytest.raises(InvalidMachineIndex):
            walk_path(demo_instance, (1, 3, 1))

    def test_length_mismatch(self, demo_instance):
        with pytest.raises(LengthMismatch):
            walk_path(demo_instance, (1, 1))


class TestCounting:
    def test_node_count(self):
        assert count_nodes(2, 3) == 15
        assert count_nodes(3, 4) == 121  # 1+3+9+27+81
        for m in (2, 3, 5):
            assert count_nodes(m, 0) == 1

    def test_node_count_domain(self):
        with pytest.raises(DomainError):
            count_nodes(1, 3)
        with pytest.raises(DomainError):
            count_nodes(2, -1)

    def test_schedule_counts(self):
        assert count_schedules(2, 3) == 8
        assert count_partial(2, 3) == 6
        assert count_essential_formula(2, 3) == 6
        assert count_partial(2, 1) == 0

    def test_counting_domain(self):
        for fn in (count_schedules, count_partial, count_essential_formula, count_essential_exact):
            with pytest.raises(DomainError):
                fn(1, 3)
            with pytest.raises(DomainError):
                fn(2, 0)
        # the derived counts refuse exactly as count_schedules does
        for args in ((1, 3), (2, 0), ("2", 3)):
            with pytest.raises(DomainError) as expected:
                count_schedules(*args)
            for fn in (count_partial, count_essential_formula):
                with pytest.raises(DomainError) as got:
                    fn(*args)
                assert str(got.value) == str(expected.value)

    def test_essential_exact(self):
        assert count_essential_exact(2, 3) == 6
        assert count_essential_exact(3, 3) == 6
        assert count_essential_exact(3, 2) == 0
        assert count_essential_exact(2, 1) == 0
        # more machines than jobs: answered without summing m + 1 terms
        assert count_essential_exact(20000, 3) == 0

    def test_essential_exact_matches_enumeration(self):
        # independent oracle: count assignments covering every machine
        for m in (2, 3):
            for n in range(1, 7):
                brute = sum(
                    1
                    for a in product(range(1, m + 1), repeat=n)
                    if len(set(a)) == m
                )
                assert count_essential_exact(m, n) == brute

    def test_formula_overcounts_above_two_machines(self):
        assert count_essential_formula(3, 3) == 24
        assert count_essential_exact(3, 3) == 6
        for n in range(2, 8):
            assert count_essential_exact(3, n) < count_essential_formula(3, n)

    def test_levels_match_closed_forms(self):
        for m, n in ((2, 5), (3, 4)):
            instance = make_instance(m, list(range(1, n + 1)))
            per_level = enumerate_level_counts(instance, n)
            assert per_level == [m**b for b in range(n + 1)]
            assert sum(per_level) == count_nodes(m, n)
            assert sum(per_level[1:n]) == count_partial(m, n)

    def test_big_integers(self):
        assert count_schedules(3, 50) == 3**50
        assert count_nodes(2, 100) == 2**101 - 1


class TestToDot:
    def test_full_demo_tree(self, demo_instance):
        text = to_dot(demo_instance, 3)
        body = [line for line in text.splitlines() if "[label=" in line]
        node_lines = [line for line in body if " -> " not in line]
        edge_lines = [line for line in body if " -> " in line]
        assert len(node_lines) == 15
        assert len(edge_lines) == 14
        assert text.startswith("digraph schedule_tree {")
        assert 'loads (0, 0)' in text
        assert 'J3->M2' in text

    def test_root_only(self):
        text = to_dot(make_instance(2, [5]), 0)
        assert text.count("label=") == 1
        assert "->" not in text.replace("J1/-", "")

    def test_too_large(self):
        big = make_instance(2, [1] * 20)
        with pytest.raises(BudgetExceeded):
            to_dot(big, 20)

    def test_refusal_names_the_default_cap(self):
        with pytest.raises(BudgetExceeded) as info:
            to_dot(make_instance(3, [1] * 9), 9)
        assert str(info.value) == "3^9 leaves exceed the node cap of 4096"

    def test_cap_longer_than_the_digit_limit(self):
        # a cap of 5001 digits is named by its bit length, not printed
        with pytest.raises(BudgetExceeded, match=r"node cap of a 16610-bit number$"):
            to_dot(make_instance(2, [1] * 16700), 16700, node_cap=10**5000)

    def test_respects_custom_cap(self, demo_instance):
        with pytest.raises(BudgetExceeded):
            to_dot(demo_instance, 3, node_cap=7)

    def test_level_beyond_height(self, demo_instance):
        with pytest.raises(DomainError, match=r"^max_level must be in 0\.\.3, got 4$"):
            to_dot(demo_instance, 4)

    # a level of 3.3 would pass a cap of 10 (2^3.3 is about 9.8) and then
    # render level 4; True would be taken as level 1
    @pytest.mark.parametrize(
        "max_level, message",
        [
            pytest.param(3.3, r"^max_level must be an integer, got 3\.3$", id="float"),
            pytest.param(True, r"^max_level must be an integer, got True$", id="bool"),
            pytest.param("1", r"^max_level must be an integer, got '1'$", id="str"),
            pytest.param(-1, r"^max_level must be >= 0, got -1$", id="negative"),
        ],
    )
    def test_level_not_a_plain_int(self, max_level, message):
        with pytest.raises(DomainError, match=message):
            to_dot(make_instance(2, [1] * 6), max_level, node_cap=10)

    @pytest.mark.parametrize(
        "node_cap, message",
        [
            pytest.param(1.5, r"^node cap must be an integer, got 1\.5$", id="float"),
            pytest.param(True, r"^node cap must be an integer, got True$", id="bool"),
            pytest.param(0, r"^node cap must be >= 1, got 0$", id="zero"),
        ],
    )
    def test_cap_not_a_plain_int(self, node_cap, message):
        with pytest.raises(DomainError, match=message):
            to_dot(make_instance(2, [1] * 6), 0, node_cap=node_cap)

    def test_deeper_than_the_recursion_limit(self):
        # the cap allows 2^1100 nodes, but the rendering nests one call per
        # level: past the recursion limit it is over budget, not a crash
        deep = make_instance(2, [1] * 1200)
        with pytest.raises(BudgetExceeded, match=r"1100 levels go deeper .* recursion limit of \d+"):
            to_dot(deep, 1100, node_cap=2**1200)

    def test_cap_of_one_renders_the_root(self):
        assert to_dot(make_instance(2, [5]), 0, node_cap=1).count("label=") == 1

    def test_more_than_eight_jobs_counts_the_unassigned(self):
        text = to_dot(make_instance(2, list(range(1, 10))), 1)
        assert "+9 unassigned" in text
        assert text.count("+8 unassigned") == 2
        assert "J2/-" not in text


@st.composite
def instance_and_schedule(draw):
    m = draw(st.integers(2, 4))
    times = draw(st.lists(st.integers(1, 15), min_size=1, max_size=7))
    instance = make_instance(m, times)
    schedule = tuple(draw(st.integers(1, m)) for _ in times)
    return instance, schedule


class TestTreeInvariants:
    @given(instance_and_schedule())
    @settings(max_examples=150, deadline=None)
    def test_walk_final_loads_agree(self, case):
        instance, schedule = case
        path = walk_path(instance, schedule)
        assert list(path[-1].load_vector) == loads(instance, schedule)
        assert path[-1].assignment_prefix == schedule

    @given(st.integers(2, 3), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_leaf_stream_count_sorted_unique(self, m, n):
        instance = make_instance(m, [1] * n)
        got = list(leaves(instance))
        assert len(got) == count_schedules(m, n)
        assert got == sorted(got)
        assert len(set(got)) == len(got)
