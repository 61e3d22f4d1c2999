"""Lazy solution-space tree over job-to-machine assignments.

Level b of the tree holds one node per assignment of the first b jobs, so for
n jobs on m machines the tree is a perfect m-ary tree of height n with m^n
leaves, one per complete schedule.  Each node carries its assignment prefix
together with the machine-load vector that prefix induces; a leaf's weight
(the maximum entry of its load vector) is exactly the makespan of the
schedule it encodes.

The tree is never materialized.  Nodes are generated on demand from
(instance, prefix) and discarded, so leaf enumeration keeps O(n) state.  A
path walk returns its n+1 nodes, each holding its own prefix, so it takes
O(n * (n + m)) time and memory.  Disjoint subtrees are addressed by their
prefixes.

The closed-form counters for nodes, schedules, strict prefixes, and
machine-covering (essential) schedules live here next to the enumeration they
describe.  Note that ``count_essential_formula`` (m^n - m) removes only the m
single-machine schedules and therefore overcounts for m >= 3; the
inclusion-exclusion surjection count ``count_essential_exact`` is the true
value, and the two coincide exactly when m = 2.  Both are exposed on purpose.
"""

import itertools
import sys
from math import comb
from collections.abc import Iterator, Sequence

from .model import (
    DEFAULT_NODE_CAP,
    BudgetExceeded,
    DomainError,
    Instance,
    Schedule,
    _int_at_least,
    _Record,
    _refuse_leaves_past,
    _set_field,
    loads,
)


class TreeNode(_Record):
    """One tree configuration: the first `level` jobs assigned, plus the load
    vector those assignments induce."""

    __slots__ = __match_args__ = ("level", "assignment_prefix", "load_vector")
    level: int
    assignment_prefix: tuple[int, ...]
    load_vector: tuple[int, ...]

    def __init__(
        self, level: int, assignment_prefix: tuple[int, ...], load_vector: tuple[int, ...]
    ) -> None:
        _set_field(self, "level", level)
        _set_field(self, "assignment_prefix", assignment_prefix)
        _set_field(self, "load_vector", load_vector)

    @property
    def weight(self) -> int:
        """Largest current machine load; for a leaf this is the makespan."""
        return max(self.load_vector)


def root(instance: Instance) -> TreeNode:
    """Initial configuration: nothing assigned, all loads zero."""
    return TreeNode(0, (), (0,) * instance.machine_count)


def _child(instance: Instance, node: TreeNode, machine: int) -> TreeNode:
    """`node` with the next job assigned to `machine` (1-based) and added to
    that machine's load."""
    grown = list(node.load_vector)
    grown[machine - 1] += instance.processing_times[node.level]
    return TreeNode(node.level + 1, node.assignment_prefix + (machine,), tuple(grown))


def children(instance: Instance, node: TreeNode) -> list[TreeNode]:
    """The m one-job extensions of `node`, ordered machine 1 first.

    Child j assigns the next job to machine j and adds its processing time to
    that machine's load.  Raises DomainError at the leaf level.
    """
    if node.level >= instance.job_count:
        raise DomainError(f"node at level {node.level} is a leaf")
    return [_child(instance, node, j) for j in range(1, instance.machine_count + 1)]


def leaves(instance: Instance) -> Iterator[Schedule]:
    """Yield every complete schedule exactly once, in lexicographic order of
    assignment vectors (machine 1 branch first).

    Lazy: O(n) state per consumer, never materializes the m^n leaves.
    """
    return itertools.product(range(1, instance.machine_count + 1), repeat=instance.job_count)


def walk_path(instance: Instance, schedule: Sequence[int]) -> list[TreeNode]:
    """The unique root-to-leaf node sequence selecting branch schedule[i] at
    level i; n+1 nodes in total, each holding its own prefix, so the walk
    takes O(n * (n + m)) time and memory.

    The final node's load vector equals loads(instance, schedule).  Raises
    LengthMismatch / InvalidMachineIndex for assignments that are not valid
    schedules.
    """
    loads(instance, schedule)  # raises unless the schedule is valid
    path = [root(instance)]
    for machine in schedule:
        path.append(_child(instance, path[-1], machine))
    return path


def count_nodes(machine_count: int, height: int) -> int:
    """Total nodes of the perfect m-ary tree of the given height:
    (m^(h+1) - 1) / (m - 1), evaluated exactly."""
    _int_at_least(machine_count, 2, "machine count", DomainError)
    _int_at_least(height, 0, "height", DomainError)
    return (machine_count ** (height + 1) - 1) // (machine_count - 1)


def count_schedules(machine_count: int, job_count: int) -> int:
    """Number of complete schedules: m^n."""
    _int_at_least(machine_count, 2, "machine count", DomainError)
    _int_at_least(job_count, 1, "job count", DomainError)
    return machine_count**job_count


def count_partial(machine_count: int, job_count: int) -> int:
    """Number of strict, non-empty prefix assignments (levels 1..n-1):
    (m^n - m) / (m - 1)."""
    return (count_schedules(machine_count, job_count) - machine_count) // (machine_count - 1)


def count_essential_formula(machine_count: int, job_count: int) -> int:
    """Closed form m^n - m: all schedules minus the m single-machine ones.

    Only the m = 2 case equals the true machine-covering count; for m >= 3
    this overcounts because schedules can leave a machine idle without being
    single-machine.  See count_essential_exact.
    """
    return count_schedules(machine_count, job_count) - machine_count


def count_essential_exact(machine_count: int, job_count: int) -> int:
    """Number of schedules that use every machine, i.e. surjections from n
    jobs onto m machines, by inclusion-exclusion:
    sum_{j=0..m} (-1)^j C(m,j) (m-j)^n.  Zero when m > n, since n jobs
    cover at most n machines."""
    _int_at_least(machine_count, 2, "machine count", DomainError)
    _int_at_least(job_count, 1, "job count", DomainError)
    m, n = machine_count, job_count
    if m > n:
        return 0
    return sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))


def _node_id(node: TreeNode) -> str:
    return "r" + "".join(f"-{j}" for j in node.assignment_prefix)


def _node_label(instance: Instance, node: TreeNode) -> str:
    n = instance.job_count
    parts = [f"J{i}/M{j}" for i, j in enumerate(node.assignment_prefix, 1)]
    if n <= 8:
        parts += [f"J{i}/-" for i in range(node.level + 1, n + 1)]
    elif node.level < n:
        parts.append(f"+{n - node.level} unassigned")
    config = " ".join(parts)
    load = "loads (" + ", ".join(str(v) for v in node.load_vector) + ")"
    return f"{config}\\n{load}"


def to_dot(instance: Instance, max_level: int, node_cap: int = DEFAULT_NODE_CAP) -> str:
    """Graphviz DOT rendering of the tree down to `max_level`.

    Node labels show the assignment configuration and the load vector; edge
    labels show the job-to-machine action.  Raises DomainError unless
    max_level is a plain int in 0..n and node_cap a plain int >= 1.  Refuses
    with BudgetExceeded, before any work, when the widest rendered level
    would exceed `node_cap` nodes, and once the rendering, which nests one
    call per level, goes deeper than the interpreter's recursion limit.
    """
    _int_at_least(max_level, 0, "max_level", DomainError)
    _int_at_least(node_cap, 1, "node cap", DomainError)
    n = instance.job_count
    if max_level > n:
        raise DomainError(f"max_level must be in 0..{n}, got {max_level}")
    _refuse_leaves_past(instance.machine_count, max_level, node_cap, "node cap")
    lines = [
        "digraph schedule_tree {",
        "  rankdir=TB;",
        "  node [shape=box];",
    ]

    def emit(node: TreeNode) -> None:
        nid = _node_id(node)
        lines.append(f'  "{nid}" [label="{_node_label(instance, node)}"];')
        if node.level < max_level:
            for child in children(instance, node):
                action = f"J{node.level + 1}->M{child.assignment_prefix[-1]}"
                lines.append(f'  "{nid}" -> "{_node_id(child)}" [label="{action}"];')
                emit(child)

    try:
        emit(root(instance))
    except RecursionError:
        raise BudgetExceeded(
            f"the rendering nests one call per level, and {max_level} levels go deeper "
            f"than the interpreter's recursion limit of {sys.getrecursionlimit()} allows"
        ) from None
    lines.append("}")
    return "\n".join(lines) + "\n"
