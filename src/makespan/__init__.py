"""Exact workbench for makespan scheduling on identical parallel machines.

The package models instances and schedules with exact integer arithmetic,
exposes the lazy solution-space tree over job-to-machine assignments
(enumeration, path walks, closed-form counts, DOT rendering), solves
instances exactly by full enumeration or pruned search, verifies scheduling
certificates in polynomial time, and carries the equal-sum partition
reduction plus the multi-user scheduling model.

Importing the package loads none of its modules.  Each public name is looked
up in its defining module on first use (PEP 562) and kept, so a caller pays
only for the modules it touches: `import makespan.cli` loads `cli`, `files`
and `model`, and each command then loads the modules it runs.  The modules
themselves are reachable as attributes too, such as `makespan.solver`.
"""

import sys

# Every public name, under the module that defines it; __all__ and __getattr__
# both read this table.
_EXPORTS = {
    "model": (
        "BudgetExceeded",
        "Certificate",
        "DomainError",
        "Instance",
        "InvalidInstance",
        "InvalidMachineIndex",
        "InvalidSchedule",
        "LengthMismatch",
        "MumpspInstance",
        "PartitionInstance",
        "Schedule",
        "SchedulingError",
        "is_essential",
        "job_sets",
        "loads",
        "make_instance",
        "makespan",
        "schedule_from_job_sets",
        "theoretical_opt",
    ),
    "reductions": (
        "OrderedSchedule",
        "decide_partition",
        "mpsp_to_mumpsp",
        "mumpsp_flatten",
        "mumpsp_user_makespans",
        "partition_to_2psp",
        "schedule_to_partition",
        "subset_sum_oracle",
    ),
    "solver": (
        "MsOutcome",
        "SolveResult",
        "branch_and_bound",
        "brute_force_opt",
        "certificate_strategy",
        "exhaustive_strategy",
        "magic_schedule",
        "random_strategy",
    ),
    "tree": (
        "TreeNode",
        "children",
        "count_essential_exact",
        "count_essential_formula",
        "count_nodes",
        "count_partial",
        "count_schedules",
        "leaves",
        "root",
        "to_dot",
        "walk_path",
    ),
    "verifier": (
        "ACCEPT",
        "REJECT_ABOVE_THRESHOLD",
        "REJECT_INVALID_SCHEDULE",
        "REJECT_WRONG_MAKESPAN",
        "Verdict",
        "decide",
        "prove",
        "verify_certificate",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset({"cli", "files", *_EXPORTS})

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str) -> object:
    """A public name or a module of the package, imported on first use and
    kept, so a later lookup finds it without this call."""
    module = _ORIGIN.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own entry point, which -X importtime reports
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
