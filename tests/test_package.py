"""The package's public surface, and the modules that importing it and running
each command load."""

import importlib
import subprocess
import sys

import pytest

import makespan

# The public names, by defining module, as the package has always exported
# them; __all__ lists them in sorted order.
PUBLIC = {
    "model": [
        "BudgetExceeded", "DomainError", "Instance", "InvalidInstance",
        "InvalidMachineIndex", "InvalidSchedule", "LengthMismatch", "Schedule",
        "SchedulingError", "is_essential", "job_sets", "loads", "make_instance",
        "makespan", "schedule_from_job_sets", "theoretical_opt",
    ],
    "reductions": [
        "MumpspInstance", "OrderedSchedule", "PartitionInstance", "decide_partition",
        "mpsp_to_mumpsp", "mumpsp_flatten", "mumpsp_user_makespans",
        "partition_to_2psp", "schedule_to_partition", "subset_sum_oracle",
    ],
    "solver": [
        "MsOutcome", "SolveResult", "branch_and_bound", "brute_force_opt",
        "certificate_strategy", "exhaustive_strategy", "magic_schedule",
        "random_strategy",
    ],
    "tree": [
        "TreeNode", "children", "count_essential_exact", "count_essential_formula",
        "count_nodes", "count_partial", "count_schedules", "leaves", "root",
        "to_dot", "walk_path",
    ],
    "verifier": [
        "ACCEPT", "REJECT_ABOVE_THRESHOLD", "REJECT_INVALID_SCHEDULE",
        "REJECT_WRONG_MAKESPAN", "Certificate", "Verdict", "decide", "prove",
        "verify_certificate",
    ],
}


def fresh(code: str, *args: str) -> str:
    """stdout of `code` run in a new interpreter, which has imported nothing
    of the package yet."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True
    )
    return result.stdout


class TestPublicSurface:
    def test_all_is_unchanged(self):
        assert makespan.__all__ == sorted(name for names in PUBLIC.values() for name in names)

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_names_are_the_defining_modules_objects(self, module):
        defining = importlib.import_module(f"makespan.{module}")
        for name in PUBLIC[module]:
            assert getattr(makespan, name) is getattr(defining, name), name

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from makespan import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == makespan.__all__

    def test_dir_lists_all_before_first_use(self):
        code = "import makespan; print(set(makespan.__all__) <= set(dir(makespan)))"
        assert fresh(code) == "True\n"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="^module 'makespan' has no attribute 'nosuch'$"):
            makespan.nosuch

    def test_modules_are_attributes(self):
        assert fresh("import makespan; print(makespan.solver.__name__)") == "makespan.solver\n"


# Runs one command through cli.main, then prints the package modules loaded.
# Only makespan.* names are checked: the interpreter's own start-up may
# already import stdlib modules such as random or typing.
RUN_AND_LIST = (
    "import sys\n"
    "from makespan.cli import main\n"
    "main(sys.argv[1:])\n"
    "print(*sorted(name for name in sys.modules if name.startswith('makespan.')))\n"
)

SEARCH_MODULES = {"makespan.solver", "makespan.reductions", "makespan.verifier"}


class TestModulesLoaded:
    def test_import_loads_no_module(self):
        code = "import sys, makespan; print([m for m in sys.modules if m.startswith('makespan.')])"
        assert fresh(code) == "[]\n"

    @pytest.mark.parametrize(
        "argv,left_out",
        [
            (["count", "--m", "2", "--n", "3"], SEARCH_MODULES),
            (["gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9"], SEARCH_MODULES),
            (["dot", "{file}", "--max-level", "1"], SEARCH_MODULES),
            (["solve", "{file}", "--method", "bnb"], {"makespan.tree"}),
        ],
        ids=["count", "gen", "dot", "solve-bnb"],
    )
    def test_command_leaves_out(self, tmp_path, argv, left_out):
        path = tmp_path / "demo.json"
        path.write_text('{"machines": 2, "jobs": [1, 1, 3]}')
        out = fresh(RUN_AND_LIST, *[arg.format(file=path) for arg in argv])
        loaded = set(out.splitlines()[-1].split())
        assert "makespan.cli" in loaded
        assert not loaded & left_out
