"""The package's public surface, and the modules that importing it and running
each command load."""

import importlib
import os
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


def fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """stdout of `code` run in a new interpreter, which has imported nothing
    of the package yet; `flags` go to the interpreter.  The package is found
    through PYTHONPATH, so it loads also under -S, which skips site-packages."""
    source = os.path.dirname(os.path.dirname(makespan.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
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


# Runs one command through cli.main, then prints every module loaded.  The
# interpreter's start-up may import stdlib modules itself (site does, through
# the .pth files of some installs), so stdlib names are checked only in an
# interpreter started with -S, which skips site.
RUN_AND_LIST = (
    "import sys\n"
    "from makespan.cli import main\n"
    "main(sys.argv[1:])\n"
    "print(*sorted(sys.modules))\n"
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


# The stdlib modules a command may load only when it runs them: annotations
# are evaluated without __future__, files are read without pathlib, and only
# gen draws from random.
LAZY_STDLIB = {"__future__", "pathlib", "random"}


class TestStdlibLoaded:
    @pytest.mark.parametrize(
        "argv,loads",
        [
            (["count", "--m", "2", "--n", "3"], set()),
            (["gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9"], {"random"}),
            (["dot", "{dir}/demo.json", "--max-level", "1"], set()),
            (["verify", "{dir}/demo.json", "{dir}/cert.json", "--threshold", "3"], set()),
            (["decide", "{dir}/demo.json", "--threshold", "3"], set()),
            (["reduce-partition", "{dir}/weights.json"], set()),
            (["reduce-mumpsp", "{dir}/demo.json"], set()),
            (["solve", "{dir}/demo.json", "--method", "bnb"], set()),
        ],
        ids=[
            "count", "gen", "dot", "verify", "decide", "reduce-partition",
            "reduce-mumpsp", "solve-bnb",
        ],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, loads):
        (tmp_path / "demo.json").write_text('{"machines": 2, "jobs": [1, 1, 3]}')
        (tmp_path / "cert.json").write_text('{"assignment": [1, 1, 2], "makespan": 3}')
        (tmp_path / "weights.json").write_text('{"weights": [1, 1, 2]}')
        argv = [arg.format(dir=tmp_path) for arg in argv]
        out = fresh(RUN_AND_LIST, *argv, flags=("-S",))
        loaded = set(out.splitlines()[-1].split())
        assert "makespan.cli" in loaded
        assert loaded & LAZY_STDLIB == loads
