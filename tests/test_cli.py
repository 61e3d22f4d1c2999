import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import branch_and_bound, decide_partition, make_instance, PartitionInstance
from makespan import cli, solver
from makespan.cli import main
from makespan.files import (
    FileFormatError,
    dump_json,
    load_certificate,
    load_instance,
    load_json,
    parse_certificate,
    parse_instance,
    parse_partition,
)
from makespan.model import MAX_MACHINES


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text('{"machines": 2, "jobs": [1, 1, 3]}')
    return str(path)


@pytest.fixture
def cert_file(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"assignment": [1, 1, 2], "makespan": 3}')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFiles:
    def test_instance_round_trip(self):
        instance = parse_instance({"machines": 2, "jobs": [1, 1, 3]})
        assert instance.processing_times == (1, 1, 3)

    def test_unknown_field(self):
        with pytest.raises(FileFormatError, match="unknown field 'threshold'"):
            parse_instance({"machines": 2, "jobs": [1], "threshold": 3})

    def test_missing_field(self):
        with pytest.raises(FileFormatError, match="missing field 'jobs'"):
            parse_instance({"machines": 2})

    def test_field_precise_type_error(self):
        with pytest.raises(FileFormatError, match=r"processing time of job 2"):
            parse_instance({"machines": 2, "jobs": [1, "x"]})

    def test_bool_rejected(self):
        with pytest.raises(FileFormatError):
            parse_instance({"machines": True, "jobs": [1]})

    def test_invalid_instance_content(self):
        with pytest.raises(FileFormatError, match="processing time"):
            parse_instance({"machines": 2, "jobs": [1, 0]})

    def test_partition(self):
        assert parse_partition({"weights": [2, 3]}).weights == (2, 3)
        with pytest.raises(FileFormatError):
            parse_partition({"weights": [0]})

    def test_partition_weight_named_by_its_builder(self):
        with pytest.raises(
            FileFormatError, match=r"^partition file: weight 2 must be an integer, got 'x'$"
        ):
            parse_partition({"weights": [1, "x"]})

    def test_machine_count_bound(self):
        assert parse_instance({"machines": MAX_MACHINES, "jobs": [1]}).machine_count == MAX_MACHINES
        with pytest.raises(FileFormatError, match=r"machine count must be <= \d+, got"):
            parse_instance({"machines": MAX_MACHINES + 1, "jobs": [1]})

    # `renamed` has its first field renamed, so that field is both unknown
    # and missing; `invalid` passes the reader but not the builder
    @pytest.mark.parametrize(
        "parse,kind,renamed,invalid",
        [
            (
                parse_instance,
                "instance",
                {"machine": 2, "jobs": [1]},
                ({"machines": 1, "jobs": [1]}, "machine count must be >= 2, got 1"),
            ),
            (
                parse_partition,
                "partition",
                {"weight": [1]},
                ({"weights": [2, 0]}, "weight 2 must be >= 1, got 0"),
            ),
            (parse_certificate, "certificate", {"makespans": 1, "assignment": [1]}, None),
        ],
    )
    def test_every_reader_checks_its_object(self, parse, kind, renamed, invalid):
        with pytest.raises(FileFormatError, match=rf"^{kind} file: expected a JSON object$"):
            parse([renamed])
        unknown = next(iter(renamed))
        with pytest.raises(FileFormatError, match=rf"^{kind} file: unknown field '{unknown}'$"):
            parse(renamed)
        if invalid is not None:
            data, message = invalid
            with pytest.raises(FileFormatError, match=rf"^{kind} file: {message}$"):
                parse(data)

    def test_certificate(self):
        cert = parse_certificate({"assignment": [1, 2], "makespan": 4})
        assert cert.schedule == (1, 2)
        assert cert.claimed_makespan == 4

    def test_load_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"machines": 2,\n "jobs": [1,]}')
        with pytest.raises(FileFormatError, match="line 2"):
            load_instance(bad)

    @pytest.mark.parametrize("load", [load_json, load_instance])
    def test_int_path_refused_unread(self, load, demo_file):
        # open would read an int as a file descriptor
        fd = os.open(demo_file, os.O_RDONLY)
        try:
            for path in (fd, 0, 3):
                with pytest.raises(TypeError):
                    load(path)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        finally:
            os.close(fd)

    @pytest.mark.parametrize(
        "content,reason",
        [
            ("directory", "Is a directory"),
            (None, "No such file or directory"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (
                b"[" * 100_000 + b"]" * 100_000,
                "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
            ),
        ],
        ids=["directory", "missing", "not-utf8", "nested"],
    )
    def test_read_failure_message(self, tmp_path, content, reason):
        path = tmp_path / "input.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(FileFormatError) as excinfo:
            load_json(str(path))
        assert str(excinfo.value) == f"{path}: {reason}"


class TestGen:
    def test_schema_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9")
        assert code == 0
        code, out2, _ = run(capsys, "gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9")
        assert out1 == out2
        instance = parse_instance(json.loads(out1))
        assert instance.machine_count == 2
        assert instance.job_count == 3
        assert all(1 <= p <= 9 for p in instance.processing_times)

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "1", "--m", "2", "--n", "8", "--pmax", "50")
        _, out2, _ = run(capsys, "gen", "--seed", "2", "--m", "2", "--n", "8", "--pmax", "50")
        assert out1 != out2

    def test_bad_machine_count(self, capsys):
        code, _, _ = run(capsys, "gen", "--seed", "1", "--m", "1", "--n", "3", "--pmax", "9")
        assert code == 2

    def test_bad_job_count(self, capsys):
        code, _, _ = run(capsys, "gen", "--seed", "1", "--m", "2", "--n", "0", "--pmax", "9")
        assert code == 2


class TestCount:
    def test_two_machines(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "2", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "nodes=15",
            "schedules=8",
            "partial=6",
            "essential_formula=6",
            "essential_exact=6",
        ]

    def test_three_machines_footnote(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "3", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert "essential_formula=24" in lines
        assert "essential_exact=6" in lines
        assert lines[-1].startswith("note:")

    def test_single_job(self, capsys):
        _, out, _ = run(capsys, "count", "--m", "2", "--n", "1")
        assert "schedules=2" in out
        assert "partial=0" in out
        assert "essential_exact=0" in out

    def test_bad_flags(self, capsys):
        assert run(capsys, "count", "--m", "0", "--n", "3")[0] == 2


class TestSolve:
    def test_brute(self, capsys, demo_file):
        code, out, _ = run(capsys, "solve", demo_file, "--method", "brute")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == 3
        assert payload["assignment"] == [1, 1, 2]
        assert payload["leaves_explored"] == 8
        assert payload["nodes_pruned"] == 0

    def test_bnb_same_optimum(self, capsys, demo_file):
        code, out, _ = run(capsys, "solve", demo_file, "--method", "bnb")
        assert code == 0
        assert json.loads(out)["optimum"] == 3

    def test_deterministic_output(self, capsys, demo_file):
        _, out1, _ = run(capsys, "solve", demo_file)
        _, out2, _ = run(capsys, "solve", demo_file)
        assert out1 == out2

    def test_budget_exit(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text(dump_json({"machines": 2, "jobs": [1] * 30}))
        code, _, err = run(capsys, "solve", str(huge))
        assert code == 3
        assert "error" in err

    def test_bnb_node_budget_exit(self, capsys, tmp_path):
        # nine jobs on three machines: reaching the first leaf alone expands
        # nine nodes and generates 27 children
        path = tmp_path / "nine.json"
        path.write_text(dump_json({"machines": 3, "jobs": [10, 11, 12, 13, 14, 15, 16, 17, 19]}))
        code, out, err = run(capsys, "solve", str(path), "--method", "bnb", "--leaf-budget", "20")
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
        assert run(capsys, "solve", str(path), "--method", "bnb")[0] == 0

    def test_bnb_searches_longest_job_first(self, capsys, tmp_path):
        # the file of test_bnb_node_budget_exit, where the least optimal
        # schedule in LPT order is not the least one in file order
        jobs = [10, 11, 12, 13, 14, 15, 16, 17, 19]
        path = tmp_path / "nine.json"
        path.write_text(dump_json({"machines": 3, "jobs": jobs}))
        code, out, _ = run(capsys, "solve", str(path), "--method", "bnb")
        assert code == 0
        printed = json.loads(out)
        instance = make_instance(3, jobs)
        expected = branch_and_bound(instance, lpt_order=True)
        assert expected.best_schedule != branch_and_bound(instance).best_schedule
        assert (printed["optimum"], tuple(printed["assignment"])) == (
            expected.optimum,
            expected.best_schedule,
        )
        cert = tmp_path / "cert.json"
        cert.write_text(dump_json({"assignment": printed["assignment"], "makespan": printed["optimum"]}))
        threshold = str(printed["optimum"])
        code, out, _ = run(capsys, "verify", str(path), str(cert), "--threshold", threshold)
        assert (code, out.strip()) == (0, "accept")

    def test_threads_changes_nothing(self, capsys, tmp_path):
        # --threads is accepted and ignored, but still refuses a count below 1
        path = tmp_path / "twelve.json"
        path.write_text(dump_json({"machines": 3, "jobs": list(range(1, 13))}))
        plain = run(capsys, "solve", str(path), "--method", "brute")
        assert plain[0] == 0
        assert run(capsys, "solve", str(path), "--method", "brute", "--threads", "3") == plain
        assert run(capsys, "solve", str(path), "--threads", "0")[0] == 2

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "solve", str(bad))[0] == 2


class TestVerify:
    def test_accept(self, capsys, demo_file, cert_file):
        code, out, _ = run(capsys, "verify", demo_file, cert_file, "--threshold", "3")
        assert code == 0
        assert out.strip() == "accept"

    def test_reject_above_threshold(self, capsys, demo_file, cert_file):
        code, out, _ = run(capsys, "verify", demo_file, cert_file, "--threshold", "2")
        assert code == 1
        assert out.startswith("reject_above_threshold")

    def test_reject_wrong_makespan(self, capsys, demo_file, tmp_path):
        lying = tmp_path / "lying.json"
        lying.write_text('{"assignment": [1, 1, 2], "makespan": 2}')
        code, out, _ = run(capsys, "verify", demo_file, str(lying), "--threshold", "3")
        assert code == 1
        assert out.startswith("reject_wrong_makespan claimed=2 actual=3")

    def test_malformed_certificate(self, capsys, demo_file, tmp_path):
        bad = tmp_path / "malformed.json"
        bad.write_text('{"assignment": [1, 1, 2]}')
        assert run(capsys, "verify", demo_file, str(bad), "--threshold", "3")[0] == 2


class TestDecide:
    def test_yes_with_witness(self, capsys, demo_file, tmp_path):
        witness_path = tmp_path / "witness.json"
        code, out, _ = run(
            capsys, "decide", demo_file, "--threshold", "3", "--witness-out", str(witness_path)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "yes"
        witness = parse_certificate(json.loads(lines[1]))
        assert witness.claimed_makespan == 3
        assert load_certificate(witness_path) == witness

    def test_no(self, capsys, demo_file):
        code, out, _ = run(capsys, "decide", demo_file, "--threshold", "2")
        assert code == 1
        assert out.strip() == "no"

    def test_witness_verifies(self, capsys, demo_file, tmp_path):
        witness_path = tmp_path / "witness.json"
        run(capsys, "decide", demo_file, "--threshold", "3", "--witness-out", str(witness_path))
        code, out, _ = run(capsys, "verify", demo_file, str(witness_path), "--threshold", "3")
        assert (code, out.strip()) == (0, "accept")

    def test_budget_counts_nodes_not_leaves(self, capsys, tmp_path):
        # 2^27 leaves, but the search generates 54 nodes
        path = tmp_path / "ones.json"
        path.write_text(dump_json({"machines": 2, "jobs": [1] * 27}))
        code, out, _ = run(capsys, "decide", str(path), "--threshold", "14")
        assert code == 0
        assert out.splitlines()[0] == "yes"

    def test_node_budget_exit(self, capsys, tmp_path):
        # the file of TestSolve.test_bnb_node_budget_exit, at its optimum 43
        path = tmp_path / "nine.json"
        path.write_text(dump_json({"machines": 3, "jobs": [10, 11, 12, 13, 14, 15, 16, 17, 19]}))
        code, out, err = run(capsys, "decide", str(path), "--threshold", "43", "--leaf-budget", "20")
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


class TestReduce:
    def test_reduce_partition_output(self, capsys, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"weights": [2, 3, 5, 4]}')
        code, out, err = run(capsys, "reduce-partition", str(pfile))
        assert code == 0
        assert json.loads(out) == {"machines": 2, "jobs": [2, 3, 5, 4]}
        assert err.strip() == "threshold=7"

    def test_reduce_partition_fractional_threshold(self, capsys, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"weights": [1, 1, 3]}')
        _, _, err = run(capsys, "reduce-partition", str(pfile))
        assert err.strip() == "threshold=5/2"

    @pytest.mark.parametrize("weights", [[2, 3, 5, 4], [1, 1, 3], [1, 1, 6], [5, 5]])
    def test_pipe_into_decide_matches_library(self, capsys, tmp_path, weights):
        pfile = tmp_path / "p.json"
        pfile.write_text(dump_json({"weights": weights}))
        code, out, _ = run(capsys, "reduce-partition", str(pfile))
        assert code == 0
        piped = tmp_path / "piped.json"
        piped.write_text(out)
        threshold = sum(weights) // 2  # floor works for odd totals too
        if threshold < 1:
            threshold = 1
        code, _, _ = run(capsys, "decide", str(piped), "--threshold", str(threshold))
        expected = decide_partition(PartitionInstance(tuple(weights)))
        assert (code == 0) == expected

    def test_reduce_mumpsp(self, capsys, demo_file):
        code, out, _ = run(capsys, "reduce-mumpsp", demo_file)
        assert code == 0
        assert json.loads(out) == {"machines": 2, "users": [[1, 1, 3]]}


class TestDot:
    def test_renders_full_tree(self, capsys, demo_file):
        code, out, _ = run(capsys, "dot", demo_file, "--max-level", "3")
        assert code == 0
        body = [line for line in out.splitlines() if "[label=" in line]
        assert len([line for line in body if " -> " not in line]) == 15

    def test_too_large(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(dump_json({"machines": 2, "jobs": [1] * 20}))
        assert run(capsys, "dot", str(big), "--max-level", "20")[0] == 3

    def test_level_beyond_height(self, capsys, demo_file):
        assert run(capsys, "dot", demo_file, "--max-level", "4")[0] == 2

    def test_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(dump_json({"machines": 2, "jobs": [1] * 1200}))
        argv = ["dot", str(path), "--max-level", "1100", "--node-cap", str(2**1200)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err and "1100 levels go deeper" in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "makespan", "count", "--m", "2", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "nodes=15" in result.stdout

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv, code",
        [(["count", "--m", "2", "--n", "3"], 0), (["decide", "{demo}", "--threshold", "2"], 1)],
    )
    def test_cli_module_answers_as_the_package(self, demo_file, argv, code):
        argv = [a.format(demo=demo_file) for a in argv]
        package, module = (
            subprocess.run([sys.executable, "-m", name, *argv], capture_output=True, text=True)
            for name in ("makespan", "makespan.cli")
        )
        assert package.returncode == code and package.stdout
        assert (module.returncode, module.stdout) == (package.returncode, package.stdout)

    # Start-up pays for every module the package imports: the brute-force
    # scan runs in this process, so nothing needs concurrent.futures; only
    # the exact thresholds need fractions, and the records are plain classes,
    # so no command pays for dataclasses and the inspect chain it imports.
    @pytest.mark.parametrize(
        "module", ["concurrent.futures", "dataclasses", "inspect", "fractions"]
    )
    def test_import_leaves_out(self, module):
        code = f"import sys, makespan.cli; print({module!r} in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout == "False\n"


class TestParserReuse:
    """main builds each parser once per process; no call leaves state behind."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()
        assert cli.command_parser("solve") is cli.command_parser("solve")

    def test_import_builds_nothing(self):
        code = (
            "import makespan.cli as c; "
            "print(c.build_parser.cache_info().currsize, c.command_parser.cache_info().currsize)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout == "0 0\n"

    def test_command_builds_only_its_parser(self):
        code = (
            "import makespan.cli as c; code = c.main(['count', '--m', '2', '--n', '3']); "
            "print(code, c.build_parser.cache_info().currsize, "
            "c.command_parser.cache_info().currsize, c.command_parser.cache_info().misses)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "0 0 1 1"

    @pytest.mark.parametrize("argv", [[], ["nosuch"], ["--help"], ["count", "--m", "2", "--n", "3", "x"]])
    def test_full_parser_words_the_rest(self, argv):
        code = (
            "import sys, makespan.cli as c; code = c.main(sys.argv[1:]); "
            "print(code, c.build_parser.cache_info().currsize)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == f"{0 if argv == ['--help'] else 2} 1"

    def test_calls_leak_nothing(self, capsys, demo_file, tmp_path):
        witness = tmp_path / "witness.json"
        assert run(capsys, "decide", demo_file, "--no-such-flag")[0] == 2
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: makespan")
        argv = ["decide", demo_file, "--threshold", "3"]
        assert run(capsys, *argv, "--witness-out", str(witness))[0] == 0
        witness.write_text("kept")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("yes\n")
        assert witness.read_text() == "kept"
        assert cli.build_parser().parse_args(argv).witness_out is None

    def test_repeated_solve_matches_a_fresh_process(self, capsys, demo_file):
        argv = ["solve", demo_file, "--method", "bnb"]
        first, second = run(capsys, *argv), run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "makespan", *argv], capture_output=True, text=True
        )
        assert first == second == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestParsePaths:
    """A command parses with its own parser, yet prints and exits exactly as
    the full parser makes it: each argv gives the same exit code, stdout and
    stderr as the same argv forced through the full parser."""

    FLAGS = (
        "--seed", "--m", "--n", "--pmax", "--method", "--threads", "--leaf-budget",
        "--threshold", "--witness-out", "--max-level", "--node-cap", "-h", "--help", "--h",
        "--meth", "--le", "--th", "--bogus", "--", "-x", "--m=3", "--method=bnb", "--help=x",
    )

    @pytest.fixture
    def paths(self, demo_file, cert_file, tmp_path):
        partition = tmp_path / "weights.json"
        partition.write_text('{"weights": [1, 1, 2]}')
        witness = str(tmp_path / "witness.json")
        return demo_file, cert_file, str(partition), witness

    def corpus(self, paths):
        instance, cert, partition, witness = paths
        commands = list(cli._COMMANDS)
        argvs = [[], ["nosuch"], ["-h"], ["--help"], ["--"], ["--", "count"]]
        for command in commands:
            for tail in (
                ["-h"], ["--h"], [], ["--threshold", "x"], ["--m", "x"], ["--bogus"],
                [instance, "extra"], ["--"], ["--", instance], [instance, "--meth", "bnb"],
            ):
                argvs.append([command, *tail])
            # both sides run the full parser here, so only its subparsers answer
            argvs += [["-x", command], ["-x", command, "-h"]]
        argvs += [
            ["gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9"],
            ["count", "--m", "2", "--n", "3"],
            ["solve", instance, "--method", "bnb"],
            ["verify", instance, cert, "--threshold", "3"],
            ["verify", instance, cert, "--threshold", "2"],
            ["decide", instance, "--threshold", "3", "--witness-out", witness],
            ["reduce-partition", partition],
            ["reduce-mumpsp", instance],
            ["dot", instance, "--max-level", "2"],
        ]
        values = ["0", "1", "2", "3", "-1", "x", "bnb", "brute", "1e3", "", "nosuch.json", *paths]
        rng = random.Random(2024)
        for _ in range(2000):
            argv = [rng.choice([*commands, "nosuch", "-h", "--"])]
            for _ in range(rng.randint(0, 7)):
                argv.append(rng.choice(self.FLAGS if rng.random() < 0.45 else values))
            argvs.append(argv)
        return argvs

    def test_same_output_on_both_paths(self, capsys, monkeypatch, paths):
        argvs = self.corpus(paths)
        own = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        full = [run(capsys, *argv) for argv in argvs]
        differ = [(argv, a, b) for argv, a, b in zip(argvs, own, full) if a != b]
        assert not differ, differ[:3]
        # the corpus reaches the handlers, not only the parsers' errors
        assert {code for code, _, _ in own} == {0, 1, 2}

    def test_full_parser_keeps_command_arguments(self, capsys):
        code, out, err = run(capsys, "-x", "solve")
        assert (code, out) == (2, "")
        assert err.endswith(
            "makespan solve: error: the following arguments are required: instance_file\n"
        )

    def test_unrecognized_words_as_top_level(self, capsys, demo_file):
        code, out, err = run(capsys, "solve", demo_file, "--method", "bnb", "extra")
        assert (code, out) == (2, "")
        assert err.endswith("makespan: error: unrecognized arguments: extra\n")
        assert err.startswith("usage: makespan [-h]")


class TestDeepSearch:
    """The pruned search nests one call per job.  Past the interpreter's
    recursion limit it stops as over budget: exit 3, never a traceback or
    the exit 1 of a wrong "no"."""

    @pytest.mark.parametrize(
        "argv", [["decide", "--threshold", "10002"], ["solve", "--method", "bnb"]]
    )
    def test_exits_3_without_traceback(self, capsys, tmp_path, argv):
        # every time is even, so LPT's 5002 is above the bound 5001, and no
        # schedule meets it: the search has to prove 5002 at depth 5000
        path = tmp_path / "deep.json"
        path.write_text(dump_json({"machines": 2, "jobs": [2] * 4999 + [4]}))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert "Traceback" not in err and "5000 jobs go deeper" in err

    def test_bound_met_by_lpt(self, capsys, tmp_path):
        # LPT meets the bound 2500, but the witness is the least schedule,
        # found only at a leaf 5000 levels down: over budget, not a "no".
        # A threshold below the bound is still answered before any search.
        path = tmp_path / "ones.json"
        path.write_text(dump_json({"machines": 2, "jobs": [1] * 5000}))
        code, out, err = run(capsys, "decide", str(path), "--threshold", "2500")
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert run(capsys, "decide", str(path), "--threshold", "2499")[:2] == (1, "no\n")


class TestClosedStdout:
    """A stdout closed before the output is written exits 2, not with a
    traceback."""

    def test_write_raises(self, demo_file):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        err = io.StringIO()
        with redirect_stdout(Closed()), redirect_stderr(err):
            code = main(["reduce-mumpsp", demo_file])
        assert (code, err.getvalue()) == (2, "error: stdout: Broken pipe\n")

    def test_closed_pipe(self, demo_file):
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "makespan", "reduce-mumpsp", demo_file],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (2, "error: stdout: Broken pipe\n")


_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no integer digit limit, so the file is valid",
)
_jobs_4300 = b",".join([b"9" * 4300] * 3)


class TestExitCodeBoundary:
    """Exit 2 for every file the CLI cannot read, parse or write, and for
    every count it could not print."""

    @pytest.mark.parametrize(
        "content,argv",
        [
            pytest.param(
                b'{"machines": 2, "jobs": [1, 2\xff]}',
                ["solve", "{file}", "--method", "bnb"],
                id="non-utf8",
            ),
            pytest.param(
                b'{"machines": 2, "jobs": [' + b"7" * 5000 + b"]}",
                ["solve", "{file}", "--method", "bnb"],
                id="5000-digit-job",
                marks=_digit_limit,
            ),
            # each job parses, but the optimum would have 4301 digits
            pytest.param(
                b'{"machines": 2, "jobs": [' + _jobs_4300 + b"]}",
                ["solve", "{file}", "--method", "bnb"],
                id="4301-digit-total",
                marks=_digit_limit,
            ),
            pytest.param(
                b'{"weights": [' + _jobs_4300 + b"]}",
                ["reduce-partition", "{file}"],
                id="4301-digit-weight-total",
                marks=_digit_limit,
            ),
            # 2**20000 has 6021 digits; it is refused before it is computed
            pytest.param(
                b"",
                ["count", "--m", "2", "--n", "20000"],
                id="count-20000-jobs",
                marks=_digit_limit,
            ),
            # 2**14284 has 4300 digits, but the node count 2**14285 - 1 has 4301
            pytest.param(
                b"",
                ["count", "--m", "2", "--n", "14284"],
                id="count-4301-digit-nodes",
                marks=_digit_limit,
            ),
            # gen prints only files the other commands load
            pytest.param(
                b"",
                ["gen", "--seed", "1", "--m", str(2**62), "--n", "2", "--pmax", "3"],
                id="gen-2**62-machines",
            ),
            # the job list is never built
            pytest.param(
                b"",
                ["gen", "--seed", "1", "--m", "2", "--n", str(2**62), "--pmax", "3"],
                id="gen-2**62-jobs",
            ),
            # 2**20 jobs of up to 16 digits and a comma pass 2**24 characters
            pytest.param(
                b"",
                ["gen", "--seed", "1", "--m", "2", "--n", str(2**20), "--pmax", "9" * 16],
                id="gen-2**24-characters",
            ),
            pytest.param(
                b"",
                ["gen", "--seed", "1", "--m", "2", "--n", "3", "--pmax", "9" * 4300],
                id="gen-4301-digit-total",
                marks=_digit_limit,
            ),
            pytest.param(
                b"[" * 100_000 + b"]" * 100_000,
                ["solve", "{file}", "--method", "bnb"],
                id="100k-deep",
            ),
            pytest.param(
                b'{"machines": 2, "jobs": [1, 1, 3]}',
                ["decide", "{file}", "--threshold", "3", "--witness-out", "{dir}/missing/cert.json"],
                id="witness-out-missing-dir",
            ),
        ],
    )
    def test_exits_2_without_traceback(self, capsys, tmp_path, content, argv):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [arg.format(file=path, dir=tmp_path) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert out == ""

    def test_brute_past_the_digit_limit_exits_3(self, capsys, tmp_path):
        # 2^14285 has 4301 digits: the refusal names the power, never prints it
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"machines": 2, "jobs": [1] * 14285}))
        code, out, err = run(capsys, "solve", str(path), "--method", "brute")
        assert code == 3
        assert err == f"error: 2^14285 leaves exceed the budget of {solver.DEFAULT_LEAF_BUDGET}\n"
        assert out == ""


# Arbitrary bytes and arbitrary JSON, or objects shaped like instance,
# certificate and partition files so that the commands also get past the
# parser.  Integers stay within 10**6, because every load vector has one entry
# per machine and a machine count of 10**6 still loads (see
# test_huge_machine_count below for what does not).  Partition weights and
# count and gen flags reach past the interpreter's 4300-digit limit, the gen
# machine count past model.MAX_MACHINES, the gen job count past
# cli.MAX_GEN_JOBS and the jobs' printed size past cli.MAX_GEN_CHARS; what gen
# prints must load.
def _encoded(value) -> bytes:
    return json.dumps(value).encode()


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_garbage = st.binary(max_size=64) | _json.map(_encoded)
_instance_file = st.one_of(
    st.fixed_dictionaries(
        {"machines": st.integers(2, 4), "jobs": st.lists(st.integers(1, 20), min_size=1, max_size=8)}
    ).map(_encoded),
    st.fixed_dictionaries(
        {"machines": st.integers(-1, 4) | _json, "jobs": st.lists(st.integers(0, 20)) | _json}
    ).map(_encoded),
    _garbage,
)
_certificate_file = st.one_of(
    st.fixed_dictionaries(
        {"assignment": st.lists(st.integers(1, 4), min_size=1, max_size=8), "makespan": st.integers(1, 60)}
    ).map(_encoded),
    st.fixed_dictionaries(
        {"assignment": st.lists(st.integers(-1, 5)) | _json, "makespan": st.integers(-1, 60) | _json}
    ).map(_encoded),
    _garbage,
)
# (--n, --pmax): a short list, too many jobs, or jobs too long to print.  A
# pmax of b bits has more than (b - 1) // 4 digits, so the last kind passes
# the character bound by any count of the digits.
_gen_size = st.one_of(
    st.tuples(st.integers(1, 50), st.integers(1, 10**4300 - 1)),
    st.tuples(st.integers(cli.MAX_GEN_JOBS + 1, 2**62), st.integers(1, 10**4300 - 1)),
    st.integers(69, 14000).flatmap(
        lambda b: st.tuples(
            st.integers(cli.MAX_GEN_CHARS // ((b - 1) // 4) + 1, cli.MAX_GEN_JOBS),
            st.integers(2 ** (b - 1), 2**b - 1),
        )
    ),
)
_partition_file = st.one_of(
    st.fixed_dictionaries(
        {"weights": st.lists(st.integers(-1, 20) | st.integers(1, 10**4300 - 1), max_size=8)}
    ).map(_encoded),
    _garbage,
)


class TestAnyFile:
    @given(
        instance=_instance_file,
        certificate=_certificate_file,
        partition=_partition_file,
        command=st.sampled_from(
            ["solve", "solve-bnb", "verify", "decide", "reduce-mumpsp", "dot", "count", "reduce-partition", "gen"]
        ),
        threshold=st.integers(1, 40),
        level=st.integers(0, 4),
        m=st.integers(2, 2**16),
        n=st.integers(1, 20000),
        gen_m=st.integers(2, 2**62),
        gen_size=_gen_size,
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_code_in_contract(
        self, instance, certificate, partition, command, threshold, level, m, n, gen_m, gen_size
    ):
        gen_n, pmax = gen_size
        with tempfile.TemporaryDirectory() as tmp:
            inst, cert = Path(tmp) / "instance.json", Path(tmp) / "certificate.json"
            part = Path(tmp) / "partition.json"
            inst.write_bytes(instance)
            cert.write_bytes(certificate)
            part.write_bytes(partition)
            argv = {
                "solve": ["solve", str(inst), "--method", "brute", "--leaf-budget", "4096"],
                "solve-bnb": ["solve", str(inst), "--method", "bnb", "--leaf-budget", "4096"],
                "verify": ["verify", str(inst), str(cert), "--threshold", str(threshold)],
                "decide": [
                    "decide", str(inst), "--threshold", str(threshold),
                    "--leaf-budget", "4096", "--witness-out", str(cert),
                ],
                "reduce-mumpsp": ["reduce-mumpsp", str(inst)],
                "dot": ["dot", str(inst), "--max-level", str(level)],
                "count": ["count", "--m", str(m), "--n", str(n)],
                "reduce-partition": ["reduce-partition", str(part)],
                "gen": ["gen", "--seed", str(threshold), "--m", str(gen_m), "--n", str(gen_n), "--pmax", str(pmax)],
            }[command]
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        if command == "gen" and code == 0:
            assert gen_n <= 50
            parse_instance(json.loads(out.getvalue()))

    def test_huge_machine_count(self, capsys, tmp_path):
        # refused at load: a load vector this long cannot be allocated
        path = tmp_path / "huge-m.json"
        path.write_text(dump_json({"machines": 2**62, "jobs": [1]}))
        cert = tmp_path / "cert.json"
        cert.write_text(dump_json({"assignment": [1], "makespan": 1}))
        for argv in (
            ["solve", str(path), "--method", "bnb"],
            ["verify", str(path), str(cert), "--threshold", "3"],
            ["dot", str(path), "--max-level", "0"],
        ):
            code, out, err = run(capsys, *argv)
            assert code in (2, 3)
            assert "Traceback" not in err
            assert out == ""
