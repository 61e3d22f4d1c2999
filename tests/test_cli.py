import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makespan import decide_partition, PartitionInstance
from makespan import cli
from makespan.cli import main
from makespan.files import (
    FileFormatError,
    dump_json,
    load_certificate,
    load_instance,
    parse_certificate,
    parse_instance,
    parse_mumpsp,
    parse_partition,
)


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
        with pytest.raises(FileFormatError, match=r"jobs\[1\]"):
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

    def test_mumpsp(self):
        parsed = parse_mumpsp({"machines": 2, "users": [[1, 2], [3]]})
        assert parsed.user_job_lists == ((1, 2), (3,))
        with pytest.raises(FileFormatError):
            parse_mumpsp({"machines": 2, "users": "nope"})

    def test_certificate(self):
        cert = parse_certificate({"assignment": [1, 2], "makespan": 4})
        assert cert.schedule == (1, 2)
        assert cert.claimed_makespan == 4

    def test_load_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"machines": 2,\n "jobs": [1,]}')
        with pytest.raises(FileFormatError, match="line 2"):
            load_instance(bad)


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

    def test_threads_default_is_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._cpu_count() == (os.cpu_count() or 1)

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


_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no integer digit limit, so the file is valid",
)
_jobs_4300 = b",".join([b"9" * 4300] * 3)


class TestExitCodeBoundary:
    """Exit 2 for every file the CLI cannot read, parse or write."""

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


# Arbitrary bytes and arbitrary JSON, or objects shaped like instance and
# certificate files so that the commands also get past the parser.  Integers
# stay within 10**6, because every load vector has one entry per machine: a
# machine count of 10**9 takes gigabytes, and 2**62 cannot be allocated at all
# (see test_huge_machine_count below).
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


class TestAnyFile:
    @given(
        instance=_instance_file,
        certificate=_certificate_file,
        command=st.sampled_from(["solve", "solve-bnb", "verify", "decide", "reduce-mumpsp", "dot"]),
        threshold=st.integers(1, 40),
        level=st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_code_in_contract(self, instance, certificate, command, threshold, level):
        with tempfile.TemporaryDirectory() as tmp:
            inst, cert = Path(tmp) / "instance.json", Path(tmp) / "certificate.json"
            inst.write_bytes(instance)
            cert.write_bytes(certificate)
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
            }[command]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2, 3)

    @pytest.mark.xfail(
        strict=True,
        raises=(MemoryError, OverflowError),
        reason="the load vector has one entry per machine, and no machine count is refused",
    )
    def test_huge_machine_count(self, capsys, tmp_path):
        path = tmp_path / "huge-m.json"
        path.write_text(dump_json({"machines": 2**62, "jobs": [1]}))
        assert run(capsys, "solve", str(path), "--method", "bnb")[0] in (2, 3)
