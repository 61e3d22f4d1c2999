"""The four workloads: how each op runs and how its output is checked.

An op is one user action.  ``run(i)`` performs op ``i`` of the manifest and
returns a hashable output; ``check(i, output)`` compares it with a reference
computed independently of the path the op took, outside the timed phase.
Ops run from the directory that holds the generated inputs.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from launch import MARKER

# A scan of at most this many leaves also checks an optimum against
# brute_force_opt; larger instances are checked against lpt-order
# branch-and-bound and the generator's own plain-order search instead.
BRUTE_CHECK_LEAVES = 1 << 18
SUBPROCESS_TIMEOUT_S = 120
LAUNCH = str(Path(__file__).resolve().parent / "launch.py")
# Child times are reported at the speed at which launch.py's reference takes
# this long (see launch.py and README.md).
CHILD_REFERENCE_NOMINAL_S = 0.005

SETUP_PARTITION = (
    "import sys\n"
    "from makespan import files, reductions, solver\n"
    "pp = files.load_partition(sys.argv[1])\n"
    "reductions.decide_partition(pp)\n"
    "solver.magic_schedule(reductions.partition_to_2psp(pp)[0], solver.exhaustive_strategy)\n"
)


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def launch(args: list[str], env: dict[str, str]) -> tuple[tuple, float, float]:
    """Run ``launch.py ARGS`` in a fresh interpreter.

    Returns ((exit code, stdout, stderr), seconds, wall): stderr without the
    launcher's timing line, wall the child's wall time less its reference
    block, and seconds that wall time at the reference's nominal speed.  A
    child that times out has exit code None.
    """
    t0 = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, LAUNCH, *args],
            capture_output=True,
            env=env,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        wall = perf_counter() - t0
        return (None, "", "timed out"), wall, wall
    wall = perf_counter() - t0
    stderr, _, timing = done.stderr.decode("utf-8", "replace").rpartition(MARKER)
    timing = json.loads(timing)
    wall -= timing["block_s"]
    reference = (timing["before_s"] + timing["after_s"]) / 2
    seconds = wall * CHILD_REFERENCE_NOMINAL_S / reference
    return (done.returncode, done.stdout.decode("utf-8", "replace"), stderr), seconds, wall


def call_cli(pkg, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of an in-process ``makespan.cli.main``
    call; an escaped exception leaves exit code None and its traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
    except Exception:
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    name = ""
    in_process = True

    def __init__(self, manifest: dict, pkg, src: str):
        self.manifest = manifest
        self.ops = manifest["ops"]
        self.pkg = pkg
        self.src = src
        self._checked: dict = {}
        self._references: dict = {}

    def run(self, i: int):
        return call_cli(self.pkg, self.ops[i]["argv"])

    def warmup(self) -> None:
        call_cli(self.pkg, self.manifest["warmup"]["argv"])

    def setup_args(self) -> list[str]:
        """launch.py arguments for a fresh interpreter that imports makespan
        and runs the warm-up op."""
        return ["-m", "makespan", *self.manifest["warmup"]["argv"]]

    def exit_mismatch(self, i: int, output) -> bool:
        return output[0] != self.ops[i].get("exit", 0)

    def probe_holes(self) -> list[str]:
        """Argv of each exit-code probe that misbehaves; only cli-session has probes."""
        return []

    def check(self, i: int, output) -> bool:
        """True when `output` is correct for op `i`; cached per distinct output."""
        key = (i, output)
        if key not in self._checked:
            self._checked[key] = self._check(i, output)
        return self._checked[key]

    def reference(self, i: int):
        """Independent reference for op `i`, computed once."""
        if i not in self._references:
            self._references[i] = self._reference(i)
        return self._references[i]

    def _reference(self, i: int):
        return None

    def _check(self, i: int, output) -> bool:
        raise NotImplementedError


class BnbHard(Workload):
    name = "bnb-hard"

    def _reference(self, i: int) -> tuple:
        """(instance, optimum every reference agrees on, or None)."""
        data = _load(self.ops[i]["argv"][1])
        instance = self.pkg.make_instance(data["machines"], data["jobs"])
        optima = {
            self.ops[i]["plain_optimum"],
            self.pkg.branch_and_bound(instance, lpt_order=True).optimum,
        }
        if instance.machine_count**instance.job_count <= BRUTE_CHECK_LEAVES:
            optima.add(self.pkg.brute_force_opt(instance).optimum)
        return instance, optima.pop() if len(optima) == 1 else None

    def _check(self, i: int, output) -> bool:
        code, stdout, stderr = output
        if code != 0 or "Traceback" in stderr:
            return False
        try:
            data = json.loads(stdout)
            keys = set(data)
            claimed = data["optimum"]
            cert = self.pkg.Certificate(tuple(data["assignment"]), claimed)
        except (ValueError, TypeError, KeyError):
            return False
        instance, optimum = self.reference(i)
        return (
            keys == {"optimum", "assignment", "leaves_explored", "nodes_pruned"}
            and claimed == optimum
            and claimed * instance.machine_count >= instance.total_work
            and self.pkg.verify_certificate(instance, cert, claimed).accepted
        )


class Partition2m(Workload):
    name = "partition-2m"

    def run(self, i: int):
        return self._answer(self.ops[i]["path"])

    def warmup(self) -> None:
        self._answer(self.manifest["warmup"]["path"])

    def setup_args(self) -> list[str]:
        return ["-c", SETUP_PARTITION, self.manifest["warmup"]["path"]]

    def _answer(self, path: str) -> tuple:
        """Both of the paper's routes: the reduction to a two-machine decision
        (a full scan), and the balanced-split procedure."""
        pkg = self.pkg
        try:
            pp = pkg.files.load_partition(path)
            yes = pkg.reductions.decide_partition(pp)
            instance, _ = pkg.reductions.partition_to_2psp(pp)
            outcome = pkg.solver.magic_schedule(instance, pkg.solver.exhaustive_strategy)
        except Exception:
            return ("error", traceback.format_exc())
        return yes, outcome.success, outcome.partition

    def exit_mismatch(self, i: int, output) -> bool:
        return False

    def _check(self, i: int, output) -> bool:
        weights = _load(self.ops[i]["path"])["weights"]
        total = sum(weights)
        oracle = self.pkg.subset_sum_oracle(weights, total // 2)
        if oracle != self.ops[i]["yes"] or output[0] != oracle or output[1] != oracle:
            return False
        if not oracle:
            return output[2] is None
        split = output[2]
        return (
            len(split) == len(weights)
            and set(split) <= {1, 2}
            and 2 * sum(w for w, machine in zip(weights, split) if machine == 1) == total
        )


class Certify(Workload):
    name = "certify"

    def _check(self, i: int, output) -> bool:
        code, stdout, stderr = output
        op = self.ops[i]
        return code == op["exit"] and stdout == op["stdout"] and "Traceback" not in stderr


class CliSession(Workload):
    name = "cli-session"
    in_process = False

    def __init__(self, manifest: dict, pkg, src: str):
        super().__init__(manifest, pkg, src)
        # (seconds at nominal speed, wall seconds) of every op run, in order
        self.op_times: list[tuple[float, float]] = []

    def run(self, i: int):
        output, seconds, wall = self.spawn(self.ops[i]["argv"])
        self.op_times.append((seconds, wall))
        return output

    def spawn(self, argv: list[str]) -> tuple:
        """One ``python -m makespan ARGV``, through launch.py."""
        return launch(["-m", "makespan", *argv], child_env(self.src))

    def warmup(self) -> None:
        self.spawn(self.manifest["warmup"]["argv"])

    def probe_holes(self) -> list[str]:
        bad = []
        for probe in self.manifest["probes"]:
            (code, _, stderr), _, _ = self.spawn(probe["argv"])
            if code != probe["exit"] or "Traceback" in stderr:
                bad.append(" ".join(probe["argv"])[:80])
        return bad

    def _reference(self, i: int) -> str:
        """What the library prints for this op, run in-process."""
        return call_cli(self.pkg, self.ops[i]["reference_argv"])[1]

    def _check(self, i: int, output) -> bool:
        code, stdout, stderr = output
        return (
            code == self.ops[i]["exit"]
            and "Traceback" not in stderr
            and stdout == self.reference(i)
        )


WORKLOADS = {w.name: w for w in (BnbHard, Partition2m, Certify, CliSession)}
