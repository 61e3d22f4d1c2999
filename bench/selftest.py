"""Self-tests for the benchmark itself.

    python3 bench/selftest.py

They check that the generator gives identical inputs for the same seed, that
a deliberately wrong answer counts as failed, that tracing leaves every op's
output and count unchanged, that launch.py runs a command as
``python -m makespan`` would, that the printed metric names match
BENCHMARK.json, and that a run without the package fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import makespan  # noqa: E402
import makespan.cli  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, child_env, launch  # noqa: E402


@contextmanager
def generated(workload: str, seed: int):
    """Generate inputs into a scratch directory and run from inside it."""
    run.OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    home = os.getcwd()
    try:
        manifest = gen.generate(workload, seed, out)
        os.chdir(out)
        yield WORKLOADS[workload](manifest, makespan, str(run.SRC))
    finally:
        os.chdir(home)
        shutil.rmtree(out, ignore_errors=True)


def setUpModule():
    # one instance per class runs the same selection code as the full set
    global _per_class
    _per_class, gen.BNB_PER_CLASS = gen.BNB_PER_CLASS, 1


def tearDownModule():
    gen.BNB_PER_CLASS = _per_class


def snapshot(workload: str, seed: int) -> dict[str, bytes]:
    with generated(workload, seed):
        return {path.name: path.read_bytes() for path in sorted(Path().iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = snapshot(workload, 5)
                self.assertEqual(first, snapshot(workload, 5))
                self.assertNotEqual(first, snapshot(workload, 6))

    def test_partition_sets_are_even_and_three_quarters_yes(self):
        with generated("partition-2m", 3) as w:
            answers = [op["yes"] for op in w.ops]
            self.assertEqual(answers.count(True), 3 * answers.count(False))
            for op in w.ops:
                weights = json.loads(Path(op["path"]).read_text())["weights"]
                self.assertEqual(sum(weights) % 2, 0)

    def test_certificate_classes_in_fixed_proportions(self):
        with generated("certify", 3) as w:
            classes = [op["class"] for op in w.ops]
            counts = {kind: classes.count(kind) for kind in gen.CERT_CLASSES}
            self.assertEqual(set(counts.values()), {len(gen.CERTIFY_NS) * len(gen.CERTIFY_MS)})


class WrongAnswerTest(unittest.TestCase):
    def test_bnb_optimum_off_by_one_fails(self):
        with generated("bnb-hard", 3) as w:
            code, stdout, stderr = w.run(0)
            self.assertTrue(w.check(0, (code, stdout, stderr)))
            data = json.loads(stdout)
            data["optimum"] += 1
            self.assertFalse(w.check(0, (code, json.dumps(data) + "\n", stderr)))
            self.assertFalse(w.check(0, (1, stdout, stderr)))

    def test_partition_flipped_answer_fails(self):
        with generated("partition-2m", 3) as w:
            for i in (0, 3):  # one yes set, one no set
                yes, success, split = w.run(i)
                self.assertTrue(w.check(i, (yes, success, split)))
                self.assertFalse(w.check(i, (not yes, success, split)))
                self.assertFalse(w.check(i, (yes, not success, split)))

    def test_certify_wrong_exit_code_fails(self):
        with generated("certify", 3) as w:
            for i in range(len(gen.CERT_CLASSES)):
                code, stdout, stderr = w.run(i)
                self.assertTrue(w.check(i, (code, stdout, stderr)))
                self.assertFalse(w.check(i, (1 - code, stdout, stderr)))

    def test_cli_wrong_exit_code_or_traceback_fails(self):
        with generated("cli-session", 3) as w:
            for i in (1, 4, 12):  # count (0), decide no (1), over budget (3)
                code, stdout, stderr = w.run(i)
                self.assertTrue(w.check(i, (code, stdout, stderr)))
                self.assertFalse(w.check(i, (code + 1, stdout, stderr)))
                self.assertFalse(w.check(i, (code, stdout, "Traceback (most recent call last):")))
                self.assertFalse(w.check(i, (code, stdout + "x", stderr)))


class TracingTest(unittest.TestCase):
    def one_pass(self, w, tracer=None):
        if tracer:
            tracer.install(makespan)
        try:
            records, _, _ = run.timed_loop(w.run, len(w.ops), 0, tracer)
        finally:
            if tracer:
                tracer.remove()
        return [out for _, _, out in records]

    def test_traced_and_untraced_report_identical_counts(self):
        for workload in ("bnb-hard", "partition-2m", "certify"):
            with self.subTest(workload=workload), generated(workload, 4) as w:
                before = makespan.solver.branch_and_bound
                plain = self.one_pass(w)
                tracer = Tracer()
                traced = self.one_pass(w, tracer)
                self.assertIs(makespan.solver.branch_and_bound, before)
                self.assertEqual(plain, traced)
                self.assertTrue(all(w.check(i, out) for i, out in enumerate(traced)))
                again = Tracer()
                self.one_pass(w, again)
                counts = [
                    {k: v for k, v in layer_metrics(t, len(w.ops), len(w.ops)).items()
                     if PER_LAYER[k] == "count"}
                    for t in (tracer, again)
                ]
                self.assertEqual(counts[0], counts[1])

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans[:] = [
            ["cli.main", 0.0, 1.0, -1, 0, None],
            ["files.load_instance", 0.1, 0.4, 0, 0, {"bytes": 2**20}],
            ["model.make_instance", 0.2, 0.3, 1, 0, None],
        ]
        rows = layer_metrics(tracer, 1, 1)
        self.assertAlmostEqual(rows["cli.main_self_ms"], 700.0)
        self.assertAlmostEqual(rows["files.load_ms"], 200.0)
        self.assertAlmostEqual(rows["files.load_mib_per_s"], 5.0)
        self.assertAlmostEqual(rows["model.make_instance_ms"], 100.0)


class LaunchTest(unittest.TestCase):
    def test_launch_matches_python_dash_m(self):
        env = child_env(str(run.SRC))
        with generated("cli-session", 3) as w:
            for i in (1, 4, 12, 13):  # exit codes 0, 1, 3 and 2
                argv = w.ops[i]["argv"]
                plain = subprocess.run(
                    [sys.executable, "-m", "makespan", *argv], env=env, capture_output=True, text=True
                )
                output, seconds, wall = launch(["-m", "makespan", *argv], env)
                self.assertEqual(output, (plain.returncode, plain.stdout, plain.stderr))
                self.assertGreater(seconds, 0)
                self.assertGreater(wall, 0)

    def test_launch_code_string(self):
        env = child_env(str(run.SRC))
        code = "import sys; print(sys.argv[1:]); sys.exit(sys.argv[1])"
        self.assertEqual(launch(["-c", code, "no"], env)[0], (1, "['no']\n", "no\n"))


class ScalingTest(unittest.TestCase):
    def test_op_times_scale_with_the_nearest_reference_samples(self):
        nominal = run.REFERENCE_NOMINAL_S

        def scaled(seconds, references):
            return [round(x, 9) for x in run.at_reference_speed(seconds, references)]

        self.assertEqual(scaled([1.0, 3.0], [nominal] * 3), [1.0, 3.0])
        self.assertEqual(scaled([2.0] * 6, [2 * nominal] * 7), [1.0] * 6)
        # one stray reference sample does not move the scale of any op
        spike = [nominal] * 2 + [50 * nominal] + [nominal] * 3
        self.assertEqual(scaled([1.0] * 5, spike), [1.0] * 5)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_fails_without_the_package(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
