"""Spans for the traced run, recorded from the benchmark's side only.

``Tracer.install`` swaps public functions of the makespan modules for timing
wrappers and ``Tracer.remove`` puts the originals back; nothing under
``src/`` changes.  Each span holds its name, start, end, parent span, op id
and a note of counts read from the public result (``SolveResult``,
``Verdict``, ``MsOutcome``), so counts repeat exactly from run to run.
Spans stay in memory until the run ends.  ``layer_metrics`` turns them into
the per-layer rows named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter


def _bnb(args, result):
    return {"bnb_leaves": result.leaves_explored, "bnb_pruned": result.nodes_pruned}


def _brute(args, result):
    return {"brute_leaves": result.leaves_explored}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _verdict(args, result):
    return {"jobs": args[0].job_count, f"verdicts.{result.code}": 1}


def _dot_nodes(args, result):
    # a tree with k nodes has k-1 edges, and each node or edge carries one label
    return {"dot_nodes": (result.count("[label=") + 1) // 2}


# (module, attribute, note) for every wrapped function.  Where a module calls
# a function it imported by name, that module's binding is wrapped too.
WRAPPED = (
    ("cli", "main", None),
    ("files", "load_instance", _file_bytes),
    ("files", "load_certificate", _file_bytes),
    ("files", "load_partition", _file_bytes),
    ("files", "make_instance", None),
    ("solver", "branch_and_bound", _bnb),
    ("solver", "brute_force_opt", _brute),
    ("solver", "magic_schedule", lambda a, r: {"magic_success": int(r.success)}),
    ("solver", "loads", None),
    ("verifier", "brute_force_opt", _brute),
    ("verifier", "verify_certificate", _verdict),
    ("verifier", "decide", None),
    ("reductions", "decide", None),
    ("reductions", "decide_partition", lambda a, r: {"yes": int(r)}),
    ("reductions", "partition_to_2psp", None),
    ("reductions", "mpsp_to_mumpsp", None),
    ("tree", "to_dot", _dot_nodes),
)

VERDICT_CODES = (
    "accept",
    "reject_invalid_schedule",
    "reject_wrong_makespan",
    "reject_above_threshold",
)

# Every per-layer metric and its unit, in the order they are printed.
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.exit_mismatch": "count",
    "files.load_ms": "ms",
    "files.load_mib_per_s": "MiB/s",
    "model.make_instance_ms": "ms",
    "model.loads_calls": "count",
    "tree.to_dot_ms": "ms",
    "tree.dot_nodes": "count",
    "tree.walk_path_us_per_job.n1000": "us/job",
    "tree.walk_path_us_per_job.n4000": "us/job",
    "solver.bnb_busy_s": "s",
    "solver.bnb_nodes": "count",
    "solver.bnb_leaves": "count",
    "solver.bnb_pruned_share": "ratio",
    "solver.bnb_nodes_per_s": "node/s",
    "solver.brute_leaves": "count",
    "solver.brute_leaves_per_s": "leaf/s",
    "solver.brute_fanned_leaves_per_s": "leaf/s",
    "solver.brute_fanned_speedup": "ratio",
    "solver.magic_ms": "ms",
    "solver.magic_candidates": "count",
    "verifier.verify_us_per_job": "us/job",
    **{f"verifier.verdicts.{code}": "count" for code in VERDICT_CODES},
    "verifier.decide_self_ms": "ms",
    "reductions.decide_partition_self_ms": "ms",
    "reductions.yes_share": "ratio",
    "reductions.subset_sum_us": "us",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id, note]
        self.spans: list[list] = []
        self.candidates: Counter = Counter()  # op id -> candidates yielded
        self.op = -1  # id of the op running now; ids run on across passes
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, module, attr: str, note=None) -> None:
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note:
                span[5] = note(args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def _count_candidates(self, module) -> None:
        strategy = module.exhaustive_strategy
        tally = self.candidates

        def counted(instance):
            for candidate in strategy(instance):
                tally[self.op] += 1
                yield candidate

        module.exhaustive_strategy = counted
        self._undo.append((module, "exhaustive_strategy", strategy))

    def install(self, package) -> None:
        for module, attr, note in WRAPPED:
            self.wrap(getattr(package, module), attr, note)
        self._count_candidates(package.solver)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "note")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def layer_metrics(tracer: Tracer, pass_ops: int, traced_ops: int) -> dict[str, float]:
    """Per-layer rows from the spans of a traced phase.

    Counts come from the first pass over the workload's inputs (op ids below
    `pass_ops`), so they repeat exactly.  Times and rates use every traced
    op; `traced_ops / pass_ops` passes were traced.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    child: Counter = Counter()
    first_calls: Counter = Counter()
    notes: Counter = Counter()
    first: Counter = Counter()
    for name, start, end, parent, op, note in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: Counter = Counter()
    for i, (name, start, end, parent, op, note) in enumerate(tracer.spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
        if op < pass_ops:
            first_calls[name] += 1
        for key, value in (note or {}).items():
            notes[key] += value
            if op < pass_ops:
                first[key] += value
    # a load's self time is read, parse and schema checks; model validation
    # is its child span, reported as model.make_instance_ms
    loads_s = sum(t for name, t in self_time.items() if name.startswith("files.load_"))
    loads_n = sum(c for name, c in calls.items() if name.startswith("files.load_"))

    def per_call(name: str, table: Counter = total, scale: float = 1e3) -> float:
        return table[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    bnb_nodes = first["bnb_leaves"] + first["bnb_pruned"]
    return {
        "cli.main_self_ms": per_call("cli.main", self_time),
        "files.load_ms": ratio(loads_s * 1e3, loads_n),
        "files.load_mib_per_s": ratio(notes["bytes"] / 2**20, loads_s),
        "model.make_instance_ms": per_call("model.make_instance"),
        "model.loads_calls": first_calls["model.loads"],
        "tree.to_dot_ms": per_call("tree.to_dot"),
        "tree.dot_nodes": first["dot_nodes"],
        "solver.bnb_busy_s": ratio(total["solver.branch_and_bound"] * pass_ops, traced_ops),
        "solver.bnb_nodes": bnb_nodes,
        "solver.bnb_leaves": first["bnb_leaves"],
        "solver.bnb_pruned_share": ratio(first["bnb_pruned"], bnb_nodes),
        "solver.bnb_nodes_per_s": ratio(
            notes["bnb_leaves"] + notes["bnb_pruned"], total["solver.branch_and_bound"]
        ),
        "solver.brute_leaves": first["brute_leaves"],
        "solver.brute_leaves_per_s": ratio(notes["brute_leaves"], total["solver.brute_force_opt"]),
        "solver.magic_ms": per_call("solver.magic_schedule"),
        "solver.magic_candidates": sum(
            count for op, count in tracer.candidates.items() if op < pass_ops
        ),
        "verifier.verify_us_per_job": ratio(total["verifier.verify_certificate"] * 1e6, notes["jobs"]),
        **{f"verifier.verdicts.{code}": first[f"verdicts.{code}"] for code in VERDICT_CODES},
        "verifier.decide_self_ms": per_call("verifier.decide", self_time),
        "reductions.decide_partition_self_ms": per_call("reductions.decide_partition", self_time),
        "reductions.yes_share": ratio(first["yes"], first_calls["reductions.decide_partition"]),
    }
