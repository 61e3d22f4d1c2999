"""Seeded inputs for the makespan benchmark.

    python3 bench/gen.py --workload bnb-hard --seed 7 --out DIR

writes one workload's input files and a ``manifest.json`` into DIR.  The
manifest lists the ops in the order the benchmark runs them, each with what
its correct result is known to be from how the input was built.  Paths in the
manifest are relative to DIR, and the benchmark runs its ops from there, so
the same seed gives byte-identical files wherever they are written.  The
program under test sees only these files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

WORKLOADS = ("bnb-hard", "partition-2m", "certify", "cli-session")

# bnb-hard: (machines, jobs) per class.  Processing times are wide, so
# ceil(total/m) is rarely attained and pruning sets the cost.  An instance is
# kept only when the plain-order search below generates between 0.7x and 1.4x
# BNB_NODES nodes.  Every class then costs about the same per op (near 0.07 s
# at the seed), so op times have one mode and the median does not sit between
# classes, and the mix of costs is alike from seed to seed.
BNB_CLASSES = ((3, 13), (4, 11), (5, 10))
BNB_NODES = 150_000
BNB_PER_CLASS = 12
BNB_BAND = (0.7, 1.4)
BNB_P = (10**5, 10**6)

PARTITION_N = 18
# Three yes sets for every no set.  A no set costs more (the balanced-split
# search finds nothing and must exhaust its tree), so with an even mix the
# median op would fall exactly between the two kinds and jump between them.
PARTITION_SETS = 16
PARTITION_NO_EVERY = 4
PARTITION_W = 10**5

CERTIFY_NS = (10**3, 10**4, 10**5)
CERTIFY_MS = (2, 16, 256)
CERTIFY_P = 10**6
CERT_CLASSES = ("valid", "wrong_claim", "above_threshold", "bad_index", "length_mismatch")

CLI_BRUTE_N = 18  # 2^18 leaves: the smallest scan the CLI fans out over processes
CLI_OVER_BUDGET_N = 27  # 2^27 leaves exceed the default budget of 2^26


class _Capped(Exception):
    pass


def plain_order_search(m: int, times: list[int], cap: int) -> tuple[int, int] | None:
    """(optimum, nodes) of a depth-first search over jobs in file order.

    A child is cut when max(its largest load, ceil(total/m), largest later
    job) reaches the incumbent; ``nodes`` counts every child generated.
    Returns None once more than ``cap`` nodes were generated.  This is the
    benchmark's own cost model and optimum reference, kept apart from the
    package so instance selection does not move when the solver changes.
    """
    n = len(times)
    floor_all = -(-sum(times) // m)
    floors = [0] * n
    later = 0
    for i in range(n - 1, -1, -1):
        floors[i] = max(floor_all, later)
        later = max(later, times[i])
    loads = [0] * m
    best = sum(times) + 1
    nodes = 0
    machines = range(m)

    def visit(level: int) -> None:
        nonlocal best, nodes
        p = times[level]
        floor = floors[level]
        last = level == n - 1
        for j in machines:
            loads[j] += p
            nodes += 1
            top = max(loads)
            if max(top, floor) < best:
                if last:
                    best = top
                else:
                    visit(level + 1)
            loads[j] -= p
        if nodes > cap:
            raise _Capped

    try:
        visit(0)
    except _Capped:
        return None
    return best, nodes


def _makespan(m: int, times: list[int], schedule: list[int]) -> int:
    loads = [0] * m
    for p, machine in zip(times, schedule):
        loads[machine - 1] += p
    return max(loads)


class _Writer:
    def __init__(self, out: Path):
        self.out = out
        out.mkdir(parents=True, exist_ok=True)

    def json(self, name: str, data) -> str:
        return self.text(name, json.dumps(data, separators=(",", ":")))

    def text(self, name: str, text: str) -> str:
        return self.bytes(name, text.encode("ascii"))

    def bytes(self, name: str, data: bytes) -> str:
        (self.out / name).write_bytes(data)
        return name


def _bnb_hard(rng: random.Random, w: _Writer) -> dict:
    classes = []
    lo, hi = BNB_BAND[0] * BNB_NODES, BNB_BAND[1] * BNB_NODES
    for m, n in BNB_CLASSES:
        kept = []
        while len(kept) < BNB_PER_CLASS:
            times = [rng.randint(*BNB_P) for _ in range(n)]
            found = plain_order_search(m, times, int(hi))
            if found and found[1] >= lo:
                kept.append((m, times, found[0]))
        classes.append(kept)
    ops = []
    # interleave the classes so any stretch of ops has the same mix
    for i, (m, times, optimum) in enumerate(x for row in zip(*classes) for x in row):
        f = w.json(f"bnb-{i:02d}.json", {"machines": m, "jobs": times})
        ops.append({"argv": ["solve", f, "--method", "bnb"], "plain_optimum": optimum})
    warm = [rng.randint(*BNB_P) for _ in range(8)]
    f = w.json("warmup.json", {"machines": 3, "jobs": warm})
    return {"ops": ops, "warmup": {"argv": ["solve", f, "--method", "bnb"]}}


def _partition_2m(rng: random.Random, w: _Writer) -> dict:
    sys.path.insert(0, str(SRC))
    from makespan.reductions import subset_sum_oracle

    ops = []
    for i in range(PARTITION_SETS):
        want = i % PARTITION_NO_EVERY != PARTITION_NO_EVERY - 1
        while True:
            weights = [rng.randint(1, PARTITION_W) for _ in range(PARTITION_N)]
            total = sum(weights)
            # odd totals are rejected before any scan, so only even ones count
            if total % 2 == 0 and subset_sum_oracle(weights, total // 2) == want:
                break
        f = w.json(f"partition-{i:02d}.json", {"weights": weights})
        ops.append({"path": f, "yes": want})
    warm = w.json("warmup.json", {"weights": [rng.randint(1, PARTITION_W) for _ in range(10)]})
    return {"ops": ops, "warmup": {"path": warm}}


def _certificate(rng: random.Random, kind: str, m: int, times: list[int]) -> tuple[list[int], int, int, str]:
    """(assignment, claimed makespan, threshold, expected verdict line)."""
    schedule = [rng.randint(1, m) for _ in times]
    actual = _makespan(m, times, schedule)
    if kind == "valid":
        return schedule, actual, actual, "accept"
    if kind == "wrong_claim":
        claimed = actual + rng.choice((-1, 1))
        return (
            schedule,
            claimed,
            max(claimed, actual),
            f"reject_wrong_makespan claimed={claimed} actual={actual}",
        )
    if kind == "above_threshold":
        return schedule, actual, actual - 1, f"reject_above_threshold actual={actual} threshold={actual - 1}"
    if kind == "bad_index":
        schedule[rng.randrange(len(schedule))] = rng.choice((0, m + 1))
        return schedule, actual, actual, "reject_invalid_schedule reason=machine_index_out_of_range"
    return schedule[:-1], actual, actual, "reject_invalid_schedule reason=length_mismatch"


def _certify(rng: random.Random, w: _Writer) -> dict:
    ops = []
    for n in CERTIFY_NS:
        for m in CERTIFY_MS:
            times = [rng.randint(1, CERTIFY_P) for _ in range(n)]
            inst = w.json(f"inst-n{n}-m{m}.json", {"machines": m, "jobs": times})
            for kind in CERT_CLASSES:
                schedule, claimed, threshold, line = _certificate(rng, kind, m, times)
                cert = w.json(
                    f"cert-n{n}-m{m}-{kind}.json",
                    {"assignment": schedule, "makespan": claimed},
                )
                ops.append(
                    {
                        "argv": ["verify", inst, cert, "--threshold", str(threshold)],
                        "class": kind,
                        "exit": 0 if kind == "valid" else 1,
                        "stdout": line + "\n",
                    }
                )
    times = [rng.randint(1, CERTIFY_P) for _ in range(100)]
    inst = w.json("warmup-inst.json", {"machines": 2, "jobs": times})
    schedule, claimed, threshold, _ = _certificate(rng, "valid", 2, times)
    cert = w.json("warmup-cert.json", {"assignment": schedule, "makespan": claimed})
    return {"ops": ops, "warmup": {"argv": ["verify", inst, cert, "--threshold", str(threshold)]}}


def _cli_session(rng: random.Random, w: _Writer) -> dict:
    m = 3
    times = [rng.randint(1, 50) for _ in range(8)]
    total = sum(times)
    inst = w.json("inst.json", {"machines": m, "jobs": times})
    schedule = [rng.randint(1, m) for _ in times]
    actual = _makespan(m, times, schedule)
    cert = w.json("cert.json", {"assignment": schedule, "makespan": actual})
    weights = w.json("weights.json", {"weights": [rng.randint(1, 1000) for _ in range(10)]})
    brutes = [
        w.json(f"brute-{k}.json", {"machines": 2, "jobs": [rng.randint(1, 10**5) for _ in range(CLI_BRUTE_N)]})
        for k in (1, 2, 3)
    ]
    over = w.json("over-budget.json", {"machines": 2, "jobs": [1] * CLI_OVER_BUDGET_N})
    whole = json.dumps({"machines": m, "jobs": times})
    truncated = w.text("truncated.json", whole[: len(whole) // 2])
    no_threshold = str(-(-total // m) - 1)  # below the ideal bound: no schedule fits

    def op(argv, exit_code, reference=None):
        return {"argv": argv, "exit": exit_code, "reference_argv": reference or argv}

    ops = [
        op(["gen", "--seed", str(rng.randrange(10**6)), "--m", "3", "--n", "12", "--pmax", "1000"], 0),
        op(["count", "--m", "3", "--n", "12"], 0),
        op(["verify", inst, cert, "--threshold", str(actual)], 0),
        op(["decide", inst, "--threshold", str(total)], 0),
        op(["decide", inst, "--threshold", no_threshold], 1),
        op(["reduce-partition", weights], 0),
        op(["reduce-mumpsp", inst], 0),
        op(["dot", inst, "--max-level", "4"], 0),
        # default --threads takes the process-pool path; the in-process
        # reference scans sequentially, which the solver guarantees is
        # identical.  Three such ops per pass put more than ten of the slowest
        # kind of op in every run, so the tail percentile falls inside that
        # kind instead of between two kinds.
        *(
            op(["solve", f, "--method", "brute"], 0, ["solve", f, "--method", "brute", "--threads", "1"])
            for f in brutes
        ),
        op(["solve", inst, "--method", "bnb"], 0),
        op(["solve", over, "--method", "brute"], 3),
        op(["solve", truncated, "--method", "bnb"], 2),
    ]
    # The exit-code contract says 2 for each of these; at the time of writing
    # each ends in a traceback and exit 1.  They are probed once per run,
    # outside the timed loop, and reported as cli.exit_mismatch.
    big = "7" * 5000
    probes = [
        op(["solve", w.bytes("non-utf8.json", b'{"machines": 2, "jobs": [1, 2\xff]}'), "--method", "bnb"], 2),
        op(["solve", w.text("big-job.json", '{"machines": 2, "jobs": [' + big + "]}"), "--method", "bnb"], 2),
        op(["solve", w.text("deep.json", "[" * 100_000 + "]" * 100_000), "--method", "bnb"], 2),
        op(["decide", inst, "--threshold", str(total), "--witness-out", "missing-dir/cert.json"], 2),
    ]
    return {"ops": ops, "probes": probes, "warmup": {"argv": ["count", "--m", "2", "--n", "3"]}}


GENERATORS = {
    "bnb-hard": _bnb_hard,
    "partition-2m": _partition_2m,
    "certify": _certify,
    "cli-session": _cli_session,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs for `seed` into `out`; return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = {"workload": workload, "seed": seed} | GENERATORS[workload](rng, _Writer(out))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
