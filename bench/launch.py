"""Runs one timed child process of the benchmark, then times a reference.

    python3 bench/launch.py -m makespan ARG...
    python3 bench/launch.py -c CODE ARG...

runs the package's CLI or a code string the way ``python -m`` and
``python -c`` would, with the same exit code.  After it, in the same
process, it times a fixed reference computation and appends one line to
stderr:

    bench-child {"block_s": ..., "reference_s": ...}

``block_s`` is how long the reference block took, so the parent can take it
off the child's wall time; ``reference_s`` is the median of three reference
timings.  The reference runs in the child because the host's speed shifts
for seconds at a time and a child may run on a different CPU from the
benchmark process; a reference timed there tracks the child's speed and one
timed in the benchmark process does not.  The reference compiles a fixed
generated source and runs a fixed arithmetic loop, the two kinds of work a
fresh interpreter does when it imports the package from source.
"""

import json
import os
import runpy
import sys
import traceback
from time import perf_counter

MARKER = "bench-child "
REFERENCE_SOURCE = "".join(
    f"def f{i}(a, b):\n    return [a * x + b for x in range({i}) if x % 3]\n" for i in range(60)
)


def reference_seconds() -> float:
    t0 = perf_counter()
    compile(REFERENCE_SOURCE, "<reference>", "exec")
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return perf_counter() - t0


def run(mode: str, target: str, args: list) -> int:
    try:
        if mode == "-m":
            sys.argv = [target, *args]
            sys.path[0] = os.getcwd()
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.argv = ["-c", *args]
            sys.path[0] = ""
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    except SystemExit as done:
        if done.code is None or isinstance(done.code, int):
            return done.code or 0
        print(done.code, file=sys.stderr)
        return 1
    except BaseException:
        traceback.print_exc()
        return 1
    return 0


def median_reference_seconds() -> float:
    return sorted(reference_seconds() for _ in range(3))[1]


def main() -> None:
    t0 = perf_counter()
    before = median_reference_seconds()
    block = perf_counter() - t0
    code = run(sys.argv[1], sys.argv[2], sys.argv[3:])
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    after = median_reference_seconds()
    block += perf_counter() - t0
    timing = {"block_s": block, "before_s": before, "after_s": after}
    os.write(2, (MARKER + json.dumps(timing) + "\n").encode())
    sys.exit(code)


if __name__ == "__main__":
    main()
