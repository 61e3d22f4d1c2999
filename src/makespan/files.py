"""JSON file formats for instances, certificates, and reduction inputs.

One object per file, unknown fields rejected, so outputs are byte-stable and
every parse failure names the offending field:

    instance     {"machines": int, "jobs": [int, ...]}
    multi-user   {"machines": int, "users": [[int, ...], ...]}
    partition    {"weights": [int, ...]}
    certificate  {"assignment": [int, ...], "makespan": int}
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .model import Instance, InvalidInstance, SchedulingError, make_instance
from .reductions import MumpspInstance, PartitionInstance
from .verifier import Certificate

# Every load vector has one entry per machine, so a file may name at most
# this many machines: 8 MiB of pointers per vector.
MAX_MACHINES = 1 << 20


class FileFormatError(SchedulingError):
    """A file or JSON object does not match its schema."""


def _object(data: Any, what: str, fields: set[str]) -> dict:
    if not isinstance(data, dict):
        raise FileFormatError(f"{what}: expected a JSON object")
    unknown = set(data) - fields
    if unknown:
        raise FileFormatError(f"{what}: unknown field '{sorted(unknown)[0]}'")
    missing = fields - set(data)
    if missing:
        raise FileFormatError(f"{what}: missing field '{sorted(missing)[0]}'")
    return data


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _int_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected a list of integers")
    return [_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _machine_count(value: Any) -> int:
    machines = _int(value, "machines")
    if machines > MAX_MACHINES:
        raise FileFormatError(f"machines: at most {MAX_MACHINES}, got {machines}")
    return machines


def _check_printable(
    base: int,
    what: str,
    exponent: int = 1,
    error: type[SchedulingError] = FileFormatError,
) -> None:
    """Refuse base**exponent when it has more digits than the interpreter's
    int-to-str limit allows.  Every load, optimum or threshold the package
    prints is at most a file's total, so checking the total keeps all of them
    printable."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    bits = base.bit_length()
    # base**exponent has at most exponent * bits bits and more than
    # exponent * (bits - 1), and 2**(3 * limit) < 10**limit < 2**(4 * limit):
    # the power is taken only when its bit count leaves the answer open
    if limit and exponent * bits > 3 * limit and (
        exponent * (bits - 1) >= 4 * limit or base**exponent >= 10**limit
    ):
        raise error(f"{what} has more than {limit} digits")


def parse_instance(data: Any) -> Instance:
    obj = _object(data, "instance file", {"machines", "jobs"})
    machines = _machine_count(obj["machines"])
    jobs = _int_list(obj["jobs"], "jobs")
    _check_printable(sum(jobs), "jobs: total")
    try:
        return make_instance(machines, jobs)
    except InvalidInstance as exc:
        raise FileFormatError(f"instance file: {exc}") from exc


def parse_partition(data: Any) -> PartitionInstance:
    obj = _object(data, "partition file", {"weights"})
    weights = _int_list(obj["weights"], "weights")
    _check_printable(sum(weights), "weights: total")
    try:
        return PartitionInstance(tuple(weights))
    except InvalidInstance as exc:
        raise FileFormatError(f"partition file: {exc}") from exc


def parse_mumpsp(data: Any) -> MumpspInstance:
    obj = _object(data, "multi-user file", {"machines", "users"})
    machines = _machine_count(obj["machines"])
    users = obj["users"]
    if not isinstance(users, list):
        raise FileFormatError("users: expected a list of job lists")
    lists = tuple(
        tuple(_int_list(jobs, f"users[{r}]")) for r, jobs in enumerate(users)
    )
    try:
        return MumpspInstance(machines, lists)
    except InvalidInstance as exc:
        raise FileFormatError(f"multi-user file: {exc}") from exc


def parse_certificate(data: Any) -> Certificate:
    obj = _object(data, "certificate file", {"assignment", "makespan"})
    assignment = _int_list(obj["assignment"], "assignment")
    claimed = _int(obj["makespan"], "makespan")
    return Certificate(tuple(assignment), claimed)


def load_json(path: str | Path) -> Any:
    """The parsed JSON value in `path`; every way reading or parsing it can
    fail is a FileFormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    # ValueError: not UTF-8, or an integer past the interpreter's digit limit;
    # RecursionError: arrays or objects nested too deep for the parser
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    return parse_instance(load_json(path))


def load_partition(path: str | Path) -> PartitionInstance:
    return parse_partition(load_json(path))


def load_certificate(path: str | Path) -> Certificate:
    return parse_certificate(load_json(path))


def instance_to_json(instance: Instance) -> dict:
    return {"machines": instance.machine_count, "jobs": list(instance.processing_times)}


def mumpsp_to_json(instance: MumpspInstance) -> dict:
    return {
        "machines": instance.machine_count,
        "users": [list(jobs) for jobs in instance.user_job_lists],
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {"assignment": list(cert.schedule), "makespan": cert.claimed_makespan}


def dump_json(data: dict) -> str:
    """Canonical one-line rendering used for all machine-readable output."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
