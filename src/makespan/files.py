"""JSON file formats for instances, certificates, and reduction inputs.

One object per file, unknown fields rejected, so outputs are byte-stable and
every parse failure names the offending field:

    instance     {"machines": int, "jobs": [int, ...]}
    partition    {"weights": [int, ...]}
    certificate  {"assignment": [int, ...], "makespan": int}
    multi-user   {"machines": int, "users": [[int, ...], ...]}   (written only)

Files check JSON shape and the digit rule; builders check every value.
`Certificate` validates nothing, so its fields are checked here.  Every
record these files hold is defined in `model`, the one module of the
package imported here.  Files are read through `open` and `json.load`,
which import nothing more.
"""

import json
import os
import sys
from collections.abc import Callable

from .model import (
    Certificate,
    Instance,
    InvalidInstance,
    MumpspInstance,
    PartitionInstance,
    SchedulingError,
    _power_exceeds,
    make_instance,
)


class FileFormatError(SchedulingError):
    """A file or JSON object does not match its schema."""


def _int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected a list of integers")
    return value


def _int_list(value: object, where: str) -> list[int]:
    values = _list(value, where)
    for v in values:
        if type(v) is not int:
            break
    else:
        return values
    # some entry may fail: only now count the entries to name it
    for i, v in enumerate(values):
        if type(v) is not int:
            _int(v, f"{where}[{i}]")
    return values


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
    # base**exponent has at most exponent * bits bits, and 2**(3 * limit) <
    # 10**limit: only a power that may pass that builds 10**limit to ask
    if limit and exponent * base.bit_length() > 3 * limit and _power_exceeds(
        base, exponent, 10**limit - 1
    ):
        raise error(f"{what} has more than {limit} digits")


def _parse(
    kind: str, data: object, fields: dict[str, Callable[[object, str], object]], build: Callable
):
    """The one check of a file's object: a JSON object with exactly `fields`,
    each read by its reader in order and passed to `build` in that order.
    The builder's InvalidInstance becomes a FileFormatError naming `kind`."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{kind} file: expected a JSON object")
    unknown = data.keys() - fields.keys()
    if unknown:
        raise FileFormatError(f"{kind} file: unknown field '{sorted(unknown)[0]}'")
    missing = fields.keys() - data.keys()
    if missing:
        raise FileFormatError(f"{kind} file: missing field '{sorted(missing)[0]}'")
    values = [read(data[name], name) for name, read in fields.items()]
    try:
        return build(*values)
    except InvalidInstance as exc:
        raise FileFormatError(f"{kind} file: {exc}") from exc


def parse_instance(data: object) -> Instance:
    instance = _parse("instance", data, {"machines": _int, "jobs": _list}, make_instance)
    _check_printable(instance.total_work, "jobs: total")
    return instance


def parse_partition(data: object) -> PartitionInstance:
    partition = _parse("partition", data, {"weights": _list}, PartitionInstance)
    _check_printable(partition.total_weight, "weights: total")
    return partition


def parse_certificate(data: object) -> Certificate:
    return _parse(
        "certificate",
        data,
        {"assignment": _int_list, "makespan": _int},
        lambda assignment, claimed: Certificate(tuple(assignment), claimed),
    )


def load_json(path: str | os.PathLike):
    """The parsed JSON value in `path`; every way reading or parsing it can
    fail is a FileFormatError.  An int is refused with TypeError, never read
    as a file descriptor."""
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            return json.load(handle)
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


def load_instance(path: str | os.PathLike) -> Instance:
    return parse_instance(load_json(path))


def load_partition(path: str | os.PathLike) -> PartitionInstance:
    return parse_partition(load_json(path))


def load_certificate(path: str | os.PathLike) -> Certificate:
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


# json.dumps builds a new encoder on every call that passes it options
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_json(data: dict) -> str:
    """Canonical one-line rendering used for all machine-readable output."""
    return _encode(data)
