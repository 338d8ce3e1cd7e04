"""On-disk formats: the sites/config file, workload CSV, policy string.

The sites file is a line-oriented section format (documented in the
README) holding execution-site definitions plus optional simulation
settings and fault injections.  The workload is plain CSV.  The parsers
own only the syntax: sections, keys, field counts and integers.  Every
rule on a value belongs to the library code that reads it
(``simcluster.run_job_error`` and ``fault_error``,
``bundling.site_id_error``, the constructors of ``ExecutionSite``,
``QueueWait``, ``FaultSpec`` and ``SimConfig``), and a parser raises its
message as a ``ParseError`` with the line in front.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .bundling import BundlePolicy, ExecutionSite, site_id_error
from .dispatcher import JobSpec
from .simcluster import (
    GLOBAL_STALL,
    NODE_FAULT,
    SIM_MINIMUMS,
    STEP_OVERRUN,
    FaultSpec,
    QueueWait,
    SimConfig,
    Workload,
    fault_error,
    run_job_error,
)

WORKLOAD_COLUMNS = list(JobSpec._fields)
_T = TypeVar("_T")

_POLICY_KEYS = {
    "min_jobs": ("min_jobs", int),
    "min_fill": ("min_fill", float),
    "flush": ("flush_interval_minutes", int),
    "buffer": ("timeout_buffer_minutes", int),
    "heartbeat": ("heartbeat_factor", float),
}


class ParseError(ValueError):
    """Malformed input file; message carries the line number."""


def _fail(lineno: int, message: str) -> None:
    raise ParseError(f"line {lineno}: {message}")


def _build(lineno: int, make: Callable[..., _T], *args: object, **kwargs: object) -> _T:
    """Call a library constructor, whose ``ValueError`` becomes a ``ParseError`` at ``lineno``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(lineno, str(exc))


@dataclass
class SiteFileContents:
    """Everything a sites file can declare."""

    sites: list[ExecutionSite] = field(default_factory=list)
    queue_waits: dict[str, QueueWait] = field(default_factory=dict)
    grace_minutes: int | None = None
    tick_minutes: int | None = None
    faults: list[FaultSpec] = field(default_factory=list)

    def build_config(self, seed: int, horizon_minutes: int = 1_000_000) -> SimConfig:
        settings = {key: getattr(self, key) for key in SIM_MINIMUMS if getattr(self, key) is not None}
        return SimConfig(seed=seed, horizon_minutes=horizon_minutes,
                         queue_waits=dict(self.queue_waits), faults=tuple(self.faults),
                         **settings)


def _parse_bool(value: str, lineno: int) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    _fail(lineno, f"expected a boolean, got {value!r}")


def _parse_int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(lineno, f"expected an integer, got {value!r}")


def _parse_queue_wait(value: str, lineno: int) -> QueueWait:
    kind, *bounds = value.split() or [""]
    try:
        bounds = [int(b) for b in bounds]
    except ValueError:
        bounds = []
    if len(bounds) != {"fixed": 1, "uniform": 2}.get(kind):
        _fail(lineno, f"expected 'fixed N' or 'uniform LOW HIGH', got {value!r}")
    return _build(lineno, QueueWait, kind, *bounds)


def parse_sites_text(text: str) -> SiteFileContents:
    contents = SiteFileContents()
    section: str | None = None
    kv: dict[str, tuple[str, int]] = {}  # the open section's keys: (value, line)
    site_id: str | None = None
    site_ids: set[str] = set()
    section_line = 0
    sim_seen = False
    fault_lines: list[int] = []  # the section line of each fault

    def close_section() -> None:
        if section == "site":
            contents.sites.append(_build_site(site_id, kv, section_line))
            wait = kv.get("queue_wait")
            if wait is not None:
                contents.queue_waits[site_id] = _parse_queue_wait(*wait)
        elif section == "fault":
            contents.faults.append(_build_fault(kv, section_line))
            fault_lines.append(section_line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            kv = {}
            header = line[1:-1].strip()
            section_line = lineno
            if header == "sim":
                if sim_seen:
                    _fail(lineno, "duplicate [sim] section")
                section, sim_seen = "sim", True
            elif header == "fault":
                section = "fault"
            elif header == "site" or header.startswith("site "):
                section = "site"
                site_id = header[len("site"):].strip()
                if not site_id:
                    _fail(lineno, "site section needs an id: [site <id>]")
                error = site_id_error(site_id, site_ids)
                if error is not None:
                    _fail(lineno, error)
                site_ids.add(site_id)
            else:
                _fail(lineno, f"unknown section {header!r}")
            continue
        key, equals, value = line.partition("=")
        if not equals:
            _fail(lineno, f"expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key in kv:
            _fail(lineno, f"duplicate key {key!r}")
        kv[key] = (value, lineno)
        if section == "sim":
            if key not in SIM_MINIMUMS:
                _fail(lineno, f"unknown [sim] key {key!r}")
            number = _parse_int(value, lineno)
            _build(lineno, SimConfig, **{key: number})  # SimConfig owns each least value
            setattr(contents, key, number)
        elif section is None:
            _fail(lineno, "key-value pair outside any section")
    close_section()
    # The simulator's fault rules, with each fault named by its section's line.
    refused = fault_error(contents.faults, site_ids, where=lambda i: f"line {fault_lines[i]}")
    if refused is not None:
        _fail(fault_lines[refused[0]], refused[1])
    return contents


_SITE_KEYS = {"cores_per_node", "max_walltime_minutes", "active", "queue_wait"}
# A [fault] section's one key beside kind and target, by kind.
_FAULT_KEYS = {STEP_OVERRUN: "multiplier", NODE_FAULT: "times", GLOBAL_STALL: "window"}


def _build_site(site_id: str, kv: dict[str, tuple[str, int]], lineno: int) -> ExecutionSite:
    for key, (_, key_line) in kv.items():
        if key not in _SITE_KEYS:
            _fail(key_line, f"unknown site key {key!r}")
    for required in ("cores_per_node", "max_walltime_minutes"):
        if required not in kv:
            _fail(lineno, f"site {site_id!r} missing {required}")
    return _build(lineno, ExecutionSite, site_id,
                  cores_per_node=_parse_int(*kv["cores_per_node"]),
                  max_walltime_minutes=_parse_int(*kv["max_walltime_minutes"]),
                  active=_parse_bool(*kv["active"]) if "active" in kv else True)


def _build_fault(kv: dict[str, tuple[str, int]], lineno: int) -> FaultSpec:
    if "kind" not in kv or "target" not in kv:
        _fail(lineno, "fault section needs kind and target")
    (kind, kind_line), (target, _) = kv["kind"], kv["target"]
    own = _FAULT_KEYS.get(kind)
    if own is None:
        _build(kind_line, FaultSpec, kind, target)  # FaultSpec refuses the kind
    for key, (_, key_line) in kv.items():
        if key not in ("kind", "target", own):
            _fail(key_line, f"unknown {kind} key {key!r}")
    if own not in kv:
        if kind != NODE_FAULT:  # a node fault takes FaultSpec's default times
            _fail(lineno, f"{kind} needs {own}")
        return FaultSpec(kind, target)
    value, value_line = kv[own]
    if kind == GLOBAL_STALL:
        parts = value.split()
        if len(parts) != 2:
            _fail(value_line, f"expected 'window = START END', got {value!r}")
        parsed = (_parse_int(parts[0], value_line), _parse_int(parts[1], value_line))
    else:
        parsed = _parse_int(value, value_line)
    return _build(lineno, FaultSpec, kind, target, **{own: parsed})


def read_input_text(path: str | Path) -> str:
    """A UTF-8 file's text without a leading byte-order mark; a byte that is not
    UTF-8 is refused with its line, one plus the newlines before it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        _fail(exc.object.count(b"\n", 0, exc.start) + 1, str(exc))


def parse_sites_file(path: str | Path) -> SiteFileContents:
    return parse_sites_text(read_input_text(path))


def parse_workload_text(text: str) -> Workload:
    """The workload CSV as a ``Workload``: each row passes ``run_job_error`` as it
    is read, so the result is checked once, in row order."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != WORKLOAD_COLUMNS:
        raise ParseError(
            f"line 1: expected header {','.join(WORKLOAD_COLUMNS)}, "
            f"got {','.join(header or ['<empty>'])}"
        )
    jobs: dict[str, JobSpec] = {}  # by id, in row order
    new = tuple.__new__  # skips the named tuples' Python-level ``__new__``
    for row in reader:  # an error names ``reader.line_num``, the row's last line
        if not row:
            continue  # a blank line
        if len(row) != 7:
            _fail(reader.line_num, "wrong number of fields")
        job_id, test_id, model_id, cores, requested, true_runtime, arrival = row
        try:
            spec = new(JobSpec, (job_id, test_id, model_id,
                                 int(cores), int(requested), int(true_runtime), int(arrival)))
        except ValueError:  # name the first bad column
            spec = JobSpec(*row[:3], *(_parse_int(v, reader.line_num) for v in row[3:]))
        error = run_job_error(spec, jobs)
        if error is not None:
            _fail(reader.line_num, error)
        jobs[job_id] = spec
    return new(Workload, jobs.values())  # every row is checked already


def parse_workload_file(path: str | Path) -> Workload:
    return parse_workload_text(read_input_text(path))


def parse_policy(text: str) -> BundlePolicy:
    """Build a bundling policy from ``key=value`` pairs joined by commas.

    Keys: min_jobs, min_fill, flush, buffer, heartbeat, each at most
    once.  Omitted keys keep their defaults.
    """
    kwargs: dict[str, object] = {}
    if text.strip():
        for chunk in text.split(","):
            if "=" not in chunk:
                raise ParseError(f"policy chunk {chunk!r} is not key=value")
            key, value = (part.strip() for part in chunk.split("=", 1))
            if key not in _POLICY_KEYS:
                raise ParseError(f"unknown policy key {key!r}")
            attr, convert = _POLICY_KEYS[key]
            if attr in kwargs:
                raise ParseError(f"duplicate policy key {key!r}")
            try:
                kwargs[attr] = convert(value)
            except ValueError:
                raise ParseError(f"policy key {key!r}: bad value {value!r}") from None
    return BundlePolicy(**kwargs)
