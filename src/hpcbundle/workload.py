"""On-disk formats: the sites/config file, workload CSV, policy string.

The sites file is a line-oriented section format (documented in the
README) holding execution-site definitions plus optional simulation
settings and fault injections.  The workload is plain CSV.  Parsers
report errors with line numbers; emitters produce text whose re-parse
is identical, so parse-emit round trips are stable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .bundling import BundlePolicy, ExecutionSite
from .dispatcher import JOB_ID_PATTERN, JOB_ID_RULE, JobSpec
from .simcluster import (
    GLOBAL_STALL,
    NODE_FAULT,
    STEP_OVERRUN,
    FaultSpec,
    QueueWait,
    SimConfig,
)

WORKLOAD_COLUMNS = list(JobSpec._fields)

# The [sim] keys and the least value each takes.
_SIM_MINIMUMS = {"grace_minutes": 0, "tick_minutes": 1}

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


@dataclass
class SiteFileContents:
    """Everything a sites file can declare."""

    sites: list[ExecutionSite] = field(default_factory=list)
    queue_waits: dict[str, QueueWait] = field(default_factory=dict)
    grace_minutes: int | None = None
    tick_minutes: int | None = None
    faults: list[FaultSpec] = field(default_factory=list)

    def build_config(self, seed: int, horizon_minutes: int = 1_000_000) -> SimConfig:
        kwargs: dict[str, object] = {}
        if self.grace_minutes is not None:
            kwargs["grace_minutes"] = self.grace_minutes
        if self.tick_minutes is not None:
            kwargs["tick_minutes"] = self.tick_minutes
        return SimConfig(
            seed=seed,
            horizon_minutes=horizon_minutes,
            queue_waits=dict(self.queue_waits),
            faults=tuple(self.faults),
            **kwargs,
        )


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
    try:
        return QueueWait(kind, *bounds)
    except ValueError:
        _fail(lineno, f"queue_wait bounds must satisfy 0 <= LOW <= HIGH, got {value!r}")


def parse_sites_text(text: str) -> SiteFileContents:
    contents = SiteFileContents()
    section: str | None = None
    kv: dict[str, tuple[str, int]] = {}  # the open section's keys: (value, line)
    site_id: str | None = None
    site_ids: set[str] = set()
    section_line = 0
    sim_seen = False
    fault_lines: dict[tuple[str, str], int] = {}  # (kind, target) -> section line
    stalls: dict[str, list[tuple[tuple[int, int], int]]] = {}  # site -> (window, line)

    def close_section() -> None:
        if section == "site":
            contents.sites.append(_build_site(site_id, kv, section_line))
            wait = kv.get("queue_wait")
            if wait is not None:
                contents.queue_waits[site_id] = _parse_queue_wait(*wait)
        elif section == "fault":
            fault = _build_fault(kv, section_line)
            if fault.kind == GLOBAL_STALL:
                stalls.setdefault(fault.target, []).append((fault.window, section_line))
            else:
                first = fault_lines.setdefault((fault.kind, fault.target), section_line)
                if first != section_line:
                    _fail(section_line,
                          f"repeated {fault.kind} for {fault.target!r}, first at line {first}")
            contents.faults.append(fault)

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
                if site_id in site_ids:
                    _fail(lineno, f"duplicate site id {site_id!r}")
                site_ids.add(site_id)
            else:
                _fail(lineno, f"unknown section {header!r}")
            continue
        if "=" not in line:
            _fail(lineno, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            _fail(lineno, f"duplicate key {key!r}")
        kv[key] = (value, lineno)
        if section == "sim":
            if key not in _SIM_MINIMUMS:
                _fail(lineno, f"unknown [sim] key {key!r}")
            number = _parse_int(value, lineno)
            if number < _SIM_MINIMUMS[key]:
                _fail(lineno, f"{key} must be >= {_SIM_MINIMUMS[key]}, got {number}")
            setattr(contents, key, number)
        elif section is None:
            _fail(lineno, "key-value pair outside any section")
    close_section()
    # The rules SimCluster and Simulation enforce, with a section's line:
    # windows on one site may touch but not overlap, and a stall targets a
    # site of this file.
    for target, windows in stalls.items():
        windows.sort()
        for ((_, end), line0), ((start, _), line1) in zip(windows, windows[1:]):
            if start < end:
                _fail(max(line0, line1), f"GLOBAL_STALL window on {target!r} overlaps "
                                         f"the one at line {min(line0, line1)}")
        if target not in site_ids:
            _fail(min(line for _, line in windows),
                  f"GLOBAL_STALL target {target!r} names no site in this file")
    return contents


_SITE_KEYS = {"cores_per_node", "max_walltime_minutes", "active", "queue_wait"}


def _build_site(site_id: str, kv: dict[str, tuple[str, int]], lineno: int) -> ExecutionSite:
    for key, (_, key_line) in kv.items():
        if key not in _SITE_KEYS:
            _fail(key_line, f"unknown site key {key!r}")
    for required in ("cores_per_node", "max_walltime_minutes"):
        if required not in kv:
            _fail(lineno, f"site {site_id!r} missing {required}")
    try:
        return ExecutionSite(
            site_id=site_id,
            cores_per_node=_parse_int(*kv["cores_per_node"]),
            max_walltime_minutes=_parse_int(*kv["max_walltime_minutes"]),
            active=_parse_bool(*kv["active"]) if "active" in kv else True,
        )
    except ParseError:
        raise
    except ValueError as exc:
        _fail(lineno, f"site {site_id!r}: {exc}")


def _build_fault(kv: dict[str, tuple[str, int]], lineno: int) -> FaultSpec:
    if "kind" not in kv or "target" not in kv:
        _fail(lineno, "fault section needs kind and target")
    kind = kv["kind"][0]
    target = kv["target"][0]
    try:
        if kind == STEP_OVERRUN:
            if "multiplier" not in kv:
                _fail(lineno, "STEP_OVERRUN needs multiplier")
            return FaultSpec(kind, target, multiplier=_parse_int(*kv["multiplier"]))
        if kind == NODE_FAULT:
            times = _parse_int(*kv["times"]) if "times" in kv else 1
            return FaultSpec(kind, target, times=times)
        if kind == GLOBAL_STALL:
            if "window" not in kv:
                _fail(lineno, "GLOBAL_STALL needs window")
            value, value_line = kv["window"]
            parts = value.split()
            if len(parts) != 2:
                _fail(value_line, f"expected 'window = START END', got {value!r}")
            return FaultSpec(
                kind, target,
                window=(_parse_int(parts[0], value_line), _parse_int(parts[1], value_line)),
            )
    except ParseError:
        raise
    except ValueError as exc:
        _fail(lineno, str(exc))
    _fail(kv["kind"][1], f"unknown fault kind {kind!r}")


def emit_sites(contents: SiteFileContents) -> str:
    lines: list[str] = []
    if contents.grace_minutes is not None or contents.tick_minutes is not None:
        lines.append("[sim]")
        if contents.grace_minutes is not None:
            lines.append(f"grace_minutes = {contents.grace_minutes}")
        if contents.tick_minutes is not None:
            lines.append(f"tick_minutes = {contents.tick_minutes}")
        lines.append("")
    for site in contents.sites:
        lines.append(f"[site {site.site_id}]")
        lines.append(f"cores_per_node = {site.cores_per_node}")
        lines.append(f"max_walltime_minutes = {site.max_walltime_minutes}")
        lines.append(f"active = {'true' if site.active else 'false'}")
        wait = contents.queue_waits.get(site.site_id)
        if wait is not None:
            if wait.kind == "fixed":
                lines.append(f"queue_wait = fixed {wait.low}")
            else:
                lines.append(f"queue_wait = uniform {wait.low} {wait.high}")
        lines.append("")
    for fault in contents.faults:
        lines.append("[fault]")
        lines.append(f"kind = {fault.kind}")
        lines.append(f"target = {fault.target}")
        if fault.kind == STEP_OVERRUN:
            lines.append(f"multiplier = {fault.multiplier}")
        elif fault.kind == NODE_FAULT:
            lines.append(f"times = {fault.times}")
        else:
            lines.append(f"window = {fault.window[0]} {fault.window[1]}")
        lines.append("")
    return "\n".join(lines)


def parse_sites_file(path: str | Path) -> SiteFileContents:
    return parse_sites_text(Path(path).read_text(encoding="utf-8-sig"))


def parse_workload_text(text: str) -> list[JobSpec]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != WORKLOAD_COLUMNS:
        raise ParseError(
            f"line 1: expected header {','.join(WORKLOAD_COLUMNS)}, "
            f"got {','.join(header or ['<empty>'])}"
        )
    jobs: list[JobSpec] = []
    seen: set[str] = set()
    match_id = JOB_ID_PATTERN.fullmatch  # bound once, outside the row loop
    for row in reader:
        if not row:
            continue  # a blank line
        lineno = reader.line_num
        if len(row) != 7:
            _fail(lineno, "wrong number of fields")
        job_id, test_id, model_id, cores, requested, true_runtime, arrival = row
        if match_id(job_id) is None:
            # The whitespace message also covers the empty id, whose split is empty.
            if job_id.split() != [job_id]:
                _fail(lineno, f"job_id {job_id!r} must be non-empty with no whitespace")
            _fail(lineno, f"job_id {job_id!r} {JOB_ID_RULE}")
        if job_id in seen:
            _fail(lineno, f"duplicate job_id {job_id!r}")
        seen.add(job_id)
        try:
            cores, requested, true_runtime, arrival = (
                int(cores), int(requested), int(true_runtime), int(arrival))
        except ValueError:  # name the first bad column
            cores, requested, true_runtime, arrival = (_parse_int(v, lineno) for v in row[3:])
        if cores < 1 or requested < 1 or true_runtime < 1:
            _fail(lineno, "cores, requested and true runtime must be positive")
        if arrival < 0:
            _fail(lineno, "arrival_minute must be non-negative")
        jobs.append(JobSpec(job_id, test_id, model_id, cores, requested, true_runtime, arrival))
    return jobs


def emit_workload(jobs: Sequence[JobSpec]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(WORKLOAD_COLUMNS)
    writer.writerows(jobs)
    return out.getvalue()


def parse_workload_file(path: str | Path) -> list[JobSpec]:
    return parse_workload_text(Path(path).read_text(encoding="utf-8-sig"))


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
