"""Run metrics: per-bundle and per-job tables, summaries, aggregation.

Everything here reads dispatcher state after a run and renders it as
CSV rows (fixed column order, header row always present) or as a plain
text summary.  ``aggregate`` pools several runs' job tables, for
comparing seeds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .dispatcher import OUTCOMES, TERMINAL_STATES, Dispatcher, JobState
from .workload import ParseError, read_input_text

METRICS_COLUMNS = [
    "bundle_id",
    "site_id",
    "n_jobs",
    "request_cores",
    "request_minutes",
    "waste_fraction",
    *("n_" + word.lower() for word in OUTCOMES),  # the order of ``Bundle.outcome_counts``
]

JOBS_COLUMNS = [
    "job_id",
    "test_id",
    "model_id",
    "state",
    "attempts",
    "doublings",
    "turnaround_minutes",
]


def bundle_rows(dispatcher: Dispatcher) -> Iterator[tuple[object, ...]]:
    """One metrics.csv row per submitted bundle, in METRICS_COLUMNS order."""
    for bundle in dispatcher.bundle_reports:
        yield (bundle.bundle_id, bundle.site_id, bundle.n_jobs, bundle.request_cores,
               bundle.request_minutes, f"{bundle.waste_fraction():.6f}",
               *bundle.outcome_counts)


def job_rows(dispatcher: Dispatcher) -> Iterator[tuple[object, ...]]:
    """One jobs.csv row per job, in JOBS_COLUMNS order; live jobs have no turnaround."""
    for job in dispatcher.jobs.values():
        turnaround = "" if job.terminal_at is None else job.terminal_at - job.ingested_at
        yield (job.job_id, job.test_id, job.model_id, job.state.value,
               job.attempts, job.doublings, turnaround)


def _csv_text(columns: Sequence[str], rows: Iterable[tuple[object, ...]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def metrics_csv_text(dispatcher: Dispatcher) -> str:
    return _csv_text(METRICS_COLUMNS, bundle_rows(dispatcher))


def jobs_csv_text(dispatcher: Dispatcher) -> str:
    return _csv_text(JOBS_COLUMNS, job_rows(dispatcher))


def write_metrics_csv(path: str | Path, dispatcher: Dispatcher) -> None:
    Path(path).write_text(metrics_csv_text(dispatcher))


def write_jobs_csv(path: str | Path, dispatcher: Dispatcher) -> None:
    Path(path).write_text(jobs_csv_text(dispatcher))


@dataclass
class Summary:
    """Aggregate view of one or more runs."""

    n_jobs: int = 0
    n_completed: int = 0
    n_errored: int = 0
    n_live: int = 0
    n_bundles: int = 0
    mean_turnaround: float = 0.0
    p95_turnaround: float = 0.0
    timeout_count: int = 0
    rebind_count: int = 0
    bundles_per_site: dict[str, int] = field(default_factory=dict)
    core_minutes_requested: int = 0
    core_minutes_consumed: int = 0

    def job_lines(self) -> list[str]:
        """The job-level lines of ``render``, all that jobs.csv tables carry."""
        return [
            f"jobs            {self.n_jobs}",
            f"  completed     {self.n_completed}",
            f"  errored       {self.n_errored}",
            f"  live          {self.n_live}",
            f"turnaround mean {self.mean_turnaround:.1f} min",
            f"turnaround p95  {self.p95_turnaround:.1f} min",
        ]

    def render(self) -> str:
        jobs = self.job_lines()
        lines = jobs[:4] + [f"bundles         {self.n_bundles}"]
        for site_id in sorted(self.bundles_per_site):
            lines.append(f"  {site_id:<13} {self.bundles_per_site[site_id]}")
        lines += jobs[4:] + [
            f"timeouts        {self.timeout_count}",
            f"rebinds         {self.rebind_count}",
            f"core-min asked  {self.core_minutes_requested}",
            f"core-min used   {self.core_minutes_consumed}",
        ]
        return "\n".join(lines)


def _turnaround_stats(turnarounds: Sequence[int]) -> tuple[float, float]:
    """Mean and 95th percentile, bit for bit as ``np.mean``/``np.percentile``.

    The percentile is linear between the two order statistics around the
    index ``(n - 1) * 0.95``, interpolated from whichever end is nearer.
    """
    if not turnarounds:
        return 0.0, 0.0
    ordered = sorted(float(t) for t in turnarounds)
    index = (len(ordered) - 1) * 0.95
    lo = math.floor(index)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = index - lo
    p95 = a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
    return math.fsum(ordered) / len(ordered), p95


def _pool_jobs(pairs: Iterable[tuple[str, object]]) -> Summary:
    """Job-level fields from (state, turnaround) pairs, as jobs.csv holds them."""
    summary = Summary()
    turnarounds: list[int] = []
    for state, turnaround in pairs:
        summary.n_jobs += 1
        if state == JobState.COMPLETED.value:
            summary.n_completed += 1
        elif state == JobState.ERRORED.value:
            summary.n_errored += 1
        else:
            summary.n_live += 1
        if turnaround != "":
            turnarounds.append(int(turnaround))
    summary.mean_turnaround, summary.p95_turnaround = _turnaround_stats(turnarounds)
    return summary


def summarize(dispatcher: Dispatcher) -> Summary:
    """Job-level fields from the jobs.csv rows, bundle-level ones from the reports."""
    summary = _pool_jobs((row[3], row[6]) for row in job_rows(dispatcher))
    summary.n_bundles = len(dispatcher.bundle_reports)
    summary.timeout_count = dispatcher.timeout_total
    summary.rebind_count = dispatcher.rebind_total
    per_site = summary.bundles_per_site
    for bundle in dispatcher.bundle_reports:
        per_site[bundle.site_id] = per_site.get(bundle.site_id, 0) + 1
        summary.core_minutes_requested += bundle.requested_core_minutes
        summary.core_minutes_consumed += bundle.consumed_core_minutes
    return summary


_STATE_WORDS = frozenset(state.value for state in JobState)
_TERMINAL_WORDS = frozenset(state.value for state in TERMINAL_STATES)


def _job_row_error(row: dict[str | None, object]) -> str | None:
    """Why a jobs table row cannot be pooled, or ``None`` when it can: as
    ``job_rows`` writes it, a terminal job has a turnaround and a live one
    has none."""
    if None in row or None in row.values():  # DictReader's marks for an extra or a missing field
        return "wrong number of fields"
    state, turnaround = row["state"], row["turnaround_minutes"]
    if state not in _STATE_WORDS:
        return f"state: unknown word {state!r}"
    if (turnaround != "") != (state in _TERMINAL_WORDS):
        return f"turnaround_minutes: {turnaround!r} for a {state} job"
    if turnaround != "":
        try:
            minutes = int(turnaround)
        except ValueError:
            minutes = -1
        if minutes < 0:
            return f"turnaround_minutes: expected a non-negative integer, got {turnaround!r}"
    return None


def read_jobs_csv(path: str | Path) -> list[dict[str, str]]:
    """Load a jobs table, insisting on the exact column schema; its text is
    decoded as ``read_input_text`` decodes every input file.  A row with a
    missing or extra field, an unknown state word, or a turnaround that is
    not a non-negative integer for a completed or errored job and empty for
    a live one is refused as ``<path>: line N: ...``."""
    try:
        reader = csv.DictReader(io.StringIO(read_input_text(path)))
    except ParseError as exc:  # a byte that is not UTF-8, refused with its line
        raise ParseError(f"{path}: {exc}") from None
    if reader.fieldnames != JOBS_COLUMNS:
        raise ValueError(
            f"{path}: expected columns {JOBS_COLUMNS}, found {reader.fieldnames}"
        )
    rows = []
    for row in reader:  # ``reader.line_num`` is the row's last line
        error = _job_row_error(row)
        if error is not None:
            raise ParseError(f"{path}: line {reader.line_num}: {error}")
        rows.append(row)
    return rows


def aggregate(paths: Sequence[str | Path]) -> Summary:
    """Pool several runs' job tables into one summary.

    Only job-level fields are aggregated; bundle-level numbers stay zero
    because jobs tables do not carry them.
    """
    if not paths:
        raise ValueError("at least one jobs table is required")
    return _pool_jobs((row["state"], row["turnaround_minutes"])
                      for path in paths for row in read_jobs_csv(path))
