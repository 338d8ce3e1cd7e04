"""Job lifecycle ownership: intake, submission, outcome analysis, recovery.

The dispatcher binds each incoming job to an execution site, forms and
submits bundles through a pluggable backend, and walks every job to a
terminal state.  Timeouts confirmed by scheduler accounting double the
next wallclock request and rebind when the site can no longer hold the
job; missing sentinel files mark hardware faults and retry unchanged; a
heartbeat monitor cancels bundles that have gone silent far longer than
the wallclock they requested.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, NamedTuple, Protocol

from .bundling import Bundle, BundlePolicy, ExecutionSite, SiteRegistry
from .stepgraph import StepGraph, step_graph, emit_make

SENTINEL_FILENAME = "kim-done"
ACCOUNTING_FILENAME = "accounting.txt"
MAKEFILE_FILENAME = "Makefile"

# Accounting state words, mirroring scheduler accounting output.
ACCT_COMPLETED = "COMPLETED"
ACCT_TIMEOUT = "TIMEOUT"
ACCT_FAILED = "FAILED"
ACCT_CANCELLED = "CANCELLED"
_ACCT_WORDS = {ACCT_COMPLETED, ACCT_TIMEOUT, ACCT_FAILED, ACCT_CANCELLED}

# Backend lifecycle notification kinds.
EVENT_ACCEPTED = "ACCEPTED"
EVENT_QUEUED = "QUEUED"
EVENT_RUNNING = "RUNNING"
EVENT_FINISHED = "FINISHED"

# Attempts after which a job that keeps failing ends as a flaky error.
RETRY_CAP = 10

# A job id names a step directory, a make target and a word of its recipe, so it may
# not hold a path separator or a make or shell metacharacter, begin with '.' or '-',
# or be a name the bundle uses itself: the ``all`` target, a file beside the steps, or
# a makefile name GNU make reads before ``Makefile``.
RESERVED_JOB_IDS = ("all", "GNUmakefile", "makefile", MAKEFILE_FILENAME, ACCOUNTING_FILENAME)
JOB_ID_PATTERN = re.compile(
    r"(?!(?:%s)\Z)[A-Za-z0-9_][A-Za-z0-9._-]*" % "|".join(map(re.escape, RESERVED_JOB_IDS)))
JOB_ID_RULE = ("may use only letters, digits, '.', '_' and '-', may not start with '.' or '-', "
               "and may not be %s or %r" % (", ".join(map(repr, RESERVED_JOB_IDS[:-1])),
                                           RESERVED_JOB_IDS[-1]))


class JobState(enum.Enum):
    BOUND = "bound"
    BUNDLED = "bundled"
    RUNNING = "running"
    COMPLETED = "completed"
    ERRORED = "errored"

    # Members compare by identity, so the identity hash agrees with equality
    # and spares every state-machine lookup the pure-Python Enum.__hash__.
    __hash__ = object.__hash__


TERMINAL_STATES = (JobState.COMPLETED, JobState.ERRORED)

_ALLOWED_TRANSITIONS: dict[JobState, set[JobState]] = {
    JobState.BOUND: {JobState.BUNDLED, JobState.ERRORED},
    JobState.BUNDLED: {JobState.RUNNING, JobState.BOUND, JobState.ERRORED},
    JobState.RUNNING: {JobState.COMPLETED, JobState.ERRORED, JobState.BOUND},
    JobState.COMPLETED: set(),
    JobState.ERRORED: set(),
}


class JobSpec(NamedTuple):
    """One requested job: a model/property pairing plus its resource ask.

    The fields, in order, are the workload CSV columns.  A named tuple is
    built in well under half the time of a frozen dataclass.
    """

    job_id: str
    test_id: str
    model_id: str
    cores: int
    requested_minutes: int
    true_runtime_minutes: int = 0
    arrival_minute: int = 0


def job_error(spec: JobSpec, known: Container[str]) -> str | None:
    """Why ``Dispatcher.ingest`` refuses ``spec``, or None: an id outside ``JOB_ID_PATTERN``,
    an id in ``known``, or ``cores`` or ``requested_minutes`` below 1."""
    job_id, _, _, cores, minutes, _, _ = spec
    if JOB_ID_PATTERN.fullmatch(job_id) is None:
        if job_id.split() != [job_id]:  # also the empty id, whose split is empty
            return f"job_id {job_id!r} must be non-empty with no whitespace"
        return f"job_id {job_id!r} {JOB_ID_RULE}"
    if job_id in known:
        return f"duplicate job_id {job_id!r}"
    if cores < 1 or minutes < 1:
        return f"job {job_id!r}: cores and minutes must be positive"
    return None


@dataclass(slots=True)
class JobRecord:
    """One job's lifecycle; ``Dispatcher._set_state`` alone moves its ``state``.

    A record starts BOUND.  ``requested_minutes`` doubles once per timeout,
    so it stays the spec's request times ``2 ** timeout_count``.
    """

    job_id: str
    test_id: str
    model_id: str
    cores: int
    requested_minutes: int
    state: JobState = JobState.BOUND
    bound_site: str | None = None
    attempts: int = 0
    error_kind: str | None = None
    ingested_at: int = 0
    terminal_at: int | None = None
    timeout_count: int = 0
    rebind_count: int = 0

    @property
    def doublings(self) -> int:
        """Times the wallclock request doubled: one per timeout."""
        return self.timeout_count


# Verdict for a step that left no sentinel; the other verdicts are state words.
OUTCOME_NODE_FAULT = "NODE_FAULT"
# Every verdict, in the order of ``Bundle.outcome_counts`` and metrics.csv.
OUTCOMES = (ACCT_COMPLETED, ACCT_TIMEOUT, OUTCOME_NODE_FAULT, ACCT_CANCELLED, ACCT_FAILED)


@dataclass
class AccountingRecord:
    """Scheduler accounting for one bundle: one row per step."""

    bundle_id: str
    rows: dict[str, tuple[str, int, int]]  # job_id -> (state word, elapsed, exit code)

    def to_text(self) -> str:
        lines = [f"bundle_id {self.bundle_id}"]
        for job_id, (word, elapsed, code) in self.rows.items():
            lines.append(f"{job_id} {word} {elapsed} {code}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AccountingRecord":
        # Errors name the line of the text itself; blank lines are skipped.
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        header_no, header = lines[0] if lines else (1, "")
        if not header.startswith("bundle_id "):
            raise ValueError(f"accounting line {header_no}: missing 'bundle_id' header")
        bundle_id = header[len("bundle_id "):].strip()
        if not bundle_id:
            raise ValueError(f"accounting line {header_no}: 'bundle_id' header names no bundle")
        rows: dict[str, tuple[str, int, int]] = {}
        for lineno, line in lines[1:]:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"accounting line {lineno}: expected 4 fields, got {len(parts)}")
            job_id, word, elapsed, code = parts
            if word not in _ACCT_WORDS:
                raise ValueError(f"accounting line {lineno}: unknown state word {word!r}")
            try:
                row = (word, int(elapsed), int(code))
            except ValueError:
                raise ValueError(
                    f"accounting line {lineno}: elapsed {elapsed!r} and exit code {code!r} "
                    "must be integers"
                ) from None
            if job_id in rows:
                first = next(n for n, ln in lines[1:] if ln.split()[0] == job_id)
                raise ValueError(f"accounting line {lineno}: second row for job {job_id!r}, "
                                 f"first at line {first}")
            rows[job_id] = row
        return cls(bundle_id=bundle_id, rows=rows)


@dataclass(slots=True)
class BundleArtifacts:
    """What comes back from the backend when a bundle finishes or is cancelled."""

    accounting_text: str
    sentinels: dict[str, bool]

    @classmethod
    def from_dir(cls, bundle_dir: str | Path) -> "BundleArtifacts":
        """Load artifacts from a per-bundle directory tree.

        Layout: ``<bundle_dir>/accounting.txt`` plus one subdirectory per
        step whose ``kim-done`` file marks normal conclusion.
        """
        root = Path(bundle_dir)
        sentinels = {step_dir.name: (step_dir / SENTINEL_FILENAME).exists()
                     for step_dir in sorted(p for p in root.iterdir() if p.is_dir())}
        return cls((root / ACCOUNTING_FILENAME).read_text(), sentinels)

    def write_to(self, bundle_dir: str | Path) -> None:
        root = Path(bundle_dir)
        root.mkdir(parents=True, exist_ok=True)
        (root / ACCOUNTING_FILENAME).write_text(self.accounting_text)
        for job_id, present in self.sentinels.items():
            step_dir = root / job_id
            step_dir.mkdir(parents=True, exist_ok=True)
            if present:
                (step_dir / SENTINEL_FILENAME).write_text("done\n")


@dataclass(frozen=True, slots=True)
class ResultEnvelope:
    """Per-job result or error forwarded to the gateway-side sink."""

    job_id: str
    test_id: str
    model_id: str
    status: str  # "completed" | "resource-error" | "job-error" | "flaky-error"
    elapsed_minutes: int
    attempts: int


class BackendRejection(Exception):
    """Raised by a backend that refuses a bundle submission."""


class Backend(Protocol):
    def submit(self, bundle: Bundle, graph: StepGraph) -> str:
        """Accept a bundle and its step order; return an opaque handle."""
        ...

    def cancel(self, handle: str) -> BundleArtifacts | None:
        """Cancel a bundle; return its artifacts so far, or None on failure."""
        ...


class ResultsSink(Protocol):
    def deliver(self, envelope: ResultEnvelope) -> None: ...


class CollectingSink:
    """Results sink that just accumulates envelopes (tests, simulation)."""

    def __init__(self) -> None:
        self.envelopes: list[ResultEnvelope] = []

    def deliver(self, envelope: ResultEnvelope) -> None:
        self.envelopes.append(envelope)


def default_command(job_id: str) -> str:
    """Placeholder step recipe; the real pipeline runs a container here."""
    return f"run-kim-job {job_id}"


def make_text(graph: StepGraph) -> str:
    """A bundle's make script: its step order, each step running ``default_command``."""
    return emit_make(graph, default_command)


def _no_record(now: int, kind: str, detail: str) -> None:
    """The default recorder: lifecycle records go nowhere."""


class Dispatcher:
    """Single event-loop owner of all job and bundle state.

    Every method takes the current virtual time explicitly; the dispatcher
    itself never consults a clock, which keeps simulation runs exactly
    reproducible.
    """

    def __init__(
        self,
        registry: SiteRegistry,
        backend: Backend,
        sink: ResultsSink,
        recorder: Callable[[int, str, str], None] = _no_record,
    ):
        self.registry = registry
        self.policy: BundlePolicy = registry.policy
        self.backend = backend
        self.sink = sink
        self._record = recorder
        self.jobs: dict[str, JobRecord] = {}
        self.in_flight: dict[str, Bundle] = {}
        self.bundle_reports: list[Bundle] = []  # every submitted bundle, in order
        # One shared tuple per distinct ``outcome_counts``; most bundles repeat a few.
        self._outcome_counts: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.state_counts: Counter = Counter()
        self.timeout_total = 0
        self.rebind_total = 0

    # -- intake ---------------------------------------------------------

    def ingest(self, spec: JobSpec, now: int) -> JobRecord:
        """Register a new job, bind it, and try to form a bundle at its site."""
        error = job_error(spec, self.jobs)
        if error is not None:
            raise ValueError(error)
        site = self.registry.bind(spec, spec.job_id)
        job = JobRecord(spec.job_id, spec.test_id, spec.model_id, spec.cores,
                        spec.requested_minutes, ingested_at=now,
                        bound_site=None if site is None else site.site_id)
        self.jobs[job.job_id] = job
        self.state_counts[JobState.BOUND] += 1
        if site is None:  # errored before anything has seen it bound
            self._error(job, now, "resource-error", "no compatible execution site")
        else:
            self._record(now, "BIND", f"{job.job_id} -> {site.site_id}")
            self._attempt_formation(site, now)
        return job

    # -- bundle formation and submission --------------------------------

    def _attempt_formation(self, site: ExecutionSite, now: int) -> None:
        bundle = self.registry.try_form_bundle(site, self.jobs, force=False, now=now)
        if bundle is not None:
            self.submit(bundle, now)

    def flush(self, now: int) -> list[Bundle]:
        """Force bundle formation on sites overdue for an attempt."""
        bundles = self.registry.flush_due_sites(now, self.jobs)
        for bundle in bundles:
            self.submit(bundle, now)
        return bundles

    def submit(self, bundle: Bundle, now: int) -> str | None:
        """Submit a proposed bundle; its members leave the queue only if accepted."""
        try:
            handle = self.backend.submit(bundle, step_graph(bundle.members))
        except BackendRejection as exc:
            self._record(now, "REJECTED", f"{bundle.bundle_id} at {bundle.site_id}: {exc}")
            return None
        self.registry.commit(bundle)
        bundle.handle = handle
        bundle.last_event_at = now
        for job_id, _ in bundle.members:
            job = self.jobs[job_id]
            job.attempts += 1
            self._set_state(job, JobState.BUNDLED, now)
        self.in_flight[handle] = bundle
        self.bundle_reports.append(bundle)
        self._record(
            now,
            "SUBMIT",
            f"{bundle.bundle_id} -> {bundle.site_id} as {handle} "
            f"request {bundle.request_cores}c x {bundle.request_minutes}m "
            f"jobs {','.join(bundle.job_ids)}",
        )
        return handle

    # -- backend notifications ------------------------------------------

    def on_event(self, handle: str, kind: str, now: int,
                 artifacts: BundleArtifacts | None = None) -> None:
        """Record a backend lifecycle notification for a bundle.

        Any event refreshes the heartbeat timestamp.  RUNNING advances
        member states; FINISHED triggers artifact analysis.  Events for
        unknown or already-finalized handles are logged and ignored.
        """
        bundle = self.in_flight.get(handle)
        if bundle is None:  # late events are rare, so scanning the submitted bundles costs little
            if any(b.handle == handle for b in self.bundle_reports):
                self._record(now, "LATE_EVENT", f"{kind} for finalized {handle} ignored")
            else:
                self._record(now, "UNKNOWN_EVENT", f"{kind} for unknown {handle} ignored")
            return
        bundle.last_event_at = now
        self._record(now, "NOTIFY", f"{bundle.bundle_id} {kind}")
        if kind == EVENT_RUNNING:
            for job_id, _ in bundle.members:
                self._mark_running_if_needed(self.jobs[job_id], now)
        elif kind == EVENT_FINISHED:
            if artifacts is None:
                raise ValueError(f"FINISHED event for {handle} carries no artifacts")
            self.analyze_bundle(handle, artifacts, now)

    # -- outcome analysis -----------------------------------------------

    def analyze_bundle(self, handle: str, artifacts: BundleArtifacts, now: int) -> None:
        """Inspect a returned bundle and route every member onward.

        Verdicts per member: accounting TIMEOUT doubles the next request;
        accounting CANCELLED retries unchanged; a missing sentinel without
        a timeout means a hardware fault, also retried unchanged; FAILED
        with the sentinel present is a genuine job error; COMPLETED with
        the sentinel packages a result.  An unparsable accounting file, or
        one that names another bundle, is treated as a hardware fault for
        every unfinished member.
        """
        bundle = self.in_flight.pop(handle)

        try:
            record = AccountingRecord.from_text(artifacts.accounting_text)
            if record.bundle_id != bundle.bundle_id:
                raise ValueError(f"accounting names bundle {record.bundle_id!r}")
            rows = record.rows
        except ValueError as exc:
            self._record(now, "BAD_ACCOUNTING", f"{bundle.bundle_id}: {exc}")
            rows = {}

        verdicts: list[str] = []
        tallies = dict.fromkeys(OUTCOMES, 0)
        for job_id, _ in bundle.members:
            job = self.jobs[job_id]
            word, elapsed, code = rows.get(job_id, ("", 0, 0))
            status = self._classify(word, artifacts.sentinels.get(job_id, False))
            verdicts.append(f"{job_id}={status}")
            tallies[status] += 1
            bundle.consumed_core_minutes += elapsed * job.cores
            self._apply_outcome(job, status, elapsed, code, now)
        counts = tuple(tallies.values())
        bundle.outcome_counts = self._outcome_counts.setdefault(counts, counts)
        self._record(now, "ANALYZED", f"{bundle.bundle_id} " + " ".join(verdicts))

    @staticmethod
    def _classify(word: str, sentinel: bool) -> str:
        """Verdict: COMPLETED, TIMEOUT, NODE_FAULT, CANCELLED or FAILED."""
        if word in (ACCT_TIMEOUT, ACCT_CANCELLED):
            return word
        if not sentinel:
            return OUTCOME_NODE_FAULT
        return ACCT_FAILED if word == ACCT_FAILED else ACCT_COMPLETED

    def _apply_outcome(self, job: JobRecord, status: str, elapsed: int, code: int,
                       now: int) -> None:
        if status == ACCT_COMPLETED:
            self._mark_running_if_needed(job, now)
            self._set_state(job, JobState.COMPLETED, now)
            self._deliver(job, "completed", elapsed)
        elif status == ACCT_TIMEOUT:  # double the wallclock request and requeue
            job.timeout_count += 1
            self.timeout_total += 1
            job.requested_minutes *= 2
            self._record(now, "TIMEOUT", f"{job.job_id} wallclock {job.requested_minutes // 2} "
                                         f"-> {job.requested_minutes}")
            self._retry(job, now)
        elif status == ACCT_FAILED:
            self._mark_running_if_needed(job, now)
            self._error(job, now, "job-error", f"exit code {code}")
        else:  # NODE_FAULT or CANCELLED: retry with the request unchanged
            self._retry(job, now)

    def _mark_running_if_needed(self, job: JobRecord, now: int) -> None:
        # A stalled RUNNING notification may never have arrived; the
        # artifacts prove the step ran, so advance through RUNNING.
        if job.state is JobState.BUNDLED:
            self._set_state(job, JobState.RUNNING, now)

    # -- recovery paths --------------------------------------------------

    def _retry(self, job: JobRecord, now: int) -> None:
        if job.attempts >= RETRY_CAP:
            self._mark_running_if_needed(job, now)
            self._error(job, now, "flaky-error", f"retry cap reached after {job.attempts} attempts")
            return
        self._set_state(job, JobState.BOUND, now)
        self._rebind(job, now, prefer=self.registry.sites[job.bound_site])

    def _rebind(self, job: JobRecord, now: int, prefer: ExecutionSite | None = None) -> None:
        """Queue a BOUND job again: at ``prefer`` while it takes the job, else
        at a random site that does (``REBIND``), else as a resource error."""
        previous = job.bound_site
        site = self.registry.bind(job, job.job_id, prefer)
        if site is None:
            self._error(
                job, now, "resource-error",
                f"request {job.cores}c x {job.requested_minutes}m exceeds every active site",
            )
            return
        if site.site_id != previous:
            job.bound_site = site.site_id
            job.rebind_count += 1
            self.rebind_total += 1
            self._record(now, "REBIND", f"{job.job_id} {previous} -> {site.site_id}")
        self._attempt_formation(site, now)

    # -- heartbeat monitor ----------------------------------------------

    def monitor(self, now: int) -> list[str]:
        """Cancel in-flight bundles silent beyond the heartbeat threshold.

        A cancel that the backend refuses is simply retried at the next
        tick.  Cancelled members that already completed stay completed;
        the rest requeue with unchanged requests.
        """
        cancelled: list[str] = []
        threshold = self.policy.heartbeat_factor
        for handle, bundle in list(self.in_flight.items()):
            if now - bundle.last_event_at <= threshold * bundle.request_minutes:
                continue
            artifacts = self.backend.cancel(handle)
            if artifacts is None:
                self._record(now, "CANCEL_FAILED", f"{bundle.bundle_id}; will retry")
                continue
            self._record(
                now,
                "CANCEL",
                f"{bundle.bundle_id} silent {now - bundle.last_event_at}m "
                f"> {threshold} x {bundle.request_minutes}m",
            )
            cancelled.append(handle)
            self.analyze_bundle(handle, artifacts, now)
        return cancelled

    # -- site control ----------------------------------------------------

    def set_site_active(self, site_id: str, active: bool, now: int) -> None:
        """Activate or deactivate a site; deactivation rebinds its queue.

        Queued jobs move to compatible active sites (or become resource
        errors); in-flight bundles are left to the heartbeat monitor.
        """
        site = self.registry.sites[site_id]  # KeyError for unknown ids
        if site.active == active:
            return
        drained = self.registry.set_active(site, active)
        self._record(now, "SITE", f"{site_id} {'activated' if active else 'deactivated'}")
        for job_id in drained:
            self._rebind(self.jobs[job_id], now)

    # -- bookkeeping ------------------------------------------------------

    def _error(self, job: JobRecord, now: int, kind: str, detail: str) -> None:
        job.error_kind = kind
        self._set_state(job, JobState.ERRORED, now)
        self._record(now, "ERROR", f"{job.job_id} {kind}: {detail}")
        self._deliver(job, kind, 0)

    def _deliver(self, job: JobRecord, status: str, elapsed: int) -> None:
        self.sink.deliver(ResultEnvelope(job.job_id, job.test_id, job.model_id, status,
                                         elapsed, job.attempts))

    def _set_state(self, job: JobRecord, new_state: JobState, now: int) -> None:
        """The one writer of ``job.state`` and ``terminal_at``, and of the
        ``state_counts`` moves; a move ``_ALLOWED_TRANSITIONS`` refuses raises
        ``ValueError`` before anything changes."""
        old = job.state
        if new_state not in _ALLOWED_TRANSITIONS[old]:
            raise ValueError(f"{job.job_id}: illegal transition {old.value} -> {new_state.value}")
        self.state_counts[old] -= 1
        self.state_counts[new_state] += 1
        job.state = new_state
        if new_state in TERMINAL_STATES:
            job.terminal_at = now

    def terminal_count(self) -> int:
        return self.state_counts[JobState.COMPLETED] + self.state_counts[JobState.ERRORED]

    def live_count(self) -> int:
        """Jobs ingested but not yet terminal: bound, bundled or running."""
        return len(self.jobs) - self.terminal_count()

    def all_terminal(self) -> bool:
        return self.terminal_count() == len(self.jobs)

    def conservation_ok(self) -> bool:
        """Every ingested job is in exactly one state bucket."""
        total = sum(self.state_counts.values())
        return total == len(self.jobs) and all(v >= 0 for v in self.state_counts.values())
