"""Deterministic discrete-event simulation of an HPC cluster backend.

Implements the dispatcher's backend contract against virtual time in
integer minutes: sampled scheduler queue waits, step execution that
respects the packing-derived dependency graph, step and bundle kill
rules with a grace period, fault injection, and accounting-file plus
sentinel-file artifact generation.  Identical (seed, config, workload)
inputs replay to byte-identical event logs.

A step's state word is fixed when its bundle starts (TIMEOUT past the kill
rule, else COMPLETED, which a NODE_FAULT fails as the step ends); one writer,
``SimCluster._end_step``, records every accounting row and ``STEP_END`` line.

Every heap entry carries its own handler: ``Simulation.push(time,
handler, *args)`` schedules the call ``handler(*args, time)`` at virtual
minute ``time``.  Entries due at the same minute run in push order.
Handlers are bound methods (``Simulation.on_arrival`` and ``on_tick``,
and the ``SimCluster.on_*`` cluster events), looked up on the instance
when the entry is pushed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Sequence

from .bundling import Bundle, BundlePolicy, ExecutionSite, SiteRegistry
from .dispatcher import (
    ACCT_CANCELLED,
    ACCT_COMPLETED,
    ACCT_FAILED,
    ACCT_TIMEOUT,
    EVENT_ACCEPTED,
    EVENT_FINISHED,
    EVENT_QUEUED,
    EVENT_RUNNING,
    AccountingRecord,
    BundleArtifacts,
    CollectingSink,
    Dispatcher,
    JobSpec,
    MAKEFILE_FILENAME,
    job_error,
    make_text,
)
from .stepgraph import StepGraph

# Fault kinds.
STEP_OVERRUN = "STEP_OVERRUN"
NODE_FAULT = "NODE_FAULT"
GLOBAL_STALL = "GLOBAL_STALL"

# Event-log kinds written by the loop and the simulated cluster.
EV_ARRIVAL = "ARRIVAL"
EV_BUNDLE_START = "BUNDLE_START"
EV_STEP_START = "STEP_START"
EV_STEP_END = "STEP_END"
EV_BUNDLE_END = "BUNDLE_END"

# Exit code of a step's accounting row, by its state word.
EXIT_CODES = {ACCT_COMPLETED: 0, ACCT_FAILED: 1, ACCT_TIMEOUT: 124, ACCT_CANCELLED: 143}

# Event-log lines per joined text chunk while a run records.
LOG_CHUNK_LINES = 4096


def derive_rng(seed: int, label: str) -> random.Random:
    """A named random stream, stable across runs and interpreter hashing."""
    digest = hashlib.sha512(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class QueueWait:
    """Scheduler queue-wait model for one site: fixed or uniform minutes."""

    kind: str = "fixed"
    low: int = 0
    high: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown queue-wait kind {self.kind!r}")
        if self.low < 0 or (self.kind == "uniform" and self.high < self.low):
            raise ValueError("queue_wait bounds must satisfy 0 <= LOW <= HIGH")

    def sample(self, rng: random.Random | None) -> int:
        if self.kind == "fixed":
            return self.low
        return rng.randint(self.low, self.high)


_NO_WAIT = QueueWait()


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    STEP_OVERRUN multiplies a job's true runtime; NODE_FAULT suppresses a
    job's sentinel for its next ``times`` conclusions; GLOBAL_STALL
    freezes a site and suppresses its notifications over ``window``.
    """

    kind: str
    target: str
    multiplier: int = 1
    times: int = 1
    window: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.kind not in (STEP_OVERRUN, NODE_FAULT, GLOBAL_STALL):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == STEP_OVERRUN and self.multiplier < 1:
            raise ValueError("STEP_OVERRUN multiplier must be >= 1")
        if self.kind == NODE_FAULT and self.times < 1:
            raise ValueError("NODE_FAULT times must be >= 1")
        if self.kind == GLOBAL_STALL and not 0 <= self.window[0] < self.window[1]:
            raise ValueError("GLOBAL_STALL window must satisfy 0 <= start < end")


def fault_error(faults: Sequence[FaultSpec], site_ids: Container[str],
                job_ids: Container[str] | None = None,
                where: Callable[[int], str] = "faults[{}]".format) -> tuple[int, str] | None:
    """The first fault a run refuses, as ``(index, message)``, or None.

    A job takes at most one STEP_OVERRUN and one NODE_FAULT; stall windows on one
    site may touch but not overlap; a stall targets a site in ``site_ids``, and any
    other fault a job in ``job_ids`` (not checked when it is None).  A repeat or an
    overlap is reported at the later fault; ``where(i)`` names the earlier ``faults[i]``.
    """
    first: dict[tuple[str, str], int] = {}
    stalls: dict[str, list[tuple[tuple[int, int], int]]] = {}  # site -> (window, index)
    for i, fault in enumerate(faults):
        if fault.kind == GLOBAL_STALL:
            stalls.setdefault(fault.target, []).append((fault.window, i))
        elif first.setdefault((fault.kind, fault.target), i) != i:
            return i, (f"repeated {fault.kind} for {fault.target!r}, "
                       f"first at {where(first[fault.kind, fault.target])}")
    for site_id, windows in stalls.items():
        windows.sort()
        for ((_, end), i), ((start, _), j) in zip(windows, windows[1:]):
            if start < end:
                return max(i, j), (f"GLOBAL_STALL window on {site_id!r} overlaps "
                                   f"the one at {where(min(i, j))}")
    for i, fault in enumerate(faults):
        stall = fault.kind == GLOBAL_STALL
        known = site_ids if stall else job_ids
        if known is not None and fault.target not in known:
            return i, f"{fault.kind} target {fault.target!r} names no {'site' if stall else 'job'}"
    return None


def run_job_error(spec: JobSpec, known: Container[str]) -> str | None:
    """Why a run refuses ``spec``, or None: ``job_error``'s rules, then the two
    columns only a run reads, a true runtime below 1 or a negative arrival minute."""
    error = job_error(spec, known)
    if error is None and spec.true_runtime_minutes < 1:
        return f"job {spec.job_id!r}: true runtime must be positive"
    if error is None and spec.arrival_minute < 0:
        return f"job {spec.job_id!r}: arrival_minute must be non-negative"
    return error


class Workload(tuple):
    """An immutable job list a run accepts: every spec passed ``run_job_error``
    in order, so no id repeats.  ``Simulation`` takes one as already checked."""

    __slots__ = ()

    def __new__(cls, specs: Iterable[JobSpec] = ()) -> Workload:
        specs = tuple(specs)
        known: set[str] = set()
        for spec in specs:
            error = run_job_error(spec, known)
            if error is not None:
                raise ValueError(error)
            known.add(spec.job_id)
        return tuple.__new__(cls, specs)


# The settings of a ``[sim]`` section, each with the least value it takes.
SIM_MINIMUMS = {"grace_minutes": 0, "tick_minutes": 1}


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run; the seed drives every sample."""

    seed: int = 0
    grace_minutes: int = 5
    tick_minutes: int = 10
    horizon_minutes: int = 1_000_000
    queue_waits: dict[str, QueueWait] = field(default_factory=dict)
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for key, least in {**SIM_MINIMUMS, "horizon_minutes": 1}.items():
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


def schedule_steps(graph: StepGraph, durations: dict[str, int]) -> dict[str, tuple[int, int]]:
    """Start and end minute for every step, in nominal (progress) time.

    A step starts when all its reduced-graph prerequisites have ended;
    roots start at minute 0.  Durations are taken as given, so
    callers apply kill rules before calling.
    """
    # Depth-first over predecessors with an explicit stack, so a deep
    # stack of steps cannot exhaust the interpreter's recursion limit.
    # Steps enter ``times`` in post-order (nodes in ``graph.nodes`` order,
    # predecessors sorted); event pushes follow that order.
    times: dict[str, tuple[int, int]] = {}
    for root in graph.nodes:
        if root in times:
            continue
        stack = [(root, graph.predecessors(root))]
        while stack:
            node, preds = stack[-1]
            for pre in preds:
                if pre not in times:
                    stack.append((pre, graph.predecessors(pre)))
                    break
            else:
                stack.pop()
                start = max((times[pre][1] for pre in preds), default=0)
                times[node] = (start, start + durations[node])
    return times


class _BundleRun:
    """Mutable per-submission state inside the simulator.

    ``schedule`` maps each started step to ``(start, end, word, minutes)``:
    its absolute window, its state word and its compute minutes.  ``rows``
    holds each concluded step's accounting row, its one outcome record.
    Finalization renders the artifacts from the rows and releases the
    working state: ``schedule``, ``rows`` and ``graph`` become ``None``.
    The artifacts go to the dispatcher once, with the delivered FINISHED notification or
    from ``SimCluster.cancel``, and then become ``None`` here too.  A finished run keeps
    ``handle``, ``bundle``, ``site_id``, ``wait``, ``started_at`` and ``finalized_at``.
    """

    __slots__ = ("handle", "bundle", "graph", "site_id", "wait", "started_at",
                 "finalized_at", "schedule", "rows", "artifacts")

    def __init__(self, handle: str, bundle: Bundle, graph: StepGraph, wait: int):
        self.handle = handle
        self.bundle = bundle
        self.graph: StepGraph | None = graph
        self.site_id = bundle.site_id
        self.wait = wait
        self.started_at: int | None = None
        self.finalized_at: int | None = None
        self.schedule: dict[str, tuple[int, int, str, int]] | None = {}
        self.rows: dict[str, tuple[str, int, int]] | None = {}
        self.artifacts: BundleArtifacts | None = None

    @property
    def finalized(self) -> bool:
        return self.finalized_at is not None


class SimCluster:
    """Backend implementation: submissions become scheduled virtual events, and
    ``on_notify`` sends each notification no stall swallows to ``deliver``."""

    deliver: Callable[[str, str, int, BundleArtifacts | None], None]  # set by the owner

    def __init__(self, sim: "Simulation", config: SimConfig, runtimes: dict[str, int]):
        """``runtimes`` maps every job to its true minutes; the cluster takes
        the dict as its own and applies the overruns in place."""
        self.sim = sim
        self.config = config
        self.runs: dict[str, _BundleRun] = {}
        self._handle_seq = 0
        # One queue-wait model and its own random stream per configured site.
        self._waits = {site_id: (wait, derive_rng(config.seed, f"wait:{site_id}"))
                       for site_id, wait in config.queue_waits.items()}
        self._true = runtimes  # every job's true minutes, overruns applied
        self._sentinel_suppression: dict[str, int] = {}
        self.stall_windows: dict[str, list[tuple[int, int]]] = {}
        for fault in config.faults:
            if fault.kind == STEP_OVERRUN:
                runtimes[fault.target] *= fault.multiplier  # at most one per job
            elif fault.kind == NODE_FAULT:
                self._sentinel_suppression[fault.target] = fault.times
            else:
                self.stall_windows.setdefault(fault.target, []).append(fault.window)
        # ``Simulation`` refuses overlapping windows, so sorted windows also have
        # increasing ends, which the stall arithmetic bisects.
        self._stall_ends: dict[str, list[int]] = {}
        for site_id, windows in self.stall_windows.items():
            windows.sort()
            self._stall_ends[site_id] = [e for _, e in windows]

    # -- virtual-time arithmetic under site freezes ----------------------

    def advance(self, site_id: str, now: int, delta: int) -> int:
        """Absolute minute at which ``delta`` minutes of site progress
        starting at ``now`` complete, skipping frozen stall windows.

        Progress that completes exactly at a window's opening instant
        counts as done; anything needing more waits out the window.
        """
        windows = self.stall_windows.get(site_id)
        if not windows:
            return now + delta
        # Windows ending at or before ``now`` are behind it; every later
        # window ends after the minute the walk (``now`` from here on) has reached.
        for start, end in windows[bisect_right(self._stall_ends[site_id], now):]:
            if now < start:
                if delta <= start - now:
                    return now + delta
                delta -= start - now
            now = end
        return now + delta

    def progress(self, site_id: str, start: int, now: int) -> int:
        """Compute minutes elapsed on a site from ``start`` to ``now``; 0 unless ``start < now``."""
        total = now - start
        windows = self.stall_windows.get(site_id)
        if windows:
            # Only windows ending after ``start`` and opening before ``now``
            # overlap the interval.
            for s, e in windows[bisect_right(self._stall_ends[site_id], start):]:
                if s >= now:
                    break
                total -= min(now, e) - max(start, s)
        return max(0, total)

    def suppressed(self, site_id: str, at: int) -> bool:
        """True while ``at`` lies inside one of the site's stall windows."""
        windows = self.stall_windows.get(site_id)
        if not windows:
            return False
        i = bisect_right(self._stall_ends[site_id], at)  # first window ending after ``at``
        return i < len(windows) and windows[i][0] <= at

    # -- backend contract ------------------------------------------------

    def submit(self, bundle: Bundle, graph: StepGraph) -> str:
        # Never refused: the registry packs every bundle into its own site's bin.
        now = self.sim.now
        self._handle_seq += 1
        handle = f"sim-{self._handle_seq:05d}"
        model, rng = self._waits.get(bundle.site_id, (_NO_WAIT, None))
        wait = model.sample(rng)
        run = self.runs[handle] = _BundleRun(handle, bundle, graph, wait)
        self.sim.push(now, self.on_notify, run, EVENT_ACCEPTED)
        self.sim.push(now, self.on_notify, run, EVENT_QUEUED)
        self.sim.push(self.advance(bundle.site_id, now, wait), self.on_bundle_start, run)
        return handle

    def cancel(self, handle: str) -> BundleArtifacts:
        run = self.runs[handle]  # the dispatcher cancels only handles it was given
        if not run.finalized:
            self._finalize(run, self.sim.now, killed=True, notify=False)
        artifacts, run.artifacts = run.artifacts, None
        return artifacts

    # -- event handlers --------------------------------------------------

    def on_notify(self, run: _BundleRun, event_kind: str, now: int) -> None:
        """Deliver a notification to ``deliver`` unless its site is stalled."""
        if self.suppressed(run.site_id, now):
            self.sim.record(now, "SUPPRESSED", f"{run.bundle.bundle_id} {event_kind}")
            return
        artifacts = None
        if event_kind == EVENT_FINISHED:  # handed over once; a later cancel finds none
            artifacts, run.artifacts = run.artifacts, None
        self.deliver(run.handle, event_kind, now, artifacts)

    def on_bundle_start(self, run: _BundleRun, now: int) -> None:
        if run.finalized:  # cancelled while it waited in the queue
            return
        run.started_at = now
        self.sim.record(now, EV_BUNDLE_START,
                        f"{run.bundle.bundle_id} on {run.site_id} after {run.wait}m queue wait")
        self.sim.push(now, self.on_notify, run, EVENT_RUNNING)
        grace = self.config.grace_minutes
        true = self._true
        # The kill rule cuts a step at its allotment plus the grace period.
        durations = {job_id: min(true[job_id], placement.rect.minutes + grace)
                     for job_id, placement in run.bundle.members}
        site = run.site_id
        for job_id, (rel_start, rel_end) in schedule_steps(run.graph, durations).items():
            minutes = rel_end - rel_start  # the true runtime unless the kill rule cut it
            word = ACCT_TIMEOUT if true[job_id] > minutes else ACCT_COMPLETED
            start = self.advance(site, now, rel_start)
            end = self.advance(site, now, rel_end)
            run.schedule[job_id] = (start, end, word, minutes)
            self.sim.push(start, self.on_step_start, run, job_id)
            self.sim.push(end, self.on_step_end, run, job_id)
        kill_at = self.advance(site, now, run.bundle.request_minutes + grace)
        self.sim.push(kill_at, self.on_bundle_end, run)

    def on_step_start(self, run: _BundleRun, job_id: str, now: int) -> None:
        if not run.finalized:
            self.sim.record(now, EV_STEP_START, f"{run.bundle.bundle_id}/{job_id}")

    def on_step_end(self, run: _BundleRun, job_id: str, now: int) -> None:
        if run.finalized:
            return
        self._conclude_step(run, job_id, now)
        if len(run.rows) == len(run.bundle.members):
            self._finalize(run, now, killed=False, notify=True)

    def on_bundle_end(self, run: _BundleRun, now: int) -> None:
        if not run.finalized:
            self._finalize(run, now, killed=True, notify=True)

    # -- outcome recording ----------------------------------------------

    def _conclude_step(self, run: _BundleRun, job_id: str, now: int) -> None:
        # Only a COMPLETED step writes its sentinel (see ``_finalize``).
        _, _, word, minutes = run.schedule[job_id]
        if word == ACCT_COMPLETED and self._sentinel_suppression.get(job_id, 0) > 0:
            self._sentinel_suppression[job_id] -= 1
            word = ACCT_FAILED
        self._end_step(run, job_id, now, word, minutes)

    def _end_step(self, run: _BundleRun, job_id: str, now: int, word: str, elapsed: int) -> None:
        """Write a step's accounting row and its ``STEP_END`` line."""
        run.rows[job_id] = (word, elapsed, EXIT_CODES[word])
        self.sim.record(now, EV_STEP_END,
                        f"{run.bundle.bundle_id}/{job_id} {word} elapsed {elapsed}")

    def _finalize(self, run: _BundleRun, now: int, killed: bool, notify: bool) -> None:
        for job_id, _ in run.bundle.members:
            if job_id in run.rows:
                continue
            start, end, _, _ = run.schedule.get(job_id, (now, None, "", 0))
            if end == now:
                # The step concludes at the very instant the bundle dies;
                # its own verdict stands.
                self._conclude_step(run, job_id, now)
            else:  # a step yet to start has run 0 minutes
                self._end_step(run, job_id, now, ACCT_CANCELLED,
                               self.progress(run.site_id, start, now))
        run.finalized_at = now
        rows = {job_id: run.rows[job_id] for job_id, _ in run.bundle.members}
        run.artifacts = BundleArtifacts(
            accounting_text=AccountingRecord(run.bundle.bundle_id, rows).to_text(),
            sentinels={job_id: row[0] == ACCT_COMPLETED for job_id, row in rows.items()},
        )
        self.sim.record(now, EV_BUNDLE_END,
                        f"{run.bundle.bundle_id} {'killed' if killed else 'complete'}")
        self.sim.materialize(run)
        run.schedule = run.rows = run.graph = None
        if notify:
            self.sim.push(now, self.on_notify, run, EVENT_FINISHED)


class Simulation:
    """Single-threaded event loop tying dispatcher and simulated cluster.

    Virtual time advances through a heap of (minute, sequence, handler,
    args) entries; ties resolve by insertion order, so a run is a pure
    function of its inputs.  ``run()`` returns the simulation, which then
    holds the outcome beside its ``dispatcher``, ``sink`` and ``backend``.
    """

    def __init__(
        self,
        sites: list[ExecutionSite],
        workload: Sequence[JobSpec],
        policy: BundlePolicy,
        config: SimConfig,
        out_dir: str | Path | None = None,
    ):
        self.config = config
        # A ``Workload`` is checked already; any other sequence is checked here,
        # so every refusal comes before any bundle directory is written.
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.now = 0
        self.horizon_exhausted = False
        # Empty until a run ends; then one newline-terminated line per event, or "\n".
        self.event_log_text = ""
        # The event log: lines pending a join, and the chunks joined so far.
        self._pending: list[str] = []
        self._chunks: list[str] = []
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._arrivals_remaining = len(self.workload)
        runtimes = {spec.job_id: spec.true_runtime_minutes for spec in self.workload}
        refused = fault_error(config.faults, {s.site_id for s in sites}, runtimes)
        if refused is not None:
            raise ValueError(refused[1])
        self.registry = SiteRegistry(sites, policy, derive_rng(config.seed, "bind"))
        self.sink = CollectingSink()
        self.backend = SimCluster(self, config, runtimes)
        self.dispatcher = Dispatcher(self.registry, self.backend, self.sink,
                                     recorder=self.record)
        self.backend.deliver = self.dispatcher.on_event

    # -- event queue -----------------------------------------------------

    def push(self, time: int, handler: Callable[..., None], *args: object) -> None:
        """Schedule ``handler(*args, time)`` at virtual minute ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

    def record(self, now: int, kind: str, detail: str) -> None:
        pending = self._pending
        pending.append(f"{now:>8} {kind:<14} {detail}\n")
        if len(pending) == LOG_CHUNK_LINES:
            self._chunks.append("".join(pending))
            pending.clear()

    # -- artifact materialization ---------------------------------------

    def materialize(self, run: _BundleRun) -> None:
        # Each concluded step's output.txt is rendered from its accounting
        # row as it is written; a cancelled step has none.
        if self.out_dir is None:
            return
        bundle_dir = self.out_dir / run.bundle.bundle_id
        run.artifacts.write_to(bundle_dir)
        (bundle_dir / MAKEFILE_FILENAME).write_text(make_text(run.graph))
        for job_id, (word, elapsed, _) in run.rows.items():
            if word != ACCT_CANCELLED:
                (bundle_dir / job_id / "output.txt").write_text(
                    f"{job_id}: {word} after {elapsed} minutes\n")

    # -- main loop -------------------------------------------------------

    def run(self) -> Simulation:
        if self.event_log_text:
            raise ValueError("this simulation has already run")
        for spec in sorted(self.workload, key=lambda s: (s.arrival_minute, s.job_id)):
            self.push(spec.arrival_minute, self.on_arrival, spec)
        self.push(self.config.tick_minutes, self.on_tick)
        while self._heap:
            time, _, handler, args = heapq.heappop(self._heap)
            if time > self.config.horizon_minutes:
                self.horizon_exhausted = True
                break
            self.now = time
            handler(*args, time)
            if self._arrivals_remaining == 0 and self.dispatcher.all_terminal():
                break
        if self.horizon_exhausted and self.live_at_end:
            self.record(self.now, "HORIZON", f"stopped at {self.config.horizon_minutes} "
                                             f"with {self.live_at_end} live jobs")
        self._chunks.append("".join(self._pending))
        self.event_log_text = "".join(self._chunks) or "\n"
        self._pending, self._chunks = [], []
        return self

    @property
    def live_at_end(self) -> int:
        """Jobs not yet terminal, arrivals still to come included: all of them before a run."""
        return self.dispatcher.live_count() + self._arrivals_remaining

    @property
    def log(self) -> Iterator[str]:
        """The event lines without newlines, sliced lazily from the text.

        Every access starts a new pass, and no list of lines is built.
        """
        text = self.event_log_text
        start, end = 0, text.find("\n")
        while end > start:  # no line is empty, so a lone newline ends the pass
            yield text[start:end]
            start = end + 1
            end = text.find("\n", start)

    # -- loop events -----------------------------------------------------

    def on_arrival(self, spec: JobSpec, now: int) -> None:
        self._arrivals_remaining -= 1
        self.record(now, EV_ARRIVAL, spec.job_id)
        self.dispatcher.ingest(spec, now)

    def on_tick(self, now: int) -> None:
        self.dispatcher.monitor(now)
        self.dispatcher.flush(now)
        if self._arrivals_remaining or not self.dispatcher.all_terminal():
            self.push(now + self.config.tick_minutes, self.on_tick)
