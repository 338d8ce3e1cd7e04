"""Whole-run properties of the simulation over small random scenarios.

Each example draws sites, a workload, per-job faults, per-site stall
windows and queue waits, a bundling policy and a simulation config, runs
the simulation to the end and checks invariants that must hold for any
such input: terminal states, one result envelope per job, each job's
request its spec's doubled once per timeout, an event log that never
acts on a finished bundle or starts a step before its predecessors end,
placements inside each bundle's request, that request the bounding box
of the placements with their waste, each bundle's ``STEP_END`` words
tallying to its outcome counts, every notification delivered outside its
site's stall windows and swallowed inside one, and a replay that
reproduces the log byte for byte.  The same run checks that a job moves
to another site only when its own can no longer hold it.  The first
bundle's step and bundle ends follow the minute-stepped timeline of
``reference.py``, also when a cancel is scripted at a step's end, and so
do those of every bundle whose members carry no node fault.  Four
metamorphic properties follow: a site that fits no job changes no output
byte, a fixed queue wait drawn as a one-value uniform wait changes no
output byte, renaming the job ids in an order-preserving way only renames
them in the outputs, and shuffling the workload rows changes no output byte.
Last, a whole `simulate` run writes the same bytes under any
``PYTHONHASHSEED``.
"""

import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import hpcbundle
from reference import bundle_timeline, stall_suppressed
from hpcbundle.bundling import BundlePolicy, ExecutionSite
from hpcbundle.dispatcher import (
    ACCT_FAILED,
    OUTCOME_NODE_FAULT,
    OUTCOMES,
    TERMINAL_STATES,
    JobSpec,
    JobState,
)
from hpcbundle.metrics import jobs_csv_text, metrics_csv_text
from hpcbundle.packing import bounding_request, waste_fraction
from hpcbundle.simcluster import (
    EV_BUNDLE_END,
    EV_BUNDLE_START,
    EV_STEP_END,
    EV_STEP_START,
    GLOBAL_STALL,
    NODE_FAULT,
    STEP_OVERRUN,
    FaultSpec,
    QueueWait,
    SimConfig,
    Simulation,
)
from hpcbundle.stepgraph import step_graph
from test_golden import GOLDEN, OUTPUTS

_RUN_KINDS = {EV_BUNDLE_START, EV_STEP_START, EV_STEP_END}


@st.composite
def stall_windows(draw):
    """Up to two windows on one site, in order; consecutive ones may touch."""
    windows, end = [], 0
    for _ in range(draw(st.integers(0, 2))):
        start = end + draw(st.integers(0, 120))
        end = start + draw(st.integers(1, 90))
        windows.append((start, end))
    return windows


queue_waits = st.one_of(
    st.none(),
    st.builds(lambda n: QueueWait("fixed", n), st.integers(0, 60)),
    st.builds(lambda lo, span: QueueWait("uniform", lo, lo + span),
              st.integers(0, 30), st.integers(0, 60)),
)


@st.composite
def scenarios(draw):
    """Plain values from which `build` makes a fresh simulation."""
    sites = [
        (f"S{i}", draw(st.integers(1, 12)), draw(st.integers(20, 400)),
         draw(st.sampled_from([True, True, True, False])),
         draw(queue_waits), draw(stall_windows()))
        for i in range(draw(st.integers(1, 3)))
    ]
    jobs = [
        (f"J{n:02d}", draw(st.integers(1, 12)), draw(st.integers(1, 120)),
         draw(st.integers(1, 300)), draw(st.integers(0, 300)),
         draw(st.one_of(st.none(), st.integers(1, 8))),
         draw(st.one_of(st.none(), st.integers(1, 3))))
        for n in range(draw(st.integers(1, 16)))
    ]
    policy = BundlePolicy(
        min_jobs=draw(st.integers(1, 6)),
        min_fill=draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])),
        flush_interval_minutes=draw(st.integers(1, 120)),
        timeout_buffer_minutes=draw(st.integers(0, 10)),
        heartbeat_factor=draw(st.sampled_from([1.5, 2.0, 3.0])),
    )
    config = (draw(st.integers(0, 2**16)), draw(st.integers(0, 10)), draw(st.integers(1, 30)))
    return sites, jobs, policy, config


def build(scenario, horizon_minutes: int = 1_000_000) -> Simulation:
    sites, jobs, policy, (seed, grace, tick) = scenario
    faults = []
    for job_id, *_, overrun, node_fault in jobs:
        if overrun is not None:
            faults.append(FaultSpec(STEP_OVERRUN, job_id, multiplier=overrun))
        if node_fault is not None:
            faults.append(FaultSpec(NODE_FAULT, job_id, times=node_fault))
    for site_id, *_, windows in sites:
        faults += [FaultSpec(GLOBAL_STALL, site_id, window=w) for w in windows]
    config = SimConfig(
        seed=seed, grace_minutes=grace, tick_minutes=tick, horizon_minutes=horizon_minutes,
        queue_waits={site_id: wait for site_id, _, _, _, wait, _ in sites if wait},
        faults=tuple(faults),
    )
    return Simulation(
        [ExecutionSite(site_id, cores, minutes, active=active)
         for site_id, cores, minutes, active, _, _ in sites],
        [JobSpec(job_id, "t", "m", cores, req, true, arrival)
         for job_id, cores, req, true, arrival, _, _ in jobs],
        policy,
        config,
    )


def check_log(report) -> None:
    """No run event after a bundle's end; no step starts before its predecessors end."""
    graphs = {b.bundle_id: step_graph(b.members) for b in report.dispatcher.bundle_reports}
    ended_bundles: set[str] = set()
    ended_steps: set[tuple[str, str]] = set()
    for line in report.log:
        _, kind, detail = line.split(None, 2)
        if kind in _RUN_KINDS:
            bundle_id, _, job_id = detail.split()[0].partition("/")
            assert bundle_id not in ended_bundles, f"{line!r} after {bundle_id} ended"
            if kind == EV_STEP_START:
                for pre in graphs[bundle_id].predecessors(job_id):
                    assert (bundle_id, pre) in ended_steps, f"{line!r} before {pre} ended"
            elif kind == EV_STEP_END:
                ended_steps.add((bundle_id, job_id))
        elif kind == EV_BUNDLE_END:
            ended_bundles.add(detail.split()[0])


def check_placements(report) -> None:
    for bundle in report.dispatcher.bundle_reports:
        placements = [p for _, p in bundle.members]
        for p in placements:
            assert 0 <= p.left and p.right <= bundle.request_cores
            assert 0 <= p.bottom and p.top <= bundle.request_minutes
        for i, a in enumerate(placements):
            assert not any(a.overlaps(b) for b in placements[i + 1:])
        assert (bundle.request_cores, bundle.request_minutes) == bounding_request(placements)
        assert bundle.waste_fraction() == waste_fraction(placements)


def check_step_ends(report) -> None:
    """Each bundle's STEP_END words tally to its outcome counts.

    The simulator writes FAILED only for a step whose sentinel a NODE_FAULT
    suppressed, which the dispatcher reads as NODE_FAULT.
    """
    tallies = {b.bundle_id: dict.fromkeys(OUTCOMES, 0) for b in report.dispatcher.bundle_reports}
    for line in report.log:
        _, kind, detail = line.split(None, 2)
        if kind == EV_STEP_END:
            step, word, _, _ = detail.split()
            outcome = OUTCOME_NODE_FAULT if word == ACCT_FAILED else word
            tallies[step.partition("/")[0]][outcome] += 1
    for bundle in report.dispatcher.bundle_reports:
        assert tuple(tallies[bundle.bundle_id].values()) == bundle.outcome_counts, bundle.bundle_id


def check_notifications(report, scenario) -> None:
    """A bundle's notification is delivered (``NOTIFY``) at a minute outside its
    site's stall windows and swallowed (``SUPPRESSED``) at a minute inside one."""
    stalls = {site_id: windows for site_id, *_, windows in scenario[0]}
    site_of = {b.bundle_id: b.site_id for b in report.dispatcher.bundle_reports}
    for line in report.log:
        minute, kind, detail = line.split(None, 2)
        if kind in ("NOTIFY", "SUPPRESSED"):
            stalled = stall_suppressed(stalls[site_of[detail.split()[0]]], int(minute))
            assert stalled == (kind == "SUPPRESSED"), line


def check_sites(report, scenario) -> None:
    """A job waits at its site until its request plus the buffer outgrows it.

    Replaying each job's ``BIND``, ``TIMEOUT`` and ``REBIND`` lines: a
    ``REBIND X -> Y`` moves a job only when X no longer holds its request and
    Y holds it, a ``SUBMIT`` runs each member at its own site, which holds it,
    and a ``resource-error`` comes only when no site does.  No random run
    switches a site off, so a site takes a job while it is active and holds it.
    """
    sites, jobs, policy, _ = scenario
    shapes = {site_id: (cores, minutes, active) for site_id, cores, minutes, active, *_ in sites}
    cores_of = {job_id: cores for job_id, cores, *_ in jobs}
    request = {job_id: req for job_id, _, req, *_ in jobs}
    at: dict[str, str] = {}

    def holds(site_id: str, job_id: str) -> bool:
        cores, minutes, active = shapes[site_id]
        return (active and cores_of[job_id] <= cores
                and request[job_id] + policy.timeout_buffer_minutes <= minutes)

    for line in report.log:
        _, kind, detail = line.split(None, 2)
        words = detail.split()
        if kind == "BIND":  # J -> S
            at[words[0]] = words[2]
        elif kind == "TIMEOUT":  # J wallclock a -> b
            assert int(words[2]) == request[words[0]], line
            request[words[0]] = int(words[4])
        elif kind == "REBIND":  # J X -> Y
            job_id, old, _, new = words
            assert old == at[job_id] != new, line
            assert not holds(old, job_id) and holds(new, job_id), line
            at[job_id] = new
        elif kind == "SUBMIT":  # B -> S as h request Cc x Mm jobs J,K
            for job_id in words[-1].split(","):
                assert at[job_id] == words[2] and holds(words[2], job_id), line
        elif kind == "ERROR" and words[1] == "resource-error:":
            assert not any(holds(site_id, words[0]) for site_id in shapes), line


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_whole_run_properties(scenario):
    report = build(scenario).run()
    dispatcher = report.dispatcher

    assert not report.horizon_exhausted
    assert all(job.state in TERMINAL_STATES for job in dispatcher.jobs.values())
    assert dispatcher.all_terminal() and report.live_at_end == 0
    assert dispatcher.conservation_ok()
    counts = dispatcher.state_counts  # no negative count, and equal to a recount
    assert min(counts.values()) >= 0
    assert +counts == Counter(job.state for job in dispatcher.jobs.values())

    envelopes = {e.job_id: e for e in report.sink.envelopes}
    assert sorted(e.job_id for e in report.sink.envelopes) == sorted(dispatcher.jobs)
    requests = {job_id: req for job_id, _, req, *_ in scenario[1]}
    for job_id, job in dispatcher.jobs.items():
        expected = "completed" if job.state is JobState.COMPLETED else job.error_kind
        assert envelopes[job_id].status == expected
        assert job.requested_minutes == requests[job_id] * 2 ** job.timeout_count
        assert job.doublings == job.timeout_count

    # The loop stops at the event that ends the last job: no no-op entry after it
    # moves the clock, and that event writes the log's last line.
    assert report.now == max(job.terminal_at for job in dispatcher.jobs.values())
    *_, last = report.log
    assert int(last.split(None, 1)[0]) == report.now
    handles = [line.split()[6] for line in report.log if line.split()[1] == "SUBMIT"]
    assert handles == [f"sim-{n:05d}" for n in range(1, len(report.backend.runs) + 1)]

    check_log(report)
    check_placements(report)
    check_step_ends(report)
    check_notifications(report, scenario)
    check_sites(report, scenario)
    assert build(scenario).run().event_log_text == report.event_log_text


def bundle_timelines(report, scenario):
    """For each submitted bundle, in order: its ``STEP_END`` outcomes and
    ``BUNDLE_END``, its first ``CANCEL`` minute, and the ``reference.bundle_timeline``
    arguments for it, which take every job's node fault as still to come."""
    sites, jobs, _, (_, grace, _) = scenario
    steps: dict[str, dict[str, tuple[int, str, int]]] = {}
    ends: dict[str, tuple[int, str]] = {}
    first: dict[tuple[str, str], int] = {}  # the first SUBMIT and CANCEL minutes of each bundle
    for line in report.log:
        minute, kind, detail = line.split(None, 2)
        name, *rest = detail.split()
        if kind == EV_STEP_END:
            bundle_id, _, job_id = name.partition("/")
            steps.setdefault(bundle_id, {})[job_id] = (int(minute), rest[0], int(rest[2]))
        elif kind == EV_BUNDLE_END:
            ends[name] = (int(minute), rest[0])
        elif kind in ("SUBMIT", "CANCEL"):
            first.setdefault((kind, name), int(minute))
    windows = {site_id: w for site_id, *_, w in sites}
    true = {job_id: t * (overrun or 1) for job_id, _, _, t, _, overrun, _ in jobs}
    faulted = {job_id for job_id, *_, node_fault in jobs if node_fault}
    for run in report.backend.runs.values():
        bundle_id = run.bundle.bundle_id
        args = (run.bundle.members, run.bundle.request_minutes, first["SUBMIT", bundle_id],
                run.wait, windows[run.site_id], grace, true, faulted)
        cancel = first.get(("CANCEL", bundle_id))
        yield steps.get(bundle_id, {}), ends.get(bundle_id), cancel, args


def first_bundle(report, scenario):
    """``bundle_timelines`` for the first bundle, which no earlier bundle's node fault touched."""
    return next(bundle_timelines(report, scenario))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_first_bundle_follows_the_minute_stepped_timeline(scenario):
    """The first bundle's STEP_END minutes, words and elapsed minutes, and its
    BUNDLE_END minute and kind, are those of ``reference.bundle_timeline``."""
    report = build(scenario).run()
    assume(report.backend.runs)
    steps, end, cancel, args = first_bundle(report, scenario)
    # A cancel at the very minute the last step ends leaves the kind to the order
    # of the two same-minute events, which the reference does not model.
    assume(bundle_timeline(*args)[1] != (cancel, "complete"))
    assert (steps, end) == bundle_timeline(*args, cancel_at=cancel)


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_every_bundle_clear_of_node_faults_follows_the_minute_stepped_timeline(scenario):
    """Every bundle none of whose members has a NODE_FAULT follows
    ``reference.bundle_timeline`` from its own SUBMIT minute, queue wait, site
    windows and first CANCEL, as the first bundle does."""
    report = build(scenario).run()
    faulted = {job_id for job_id, *_, node_fault in scenario[1] if node_fault}
    for steps, end, cancel, args in bundle_timelines(report, scenario):
        if faulted.intersection(job_id for job_id, _ in args[0]):
            continue  # how many of its faults are left depends on earlier bundles
        # As for the first bundle: a cancel at the minute the last step ends is left out.
        if bundle_timeline(*args)[1] != (cancel, "complete"):
            assert (steps, end) == bundle_timeline(*args, cancel_at=cancel)


def arriving_together(scenario):
    """The scenario with every job arriving at minute 0 and a bundle forming
    only at a flush, so that the first bundle often holds several steps."""
    sites, jobs, policy, config = scenario
    jobs = [(job_id, cores, req, true, 0, *faults) for job_id, cores, req, true, _, *faults in jobs]
    return sites, jobs, replace(policy, min_jobs=len(jobs) + 1, min_fill=1.0), config


@settings(max_examples=40, deadline=None)
@given(scenarios().map(arriving_together), st.data())
def test_a_cancel_at_a_step_end_minute_keeps_that_step_verdict(scenario, data):
    """A cancel scripted at a minute where a step of the first bundle ends
    finds that step due at the kill minute: it keeps its own verdict, and the
    bundle ends as ``reference.bundle_timeline`` cancelled at that minute."""
    report = build(scenario).run()
    assume(report.backend.runs)
    _, _, cancel, args = first_bundle(report, scenario)
    ends, (last, _) = bundle_timeline(*args)
    # Before the bundle ends and before any heartbeat cancel, both runs are the same.
    minutes = sorted({m for m, _, _ in ends.values() if m < last and (cancel is None or m <= cancel)})
    assume(minutes)
    minute = data.draw(st.sampled_from(minutes))
    # The scripted cancel leaves the dispatcher's bundle in flight, so its
    # jobs never end: the run stops at a horizon a few ticks later.
    sim = build(scenario, horizon_minutes=minute + 3 * scenario[3][2])
    # Pushed before the run, the cancel precedes the step's own end event at that minute.
    sim.push(minute, lambda now: sim.backend.cancel("sim-00001"))
    steps, end, _, _ = first_bundle(sim.run(), scenario)
    assert (steps, end) == bundle_timeline(*args, cancel_at=minute)


def output_texts(report) -> tuple[str, str, str]:
    """events.log, metrics.csv and jobs.csv, as `hpcbundle simulate` writes them."""
    return (report.event_log_text, metrics_csv_text(report.dispatcher),
            jobs_csv_text(report.dispatcher))


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.data())
def test_a_site_no_job_fits_changes_no_output_byte(scenario, data):
    sites, jobs, policy, config = scenario
    # Too short for every job's first request plus the buffer, so for every
    # doubled request too: no job can ever bind there.
    walltime = min(req for _, _, req, *_ in jobs) + policy.timeout_buffer_minutes - 1
    assume(walltime >= 1)
    extra = ("SX", data.draw(st.integers(1, 12)), walltime,
             data.draw(st.booleans()), data.draw(queue_waits), data.draw(stall_windows()))
    position = data.draw(st.integers(0, len(sites)))
    wider = [*sites[:position], extra, *sites[position:]]
    before = output_texts(build(scenario).run())
    assert output_texts(build((wider, jobs, policy, config)).run()) == before


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.data())
def test_a_fixed_wait_drawn_as_uniform_changes_no_output_byte(scenario, data):
    sites, jobs, policy, config = scenario
    fixed = [i for i, (*_, wait, _) in enumerate(sites) if wait and wait.kind == "fixed"]
    assume(fixed)
    i = data.draw(st.sampled_from(fixed))
    site_id, cores, minutes, active, wait, windows = sites[i]
    # `uniform(n, n)` draws from the site's own wait stream yet always waits n.
    uniform = (site_id, cores, minutes, active, QueueWait("uniform", wait.low, wait.low), windows)
    drawn = [*sites[:i], uniform, *sites[i + 1:]]
    before = output_texts(build(scenario).run())
    assert output_texts(build((drawn, jobs, policy, config)).run()) == before


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.from_regex(r"[a-z]{0,3}", fullmatch=True),
       st.from_regex(r"[a-z]{0,2}", fullmatch=True))
def test_renaming_job_ids_in_order_only_renames_them_in_the_outputs(scenario, prefix, suffix):
    sites, jobs, policy, config = scenario

    def rename(job_id: str) -> str:
        # `JNN` -> `<prefix>NN<suffix>`: the fixed-width number keeps the order.
        return f"{prefix}{job_id[1:]}{suffix}"

    # The workload and the fault targets (built from the same ids) are renamed.
    renamed = [(rename(job_id), *rest) for job_id, *rest in jobs]
    ids = [job_id for job_id, *_ in jobs]
    assert sorted(map(rename, ids)) == [rename(job_id) for job_id in sorted(ids)]
    expected = tuple(re.sub(r"\bJ\d{2}\b", lambda m: rename(m.group()), text)
                     for text in output_texts(build(scenario).run()))
    assert output_texts(build((sites, renamed, policy, config)).run()) == expected


@settings(max_examples=50, deadline=None)
@given(scenarios(), st.data())
def test_shuffling_the_workload_rows_changes_no_output_byte(scenario, data):
    # Arrivals run in (arrival_minute, job_id) order, whatever the row order.
    sites, jobs, policy, config = scenario
    shuffled = data.draw(st.permutations(jobs))
    before = output_texts(build(scenario).run())
    assert output_texts(build((sites, shuffled, policy, config)).run()) == before


def test_outputs_do_not_depend_on_string_hashing(tmp_path):
    """`simulate` on the golden faults case writes the same bytes under two hash seeds."""
    make_inputs, seed, policy, _ = GOLDEN["faults"]
    sites_text, workload_text = make_inputs()
    (tmp_path / "sites.txt").write_text(sites_text)
    (tmp_path / "workload.csv").write_text(workload_text)
    src = str(Path(hpcbundle.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hpcbundle.cli", "simulate", "--seed", str(seed),
             "--sites", str(tmp_path / "sites.txt"), "--workload", str(tmp_path / "workload.csv"),
             "--policy", policy, "--out", str(out)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in OUTPUTS])
    assert outputs[0] == outputs[1]
