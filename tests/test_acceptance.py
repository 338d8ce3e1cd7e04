"""Acceptance gate: one test per numbered criterion, one line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion; each test also prints a ``criterion NN: pass`` line with
the measured values (visible with ``-s`` or on failure).
"""

import random
import time

import pytest

from reference import OracleBin, core_usage_profile
from test_dispatcher import FakeBackend, artifacts_for

from hpcbundle.bundling import BundlePolicy, ExecutionSite, SiteRegistry
from hpcbundle.cli import main as cli_main
from hpcbundle.dispatcher import CollectingSink, Dispatcher, JobSpec, JobState
from hpcbundle.metrics import write_metrics_csv
from hpcbundle.packing import PackingBin, ResourceRect
from hpcbundle.simcluster import (
    FaultSpec,
    GLOBAL_STALL,
    NODE_FAULT,
    QueueWait,
    SimConfig,
    Simulation,
    derive_rng,
    schedule_steps,
)
from hpcbundle.stepgraph import beneath_relation, step_graph


def ok(number, detail):
    print(f"criterion {number:02d}: pass - {detail}")


def job_spec(job_id, cores, req, true, arrival=0):
    return JobSpec(job_id=job_id, test_id=f"T_{job_id}", model_id="M",
                   cores=cores, requested_minutes=req,
                   true_runtime_minutes=true, arrival_minute=arrival)


def test_criterion_01_worked_example_reconstruction():
    """Five-job layout: order, request, waste and runtime."""
    started = time.perf_counter()
    rects = {"A": (3, 40), "B": (3, 30), "C": (6, 30), "D": (2, 20), "E": (3, 25)}
    bin_ = PackingBin(6, 100)
    members = []
    for name in "ABCDE":
        cores, minutes = rects[name]
        placement = bin_.insert(ResourceRect(cores, minutes))
        assert placement is not None
        members.append((name, placement))

    graph = step_graph(members)
    assert set(graph.edges) == {("A", "C"), ("B", "C"), ("C", "D"), ("C", "E")}
    assert bin_.bounding() == (6, 95)
    # The five areas sum to 505 core-minutes inside the 6 x 95 bounding
    # request, leaving 65 unusable: waste 65/570.
    waste = bin_.waste_fraction()
    assert waste == pytest.approx(65 / 570, abs=1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"edges {sorted(graph.edges)}, request (6, 95), "
          f"waste {waste:.6f}, {elapsed:.3f}s")


def test_criterion_02_oracle_equivalence_1000_sequences():
    started = time.perf_counter()
    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(1000):
        width = rng.randint(1, 8)
        height = rng.randint(1, 60)
        bin_ = PackingBin(width, height)
        oracle = OracleBin(width, height)
        for _ in range(rng.randint(1, 8)):
            cores = rng.randint(1, 8)
            minutes = rng.randint(1, 60)
            placement = bin_.insert(ResourceRect(cores, minutes))
            expected = oracle.insert(cores, minutes)
            got = None if placement is None else (placement.x, placement.y)
            if got != expected:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0
    ok(2, f"1000 sequences, 0 mismatches, {elapsed:.2f}s")


def test_criterion_03_packing_validity_10000_inserts():
    rng = random.Random(3)
    inserts = 0
    overlap_violations = containment_violations = free_violations = 0
    while inserts < 10_000:
        width = rng.randint(2, 10)
        height = rng.randint(10, 120)
        bin_ = PackingBin(width, height)
        for _ in range(10):
            bin_.insert(ResourceRect(rng.randint(1, width), rng.randint(1, height)))
            inserts += 1
            rects = [
                (p.x, p.y, p.rect.cores, p.rect.minutes) for p in bin_.placements
            ]
            for i, (ax, ay, aw, ah) in enumerate(rects):
                if not (0 <= ax and ax + aw <= width and 0 <= ay and ay + ah <= height):
                    containment_violations += 1
                for bx, by, bw, bh in rects[i + 1:]:
                    if ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah:
                        overlap_violations += 1
            for free in bin_.free_list:
                inside = (0 <= free.x and free.x + free.width <= width
                          and 0 <= free.y and free.y + free.height <= height)
                if not inside:
                    free_violations += 1
                for px, py, pw, ph in rects:
                    if (free.x < px + pw and px < free.x + free.width
                            and free.y < py + ph and py < free.y + free.height):
                        free_violations += 1
    assert overlap_violations == 0
    assert containment_violations == 0
    assert free_violations == 0
    ok(3, f"{inserts} inserts, 0 overlap / 0 containment / 0 free-list violations")


def test_criterion_04_dependency_safety_1000_bundles():
    rng = random.Random(4)
    checked = 0
    for _ in range(1000):
        width = rng.randint(2, 8)
        bin_ = PackingBin(width, rng.randint(20, 200))
        members = []
        for n in range(rng.randint(2, 10)):
            rect = ResourceRect(rng.randint(1, width), rng.randint(1, 40))
            placement = bin_.insert(rect)
            if placement is not None:
                members.append((f"j{n}", placement))
        if not members:
            continue
        graph = step_graph(members)
        # Durations deliberately differ from the packed heights: the
        # ordering must protect core capacity for any runtimes.
        durations = {job_id: rng.randint(1, 60) for job_id, _ in members}
        schedule = schedule_steps(graph, durations)
        for below, above in beneath_relation(members):
            assert schedule[above][0] >= schedule[below][1]
        cores = {job_id: p.rect.cores for job_id, p in members}
        request_cores, _ = bin_.bounding()
        for _, level in core_usage_profile(schedule, cores):
            assert level <= request_cores
        checked += 1
    assert checked >= 1000 * 9 // 10
    ok(4, f"{checked} bundles, 0 precedence or core-capacity violations")


def _doubling_sim(sites):
    policy = BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=5)
    config = SimConfig(seed=0, grace_minutes=5, tick_minutes=10)
    return Simulation(sites, [job_spec("J", 3, 30, 250)], policy, config)


def test_criterion_05_timeout_doubling_with_rebind():
    sim = _doubling_sim(
        [ExecutionSite("S100", 8, 100), ExecutionSite("S300", 8, 300)]
    )
    report = sim.run()
    job = report.dispatcher.jobs["J"]
    assert job.state is JobState.COMPLETED
    assert job.timeout_count == 3
    assert job.doublings == 3
    # Match the kind column exactly: STEP_END details also say TIMEOUT.
    entries = [line.split(None, 2) for line in report.log]
    doublings = [(int(t), d) for t, k, d in entries if k == "TIMEOUT"]
    assert [d for _, d in doublings] == [
        "J wallclock 30 -> 60", "J wallclock 60 -> 120", "J wallclock 120 -> 240"
    ]
    rebinds = [(int(t), d) for t, k, d in entries if k == "REBIND"]
    assert [d for _, d in rebinds] == ["J S100 -> S300"]
    # The rebind happens at the 60 -> 120 doubling (125 no longer fits 100).
    assert rebinds[0][0] == doublings[1][0]
    assert job.attempts == 4
    [env] = report.sink.envelopes
    assert env.status == "completed"
    assert env.elapsed_minutes == 250
    ok(5, "requests 30->60->120->240, rebind at 60->120, "
          f"completed after 3 timeouts in {job.attempts} attempts")


def test_criterion_06_terminal_resource_error_and_conservation():
    sim = _doubling_sim([ExecutionSite("S100", 8, 100)])
    report = sim.run()
    job = report.dispatcher.jobs["J"]
    assert job.state is JobState.ERRORED
    assert job.error_kind == "resource-error"
    assert job.timeout_count <= 2
    assert report.dispatcher.conservation_ok()
    assert report.dispatcher.all_terminal()
    [env] = report.sink.envelopes
    assert env.status == "resource-error"
    ok(6, f"resource error after {job.timeout_count} timeouts, conservation holds")


def test_criterion_07_heartbeat_cancellation_and_recovery():
    policy = BundlePolicy(min_jobs=2, min_fill=0.5, flush_interval_minutes=50,
                          timeout_buffer_minutes=0, heartbeat_factor=2.0)
    config = SimConfig(
        seed=0, grace_minutes=0, tick_minutes=10,
        queue_waits={"S1": QueueWait("fixed", 20)},
        faults=(FaultSpec(GLOBAL_STALL, "S1", window=(35, 250)),),
    )
    sim = Simulation(
        [ExecutionSite("S1", 6, 100)],
        [job_spec("A", 3, 10, 10), job_spec("B", 3, 90, 85)],
        policy, config,
    )
    report = sim.run()
    cancels = [int(line[:8]) for line in report.log if " CANCEL " in line]
    assert len(cancels) == 1
    submitted_at, queue_wait, request = 0, 20, 90
    threshold_crossed = submitted_at + queue_wait + 2 * request
    assert threshold_crossed < cancels[0] <= threshold_crossed + config.tick_minutes
    jobs = report.dispatcher.jobs
    assert jobs["A"].state is JobState.COMPLETED
    assert jobs["A"].attempts == 1  # finished member is not re-run
    assert jobs["B"].state is JobState.COMPLETED
    assert jobs["B"].attempts == 2  # unfinished member resubmitted
    assert [e.job_id for e in report.sink.envelopes].count("A") == 1
    ok(7, f"one cancellation at minute {cancels[0]} "
          f"(threshold {threshold_crossed}, tick {config.tick_minutes}), "
          "unfinished member completed on resubmission")


def test_criterion_08_node_fault_single_resubmission():
    policy = BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=0)
    config = SimConfig(seed=0, grace_minutes=5,
                       faults=(FaultSpec(NODE_FAULT, "J", times=1),))
    sim = Simulation([ExecutionSite("S1", 6, 100)],
                     [job_spec("J", 3, 30, 20)], policy, config)
    report = sim.run()
    job = report.dispatcher.jobs["J"]
    assert job.state is JobState.COMPLETED
    assert job.attempts == 2  # exactly one resubmission
    assert job.requested_minutes == 30  # unchanged
    assert job.doublings == 0
    assert job.timeout_count == 0
    ok(8, "one resubmission, requested minutes unchanged, 0 doublings")


def test_criterion_09_site_deactivation_rebinds_or_errors():
    sites = [ExecutionSite("WIDE", 8, 300), ExecutionSite("NARROW", 4, 300)]
    registry = SiteRegistry(
        sites, BundlePolicy(min_jobs=100, min_fill=1.0), derive_rng(9, "bind")
    )
    backend = FakeBackend()
    dispatcher = Dispatcher(registry, backend, CollectingSink())
    rng = random.Random(9)
    for n in range(40):
        dispatcher.ingest(
            job_spec(f"j{n}", rng.randint(1, 8), rng.randint(10, 60), 10), now=0
        )
    wide_queue = list(registry.site("WIDE").queue)
    assert wide_queue, "scenario needs jobs bound to the deactivated site"
    dispatcher.set_site_active("WIDE", False, now=1)
    assert registry.site("WIDE").queue == []
    narrow = set(registry.site("NARROW").queue)
    for job_id in wide_queue:
        job = dispatcher.jobs[job_id]
        if job.cores <= 4:
            assert job_id in narrow and job.bound_site == "NARROW"
        else:
            assert job.state is JobState.ERRORED
            assert job.error_kind == "resource-error"
    assert dispatcher.conservation_ok()
    # The survivors still run to completion.  Each forced flush packs one
    # bundle per site, so keep flushing until the queues drain.
    now = 10_000
    for _ in range(50):
        if dispatcher.all_terminal():
            break
        dispatcher.flush(now=now)
        while backend.submissions:
            handle, bundle, _ = backend.submissions.pop()
            arts = artifacts_for(bundle, {j: "COMPLETED" for j in bundle.job_ids})
            dispatcher.on_event(handle, "FINISHED", now=now + 50, artifacts=arts)
        now += 1_000
    assert dispatcher.all_terminal()
    assert dispatcher.conservation_ok()
    rebound = sum(1 for j in dispatcher.jobs.values() if j.rebind_count)
    errored = sum(1 for j in dispatcher.jobs.values()
                  if j.state is JobState.ERRORED)
    ok(9, f"{len(wide_queue)} queued jobs: {rebound} rebound, {errored} errored, "
          "none lost")


def test_criterion_10_uniform_binding_frequencies():
    sites = [ExecutionSite("L", 8, 500), ExecutionSite("R", 8, 500)]
    registry = SiteRegistry(sites, BundlePolicy(), derive_rng(0, "bind"))
    counts = {"L": 0, "R": 0}
    probe = job_spec("probe", 4, 50, 50)
    for n in range(10_000):
        site = registry.bind(probe, f"p{n}")
        counts[site.site_id] += 1
    left = counts["L"] / 10_000
    assert 0.48 <= left <= 0.52
    assert 0.48 <= 1 - left <= 0.52
    ok(10, f"10000 bindings: L {left:.4f}, R {1 - left:.4f}")


SITES_FILE = """\
[sim]
grace_minutes = 5
tick_minutes = 10

[site one]
cores_per_node = 6
max_walltime_minutes = 400
queue_wait = uniform 0 30

[site two]
cores_per_node = 8
max_walltime_minutes = 200
queue_wait = uniform 5 15
"""


def test_criterion_11_byte_identical_event_logs(tmp_path):
    sites = tmp_path / "sites.txt"
    sites.write_text(SITES_FILE)
    rng = random.Random(11)
    rows = ["job_id,test_id,model_id,cores,requested_minutes,"
            "true_runtime_minutes,arrival_minute"]
    for n in range(30):
        req = rng.randint(10, 120)
        rows.append(f"j{n},T{n},M,{rng.randint(1, 6)},{req},"
                    f"{max(1, int(req * rng.uniform(0.3, 1.4)))},{n // 3}")
    workload = tmp_path / "jobs.csv"
    workload.write_text("\n".join(rows) + "\n")
    logs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main([
            "simulate", "--seed", "11", "--sites", str(sites),
            "--workload", str(workload),
            "--policy", "min_jobs=3,min_fill=0.3,flush=30",
            "--out", str(out),
        ])
        assert rc == 0
        logs.append((out / "events.log").read_bytes())
    assert logs[0] == logs[1]
    assert len(logs[0]) > 0
    ok(11, f"two runs, identical {len(logs[0])}-byte events.log")


def test_criterion_12_scale_10000_jobs_under_60s(tmp_path):
    rng = random.Random(12)
    workload = []
    for n in range(10_000):
        req = rng.randint(10, 180)
        draw = rng.random()
        if draw < 0.85:
            true = max(1, int(req * rng.uniform(0.2, 0.95)))
        elif draw < 0.97:
            true = int(req * rng.uniform(1.05, 1.9))
        else:
            true = int(req * rng.uniform(2.2, 5.0))
        workload.append(job_spec(f"j{n:05d}", rng.randint(1, 8), req, true,
                                 arrival=n // 10))
    sites = [
        ExecutionSite("alpha", 8, 240),
        ExecutionSite("beta", 16, 720),
        ExecutionSite("gamma", 4, 1440),
    ]
    policy = BundlePolicy(min_jobs=6, min_fill=0.4, flush_interval_minutes=30,
                          timeout_buffer_minutes=5)
    config = SimConfig(
        seed=12, grace_minutes=5, tick_minutes=10,
        queue_waits={s.site_id: QueueWait("uniform", 0, 30) for s in sites},
    )
    started = time.perf_counter()
    sim = Simulation(sites, workload, policy, config, out_dir=None)
    report = sim.run()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert report.dispatcher.all_terminal()
    assert report.dispatcher.conservation_ok()
    assert not report.horizon_exhausted
    completed = report.dispatcher.state_counts[JobState.COMPLETED]
    errored = report.dispatcher.state_counts[JobState.ERRORED]
    assert completed + errored == 10_000
    metrics_path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics_path, report.dispatcher)
    lines = metrics_path.read_text().splitlines()
    assert len(lines) == 1 + len(report.dispatcher.bundle_reports)
    ok(12, f"10000 jobs / 3 sites in {elapsed:.1f}s: {completed} completed, "
           f"{errored} errored, {len(lines) - 1} bundles in metrics.csv")
