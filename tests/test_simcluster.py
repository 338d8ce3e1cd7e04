"""Simulated cluster backend: virtual time, faults, and recovery loops."""

import copy
import gc
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hpcbundle import simcluster
from hpcbundle.bundling import BundlePolicy, ExecutionSite
from hpcbundle.dispatcher import JobSpec, JobState
from hpcbundle.simcluster import (
    EXIT_CODES,
    GLOBAL_STALL,
    NODE_FAULT,
    STEP_OVERRUN,
    FaultSpec,
    QueueWait,
    SimConfig,
    Simulation,
    SimCluster,
    Workload,
    derive_rng,
    schedule_steps,
)
from hpcbundle.dispatcher import AccountingRecord, BundleArtifacts
from hpcbundle.metrics import jobs_csv_text, metrics_csv_text
from hpcbundle.stepgraph import StepGraph
from hpcbundle.workload import parse_policy, parse_sites_text, parse_workload_text

from reference import stall_advance, stall_progress, stall_suppressed
from test_golden import GOLDEN
from test_tracer_contract import load_bench_module


def job(job_id, cores=3, req=30, true=20, arrival=0):
    return JobSpec(
        job_id=job_id, test_id=f"T_{job_id}", model_id="M",
        cores=cores, requested_minutes=req,
        true_runtime_minutes=true, arrival_minute=arrival,
    )


def sim(jobs, sites=None, policy=None, out_dir=None, **config_kwargs):
    sites = sites or [ExecutionSite("S1", 6, 1000)]
    policy = policy or BundlePolicy(
        min_jobs=1, min_fill=0.0, timeout_buffer_minutes=0
    )
    config = SimConfig(**config_kwargs)
    return Simulation(sites, jobs, policy, config, out_dir=out_dir)


def artifacts_on_disk(report, out_dir, handle):
    """A finished run's artifacts, read back from the tree it wrote under ``out_dir``."""
    return BundleArtifacts.from_dir(out_dir / report.backend.runs[handle].bundle.bundle_id)


def log_times(report, kind):
    """All event minutes for a given record kind."""
    out = []
    for line in report.log:
        if line[9:].startswith(kind) and line[9 + len(kind):][:1] in ("", " "):
            out.append(int(line[:8]))
    return out


class TestDerivedStreams:
    def test_stable_across_instances(self):
        a = [derive_rng(7, "bind").random() for _ in range(3)]
        b = [derive_rng(7, "bind").random() for _ in range(3)]
        assert a == b

    def test_labels_are_independent(self):
        assert derive_rng(7, "bind").random() != derive_rng(7, "wait:S1").random()
        assert derive_rng(7, "bind").random() != derive_rng(8, "bind").random()


class TestQueueWait:
    def test_fixed_ignores_rng(self):
        assert QueueWait("fixed", 12).sample(derive_rng(0, "x")) == 12

    def test_uniform_within_bounds_inclusive(self):
        rng = derive_rng(0, "x")
        wait = QueueWait("uniform", 5, 8)
        seen = {wait.sample(rng) for _ in range(200)}
        assert seen == {5, 6, 7, 8}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "gaussian"},
            {"kind": "fixed", "low": -1},
            {"kind": "uniform", "low": 5, "high": 4},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueueWait(**kwargs)


class TestFaultValidation:
    def test_kind_specific_checks(self):
        with pytest.raises(ValueError):
            FaultSpec("EARTHQUAKE", "x")
        with pytest.raises(ValueError):
            FaultSpec(STEP_OVERRUN, "j", multiplier=0)
        with pytest.raises(ValueError):
            FaultSpec(NODE_FAULT, "j", times=0)
        with pytest.raises(ValueError):
            FaultSpec(GLOBAL_STALL, "S1", window=(50, 50))

    def test_unknown_targets_rejected_at_build(self):
        with pytest.raises(ValueError, match="ghost"):
            sim([job("a")], faults=(FaultSpec(NODE_FAULT, "ghost"),))
        with pytest.raises(ValueError, match="S9"):
            sim([job("a")], faults=(FaultSpec(GLOBAL_STALL, "S9", window=(0, 9)),))

    @pytest.mark.parametrize("late, message", [
        *(pytest.param(job(bad_id, arrival=500), "may use only letters", id=bad_id)
          for bad_id in ["../x", "all", "GNUmakefile", "makefile", "Makefile", "accounting.txt"]),
        pytest.param(job("a", arrival=500), "duplicate job_id 'a'", id="duplicate"),
        pytest.param(job("c", cores=0, arrival=500), "cores and minutes must be positive",
                     id="no-cores"),
        pytest.param(job("c", req=0, arrival=500), "cores and minutes must be positive",
                     id="no-minutes"),
    ])
    def test_bad_job_id_rejected_before_anything_runs(self, tmp_path, late, message):
        # The bad job arrives last, after bundles of the others would have run.
        jobs = [job("a"), job("b", arrival=100), late]
        with pytest.raises(ValueError, match=message):
            sim(jobs, out_dir=tmp_path / "out").run()
        assert not (tmp_path / "out").exists()

    # The parser refuses these two columns; a library caller's specs get the
    # same refusal, before any bundle directory is written.
    @pytest.mark.parametrize("bad, message", [
        pytest.param(job("c", true=0, arrival=500), "job 'c': true runtime must be positive",
                     id="no-true-runtime"),
        pytest.param(job("c", arrival=-50), "job 'c': arrival_minute must be non-negative",
                     id="negative-arrival"),
    ])
    def test_run_only_columns_rejected_before_anything_runs(self, tmp_path, bad, message):
        with pytest.raises(ValueError, match=message):
            sim([job("a"), job("b", arrival=100), bad], out_dir=tmp_path / "out").run()
        assert not (tmp_path / "out").exists()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(grace_minutes=-1)
        with pytest.raises(ValueError):
            SimConfig(tick_minutes=0)

    @pytest.mark.parametrize("faults, message", [
        pytest.param((FaultSpec(STEP_OVERRUN, "a", multiplier=2),
                      FaultSpec(STEP_OVERRUN, "a", multiplier=3)),
                     "repeated STEP_OVERRUN for 'a', first at faults[0]", id="overrun"),
        pytest.param((FaultSpec(NODE_FAULT, "a"), FaultSpec(STEP_OVERRUN, "a", multiplier=2),
                      FaultSpec(NODE_FAULT, "a", times=2)),
                     "repeated NODE_FAULT for 'a', first at faults[0]", id="node-fault"),
        pytest.param((FaultSpec(GLOBAL_STALL, "S1", window=(0, 100)),
                      FaultSpec(GLOBAL_STALL, "S1", window=(100, 200)),
                      FaultSpec(GLOBAL_STALL, "S1", window=(20, 30))),
                     "GLOBAL_STALL window on 'S1' overlaps the one at faults[0]", id="stall"),
    ])
    def test_conflicting_faults_rejected_before_anything_runs(self, tmp_path, faults, message):
        # Refused before any bundle directory is written.
        with pytest.raises(ValueError) as excinfo:
            sim([job("a")], faults=faults, out_dir=tmp_path / "out")
        assert str(excinfo.value) == message
        assert not (tmp_path / "out").exists()

    def test_touching_stall_windows_and_one_fault_of_each_kind_accepted(self):
        faults = (FaultSpec(GLOBAL_STALL, "S1", window=(10, 20)),
                  FaultSpec(GLOBAL_STALL, "S1", window=(0, 10)),
                  FaultSpec(STEP_OVERRUN, "a", multiplier=2), FaultSpec(NODE_FAULT, "a"))
        report = sim([job("a", req=30, true=10)], faults=faults).run()
        assert report.backend.stall_windows == {"S1": [(0, 10), (10, 20)]}
        assert report.dispatcher.all_terminal()


def faults_io_inputs(n_jobs: int = 300, seed: int = 1):
    """A small ``faults_io`` benchmark scenario: sites, faults and a workload."""
    inputs = load_bench_module("workloads").faults_io(seed, n_jobs=n_jobs)
    return parse_sites_text(inputs.sites_text), inputs.workload_text, inputs.policy_text


class TestWorkload:
    """A parsed workload is checked once; ``Simulation`` keeps it as given."""

    def test_an_immutable_tuple_of_specs(self):
        workload = Workload([job("a"), job("b")])
        assert isinstance(workload, tuple) and workload == (job("a"), job("b"))
        assert Workload() == ()
        with pytest.raises(AttributeError):
            workload.note = "x"

    def test_simulation_keeps_a_workload_and_checks_no_job_again(self, monkeypatch):
        contents, text, _ = faults_io_inputs(n_jobs=50)
        parsed = parse_workload_text(text)
        assert type(parsed) is Workload

        def refuse(spec, known):
            raise AssertionError(f"{spec.job_id} checked twice")

        monkeypatch.setattr(simcluster, "run_job_error", refuse)
        simulation = Simulation(contents.sites, parsed, BundlePolicy(),
                                contents.build_config(seed=1))
        assert simulation.workload is parsed

    def test_a_plain_list_is_checked_into_a_workload(self):
        simulation = sim([job("a"), job("b")])
        assert type(simulation.workload) is Workload
        assert simulation.workload == (job("a"), job("b"))

    def test_parsed_and_plain_list_give_the_same_bytes(self):
        # faults_io carries STEP_OVERRUN faults, which the cluster applies to
        # the runtimes it builds from either form.
        contents, text, policy_text = faults_io_inputs()
        parsed = parse_workload_text(text)
        outputs = []
        for workload in (parsed, list(parsed)):
            report = Simulation(contents.sites, workload, parse_policy(policy_text),
                                contents.build_config(seed=1)).run()
            outputs.append((report.event_log_text, metrics_csv_text(report.dispatcher),
                            jobs_csv_text(report.dispatcher)))
        assert any(f.kind == STEP_OVERRUN for f in contents.faults)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("extra, message", [
        pytest.param(job("j00000"), "duplicate job_id 'j00000'", id="repeated"),
        pytest.param(job("x", cores=0), "job 'x': cores and minutes must be positive",
                     id="no-cores"),
        pytest.param(job("x", true=0), "job 'x': true runtime must be positive",
                     id="no-true-runtime"),
        pytest.param(job("../x"), "job_id '../x' may use only letters", id="bad-id"),
    ])
    def test_a_list_grown_from_a_parsed_workload_is_checked(self, tmp_path, extra, message):
        contents, text, policy_text = faults_io_inputs(n_jobs=20)
        jobs = [*parse_workload_text(text), extra]
        with pytest.raises(ValueError) as refused:
            Simulation(contents.sites, jobs, parse_policy(policy_text),
                       contents.build_config(seed=1), out_dir=tmp_path / "out")
        assert str(refused.value).startswith(message)
        assert not (tmp_path / "out").exists()


class TestScheduleSteps:
    def test_diamond_causality(self):
        graph = StepGraph(
            nodes=("A", "B", "C", "D", "E"),
            edges=frozenset({("A", "C"), ("B", "C"), ("C", "D"), ("C", "E")}),
        )
        durations = {"A": 40, "B": 30, "C": 30, "D": 20, "E": 25}
        times = schedule_steps(graph, durations)
        assert times["A"] == (0, 40)
        assert times["B"] == (0, 30)
        assert times["C"] == (40, 70)  # waits for the later prerequisite
        assert times["D"] == (70, 90)
        assert times["E"] == (70, 95)

    def test_steps_enter_in_post_order(self):
        # on_bundle_start pushes step events in the order of the returned
        # dict: depth-first from each node in graph.nodes order, sorted
        # predecessors first.
        graph = StepGraph(
            nodes=("A", "B", "C", "D"),
            edges=frozenset({("C", "A"), ("B", "A"), ("D", "B")}),
        )
        times = schedule_steps(graph, {"A": 1, "B": 2, "C": 3, "D": 4})
        assert list(times) == ["D", "B", "C", "A"]
        assert times["A"] == (6, 7)

    def test_tall_stack_runs_to_completion(self):
        # 420 one-core jobs stack into one column of a 1-core site; ids
        # run against arrival order, so the first node in sorted order is
        # the top of a 420-deep chain of predecessors.
        n = 420
        jobs = [job(f"j{n - k:04d}", cores=1, req=1, true=1, arrival=k) for k in range(n)]
        report = sim(
            jobs,
            sites=[ExecutionSite("thin", 1, 2880)],
            policy=BundlePolicy(min_jobs=n, min_fill=1.0),
        ).run()
        [bundle] = report.dispatcher.bundle_reports
        assert bundle.n_jobs == n
        states = [record.state for record in report.dispatcher.jobs.values()]
        assert states == [JobState.COMPLETED] * n
        # Each step waits for the one beneath it: one minute per level.
        assert log_times(report, "STEP_END")[-1] - log_times(report, "BUNDLE_START")[0] == n

    def test_stack_above_the_recursion_limit_runs_to_completion(self):
        # The same column, deeper than the interpreter's default recursion
        # limit, so a recursive walk of the predecessor chain fails here
        # even at one frame per level, which the 420-deep stack allows.
        n = 1_200
        assert n > sys.getrecursionlimit()
        jobs = [job(f"j{n - k:04d}", cores=1, req=1, true=1, arrival=k) for k in range(n)]
        report = sim(
            jobs,
            sites=[ExecutionSite("thin", 1, n)],
            policy=BundlePolicy(min_jobs=n, min_fill=1.0, timeout_buffer_minutes=0),
        ).run()
        [bundle] = report.dispatcher.bundle_reports
        assert bundle.n_jobs == n
        states = [record.state for record in report.dispatcher.jobs.values()]
        assert states == [JobState.COMPLETED] * n


class TestStallArithmetic:
    def backend(self, windows):
        faults = tuple(FaultSpec(GLOBAL_STALL, "S1", window=w) for w in windows)
        return sim([job("a")], faults=faults).backend

    def test_advance_skips_window(self):
        cluster = self.backend([(50, 80)])
        assert cluster.advance("S1", 0, 20) == 20
        assert cluster.advance("S1", 0, 50) == 50  # done exactly at freeze
        assert cluster.advance("S1", 0, 51) == 81
        assert cluster.advance("S1", 60, 0) == 80  # initiated inside: waits
        assert cluster.advance("S1", 60, 5) == 85
        assert cluster.advance("S1", 90, 7) == 97

    def test_advance_multiple_windows(self):
        cluster = self.backend([(10, 20), (30, 40)])
        assert cluster.advance("S1", 0, 25) == 45  # 10 + 10 skip + 10 + 10 skip + 5

    def test_progress_subtracts_overlap(self):
        cluster = self.backend([(50, 80)])
        assert cluster.progress("S1", 0, 100) == 70
        assert cluster.progress("S1", 60, 70) == 0
        assert cluster.progress("S1", 40, 60) == 10
        assert cluster.progress("S1", 80, 90) == 10

    def test_advance_progress_consistency(self):
        cluster = self.backend([(10, 20), (30, 40)])
        for start in (0, 5, 10, 15, 25, 40):
            for delta in (0, 3, 12, 30):
                done = cluster.advance("S1", start, delta)
                assert cluster.progress("S1", start, done) == delta

    def test_suppression_window_is_half_open(self):
        cluster = self.backend([(50, 80)])
        assert not cluster.suppressed("S1", 49)
        assert cluster.suppressed("S1", 50)
        assert cluster.suppressed("S1", 79)
        assert not cluster.suppressed("S1", 80)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            self.backend([(10, 30), (20, 40)])

    @settings(max_examples=80, deadline=None)
    @given(
        gaps=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), max_size=8),
        deltas=st.lists(st.integers(0, 60), max_size=4),
    )
    def test_bisection_matches_linear_definitions(self, gaps, deltas):
        # Windows built from (gap, length) pairs: a zero gap makes two
        # windows touch, and a zero first gap opens one at minute 0.
        windows, cur = [], 0
        for gap, length in gaps:
            windows.append((cur + gap, cur + gap + length))
            cur += gap + length
        cluster = self.backend(windows) if windows else sim([job("a")]).backend
        # Every window edge, a minute either side, and both ends of the span.
        points = sorted({0, cur + 5} | {m + d for w in windows for m in w
                                        for d in (-1, 0, 1) if m + d >= 0})
        for at in points:
            assert cluster.suppressed("S1", at) == stall_suppressed(windows, at), at
            # Deltas that end exactly at each later window's start, and the drawn ones.
            for delta in {*deltas, *(s - at for s, _ in windows if s >= at)}:
                assert cluster.advance("S1", at, delta) == stall_advance(windows, at, delta)
            for end in points:
                assert (cluster.progress("S1", at, end)
                        == stall_progress(windows, at, end)), (at, end)


class TestHappyPath:
    def test_single_job_lifecycle(self):
        s = sim(
            [job("a", req=40, true=30)],
            grace_minutes=5,
            queue_waits={"S1": QueueWait("fixed", 7)},
        )
        report = s.run()
        record = report.dispatcher.jobs["a"]
        assert record.state is JobState.COMPLETED
        assert record.attempts == 1
        [env] = report.sink.envelopes
        assert env.status == "completed"
        assert env.elapsed_minutes == 30
        assert log_times(report, "BUNDLE_START") == [7]
        assert log_times(report, "STEP_END") == [37]
        text = report.event_log_text
        assert "ARRIVAL" in text and "SUBMIT" in text and "ANALYZED" in text

    def test_empty_workload_terminates(self):
        report = sim([]).run()
        assert report.now <= 10
        assert report.live_at_end == 0
        assert not report.horizon_exhausted

    def test_run_returns_the_simulation(self):
        s = sim([job("a")])
        assert s.run() is s

    def test_every_job_is_live_before_a_run(self):
        s = sim([job("a"), job("b", arrival=50)])
        assert s.live_at_end == 2
        assert s.event_log_text == "" and not s.horizon_exhausted

    def test_a_second_run_is_refused_before_it_changes_anything(self):
        report = sim([job("a"), job("b")]).run()
        text, jobs = report.event_log_text, copy.deepcopy(report.dispatcher.jobs)
        with pytest.raises(ValueError, match="already run"):
            report.run()
        assert report.event_log_text == text and report.live_at_end == 0
        assert report.dispatcher.jobs == jobs

    def test_arrival_order_respected(self):
        s = sim(
            [job("late", arrival=50), job("early", arrival=0)],
            policy=BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=0),
        )
        report = s.run()
        arrivals = [
            line.split()[-1] for line in report.log if " ARRIVAL " in line
        ]
        assert arrivals == ["early", "late"]


class TestStepKillRule:
    def test_timeout_elapsed_is_allotment_plus_grace(self, tmp_path):
        # true 36 > 30 + 5: killed at 35 elapsed minutes, then the doubled
        # request (60) accommodates it.
        s = sim([job("a", req=30, true=36)], out_dir=tmp_path, grace_minutes=5)
        report = s.run()
        record = report.dispatcher.jobs["a"]
        assert record.timeout_count == 1
        assert record.requested_minutes == 60
        assert record.doublings == 1
        assert record.state is JobState.COMPLETED
        first = artifacts_on_disk(report, tmp_path, "sim-00001")
        assert "a TIMEOUT 35 124" in first.accounting_text
        assert first.sentinels == {"a": False}
        [env] = report.sink.envelopes
        assert env.elapsed_minutes == 36
        assert env.attempts == 2

    def test_finish_exactly_at_kill_instant_completes(self):
        # true == allotment + grace: the step verdict stands at the shared
        # instant, so no timeout is charged.
        s = sim([job("a", req=30, true=35)], grace_minutes=5)
        report = s.run()
        record = report.dispatcher.jobs["a"]
        assert record.state is JobState.COMPLETED
        assert record.timeout_count == 0
        assert record.attempts == 1

    def test_step_ending_at_the_cancel_minute_keeps_its_verdict(self):
        # The cancel is pushed before the run, so it precedes the minute-20
        # end of step a in the event queue; the step still ends COMPLETED.
        s = sim([job("a", cores=2, req=30, true=20), job("b", cores=2, req=30, true=50)],
                sites=[ExecutionSite("s", 8, 100)],
                policy=BundlePolicy(min_jobs=2, min_fill=0.0), horizon_minutes=60)
        s.push(20, lambda now: s.backend.cancel("sim-00001"))
        report = s.run()
        ends = [line.split() for line in report.log if " STEP_END " in line or " BUNDLE_END " in line]
        assert ends[:2] == [["20", "STEP_END", "B00001/a", "COMPLETED", "elapsed", "20"],
                            ["20", "BUNDLE_END", "B00001", "killed"]]


class TestBundleKill:
    def chain_sim(self, out_dir=None):
        jobs = [
            job("a", cores=4, req=10, true=100),
            job("b", cores=4, req=10, true=16),
            job("c", cores=4, req=10, true=20),
        ]
        policy = BundlePolicy(
            min_jobs=3, min_fill=1.0,
            flush_interval_minutes=60, timeout_buffer_minutes=0,
        )
        return sim(jobs, sites=[ExecutionSite("S1", 4, 1000)],
                   policy=policy, out_dir=out_dir, grace_minutes=5)

    def test_overrunning_chain_truncates_followers(self, tmp_path):
        report = self.chain_sim(tmp_path).run()
        first = report.backend.runs["sim-00001"]
        artifacts = artifacts_on_disk(report, tmp_path, "sim-00001")
        # Stack a -> b -> c, each allotted 10 (+5 grace).  a and b eat the
        # full 15 each; the bundle dies at request 30 + grace 5 = 35, five
        # minutes into c.
        assert AccountingRecord.from_text(artifacts.accounting_text).rows == {
            "a": ("TIMEOUT", 15, 124),
            "b": ("TIMEOUT", 15, 124),
            "c": ("CANCELLED", 5, 143),
        }
        assert first.finalized_at == 35

    def test_everything_converges_to_completed(self):
        report = self.chain_sim().run()
        jobs = report.dispatcher.jobs
        assert all(j.state is JobState.COMPLETED for j in jobs.values())
        # a: 10 -> 160 before 160 + 5 covers the 100 true minutes was not
        # needed; 80 + 5 < 100 though, hence four doublings.
        assert jobs["a"].doublings == 4
        assert jobs["b"].doublings == 1
        assert jobs["c"].doublings == 1
        assert report.dispatcher.conservation_ok()
        assert not report.horizon_exhausted


class TestStallRecovery:
    def stalled_sim(self, out_dir=None):
        jobs = [
            job("A", cores=3, req=10, true=10),
            job("B", cores=3, req=90, true=85),
        ]
        policy = BundlePolicy(
            min_jobs=2, min_fill=0.5, flush_interval_minutes=50,
            timeout_buffer_minutes=0, heartbeat_factor=2.0,
        )
        return sim(
            jobs,
            sites=[ExecutionSite("S1", 6, 100)],
            policy=policy,
            out_dir=out_dir,
            grace_minutes=0,
            queue_waits={"S1": QueueWait("fixed", 20)},
            faults=(FaultSpec(GLOBAL_STALL, "S1", window=(35, 250)),),
        )

    def test_heartbeat_cancels_exactly_once(self):
        report = self.stalled_sim().run()
        # Last sign of life is RUNNING at minute 20; threshold 2 x 90.
        assert log_times(report, "CANCEL") == [210]
        assert log_times(report, "CANCEL_FAILED") == []

    def test_finished_member_kept_unfinished_resubmitted(self, tmp_path):
        report = self.stalled_sim(tmp_path).run()
        jobs = report.dispatcher.jobs
        assert jobs["A"].state is JobState.COMPLETED
        assert jobs["A"].attempts == 1  # never re-run
        assert jobs["B"].state is JobState.COMPLETED
        assert jobs["B"].attempts == 2
        assert jobs["B"].doublings == 0  # cancel is not a timeout
        by_job = {e.job_id: e for e in report.sink.envelopes}
        assert by_job["A"].elapsed_minutes == 10
        assert by_job["B"].elapsed_minutes == 85
        first = artifacts_on_disk(report, tmp_path, "sim-00001")
        assert "A COMPLETED 10 0" in first.accounting_text
        assert "B CANCELLED 15 143" in first.accounting_text  # froze at 35

    def test_suppressed_completion_recovered_by_heartbeat(self):
        # The bundle finishes exactly as the site freezes; its FINISHED
        # notification is swallowed, and the heartbeat cancel later finds
        # the artifacts intact.
        s = sim(
            [job("a", req=30, true=10)],
            grace_minutes=0,
            faults=(FaultSpec(GLOBAL_STALL, "S1", window=(10, 500)),),
        )
        report = s.run()
        assert any("SUPPRESSED" in line and "FINISHED" in line for line in report.log)
        assert log_times(report, "CANCEL") == [70]  # 2 x 30 after RUNNING at 0
        record = report.dispatcher.jobs["a"]
        assert record.state is JobState.COMPLETED
        assert record.attempts == 1
        assert report.sink.envelopes[0].elapsed_minutes == 10

    def test_suppressed_finish_keeps_artifacts_until_the_cancel(self, monkeypatch):
        # The swallowed FINISHED hands nothing over, so the finished run
        # still holds its artifacts when the cancel comes, and then not.
        held = []
        original_cancel = SimCluster.cancel

        def cancel(self, handle):
            held.append(self.runs[handle].artifacts is not None)
            artifacts = original_cancel(self, handle)
            held.append(self.runs[handle].artifacts is None and artifacts is not None)
            return artifacts

        monkeypatch.setattr(SimCluster, "cancel", cancel)
        report = sim(
            [job("a", req=30, true=10)],
            grace_minutes=0,
            faults=(FaultSpec(GLOBAL_STALL, "S1", window=(10, 500)),),
        ).run()
        assert held == [True, True]
        assert report.dispatcher.jobs["a"].state is JobState.COMPLETED


class TestFinishedRuns:
    def test_runs_release_their_working_state(self, monkeypatch, tmp_path):
        make_inputs, seed, policy, _ = GOLDEN["faults"]
        sites_text, workload_text = make_inputs()
        contents = parse_sites_text(sites_text)
        graphs = []
        original_submit = SimCluster.submit

        def submit(self, bundle, graph):
            if not graphs:
                graphs.append(weakref.ref(graph))
            return original_submit(self, bundle, graph)

        monkeypatch.setattr(SimCluster, "submit", submit)
        report = Simulation(contents.sites, parse_workload_text(workload_text),
                            parse_policy(policy), contents.build_config(seed=seed),
                            out_dir=tmp_path).run()
        gc.collect()
        assert graphs and graphs[0]() is None

        runs = report.backend.runs
        assert [run.bundle for run in runs.values()] == report.dispatcher.bundle_reports
        started = 0
        for run in runs.values():
            assert run.finalized
            assert run.schedule is None and run.rows is None and run.graph is None
            assert run.artifacts is None  # handed to the dispatcher, kept on disk
            artifacts = artifacts_on_disk(report, tmp_path, run.handle)
            accounting = AccountingRecord.from_text(artifacts.accounting_text)
            assert accounting.bundle_id == run.bundle.bundle_id
            assert list(accounting.rows) == run.bundle.job_ids
            assert sorted(artifacts.sentinels) == sorted(run.bundle.job_ids)
            # A step writes its sentinel exactly when it completes.
            assert artifacts.sentinels == {
                j: r[0] == "COMPLETED" for j, r in accounting.rows.items()}
            assert all(code == EXIT_CODES[word] for word, _, code in accounting.rows.values())
            if run.started_at is not None:
                started += 1
                assert run.started_at <= run.finalized_at
        assert started == sum(" BUNDLE_START " in line for line in report.log)
        assert started < len(runs)  # some bundles were cancelled while queued


class TestCancelWhileQueued:
    def test_cancelled_bundle_never_starts(self):
        # Request 15 minutes (10 plus the 5-minute buffer), heartbeat bar
        # 30, queue wait 45: every submission is cancelled at minute 40
        # of its wait, so none may start when the wait runs out.
        report = sim(
            [job("a", req=10, true=10)],
            policy=BundlePolicy(min_jobs=1, min_fill=0.0),
            queue_waits={"S1": QueueWait("fixed", 45)},
        ).run()
        assert log_times(report, "CANCEL")
        assert log_times(report, "BUNDLE_START") == []
        assert log_times(report, "LATE_EVENT") == []
        assert all(run.started_at is None for run in report.backend.runs.values())
        assert report.dispatcher.all_terminal()

class TestInjectedFaults:
    def test_node_fault_retried_without_doubling(self, tmp_path):
        s = sim(
            [job("a", req=30, true=20)],
            out_dir=tmp_path,
            faults=(FaultSpec(NODE_FAULT, "a", times=1),),
        )
        report = s.run()
        record = report.dispatcher.jobs["a"]
        assert record.state is JobState.COMPLETED
        assert record.attempts == 2
        assert record.doublings == 0
        assert record.timeout_count == 0
        first = artifacts_on_disk(report, tmp_path, "sim-00001")
        assert "a FAILED 20 1" in first.accounting_text
        assert first.sentinels == {"a": False}

    def test_node_fault_every_time_exhausts_retries(self):
        s = sim(
            [job("a", req=30, true=20)],
            faults=(FaultSpec(NODE_FAULT, "a", times=99),),
        )
        report = s.run()
        record = report.dispatcher.jobs["a"]
        assert record.state is JobState.ERRORED
        assert record.error_kind == "flaky-error"
        assert record.attempts == 10

    def test_step_overrun_forces_doubling(self):
        s = sim(
            [job("a", req=30, true=20)],
            grace_minutes=5,
            faults=(FaultSpec(STEP_OVERRUN, "a", multiplier=3),),
        )
        report = s.run()
        record = report.dispatcher.jobs["a"]
        # Effective 60 minutes: 30+5 kills it once, 60+5 passes.
        assert record.timeout_count == 1
        assert record.requested_minutes == 60
        assert record.state is JobState.COMPLETED
        assert report.sink.envelopes[-1].elapsed_minutes == 60


class TestDeterminism:
    def workload(self):
        return [
            job("a", cores=2, req=25, true=40, arrival=0),
            job("b", cores=3, req=50, true=20, arrival=5),
            job("c", cores=4, req=30, true=30, arrival=5),
            job("d", cores=1, req=60, true=200, arrival=12),
        ]

    def build(self, seed):
        return sim(
            self.workload(),
            sites=[ExecutionSite("S1", 6, 500), ExecutionSite("S2", 4, 1000)],
            policy=BundlePolicy(min_jobs=2, min_fill=0.3,
                                flush_interval_minutes=30),
            seed=seed,
            queue_waits={
                "S1": QueueWait("uniform", 3, 17),
                "S2": QueueWait("uniform", 0, 40),
            },
        )

    def test_same_seed_byte_identical_log(self):
        first = self.build(seed=42).run()
        second = self.build(seed=42).run()
        assert first.event_log_text == second.event_log_text
        assert first.event_log_text.endswith("\n")
        minutes = [int(line.split(None, 1)[0]) for line in first.log]
        assert minutes == sorted(minutes)

    def test_different_seed_diverges(self):
        first = self.build(seed=1).run()
        second = self.build(seed=2).run()
        assert first.event_log_text != second.event_log_text

    def test_all_jobs_terminal_either_seed(self):
        for seed in (1, 2, 42):
            report = self.build(seed).run()
            assert report.dispatcher.all_terminal()
            assert report.dispatcher.conservation_ok()


def capture_records(monkeypatch) -> list[str]:
    """Wrap ``Simulation.record`` and collect each line as it used to be kept."""
    lines: list[str] = []
    original = vars(Simulation)["record"]

    def record(self, now, kind, detail):
        lines.append(f"{now:>8} {kind:<14} {detail}")
        original(self, now, kind, detail)

    monkeypatch.setattr(Simulation, "record", record)
    return lines


def stream_simulation(n_jobs: int, seed: int = 1) -> Simulation:
    inputs = load_bench_module("workloads").stream(seed, n_jobs=n_jobs)
    contents = parse_sites_text(inputs.sites_text)
    return Simulation(contents.sites, parse_workload_text(inputs.workload_text),
                      parse_policy(inputs.policy_text), contents.build_config(seed=seed))


class TestEventLogText:
    """The log is kept as text, joined every LOG_CHUNK_LINES lines."""

    def test_text_across_a_chunk_boundary(self, monkeypatch):
        lines = capture_records(monkeypatch)
        report = stream_simulation(1_000).run()
        assert len(lines) > simcluster.LOG_CHUNK_LINES
        assert report.event_log_text == "\n".join([*lines, ""])
        assert list(report.log) == report.event_log_text.splitlines() == lines

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    def test_any_chunk_size_gives_the_same_text(self, monkeypatch, chunk):
        # The run logs 24 lines, so sizes 1 to 4 end it exactly on a boundary.
        lines = capture_records(monkeypatch)
        monkeypatch.setattr(simcluster, "LOG_CHUNK_LINES", chunk)
        report = stream_simulation(2).run()
        assert report.event_log_text == "\n".join([*lines, ""])

    def test_empty_run_renders_one_newline_and_no_lines(self):
        report = sim([]).run()
        assert report.event_log_text == "\n"
        assert list(report.log) == []

    def test_log_can_be_iterated_twice(self):
        report = sim([job("a"), job("b")]).run()
        first = list(report.log)
        assert first and list(report.log) == first


class TestHorizon:
    def test_exhaustion_reported(self):
        s = sim([job("a", req=30, true=10_000)],
                sites=[ExecutionSite("S1", 6, 100_000)],
                horizon_minutes=500)
        report = s.run()
        assert report.horizon_exhausted
        assert report.live_at_end == 1
        assert any("HORIZON" in line for line in report.log)

    def test_an_arrival_past_the_horizon_is_live_at_the_end(self):
        report = sim([job("a"), job("late", arrival=1_000)], horizon_minutes=500).run()
        assert report.dispatcher.jobs["a"].state is JobState.COMPLETED
        assert "late" not in report.dispatcher.jobs
        assert report.horizon_exhausted
        assert report.live_at_end == 1
        assert any(line.endswith("stopped at 500 with 1 live jobs") for line in report.log)

    def test_metrics_out_dir_materializes_artifacts(self, tmp_path):
        jobs = [job("a", req=40, true=30)]
        config = SimConfig(grace_minutes=5)
        s = Simulation(
            [ExecutionSite("S1", 6, 1000)], jobs,
            BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=0),
            config, out_dir=tmp_path,
        )
        s.run()
        bundle_dir = tmp_path / "B00001"
        assert (bundle_dir / "accounting.txt").exists()
        assert (bundle_dir / "Makefile").read_text().startswith(".PHONY")
        assert (bundle_dir / "a" / "kim-done").exists()
        assert "COMPLETED" in (bundle_dir / "accounting.txt").read_text()
