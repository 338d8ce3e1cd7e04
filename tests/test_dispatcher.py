"""Dispatcher lifecycle tests against a scripted in-memory backend."""

import random

import pytest

from hpcbundle.bundling import BundlePolicy, ExecutionSite, SiteRegistry
from hpcbundle.dispatcher import (
    AccountingRecord,
    BackendRejection,
    BundleArtifacts,
    CollectingSink,
    Dispatcher,
    JobSpec,
    JobState,
    RETRY_CAP,
    make_text,
)


def accounting_text(bundle_id, rows):
    return AccountingRecord(bundle_id=bundle_id, rows=rows).to_text()


def artifacts_for(bundle, statuses, elapsed=None, sentinels=None):
    """Build bundle artifacts from per-job accounting words."""
    elapsed = elapsed or {}
    rows = {}
    sentinel_map = {}
    for job_id in bundle.job_ids:
        word = statuses[job_id]
        code = {"COMPLETED": 0, "TIMEOUT": 124, "FAILED": 1, "CANCELLED": 143}[word]
        rows[job_id] = (word, elapsed.get(job_id, 10), code)
        if sentinels is not None:
            sentinel_map[job_id] = sentinels[job_id]
        else:
            sentinel_map[job_id] = word in ("COMPLETED", "FAILED")
    return BundleArtifacts(
        accounting_text=accounting_text(bundle.bundle_id, rows),
        sentinels=sentinel_map,
    )


class FakeBackend:
    def __init__(self):
        self.submissions = []
        self.cancelled = []
        self.reject_next = 0
        self.cancel_result = None
        self._seq = 0

    def submit(self, bundle, materials):
        if self.reject_next > 0:
            self.reject_next -= 1
            raise BackendRejection("scripted rejection")
        self._seq += 1
        handle = f"h{self._seq}"
        self.submissions.append((handle, bundle, materials))
        return handle

    def cancel(self, handle):
        self.cancelled.append(handle)
        return self.cancel_result

    @property
    def last(self):
        return self.submissions[-1]


def build(sites=None, policy=None, seed=0, records=None):
    """A dispatcher on a fake backend; ``records`` collects ``(kind, text)`` log records."""
    sites = sites or [ExecutionSite("S1", 6, 100)]
    policy = policy or BundlePolicy(min_jobs=1, min_fill=0.0)
    registry = SiteRegistry(sites, policy, random.Random(seed))
    backend = FakeBackend()
    sink = CollectingSink()
    log = [] if records is None else records
    dispatcher = Dispatcher(registry, backend, sink,
                            recorder=lambda now, kind, text: log.append((kind, text)))
    return dispatcher, backend, sink


def spec(job_id="j", cores=3, minutes=30, **kwargs):
    return JobSpec(
        job_id=job_id, test_id="t", model_id="m",
        cores=cores, requested_minutes=minutes, **kwargs,
    )


class TestJobSpec:
    def test_construction_defaults_and_equality(self):
        positional = JobSpec("j", "t", "m", 3, 30)
        keyword = JobSpec(model_id="m", job_id="j", requested_minutes=30, cores=3, test_id="t")
        assert positional == keyword == spec()
        assert (positional.true_runtime_minutes, positional.arrival_minute) == (0, 0)
        full = JobSpec("j", "t", "m", 3, 30, true_runtime_minutes=25, arrival_minute=7)
        assert full == JobSpec("j", "t", "m", 3, 30, 25, 7) != positional
        assert full.job_id == "j" and full.cores == 3 and full.requested_minutes == 30

    def test_fields_cannot_be_assigned(self):
        job = spec()
        with pytest.raises(AttributeError):
            job.cores = 4
        assert job.cores == 3


class TestIngest:
    def test_happy_path_to_completed(self):
        dispatcher, backend, sink = build()
        job = dispatcher.ingest(spec(), now=0)
        assert job.state is JobState.BUNDLED
        assert job.attempts == 1
        handle, bundle, graph = backend.last
        assert bundle.job_ids == ["j"]
        assert bundle.members[0][1].rect.minutes == 35  # 30 + default buffer 5
        assert "run-kim-job j" in make_text(graph)

        dispatcher.on_event(handle, "RUNNING", now=5)
        assert job.state is JobState.RUNNING
        arts = artifacts_for(bundle, {"j": "COMPLETED"}, elapsed={"j": 28})
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert job.state is JobState.COMPLETED
        assert job.terminal_at == 40
        [envelope] = sink.envelopes
        assert envelope.status == "completed"
        assert envelope.elapsed_minutes == 28
        assert envelope.attempts == 1

    def test_no_compatible_site_is_resource_error(self):
        dispatcher, _, sink = build(
            sites=[ExecutionSite("S1", 6, 100), ExecutionSite("S2", 2, 300)]
        )
        job = dispatcher.ingest(spec(cores=999, minutes=50), now=0)
        assert job.state is JobState.ERRORED
        assert job.error_kind == "resource-error"
        assert sink.envelopes[0].status == "resource-error"

    def test_duplicate_and_malformed_specs_rejected(self):
        dispatcher, _, _ = build()
        dispatcher.ingest(spec("dup"), now=0)
        with pytest.raises(ValueError):
            dispatcher.ingest(spec("dup"), now=1)
        with pytest.raises(ValueError):
            dispatcher.ingest(spec("zero", cores=0), now=2)

    @pytest.mark.parametrize("job_id", ["", "/tmp/x", "../x", "a/b", "a:b", ".", "-j", "j 1",
                                        "all", "GNUmakefile", "makefile", "Makefile",
                                        "accounting.txt"])
    def test_job_id_that_is_not_a_plain_name_rejected(self, job_id):
        dispatcher, backend, _ = build()
        with pytest.raises(ValueError, match="no whitespace|may use only letters"):
            dispatcher.ingest(spec(job_id), now=0)
        assert not dispatcher.jobs and not backend.submissions

    def test_insufficient_queue_stays_bound(self):
        dispatcher, backend, _ = build(policy=BundlePolicy(min_jobs=2, min_fill=1.0))
        job = dispatcher.ingest(spec(), now=0)
        assert job.state is JobState.BOUND
        assert backend.submissions == []


class TestBackendRejection:
    def test_members_requeue_in_original_order(self):
        dispatcher, backend, _ = build(policy=BundlePolicy(min_jobs=2, min_fill=1.0))
        dispatcher.ingest(spec("a", cores=2, minutes=10), now=0)
        backend.reject_next = 1
        job_b = dispatcher.ingest(spec("b", cores=2, minutes=10), now=1)
        assert backend.submissions == []
        assert dispatcher.jobs["a"].state is JobState.BOUND
        assert job_b.state is JobState.BOUND
        assert dispatcher.jobs["a"].attempts == 0
        assert dispatcher.registry.site("S1").queue == ["a", "b"]
        # The next flush succeeds and packs in the same order.
        dispatcher.flush(now=1000)
        _, bundle, _ = backend.last
        assert bundle.job_ids == ["a", "b"]


class TestTimeoutDoubling:
    def test_doubling_and_same_site_requeue(self):
        dispatcher, backend, _ = build()
        job = dispatcher.ingest(spec(minutes=30), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(bundle, {"j": "TIMEOUT"}, elapsed={"j": 40})
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert job.requested_minutes == 60
        assert job.doublings == 1
        assert job.timeout_count == 1
        assert job.state is JobState.BUNDLED  # resubmitted immediately
        assert backend.last[1].request_minutes == 65
        assert job.rebind_count == 0

    def test_rebind_when_doubled_request_outgrows_site(self):
        sites = [ExecutionSite("S1", 6, 100), ExecutionSite("S2", 6, 300)]
        dispatcher, backend, _ = build(sites=sites, seed=1)
        job = dispatcher.ingest(spec(minutes=60), now=0)
        job.bound_site = "S1"  # pin for determinism
        handle, bundle, _ = backend.last
        arts = artifacts_for(bundle, {"j": "TIMEOUT"})
        dispatcher.on_event(handle, "FINISHED", now=70, artifacts=arts)
        # 120 + 5 buffer > 100: S1 can no longer hold the job.
        assert job.requested_minutes == 120
        assert job.bound_site == "S2"
        assert job.rebind_count == 1

    def test_terminal_resource_error_when_no_site_remains(self):
        dispatcher, backend, sink = build()
        job = dispatcher.ingest(spec(minutes=60), now=0)
        handle, bundle, _ = backend.last
        dispatcher.on_event(
            handle, "FINISHED", now=70,
            artifacts=artifacts_for(bundle, {"j": "TIMEOUT"}),
        )
        assert job.state is JobState.ERRORED
        assert job.error_kind == "resource-error"
        assert sink.envelopes[-1].status == "resource-error"
        assert job.requested_minutes == 120  # doubled once, then nowhere to go

    def test_request_stays_power_of_two_multiple(self):
        dispatcher, backend, _ = build(sites=[ExecutionSite("S1", 6, 10000)])
        job = dispatcher.ingest(spec(minutes=7), now=0)
        for round_ in range(5):
            handle, bundle, _ = backend.last
            arts = artifacts_for(bundle, {"j": "TIMEOUT"})
            dispatcher.on_event(handle, "FINISHED", now=10 * (round_ + 1), artifacts=arts)
            ratio = job.requested_minutes / 7
            assert ratio == 2 ** (round_ + 1)
            assert job.doublings == round_ + 1


class TestFaultOutcomes:
    def test_node_fault_resubmits_unchanged(self):
        dispatcher, backend, _ = build()
        job = dispatcher.ingest(spec(minutes=30), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(
            bundle, {"j": "FAILED"}, sentinels={"j": False}
        )
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert job.requested_minutes == 30  # unchanged
        assert job.doublings == 0
        assert job.attempts == 2  # resubmitted
        assert job.state is JobState.BUNDLED
        # COMPLETED, TIMEOUT, NODE_FAULT, CANCELLED, FAILED
        assert dispatcher.bundle_reports[0].outcome_counts == (0, 0, 1, 0, 0)

    def test_failed_with_sentinel_is_genuine_job_error(self):
        dispatcher, backend, sink = build()
        job = dispatcher.ingest(spec(), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(bundle, {"j": "FAILED"}, sentinels={"j": True})
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert job.state is JobState.ERRORED
        assert job.error_kind == "job-error"
        assert sink.envelopes[-1].status == "job-error"

    def test_cancelled_resubmits_unchanged(self):
        dispatcher, backend, _ = build()
        job = dispatcher.ingest(spec(minutes=30), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(bundle, {"j": "CANCELLED"})
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert job.requested_minutes == 30
        assert job.attempts == 2

    def test_unparsable_accounting_is_node_fault_for_unfinished(self):
        for accounting_text in ("garbage without header\n", "bundle_id \n"):
            dispatcher, backend, _ = build(policy=BundlePolicy(min_jobs=2, min_fill=1.0))
            dispatcher.ingest(spec("a", cores=2, minutes=10), now=0)
            dispatcher.ingest(spec("b", cores=2, minutes=10), now=0)
            handle, bundle, _ = backend.last
            arts = BundleArtifacts(
                accounting_text=accounting_text,
                sentinels={"a": True, "b": False},
            )
            dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
            # The sentinel marks a's conclusion even with accounting lost.
            assert dispatcher.jobs["a"].state is JobState.COMPLETED
            assert dispatcher.jobs["b"].state is JobState.BOUND or (
                dispatcher.jobs["b"].state is JobState.BUNDLED
            )
            assert dispatcher.jobs["b"].requested_minutes == 10

    def test_accounting_naming_another_bundle_is_bad(self):
        records = []
        dispatcher, backend, _ = build(policy=BundlePolicy(min_jobs=2, min_fill=1.0),
                                       records=records)
        dispatcher.ingest(spec("a", cores=2, minutes=10), now=0)
        dispatcher.ingest(spec("b", cores=2, minutes=10), now=0)
        handle, bundle, _ = backend.last
        arts = BundleArtifacts(
            accounting_text=accounting_text("other", {"a": ("COMPLETED", 10, 0),
                                                      "b": ("TIMEOUT", 15, 124)}),
            sentinels={"a": True, "b": False},
        )
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        assert ("BAD_ACCOUNTING",
                f"{bundle.bundle_id}: accounting names bundle 'other'") in records
        # No row is read: the sentinel completes a, and b is a node fault,
        # retried with its request unchanged rather than doubled.
        assert dispatcher.jobs["a"].state is JobState.COMPLETED
        assert dispatcher.jobs["b"].timeout_count == 0
        assert dispatcher.jobs["b"].requested_minutes == 10
        assert bundle.outcome_counts == (1, 0, 1, 0, 0)
        assert bundle.consumed_core_minutes == 0

    def test_retry_cap_errors_flaky(self):
        dispatcher, backend, sink = build()
        job = dispatcher.ingest(spec(), now=0)
        for n in range(RETRY_CAP):
            handle, bundle, _ = backend.last
            arts = artifacts_for(bundle, {"j": "FAILED"}, sentinels={"j": False})
            dispatcher.on_event(handle, "FINISHED", now=10 * (n + 1), artifacts=arts)
        assert job.attempts == RETRY_CAP
        assert job.state is JobState.ERRORED
        assert job.error_kind == "flaky-error"
        assert sink.envelopes[-1].status == "flaky-error"


class TestNoLostResults:
    def test_completed_member_of_cancelled_bundle_not_rerun(self):
        dispatcher, backend, sink = build(policy=BundlePolicy(min_jobs=2, min_fill=1.0))
        dispatcher.ingest(spec("a", cores=2, minutes=10), now=0)
        dispatcher.ingest(spec("b", cores=2, minutes=10), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(
            bundle,
            {"a": "COMPLETED", "b": "CANCELLED"},
            elapsed={"a": 9, "b": 3},
        )
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        job_a = dispatcher.jobs["a"]
        assert job_a.state is JobState.COMPLETED
        assert job_a.attempts == 1
        assert [e.job_id for e in sink.envelopes] == ["a"]
        assert dispatcher.jobs["b"].state in (JobState.BOUND, JobState.BUNDLED)


class TestMonitor:
    def make_in_flight(self, heartbeat=2.0):
        dispatcher, backend, sink = build(
            policy=BundlePolicy(min_jobs=1, min_fill=0.0, heartbeat_factor=heartbeat)
        )
        dispatcher.ingest(spec(minutes=30), now=0)  # request 35 buffered
        handle, bundle, _ = backend.last
        return dispatcher, backend, sink, handle, bundle

    def test_cancel_only_strictly_beyond_threshold(self):
        dispatcher, backend, _, handle, bundle = self.make_in_flight()
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        assert dispatcher.monitor(now=70) == []  # 70 - 0 == 2x35: not beyond
        assert backend.cancelled == []
        assert dispatcher.monitor(now=71) == [handle]
        assert backend.cancelled == [handle]

    def test_events_refresh_heartbeat(self):
        dispatcher, backend, _, handle, bundle = self.make_in_flight()
        dispatcher.on_event(handle, "RUNNING", now=60)
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        assert dispatcher.monitor(now=100) == []  # 100 - 60 < 70
        assert dispatcher.monitor(now=131) == [handle]

    def test_failed_cancel_is_retried_next_tick(self):
        dispatcher, backend, _, handle, bundle = self.make_in_flight()
        backend.cancel_result = None
        assert dispatcher.monitor(now=100) == []
        assert backend.cancelled == [handle]
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        assert dispatcher.monitor(now=110) == [handle]
        assert backend.cancelled == [handle, handle]

    def test_cancelled_member_requeues(self):
        dispatcher, backend, _, handle, bundle = self.make_in_flight()
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        dispatcher.monitor(now=71)
        job = dispatcher.jobs["j"]
        assert job.requested_minutes == 30
        assert job.attempts == 2  # immediately rebundled and resubmitted


class TestEvents:
    def test_unknown_handle_ignored(self):
        records = []
        dispatcher, _, _ = build(records=records)
        dispatcher.on_event("nope", "RUNNING", now=5)  # must not raise
        assert records == [("UNKNOWN_EVENT", "RUNNING for unknown nope ignored")]

    def test_never_issued_handle_is_unknown_among_finalized_ones(self):
        records = []
        dispatcher, backend, _ = build(records=records)
        dispatcher.ingest(spec(), now=0)
        handle, bundle, _ = backend.last
        dispatcher.on_event(handle, "FINISHED", now=40,
                            artifacts=artifacts_for(bundle, {"j": "COMPLETED"}))
        del records[:]
        dispatcher.on_event("h99", "RUNNING", now=41)
        assert records == [("UNKNOWN_EVENT", "RUNNING for unknown h99 ignored")]

    def test_late_event_for_finalized_bundle_ignored(self):
        records = []
        dispatcher, backend, _ = build(records=records)
        dispatcher.ingest(spec(), now=0)
        handle, bundle, _ = backend.last
        arts = artifacts_for(bundle, {"j": "COMPLETED"})
        dispatcher.on_event(handle, "FINISHED", now=40, artifacts=arts)
        del records[:]
        dispatcher.on_event(handle, "RUNNING", now=41)  # must not raise
        assert dispatcher.jobs["j"].state is JobState.COMPLETED
        assert records == [("LATE_EVENT", f"RUNNING for finalized {handle} ignored")]

    def test_event_after_monitor_cancel_is_late(self):
        records = []
        dispatcher, backend, _ = build(
            policy=BundlePolicy(min_jobs=1, min_fill=0.0, heartbeat_factor=2.0),
            records=records)
        dispatcher.ingest(spec(minutes=30), now=0)  # request 35 buffered
        handle, bundle, _ = backend.last
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        assert dispatcher.monitor(now=71) == [handle]
        assert backend.last[0] != handle  # the member was resubmitted under a new handle
        del records[:]
        dispatcher.on_event(handle, "FINISHED", now=80,
                            artifacts=artifacts_for(bundle, {"j": "COMPLETED"}))
        assert records == [("LATE_EVENT", f"FINISHED for finalized {handle} ignored")]
        assert dispatcher.jobs["j"].state is JobState.BUNDLED

    def test_finished_without_artifacts_is_an_error(self):
        dispatcher, backend, _ = build()
        dispatcher.ingest(spec(), now=0)
        handle, _, _ = backend.last
        with pytest.raises(ValueError):
            dispatcher.on_event(handle, "FINISHED", now=40)


class TestSiteControl:
    def test_deactivation_rebinds_queued_jobs(self):
        sites = [ExecutionSite("S1", 6, 100), ExecutionSite("S2", 6, 300)]
        dispatcher, backend, _ = build(
            sites=sites, policy=BundlePolicy(min_jobs=9, min_fill=1.0)
        )
        for n in range(4):
            dispatcher.ingest(spec(f"j{n}", cores=2, minutes=10), now=0)
        queued = {
            site_id: list(q)
            for site_id, q in dispatcher.registry.snapshot_queues().items()
        }
        dispatcher.set_site_active("S1", False, now=5)
        assert dispatcher.registry.site("S1").queue == []
        s2_queue = dispatcher.registry.site("S2").queue
        assert sorted(s2_queue) == sorted(queued["S1"] + queued["S2"])
        assert dispatcher.conservation_ok()

    def test_deactivating_only_compatible_site_errors_jobs(self):
        dispatcher, _, sink = build(policy=BundlePolicy(min_jobs=9, min_fill=1.0))
        dispatcher.ingest(spec("j0"), now=0)
        dispatcher.set_site_active("S1", False, now=5)
        job = dispatcher.jobs["j0"]
        assert job.state is JobState.ERRORED
        assert job.error_kind == "resource-error"
        assert dispatcher.conservation_ok()

    def test_reactivation_accepts_bindings_again(self):
        dispatcher, _, _ = build(policy=BundlePolicy(min_jobs=9, min_fill=1.0))
        dispatcher.set_site_active("S1", False, now=0)
        assert dispatcher.ingest(spec("a"), now=1).state is JobState.ERRORED
        dispatcher.set_site_active("S1", True, now=2)
        assert dispatcher.ingest(spec("b"), now=3).state is JobState.BOUND

    def test_unknown_site_rejected(self):
        dispatcher, _, _ = build()
        with pytest.raises(KeyError):
            dispatcher.set_site_active("nope", False, now=0)

    def test_inflight_bundles_left_to_monitor(self):
        dispatcher, backend, _ = build()
        dispatcher.ingest(spec(), now=0)
        handle, bundle, _ = backend.last
        dispatcher.set_site_active("S1", False, now=5)
        assert handle in dispatcher.in_flight
        backend.cancel_result = artifacts_for(bundle, {"j": "CANCELLED"})
        dispatcher.monitor(now=500)
        # Retry finds no active site: terminal resource error.
        assert dispatcher.jobs["j"].state is JobState.ERRORED


class TestConservation:
    def test_a_refused_transition_changes_nothing(self):
        dispatcher, _, _ = build(policy=BundlePolicy(min_jobs=9, min_fill=1.0))
        job = dispatcher.ingest(spec(), now=0)
        counts = dict(dispatcher.state_counts)
        with pytest.raises(ValueError, match="illegal transition bound -> completed"):
            dispatcher._set_state(job, JobState.COMPLETED, now=5)
        assert job.state is JobState.BOUND and job.terminal_at is None
        assert dict(dispatcher.state_counts) == counts == {JobState.BOUND: 1}
        assert dispatcher.conservation_ok()

    def test_every_job_in_exactly_one_bucket(self):
        sites = [ExecutionSite("S1", 6, 100), ExecutionSite("S2", 6, 300)]
        dispatcher, backend, _ = build(sites=sites)
        for n in range(6):
            dispatcher.ingest(spec(f"j{n}", cores=2, minutes=20), now=n)
            assert dispatcher.conservation_ok()
        while backend.submissions:
            handle, bundle, _ = backend.submissions.pop()
            if handle in dispatcher.in_flight:
                word = "COMPLETED" if int(bundle.job_ids[0][1]) % 2 else "TIMEOUT"
                arts = artifacts_for(bundle, {j: word for j in bundle.job_ids})
                dispatcher.on_event(handle, "FINISHED", now=50, artifacts=arts)
                assert dispatcher.conservation_ok()
        assert dispatcher.terminal_count() + dispatcher.live_count() == 6


class TestAccountingFormat:
    def test_round_trip(self):
        record = AccountingRecord(
            bundle_id="B00042",
            rows={"a": ("COMPLETED", 30, 0), "b": ("TIMEOUT", 45, 124)},
        )
        text = record.to_text()
        assert text.splitlines()[0] == "bundle_id B00042"
        parsed = AccountingRecord.from_text(text)
        assert parsed.bundle_id == record.bundle_id
        assert parsed.rows == record.rows

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("no header here\n", 1),
            ("bundle_id B1\na COMPLETED 30\n", 2),  # missing field
            ("bundle_id B1\na WEIRD 30 0\n", 2),  # unknown state word
            ("bundle_id \n", 1),  # header names no bundle
            ("bundle_id B1\na COMPLETED x 0\n", 2),  # non-integer elapsed
            # Blank lines count: the line number is the line of the text.
            ("bundle_id B1\n\nj1 BAD 1 0\n", 3),
            ("\n\nno header here\n", 3),
            ("\nbundle_id \n", 2),
            ("bundle_id B1\na COMPLETED 5 0\n\n\nb COMPLETED 5\n", 5),
            # A second row for one job.
            ("bundle_id B1\nj1 COMPLETED 5 0\n\nj1 FAILED 6 1\n", 4),
        ],
    )
    def test_rejects_malformed(self, text, line):
        with pytest.raises(ValueError, match=rf"^accounting line {line}: "):
            AccountingRecord.from_text(text)

    def test_second_row_for_a_job_names_both_lines(self):
        text = "bundle_id B1\nj1 COMPLETED 5 0\nj2 COMPLETED 5 0\n\nj1 FAILED 6 1\n"
        with pytest.raises(ValueError) as err:
            AccountingRecord.from_text(text)
        assert str(err.value) == "accounting line 5: second row for job 'j1', first at line 2"


class TestArtifactsOnDisk:
    def test_write_and_reload(self, tmp_path):
        arts = BundleArtifacts(
            accounting_text="bundle_id B1\na COMPLETED 5 0\nb FAILED 6 1\n",
            sentinels={"a": True, "b": False},
        )
        arts.write_to(tmp_path / "B1")
        assert (tmp_path / "B1" / "a" / "kim-done").exists()
        assert not (tmp_path / "B1" / "b" / "kim-done").exists()
        loaded = BundleArtifacts.from_dir(tmp_path / "B1")
        assert loaded.accounting_text == arts.accounting_text
        assert loaded.sentinels == arts.sentinels
