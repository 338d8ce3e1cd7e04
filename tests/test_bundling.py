"""Tests for site registry, random binding and bundle formation."""

import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from hpcbundle.bundling import Bundle, BundlePolicy, ExecutionSite, SiteRegistry

from reference import QueueModel


@dataclass
class StubJob:
    cores: int
    requested_minutes: int


def make_registry(sites, policy=None, seed=0):
    policy = policy or BundlePolicy()
    return SiteRegistry(sites, policy, random.Random(seed))


def site(site_id, cores, walltime, active=True):
    return ExecutionSite(
        site_id=site_id, cores_per_node=cores, max_walltime_minutes=walltime, active=active
    )


class TestBundlePolicy:
    def test_defaults(self):
        policy = BundlePolicy()
        assert policy.min_jobs == 5
        assert policy.min_fill == 0.5
        assert policy.flush_interval_minutes == 60
        assert policy.timeout_buffer_minutes == 5
        assert policy.heartbeat_factor == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_jobs": 0},
            {"min_fill": -0.1},
            {"min_fill": 1.1},
            {"flush_interval_minutes": 0},
            {"timeout_buffer_minutes": -1},
            {"heartbeat_factor": 1.0},
            {"heartbeat_factor": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BundlePolicy(**kwargs)

    def test_zero_buffer_is_legal(self):
        assert BundlePolicy(timeout_buffer_minutes=0).timeout_buffer_minutes == 0


class TestBind:
    def test_singleton_compatible_set(self):
        # 4 cores / 50 min with buffer 5: S1(6,100) fits, S2(2,300) is too narrow.
        registry = make_registry([site("S1", 6, 100), site("S2", 2, 300)])
        chosen = registry.bind(StubJob(4, 50), "j")
        assert chosen.site_id == "S1"
        assert registry.site("S1").queue == ["j"]

    def test_no_compatible_site(self):
        registry = make_registry([site("S1", 6, 100), site("S2", 2, 300)])
        assert registry.bind(StubJob(12, 50), "j") is None

    def test_buffer_counts_against_walltime(self):
        # 98 + 5 > 100: the buffered rect must fit, so no compatible site.
        registry = make_registry([site("S1", 6, 100)])
        assert registry.bind(StubJob(1, 98), "j") is None

    def test_inactive_sites_never_receive_bindings(self):
        registry = make_registry([site("S1", 6, 100, active=False), site("S3", 8, 200)])
        for n in range(50):
            assert registry.bind(StubJob(4, 50), f"j{n}").site_id == "S3"

    def test_uniform_choice_over_two_sites(self):
        registry = make_registry([site("S1", 6, 100), site("S3", 8, 200)], seed=42)
        counts = Counter(
            registry.bind(StubJob(4, 50), f"j{n}").site_id for n in range(10_000)
        )
        assert abs(counts["S1"] / 10_000 - 0.5) <= 0.02
        assert abs(counts["S3"] / 10_000 - 0.5) <= 0.02


class TestBindPrefer:
    """``bind(..., prefer=)``: a job stays at ``prefer`` while that site takes it."""

    SITES = [("S1", 6, 100, True), ("S2", 8, 200, True), ("S3", 8, 300, True),
             ("OFF", 8, 300, False)]

    def registry(self, seed):
        return make_registry([site(*args) for args in self.SITES], seed=seed)

    @pytest.mark.parametrize("prefer_id", ["S1", "S2", "S3"])
    def test_a_site_that_takes_the_job_keeps_it_and_draws_nothing(self, prefer_id):
        registry = self.registry(seed=3)
        state = registry.rng.getstate()
        prefer = registry.site(prefer_id)
        assert registry.bind(StubJob(4, 90), "j", prefer=prefer) is prefer
        assert registry.snapshot_queues() == {s: ["j"] if s == prefer_id else []
                                              for s, *_ in self.SITES}
        assert registry.rng.getstate() == state

    # Switched off; 7 cores on a 6-core site; 96 + 5 buffer on a 100-minute site.
    @pytest.mark.parametrize("prefer_id, job", [
        ("OFF", StubJob(4, 50)), ("S1", StubJob(7, 50)), ("S1", StubJob(4, 96)),
    ])
    def test_a_site_that_cannot_take_the_job_draws_once_as_a_plain_bind(self, prefer_id, job):
        for seed in range(40):
            registry, plain = self.registry(seed), self.registry(seed)
            expected = random.Random()
            expected.setstate(registry.rng.getstate())
            n_fits = sum(s.active and job.cores <= s.cores_per_node
                         and job.requested_minutes + registry.policy.timeout_buffer_minutes
                         <= s.max_walltime_minutes
                         for s in registry.sites.values())
            expected.randrange(n_fits)
            chosen = registry.bind(job, "j", prefer=registry.site(prefer_id))
            assert chosen.site_id != prefer_id
            assert chosen.site_id == plain.bind(job, "j").site_id
            assert registry.rng.getstate() == expected.getstate() == plain.rng.getstate()
            assert chosen.queue == ["j"]

    @pytest.mark.parametrize("prefer_id", ["S1", "OFF"])
    def test_no_site_that_takes_the_job_queues_nothing(self, prefer_id):
        registry = self.registry(seed=3)
        state = registry.rng.getstate()
        assert registry.bind(StubJob(9, 50), "j", prefer=registry.site(prefer_id)) is None
        assert registry.bind(StubJob(4, 296), "k", prefer=registry.site(prefer_id)) is None
        assert all(not q for q in registry.snapshot_queues().values())
        assert registry.rng.getstate() == state


class TestTryFormBundle:
    def five_job_registry(self):
        policy = BundlePolicy(min_jobs=5, min_fill=1.0, timeout_buffer_minutes=0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {
            "A": StubJob(3, 40),
            "B": StubJob(3, 30),
            "C": StubJob(6, 30),
            "D": StubJob(2, 20),
            "E": StubJob(3, 25),
        }
        for job_id, job in jobs.items():
            registry.bind(job, job_id)
        return registry, jobs

    def test_five_job_bundle_matches_worked_example(self):
        registry, jobs = self.five_job_registry()
        bundle = registry.try_form_bundle(registry.site("S1"), jobs)
        assert isinstance(bundle, Bundle)
        assert bundle.job_ids == ["A", "B", "C", "D", "E"]
        assert (bundle.request_cores, bundle.request_minutes) == (6, 95)
        coords = [(p.x, p.y) for _, p in bundle.members]
        assert coords == [(0, 0), (3, 0), (0, 40), (0, 70), (2, 70)]
        assert registry.site("S1").queue == ["A", "B", "C", "D", "E"]  # proposed only
        registry.commit(bundle)
        assert registry.site("S1").queue == []

    def test_insufficient_leaves_queue_untouched(self):
        policy = BundlePolicy(min_jobs=5, min_fill=1.0)
        registry = make_registry([site("S1", 6, 100)], policy)
        registry.bind(StubJob(2, 10), "only")
        assert registry.try_form_bundle(registry.site("S1"), {"only": StubJob(2, 10)}) is None
        assert registry.site("S1").queue == ["only"]

    def test_empty_queue_even_forced(self):
        registry = make_registry([site("S1", 6, 100)])
        assert registry.try_form_bundle(registry.site("S1"), {}, force=True) is None

    def test_second_wide_job_cannot_stack(self):
        # Two 6x90 jobs in a 6x100 bin: only one band fits.
        policy = BundlePolicy(min_jobs=2, min_fill=1.0, timeout_buffer_minutes=0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"one": StubJob(6, 90), "two": StubJob(6, 90)}
        registry.bind(jobs["one"], "one")
        registry.bind(jobs["two"], "two")
        assert registry.try_form_bundle(registry.site("S1"), jobs) is None
        forced = registry.try_form_bundle(registry.site("S1"), jobs, force=True)
        assert forced.job_ids == ["one"]
        registry.commit(forced)
        assert registry.site("S1").queue == ["two"]

    def test_nofit_job_keeps_queue_position(self):
        # wide cannot join the bundle; after it leaves, wide is still first.
        policy = BundlePolicy(min_jobs=3, min_fill=1.0, timeout_buffer_minutes=0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {
            "tall": StubJob(6, 80),
            "wide": StubJob(6, 30),
            "a": StubJob(2, 20),
            "b": StubJob(2, 20),
        }
        for job_id, job in jobs.items():
            registry.bind(job, job_id)
        forced = registry.try_form_bundle(registry.site("S1"), jobs, force=True)
        assert forced.job_ids == ["tall", "a", "b"]
        registry.commit(forced)
        assert registry.site("S1").queue == ["wide"]

    def test_min_fill_alone_suffices(self):
        policy = BundlePolicy(min_jobs=99, min_fill=0.5, timeout_buffer_minutes=0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"big": StubJob(6, 60)}
        registry.bind(jobs["big"], "big")
        bundle = registry.try_form_bundle(registry.site("S1"), jobs)
        assert bundle is not None and bundle.job_ids == ["big"]

    def test_min_jobs_one_min_fill_zero_always_bundles(self):
        policy = BundlePolicy(min_jobs=1, min_fill=0.0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"tiny": StubJob(1, 1)}
        registry.bind(jobs["tiny"], "tiny")
        assert registry.try_form_bundle(registry.site("S1"), jobs) is not None

    def test_inactive_site_never_forms(self):
        registry = make_registry([site("S1", 6, 100)])
        registry.bind(StubJob(2, 10), "j")
        registry.site("S1").active = False
        policy_jobs = {"j": StubJob(2, 10)}
        assert registry.try_form_bundle(registry.site("S1"), policy_jobs, force=True) is None

    def test_buffered_heights_in_members(self):
        policy = BundlePolicy(min_jobs=1, min_fill=0.0, timeout_buffer_minutes=5)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"j": StubJob(3, 40)}
        registry.bind(jobs["j"], "j")
        bundle = registry.try_form_bundle(registry.site("S1"), jobs)
        assert bundle.members[0][1].rect.minutes == 45
        assert bundle.request_minutes == 45

    def test_request_never_exceeds_site_bin(self):
        policy = BundlePolicy(min_jobs=1, min_fill=0.0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {f"j{n}": StubJob(1 + n % 6, 5 + 7 * n % 60) for n in range(30)}
        for job_id, job in jobs.items():
            registry.bind(job, job_id)
        while True:
            bundle = registry.try_form_bundle(registry.site("S1"), jobs, force=True)
            if bundle is None:
                break
            assert bundle.request_cores <= 6
            assert bundle.request_minutes <= 100
            registry.commit(bundle)


class TestFlush:
    def test_due_site_flushes_single_job(self):
        policy = BundlePolicy(min_jobs=5, min_fill=1.0, flush_interval_minutes=60)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"j": StubJob(2, 10)}
        registry.bind(jobs["j"], "j")
        assert registry.flush_due_sites(now=59, jobs=jobs) == []
        bundles = registry.flush_due_sites(now=60, jobs=jobs)
        assert [b.job_ids for b in bundles] == [["j"]]

    def test_no_queued_jobs_anywhere(self):
        registry = make_registry([site("S1", 6, 100), site("S2", 8, 50)])
        assert registry.flush_due_sites(now=1000, jobs={}) == []

    def test_inactive_site_never_flushes(self):
        registry = make_registry([site("S1", 6, 100)])
        jobs = {"j": StubJob(2, 10)}
        registry.bind(jobs["j"], "j")
        registry.site("S1").active = False
        assert registry.flush_due_sites(now=1000, jobs=jobs) == []
        assert registry.site("S1").queue == ["j"]

    def test_every_attempt_resets_the_flush_timer(self):
        policy = BundlePolicy(min_jobs=5, min_fill=1.0, flush_interval_minutes=60)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"j": StubJob(2, 10)}
        registry.bind(jobs["j"], "j")
        # An insufficient (non-forced) attempt at minute 30 pushes the
        # next flush deadline to minute 90.
        assert registry.try_form_bundle(registry.site("S1"), jobs, now=30) is None
        assert registry.flush_due_sites(now=60, jobs=jobs) == []
        assert [b.job_ids for b in registry.flush_due_sites(now=90, jobs=jobs)] == [["j"]]


class TestCommit:
    def abc_registry(self):
        policy = BundlePolicy(min_jobs=2, min_fill=1.0, timeout_buffer_minutes=0)
        registry = make_registry([site("S1", 6, 100)], policy)
        jobs = {"a": StubJob(2, 10), "b": StubJob(2, 10), "c": StubJob(2, 10)}
        for job_id, job in jobs.items():
            registry.bind(job, job_id)
        return registry, jobs

    def test_commit_removes_only_the_members(self):
        registry, jobs = self.abc_registry()
        bundle = registry.try_form_bundle(registry.site("S1"), jobs)
        assert bundle.job_ids == ["a", "b"]
        assert registry.site("S1").queue == ["a", "b", "c"]
        registry.commit(bundle)
        assert registry.site("S1").queue == ["c"]

    def test_uncommitted_proposal_leaves_nothing_to_undo(self):
        # A bundle the backend rejects is never committed: the queue is
        # as it was, and the next attempt proposes the same members.
        registry, jobs = self.abc_registry()
        first = registry.try_form_bundle(registry.site("S1"), jobs)
        again = registry.try_form_bundle(registry.site("S1"), jobs)
        assert registry.site("S1").queue == ["a", "b", "c"]
        assert again.job_ids == first.job_ids == ["a", "b"]
        assert (first.bundle_id, again.bundle_id) == ("B00001", "B00002")

    def test_retry_bind_appends_as_fresh_arrival(self):
        # A retried member goes back to its own site behind the jobs still waiting.
        registry, jobs = self.abc_registry()
        registry.commit(registry.try_form_bundle(registry.site("S1"), jobs))
        assert registry.bind(jobs["a"], "a", prefer=registry.site("S1")) is registry.site("S1")
        assert registry.site("S1").queue == ["c", "a"]

    def test_switching_off_empties_the_queue(self):
        registry, _ = self.abc_registry()
        site_ = registry.site("S1")
        assert registry.set_active(site_, False) == ["a", "b", "c"]
        assert site_.queue == [] and not site_.active
        assert registry.set_active(site_, True) == []
        assert site_.queue == [] and site_.active


SITE_COUNT = 3
queue_steps = st.lists(st.one_of(
    st.tuples(st.just("bind"), st.integers(1, 8), st.integers(1, 150)),
    st.tuples(st.just("retry"), st.integers(0, SITE_COUNT - 1), st.integers(0, 999)),
    st.tuples(st.sampled_from(["accept", "reject"]), st.integers(0, SITE_COUNT - 1),
              st.booleans()),
    st.tuples(st.sampled_from(["deactivate", "reactivate"]), st.integers(0, SITE_COUNT - 1)),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16), queue_steps)
def test_queues_match_the_cut_and_requeue_model(seed, steps):
    """Propose-then-commit keeps the queues that cut-then-requeue kept."""
    sites = [site("S0", 6, 100), site("S1", 8, 200), site("S2", 4, 400)]
    policy = BundlePolicy(min_jobs=3, min_fill=0.6, timeout_buffer_minutes=5)
    registry = make_registry(sites, policy, seed)
    model = QueueModel(s.site_id for s in sites)
    jobs: dict[str, StubJob] = {}
    idle: list[str] = []  # in no queue: unbindable, in an accepted bundle, or drained

    def bind(job_id, prefer=None):
        bound = registry.bind(jobs[job_id], job_id, prefer)
        if bound is None:
            idle.append(job_id)
        else:
            model.append(bound.site_id, job_id)

    for kind, *args in steps:
        if kind == "bind":
            job_id = f"j{len(jobs)}"
            jobs[job_id] = StubJob(*args)
            bind(job_id)
        elif kind == "retry" and idle:
            # As the dispatcher retries: back at its site while that site takes it, else rebound.
            bind(idle.pop(args[1] % len(idle)), prefer=sites[args[0]])
        elif kind in ("accept", "reject"):
            target = sites[args[0]]
            bundle = registry.try_form_bundle(target, jobs, force=args[1])
            if bundle is not None:
                model.form(target.site_id, bundle.job_ids)
                if kind == "accept":
                    registry.commit(bundle)
                    idle += bundle.job_ids
                else:
                    model.reject(target.site_id, bundle.job_ids)
        elif kind == "deactivate":
            drained = registry.set_active(sites[args[0]], False)
            assert drained == model.drain(sites[args[0]].site_id)
            idle += drained
        elif kind == "reactivate":
            assert registry.set_active(sites[args[0]], True) == []
        assert registry.snapshot_queues() == model.queues


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 16), st.integers(11, 400),
    st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 99)), max_size=12),
    st.integers(0, 10_000),
)
def test_a_queue_short_of_both_thresholds_never_forms(
        cores, walltime, min_jobs, min_fill, buffer, requests, now):
    """Fewer queued jobs than ``min_jobs`` and a buffered queue area under
    ``min_fill`` of the bin: an unforced attempt proposes nothing, since the
    packed jobs are a subset of the queue, and still resets the flush timer."""
    policy = BundlePolicy(min_jobs=min_jobs, min_fill=min_fill, timeout_buffer_minutes=buffer)
    target = site("S1", cores, walltime)
    registry = make_registry([target], policy)
    jobs = {}
    for i, (c, m) in enumerate(requests):  # each request fits the site's bin
        jobs[f"j{i}"] = StubJob(1 + c % cores, 1 + m % (walltime - buffer))
        registry.bind(jobs[f"j{i}"], f"j{i}")
    queue_area = sum(jobs[j].cores * (jobs[j].requested_minutes + buffer) for j in target.queue)
    if len(target.queue) < min_jobs and queue_area / (cores * walltime) < min_fill:
        assert registry.try_form_bundle(target, jobs, now=now) is None
        assert target.last_attempt_at == now


class TestSnapshot:
    def test_snapshot_is_a_copy(self):
        registry = make_registry([site("S1", 6, 100)])
        registry.bind(StubJob(2, 10), "j")
        snap = registry.snapshot_queues()
        snap["S1"].append("intruder")
        assert registry.site("S1").queue == ["j"]
