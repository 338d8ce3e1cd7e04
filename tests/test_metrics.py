"""Metrics tables, summaries, and cross-run aggregation."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hpcbundle
from hpcbundle.bundling import BundlePolicy, ExecutionSite
from hpcbundle.dispatcher import JobSpec
from hpcbundle.metrics import (
    JOBS_COLUMNS,
    METRICS_COLUMNS,
    Summary,
    _turnaround_stats,
    aggregate,
    jobs_csv_text,
    metrics_csv_text,
    read_jobs_csv,
    summarize,
    write_jobs_csv,
    write_metrics_csv,
)
from hpcbundle.simcluster import SimConfig, Simulation
from hpcbundle.workload import parse_policy, parse_sites_text, parse_workload_text
from test_golden import GOLDEN


def run_sim(n_jobs=4, seed=0):
    jobs = [
        JobSpec(
            job_id=f"J{i}", test_id=f"T{i}", model_id="M",
            cores=1 + i % 3, requested_minutes=30,
            true_runtime_minutes=10 + 5 * i, arrival_minute=0,
        )
        for i in range(n_jobs)
    ]
    sim = Simulation(
        [ExecutionSite("S1", 6, 1000)],
        jobs,
        BundlePolicy(min_jobs=2, min_fill=0.0, timeout_buffer_minutes=0),
        SimConfig(seed=seed, grace_minutes=5),
    )
    return sim.run()


@pytest.fixture(scope="module")
def report():
    return run_sim()


class TestCsvTables:
    def test_metrics_header_and_rows(self, report):
        lines = metrics_csv_text(report.dispatcher).splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 1 + len(report.dispatcher.bundle_reports)
        first = dict(zip(METRICS_COLUMNS, lines[1].split(",")))
        assert first["bundle_id"] == "B00001"
        assert first["site_id"] == "S1"
        assert 0.0 <= float(first["waste_fraction"]) < 1.0
        counts = sum(
            int(first[c])
            for c in ("n_completed", "n_timeout", "n_node_fault",
                      "n_cancelled", "n_failed")
        )
        assert counts == int(first["n_jobs"])

    def test_jobs_header_and_rows(self, report):
        lines = jobs_csv_text(report.dispatcher).splitlines()
        assert lines[0] == ",".join(JOBS_COLUMNS)
        assert len(lines) == 5
        rows = [dict(zip(JOBS_COLUMNS, line.split(","))) for line in lines[1:]]
        assert [r["job_id"] for r in rows] == ["J0", "J1", "J2", "J3"]
        for row in rows:
            assert row["state"] == "completed"
            assert int(row["turnaround_minutes"]) > 0

    def test_write_round_trip(self, report, tmp_path):
        jobs_path = tmp_path / "jobs.csv"
        write_jobs_csv(jobs_path, report.dispatcher)
        assert jobs_path.read_text() == jobs_csv_text(report.dispatcher)
        rows = read_jobs_csv(jobs_path)
        assert len(rows) == 4
        assert rows[0]["job_id"] == "J0"
        metrics_path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics_path, report.dispatcher)
        assert metrics_path.read_text() == metrics_csv_text(report.dispatcher)

    def test_read_ignores_a_byte_order_mark(self, report, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_jobs_csv(plain, report.dispatcher)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_jobs_csv(marked) == read_jobs_csv(plain)

    def test_read_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("job_id,state\na,completed\n")
        with pytest.raises(ValueError, match="expected columns"):
            read_jobs_csv(bad)


class TestSummarize:
    def test_counts_match_run(self, report):
        summary = summarize(report.dispatcher)
        assert summary.n_jobs == 4
        assert summary.n_completed == 4
        assert summary.n_errored == 0
        assert summary.n_live == 0
        assert summary.n_bundles == len(report.dispatcher.bundle_reports)
        assert summary.bundles_per_site == {"S1": summary.n_bundles}
        assert summary.mean_turnaround > 0
        assert summary.p95_turnaround >= summary.mean_turnaround
        assert summary.core_minutes_requested >= summary.core_minutes_consumed > 0

    def test_render_is_stable_text(self, report):
        text = summarize(report.dispatcher).render()
        assert "jobs            4" in text
        assert "completed     4" in text
        assert "S1" in text
        assert text == summarize(report.dispatcher).render()

    def test_empty_dispatcher(self):
        sim = Simulation(
            [ExecutionSite("S1", 6, 1000)], [], BundlePolicy(), SimConfig()
        )
        sim.run()
        summary = summarize(sim.dispatcher)
        assert summary == Summary()


class TestAggregate:
    def write_run(self, tmp_path, name, seed):
        report = run_sim(seed=seed)
        path = tmp_path / name
        write_jobs_csv(path, report.dispatcher)
        return report, path

    def test_single_table_matches_summary_job_fields(self, tmp_path):
        """On the golden faults case, with completed and errored jobs."""
        make_inputs, seed, policy, _ = GOLDEN["faults"]
        sites_text, workload_text = make_inputs()
        contents = parse_sites_text(sites_text)
        report = Simulation(contents.sites, parse_workload_text(workload_text),
                            parse_policy(policy), contents.build_config(seed)).run()
        path = tmp_path / "jobs.csv"
        write_jobs_csv(path, report.dispatcher)
        direct = summarize(report.dispatcher)
        assert direct.n_completed and direct.n_errored
        # The jobs table carries no bundle-level field, so those stay at their defaults.
        assert aggregate([path]) == dataclasses.replace(
            direct, n_bundles=0, timeout_count=0, rebind_count=0, bundles_per_site={},
            core_minutes_requested=0, core_minutes_consumed=0)

    def test_pooling_two_identical_runs_doubles_counts(self, tmp_path):
        _, first = self.write_run(tmp_path, "a.csv", 3)
        _, second = self.write_run(tmp_path, "b.csv", 3)
        one = aggregate([first])
        two = aggregate([first, second])
        assert two.n_jobs == 2 * one.n_jobs
        assert two.n_completed == 2 * one.n_completed
        assert two.mean_turnaround == one.mean_turnaround

    def test_requires_at_least_one_path(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestTurnaroundStats:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300))
    def test_matches_numpy_bit_for_bit(self, values):
        mean, p95 = _turnaround_stats(values)
        arr = np.asarray(values, dtype=float)
        assert mean.hex() == float(np.mean(arr)).hex()
        assert p95.hex() == float(np.percentile(arr, 95)).hex()


def test_simulate_runs_without_numpy(tmp_path):
    """The package needs no numpy: `simulate` works with the import blocked."""
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    code = ("import sys\nsys.modules['numpy'] = None\n"
            "from hpcbundle.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    src = str(Path(hpcbundle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--seed", "5",
         "--sites", str(data / "sites.txt"), "--workload", str(data / "workload.csv"),
         "--policy", "min_jobs=3,min_fill=0.4,flush=40", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "metrics.csv").is_file()
