"""Command line interface: pack, simulate, report."""

import pytest

from hpcbundle.cli import main

SITES = """\
[sim]
grace_minutes = 5
tick_minutes = 10

[site local]
cores_per_node = 6
max_walltime_minutes = 100
queue_wait = fixed 0
"""

WORKLOAD = """\
job_id,test_id,model_id,cores,requested_minutes,true_runtime_minutes,arrival_minute
A,T1,M1,3,40,30,0
B,T2,M1,3,30,20,0
C,T3,M1,6,30,25,0
D,T4,M2,2,20,10,0
E,T5,M2,3,25,15,0
"""


@pytest.fixture
def inputs(tmp_path):
    sites = tmp_path / "sites.txt"
    sites.write_text(SITES)
    workload = tmp_path / "jobs.csv"
    workload.write_text(WORKLOAD)
    return sites, workload


class TestPack:
    def test_prints_layout_and_order(self, inputs, capsys):
        sites, workload = inputs
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload),
                   "--policy", "buffer=0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A: x=0 y=0 3x40" in out
        assert "B: x=3 y=0 3x30" in out
        assert "C: x=0 y=40 6x30" in out
        assert "D: x=0 y=70 2x20" in out
        assert "E: x=2 y=70 3x25" in out
        assert "edges: A->C, B->C, C->D, C->E" in out
        assert "request: 6 cores x 95 min" in out
        assert "waste 0.1140" in out
        assert ".PHONY: all A B C D E" in out
        assert "C: A B" in out

    def test_writes_artifacts(self, inputs, tmp_path, capsys):
        sites, workload = inputs
        out_dir = tmp_path / "pack-out"
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload),
                   "--policy", "buffer=0", "--out", str(out_dir)])
        assert rc == 0
        assert "request: 6 cores x 95 min" in (out_dir / "pack.txt").read_text()
        make = (out_dir / "Makefile").read_text()
        assert "\trun-kim-job C" in make

    def test_buffer_inflates_heights(self, inputs, capsys):
        sites, workload = inputs
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload),
                   "--policy", "buffer=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A: x=0 y=0 3x41" in out

    def test_oversized_job_exits_2(self, inputs, tmp_path, capsys):
        sites, _ = inputs
        workload = tmp_path / "wide.csv"
        workload.write_text(
            "job_id,test_id,model_id,cores,requested_minutes,"
            "true_runtime_minutes,arrival_minute\nW,T,M,7,10,10,0\n"
        )
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: job W" in err
        assert "does not fit site local" in err

    def test_unknown_site_exits_2(self, inputs, capsys):
        sites, workload = inputs
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload),
                   "--site", "mars"])
        assert rc == 2
        assert "unknown site" in capsys.readouterr().err

    def test_empty_workload_exits_2(self, inputs, tmp_path, capsys):
        # There is nothing to pack; ``simulate`` still accepts the same file.
        sites, _ = inputs
        empty = tmp_path / "empty.csv"
        empty.write_text(WORKLOAD.splitlines()[0] + "\n")
        out_dir = tmp_path / "pack-empty"
        rc = main(["pack", "--sites", str(sites), "--workload", str(empty),
                   "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: workload declares no jobs\n"
        assert not out_dir.exists()


class TestSimulate:
    def test_writes_all_outputs(self, inputs, tmp_path, capsys):
        sites, workload = inputs
        out_dir = tmp_path / "run1"
        rc = main([
            "simulate", "--seed", "7", "--sites", str(sites),
            "--workload", str(workload),
            "--policy", "min_jobs=5,min_fill=1.0,buffer=0",
            "--out", str(out_dir),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "jobs            5" in stdout
        assert "completed     5" in stdout
        events = (out_dir / "events.log").read_text()
        assert "SUBMIT" in events and "ANALYZED" in events
        assert (out_dir / "metrics.csv").read_text().count("\n") >= 2
        jobs_lines = (out_dir / "jobs.csv").read_text().splitlines()
        assert len(jobs_lines) == 6
        # All five jobs rode one bundle; its artifacts are materialized.
        assert (out_dir / "B00001" / "accounting.txt").exists()
        assert (out_dir / "B00001" / "Makefile").exists()

    def test_deterministic_across_invocations(self, inputs, tmp_path, capsys):
        sites, workload = inputs
        logs = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            assert main([
                "simulate", "--seed", "3", "--sites", str(sites),
                "--workload", str(workload), "--out", str(out_dir),
            ]) == 0
            logs.append((out_dir / "events.log").read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("which", ["sites", "workload"])
    def test_byte_order_mark_is_ignored(self, inputs, tmp_path, capsys, which):
        # Editors on some systems save UTF-8 with a leading byte-order mark.
        sites, workload = inputs
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        args = ["simulate", "--seed", "3", "--sites", str(sites),
                "--workload", str(workload), "--out", str(plain)]
        assert main(args) == 0
        path = sites if which == "sites" else workload
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main([*args[:-1], str(marked)]) == 0, capsys.readouterr().err
        for name in ("events.log", "metrics.csv", "jobs.csv"):
            assert (marked / name).read_bytes() == (plain / name).read_bytes()

    def test_empty_workload(self, inputs, tmp_path, capsys):
        sites, _ = inputs
        empty = tmp_path / "empty.csv"
        empty.write_text(WORKLOAD.splitlines()[0] + "\n")
        out_dir = tmp_path / "run-empty"
        rc = main(["simulate", "--sites", str(sites), "--workload", str(empty),
                   "--out", str(out_dir)])
        assert rc == 0
        assert "jobs            0" in capsys.readouterr().out

    def test_refused_inputs_leave_no_out_directory(self, inputs, tmp_path, capsys):
        # The parser cannot see that no job is named 'ghost'; the simulation refuses it.
        sites, workload = inputs
        sites.write_text(SITES + "\n[fault]\nkind = NODE_FAULT\ntarget = ghost\n")
        out_dir = tmp_path / "run-ghost"
        rc = main(["simulate", "--sites", str(sites), "--workload", str(workload),
                   "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: NODE_FAULT target 'ghost' names no job\n"
        assert not out_dir.exists()

    def test_horizon_warning(self, tmp_path, capsys):
        # A roomy site lets the request double indefinitely, so the job
        # is still live when the horizon cuts the run short.
        sites = tmp_path / "big.txt"
        sites.write_text(
            "[site big]\ncores_per_node = 6\nmax_walltime_minutes = 1000000\n"
        )
        slow = tmp_path / "slow.csv"
        slow.write_text(
            "job_id,test_id,model_id,cores,requested_minutes,"
            "true_runtime_minutes,arrival_minute\nS,T,M,1,60,99999,0\n"
        )
        out_dir = tmp_path / "run-slow"
        rc = main(["simulate", "--sites", str(sites), "--workload", str(slow),
                   "--out", str(out_dir), "--horizon", "300"])
        assert rc == 0
        assert "warning: horizon 300 reached" in capsys.readouterr().err


# Summary lines that jobs.csv cannot back, and so `report` never prints.
BUNDLE_LEVEL = ("bundles", "timeouts", "rebinds", "core-min")


class TestReport:
    def test_single_run_identity(self, inputs, tmp_path, capsys):
        sites, workload = inputs
        out_dir = tmp_path / "run1"
        main(["simulate", "--sites", str(sites), "--workload", str(workload),
              "--out", str(out_dir)])
        summary = capsys.readouterr().out.splitlines()
        rc = main(["report", str(out_dir / "jobs.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs            5" in out
        assert "completed     5" in out
        # The job-level lines of simulate's summary, and only those.
        assert not any(line.startswith(BUNDLE_LEVEL) for line in out.splitlines())
        assert out.splitlines() == [
            line for line in summary
            if line.startswith(("jobs", "  completed", "  errored", "  live", "turnaround"))]

    def test_two_runs_pool(self, inputs, tmp_path, capsys):
        sites, workload = inputs
        paths = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            main(["simulate", "--sites", str(sites), "--workload", str(workload),
                  "--out", str(out_dir)])
            paths.append(str(out_dir / "jobs.csv"))
        capsys.readouterr()
        assert main(["report"] + paths) == 0
        out = capsys.readouterr().out
        assert "jobs            10" in out
        assert not any(line.startswith(BUNDLE_LEVEL) for line in out.splitlines())


class TestErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["pack", "--sites", str(tmp_path / "nope.txt"),
                   "--workload", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_2_with_line(self, inputs, tmp_path, capsys):
        _, workload = inputs
        bad_sites = tmp_path / "bad.txt"
        bad_sites.write_text(
            "[site s]\ncores_per_node = 4\nmax_walltime_minutes = nope\n"
        )
        rc = main(["pack", "--sites", str(bad_sites), "--workload", str(workload)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_job_id_outside_out_dir_exits_2(self, inputs, tmp_path, capsys):
        """Job ids name step directories: a path-like id writes nothing outside --out."""
        sites, _ = inputs
        escaped = tmp_path / "trav" / "ESCAPED"
        run = tmp_path / "out" / "run"
        before = sorted(tmp_path.rglob("*"))
        for line, job_id in ((2, str(escaped)), (3, "../../UP")):
            workload = tmp_path / f"bad{line}.csv"
            rows = WORKLOAD.splitlines()
            rows[line - 1] = job_id + rows[line - 1][1:]  # the demo ids are one letter
            workload.write_text("\n".join(rows) + "\n")
            before.append(workload)
            rc = main(["simulate", "--sites", str(sites), "--workload", str(workload),
                       "--policy", "min_jobs=1", "--out", str(run)])
            assert rc == 2
            assert f"line {line}: job_id {job_id!r}" in capsys.readouterr().err
        outside = [p for p in tmp_path.rglob("*") if p not in (run, run.parent)
                   and run not in p.parents]
        assert sorted(outside) == sorted(before)

    def test_bad_policy_exits_2(self, inputs, capsys):
        sites, workload = inputs
        rc = main(["pack", "--sites", str(sites), "--workload", str(workload),
                   "--policy", "min_fill=2.0"])
        assert rc == 2

    @pytest.mark.parametrize("which", ["sites", "workload"])
    def test_directory_as_input_exits_2(self, inputs, tmp_path, capsys, which):
        sites, workload = inputs
        paths = {"sites": sites, "workload": workload, which: tmp_path}
        out = tmp_path / "out"
        rc = main(["simulate", "--sites", str(paths["sites"]),
                   "--workload", str(paths["workload"]), "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_report_table_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("which", ["sites", "workload"])
    def test_non_utf8_byte_exits_2_with_its_line(self, inputs, tmp_path, capsys, which, bom):
        sites, workload = inputs
        path = sites if which == "sites" else workload
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"  # line 3
        path.write_bytes(bom + b"\n".join(lines))
        out = tmp_path / "out"
        rc = main(["simulate", "--sites", str(sites), "--workload", str(workload),
                   "--out", str(out)])
        assert rc == 2
        assert "error: line 3: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_byte_in_report_table_exits_2_with_its_file_and_line(
            self, inputs, tmp_path, capsys, bom):
        sites, workload = inputs
        out = tmp_path / "out"
        assert main(["simulate", "--sites", str(sites), "--workload", str(workload),
                     "--out", str(out)]) == 0
        table = out / "jobs.csv"
        lines = table.read_bytes().split(b"\n")
        lines[2] += b"\xff"  # line 3
        table.write_bytes(bom + b"\n".join(lines))
        capsys.readouterr()
        assert main(["report", str(table)]) == 2
        assert (f"error: {table}: line 3: 'utf-8' codec can't decode byte 0xff"
                in capsys.readouterr().err)
