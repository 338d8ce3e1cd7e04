"""Sites-file and workload-CSV parsing, emission, and error reporting."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

import reference
from hpcbundle.bundling import BundlePolicy, ExecutionSite, SiteRegistry, site_id_error
from hpcbundle.dispatcher import JobSpec
from hpcbundle.simcluster import (
    GLOBAL_STALL,
    NODE_FAULT,
    SIM_MINIMUMS,
    STEP_OVERRUN,
    FaultSpec,
    QueueWait,
    SimConfig,
    Simulation,
    Workload,
)
from hpcbundle.workload import (
    WORKLOAD_COLUMNS,
    ParseError,
    SiteFileContents,
    parse_policy,
    parse_sites_file,
    parse_sites_text,
    parse_workload_file,
    parse_workload_text,
)

SITES_TEXT = """\
# cluster description
[sim]
grace_minutes = 5
tick_minutes = 10

[site alpha]
cores_per_node = 16
max_walltime_minutes = 2880  # two days
queue_wait = uniform 5 90

[site beta]
cores_per_node = 128
max_walltime_minutes = 720
active = false
queue_wait = fixed 30

[fault]
kind = STEP_OVERRUN
target = J1
multiplier = 4

[fault]
kind = NODE_FAULT
target = J2

[fault]
kind = GLOBAL_STALL
target = alpha
window = 100 250
"""

WORKLOAD_TEXT = """\
job_id,test_id,model_id,cores,requested_minutes,true_runtime_minutes,arrival_minute
J1,TE_000111_000,MO_222333_000,4,120,95,0
J2,TE_000111_001,MO_222333_000,16,30,400,15
"""

# The round trips' emitters: each writes text whose re-parse is identical.
_FAULT_VALUE = {
    STEP_OVERRUN: lambda fault: f"multiplier = {fault.multiplier}",
    NODE_FAULT: lambda fault: f"times = {fault.times}",
    GLOBAL_STALL: lambda fault: "window = {} {}".format(*fault.window),
}


def emit_sites(contents: SiteFileContents) -> str:
    lines: list[str] = []
    sim = [key for key in SIM_MINIMUMS if getattr(contents, key) is not None]
    if sim:
        lines += ["[sim]", *(f"{key} = {getattr(contents, key)}" for key in sim), ""]
    for site in contents.sites:
        lines.append(f"[site {site.site_id}]")
        lines.append(f"cores_per_node = {site.cores_per_node}")
        lines.append(f"max_walltime_minutes = {site.max_walltime_minutes}")
        lines.append(f"active = {'true' if site.active else 'false'}")
        wait = contents.queue_waits.get(site.site_id)
        if wait is not None:
            if wait.kind == "fixed":
                lines.append(f"queue_wait = fixed {wait.low}")
            else:
                lines.append(f"queue_wait = uniform {wait.low} {wait.high}")
        lines.append("")
    for fault in contents.faults:
        lines += ["[fault]", f"kind = {fault.kind}", f"target = {fault.target}",
                  _FAULT_VALUE[fault.kind](fault), ""]
    return "\n".join(lines)


def emit_workload(jobs) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(WORKLOAD_COLUMNS)
    writer.writerows(jobs)
    return out.getvalue()


def _raise(message):
    raise ValueError(message)


class TestSitesParsing:
    def test_full_file(self):
        contents = parse_sites_text(SITES_TEXT)
        assert contents.grace_minutes == 5
        assert contents.tick_minutes == 10
        alpha, beta = contents.sites
        assert alpha == ExecutionSite("alpha", 16, 2880)
        assert beta.active is False
        assert contents.queue_waits == {
            "alpha": QueueWait("uniform", 5, 90),
            "beta": QueueWait("fixed", 30),
        }
        assert contents.faults == [
            FaultSpec(STEP_OVERRUN, "J1", multiplier=4),
            FaultSpec(NODE_FAULT, "J2", times=1),
            FaultSpec(GLOBAL_STALL, "alpha", window=(100, 250)),
        ]

    def test_minimal_site(self):
        contents = parse_sites_text(
            "[site s]\ncores_per_node = 4\nmax_walltime_minutes = 60\n"
        )
        [site] = contents.sites
        assert site.active is True
        assert contents.grace_minutes is None
        assert contents.queue_waits == {}

    def test_round_trip_is_identity(self):
        contents = parse_sites_text(SITES_TEXT)
        emitted = emit_sites(contents)
        again = parse_sites_text(emitted)
        assert again == contents
        assert emit_sites(again) == emitted  # emission is a fixed point

    def test_file_variant(self, tmp_path):
        path = tmp_path / "sites.txt"
        path.write_text(SITES_TEXT)
        assert parse_sites_file(path) == parse_sites_text(SITES_TEXT)

    @pytest.mark.parametrize(
        "text, lineno, fragment",
        [
            ("[nonsense]\n", 1, "unknown section"),
            ("cores_per_node = 4\n", 1, "outside any section"),
            ("[site ]\n", 1, "needs an id"),
            ("[site s]\ncores_per_node = 4\n", 1, "missing max_walltime_minutes"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = x\n", 3, "integer"),
            ("[site s]\ncolor = blue\n", 2, "unknown site key"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "node_sharing = true\n", 4, "unknown site key"),
            ("[sim]\nweather = nice\n", 2, "unknown [sim] key"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "active = maybe\n", 4, "boolean"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "queue_wait = poisson 3\n", 4, "fixed N"),
            ("[site s]\njust words\n", 2, "key = value"),
            ("[fault]\nkind = NODE_FAULT\n", 1, "kind and target"),
            ("[fault]\nkind = STEP_OVERRUN\ntarget = j\n", 1, "multiplier"),
            ("[fault]\nkind = GLOBAL_STALL\ntarget = s\n", 1, "window"),
            ("[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 5\n", 4, "START END"),
            ("[fault]\nkind = MONSOON\ntarget = s\n", 2, "unknown fault kind"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "[site s]\n", 4, "duplicate site id 's'"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "cores_per_node = 8\n", 4, "duplicate key 'cores_per_node'"),
            ("[sim]\ntick_minutes = 5\ntick_minutes = 10\n", 3, "duplicate key 'tick_minutes'"),
            ("[sim]\ntick_minutes = 5\n[sim]\ntick_minutes = 10\n", 3, "duplicate [sim] section"),
            ("[sim]\ntick_minutes = 5\n[site s]\ncores_per_node = 4\n"
             "max_walltime_minutes = 9\n[sim]\ntick_minutes = 10\n", 6, "duplicate [sim] section"),
            ("[fault]\nkind = NODE_FAULT\ntarget = j\ntarget = k\n", 4, "duplicate key 'target'"),
            ("[fault]\nkind = STEP_OVERRUN\ntarget = j\nmultiplier = 2\n"
             "[fault]\nkind = STEP_OVERRUN\ntarget = j\nmultiplier = 6\n", 5,
             "repeated STEP_OVERRUN for 'j', first at line 1"),
            ("[fault]\nkind = NODE_FAULT\ntarget = j\n"
             "[fault]\nkind = STEP_OVERRUN\ntarget = j\nmultiplier = 2\n"
             "[fault]\nkind = NODE_FAULT\ntarget = j\ntimes = 2\n", 8,
             "repeated NODE_FAULT for 'j', first at line 1"),
            ("[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 10 50\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 0 11\n", 5,
             "GLOBAL_STALL window on 's' overlaps the one at line 1"),
            ("[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 0 100\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 100 200\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 20 30\n", 9,
             "overlaps the one at line 1"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "queue_wait = uniform 10 5\n", 4, "0 <= LOW <= HIGH"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "queue_wait = fixed -1\n", 4, "0 <= LOW <= HIGH"),
            ("[sim]\ngrace_minutes = 5\ntick_minutes = 0\n", 3, "tick_minutes must be >= 1"),
            ("[sim]\ngrace_minutes = -3\n", 2, "grace_minutes must be >= 0"),
            ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 0 10\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = nosuch\nwindow = 0 10\n"
             "[fault]\nkind = GLOBAL_STALL\ntarget = nosuch\nwindow = 20 30\n", 8,
             "GLOBAL_STALL target 'nosuch' names no site"),
            # The site's own refusal already names it, so the parser only adds the line.
            ("[site s]\ncores_per_node = 0\nmax_walltime_minutes = 9\n", 1,
             "line 1: site 's': cores_per_node must be >= 1"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_sites_text(text)
        assert f"line {lineno}:" in str(excinfo.value)
        assert fragment in str(excinfo.value)

    def test_duplicate_site_ids(self):
        text = (
            "[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
            "[site s]\ncores_per_node = 8\nmax_walltime_minutes = 9\n"
        )
        with pytest.raises(ParseError, match="^line 4: duplicate site id 's'$"):
            parse_sites_text(text)
        # The rule's own function gives the words the parser puts after the line.
        assert site_id_error("s", {"s"}) == "duplicate site id 's'"
        assert site_id_error("t", {"s"}) is None

    @pytest.mark.parametrize("text, lineno, library", [
        ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n[site s]\n", 4,
         lambda: SiteRegistry([ExecutionSite("s", 4, 9), ExecutionSite("s", 8, 9)],
                              BundlePolicy(), None)),
        ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n[site s]\n", 4,
         lambda: _raise(site_id_error("s", ["s"]))),
        ("[fault]\nkind = MONSOON\ntarget = s\n", 2, lambda: FaultSpec("MONSOON", "s")),
    ], ids=["duplicate_site_id", "site_id_error", "unknown_fault_kind"])
    def test_refusal_in_the_words_of_the_library(self, text, lineno, library):
        # The parser adds only the line to the refusal of the code that owns the rule.
        with pytest.raises(ValueError) as refused:
            library()
        with pytest.raises(ParseError) as parse_error:
            parse_sites_text(text)
        assert str(parse_error.value) == f"line {lineno}: {refused.value}"

    def test_distinct_faults_and_touching_windows_accepted(self):
        # One fault of each kind per target, and stall windows that only
        # touch, as SimCluster accepts them, on sites the file declares.
        text = (
            "[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
            "[site t]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
            "[fault]\nkind = STEP_OVERRUN\ntarget = j\nmultiplier = 2\n"
            "[fault]\nkind = NODE_FAULT\ntarget = j\n"
            "[fault]\nkind = STEP_OVERRUN\ntarget = k\nmultiplier = 3\n"
            "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 10 20\n"
            "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 0 10\n"
            "[fault]\nkind = GLOBAL_STALL\ntarget = t\nwindow = 5 15\n"
        )
        faults = parse_sites_text(text).faults
        assert [(f.kind, f.target) for f in faults] == [
            (STEP_OVERRUN, "j"), (NODE_FAULT, "j"), (STEP_OVERRUN, "k"),
            (GLOBAL_STALL, "s"), (GLOBAL_STALL, "s"), (GLOBAL_STALL, "t"),
        ]

    def test_invalid_window_bounds_rejected(self):
        text = "[fault]\nkind = GLOBAL_STALL\ntarget = s\nwindow = 90 10\n"
        with pytest.raises(ParseError):
            parse_sites_text(text)

    @pytest.mark.parametrize("kind, target, own, foreign", [
        (STEP_OVERRUN, "j", "multiplier = 2", "window = 1 2"),
        (NODE_FAULT, "j", "times = 2", "multiplier = 3"),
        (GLOBAL_STALL, "s", "window = 0 10", "times = 3"),
    ], ids=[STEP_OVERRUN, NODE_FAULT, GLOBAL_STALL])
    @pytest.mark.parametrize("which", ["unknown", "foreign"])
    def test_fault_key_of_another_kind_or_none_refused_at_its_line(
            self, kind, target, own, foreign, which):
        extra = "tims = 3" if which == "unknown" else foreign
        text = ("[site s]\ncores_per_node = 4\nmax_walltime_minutes = 9\n"
                f"[fault]\nkind = {kind}\n{extra}\ntarget = {target}\n{own}\n")
        key = extra.split()[0]
        with pytest.raises(ParseError, match=f"^line 6: unknown {kind} key '{key}'$"):
            parse_sites_text(text)


class TestBuildConfig:
    def test_sim_knobs_applied(self):
        config = parse_sites_text(SITES_TEXT).build_config(seed=9, horizon_minutes=77)
        assert config.seed == 9
        assert config.horizon_minutes == 77
        assert config.grace_minutes == 5
        assert config.tick_minutes == 10
        assert config.queue_waits["beta"] == QueueWait("fixed", 30)
        assert len(config.faults) == 3

    def test_defaults_when_sim_section_absent(self):
        contents = parse_sites_text(
            "[site s]\ncores_per_node = 4\nmax_walltime_minutes = 60\n"
        )
        config = contents.build_config(seed=0)
        assert config.grace_minutes == 5  # simulator default
        assert config.tick_minutes == 10


class TestWorkloadParsing:
    def test_parses_rows(self):
        j1, j2 = parse_workload_text(WORKLOAD_TEXT)
        assert j1 == JobSpec("J1", "TE_000111_000", "MO_222333_000", 4, 120, 95, 0)
        assert j2.arrival_minute == 15

    def test_round_trip(self):
        jobs = parse_workload_text(WORKLOAD_TEXT)
        assert emit_workload(jobs) == WORKLOAD_TEXT
        assert parse_workload_text(emit_workload(jobs)) == jobs

    def test_file_variant(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(WORKLOAD_TEXT)
        assert parse_workload_file(path) == parse_workload_text(WORKLOAD_TEXT)

    def test_header_only_is_empty_workload(self):
        assert list(parse_workload_text(WORKLOAD_TEXT.splitlines()[0] + "\n")) == []

    @pytest.mark.parametrize(
        "row, lineno, fragment",
        [
            ("J1,t,m,4,120,95,0", 3, "duplicate job_id"),
            ("J9,t,m,0,120,95,0", 3, "positive"),
            ("J9,t,m,4,120,95,-1", 3, "non-negative"),
            ("J9,t,m,four,120,95,0", 3, "integer"),
            ("J9,t,m,4,120,95", 3, "wrong number of fields"),
            ("J9,t,m,4,120,95,0,extra", 3, "wrong number of fields"),
            ("J 9,t,m,4,120,95,0", 3, "no whitespace"),
            (",t,m,4,120,95,0", 3, "non-empty"),
            ("../x,t,m,4,120,95,0", 3, "may use only letters, digits, '.', '_' and '-'"),
            ("-x,t,m,4,120,95,0", 3, "may not start with '.' or '-'"),
            ("all,t,m,4,120,95,0", 3,
             "may not be 'all', 'GNUmakefile', 'makefile', 'Makefile' or 'accounting.txt'"),
            ("GNUmakefile,t,m,4,120,95,0", 3, "job_id 'GNUmakefile' may use only"),
            ("makefile,t,m,4,120,95,0", 3, "job_id 'makefile' may use only"),
            ("Makefile,t,m,4,120,95,0", 3, "job_id 'Makefile' may use only"),
            ("accounting.txt,t,m,4,120,95,0", 3, "job_id 'accounting.txt' may use only"),
        ],
    )
    def test_row_errors(self, row, lineno, fragment):
        lines = WORKLOAD_TEXT.splitlines()
        text = "\n".join([lines[0], lines[1], row]) + "\n"
        with pytest.raises(ParseError) as excinfo:
            parse_workload_text(text)
        assert f"line {lineno}:" in str(excinfo.value)
        assert fragment in str(excinfo.value)

    def test_header_mismatch(self):
        with pytest.raises(ParseError, match="line 1: expected header"):
            parse_workload_text("id,cores\n1,4\n")
        with pytest.raises(ParseError):
            parse_workload_text("")

    def test_blank_rows_are_skipped(self):
        header, j1, j2 = WORKLOAD_TEXT.splitlines()
        text = "\n".join([header, "", j1, "", "", j2, "", ""]) + "\n"
        assert parse_workload_text(text) == parse_workload_text(WORKLOAD_TEXT)
        # Line numbers still count the blank lines.
        with pytest.raises(ParseError, match="^line 5: expected an integer, got 'x'$"):
            parse_workload_text("\n".join([header, j1, "", "", "J9,t,m,x,1,1,0"]))


# Text cells, some of which must be quoted; a quoted line break moves the
# line numbers of the rows after it.
_TEXT_CELLS = st.sampled_from(["T", "", "a,b", 'say "hi"', "two\nlines", "x y"])
# Each stays a bad integer with the column number appended.
_BAD_INTS = st.sampled_from(["x", "1.", "4x", "0x", "_"])


def _cell(value, quote):
    if quote or any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def workload_texts(draw):
    """Workload CSV with at most one fault per row: blank rows, CRLF line
    ends, quoted cells, short and long rows, bad or empty integers (bad
    ones sometimes in two columns), bad or duplicate ids, zero sizes and
    negative arrivals."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = WORKLOAD_COLUMNS if draw(st.integers(0, 4)) else draw(st.sampled_from(
        [WORKLOAD_COLUMNS[:-1], WORKLOAD_COLUMNS[::-1], [], None]))
    lines = [] if header is None else [",".join(header)]
    ids: list[str] = []
    for i in range(draw(st.integers(0, 6))):
        lines += [""] * draw(st.integers(0, 2))
        row = [f"J{i}", draw(_TEXT_CELLS), draw(_TEXT_CELLS),
               *(str(draw(st.integers(1, 9))) for _ in range(3)),
               str(draw(st.integers(0, 60)))]
        fault = draw(st.none() | st.sampled_from(
            ["short", "long", "bad_int", "no_int", "bad_id", "dup", "zero", "negative"]))
        if fault == "short":
            row = row[:draw(st.integers(1, 6))]
        elif fault == "long":
            row.append(draw(_TEXT_CELLS))
        elif fault == "bad_int":  # the column number tells which is named
            for col in draw(st.sets(st.integers(3, 6), min_size=1, max_size=2)):
                row[col] = draw(_BAD_INTS) + str(col)
        elif fault == "no_int":
            row[draw(st.integers(3, 6))] = draw(st.sampled_from(["", " "]))
        elif fault == "bad_id":
            row[0] = draw(st.sampled_from(
                ["", " ", "J 1", "\tJ1", "J1 ", "/tmp/x", "../x", "a:b", ".",
                 "all", "GNUmakefile", "makefile", "Makefile", "accounting.txt"]))
        elif fault == "dup" and ids:
            row[0] = draw(st.sampled_from(ids))
        elif fault == "zero":
            row[draw(st.integers(3, 5))] = "0"
        elif fault == "negative":
            row[6] = "-1"
        ids.append(row[0])
        lines.append(",".join(_cell(v, draw(st.booleans())) for v in row))
    lines += [""] * draw(st.integers(0, 2))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _outcome(parse, text):
    try:
        return list(parse(text))
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(workload_texts())
def test_parser_matches_dictreader_oracle(text):
    assert _outcome(parse_workload_text, text) == _outcome(reference.parse_workload_text, text)


_BAD_IDS = ["", " ", "J 1", "../x", "/tmp/x", "a:b", ".x", "-x",
            "all", "GNUmakefile", "makefile", "Makefile", "accounting.txt"]


@st.composite
def workloads_breaking_one_job_rule(draw):
    """Valid jobs, then one that breaks one job rule, then more valid jobs."""
    def valid(i):
        return JobSpec(f"J{i}", "T", "M", draw(st.integers(1, 8)), draw(st.integers(1, 60)),
                       draw(st.integers(1, 60)), draw(st.integers(0, 60)))

    before = [valid(i) for i in range(draw(st.integers(0, 3)))]
    bad = valid(len(before))
    rule = draw(st.sampled_from(
        ["job_id", "cores", "requested_minutes", "true_runtime_minutes", "arrival_minute"]))
    if rule == "job_id":  # a malformed id, or one an earlier job holds
        ids = _BAD_IDS + [spec.job_id for spec in before]
        bad = bad._replace(job_id=draw(st.sampled_from(ids)))
    else:
        least = 0 if rule == "arrival_minute" else 1
        bad = bad._replace(**{rule: draw(st.integers(least - 3, least - 1))})
    after = [valid(len(before) + 1 + i) for i in range(draw(st.integers(0, 2)))]
    return before + [bad] + after, len(before) + 2


@settings(max_examples=200, deadline=None)
@given(workloads_breaking_one_job_rule())
def test_parser_refuses_a_job_in_the_words_of_the_simulation(case):
    # One rule per job column: the parser adds only the line to the library's refusal.
    jobs, lineno = case
    with pytest.raises(ValueError) as refused:
        Simulation([ExecutionSite("s", 8, 100)], jobs, BundlePolicy(), SimConfig())
    with pytest.raises(ValueError) as workload_refused:
        Workload(jobs)
    with pytest.raises(ParseError) as parse_error:
        parse_workload_text(emit_workload(jobs))
    assert str(workload_refused.value) == str(refused.value)
    assert str(parse_error.value) == f"line {lineno}: {refused.value}"


class TestPolicyParsing:
    def test_empty_gives_defaults(self):
        assert parse_policy("") == BundlePolicy()
        assert parse_policy("   ") == BundlePolicy()

    def test_full_specification(self):
        policy = parse_policy(
            "min_jobs=3, min_fill=0.75, flush=45, buffer=0, heartbeat=1.5"
        )
        assert policy == BundlePolicy(
            min_jobs=3, min_fill=0.75, flush_interval_minutes=45,
            timeout_buffer_minutes=0, heartbeat_factor=1.5,
        )

    def test_partial_keeps_other_defaults(self):
        policy = parse_policy("min_jobs=2")
        assert policy.min_jobs == 2
        assert policy.min_fill == BundlePolicy().min_fill

    @pytest.mark.parametrize(
        "text", ["min_jobs", "cheese=5", "min_fill=soft", "min_jobs=1,,"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_policy(text)

    def test_repeated_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate policy key 'min_jobs'"):
            parse_policy("min_jobs=5,min_jobs=9")

    def test_invalid_values_propagate_policy_validation(self):
        with pytest.raises(ValueError):
            parse_policy("min_fill=1.5")


class TestEmitSites:
    def test_empty_contents(self):
        assert emit_sites(SiteFileContents()) == ""

    def test_emitted_text_parses_everywhere(self):
        contents = SiteFileContents(
            sites=[ExecutionSite("x", 8, 100)],
            queue_waits={"x": QueueWait("uniform", 1, 2)},
            faults=[FaultSpec(NODE_FAULT, "j", times=3)],
        )
        again = parse_sites_text(emit_sites(contents))
        assert again == contents


# Site ids and fault targets: no whitespace, '#', '[' or ']'.
_NAMES = st.text("abAB09_.-", min_size=1, max_size=4)


@st.composite
def site_file_contents(draw):
    """Valid contents: sites of random sizes, active flags and waits, [sim]
    settings given or omitted, and at most one fault of each kind per job,
    with the stall windows on a site touching but never overlapping."""
    ids = draw(st.lists(_NAMES, max_size=4, unique=True))
    sites = [ExecutionSite(site_id, draw(st.integers(1, 256)), draw(st.integers(1, 10_000)),
                           draw(st.booleans())) for site_id in ids]
    queue_waits = {}
    for site_id in ids:
        kind = draw(st.sampled_from([None, "fixed", "uniform"]))
        if kind == "fixed":
            queue_waits[site_id] = QueueWait("fixed", draw(st.integers(0, 500)))
        elif kind == "uniform":
            low = draw(st.integers(0, 500))
            queue_waits[site_id] = QueueWait("uniform", low, draw(st.integers(low, 1000)))
    faults = []
    for job_id in draw(st.lists(_NAMES, max_size=4, unique=True)):
        if draw(st.booleans()):
            faults.append(FaultSpec(STEP_OVERRUN, job_id, multiplier=draw(st.integers(1, 10))))
        if draw(st.booleans()):
            faults.append(FaultSpec(NODE_FAULT, job_id, times=draw(st.integers(1, 5))))
    for site_id in ids:  # windows between consecutive edges: neighbours touch
        edges = sorted(draw(st.lists(st.integers(0, 2000), max_size=5, unique=True)))
        for window in zip(edges, edges[1:]):
            if draw(st.booleans()):
                faults.append(FaultSpec(GLOBAL_STALL, site_id, window=window))
    return SiteFileContents(
        sites=sites,
        queue_waits=queue_waits,
        grace_minutes=draw(st.none() | st.integers(0, 60)),
        tick_minutes=draw(st.none() | st.integers(1, 60)),
        faults=draw(st.permutations(faults)),
    )


@settings(max_examples=150, deadline=None)
@given(site_file_contents())
def test_sites_round_trip_is_identity(contents):
    assert parse_sites_text(emit_sites(contents)) == contents
