"""Record runs and an evaluation killed with SIGKILL at chosen points, then rerun.

A child process records a run with the real client and CLI against
``LocalEndpoint``, and kills itself at the point the test names by wrapping
the call at that point, a post, the ``os.write`` of a cache line or the one
writer of whole files (``engine._write_whole``) among them; the program has
no hook for it. After the kill, every table in the run directory, and its
metadata, is whole: it equals the uninterrupted run's or is absent. A rerun
into the same run directory and cache gives the uninterrupted run's bytes,
fetching again a cache line the kill tore, and leaves a cache whose next
open loads its saved index; so does a third run after a rerun killed too.
An evaluation killed inside a report table leaves only whole reports, and a
rerun the uninterrupted reports.
"""

import json
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import pytest

import chunkcode as cc
from chunkcode import llm_client, report
from local_endpoint import LocalEndpoint

RECORDER = """if True:
    import itertools, os, signal, sys
    from pathlib import Path
    from chunkcode import cli, engine, llm_client, report

    point, *args = sys.argv[1:]

    def die(*_):
        os.kill(os.getpid(), signal.SIGKILL)

    if point.startswith("index"):
        replace = os.replace

        def replacing(src, dst):
            saving = Path(dst).name == "index"
            if saving and point == "index before its rename":
                die()
            replace(src, dst)
            if saving:
                die()

        os.replace = replacing
    elif point == "between the tables":
        report.write_consensus_csv = die
    elif point == "after the tables":
        write_run_outputs = report.write_run_outputs

        def writing_outputs(*args):
            write_run_outputs(*args)
            die()

        report.write_run_outputs = writing_outputs
    elif point.startswith("inside cache line "):
        write, lines = os.write, itertools.count(1)

        def writing(fd, data):
            # A cache line: 64 hex digits of key, a tab, the entry.
            if data[64:65] == b"\t" and next(lines) == int(point.rpartition(" ")[2]):
                write(fd, data[: len(data) // 2])
                die()
            return write(fd, data)

        os.write = writing
    elif point.startswith("after answer "):
        post, answers = llm_client._Transport.post, itertools.count(1)

        def answering(self, body):
            answer = post(self, body)
            if next(answers) == int(point.rpartition(" ")[2]):
                die()
            return answer

        llm_client._Transport.post = answering
    elif point.startswith(("inside ", "after run_meta.json")):
        write_whole = engine._write_whole

        def cut_short(temp, path):
            # In place of the rename: a kill while the temp file is written.
            with open(temp, "r+b") as fh:
                fh.truncate(os.fstat(fh.fileno()).st_size // 2)
            die()

        def writing_whole(path, text):
            name = Path(path).name
            if point == "inside " + name:
                os.replace = cut_short
            write_whole(path, text)
            if point.startswith("after " + name):
                die()

        engine._write_whole = writing_whole
    cli.main(args)
"""

# The recorder runs at the default in-flight count: 12 threads serve the run's
# 12 cells, and its 30 answers arrive with other posts in flight.
OVER_AN_EARLIER_RUN = "after run_meta.json, over an earlier run"
KILL_POINTS = [
    "after answer 1", "after answer 15", "after answer 29", "index before its rename", "index after its rename",
    "between the tables", "inside iteration_results.csv", "inside consensus.csv", "inside run_meta.json",
    "inside failures.json", OVER_AN_EARLIER_RUN,
]
# Kill points that need a run with failed cells: chunks of 5 words exceed a
# 4-word limit, so doc-a's 6 cells fail, doc-b's 6 are coded and the run exits 2.
FAILING_POINTS = {"inside failures.json"}
TABLES = (report.ITERATION_RESULTS_NAME, report.FAILURES_NAME, report.CONSENSUS_NAME)
OUTPUTS = (report.RUN_META_NAME, report.RECORDS_NAME, report.ITERATION_RESULTS_NAME, report.CONSENSUS_NAME)


@pytest.fixture(scope="module")
def recorder(tmp_path_factory):
    """Runs ``RECORDER`` at a kill point into a run directory and a cache, and
    the uninterrupted run's directory."""
    workspace = tmp_path_factory.mktemp("kills")
    docs = {"doc-a": " ".join(f"alpha{i}" for i in range(9)), "doc-b": " ".join(f"beta{i}" for i in range(4))}
    for doc_id, text in docs.items():
        (workspace / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    manifest = workspace / "manifest.json"
    manifest.write_text(json.dumps([{"doc_id": d, "path": f"{d}.txt"} for d in docs]), encoding="utf-8")
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cc.__file__))

    with LocalEndpoint() as endpoint:
        env[llm_client.BASE_URL_ENV] = endpoint.url

        def command(point, *args):
            done = subprocess.run(
                [sys.executable, "-c", RECORDER, point, *map(str, args)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            return done.returncode

        def record(point, name, failing=False):
            limits = ["--chunk-size", 5, "--max-prompt-words", 4] if failing else ["--chunk-size", 3]
            status = command(
                point, "run", "--manifest", manifest, "--model", "m", *limits, "--iterations", 2,
                "--cache-mode", "record", "--cache-dir", workspace / f"cache {name}",
                "--out", workspace / name,
            )
            return status, workspace / name, workspace / f"cache {name}"

        def earlier_run(name):
            """A finished mock run into ``name`` with other settings, some of
            its cells failed, so that it leaves every table."""
            status = command(
                "none", "run", "--manifest", manifest, "--model", "m", "--chunk-size", 5,
                "--max-prompt-words", 4, "--iterations", 3, "--word-boundary", "--cache-mode", "mock",
                "--out", workspace / name,
            )
            assert status == 2
            left = {path.name for path in (workspace / name).iterdir()}
            assert left == {report.RUN_META_NAME, report.RECORDS_NAME, *TABLES}

        status, full, _ = record("none", "full")
        assert status == 0
        status, full_failing, _ = record("none", "full failing", failing=True)
        assert status == 2
        assert (full_failing / report.FAILURES_NAME).exists()
        yield SimpleNamespace(
            record=record, command=command, earlier_run=earlier_run, workspace=workspace,
            fulls={False: full, True: full_failing},
        )


def assert_killed_leaving_whole_tables(status, out, full):
    assert status == -signal.SIGKILL  # killed at the point
    records = out / report.RECORDS_NAME
    assert records.exists()  # truncated before run_meta.json is written
    assert (full / report.RECORDS_NAME).read_bytes().startswith(records.read_bytes())
    for name in (report.RUN_META_NAME, *TABLES):
        if (out / name).exists():
            assert (full / name).exists() and (out / name).read_bytes() == (full / name).read_bytes(), name


def assert_uninterrupted(status, out, cache, full, failing=False):
    assert status == (2 if failing else 0)
    for name in OUTPUTS + ((report.FAILURES_NAME,) if failing else ()):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    assert sorted(path.name for path in out.iterdir()) == sorted(path.name for path in full.iterdir())
    names = llm_client._segment_names(os.listdir(cache))
    assert llm_client._load_index(cache, names) is not None


def cache_keys(segment):
    """The keys of a segment's whole lines, in order."""
    return [line[:64] for line in segment.read_bytes().splitlines(keepends=True) if line.endswith(b"\n")]


@pytest.mark.parametrize("point", KILL_POINTS)
def test_a_kill_leaves_whole_tables_and_a_rerun_the_uninterrupted_bytes(recorder, point):
    record = recorder.record
    failing = point in FAILING_POINTS
    full = recorder.fulls[failing]
    if point == OVER_AN_EARLIER_RUN:
        recorder.earlier_run(point)
    status, out, cache = record(point, point, failing)
    assert_killed_leaving_whole_tables(status, out, full)

    status, _, _ = record("none", point, failing)
    assert_uninterrupted(status, out, cache, full, failing)


def test_a_kill_inside_a_cache_line_is_fetched_again(recorder):
    full = recorder.fulls[False]
    status, out, cache = recorder.record("inside cache line 7", "inside cache line 7")
    assert_killed_leaving_whole_tables(status, out, full)
    [torn] = llm_client._segment_names(os.listdir(cache))
    text = (cache / torn).read_bytes()
    assert text.count(b"\n") == 6 and not text.endswith(b"\n")  # half its 7th line

    status, _, _ = recorder.record("none", "inside cache line 7")
    assert_uninterrupted(status, out, cache, full)
    first, rerun = llm_client._segment_names(os.listdir(cache))
    assert first == torn
    assert text.rpartition(b"\n")[2][:64] in cache_keys(cache / rerun)
    assert len(set(cache_keys(cache / first) + cache_keys(cache / rerun))) == 30


def test_a_kill_after_the_tables_is_indexed_by_a_rerun_that_appends_nothing(recorder):
    full = recorder.fulls[False]
    status, out, cache = recorder.record("after the tables", "after the tables")
    assert_killed_leaving_whole_tables(status, out, full)
    for name in OUTPUTS:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    # Every answer was cached, but the close that saves the index never ran.
    segments = llm_client._segment_names(os.listdir(cache))
    assert llm_client._load_index(cache, segments) is None

    status, _, _ = recorder.record("none", "after the tables")
    assert_uninterrupted(status, out, cache, full)
    assert llm_client._segment_names(os.listdir(cache)) == segments


def test_a_rerun_killed_again_is_resumed_by_a_third_run(recorder):
    full = recorder.fulls[False]
    status, out, cache = recorder.record("after answer 15", "killed twice")
    assert_killed_leaving_whole_tables(status, out, full)
    status, _, _ = recorder.record("after answer 5", "killed twice")
    assert_killed_leaving_whole_tables(status, out, full)
    status, _, _ = recorder.record("none", "killed twice")
    assert_uninterrupted(status, out, cache, full)


@pytest.mark.parametrize("name", ["kappa.csv", "merged_ratings.csv"])
def test_an_evaluate_kill_inside_a_report_leaves_only_whole_reports(recorder, name):
    workspace, full = recorder.workspace, recorder.fulls[False]
    manual = workspace / "manual.csv"
    rows = [
        f"{doc},{dim},{'T' if (i + j) % 2 else 'F'},{'T' if i % 2 else 'F'},F"
        for i, doc in enumerate(("doc-a", "doc-b"))
        for j, dim in enumerate(cc.default_codebook().ids)
    ]
    manual.write_text("doc_id,dimension_id,r1,r2,r3\n" + "\n".join(rows) + "\n", encoding="utf-8")

    def evaluate(point, out):
        return recorder.command(point, "evaluate", "--manual", manual, "--run", full, "--out", workspace / out)

    assert evaluate("none", "reports") == 0
    reports = {path.name: path.read_bytes() for path in (workspace / "reports").iterdir()}
    assert len(reports) == 13

    killed = workspace / f"reports killed inside {name}"
    assert evaluate("inside " + name, killed.name) == -signal.SIGKILL
    left = {path.name for path in killed.iterdir()}
    # merged_ratings.csv is written last.
    assert name + ".part" in left and name not in left and "merged_ratings.csv" not in left
    for written in left - {name + ".part"}:
        assert (killed / written).read_bytes() == reports[written], written

    assert evaluate("none", killed.name) == 0
    assert {path.name: path.read_bytes() for path in killed.iterdir()} == reports
