import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import chunkcode as cc
from chunkcode import agreement, engine, llm_client, report
from chunkcode.cli import _mock_truth, main
from fake_transport import FakeTransport, completion, hashed_answer, post_through, reply
from local_endpoint import LocalEndpoint

CODEBOOK_ENTRIES = [
    {"id": "fidelity", "name": "Fidelity", "definition": "How faithful."},
    {"id": "use-cases", "name": "Use-Cases", "definition": "What for."},
    {"id": "state", "name": "State", "definition": "State tracking."},
]


@pytest.fixture
def workspace(tmp_path):
    """A corpus of two small documents plus manifest and codebook files."""
    (tmp_path / "a.txt").write_text(" ".join(f"alpha{i}" for i in range(12)), encoding="utf-8")
    (tmp_path / "b.txt").write_text(" ".join(f"beta{i}" for i in range(5)), encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps([{"doc_id": "doc-a", "path": "a.txt"}, {"doc_id": "doc-b", "path": "b.txt"}]),
        encoding="utf-8",
    )
    codebook = tmp_path / "codebook.json"
    codebook.write_text(json.dumps(CODEBOOK_ENTRIES), encoding="utf-8")
    manual = tmp_path / "manual.csv"
    manual.write_text(
        "doc_id,dimension_id,rater_1,rater_2,rater_3\n"
        "doc-a,fidelity,T,T,F\n"
        "doc-a,use-cases,T,T,T\n"
        "doc-a,state,F,F,T\n"
        "doc-b,fidelity,F,F,F\n"
        "doc-b,use-cases,T,F,T\n"
        "doc-b,state,F,T,F\n",
        encoding="utf-8",
    )
    return tmp_path


def cli(*args):
    """Run ``chunkcode ARGS...`` in-process. The result holds the exit code,
    stdout and stderr together as ``output``, and as ``exception`` the
    ``SystemExit`` of a nonzero exit or any other exception raised (exit 1)."""
    output, exception = io.StringIO(), None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            exception = exc if exc.code else None
        except Exception as exc:
            exception = exc
    exit_code = 0 if exception is None else exception.code if isinstance(exception, SystemExit) else 1
    return SimpleNamespace(exit_code=exit_code, output=output.getvalue(), exception=exception)


def run_args(ws, out, **overrides):
    args = {
        "--manifest": ws / "manifest.json",
        "--codebook": ws / "codebook.json",
        "--model": "mock-model",
        "--strategy": "chunk",
        "--chunk-size": 5,
        "--iterations": 5,
        "--cache-mode": "mock",
        "--seed": 7,
        "--out": out,
    }
    args.update(overrides)
    return [x for pair in args.items() for x in pair]


class TestRunCommand:
    def test_mock_run_writes_outputs(self, workspace):
        out = workspace / "out"
        result = cli("run", *run_args(workspace, out))
        assert result.exit_code == 0, result.output
        for name in (
            report.RUN_META_NAME,
            report.RECORDS_NAME,
            report.ITERATION_RESULTS_NAME,
            report.CONSENSUS_NAME,
        ):
            assert (out / name).is_file()
        assert not (out / report.FAILURES_NAME).exists()
        # doc-a: 12 words / 5 -> 3 chunks, doc-b: 1 chunk; x3 dims x5 iters
        records = list(engine.read_records_jsonl(out / report.RECORDS_NAME))
        assert len(records) == (3 + 1) * 3 * 5

    def test_mock_runs_are_byte_identical(self, workspace):
        out1, out2 = workspace / "out1", workspace / "out2"
        assert cli("run", *run_args(workspace, out1)).exit_code == 0
        assert cli("run", *run_args(workspace, out2)).exit_code == 0
        for name in (report.RUN_META_NAME, report.RECORDS_NAME, report.CONSENSUS_NAME):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_changes_records(self, workspace):
        out1, out2 = workspace / "s1", workspace / "s2"
        cli("run", *run_args(workspace, out1, **{"--seed": 1}))
        cli("run", *run_args(workspace, out2, **{"--seed": 2}))
        assert (out1 / report.RECORDS_NAME).read_bytes() != (
            out2 / report.RECORDS_NAME
        ).read_bytes()

    def test_clean_rerun_removes_stale_failure_manifest(self, workspace):
        out = workspace / "out"
        # doc-a (12 words) exceeds the limit, doc-b (5 words) does not
        failing = cli(
            "run",
            *run_args(workspace, out, **{"--strategy": "whole", "--max-prompt-words": 10}),
        )
        assert failing.exit_code == 2, failing.output
        assert (out / report.FAILURES_NAME).is_file()

        clean = cli("run", *run_args(workspace, out, **{"--strategy": "whole"}))
        assert clean.exit_code == 0, clean.output
        assert not (out / report.FAILURES_NAME).exists()

    def test_invalid_corpus_leaves_previous_run_intact(self, workspace):
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out)).exit_code == 0
        records = (out / report.RECORDS_NAME).read_bytes()

        (workspace / "e.txt").write_text("", encoding="utf-8")
        manifest = json.loads((workspace / "manifest.json").read_text(encoding="utf-8"))
        bad_manifest = workspace / "bad_manifest.json"
        bad_manifest.write_text(
            json.dumps([*manifest, {"doc_id": "e", "path": "e.txt"}]), encoding="utf-8"
        )
        result = cli("run", *run_args(workspace, out, **{"--manifest": bad_manifest}))
        assert result.exit_code == 1
        assert "document 'e' has no words" in result.output
        assert (out / report.RECORDS_NAME).read_bytes() == records

        empty_manifest = workspace / "empty_manifest.json"
        empty_manifest.write_text("[]", encoding="utf-8")
        fresh = workspace / "fresh"
        result = cli("run", *run_args(workspace, fresh, **{"--manifest": empty_manifest}))
        assert result.exit_code == 1
        assert "corpus is empty" in result.output
        assert not (fresh / report.RECORDS_NAME).exists()

    def test_chunk_index_at_the_limit_is_refused_before_anything_is_created(self, workspace, monkeypatch):
        # doc-a has 12 words: chunk indices 0-2 at chunk size 5, 0-1 at 6.
        monkeypatch.setattr(engine, "CHUNK_INDEX_LIMIT", 2)
        out = workspace / "out"
        result = cli("run", *run_args(workspace, out))
        assert result.exit_code == 1
        assert "document 'doc-a' has 12 words: at chunk size 5 its chunk indices would reach 2" in result.output
        assert not out.exists()
        assert cli("run", *run_args(workspace, out, **{"--chunk-size": 6})).exit_code == 0
        assert cli("run", *run_args(workspace, workspace / "whole", **{"--strategy": "whole"})).exit_code == 0

    def test_dimension_id_doc_id_is_refused_before_anything_is_created(self, workspace):
        codebook = workspace / "doc_id_codebook.json"
        entries = [{"id": "doc_id", "name": "Doc", "definition": "D."}, CODEBOOK_ENTRIES[2]]
        codebook.write_text(json.dumps(entries), encoding="utf-8")
        out = workspace / "out"
        result = cli("run", *run_args(workspace, out, **{"--codebook": codebook}))
        assert result.exit_code == 1
        assert "error: dimension id 'doc_id' is reserved" in result.output
        assert not out.exists()

    def test_mock_truth_is_one_per_cell_whatever_the_doc_id(self):
        for doc_id in ("doc-a", "2021/report", "a/i9/b"):
            for dim_id in ("fidelity", "use-cases", "state", "d/i1", "x", "y"):
                cell = f"{doc_id}/{dim_id}".encode("utf-8")
                truth = hashlib.sha256(cell).digest()[0] % 2 == 0
                tags = [engine.cell_tag(doc_id, dim_id, i, c) for i in (1, 2, 15) for c in (None, 0, 3)]
                assert {_mock_truth(cc.PromptRequest("m", "p", tag)) for tag in tags} == {truth}

    def test_cold_replay_exits_one_with_cache_miss(self, workspace):
        out = workspace / "out"
        cache = workspace / "cache"
        cache.mkdir()
        result = cli(
            "run",
            *run_args(workspace, out, **{"--cache-mode": "replay", "--cache-dir": cache}),
        )
        assert result.exit_code == 1
        assert "no cached response" in result.output

    def test_replay_writes_nothing_to_the_cache_directory(self, workspace):
        missing = workspace / "missing"
        result = cli(
            "run",
            *run_args(workspace, workspace / "cold", **{"--cache-mode": "replay", "--cache-dir": missing}),
        )
        assert result.exit_code == 1
        assert "no cached response" in result.output
        assert not missing.exists()

        cache = workspace / "cache"
        options = {"--cache-mode": "record", "--cache-dir": cache, "--iterations": 2}
        with post_through(StaticTransport("The paper does not focus on it.")):
            assert cli("run", *run_args(workspace, workspace / "rec", **options)).exit_code == 0

        def listing():
            return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in [cache, *cache.iterdir()]}

        before = listing()
        for iterations, exit_code in ((2, 0), (3, 2)):  # iteration 3 misses
            options = {"--cache-mode": "replay", "--cache-dir": cache, "--iterations": iterations}
            result = cli("run", *run_args(workspace, workspace / f"rep{iterations}", **options))
            assert result.exit_code == exit_code, result.output
        assert listing() == before

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_a_cache_holding_flat_entries_exits_one_creating_nothing(self, workspace, old_cache_entry, mode):
        cache = workspace / "cache"
        cache.mkdir()
        shutil.copy(old_cache_entry, cache)
        out = workspace / "out"
        transport = StaticTransport("nothing should be sent")
        with post_through(transport):
            result = cli("run", *run_args(workspace, out, **{"--cache-mode": mode, "--cache-dir": cache}))
        assert result.exit_code == 1
        assert result.output == (
            f"error: request cache {cache} holds 1 flat entries (one file per key), a layout no longer read;"
            f" convert them once with: python scripts/convert_flat_cache.py --cache-dir {cache}\n"
        )
        assert transport.calls == 0
        assert not out.exists()
        assert [path.name for path in cache.iterdir()] == [old_cache_entry.name]

    @pytest.mark.parametrize(
        "mode, option, value, reason",
        [
            ("live", "--cache-dir", "cache", "only record and replay use a cache"),
            ("mock", "--cache-dir", "cache", "only record and replay use a cache"),
            ("live", "--flip-probability", "0.1", "only mock mode flips answers"),
            ("record", "--flip-probability", "0.2", "only mock mode flips answers"),
            ("replay", "--flip-probability", "0.2", "only mock mode flips answers"),
        ],
    )
    def test_an_option_the_cache_mode_ignores_exits_one_creating_nothing(
        self, workspace, mode, option, value, reason
    ):
        # A live run given --cache-dir would pay for answers it never caches.
        out, cache = workspace / "out", workspace / "cache"
        options = {"--cache-mode": mode, option: value}
        if mode in ("record", "replay"):
            options["--cache-dir"] = cache
        transport = StaticTransport("nothing should be sent")
        with post_through(transport):
            result = cli("run", *run_args(workspace, out, **options))
        assert result.exit_code == 1
        assert result.output == f"error: --cache-mode {mode} takes no {option}: {reason}\n"
        assert transport.calls == 0
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_seed_is_taken_and_recorded_in_every_mode(self, workspace, mode):
        out = workspace / "out"
        options = {"--cache-mode": mode, "--seed": 5, "--iterations": 1}
        if mode == "record":
            options["--cache-dir"] = workspace / "cache"
        with post_through(StaticTransport("The paper does not focus on it.")):
            result = cli("run", *run_args(workspace, out, **options))
        assert result.exit_code == 0, result.output
        meta = json.loads((out / report.RUN_META_NAME).read_text(encoding="utf-8"))
        assert (meta["cache_mode"], meta["seed"]) == (mode, 5)

    def test_invalid_config_exits_one(self, workspace):
        result = cli("run", *run_args(workspace, workspace / "out", **{"--chunk-size": 0}))
        assert result.exit_code == 1
        assert "chunk_size" in result.output

    def test_max_inflight_below_one_exits_one(self, workspace):
        out = workspace / "out"
        result = cli("run", *run_args(workspace, out, **{"--max-inflight": 0}))
        assert result.exit_code == 1
        assert "max_inflight must be >= 1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("limit", [0, -3])
    def test_max_prompt_words_below_one_exits_one(self, workspace, limit):
        out = workspace / "out"
        result = cli("run", *run_args(workspace, out, **{"--max-prompt-words": limit}))
        assert result.exit_code == 1
        assert f"max_prompt_words must be >= 1, got {limit}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("key, position", [("sk-secret\n", 10), ("sk-secr\u20act", 8)])
    def test_api_key_not_visible_ascii_exits_one_without_echoing_it(
        self, workspace, monkeypatch, key, position
    ):
        """A key that cannot be a Bearer token is refused before anything is
        written or posted, by its position; the message never quotes it."""
        monkeypatch.setenv(llm_client.API_KEY_ENV, key)
        out = workspace / "out"
        with LocalEndpoint() as endpoint:
            monkeypatch.setenv(llm_client.BASE_URL_ENV, endpoint.url)
            result = cli("run", *run_args(workspace, out, **{"--cache-mode": "live"}))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        refusal = (
            f"the API key (api_key= or {llm_client.API_KEY_ENV}) has a character that is not"
            f" visible ASCII at position {position}"
        )
        assert refusal in result.output
        assert "secr" not in result.output
        assert not out.exists()
        assert endpoint.posts == []

    @pytest.mark.parametrize("option", ["--out", "--cache-dir"])
    def test_a_directory_under_a_file_exits_one(self, workspace, option):
        """An output or cache directory that cannot be made is reported, not a traceback."""
        (workspace / "afile").write_text("", encoding="utf-8")
        blocked = workspace / "afile" / "sub"
        options = {option: blocked, "--cache-mode": "mock" if option == "--out" else "record"}
        result = cli("run", *run_args(workspace, workspace / "out", **options))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output and str(blocked) in result.output

    def test_record_mode_resumes_from_cache(self, workspace):
        """A rerun in record mode is served by the cache: no new transport calls."""
        transport = StaticTransport("Yes, the parameter is mentioned.")
        cache = workspace / "cache"
        with post_through(transport):
            first = cli(
                "run",
                *run_args(
                    workspace,
                    workspace / "out1",
                    **{"--cache-mode": "record", "--cache-dir": cache, "--iterations": 2},
                ),
            )
            assert first.exit_code == 0, first.output
            network_calls = transport.calls
            assert network_calls == (3 + 1) * 3 * 2

            second = cli(
                "run",
                *run_args(
                    workspace,
                    workspace / "out2",
                    **{"--cache-mode": "record", "--cache-dir": cache, "--iterations": 2},
                ),
            )
        assert second.exit_code == 0, second.output
        assert transport.calls == network_calls  # fully served by the cache
        assert (workspace / "out1" / report.RECORDS_NAME).read_bytes() == (
            workspace / "out2" / report.RECORDS_NAME
        ).read_bytes()

    def test_replay_after_record_reproduces_run(self, workspace):
        self.record_then_replay(workspace, "The paper does not focus on it.")

    def test_answer_with_a_lone_surrogate_is_recorded_and_replayed(self, workspace):
        self.record_then_replay(workspace, "Yes, bad \ud800 text")
        assert "Yes, bad \\ud800 text" in (workspace / "rep" / report.RECORDS_NAME).read_text()

    def record_then_replay(self, workspace, answer):
        """Record a run whose every answer is ``answer``, replay its cache, and
        check both runs exit 0 with the same records bytes."""

        cache = workspace / "cache"
        with post_through(StaticTransport(answer)):
            recorded = cli(
                "run",
                *run_args(workspace, workspace / "rec", **{"--cache-mode": "record", "--cache-dir": cache}),
            )
        assert recorded.exit_code == 0, recorded.output
        replayed = cli(
            "run",
            *run_args(workspace, workspace / "rep", **{"--cache-mode": "replay", "--cache-dir": cache}),
        )
        assert replayed.exit_code == 0, replayed.output
        assert (workspace / "rec" / report.RECORDS_NAME).read_bytes() == (
            workspace / "rep" / report.RECORDS_NAME
        ).read_bytes()


class StaticTransport(FakeTransport):
    """Answers every prompt with ``text``."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def answer(self, prompt):
        return completion(self.text)


class TestCrashAndResume:
    """A record run stopped after some prompts, then rerun in record mode into
    the same cache, leaves the same bytes as a run never stopped."""

    OUTPUTS = (
        report.RECORDS_NAME,
        report.ITERATION_RESULTS_NAME,
        report.CONSENSUS_NAME,
        report.RUN_META_NAME,
    )

    def record(self, workspace, transport, name, max_inflight):
        options = {
            "--cache-mode": "record",
            "--cache-dir": workspace / f"cache_{name}",
            "--iterations": 3,
            "--max-inflight": max_inflight,
        }
        with post_through(transport):
            return cli("run", *run_args(workspace, workspace / name, **options))

    @pytest.mark.parametrize("max_inflight", [1, 8])
    @pytest.mark.parametrize("stop", ["session raises", "sink interrupted"])
    def test_resume_gives_the_bytes_of_an_uninterrupted_run(
        self, workspace, monkeypatch, stop, max_inflight
    ):
        full = FakeTransport()
        assert self.record(workspace, full, "full", max_inflight).exit_code == 0
        assert full.calls == (3 + 1) * 3 * 3

        k = 7
        with monkeypatch.context() as patch:
            if stop == "session raises":
                transport = FakeTransport(fail_after=k)
            else:
                # All 18 cells fit the dispatch window, so the workers could
                # answer every prompt before the sink raises. The last post
                # therefore waits for the interrupt and is cut off by it, as
                # a request in flight when the run is stopped may be.
                interrupted = threading.Event()
                transport = FakeTransport(fail_after=full.calls - 1, hold=interrupted)
                sunk = []

                def interrupting(record, to_json=engine.record_to_json):
                    if len(sunk) == k:
                        interrupted.set()
                        raise KeyboardInterrupt
                    sunk.append(record)
                    return to_json(record)

                patch.setattr(engine, "record_to_json", interrupting)
            stopped = self.record(workspace, transport, "resumed", max_inflight)
        assert stopped.exit_code != 0
        out = workspace / "resumed"
        meta = (out / report.RUN_META_NAME).read_bytes()
        assert meta == (workspace / "full" / report.RUN_META_NAME).read_bytes()
        assert not (out / report.CONSENSUS_NAME).exists()
        written = (out / report.RECORDS_NAME).read_bytes()
        assert written == (workspace / "full" / report.RECORDS_NAME).read_bytes()[: len(written)]
        cache = workspace / "cache_resumed"
        assert [path.name for path in cache.iterdir() if not path.name.startswith("segment-")] == [llm_client.INDEX_NAME]
        cached = sum(segment.read_bytes().count(b"\n") for segment in cache.glob("segment-*"))
        assert 0 < cached < full.calls

        resumed = FakeTransport()
        assert self.record(workspace, resumed, "resumed", max_inflight).exit_code == 0
        assert resumed.calls == full.calls - cached
        for name in self.OUTPUTS:
            assert (out / name).read_bytes() == (workspace / "full" / name).read_bytes(), name
        assert not (out / report.FAILURES_NAME).exists()


def test_interrupted_rerun_leaves_only_its_own_run(workspace, monkeypatch):
    """A rerun into a run directory replaces the earlier run's metadata and
    tables before its first record, so stopping it leaves an incomplete run
    of the new model, not a mixture of two runs."""
    out = workspace / "run"
    assert cli("run", *run_args(workspace, out, **{"--model": "m1"})).exit_code == 0
    # stands in for the failure manifest of an earlier run with failed cells
    (out / report.FAILURES_NAME).write_text("[]\n", encoding="utf-8")

    sunk = []

    def interrupting(record, to_json=engine.record_to_json):
        if len(sunk) == 5:
            raise KeyboardInterrupt
        sunk.append(record)
        return to_json(record)

    monkeypatch.setattr(engine, "record_to_json", interrupting)
    rerun = cli("run", *run_args(workspace, out, **{"--model": "m2", "--strategy": "whole"}))
    assert rerun.exit_code != 0
    meta = json.loads((out / report.RUN_META_NAME).read_text(encoding="utf-8"))
    assert (meta["model"], meta["strategy"]) == ("m2", "whole")
    for name in (report.ITERATION_RESULTS_NAME, report.CONSENSUS_NAME, report.FAILURES_NAME):
        assert not (out / name).exists(), name
    assert len((out / report.RECORDS_NAME).read_text(encoding="utf-8").splitlines()) == 5

    result = cli(
        "evaluate", "--manual", workspace / "manual.csv", "--run", out,
        "--out", workspace / "reports",
    )
    assert result.exit_code == 1
    assert f"run {out} is incomplete" in result.output


def test_a_loaded_run_is_a_named_tuple_that_computes_its_codes_and_agreement_on_read(workspace):
    out = workspace / "run"
    assert cli("run", *run_args(workspace, out)).exit_code == 0
    run = report.load_run(out)
    assert run._fields == ("model", "strategy", "iteration_results", "consensus")
    assert run == report.RunData(*run) == tuple(run)
    assert run.rater_id == "llm_mock-model_chunk"
    assert run.consensus_codes == {subject: c.value for subject, c in run.consensus.items()}
    assert run.internal == engine.internal_agreement(run.consensus)
    # A run without cells is built, so that it reaches the subject-set check.
    empty = report.RunData("m", "chunk", [], {})
    with pytest.raises(ValueError):
        empty.internal


@pytest.mark.parametrize("cause", ["stopped before its first record", "one pair failed every iteration"])
def test_listed_cells_without_records_make_a_run_incomplete(workspace, monkeypatch, cause):
    """Cells that ``run_meta.json`` lists and no record holds are refused
    as an incomplete run, as a cell lacking some iterations is, before the
    subject sets are compared."""
    out = workspace / "run"
    if cause == "stopped before its first record":
        def interrupting(record):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "record_to_json", interrupting)
        assert cli("run", *run_args(workspace, out, **{"--strategy": "whole"})).exit_code != 0
        assert (out / report.RECORDS_NAME).read_bytes() == b""
        missing = [(doc, dim) for doc in ("doc-a", "doc-b") for dim in ("fidelity", "use-cases", "state")]
    else:
        def answer(request):
            if request.tag.startswith("doc-b/state/"):
                raise cc.TransportError("refused")
            return "Yes, the parameter is mentioned."

        cfg = cc.RunConfig(model="mock-model", strategy="whole", iterations=5)
        corpus = cc.load_manifest(workspace / "manifest.json")
        cb = cc.load_codebook(workspace / "codebook.json")
        result = report.write_run(out, corpus, cb, cfg, cc.LLMClient(mode="mock", mock=answer))
        assert {(f.doc_id, f.dimension_id) for f in result.failures} == {("doc-b", "state")}
        assert (out / report.FAILURES_NAME).is_file()
        missing = [("doc-b", "state")]

    result = cli("evaluate", "--manual", workspace / "manual.csv", "--run", out, "--out", workspace / "reports")
    assert result.exit_code == 1
    assert result.output == (
        f"error: run {out} is incomplete: {len(missing)} cell(s) lack iterations; rerunning it in"
        " record mode into the same cache completes them\n"
        + "".join(f"cell {cell} lacks iteration(s) [1, 2, 3, 4, 5]\n" for cell in missing)
    )
    assert not (workspace / "reports").exists()


class TestConsensusCommand:
    def test_recomputes_consensus_from_records(self, workspace):
        out = workspace / "out"
        cli("run", *run_args(workspace, out))
        redo = workspace / "redo"
        result = cli("consensus", "--records", out / report.RECORDS_NAME, "--out", redo)
        assert result.exit_code == 0, result.output
        assert (redo / report.CONSENSUS_NAME).read_bytes() == (
            out / report.CONSENSUS_NAME
        ).read_bytes()
        with open(redo / "internal_agreement.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        records = list(engine.read_records_jsonl(out / report.RECORDS_NAME))
        results = engine.iteration_results_from_records(records)
        model_row = [r for r in rows if r["scope"] == "model"][0]
        assert float(model_row["internal_agreement"]) == pytest.approx(
            engine.internal_agreement(engine.consensus_table(results)).model, abs=1e-12
        )

    def test_an_out_directory_under_a_file_exits_one(self, workspace):
        out = workspace / "out"
        cli("run", *run_args(workspace, out))
        (workspace / "afile").write_text("", encoding="utf-8")
        blocked = workspace / "afile" / "c"
        result = cli("consensus", "--records", out / report.RECORDS_NAME, "--out", blocked)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output and str(blocked) in result.output

    def test_a_records_file_without_records_exits_one(self, workspace):
        path = workspace / "empty.jsonl"
        path.write_text("\n", encoding="utf-8")
        dest = workspace / "dest"
        result = cli("consensus", "--records", path, "--out", dest)
        assert result.exit_code == 1
        assert "error: records file holds no results" in result.output
        assert not dest.exists()

    def test_uneven_iterations_are_refused_before_writing(self, workspace):
        out = workspace / "out"
        cli("run", *run_args(workspace, out))
        path = out / report.RECORDS_NAME
        dropped = {("doc-a", "state"), ("doc-b", "fidelity")}
        kept = []
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            r = json.loads(line)
            if (r["doc_id"], r["dimension_id"]) not in dropped or r["iteration"] != 3:
                kept.append(line)
        path.write_text("".join(kept), encoding="utf-8")
        redo = workspace / "redo"
        result = cli("consensus", "--records", path, "--out", redo)
        assert result.exit_code == 1
        assert "2 cell(s) lack iterations" in result.output
        assert "('doc-a', 'state') lacks iteration(s) [3]" in result.output
        assert "('doc-b', 'fidelity') lacks iteration(s) [3]" in result.output
        assert not redo.exists()


@pytest.mark.parametrize("command", ["consensus", "evaluate"])
@pytest.mark.parametrize("strategy", ["whole", "chunk"])
def test_repeated_prompt_record_is_refused_before_writing(workspace, strategy, command):
    out = workspace / "out"
    assert cli("run", *run_args(workspace, out, **{"--strategy": strategy})).exit_code == 0
    path = out / report.RECORDS_NAME
    lines = path.read_text(encoding="utf-8").splitlines()
    record = next(r for r in map(json.loads, lines) if not r["code"])
    record["code"], record["matched_phrase"] = True, "yes"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    dest = workspace / "dest"
    if command == "consensus":
        result = cli("consensus", "--records", path, "--out", dest)
    else:
        result = cli("evaluate", "--manual", workspace / "manual.csv", "--run", out, "--out", dest)
    assert result.exit_code == 1
    assert not dest.exists()
    assert "records repeat 1 prompt(s)" in result.output
    cell = (record["doc_id"], record["dimension_id"])
    assert f"cell {cell} iteration {record['iteration']} chunk {record['chunk_index']}" in result.output


def truncate_last_line(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    return len(lines)


def drop_a_field(lines):
    record = json.loads(lines[1])
    del record["request_key"]
    lines[1] = json.dumps(record)
    return 2


def true_code_without_phrase(lines):
    record = json.loads(lines[2])
    record["code"], record["matched_phrase"] = True, None
    lines[2] = json.dumps(record)
    return 3


def data_after_the_object(suffix):
    def defect(lines):
        lines[1] += suffix
        return 2

    return defect


def not_an_object(lines):
    lines[1] = "[]"
    return 2


# "\udcff" is written as the byte 0xff.
def a_byte_not_utf8(lines):
    lines[2] = lines[2].replace('"doc_id":"', '"doc_id":"\udcff', 1)
    return 3


def only_a_byte_not_utf8(lines):
    lines[:] = ["\udcff"]
    return 1


def a_field_missing_before_a_byte_not_utf8(lines):
    record = json.loads(lines[0])
    del record["doc_id"]
    lines[0] = json.dumps(record)
    lines[1] = "\udcff" + lines[1]
    return 1


def set_field(name, value):
    def defect(lines):
        record = json.loads(lines[1])
        record[name] = value
        lines[1] = json.dumps(record)
        return 2

    return defect


@pytest.mark.parametrize("command", ["consensus", "evaluate"])
@pytest.mark.parametrize(
    "defect, problem",
    [
        (truncate_last_line, "invalid JSON (column"),
        # {column} is the column just past the line as written.
        (data_after_the_object("x"), "invalid JSON (column {column}: Extra data)"),
        (data_after_the_object("{}"), "invalid JSON (column {column}: Extra data)"),
        (drop_a_field, "record lacks field 'request_key'"),
        (not_an_object, "not a JSON object"),
        (a_byte_not_utf8, "not UTF-8 (invalid start byte)"),
        (only_a_byte_not_utf8, "not UTF-8 (invalid start byte)"),
        (a_field_missing_before_a_byte_not_utf8, "record lacks field 'doc_id'"),
        (true_code_without_phrase, "a True code must record its matched phrase"),
        (set_field("doc_id", ["a"]), 'field \'doc_id\' must be a string, not ["a"]'),
        (set_field("iteration", "1"), 'field \'iteration\' must be a positive integer, not "1"'),
        (set_field("iteration", True), "field 'iteration' must be a positive integer, not true"),
        (set_field("code", 1), "field 'code' must be true or false, not 1"),
        (
            set_field("chunk_index", 2**63),
            f"field 'chunk_index' must be below {engine.CHUNK_INDEX_LIMIT}, not {2**63}",
        ),
        (set_field("chunk_index", -1), "field 'chunk_index' must be null or a non-negative integer, not -1"),
        (set_field("matched_phrase", 5), "field 'matched_phrase' must be null or a string, not 5"),
    ],
    ids=[
        "truncated",
        "data after the object",
        "a second object",
        "field missing",
        "not an object",
        "a byte not UTF-8",
        "one line, a byte not UTF-8",
        "a field missing, then a byte not UTF-8",
        "true without phrase",
        "doc_id a list",
        "iteration a string",
        "iteration a bool",
        "code a number",
        "chunk_index 2**63",
        "chunk_index negative",
        "matched_phrase a number",
    ],
)
def test_malformed_record_is_named_by_file_and_line(workspace, command, defect, problem):
    out = workspace / "out"
    assert cli("run", *run_args(workspace, out)).exit_code == 0
    path = out / report.RECORDS_NAME
    lines = path.read_text(encoding="utf-8").splitlines()
    written = list(lines)
    number = defect(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    problem = problem.format(column=len(written[number - 1]) + 1)

    dest = workspace / "dest"
    if command == "consensus":
        result = cli("consensus", "--records", path, "--out", dest)
    else:
        result = cli("evaluate", "--manual", workspace / "manual.csv", "--run", out, "--out", dest)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # refused, not crashed
    assert not dest.exists()
    assert f"error: records file {path}, line {number}: {problem}" in result.output


def test_a_records_line_ends_at_a_newline_byte(workspace):
    out = workspace / "out"
    assert cli("run", *run_args(workspace, out)).exit_code == 0
    path = out / report.RECORDS_NAME
    records = list(engine.read_records_jsonl(path))
    lines = path.read_bytes().splitlines()

    crlf = workspace / "crlf.jsonl"
    crlf.write_bytes(b"".join(line + b"\r\n" for line in lines))
    assert list(engine.read_records_jsonl(crlf)) == records

    lone_cr = workspace / "lone_cr.jsonl"
    lone_cr.write_bytes(b"\r".join(lines) + b"\n")
    with pytest.raises(cc.IngestionError, match=f"line 1: invalid JSON \\(column {len(lines[0]) + 2}: Extra data\\)"):
        list(engine.read_records_jsonl(lone_cr))


def test_records_of_two_runs_are_refused_before_writing(workspace):
    for strategy in ("chunk", "whole"):
        result = cli("run", *run_args(workspace, workspace / strategy, **{"--strategy": strategy}))
        assert result.exit_code == 0, result.output
    mixed = workspace / "mixed.jsonl"
    mixed.write_bytes(
        b"".join((workspace / s / report.RECORDS_NAME).read_bytes() for s in ("chunk", "whole"))
    )

    dest = workspace / "dest"
    result = cli("consensus", "--records", mixed, "--out", dest)
    assert result.exit_code == 1
    assert not dest.exists()
    assert (
        "records mix runs: a record of model 'mock-model', strategy 'whole' follows records"
        " of model 'mock-model', strategy 'chunk'"
    ) in result.output


class TestEvaluateCommand:
    def evaluate(self, workspace, runs=("out",)):
        for name in runs:
            out = workspace / name
            if not out.exists():
                assert cli("run", *run_args(workspace, out)).exit_code == 0
        reports = workspace / "reports"
        result = cli(
            "evaluate",
            "--manual",
            workspace / "manual.csv",
            *[x for name in runs for x in ("--run", workspace / name)],
            "--out",
            reports,
        )
        return result, reports

    def test_writes_all_tables(self, workspace):
        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0, result.output
        for stem in (
            "performance",
            "confusion",
            "per_dimension",
            "kappa",
            "kappa_delta_per_paper",
            "internal_agreement_by_doc",
        ):
            assert (reports / f"{stem}.csv").is_file()
            assert (reports / f"{stem}.md").is_file()

    def test_performance_cells_recompute_from_raw_records(self, workspace):
        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0
        with open(reports / "performance.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))

        run = report.load_run(workspace / "out")
        manual = agreement.read_ratings_csv(workspace / "manual.csv")
        gold = agreement.manual_consensus(manual)
        counts = agreement.confusion(run.consensus_codes, gold)
        assert float(row["internal_agreement"]) == pytest.approx(
            engine.internal_agreement(engine.consensus_table(run.iteration_results)).model, abs=1e-9
        )
        assert float(row["accuracy"]) == pytest.approx(agreement.accuracy(counts), abs=1e-9)
        assert float(row["precision"]) == pytest.approx(agreement.precision(counts), abs=1e-9)
        assert float(row["recall"]) == pytest.approx(agreement.recall(counts), abs=1e-9)

    def test_confusion_counts_sum_to_subjects(self, workspace):
        result, reports = self.evaluate(workspace)
        with open(reports / "confusion.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert sum(int(row[k]) for k in ("tp", "fp", "fn", "tn")) == 6

    def test_kappa_table_flags_bands(self, workspace):
        result, reports = self.evaluate(workspace)
        with open(reports / "kappa.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        manual_row = rows[0]
        manual = agreement.read_ratings_csv(workspace / "manual.csv")
        assert float(manual_row["kappa"]) == pytest.approx(
            agreement.fleiss_kappa(manual), abs=1e-9
        )
        assert manual_row["band"] in (
            "strongly driven by chance",
            "fair agreement beyond chance",
            "strong agreement beyond chance",
        )
        assert float(manual_row["percent_agreement"]) == pytest.approx(
            agreement.percent_agreement(manual), abs=1e-9
        )
        assert manual_row["percent_agreement_flag"] in ("ok", "weak: below 0.90")
        strategies = {row["strategy"] for row in rows}
        assert "chunk (iterations as raters)" in strategies

    def test_merged_ratings_adds_llm_column(self, workspace):
        result, reports = self.evaluate(workspace)
        merged = agreement.read_ratings_csv(reports / "merged_ratings.csv")
        assert merged.raters == ("rater_1", "rater_2", "rater_3", "llm_mock-model_chunk")
        run = report.load_run(workspace / "out")
        assert merged.column("llm_mock-model_chunk") == run.consensus_codes

    def test_markdown_uses_two_decimal_percentages(self, workspace):
        result, reports = self.evaluate(workspace)
        text = (reports / "performance.md").read_text(encoding="utf-8")
        assert re.search(r"\| \d{1,3}\.\d{2}% ", text)

    def test_multiple_runs_one_row_each(self, workspace):
        out2 = workspace / "out2"
        assert (
            cli("run", *run_args(workspace, out2, **{"--strategy": "whole", "--seed": 3})).exit_code
            == 0
        )
        result, reports = self.evaluate(workspace, runs=("out", "out2"))
        assert result.exit_code == 0, result.output
        with open(reports / "performance.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["model"], r["strategy"]) for r in rows] == [
            ("mock-model", "chunk"),
            ("mock-model", "whole"),
        ]

    def test_subject_mismatch_exits_one_with_listing(self, workspace):
        bad_manual = workspace / "bad_manual.csv"
        bad_manual.write_text(
            "doc_id,dimension_id,rater_1,rater_2,rater_3\n"
            "doc-a,fidelity,T,T,F\n"
            "doc-z,fidelity,T,T,F\n",
            encoding="utf-8",
        )
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out)).exit_code == 0
        result = cli(
            "evaluate", "--manual", bad_manual, "--run", out, "--out", workspace / "r"
        )
        assert result.exit_code == 1
        assert "doc-z" in result.output

    def test_manual_ratings_not_utf8_are_refused_naming_the_file(self, workspace):
        manual = workspace / "manual.csv"
        manual.write_bytes(manual.read_bytes().replace(b"doc-b,state", b"doc-b,st\xffate"))
        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # refused, not crashed
        assert not reports.exists()
        assert result.output == f"error: {manual}:7: not UTF-8 (invalid start byte)\n"

    def test_run_missing_iterations_is_refused_before_any_table(self, workspace, monkeypatch):
        def failing_mock(request):
            if request.tag == "doc-a/state/i2":
                raise cc.TransportError("injected failure")
            return "Yes, the parameter is mentioned."

        monkeypatch.setattr(
            "chunkcode.cli._build_client",
            lambda cache_mode, cache_dir, seed, flip_probability, max_inflight: cc.LLMClient(
                mode="mock", mock=failing_mock
            ),
        )
        out = workspace / "out"
        partial = cli("run", *run_args(workspace, out, **{"--strategy": "whole", "--iterations": 3}))
        assert partial.exit_code == 2, partial.output

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert not reports.exists() or not any(reports.iterdir())
        assert "('doc-a', 'state') lacks iteration(s) [2]" in result.output
        assert "record mode" in result.output

    @pytest.mark.parametrize(
        "edit",
        [{"iterations": 4}, {"doc_ids": ["doc-a"]}, {"dimension_ids": ["fidelity", "state"]}],
    )
    def test_results_outside_run_meta_are_refused_before_any_table(self, workspace, edit):
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out)).exit_code == 0
        meta_path = out / report.RUN_META_NAME
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta.update(edit)
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert not reports.exists() or not any(reports.iterdir())
        assert f"outside its {report.RUN_META_NAME}" in result.output
        assert re.search(r"cell \('doc-[ab]', '[a-z-]+'\) iteration \d", result.output)

    @pytest.mark.parametrize(
        "defect, problem",
        [
            (lambda meta, text: json.dumps({k: v for k, v in meta.items() if k != "iterations"}),
             "lacks field 'iterations'"),
            (lambda meta, text: text[:50], "not valid JSON"),
            (lambda meta, text: json.dumps([meta]), "expected a JSON object"),
            (lambda meta, text: json.dumps({**meta, "doc_ids": [["doc-a"], "doc-b"]}),
             "field 'doc_ids' must be a list of strings"),
            (lambda meta, text: json.dumps({**meta, "iterations": 0}),
             "field 'iterations' must be a positive integer, got 0"),
            (lambda meta, text: json.dumps({**meta, "iterations": True}),
             "field 'iterations' must be a positive integer, got True"),
        ],
        ids=["no-iterations", "truncated", "array", "nested-doc-id", "zero-iterations",
             "true-iterations"],
    )
    def test_malformed_run_meta_is_refused_before_any_table(self, workspace, defect, problem):
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out)).exit_code == 0
        meta_path = out / report.RUN_META_NAME
        text = meta_path.read_text(encoding="utf-8")
        meta_path.write_text(defect(json.loads(text), text), encoding="utf-8")

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert not reports.exists()
        assert f"error: {meta_path}: {problem}" in result.output

    @pytest.mark.parametrize("field", ["model", "strategy"])
    def test_record_of_another_run_is_refused_before_any_table(self, workspace, field):
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out)).exit_code == 0
        path = out / report.RECORDS_NAME
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[-1])
        record[field] = "other"
        lines[-1] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert not reports.exists() or not any(reports.iterdir())
        assert f"{field} 'other'" in result.output
        assert f"its {report.RUN_META_NAME} names model 'mock-model', strategy 'chunk'" in result.output

    def kappa_rows(self, reports):
        with open(reports / "kappa.csv", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_single_category_iteration_ratings_give_an_undefined_kappa_row(self, workspace):
        phrases = workspace / "phrases.json"
        phrases.write_text('["parameter"]', encoding="utf-8")  # every mock answer holds it
        out = workspace / "out"
        args = run_args(workspace, out, **{"--strategy": "whole", "--phrases": phrases})
        assert cli("run", *args).exit_code == 0

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0, result.output
        assert len(list(reports.iterdir())) == 13
        row = self.kappa_rows(reports)[-1]
        assert row["strategy"] == "whole (iterations as raters)"
        assert (row["kappa"], row["band"], row["significant"]) == (
            "", "undefined: single-category ratings", ""
        )
        assert (row["raters"], row["percent_agreement"], row["percent_agreement_flag"]) == (
            "5", "1.0", "ok"
        )

    def test_run_coding_nothing_true_gives_an_empty_precision_cell(self, workspace):
        phrases = workspace / "phrases.json"
        phrases.write_text('["xyzzy"]', encoding="utf-8")  # no mock answer holds it
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out, **{"--phrases": phrases})).exit_code == 0

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0, result.output
        assert len(list(reports.iterdir())) == 13
        with open(reports / "performance.csv", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["precision"], row["recall"]) == ("", "0.0")
        assert "| mock-model | chunk |" in (reports / "performance.md").read_text(encoding="utf-8")

    def test_single_iteration_gives_an_undefined_kappa_row(self, workspace):
        out = workspace / "out"
        assert cli("run", *run_args(workspace, out, **{"--iterations": 1})).exit_code == 0

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0, result.output
        assert len(list(reports.iterdir())) == 13
        rows = self.kappa_rows(reports)
        assert rows[-1] == {
            "model": "mock-model",
            "strategy": "chunk (iterations as raters)",
            "kappa": "",
            "band": "undefined: fewer than two raters",
            "significant": "",
            "raters": "1",
            "percent_agreement": "",
            "percent_agreement_flag": "",
        }
        assert all(row["kappa"] for row in rows[:-1])

    def test_one_dimension_codebook_gives_undefined_per_document_kappas(self, workspace):
        (workspace / "codebook.json").write_text(json.dumps(CODEBOOK_ENTRIES[:1]), encoding="utf-8")
        (workspace / "manual.csv").write_text(
            "doc_id,dimension_id,rater_1,rater_2,rater_3\n"
            "doc-a,fidelity,T,T,F\n"
            "doc-b,fidelity,F,F,F\n",
            encoding="utf-8",
        )
        result, reports = self.evaluate(workspace)
        assert result.exit_code == 0, result.output
        assert len(list(reports.iterdir())) == 13
        with open(reports / "kappa_delta_per_paper.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["doc_id"], r["kappa_before"], r["kappa_after"], r["delta"], r["note"]) for r in rows] == [
            ("doc-a", "", "", "", "degenerate: fewer than two subjects"),
            ("doc-b", "", "", "", "degenerate: fewer than two subjects"),
        ]
        assert all(row["kappa"] for row in self.kappa_rows(reports)[:2])  # two subjects over both documents

    def test_single_rater_manual_is_refused_before_any_table(self, workspace):
        manual = workspace / "manual.csv"
        lines = manual.read_text(encoding="utf-8").splitlines()
        one_rater = "".join(line.rsplit(",", 2)[0] + "\n" for line in lines)
        manual.write_text(one_rater, encoding="utf-8")

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert "Fleiss' kappa needs at least two raters" in result.output
        assert not reports.exists()

    @pytest.mark.parametrize("source", ["two runs", "the manual matrix"])
    def test_repeated_rater_id_is_named_before_any_table(self, workspace, source):
        if source == "two runs":
            problem = "another run"
            result, reports = self.evaluate(workspace, runs=("out", "out"))
        else:
            problem = "the manual matrix"
            manual = workspace / "manual.csv"
            text = manual.read_text(encoding="utf-8")
            manual.write_text(text.replace("rater_3", "llm_mock-model_chunk"), encoding="utf-8")
            result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        rater = "rater id 'llm_mock-model_chunk' of a chunk run"
        assert f"error: {rater} is also a rater of {problem}\n" in result.output
        assert not reports.exists()

    def test_evaluate_outputs_are_deterministic(self, workspace):
        _, first = self.evaluate(workspace)
        perf_bytes = (first / "performance.csv").read_bytes()
        result = cli(
            "evaluate",
            "--manual",
            workspace / "manual.csv",
            "--run",
            workspace / "out",
            "--out",
            workspace / "reports2",
        )
        assert result.exit_code == 0
        assert (workspace / "reports2" / "performance.csv").read_bytes() == perf_bytes


# sha256 of each file written by `evaluate` (the 13 report files) and by
# `consensus` (the last two) in test_golden_report_bytes.
GOLDEN_REPORT_SHA256 = {
    "confusion.csv": "ecc493530b297a5870b619ef0dde9db13b0a044ba0c8d19d148c18ae391921c0",
    "confusion.md": "ae104de30393a1a17c3cb7de5adca7273fc106a72e4b8911c0c3cf94b13b30af",
    "internal_agreement_by_doc.csv": "aadf02f65ec7e77749a2f9a978a8272f2d2cfd5fb812a7aae5045aa4378e29e9",
    "internal_agreement_by_doc.md": "1fca7c36d75099bff915b2abea21e826b8a9307f3d42d6c50cc7083f50407cbe",
    "kappa.csv": "11d4aa07a21cb1d50abba656e9ccc573062866736643adb1300de5237d59e5d7",
    "kappa.md": "ac88db1926e3b9a5d7e2754b43f1229eaa71848b3a2eb996e4079a11cd92ecf9",
    "kappa_delta_per_paper.csv": "598dbf4d78515c6f8dc3b4336568b1720cbfd0c1c302473e09317464ad147698",
    "kappa_delta_per_paper.md": "5a592e57734ea4e85f26930b2a6c83cf7f37ef012bed0dda9d85952b7edb2a78",
    "merged_ratings.csv": "e6254b24f31ec00ad07141c0fc6c2080ed4e71e278d7e42d536fd01da6f52720",
    "per_dimension.csv": "39f2c89e596e0e109663c5e3e9e23c0402baa9eef8c17871ce85573b625ee8cc",
    "per_dimension.md": "8b3e7a59981b48289f76af5bbcf4df51912ae74b3eb98a5613f3783936c79f75",
    "performance.csv": "e425bd310cafbcea7ce6cb65af4dac0ce84c2994a905b53536d650c88d4b16d9",
    "performance.md": "d57db79996c389841d2d05471bc3b7b410e7e77b05eebdcc1be1f8825cae86b0",
    "consensus.csv": "3c2fcf98251bd8fbf2bcc31a147338431410936827c3eca08871558412f9c393",
    "internal_agreement.csv": "9a111409f2c3ae058cfc9cf03aa12769c8820fadce5007e0f1ab8d3217b03b41",
}


def test_report_bundle_without_runs_is_refused_before_writing(workspace):
    manual = agreement.read_ratings_csv(workspace / "manual.csv")
    dest = workspace / "reports"
    with pytest.raises(ValueError, match="^a report needs at least one run$"):
        report.write_report_bundle(dest, [], manual)
    assert not dest.exists()


def test_golden_report_bytes(workspace):
    """Pin the bytes of every evaluate table and of the consensus command's
    outputs for a mock chunk run and a mock whole run."""
    for strategy in ("chunk", "whole"):
        out = workspace / strategy
        result = cli("run", *run_args(workspace, out, **{"--strategy": strategy}))
        assert result.exit_code == 0, result.output
    reports = workspace / "reports"
    result = cli(
        "evaluate",
        "--manual", workspace / "manual.csv",
        "--run", workspace / "chunk",
        "--run", workspace / "whole",
        "--out", reports,
    )
    assert result.exit_code == 0, result.output
    redo = workspace / "redo"
    result = cli("consensus", "--records", workspace / "chunk" / report.RECORDS_NAME, "--out", redo)
    assert result.exit_code == 0, result.output

    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in [*reports.iterdir(), *redo.iterdir()]
    }
    assert digests == GOLDEN_REPORT_SHA256


def test_kappa_row_of_one_document_and_one_dimension_is_undefined():
    m = agreement.RatingMatrix(subjects=(("doc", "dim"),), raters=("r1", "r2", "r3"), codes=((True, True, False),))
    row = report._kappa_row("manual", "", m)
    assert (row["kappa"], row["band"], row["significant"]) == (None, "undefined: fewer than two subjects", None)
    assert (row["raters"], row["percent_agreement"]) == (3, pytest.approx(2 / 3))


def test_write_table_csv_refuses_a_row_lacking_a_column(tmp_path):
    with pytest.raises(KeyError, match="b"):
        report.write_table_csv(tmp_path / "t.csv", ["a", "b"], [{"a": 1, "b": 2}, {"a": 3}])
    assert list(tmp_path.iterdir()) == []


def test_a_whole_file_that_cannot_be_renamed_into_place_is_named_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "t.csv").mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        report.write_table_csv(tmp_path / "t.csv", ["a"], [{"a": 1}])
    assert str(raised.value) == f"[Errno 21] Is a directory: '{tmp_path / 't.csv'}'"
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]


# Samples for each route of the stats command, as (groups, extra options),
# and the sha256 of its stdout and of its --out CSV. Stdout rounds to three
# decimals; the CSV keeps every digit of statistic and p-value, so a change
# in any route's arithmetic or method note breaks the pin.
STATS_ROUTES = {
    "mw-exact": ({"a": [1.5, 2.25, 3.0], "b": [4.0, 0.5, 6.0, 7.0]}, ()),
    "mw-approx": (
        {"a": [0.3, 1.7, 2.2, 3.9, 4.4, 5.1, 6.8], "b": [2.6, 3.3, 4.1, 5.9, 7.2, 8.5, 9.0]},
        ("--sides", "less"),
    ),
    "mw-approx-ties": ({"a": [1, 2, 2, 3, 5, 5, 8], "b": [2, 3, 4, 4, 5, 9, 9]}, ()),
    "mw-degenerate": ({"a": [7, 7], "b": [7, 7, 7]}, ()),
    "wilcoxon-exact-zeros": (
        {"s": [10, 10.5, 12.25, 7, 10, 13.5]},
        ("--target", "10", "--sides", "greater"),
    ),
    "wilcoxon-tied": ({"s": [8, 12, 14, 6, 10, 15, 9, 11]}, ("--target", "10")),
    "wilcoxon-zeros": ({"s": [5, 5]}, ("--target", "5")),
    "kw": ({"g1": [1.1, 2.3, 3.5], "g2": [4.2, 5.8, 0.9], "g3": [7.7, 8.1, 9.4]}, ()),
    "kw-ties": ({"g1": [1, 1, 2], "g2": [2, 3, 3], "g3": [3, 4, 4]}, ()),
    "pairwise-bonferroni": (
        {"g1": [1, 2, 9], "g2": [3, 4, 5.5], "g3": [5, 6, 0.25]},
        ("--bonferroni",),
    ),
}
STATS_TESTS = {
    "mw": "mann-whitney",
    "wilcoxon": "wilcoxon",
    "kw": "kruskal-wallis",
    "pairwise": "pairwise-mann-whitney",
}
GOLDEN_STATS_SHA256 = {
    "kw": (
        "3e1ff3adc0b6b59e8b56fde247cd6b63ba2d2aa7449f51506f3a81230911d651",
        "cd54ad075a67800e8d2b3b2c1edaea1d7c20be28e4162eeca1a2079550ad9a3f",
    ),
    "kw-ties": (
        "3f92ee383b27d6203b78102e594b93c47bfc695afb187160159fc4cc4a317a46",
        "5a0f09783eccaa82dd344dcf4e2ffe1cc5c94be66087dc9adfbf387f48107891",
    ),
    "mw-approx": (
        "c15b4b02f1df690d94d8d660981df0cc3e2acb33ad09cc410bc19aca96391f72",
        "d94d5c4777bfad553a4fa75f0462ae1aacad7eea117f2a885b4c4192b5a97b38",
    ),
    "mw-approx-ties": (
        "a33f615c755c7f03b6208107940cba3252b952f5830ce8d164ca5ba847990a5d",
        "7e30b9972b531a2a8c83209f00936a3f3a48b536adc48b1524c79fc9bf139412",
    ),
    "mw-degenerate": (
        "c32ef5c6d6f6216ddc88c4b428ac0b1475ece7b560a78d1fc922a081645dcff6",
        "5e8c197f16f54b707e8d5548c96a80f08e436b5020ea096cc01d6427a0b8f4a0",
    ),
    "mw-exact": (
        "16af2801e14216658c827d66139300d0c292602188204e010eeb6cf3e5011f06",
        "3c34c31b79a5027f653c1ef73617d4b9f17f4010022113170c509737b80f0508",
    ),
    "pairwise-bonferroni": (
        "9b4228edd8b222b9e01600f9e3b801ead0de2582dc5b37d840421e12e2041de4",
        "598384101a027a0327bbcc3b75f63a727ccd2dfcf2e142ea73989b980bc577bb",
    ),
    "wilcoxon-exact-zeros": (
        "4407554390282728e835fbd4fa70dd7aba4932d15fe656f34a0dd0c3292abff5",
        "d4634e04e08e060abe999051070df1494027fb1cc3431591921efa8f70a36365",
    ),
    "wilcoxon-tied": (
        "0e55b76c06cb0baf6ebe42d8d522da03b932ee8bf40d197af376a3673ec907c9",
        "ab5a245cf996c8bb69f1d675989e9442b151bed26e470539333707d17cf5ad06",
    ),
    "wilcoxon-zeros": (
        "7214ba1114abc41d13e77386484fca93d330b6199b12a3e0772c22a64e57d9cd",
        "bb11641a35702d6e7638f0c63566170f2e31acb7912681e340dff0b29f9946c2",
    ),
}


class TestStatsCommand:
    def write_samples(self, path, groups):
        lines = ["group,value"]
        for label, values in groups.items():
            lines += [f"{label},{v}" for v in values]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_kruskal_wallis_matches_library(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(
            path, {"g1": [1, 2, 3], "g2": [4, 5, 6], "g3": [7, 8, 9]}
        )
        result = cli("stats", "--samples", path, "--test", "kruskal-wallis")
        assert result.exit_code == 0, result.output
        from chunkcode import stats as cs

        expected = cs.kruskal_wallis(
            [
                cs.Sample("g1", (1, 2, 3)),
                cs.Sample("g2", (4, 5, 6)),
                cs.Sample("g3", (7, 8, 9)),
            ]
        )
        assert f"{expected.p_value:.3f}" in result.output

    def test_mann_whitney_identical_groups(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(path, {"a": [1, 2, 3], "b": [1, 2, 3]})
        result = cli("stats", "--samples", path, "--test", "mann-whitney")
        assert result.exit_code == 0
        assert "1.000" in result.output

    def test_wilcoxon_degenerate_note(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(path, {"s": [0.9]})
        result = cli("stats", "--samples", path, "--test", "wilcoxon", "--target", "0.9")
        assert result.exit_code == 0
        assert "degenerate" in result.output

    def test_wilcoxon_requires_target(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(path, {"s": [0.9, 0.95]})
        result = cli("stats", "--samples", path, "--test", "wilcoxon")
        assert result.exit_code == 1
        assert "--target" in result.output

    @pytest.mark.parametrize(
        "test_name, options, groups, problem",
        [
            ("mann-whitney", (), {"a": [1], "b": [2], "c": [3]}, "mann-whitney needs exactly two groups, got 3"),
            ("wilcoxon", ("--target", "0.5"), {"a": [1], "b": [2]}, "wilcoxon needs exactly one group, got 2"),
        ],
    )
    def test_wrong_number_of_groups_exits_one(self, tmp_path, test_name, options, groups, problem):
        path = tmp_path / "samples.csv"
        self.write_samples(path, groups)
        result = cli("stats", "--samples", path, "--test", test_name, *options)
        assert result.exit_code == 1
        assert f"error: {problem}" in result.output

    @pytest.mark.parametrize("sides", ["two", "less", "greater"])
    def test_kruskal_wallis_refuses_sides_before_reading_the_samples(self, tmp_path, sides):
        path = tmp_path / "samples.csv"
        path.write_text("not,a samples file\n", encoding="utf-8")
        result = cli("stats", "--samples", path, "--test", "kruskal-wallis", "--sides", sides)
        assert result.exit_code == 1
        assert result.output == "error: kruskal-wallis takes no --sides: its H statistic has no direction\n"

    @pytest.mark.parametrize(
        "test_name, option, problem",
        [
            pytest.param(name, option, problem, id=f"{name} {option[0]}")
            for option, taker, problem in (
                (("--bonferroni",), "pairwise-mann-whitney", "only pairwise-mann-whitney makes several comparisons"),
                (("--target", "1"), "wilcoxon", "only wilcoxon compares with a target median"),
            )
            for name in ("mann-whitney", "kruskal-wallis", "wilcoxon", "pairwise-mann-whitney")
            if name != taker
        ],
    )
    def test_an_option_the_test_would_ignore_is_refused_before_reading_the_samples(
        self, tmp_path, test_name, option, problem
    ):
        path = tmp_path / "samples.csv"
        path.write_text("not,a samples file\n", encoding="utf-8")
        result = cli("stats", "--samples", path, "--test", test_name, *option)
        assert result.exit_code == 1
        assert result.output == f"error: {test_name} takes no {option[0]}: {problem}\n"

    def test_samples_not_utf8_are_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"group,value\na,1\n\xff,2\n")
        result = cli("stats", "--samples", path, "--test", "mann-whitney")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # refused, not crashed
        assert result.output == f"error: {path}:3: not UTF-8 (invalid start byte)\n"

    def test_unknown_test_exits_one(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(path, {"a": [1], "b": [2]})
        result = cli("stats", "--samples", path, "--test", "anova")
        assert result.exit_code == 1
        assert "unknown test" in result.output

    def test_pairwise_with_bonferroni(self, tmp_path):
        path = tmp_path / "samples.csv"
        self.write_samples(path, {"g1": [1, 2], "g2": [3, 4], "g3": [5, 6]})
        result = cli(
            "stats", "--samples", path, "--test", "pairwise-mann-whitney", "--bonferroni"
        )
        assert result.exit_code == 0
        assert "g1 vs g2" in result.output
        assert "Bonferroni" in result.output

    def test_csv_output(self, tmp_path):
        path = tmp_path / "samples.csv"
        out = tmp_path / "result.csv"
        self.write_samples(path, {"a": [1, 2, 3], "b": [4, 5, 6]})
        result = cli(
            "stats", "--samples", path, "--test", "mann-whitney", "--out", out
        )
        assert result.exit_code == 0
        with open(out, encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert row["comparison"] == "a vs b"
        assert 0.0 <= float(row["p_value"]) <= 1.0

    def test_csv_output_into_a_missing_directory_fails_cleanly(self, tmp_path):
        path = tmp_path / "samples.csv"
        out = tmp_path / "missing" / "result.csv"
        self.write_samples(path, {"a": [1, 2, 3], "b": [4, 5, 6]})
        result = cli("stats", "--samples", path, "--test", "mann-whitney", "--out", out)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"error: [Errno 2] No such file or directory: '{out}'" in result.output
        assert not out.parent.exists()

    @pytest.mark.parametrize("route", sorted(STATS_ROUTES))
    def test_golden_output(self, tmp_path, route):
        groups, options = STATS_ROUTES[route]
        samples, out = tmp_path / "samples.csv", tmp_path / "result.csv"
        self.write_samples(samples, groups)
        test_name = STATS_TESTS[route.split("-")[0]]
        result = cli("stats", "--samples", samples, "--test", test_name, *options, "--out", out)
        assert result.exit_code == 0, result.output
        digests = (
            hashlib.sha256(result.output.encode("utf-8")).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(),
        )
        assert digests == GOLDEN_STATS_SHA256[route]


class TestValidateCodebook:
    def test_valid(self, workspace):
        result = cli("validate-codebook", "--codebook", workspace / "codebook.json")
        assert result.exit_code == 0
        assert "ok: 3 dimension(s)" in result.output

    def test_invalid_exits_one(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "a", "name": "A", "definition": "x"},
                    {"id": "a", "name": "B", "definition": "y"},
                ]
            ),
            encoding="utf-8",
        )
        result = cli("validate-codebook", "--codebook", path)
        assert result.exit_code == 1
        assert "duplicate" in result.output


    def test_dimension_id_doc_id_exits_one(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps([{"id": "doc_id", "name": "Doc", "definition": "D."}]), encoding="utf-8")
        result = cli("validate-codebook", "--codebook", path)
        assert result.exit_code == 1
        assert "error: dimension id 'doc_id' is reserved" in result.output


class CauseTransport(FakeTransport):
    """Answers each prompt by the failure cause its dimension names; a body
    holding ``alpha0`` is always answered, so a chunked cell can fail on a
    later chunk."""

    def answer(self, prompt):
        cause = prompt.split("parameter '", 1)[1].split("'", 1)[0]
        if cause == "ok" or "alpha0" in prompt:
            return completion(hashed_answer(prompt))
        if cause == "http-400":
            return reply(400, "bad request: unknown model")
        if cause == "http-503":
            return reply(503, "overloaded", {"Retry-After": "0"})
        if cause == "connection":
            raise ConnectionError("connection refused")
        if cause == "not-json":
            return reply(200, "<html>gateway</html>")
        if cause == "no-choices":
            return reply(200, {"choices": []})
        assert cause == "non-string"
        return completion(42)


# sha256 of the files test_golden_failure_outputs pins, per run.
GOLDEN_FAILURE_SHA256 = {
    "chunk/failures.json": "d8286685a1fc654870a6b365fcbbf313e5bd1b71803a84b33ed1b2b78809f561",
    "chunk/records.jsonl": "41b2d71340d88673262c9e11e142b3847404f5d92e8911795159df9abf8fffe2",
    "chunk/iteration_results.csv": "c79e932029830274eb1330c00ade22a3e246e9d3ebbbf385e650524f8d622b64",
    "chunk/consensus.csv": "98ab812bbf0fe7f8e6860d749afe294794423dfa14fb1aab30b06f78fb287135",
    "whole/failures.json": "f42800e7bbfee6b1a0acf14562fc37fd77177a016f7cff566d64bf60935b480a",
    "whole/records.jsonl": "c6d166f74508ca988e02fb972e0440961faedf8da7ccc648b2ca70da8cb90189",
    "whole/iteration_results.csv": "e370e031f9b57f7cf1e1f1979a8d8f790be4f69c41ff727f48c0a0b44d681955",
    "whole/consensus.csv": "436705a3aa85a74a0e9abc62b4b618e2fb325a0c4bc4bf07dc1070570644a229",
    "replay/failures.json": "1ec18a170f9b4e78dcfebd5d2418c5dc4cddb39b31b1b747084d40380833849f",
    "replay/records.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "replay/iteration_results.csv": "47ca500ab1a4b654110f37e574bc781de45c3d698d4780d9d3b4e25b640560de",
    "replay/consensus.csv": "27ef2bbd88ac27505a58483f8c41038c29ad809bf12d41980f2ec9b4da1fdb3d",
}


def test_golden_failure_outputs(tmp_path):
    """Pin every failure message and the outputs around it: each HTTP cause
    on a chunked and a whole-text run, a body over the word limit, and a
    replay of a cold cache."""
    causes = ("ok", "http-400", "http-503", "connection", "not-json", "no-choices", "non-string")
    cb = cc.Codebook(tuple(cc.Dimension(id=c, name=c, definition=f"{c}.") for c in causes))
    corpus = [
        cc.DocumentText.from_raw("doc-a", " ".join(f"alpha{i}" for i in range(7))),
        cc.DocumentText.from_raw("doc-b", "beta0 beta1"),
    ]
    transport = CauseTransport()
    live = dict(mode="live", sleep=lambda s: None, max_inflight=4)
    cold = dict(mode="replay", cache_dir=tmp_path / "cold")
    runs = {
        "chunk": (dict(strategy="chunk", chunk_size=3), live),
        "whole": (dict(strategy="whole", max_prompt_words=4), live),
        "replay": (dict(strategy="chunk", chunk_size=3), cold),
    }
    digests = {}
    for name, (options, client_options) in runs.items():
        cfg = cc.RunConfig(model="gpt-test", iterations=2, **options)
        result = report.write_run(tmp_path / name, corpus, cb, cfg, transport.client(**client_options))
        assert result.failures
        for file in (
            report.FAILURES_NAME,
            report.RECORDS_NAME,
            report.ITERATION_RESULTS_NAME,
            report.CONSENSUS_NAME,
        ):
            data = (tmp_path / name / file).read_bytes()
            digests[f"{name}/{file}"] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN_FAILURE_SHA256


class FinishTransport(FakeTransport):
    """Answers each prompt as its dimension names: ``ok`` finished, ``cut``
    cut short, ``filtered`` withheld, ``blank`` empty. It counts the posts
    per dimension. With ``stop`` set, the finished answers carry
    ``finish_reason: "stop"`` as well."""

    FINISHES = {"ok": None, "cut": "length", "filtered": "content_filter", "blank": "stop"}

    def __init__(self, stop=False):
        super().__init__()
        self.stop = stop
        self.posts = {dim: 0 for dim in self.FINISHES}

    def answer(self, prompt):
        dim = prompt.split("parameter '", 1)[1].split("'", 1)[0]
        with self.lock:
            self.posts[dim] += 1
        text = {
            "ok": hashed_answer(prompt),
            "cut": "Yes, the parameter",
            "filtered": "",
            "blank": " \n",
        }[dim]
        finish = self.FINISHES[dim] or ("stop" if self.stop else None)
        return completion(text, finish)


def test_unfinished_answers_fail_their_cells_and_a_rerun_sends_them_again(tmp_path):
    """Each answer cut short, withheld or empty fails its cell after one post,
    with a message naming why, and writes no cache line; a record-mode rerun
    sends only those prompts again. Whether finished answers carry
    ``finish_reason: "stop"`` changes no output byte."""
    cb = cc.Codebook(tuple(cc.Dimension(id=d, name=d, definition=f"{d}.") for d in FinishTransport.FINISHES))
    corpus = [
        cc.DocumentText.from_raw("doc-a", " ".join(f"alpha{i}" for i in range(7))),
        cc.DocumentText.from_raw("doc-b", "beta0 beta1"),
    ]
    cfg = cc.RunConfig(model="gpt-test", strategy="chunk", chunk_size=3, iterations=2)
    problems = {
        "cut": "unfinished answer (finish_reason 'length')",
        "filtered": "unfinished answer (finish_reason 'content_filter')",
        "blank": "empty answer (finish_reason 'stop')",
    }

    def record(name, transport, cache):
        with transport.client(mode="record", cache_dir=cache, sleep=lambda s: None, max_inflight=4) as client:
            return report.write_run(tmp_path / name, corpus, cb, cfg, client)

    transport = FinishTransport()
    for name in ("first", "rerun"):
        result = record(name, transport, tmp_path / "cache")
        assert [f.error for f in result.failures] == [
            f"prompt for doc={doc!r} dim={dim!r} iteration={iteration} chunk=0 failed:"
            f" chat completion failed: {problem}"
            for iteration in (1, 2)
            for doc in ("doc-a", "doc-b")
            for dim, problem in problems.items()
        ]
        # One post per refused answer a run meets: a cell stops at its
        # first chunk. The finished answers of the first run serve the rerun.
        runs = 1 if name == "first" else 2
        assert transport.posts == {"ok": (3 + 1) * 2, "cut": 4 * runs, "filtered": 4 * runs, "blank": 4 * runs}
    cache = tmp_path / "cache"
    assert [path.name for path in cache.iterdir() if not path.name.startswith("segment-")] == [llm_client.INDEX_NAME]
    lines = b"".join(path.read_bytes() for path in cache.glob("segment-*")).splitlines()
    assert len(lines) == (3 + 1) * 2
    assert all(b'"doc-a/ok/' in line or b'"doc-b/ok/' in line for line in lines)
    assert (tmp_path / "first" / report.RECORDS_NAME).read_bytes() == (
        tmp_path / "rerun" / report.RECORDS_NAME
    ).read_bytes()

    record("stop", FinishTransport(stop=True), tmp_path / "stop-cache")
    for file in (report.RECORDS_NAME, report.FAILURES_NAME, report.ITERATION_RESULTS_NAME, report.CONSENSUS_NAME):
        assert (tmp_path / "stop" / file).read_bytes() == (tmp_path / "first" / file).read_bytes()


OFFLINE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from chunkcode import cli
for argv in json.loads(sys.argv[2]):
    cli.main(argv)
    stack = {"requests", "http.client", "ssl", "urllib.request", "concurrent.futures", "dataclasses", "click"}
    loaded = sorted(stack & sys.modules.keys())
    assert not loaded, f"{argv[0]} loaded {loaded}"
"""


def test_offline_commands_never_load_the_http_stack(workspace):
    """Commands that never post load neither the HTTP stack, a thread pool,
    ``dataclasses`` nor ``click``: in a fresh interpreter, each of them leaves
    ``requests``, ``http.client``, ``ssl``, ``urllib.request``,
    ``concurrent.futures``, ``dataclasses`` and ``click`` out of ``sys.modules``."""
    cache = workspace / "cache"
    record = run_args(workspace, workspace / "rec", **{"--cache-mode": "record", "--cache-dir": cache})
    with post_through(FakeTransport()):
        recorded = cli("run", *record)
    assert recorded.exit_code == 0, recorded.output
    samples = workspace / "samples.csv"
    samples.write_text("group,value\na,1\na,2\nb,3\nb,4\n", encoding="utf-8")
    replay = {"--cache-mode": "replay", "--cache-dir": cache}
    commands = [
        ["validate-codebook", "--codebook", workspace / "codebook.json"],
        ["run", *run_args(workspace, workspace / "mock", **{"--strategy": "whole"})],
        ["run", *run_args(workspace, workspace / "rep", **replay)],
        ["consensus", "--records", workspace / "rep" / report.RECORDS_NAME, "--out", workspace / "redo"],
        ["evaluate", "--manual", workspace / "manual.csv", "--run", workspace / "mock",
         "--run", workspace / "rep", "--out", workspace / "reports"],
        ["stats", "--samples", samples, "--test", "mann-whitney"],
    ]
    src = Path(cc.__file__).resolve().parents[1]
    argvs = json.dumps([[str(a) for a in argv] for argv in commands])
    child = subprocess.run(
        [sys.executable, "-c", OFFLINE_CHILD, str(src), argvs], capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert (workspace / "rep" / report.RECORDS_NAME).read_bytes() == (
        workspace / "rec" / report.RECORDS_NAME
    ).read_bytes()


RECORD_CHILD = """
import sys
sys.modules["requests"] = None  # any import of it raises ImportError
sys.path.insert(0, sys.argv[1])
from chunkcode import cli
cli.main(sys.argv[2:])
stack = {"concurrent.futures", "logging", "http.client", "email.parser", "urllib.request", "ssl", "dataclasses", "click"}
loaded = sorted(stack & sys.modules.keys())
assert not loaded, f"a record run loaded {loaded}"
"""


def test_record_run_needs_no_requests(workspace):
    """A record run posts through the standard library alone: in a fresh
    interpreter where ``requests`` cannot be imported, it records every
    prompt against a plain-HTTP local endpoint, with no proxy variable set,
    on threads and sockets of its own. It leaves ``concurrent.futures``,
    ``logging``, ``http.client``, ``email.parser``, ``urllib.request``,
    ``ssl``, ``dataclasses`` and ``click`` out of ``sys.modules``."""
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    src = Path(cc.__file__).resolve().parents[1]
    args = run_args(workspace, workspace / "rec", **{"--cache-mode": "record", "--cache-dir": workspace / "cache"})
    with LocalEndpoint() as endpoint:
        env[llm_client.BASE_URL_ENV] = endpoint.url
        child = subprocess.run(
            [sys.executable, "-c", RECORD_CHILD, str(src), "run", *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )
    assert child.returncode == 0, child.stderr
    records = (workspace / "rec" / report.RECORDS_NAME).read_text(encoding="utf-8").splitlines()
    assert len(records) == len(endpoint.posts) == (3 + 1) * 3 * 5  # chunks x dimensions x iterations
    replayed = cli("run", *run_args(workspace, workspace / "rep", **{"--cache-mode": "replay", "--cache-dir": workspace / "cache"}))
    assert replayed.exit_code == 0, replayed.output
    assert (workspace / "rep" / report.RECORDS_NAME).read_bytes() == (workspace / "rec" / report.RECORDS_NAME).read_bytes()


def without(args, option):
    at = args.index(option)
    return args[:at] + args[at + 2:]


class TestCommandLine:
    """A usage error exits 2 naming the option before any command runs; each
    command's help lists its options with their defaults; the module runs
    as a script."""

    USAGE_ERRORS = {
        "missing required option": (lambda ws, out: ["run", *without(run_args(ws, out), "--model")], "--model"),
        "unknown option": (lambda ws, out: ["run", *run_args(ws, out), "--colour", "red"], "--colour"),
        "abbreviated option": (
            lambda ws, out: ["run", *without(run_args(ws, out), "--iterations"), "--iter", 3], "--iter"
        ),
        "non-integer iterations": (lambda ws, out: ["run", *run_args(ws, out, **{"--iterations": "many"})], "--iterations"),
        "missing manifest": (
            lambda ws, out: ["run", *run_args(ws, out, **{"--manifest": ws / "absent.json"})], "--manifest"
        ),
        "manifest is a directory": (lambda ws, out: ["run", *run_args(ws, out, **{"--manifest": ws})], "--manifest"),
        "unknown strategy": (lambda ws, out: ["run", *run_args(ws, out, **{"--strategy": "paragraph"})], "--strategy"),
        "unknown cache mode": (
            lambda ws, out: ["run", *run_args(ws, out, **{"--cache-mode": "offline"})], "--cache-mode"
        ),
        "run is a file": (
            lambda ws, out: ["evaluate", "--manual", ws / "manual.csv", "--run", ws / "manual.csv", "--out", out],
            "--run",
        ),
    }

    @pytest.mark.parametrize("case", USAGE_ERRORS)
    def test_a_usage_error_exits_two_naming_the_option_and_creates_nothing(self, workspace, case):
        build, option = self.USAGE_ERRORS[case]
        out = workspace / "out"
        result = cli(*build(workspace, out))
        assert result.exit_code == 2, result.output
        error = result.output.splitlines()[-1]
        assert error.startswith("chunkcode ") and ": error: " in error and option in error, error
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "consensus", "evaluate"])
    def test_an_out_that_is_a_file_exits_two_naming_it(self, workspace, command):
        out = workspace / "a.txt"
        before = out.read_bytes()
        args = {
            "run": run_args(workspace, out),
            "consensus": ["--records", out, "--out", out],
            "evaluate": ["--manual", workspace / "manual.csv", "--run", workspace, "--out", out],
        }[command]
        result = cli(command, *args)
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == (
            f"chunkcode {command}: error: argument --out: directory '{out}' is a file"
        )
        assert out.read_bytes() == before

    def test_no_command_is_a_usage_error_and_help_lists_the_commands(self):
        assert cli().exit_code == 2
        assert cli("code").exit_code == 2
        result = cli("--help")
        assert result.exit_code == 0
        for command in ("run", "consensus", "evaluate", "stats", "validate-codebook"):
            assert f"\n  {command} " in result.output

    # Each command's options, with the default its help shows (None: none shown).
    OPTIONS = {
        "run": {
            "--manifest": None, "--codebook": None, "--model": None, "--strategy": "chunk",
            "--chunk-size": "500", "--iterations": "15", "--cache-dir": None, "--cache-mode": "live",
            "--phrases": None, "--seed": "0", "--flip-probability": "0.1", "--word-boundary": None,
            "--max-prompt-words": None, "--max-inflight": str(llm_client.DEFAULT_MAX_INFLIGHT), "--out": None,
        },
        "consensus": {"--records": None, "--out": None},
        "evaluate": {"--manual": None, "--run": None, "--out": None},
        "stats": {
            "--samples": None, "--test": None, "--sides": "two", "--target": None, "--bonferroni": None,
            "--out": None,
        },
        "validate-codebook": {"--codebook": None},
    }

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_lists_every_option_with_its_default(self, command):
        result = cli(command, "--help")
        assert result.exit_code == 0, result.output
        options = result.output.partition("\noptions:\n")[2]
        entries = {}  # option -> its help text, continuation lines joined
        for line in options.splitlines():
            if line.startswith("  --"):
                option, _, text = line.strip().partition(" ")
                entries[option] = text
            else:
                entries[option] += " " + line.strip()
        assert list(entries) == [*self.OPTIONS[command], "--help"]
        for option, default in self.OPTIONS[command].items():
            if default is not None:
                assert f"[default: {default}]" in entries[option], (option, entries[option])
            else:
                assert "[default:" not in entries[option], (option, entries[option])

    def test_run_as_a_module(self, workspace):
        src = Path(cc.__file__).resolve().parents[1]
        child = subprocess.run(
            [sys.executable, "-m", "chunkcode.cli", "validate-codebook", "--codebook", workspace / "codebook.json"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == "ok: 3 dimension(s): fidelity, use-cases, state\n"
