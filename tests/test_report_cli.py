import csv
import hashlib
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

import chunkcode as cc
from chunkcode import agreement, engine, report
from chunkcode.cli import main

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
    return CliRunner().invoke(main, [str(a) for a in args])


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

    def test_replay_writes_nothing_to_the_cache_directory(self, workspace, monkeypatch):
        missing = workspace / "missing"
        result = cli(
            "run",
            *run_args(workspace, workspace / "cold", **{"--cache-mode": "replay", "--cache-dir": missing}),
        )
        assert result.exit_code == 1
        assert "no cached response" in result.output
        assert not missing.exists()

        def fake_build_client(cache_mode, cache_dir, seed, flip_probability, max_inflight):
            session = self.StaticSession("The paper does not focus on it.")
            return cc.LLMClient(mode=cache_mode, cache_dir=cache_dir, session=session)

        monkeypatch.setattr("chunkcode.cli._build_client", fake_build_client)
        cache = workspace / "cache"
        options = {"--cache-mode": "record", "--cache-dir": cache, "--iterations": 2}
        assert cli("run", *run_args(workspace, workspace / "rec", **options)).exit_code == 0

        def listing():
            return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in [cache, *cache.iterdir()]}

        before = listing()
        for iterations, exit_code in ((2, 0), (3, 2)):  # iteration 3 misses
            options = {"--cache-mode": "replay", "--cache-dir": cache, "--iterations": iterations}
            result = cli("run", *run_args(workspace, workspace / f"rep{iterations}", **options))
            assert result.exit_code == exit_code, result.output
        assert listing() == before

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

    def test_record_mode_resumes_from_cache(self, workspace, monkeypatch):
        """A rerun in record mode is served by the cache: no new transport calls."""
        calls = {"n": 0}
        lock = threading.Lock()  # record mode posts from several threads

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                with lock:
                    calls["n"] += 1

                class Response:
                    status_code = 200
                    text = ""

                    @staticmethod
                    def json():
                        return {
                            "choices": [
                                {"message": {"content": "Yes, the parameter is mentioned."}}
                            ]
                        }

                return Response()

        def fake_build_client(cache_mode, cache_dir, seed, flip_probability, max_inflight):
            return cc.LLMClient(mode="record", cache_dir=cache_dir, session=FakeSession())

        monkeypatch.setattr("chunkcode.cli._build_client", fake_build_client)
        cache = workspace / "cache"
        first = cli(
            "run",
            *run_args(
                workspace,
                workspace / "out1",
                **{"--cache-mode": "record", "--cache-dir": cache, "--iterations": 2},
            ),
        )
        assert first.exit_code == 0, first.output
        network_calls = calls["n"]
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
        assert calls["n"] == network_calls  # fully served by the cache
        assert (workspace / "out1" / report.RECORDS_NAME).read_bytes() == (
            workspace / "out2" / report.RECORDS_NAME
        ).read_bytes()

    def test_replay_after_record_reproduces_run(self, workspace, monkeypatch):
        self.record_then_replay(workspace, monkeypatch, "The paper does not focus on it.")

    def test_answer_with_a_lone_surrogate_is_recorded_and_replayed(self, workspace, monkeypatch):
        self.record_then_replay(workspace, monkeypatch, "Yes, bad \ud800 text")
        assert "Yes, bad \\ud800 text" in (workspace / "rep" / report.RECORDS_NAME).read_text()

    def record_then_replay(self, workspace, monkeypatch, answer):
        """Record a run whose every answer is ``answer``, replay its cache, and
        check both runs exit 0 with the same records bytes."""

        def fake_build_client(cache_mode, cache_dir, seed, flip_probability, max_inflight):
            if cache_mode == "replay":
                return cc.LLMClient(mode="replay", cache_dir=cache_dir)
            return cc.LLMClient(
                mode="record", cache_dir=cache_dir, session=self.StaticSession(answer)
            )

        monkeypatch.setattr("chunkcode.cli._build_client", fake_build_client)
        cache = workspace / "cache"
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

    class StaticSession:
        def __init__(self, text):
            self.text_value = text

        def post(self, url, json=None, headers=None, timeout=None):
            text = self.text_value

            class Response:
                status_code = 200
                text = ""

                @staticmethod
                def json():
                    return {"choices": [{"message": {"content": text}}]}

            return Response()


class HashSession:
    """A session answering each prompt by a hash of its text, from any thread;
    every post after the first ``fail_after`` raises RuntimeError, once the
    ``hold`` event is set when one is given (or after 10 s)."""

    def __init__(self, fail_after=None, hold=None):
        self.fail_after = fail_after
        self.hold = hold
        self.calls = 0
        self.lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.calls += 1
            failing = self.fail_after is not None and self.calls > self.fail_after
        if failing:
            if self.hold is not None:
                self.hold.wait(timeout=10)
            raise RuntimeError("endpoint exploded")
        prompt = json["messages"][0]["content"]
        if hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2:
            answer = "Yes, the parameter is mentioned."
        else:
            answer = "The paper does not focus on it."

        class Response:
            status_code = 200
            text = ""

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": answer}}]}

        return Response()


class TestCrashAndResume:
    """A record run stopped after some prompts, then rerun in record mode into
    the same cache, leaves the same bytes as a run never stopped."""

    OUTPUTS = (
        report.RECORDS_NAME,
        report.ITERATION_RESULTS_NAME,
        report.CONSENSUS_NAME,
        report.RUN_META_NAME,
    )

    def record(self, workspace, monkeypatch, session, name, max_inflight):
        monkeypatch.setattr(
            "chunkcode.cli._build_client",
            lambda cache_mode, cache_dir, seed, flip_probability, max_inflight: cc.LLMClient(
                mode="record", cache_dir=cache_dir, session=session, max_inflight=max_inflight
            ),
        )
        options = {
            "--cache-mode": "record",
            "--cache-dir": workspace / f"cache_{name}",
            "--iterations": 3,
            "--max-inflight": max_inflight,
        }
        return cli("run", *run_args(workspace, workspace / name, **options))

    @pytest.mark.parametrize("max_inflight", [1, 8])
    @pytest.mark.parametrize("stop", ["session raises", "sink interrupted"])
    def test_resume_gives_the_bytes_of_an_uninterrupted_run(
        self, workspace, monkeypatch, stop, max_inflight
    ):
        full = HashSession()
        assert self.record(workspace, monkeypatch, full, "full", max_inflight).exit_code == 0
        assert full.calls == (3 + 1) * 3 * 3

        k = 7
        with monkeypatch.context() as patch:
            if stop == "session raises":
                session = HashSession(fail_after=k)
            else:
                # All 18 cells fit the dispatch window, so the workers could
                # answer every prompt before the sink raises. The last post
                # therefore waits for the interrupt and is cut off by it, as
                # a request in flight when the run is stopped may be.
                interrupted = threading.Event()
                session = HashSession(fail_after=full.calls - 1, hold=interrupted)
                sunk = []

                def interrupting(record, to_json=engine.record_to_json):
                    if len(sunk) == k:
                        interrupted.set()
                        raise KeyboardInterrupt
                    sunk.append(record)
                    return to_json(record)

                patch.setattr(engine, "record_to_json", interrupting)
            stopped = self.record(workspace, patch, session, "resumed", max_inflight)
        assert stopped.exit_code != 0
        out = workspace / "resumed"
        assert not (out / report.RUN_META_NAME).exists()
        written = (out / report.RECORDS_NAME).read_bytes()
        assert written == (workspace / "full" / report.RECORDS_NAME).read_bytes()[: len(written)]
        cached = sum(
            segment.read_bytes().count(b"\n") for segment in (workspace / "cache_resumed").iterdir()
        )
        assert 0 < cached < full.calls

        resumed = HashSession()
        assert self.record(workspace, monkeypatch, resumed, "resumed", max_inflight).exit_code == 0
        assert resumed.calls == full.calls - cached
        for name in self.OUTPUTS:
            assert (out / name).read_bytes() == (workspace / "full" / name).read_bytes(), name
        assert not (out / report.FAILURES_NAME).exists()


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
        (drop_a_field, "record lacks field 'request_key'"),
        (true_code_without_phrase, "a True code must record its matched phrase"),
        (set_field("doc_id", ["a"]), 'field \'doc_id\' must be a string, not ["a"]'),
        (set_field("iteration", "1"), 'field \'iteration\' must be a positive integer, not "1"'),
        (set_field("iteration", True), "field 'iteration' must be a positive integer, not true"),
        (set_field("code", 1), "field 'code' must be true or false, not 1"),
    ],
    ids=[
        "truncated",
        "field missing",
        "true without phrase",
        "doc_id a list",
        "iteration a string",
        "iteration a bool",
        "code a number",
    ],
)
def test_malformed_record_is_named_by_file_and_line(workspace, command, defect, problem):
    out = workspace / "out"
    assert cli("run", *run_args(workspace, out)).exit_code == 0
    path = out / report.RECORDS_NAME
    lines = path.read_text(encoding="utf-8").splitlines()
    number = defect(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    dest = workspace / "dest"
    if command == "consensus":
        result = cli("consensus", "--records", path, "--out", dest)
    else:
        result = cli("evaluate", "--manual", workspace / "manual.csv", "--run", out, "--out", dest)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # refused, not crashed
    assert not dest.exists()
    assert f"error: records file {path}, line {number}: {problem}" in result.output


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

    def test_single_rater_manual_is_refused_before_any_table(self, workspace):
        manual = workspace / "manual.csv"
        lines = manual.read_text(encoding="utf-8").splitlines()
        one_rater = "".join(line.rsplit(",", 2)[0] + "\n" for line in lines)
        manual.write_text(one_rater, encoding="utf-8")

        result, reports = self.evaluate(workspace)
        assert result.exit_code == 1
        assert "Fleiss' kappa needs at least two raters" in result.output
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


def test_write_table_csv_refuses_a_row_lacking_a_column(tmp_path):
    with pytest.raises(KeyError, match="b"):
        report.write_table_csv(tmp_path / "t.csv", ["a", "b"], [{"a": 1, "b": 2}, {"a": 3}])


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


class CauseSession:
    """A session that answers each prompt by the failure cause its dimension
    names; a body holding ``alpha0`` is always answered, so a chunked cell
    can fail on a later chunk. Safe to share between threads."""

    ANSWERS = ("The paper does not focus on it.", "Yes, the parameter is mentioned.")

    class Response:
        def __init__(self, status_code, text="", headers=None, payload=None):
            self.status_code = status_code
            self.text = text if payload is None else json.dumps(payload)
            self.headers = requests.structures.CaseInsensitiveDict(headers or {})

        def json(self):
            return json.loads(self.text)

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        cause = prompt.split("parameter '", 1)[1].split("'", 1)[0]
        if cause == "ok" or "alpha0" in prompt:
            answer = self.ANSWERS[hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2]
            return self.Response(200, payload={"choices": [{"message": {"content": answer}}]})
        if cause == "http-400":
            return self.Response(400, "bad request: unknown model")
        if cause == "http-503":
            return self.Response(503, "overloaded", {"Retry-After": "0"})
        if cause == "connection":
            raise requests.ConnectionError("connection refused")
        if cause == "not-json":
            return self.Response(200, "<html>gateway</html>")
        if cause == "no-choices":
            return self.Response(200, payload={"choices": []})
        assert cause == "non-string"
        return self.Response(200, payload={"choices": [{"message": {"content": 42}}]})


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
    live = dict(mode="live", session=CauseSession(), sleep=lambda s: None, max_inflight=4)
    cold = dict(mode="replay", cache_dir=tmp_path / "cold")
    runs = {
        "chunk": (dict(strategy="chunk", chunk_size=3), live),
        "whole": (dict(strategy="whole", max_prompt_words=4), live),
        "replay": (dict(strategy="chunk", chunk_size=3), cold),
    }
    digests = {}
    for name, (options, client_options) in runs.items():
        cfg = cc.RunConfig(model="gpt-test", iterations=2, **options)
        result = report.write_run(tmp_path / name, corpus, cb, cfg, cc.LLMClient(**client_options))
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


OFFLINE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from chunkcode import cli
for argv in json.loads(sys.argv[2]):
    cli.main(argv, standalone_mode=False)
    loaded = sorted({"requests", "concurrent.futures"} & sys.modules.keys())
    assert not loaded, f"{argv[0]} loaded {loaded}"
"""


def test_offline_commands_never_load_the_http_stack(workspace, monkeypatch):
    """Commands that never post load neither requests nor a thread pool: in a
    fresh interpreter, each of them leaves both out of ``sys.modules``."""
    cache = workspace / "cache"
    monkeypatch.setattr(
        "chunkcode.cli._build_client",
        lambda cache_mode, cache_dir, seed, flip_probability, max_inflight: cc.LLMClient(
            mode="record", cache_dir=cache_dir, session=HashSession()
        ),
    )
    record = run_args(workspace, workspace / "rec", **{"--cache-mode": "record", "--cache-dir": cache})
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
