import csv
import json

import pytest
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
        records = engine.read_records_jsonl(out / report.RECORDS_NAME)
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

    def test_invalid_config_exits_one(self, workspace):
        result = cli("run", *run_args(workspace, workspace / "out", **{"--chunk-size": 0}))
        assert result.exit_code == 1
        assert "chunk_size" in result.output

    def test_record_mode_resumes_from_cache(self, workspace, monkeypatch):
        """A rerun in record mode is served by the cache: no new transport calls."""
        calls = {"n": 0}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
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

        def fake_build_client(cfg, cache_dir, flip_probability):
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
        test = self

        def fake_build_client(cfg, cache_dir, flip_probability):
            if cfg.cache_mode == "replay":
                return cc.LLMClient(mode="replay", cache_dir=cache_dir)
            return cc.LLMClient(
                mode="record",
                cache_dir=cache_dir,
                session=test.StaticSession("The paper does not focus on it."),
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
        records = engine.read_records_jsonl(out / report.RECORDS_NAME)
        results = engine.iteration_results_from_records(records)
        model_row = [r for r in rows if r["scope"] == "model"][0]
        assert float(model_row["internal_agreement"]) == pytest.approx(
            engine.internal_agreement(results).model, abs=1e-12
        )


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
            engine.internal_agreement(run.iteration_results).model, abs=1e-9
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
        import re

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
