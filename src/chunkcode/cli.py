"""Command-line front door: run, consensus, evaluate, stats, validate-codebook."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import agreement, engine, report, stats
from .classifier import default_key_phrases, load_key_phrases
from .codebook import default_codebook, load_codebook
from .errors import ChunkCodeError, SubjectMismatchError
from .ingestion import load_manifest
from .llm_client import CACHE_MODES, DEFAULT_MAX_INFLIGHT, LLMClient, PromptRequest, StochasticMock


def _fail(message: str, code: int = 1) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Deductive coding of documents with chat-completion models."""


def _mock_truth(request: PromptRequest) -> bool:
    # Stable per-cell ground truth for mock runs: hash the tag up to its last
    # "/i", the doc/dimension part, so all iterations of a cell share one answer.
    cell = request.tag.rpartition("/i")[0]
    return hashlib.sha256(cell.encode("utf-8")).digest()[0] % 2 == 0


def _build_client(
    cache_mode: str, cache_dir: str | None, seed: int, flip_probability: float, max_inflight: int
) -> LLMClient:
    if cache_mode == "mock":
        mock = StochasticMock(seed=seed, flip_probability=flip_probability, truth=_mock_truth)
        return LLMClient(mode="mock", mock=mock, max_inflight=max_inflight)
    return LLMClient(mode=cache_mode, cache_dir=cache_dir, max_inflight=max_inflight)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--codebook", "codebook_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Codebook JSON; the bundled starter codebook when omitted.")
@click.option("--model", required=True, help="Chat-completion model identifier.")
@click.option("--strategy", type=click.Choice(engine.STRATEGIES), default="chunk", show_default=True)
@click.option("--chunk-size", default=500, show_default=True)
@click.option("--iterations", default=15, show_default=True)
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None)
@click.option("--cache-mode", type=click.Choice(CACHE_MODES),
              default="live", show_default=True)
@click.option("--phrases", "phrases_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Override phrase list (JSON array of strings).")
@click.option("--seed", type=int, default=0, show_default=True, help="Mock-mode seed.")
@click.option("--flip-probability", type=float, default=0.1,
              show_default=True, help="Mock-mode flip probability.")
@click.option("--word-boundary", is_flag=True, help="Match key phrases on word boundaries.")
@click.option("--max-prompt-words", type=int, default=None,
              help="Refuse prompts whose body exceeds this many words.")
@click.option("--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT, show_default=True,
              help="Requests in flight at once in live and record modes.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def run(manifest_path, codebook_path, model, strategy, chunk_size, iterations,
        cache_dir, cache_mode, phrases_path, seed, flip_probability,
        word_boundary, max_prompt_words, max_inflight, out_dir):
    """Code a corpus and write records, iteration results, and consensus.

    Exits 0 on full success, 2 when some cells failed (a failure manifest is
    written next to the results), 1 on configuration errors and on a file
    that cannot be read or written.
    """
    given = click.get_current_context().get_parameter_source
    if cache_mode in ("live", "mock") and given("cache_dir") is not ParameterSource.DEFAULT:
        _fail(f"--cache-mode {cache_mode} takes no --cache-dir: only record and replay use a cache")
    if cache_mode != "mock" and given("flip_probability") is not ParameterSource.DEFAULT:
        _fail(f"--cache-mode {cache_mode} takes no --flip-probability: only mock mode flips answers")
    try:
        cfg = engine.RunConfig(
            model=model,
            strategy=strategy,
            chunk_size=chunk_size,
            iterations=iterations,
            phrases=load_key_phrases(phrases_path) if phrases_path else default_key_phrases(),
            word_boundary=word_boundary,
            max_prompt_words=max_prompt_words,
            seed=seed,
        )
        cb = load_codebook(codebook_path) if codebook_path else default_codebook()
        corpus = load_manifest(manifest_path)
        with _build_client(cache_mode, cache_dir, seed, flip_probability, max_inflight) as client:
            result = report.write_run(out_dir, corpus, cb, cfg, client)
    except (ChunkCodeError, OSError) as exc:
        _fail(str(exc))
    if result.failures and not result.results:
        # Nothing succeeded: a setup-level problem (e.g. replaying a cold
        # cache), not a partial run.
        _fail(f"every cell failed; first error: {result.failures[0].error}")
    if result.failures:
        click.echo(
            f"completed with {len(result.failures)} failed cell(s);"
            f" see {Path(out_dir) / report.FAILURES_NAME}",
            err=True,
        )
        sys.exit(2)
    click.echo(
        f"wrote {result.prompts} records over {cfg.iterations} iteration(s)"
        f" to {out_dir}"
    )


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def consensus(records_path, out_dir):
    """Recompute consensus and internal agreement from a records file."""
    try:
        results = engine.iteration_results_from_records(engine.read_records_jsonl(records_path))
        report.check_complete(
            f"records file {records_path}", {r.iteration for r in results}, results
        )
        table = engine.consensus_table(results)
        if not table:
            _fail("records file holds no results")
        doc_ids = list(dict.fromkeys(doc_id for doc_id, _ in table))
        dim_ids = list(dict.fromkeys(dim_id for _, dim_id in table))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.write_consensus_csv(out / report.CONSENSUS_NAME, table, doc_ids, dim_ids)

        internal = engine.internal_agreement(table)
        agreement_rows = [
            {"scope": "paper", "doc_id": doc_id, "internal_agreement": value}
            for doc_id, value in internal.papers.items()
        ]
        agreement_rows.append(
            {"scope": "model", "doc_id": "", "internal_agreement": internal.model}
        )
        report.write_table_csv(
            out / "internal_agreement.csv",
            ["scope", "doc_id", "internal_agreement"],
            agreement_rows,
        )
    except (ChunkCodeError, OSError) as exc:
        _fail(str(exc))
    click.echo(f"wrote consensus for {len(doc_ids)} document(s) to {out_dir}")


@main.command()
@click.option("--manual", "manual_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Manual rating matrix CSV (doc_id,dimension_id,<rater>...).")
@click.option("--run", "run_dirs", required=True, multiple=True,
              type=click.Path(exists=True, file_okay=False),
              help="Run directory written by the run command; repeatable.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def evaluate(manual_path, run_dirs, out_dir):
    """Compare run consensus against manual ratings and write the tables."""
    try:
        manual = agreement.read_ratings_csv(manual_path)
        runs = [report.load_run(d) for d in run_dirs]
        written = report.write_report_bundle(out_dir, runs, manual)
    except SubjectMismatchError as exc:
        lines = [str(exc)]
        if exc.missing:
            lines.append(f"missing from run output: {list(exc.missing)[:20]}")
        if exc.extra:
            lines.append(f"absent from manual ratings: {list(exc.extra)[:20]}")
        _fail("\n".join(lines))
    except (ChunkCodeError, ValueError, OSError) as exc:
        _fail(str(exc))
    click.echo(f"wrote {len(written)} table file(s) to {out_dir}")


_STATS_TESTS = ("mann-whitney", "kruskal-wallis", "wilcoxon", "pairwise-mann-whitney")


@main.command("stats")
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Samples CSV with header group,value.")
@click.option("--test", "test_name", required=True,
              help="One of: " + ", ".join(_STATS_TESTS) + ".")
@click.option("--sides", type=click.Choice(["two", "less", "greater"]), default="two",
              show_default=True)
@click.option("--target", type=float, default=None, help="Wilcoxon target median.")
@click.option("--bonferroni", is_flag=True, help="Correct pairwise p-values.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the result table as CSV.")
def stats_command(samples_path, test_name, sides, target, bonferroni, out_path):
    """Run a significance test over grouped samples and print the result."""
    if test_name not in _STATS_TESTS:
        _fail(f"unknown test {test_name!r}; expected one of {', '.join(_STATS_TESTS)}")
    if test_name == "kruskal-wallis" and (
        click.get_current_context().get_parameter_source("sides") is not ParameterSource.DEFAULT
    ):
        _fail("kruskal-wallis takes no --sides: its H statistic has no direction")
    if bonferroni and test_name != "pairwise-mann-whitney":
        _fail(f"{test_name} takes no --bonferroni: only pairwise-mann-whitney makes several comparisons")
    if target is not None and test_name != "wilcoxon":
        _fail(f"{test_name} takes no --target: only wilcoxon compares with a target median")
    try:
        groups = stats.read_samples_csv(samples_path)
        rows = []
        if test_name == "mann-whitney":
            if len(groups) != 2:
                _fail(f"mann-whitney needs exactly two groups, got {len(groups)}")
            result = stats.mann_whitney_u(groups[0], groups[1], sides)
            rows.append((f"{groups[0].label} vs {groups[1].label}", result))
        elif test_name == "pairwise-mann-whitney":
            for label_a, label_b, result in stats.pairwise_mann_whitney(
                groups, sides, bonferroni=bonferroni
            ):
                rows.append((f"{label_a} vs {label_b}", result))
        elif test_name == "kruskal-wallis":
            result = stats.kruskal_wallis(groups)
            rows.append((" vs ".join(g.label for g in groups), result))
        else:
            if target is None:
                _fail("wilcoxon requires --target")
            if len(groups) != 1:
                _fail(f"wilcoxon needs exactly one group, got {len(groups)}")
            result = stats.wilcoxon_signed_rank_one_sample(groups[0], target, sides)
            rows.append((f"{groups[0].label} vs median {target}", result))
    except (ChunkCodeError, ValueError, OSError) as exc:
        _fail(str(exc))

    fieldnames = ["comparison", "statistic", "p_value", "method_note"]
    table_rows = [
        {
            "comparison": label,
            "statistic": result.statistic,
            "p_value": result.p_value,
            "method_note": result.method_note,
        }
        for label, result in rows
    ]
    click.echo(report.markdown_table(fieldnames, table_rows), nl=False)
    if out_path:
        try:
            report.write_table_csv(out_path, fieldnames, table_rows)
        except OSError as exc:
            _fail(str(exc))


@main.command("validate-codebook")
@click.option("--codebook", "codebook_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def validate_codebook(codebook_path):
    """Validate a codebook file and report its dimensions."""
    try:
        cb = load_codebook(codebook_path)
    except ChunkCodeError as exc:
        _fail(str(exc))
    click.echo(f"ok: {len(cb)} dimension(s): {', '.join(cb.ids)}")


if __name__ == "__main__":
    main()
