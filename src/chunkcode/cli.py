"""Command-line front door: run, consensus, evaluate, stats, validate-codebook."""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

from . import agreement, engine, report, stats
from .classifier import default_key_phrases, load_key_phrases
from .codebook import default_codebook, load_codebook
from .errors import ChunkCodeError, SubjectMismatchError
from .ingestion import load_manifest
from .llm_client import CACHE_MODES, DEFAULT_MAX_INFLIGHT, LLMClient, PromptRequest, StochasticMock


_FLIP_PROBABILITY = 0.1
_SIDES = ("two", "less", "greater")


def _fail(message: str, code: int = 1) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _path(kind: str, exists: bool = False):
    """An argparse type: a path that, where it exists, is a ``kind`` ("file"
    or "directory"), and with ``exists`` must exist."""

    def check(value: str) -> str:
        if not os.path.exists(value):
            if exists:
                raise argparse.ArgumentTypeError(f"{kind} {value!r} does not exist")
        elif os.path.isdir(value) != (kind == "directory"):
            other = "file" if kind == "directory" else "directory"
            raise argparse.ArgumentTypeError(f"{kind} {value!r} is a {other}")
        return value

    return check


_FILE, _DIRECTORY = _path("file", exists=True), _path("directory", exists=True)
_NEW_FILE, _NEW_DIRECTORY = _path("file"), _path("directory")


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


def run(manifest_path, codebook_path, model, strategy, chunk_size, iterations,
        cache_dir, cache_mode, phrases_path, seed, flip_probability,
        word_boundary, max_prompt_words, max_inflight, out_dir):
    """Code a corpus and write records, iteration results, and consensus.

    Exits 0 on full success, 2 when some cells failed (a failure manifest is
    written next to the results), 1 on configuration errors and on a file
    that cannot be read or written.
    """
    if cache_mode in ("live", "mock") and cache_dir is not None:
        _fail(f"--cache-mode {cache_mode} takes no --cache-dir: only record and replay use a cache")
    if cache_mode != "mock" and flip_probability is not None:
        _fail(f"--cache-mode {cache_mode} takes no --flip-probability: only mock mode flips answers")
    if flip_probability is None:
        flip_probability = _FLIP_PROBABILITY
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
        print(
            f"completed with {len(result.failures)} failed cell(s);"
            f" see {Path(out_dir) / report.FAILURES_NAME}",
            file=sys.stderr,
        )
        sys.exit(2)
    print(f"wrote {result.prompts} records over {cfg.iterations} iteration(s) to {out_dir}")


def _run_options(add) -> None:
    add("--manifest", dest="manifest_path", required=True, type=_FILE, metavar="FILE")
    add("--codebook", dest="codebook_path", type=_FILE, metavar="FILE",
        help="Codebook JSON; the bundled starter codebook when omitted.")
    add("--model", required=True, metavar="TEXT", help="Chat-completion model identifier.")
    add("--strategy", choices=engine.STRATEGIES, default="chunk", help="[default: %(default)s]")
    add("--chunk-size", type=int, default=500, metavar="INTEGER", help="[default: %(default)s]")
    add("--iterations", type=int, default=15, metavar="INTEGER", help="[default: %(default)s]")
    add("--cache-dir", type=_NEW_DIRECTORY, metavar="DIRECTORY")
    add("--cache-mode", choices=CACHE_MODES, default="live", help="[default: %(default)s]")
    add("--phrases", dest="phrases_path", type=_FILE, metavar="FILE",
        help="Override phrase list (JSON array of strings).")
    add("--seed", type=int, default=0, metavar="INTEGER", help="Mock-mode seed. [default: %(default)s]")
    add("--flip-probability", type=float, metavar="FLOAT",
        help=f"Mock-mode flip probability. [default: {_FLIP_PROBABILITY}]")
    add("--word-boundary", action="store_true", help="Match key phrases on word boundaries.")
    add("--max-prompt-words", type=int, metavar="INTEGER",
        help="Refuse prompts whose body exceeds this many words.")
    add("--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT, metavar="INTEGER",
        help="Requests in flight at once in live and record modes. [default: %(default)s]")
    add("--out", dest="out_dir", required=True, type=_NEW_DIRECTORY, metavar="DIRECTORY")


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
    print(f"wrote consensus for {len(doc_ids)} document(s) to {out_dir}")


def _consensus_options(add) -> None:
    add("--records", dest="records_path", required=True, type=_FILE, metavar="FILE")
    add("--out", dest="out_dir", required=True, type=_NEW_DIRECTORY, metavar="DIRECTORY")


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
    print(f"wrote {len(written)} table file(s) to {out_dir}")


def _evaluate_options(add) -> None:
    add("--manual", dest="manual_path", required=True, type=_FILE, metavar="FILE",
        help="Manual rating matrix CSV (doc_id,dimension_id,<rater>...).")
    add("--run", dest="run_dirs", required=True, action="append", type=_DIRECTORY, metavar="DIRECTORY",
        help="Run directory written by the run command; repeatable.")
    add("--out", dest="out_dir", required=True, type=_NEW_DIRECTORY, metavar="DIRECTORY")


_STATS_TESTS = ("mann-whitney", "kruskal-wallis", "wilcoxon", "pairwise-mann-whitney")


def stats_command(samples_path, test_name, sides, target, bonferroni, out_path):
    """Run a significance test over grouped samples and print the result."""
    if test_name not in _STATS_TESTS:
        _fail(f"unknown test {test_name!r}; expected one of {', '.join(_STATS_TESTS)}")
    if test_name == "kruskal-wallis" and sides is not None:
        _fail("kruskal-wallis takes no --sides: its H statistic has no direction")
    if sides is None:
        sides = _SIDES[0]
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
    print(report.markdown_table(fieldnames, table_rows), end="")
    if out_path:
        try:
            report.write_table_csv(out_path, fieldnames, table_rows)
        except OSError as exc:
            _fail(str(exc))


def _stats_options(add) -> None:
    add("--samples", dest="samples_path", required=True, type=_FILE, metavar="FILE",
        help="Samples CSV with header group,value.")
    add("--test", dest="test_name", required=True, metavar="TEXT",
        help="One of: " + ", ".join(_STATS_TESTS) + ".")
    add("--sides", choices=_SIDES, help=f"[default: {_SIDES[0]}]")
    add("--target", type=float, metavar="FLOAT", help="Wilcoxon target median.")
    add("--bonferroni", action="store_true", help="Correct pairwise p-values.")
    add("--out", dest="out_path", type=_NEW_FILE, metavar="FILE", help="Also write the result table as CSV.")


def validate_codebook(codebook_path):
    """Validate a codebook file and report its dimensions."""
    try:
        cb = load_codebook(codebook_path)
    except ChunkCodeError as exc:
        _fail(str(exc))
    print(f"ok: {len(cb)} dimension(s): {', '.join(cb.ids)}")


def _validate_codebook_options(add) -> None:
    add("--codebook", dest="codebook_path", required=True, type=_FILE, metavar="FILE")


_COMMANDS = {
    "run": (run, _run_options),
    "consensus": (consensus, _consensus_options),
    "evaluate": (evaluate, _evaluate_options),
    "stats": (stats_command, _stats_options),
    "validate-codebook": (validate_codebook, _validate_codebook_options),
}


def _doc(function) -> str:
    """``function``'s docstring with its indentation removed; empty under ``python -OO``."""
    return "\n".join(line.strip() for line in (function.__doc__ or "").splitlines())


def _parse(prog: str, description: str, options, argv: list[str]) -> argparse.Namespace:
    """Build one parser, with ``options`` given its ``add_argument``, and parse ``argv``."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=False,
        allow_abbrev=False,
    )
    options(parser.add_argument)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, standalone_mode: bool = False) -> None:
    """Deductive coding of documents with chat-completion models.

    Runs ``chunkcode COMMAND [OPTIONS]`` with ``argv`` (``sys.argv[1:]`` when
    None) and returns on success. Otherwise it raises SystemExit: code 1 when
    chunkcode refuses, 2 when some cells failed or the command line is
    invalid. ``standalone_mode`` is accepted and changes nothing.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        doc = _doc(main).partition("\n")[0] + "\n\ncommands:"
        for name, (command, _) in _COMMANDS.items():
            summary = _doc(command).partition("\n")[0]
            doc += f"\n  {name:<19}{summary}"
        # Exits: with the help, or on a missing or unknown command.
        _parse("chunkcode", doc, lambda add: add("command", choices=_COMMANDS, metavar="COMMAND",
                                                 help="One of the commands above."), argv[:1])
    name, *args = argv
    command, options = _COMMANDS[name]
    try:
        command(**vars(_parse(f"chunkcode {name}", _doc(command), options, args)))
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
