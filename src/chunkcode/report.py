"""Assemble evaluation tables from run outputs and a manual rating matrix.

The report layer formats; it computes nothing. Every cell comes straight
from an agreement or engine operation, so parsing an emitted table and
recomputing from the raw records reproduces it. Outputs carry no
timestamps: identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import agreement, engine
from .agreement import ConfusionCounts, RatingMatrix, Subject
from .codebook import Codebook
from .errors import DegenerateKappaError, IngestionError, UndefinedMetricError
from .ingestion import DocumentText
from .llm_client import LLMClient

RUN_META_NAME = "run_meta.json"
RECORDS_NAME = "records.jsonl"
ITERATION_RESULTS_NAME = "iteration_results.csv"
CONSENSUS_NAME = "consensus.csv"
FAILURES_NAME = "failures.json"


class RunData(NamedTuple):
    """One run directory, loaded: model, strategy and all its records give."""

    model: str
    strategy: str
    iteration_results: list[engine.IterationResult]
    consensus: dict[Subject, engine.ConsensusResult]

    @property
    def rater_id(self) -> str:
        return f"llm_{self.model}_{self.strategy}"

    @property
    def consensus_codes(self) -> dict[Subject, bool]:
        return {subject: c.value for subject, c in self.consensus.items()}

    @property
    def internal(self) -> engine.InternalAgreement:
        # Computed on read: a run with no cells must still reach the
        # subject-set check.
        return engine.internal_agreement(self.consensus)


def load_run(run_dir: str | Path) -> RunData:
    """Load a run directory written by the run command.

    The records file is the source of truth; iteration results and
    consensus are rebuilt from it, one line at a time. A run whose metadata
    is malformed, or holding a record of another model or strategy, a
    record its metadata does not list, a prompt recorded twice, or a listed
    cell lacking some or all of its iterations is refused, so every table
    scores the run its metadata describes.
    """
    run_dir = Path(run_dir)
    source = f"run {run_dir}"
    model, strategy, iterations, doc_ids, dim_ids = _read_run_meta(run_dir / RUN_META_NAME)
    listed = range(1, iterations + 1)
    docs, dims = frozenset(doc_ids), frozenset(dim_ids)

    def within_meta(records: Iterable[engine.PromptRecord]):
        for r in records:
            if r.model != model or r.strategy != strategy:
                raise IngestionError(
                    f"{source} holds a record of model {r.model!r}, strategy {r.strategy!r}, but its"
                    f" {RUN_META_NAME} names model {model!r}, strategy {strategy!r}"
                )
            if r.iteration not in listed or r.doc_id not in docs or r.dimension_id not in dims:
                raise IngestionError(
                    f"{source} holds a record outside its {RUN_META_NAME} (iterations"
                    f" 1..{iterations}, {len(docs)} document(s), {len(dims)}"
                    f" dimension(s)): cell {(r.doc_id, r.dimension_id)} iteration {r.iteration}"
                )
            yield r

    records = engine.read_records_jsonl(run_dir / RECORDS_NAME)
    iteration_results = engine.iteration_results_from_records(within_meta(records))
    check_complete(
        source, set(listed), iteration_results, [(d, m) for d in doc_ids for m in dim_ids]
    )
    return RunData(model, strategy, iteration_results, engine.consensus_table(iteration_results))


def _read_run_meta(path: Path) -> tuple[str, str, int, list[str], list[str]]:
    """Model, strategy, iteration count, doc ids and dimension ids of a
    run's metadata; a malformed file raises an IngestionError naming it."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise IngestionError(f"{path}: expected a JSON object")

    def field(name: str, expected: str, valid) -> object:
        if name not in meta:
            raise IngestionError(f"{path}: lacks field {name!r}")
        if not valid(meta[name]):
            raise IngestionError(f"{path}: field {name!r} must be {expected}, got {meta[name]!r}")
        return meta[name]

    def ids(v: object) -> bool:
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    return (
        field("model", "a string", lambda v: isinstance(v, str)),
        field("strategy", "a string", lambda v: isinstance(v, str)),
        field("iterations", "a positive integer", lambda v: type(v) is int and v > 0),
        field("doc_ids", "a list of strings", ids),
        field("dimension_ids", "a list of strings", ids),
    )


def check_complete(
    source: str,
    expected: set[int],
    results: Sequence[engine.IterationResult],
    cells: Iterable[Subject] = (),
) -> None:
    """Refuse results in which a cell of ``cells``, or one present in them,
    lacks an expected iteration; a listed cell may have none at all.

    Raises IngestionError naming ``source``, the count of incomplete cells
    and up to 20 of them with their missing iterations.
    """
    done: dict[Subject, set[int]] = defaultdict(set, ((cell, set()) for cell in cells))
    for r in results:
        done[(r.doc_id, r.dimension_id)].add(r.iteration)
    incomplete = [
        f"cell {cell} lacks iteration(s) {sorted(expected - seen)}"
        for cell, seen in done.items()
        if expected - seen
    ]
    if incomplete:
        raise IngestionError(
            f"{source} is incomplete: {len(incomplete)} cell(s) lack"
            f" iterations; rerunning it in record mode into the same cache"
            f" completes them\n" + "\n".join(incomplete[:20])
        )


# -- run directory output ----------------------------------------------------


def write_run(
    out_dir: str | Path,
    corpus: Sequence[DocumentText],
    cb: Codebook,
    cfg: engine.RunConfig,
    client: LLMClient,
) -> engine.RunResult:
    """Code ``corpus`` and write its run directory; nothing else writes one.

    An invalid corpus creates nothing, nor does a chunk run whose chunk
    indices would reach ``engine.CHUNK_INDEX_LIMIT``. An earlier run's
    tables are removed, ``consensus.csv`` first, and its records truncated
    before this run's ``run_meta.json`` is written, so that metadata never
    sits beside a table or record of the earlier run. Records stream to ``records.jsonl`` as cells
    complete, so an interrupted run leaves its metadata and a prefix of its
    records, from which a record-mode rerun into the same cache resumes.
    ``run_meta.json`` takes the cache mode from ``client``, its only holder.
    """
    engine.validate_corpus(corpus, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "model": cfg.model,
        "strategy": cfg.strategy,
        "chunk_size": cfg.chunk_size,
        "iterations": cfg.iterations,
        "cache_mode": client.mode,
        "seed": cfg.seed,
        "word_boundary": cfg.word_boundary,
        "phrases": list(cfg.phrases),
        "dimension_ids": list(cb.ids),
        "doc_ids": [doc.doc_id for doc in corpus],
    }
    for name in (CONSENSUS_NAME, ITERATION_RESULTS_NAME, FAILURES_NAME):
        (out / name).unlink(missing_ok=True)
        engine._temp_name(out / name).unlink(missing_ok=True)
    with open(out / RECORDS_NAME, "w", encoding="utf-8", newline="\n") as fh:
        engine._write_whole(out / RUN_META_NAME, json.dumps(meta, indent=2, sort_keys=True) + "\n")
        result = engine.run_iterations(
            corpus, cb, cfg, client, record_sink=lambda r: fh.write(engine.record_to_json(r) + "\n")
        )
    write_run_outputs(out, meta, result)
    return result


def write_run_outputs(out: Path, meta: dict, result: engine.RunResult) -> None:
    """Persist a finished run's tables beside its records and metadata:
    iteration results, the failure manifest when cells failed, and consensus.

    Each is written whole, consensus last, so a table that exists is
    complete and ``consensus.csv`` marks a finished run.
    """
    rows = [
        {
            "doc_id": r.doc_id,
            "dimension_id": r.dimension_id,
            "iteration": r.iteration,
            "value": r.value,
        }
        for r in result.results
    ]
    write_table_csv(out / ITERATION_RESULTS_NAME, ["doc_id", "dimension_id", "iteration", "value"], rows)

    if result.failures:
        manifest = [f._asdict() for f in result.failures]
        engine._write_whole(out / FAILURES_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    table = engine.consensus_table(result.results)
    write_consensus_csv(out / CONSENSUS_NAME, table, meta["doc_ids"], meta["dimension_ids"])


def write_consensus_csv(
    path: str | Path,
    table: Mapping[Subject, engine.ConsensusResult],
    doc_ids: Sequence[str],
    dimension_ids: Sequence[str],
) -> None:
    """Write consensus codes as one row per document and one column per
    dimension, in the given orders; a cell without a consensus is empty."""
    rows = []
    for doc_id in doc_ids:
        row: dict[str, object] = {"doc_id": doc_id}
        for dim_id in dimension_ids:
            cell = table.get((doc_id, dim_id))
            row[dim_id] = None if cell is None else cell.value
        rows.append(row)
    write_table_csv(path, ["doc_id", *dimension_ids], rows)


# -- table construction --------------------------------------------------------


def _defined(metric: Callable[[ConfusionCounts], float], counts: ConfusionCounts) -> float | None:
    """The metric of ``counts``, or None (an empty cell) where it is undefined."""
    try:
        return metric(counts)
    except UndefinedMetricError:
        return None


def performance_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """One row per run: internal agreement, accuracy, precision and recall."""
    gold = agreement.manual_consensus(manual)
    rows = []
    for run in runs:
        counts = agreement.confusion(run.consensus_codes, gold)
        rows.append(
            {
                "model": run.model,
                "strategy": run.strategy,
                "internal_agreement": run.internal.model,
                "accuracy": agreement.accuracy(counts),
                "precision": _defined(agreement.precision, counts),
                "recall": _defined(agreement.recall, counts),
            }
        )
    return rows


def confusion_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """One row per run: the confusion counts behind its performance row."""
    gold = agreement.manual_consensus(manual)
    return [
        {"model": run.model, "strategy": run.strategy,
         **agreement.confusion(run.consensus_codes, gold)._asdict()}
        for run in runs
    ]


def per_dimension_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """Per run and dimension: true hits against the manual positives/negatives."""
    gold = agreement.manual_consensus(manual)
    dimension_ids = dict.fromkeys(dim_id for _, dim_id in manual.subjects)
    rows = []
    for run in runs:
        pred = run.consensus_codes
        for dim_id in dimension_ids:
            subjects = [s for s in manual.subjects if s[1] == dim_id]
            counts = agreement.confusion(
                {s: pred[s] for s in subjects if s in pred},
                {s: gold[s] for s in subjects},
            )
            rows.append(
                {
                    "model": run.model,
                    "strategy": run.strategy,
                    "dimension_id": dim_id,
                    "tp": counts.tp,
                    "tn": counts.tn,
                    "manual_positives": counts.tp + counts.fn,
                    "manual_negatives": counts.tn + counts.fp,
                    "positive_rate": _defined(agreement.recall, counts),
                    "negative_rate": _defined(agreement.negative_identification_rate, counts),
                }
            )
    return rows


def _why_degenerate(subjects: int) -> str:
    """Why kappa is undefined for a matrix of ``subjects`` rows that raised
    DegenerateKappaError."""
    return "fewer than two subjects" if subjects < 2 else "single-category ratings"


def _kappa_row(model: str, strategy: str, m: RatingMatrix) -> dict:
    """Kappa and percent agreement of one matrix. Where kappa is undefined
    its cells are empty and ``band`` names why; under two raters percent
    agreement is undefined too."""
    kappa = pct = None
    band = "undefined: fewer than two raters"
    if len(m.raters) >= 2:
        pct = agreement.percent_agreement(m)
        try:
            kappa = agreement.fleiss_kappa(m)
            band = agreement.kappa_band(kappa)
        except DegenerateKappaError:
            band = "undefined: " + _why_degenerate(len(m.subjects))
    return {
        "model": model,
        "strategy": strategy,
        "kappa": kappa,
        "band": band,
        "significant": None if kappa is None else kappa >= agreement.KAPPA_FAIR_MIN,
        "raters": len(m.raters),
        "percent_agreement": pct,
        "percent_agreement_flag": None if pct is None else (
            "ok" if pct >= agreement.PERCENT_AGREEMENT_TARGET
            else f"weak: below {agreement.PERCENT_AGREEMENT_TARGET:.2f}"
        ),
    }


def kappa_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """Manual-baseline kappa and per-run consensus (n+1) and internal kappas.

    Each row also carries the matrix's percent agreement, flagged weak when
    it falls below the 0.90 reporting target.
    """
    rows = [_kappa_row("manual", "", manual)]
    for run in runs:
        extended = manual.with_rater(run.rater_id, run.consensus_codes)
        rows.append(_kappa_row(run.model, run.strategy, extended))
    for run in runs:
        iteration_matrix = agreement.rating_matrix_from_iterations(run.iteration_results)
        rows.append(
            _kappa_row(run.model, run.strategy + " (iterations as raters)", iteration_matrix)
        )
    return rows


def merged_ratings(runs: Sequence[RunData], manual: RatingMatrix) -> RatingMatrix:
    """The manual matrix with one consensus column appended per run."""
    merged = manual
    for run in runs:
        merged = merged.with_rater(run.rater_id, run.consensus_codes)
    return merged


def kappa_delta_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """Per run and document: kappa before/after adding the run as a rater."""
    subjects = Counter(doc_id for doc_id, _ in manual.subjects)
    rows = []
    for run in runs:
        by_doc = agreement.kappa_with_llm_by_doc(manual, run.consensus_codes, run.rater_id)
        for doc_id, c in by_doc.items():  # c is None where the document's kappa is undefined
            rows.append(
                {
                    "model": run.model,
                    "strategy": run.strategy,
                    "doc_id": doc_id,
                    "kappa_before": c and c.kappa_before,
                    "kappa_after": c and c.kappa_after,
                    "delta": c and c.delta,
                    "note": "" if c else "degenerate: " + _why_degenerate(subjects[doc_id]),
                }
            )
    return rows


def internal_agreement_rows(runs: Sequence[RunData], manual: RatingMatrix) -> list[dict]:
    """Per run and document internal agreement (the per-paper breakdown)."""
    return [
        {"model": run.model, "strategy": run.strategy, "doc_id": doc_id,
         "internal_agreement": value}
        for run in runs
        for doc_id, value in run.internal.papers.items()
    ]


# -- serialization -------------------------------------------------------------


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table_csv(path: str | Path, fieldnames: Sequence[str], rows: Sequence[Mapping]) -> None:
    """Write rows as CSV, whole; floats keep full precision, None becomes empty.

    A row lacking one of ``fieldnames`` raises KeyError, and writes nothing.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(row[name]) for name in fieldnames])
    engine._write_whole(path, buffer.getvalue())


def _md_cell(value: object, percent: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value * 100:.2f}%" if percent else f"{value:.3f}"
    return str(value)


def markdown_table(
    fieldnames: Sequence[str], rows: Sequence[Mapping], percent_cols: Sequence[str] = ()
) -> str:
    """Render rows as a markdown table; percent columns get two decimals."""
    lines = [
        "| " + " | ".join(fieldnames) + " |",
        "| " + " | ".join("---" for _ in fieldnames) + " |",
    ]
    for row in rows:
        cells = (_md_cell(row[name], name in percent_cols) for name in fieldnames)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# Table name -> (row builder, percent columns). A table's columns are the
# keys of its rows, in order.
_TABLES = {
    "performance": (performance_rows, ("internal_agreement", "accuracy", "precision", "recall")),
    "confusion": (confusion_rows, ()),
    "per_dimension": (per_dimension_rows, ("positive_rate", "negative_rate")),
    "kappa": (kappa_rows, ("percent_agreement",)),
    "kappa_delta_per_paper": (kappa_delta_rows, ()),
    "internal_agreement_by_doc": (internal_agreement_rows, ("internal_agreement",)),
}


def write_report_bundle(
    out_dir: str | Path, runs: Sequence[RunData], manual: RatingMatrix
) -> list[Path]:
    """Write every evaluation table as CSV and markdown, plus the merged
    ratings; returns the paths.

    Every table is built before ``out_dir`` is created, so a run or matrix
    that some table refuses leaves no file.
    """
    if not runs:
        raise ValueError("a report needs at least one run")
    raters = list(manual.raters)
    for run in runs:
        if run.rater_id in raters:
            source = "the manual matrix" if run.rater_id in manual.raters else "another run"
            raise ValueError(f"rater id {run.rater_id!r} of a {run.strategy} run is also a rater of {source}")
        raters.append(run.rater_id)
    tables = {
        name: (builder(runs, manual), percent_cols)
        for name, (builder, percent_cols) in _TABLES.items()
    }
    merged = merged_ratings(runs, manual)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, (rows, percent_cols) in tables.items():
        fieldnames = list(rows[0])
        csv_path = out / f"{name}.csv"
        write_table_csv(csv_path, fieldnames, rows)
        md_path = out / f"{name}.md"
        engine._write_whole(md_path, markdown_table(fieldnames, rows, percent_cols))
        written.extend([csv_path, md_path])

    merged_path = out / "merged_ratings.csv"
    agreement.write_ratings_csv(merged, merged_path)
    written.append(merged_path)
    return written
