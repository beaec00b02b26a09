"""Run the coding strategies over a corpus and reduce iterations to consensus.

Each (document, dimension) cell gets one prompt per body: the whole-text
strategy gives a document one body, its full text; the chunking strategy one
per fixed-size word chunk. A cell codes True when any of its bodies does.
Running N iterations and taking the per-cell mode yields the consensus code,
with per-cell support feeding the internal-agreement statistics.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .classifier import BinaryCode, KeyPhraseSet, classify, default_key_phrases
from .codebook import Codebook, Dimension
from .errors import ChunkCodeError, ConfigError, IngestionError
from .ingestion import DocumentText, chunk_document
from .llm_client import NETWORK_MODES, LLMClient, PromptRequest, render_prompt

STRATEGIES = ("whole", "chunk")
# Cells submitted ahead of the one being consumed, per worker.
_WINDOW_PER_WORKER = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one coding run."""

    model: str
    strategy: str = "chunk"
    chunk_size: int = 500
    iterations: int = 15
    phrases: KeyPhraseSet = field(default_factory=default_key_phrases)
    word_boundary: bool = False
    max_prompt_words: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ConfigError("model identifier must be nonempty")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not isinstance(self.phrases, KeyPhraseSet):
            raise ConfigError("phrases must be a KeyPhraseSet")


@dataclass(frozen=True)
class PromptRecord:
    """One model exchange, fully attributable to its cell."""

    doc_id: str
    dimension_id: str
    iteration: int
    chunk_index: int | None
    model: str
    strategy: str
    raw_response: str
    code: BinaryCode
    request_key: str


@dataclass(frozen=True)
class IterationResult:
    """The code one iteration assigned to a (document, dimension) cell."""

    doc_id: str
    dimension_id: str
    iteration: int
    value: bool


@dataclass(frozen=True)
class ConsensusResult:
    """The modal code of a cell across iterations.

    ``support`` is the fraction of iterations agreeing with the mode. Even
    splits resolve to True with the tie flag set; odd iteration counts can
    never tie, so support then always exceeds one half.
    """

    doc_id: str
    dimension_id: str
    value: bool
    support: float
    tie: bool = False


@dataclass(frozen=True)
class CellFailure:
    """Why one (document, dimension, iteration) cell produced no code."""

    doc_id: str
    dimension_id: str
    iteration: int
    chunk_index: int | None
    error: str


@dataclass(frozen=True)
class InternalAgreement:
    """Internal agreement of a run at its three scopes.

    cells  -> {(doc_id, dimension_id): fraction of iterations matching the mode}
    papers -> {doc_id: mean over that document's dimensions}
    model  -> mean of the paper-level values
    """

    cells: dict[tuple[str, str], float]
    papers: dict[str, float]
    model: float


@dataclass
class RunResult:
    """What a run produced and what it could not produce.

    The run's records are not kept: each went to the record sink, their only
    consumer, and ``prompts`` counts them.
    """

    results: list[IterationResult]
    failures: list[CellFailure]
    prompts: int

    @property
    def ok(self) -> bool:
        return not self.failures


def cell_tag(doc_id: str, dimension_id: str, iteration: int, chunk_index: int | None = None) -> str:
    """Tag distinguishing repeats of an identical prompt across cells.

    Keyed into the request hash so each (document, dimension, iteration,
    chunk) cell records and replays independently.
    """
    tag = f"{doc_id}/{dimension_id}/i{iteration}"
    if chunk_index is not None:
        tag += f"/c{chunk_index}"
    return tag


def _prompt_bodies(doc: DocumentText, cfg: RunConfig) -> list[tuple[int | None, int, str]]:
    """The (chunk_index, word_count, text) prompt bodies of one document.

    Whole-text is a single body spanning the document, with no chunk index,
    so its request tags and keys carry no chunk suffix.
    """
    if cfg.strategy == "whole":
        return [(None, len(doc.words), doc.text)]
    return [(c.index, len(c.words), c.text) for c in chunk_document(doc, cfg.chunk_size)]


def _complete_cell(
    client: LLMClient,
    cfg: RunConfig,
    doc_id: str,
    dim: Dimension,
    iteration: int,
    body: tuple[int | None, int, str],
) -> PromptRecord | CellFailure:
    """Prompt one body of a cell: its record, or the cell's failure."""
    chunk_index, body_words, text = body
    if cfg.max_prompt_words is not None and body_words > cfg.max_prompt_words:
        error = (
            f"prompt body of {body_words} words exceeds the configured limit of"
            f" {cfg.max_prompt_words}; refusing to truncate"
        )
        return CellFailure(doc_id, dim.id, iteration, chunk_index, error)
    request = PromptRequest(
        model=cfg.model,
        prompt_text=render_prompt(dim, text),
        tag=cell_tag(doc_id, dim.id, iteration, chunk_index),
    )
    try:
        response = client.complete(request)
    except ChunkCodeError as exc:
        error = (
            f"prompt for doc={doc_id!r} dim={dim.id!r} iteration={iteration}"
            f" chunk={chunk_index} failed: {exc}"
        )
        return CellFailure(doc_id, dim.id, iteration, chunk_index, error)
    code = classify(response.text, cfg.phrases, word_boundary=cfg.word_boundary)
    return PromptRecord(
        doc_id=doc_id,
        dimension_id=dim.id,
        iteration=iteration,
        chunk_index=chunk_index,
        model=cfg.model,
        strategy=cfg.strategy,
        raw_response=response.text,
        code=code,
        request_key=request.request_key,
    )


def _map_in_order(fn, items, workers: int, stop: threading.Event) -> Iterator:
    """Yield ``fn(item)`` for each item, in order, computed on ``workers`` threads.

    Submission runs a bounded window ahead of the result being read: enough
    that one call sleeping through a retry does not idle the other workers,
    few enough that a long run holds a handful of futures, not one per item.
    An exception from ``fn``, or closing the generator, sets ``stop`` and
    cancels the calls not yet started; leaving the pool waits for those
    already running, which may poll ``stop`` to end early.
    """
    from concurrent.futures import ThreadPoolExecutor  # only network modes come here

    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = islice(items, _WINDOW_PER_WORKER * workers)
        window = deque(pool.submit(fn, item) for item in ahead)
        try:
            while window:
                head = window.popleft()
                for item in islice(items, 1):
                    window.append(pool.submit(fn, item))
                yield head.result()
        finally:
            stop.set()
            for future in window:
                future.cancel()


def validate_corpus(corpus: Sequence[DocumentText]) -> None:
    """Reject an empty corpus, a repeated doc_id or a document without words."""
    if not corpus:
        raise ConfigError("corpus is empty")
    seen: set[str] = set()
    for doc in corpus:
        if doc.doc_id in seen:
            raise ConfigError(f"corpus repeats doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        if not doc.words:
            raise ConfigError(f"document {doc.doc_id!r} has no words")


def run_iterations(
    corpus: Sequence[DocumentText],
    cb: Codebook,
    cfg: RunConfig,
    client: LLMClient,
    *,
    record_sink: Callable[[PromptRecord], None] | None = None,
) -> RunResult:
    """Run the configured strategy for iterations 1..N over every document.

    Each (document, dimension, iteration) cell prompts once per body of its
    document and is True when any body's code is. Per-cell failures are
    collected rather than raised, so one bad prompt costs one cell, not the
    run; a failed prompt never becomes a False code, and the returned
    failures double as a manifest of what to retry. Interrupted record-mode
    runs resume cheaply because completed prompts hit the request cache.
    ``record_sink`` receives each PromptRecord of a completed cell, in
    order, for incremental persistence. It is the records' only consumer:
    each is folded into its cell's code as it passes, and the run holds no
    more of them than the cells in flight produce.

    When the client talks to the network, up to ``client.max_inflight``
    cells run at once, each prompting its bodies in order. Results are
    consumed in canonical cell order (iteration, document, dimension), so
    results, failures and the sink's stream are identical to a serial run.
    A failed prompt becomes its cell's ``CellFailure``, never an exception.
    An exception, including an interrupt, cancels the cells not yet started,
    stops those in flight before their next prompt, and is raised once the
    requests in flight finish; the sink has then seen a canonical-order
    prefix of the run.
    """
    validate_corpus(corpus)
    bodies_by_doc = {doc.doc_id: _prompt_bodies(doc, cfg) for doc in corpus}
    cells = (
        (iteration, doc_id, bodies, dim)
        for iteration in range(1, cfg.iterations + 1)
        for doc_id, bodies in bodies_by_doc.items()
        for dim in cb
    )

    stop = threading.Event()

    def code_cell(cell) -> list[PromptRecord] | CellFailure | None:
        iteration, doc_id, bodies, dim = cell
        cell_records = []
        for body in bodies:
            if stop.is_set():
                return None  # the run is being abandoned; nothing reads this
            outcome = _complete_cell(client, cfg, doc_id, dim, iteration, body)
            if isinstance(outcome, CellFailure):
                return outcome
            cell_records.append(outcome)
        return cell_records

    # Only a client that waits on the network gains from threads; replay and
    # mock are CPU-bound, where a pool only adds hand-off cost.
    outcomes = (
        _map_in_order(code_cell, cells, client.max_inflight, stop)
        if client.mode in NETWORK_MODES
        else (code_cell(cell) for cell in cells)
    )
    failures: list[CellFailure] = []
    prompts = 0

    def completed_records() -> Iterator[PromptRecord]:
        nonlocal prompts
        with contextlib.closing(outcomes):
            for outcome in outcomes:
                if isinstance(outcome, CellFailure):
                    failures.append(outcome)
                    continue
                for record in outcome:
                    if record_sink is not None:
                        record_sink(record)
                    prompts += 1
                    yield record

    results = iteration_results_from_records(completed_records())
    return RunResult(results, failures, prompts)


def consensus(results: Sequence[IterationResult]) -> ConsensusResult:
    """Reduce one cell's iteration codes to the modal value.

    Even-count ties resolve to True (the OR semantics are presence-biased)
    with the tie flag set and support 0.5.
    """
    if not results:
        raise ValueError("consensus needs at least one iteration result")
    keys = {(r.doc_id, r.dimension_id) for r in results}
    if len(keys) != 1:
        raise ValueError(f"consensus input spans multiple cells: {sorted(keys)}")
    doc_id, dimension_id = keys.pop()
    trues = sum(r.value for r in results)
    falses = len(results) - trues
    if trues == falses:
        return ConsensusResult(doc_id, dimension_id, True, 0.5, tie=True)
    value = trues > falses
    return ConsensusResult(doc_id, dimension_id, value, max(trues, falses) / len(results))


def consensus_table(
    results: Sequence[IterationResult],
) -> dict[tuple[str, str], ConsensusResult]:
    """Consensus per cell, keyed by (doc_id, dimension_id)."""
    grouped: dict[tuple[str, str], list[IterationResult]] = defaultdict(list)
    for r in results:
        grouped[(r.doc_id, r.dimension_id)].append(r)
    return {key: consensus(cell) for key, cell in grouped.items()}


def internal_agreement(
    table: Mapping[tuple[str, str], ConsensusResult],
) -> InternalAgreement:
    """Fraction of iterations matching the modal code, at three scopes.

    Read from a consensus table: each cell's support is its agreement.
    Aggregation always runs dimension -> paper -> model, so every document
    weighs equally in the model-level figure.
    """
    if not table:
        raise ValueError("no iteration results to aggregate")
    cells = {key: c.support for key, c in table.items()}
    by_doc: dict[str, list[float]] = defaultdict(list)
    for (doc_id, _), support in cells.items():
        by_doc[doc_id].append(support)
    papers = {doc_id: sum(vals) / len(vals) for doc_id, vals in by_doc.items()}
    return InternalAgreement(cells, papers, sum(papers.values()) / len(papers))


def iteration_results_from_records(
    records: Iterable[PromptRecord],
) -> list[IterationResult]:
    """Reduce prompt records, read once in order, to per-iteration cell codes.

    Chunked cells OR their chunk codes; whole-text cells carry one record.
    Output order follows first appearance of each cell in the records. A
    record of another model or strategy than the first record's is refused,
    as is a prompt (doc, dimension, iteration, chunk) seen twice, naming up
    to 20 repeats. Each cell keeps one int, its code in bit 0 and a bit per
    chunk seen, so a stream reduces in flat memory.
    """
    cells: dict[tuple[str, str, int], int] = {}
    repeats: list[str] = []
    run = None
    for record in records:
        key = (record.doc_id, record.dimension_id, record.iteration)
        if run is None:
            run = (record.model, record.strategy)
        elif (record.model, record.strategy) != run:
            raise IngestionError(
                f"records mix runs: a record of model {record.model!r}, strategy"
                f" {record.strategy!r} follows records of model {run[0]!r}, strategy {run[1]!r}"
            )
        chunk = record.chunk_index
        try:
            bit = 2 if chunk is None else 4 << chunk
        except (TypeError, ValueError):
            raise IngestionError(f"record of cell {key} has chunk index {chunk!r}") from None
        state = cells.get(key, 0)
        if state & bit:
            repeats.append(f"cell {key[:2]} iteration {key[2]} chunk {chunk}")
        cells[key] = state | bit | record.code.value
    if repeats:
        raise IngestionError(f"records repeat {len(repeats)} prompt(s)\n" + "\n".join(repeats[:20]))
    return [
        IterationResult(doc_id, dimension_id, iteration, bool(state & 1))
        for (doc_id, dimension_id, iteration), state in cells.items()
    ]


# -- persistence -----------------------------------------------------------


# Built once: json.dumps builds an encoder per call when given options.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def record_to_json(record: PromptRecord) -> str:
    """Canonical single-line JSON for one record (stable byte-for-byte)."""
    return _RECORD_ENCODER.encode(
        {
            "doc_id": record.doc_id,
            "dimension_id": record.dimension_id,
            "iteration": record.iteration,
            "chunk_index": record.chunk_index,
            "model": record.model,
            "strategy": record.strategy,
            "raw_response": record.raw_response,
            "code": record.code.value,
            "matched_phrase": record.code.matched_phrase,
            "request_key": record.request_key,
        }
    )


_RECORD_STRING_FIELDS = (
    "doc_id", "dimension_id", "model", "strategy", "raw_response", "request_key"
)


def record_from_json(line: str) -> PromptRecord:
    """The record one line of a records file holds.

    Raises JSONDecodeError for invalid JSON, TypeError for a line that is
    not an object, KeyError for a missing field, and ValueError for a field
    of the wrong type or an invalid code.
    """
    data = json.loads(line)
    for name in _RECORD_STRING_FIELDS:
        if not isinstance(data[name], str):
            raise _field_error(data, name, "a string")
    iteration, chunk, phrase = data["iteration"], data["chunk_index"], data["matched_phrase"]
    if type(iteration) is not int or iteration < 1:  # bool is an int subclass
        raise _field_error(data, "iteration", "a positive integer")
    if chunk is not None and (type(chunk) is not int or chunk < 0):
        raise _field_error(data, "chunk_index", "null or a non-negative integer")
    if type(data["code"]) is not bool:
        raise _field_error(data, "code", "true or false")
    if phrase is not None and not isinstance(phrase, str):
        raise _field_error(data, "matched_phrase", "null or a string")
    return PromptRecord(
        doc_id=data["doc_id"],
        dimension_id=data["dimension_id"],
        iteration=iteration,
        chunk_index=chunk,
        model=data["model"],
        strategy=data["strategy"],
        raw_response=data["raw_response"],
        code=BinaryCode(data["code"], phrase),
        request_key=data["request_key"],
    )


def _field_error(data: dict, name: str, expected: str) -> ValueError:
    return ValueError(f"field {name!r} must be {expected}, not {json.dumps(data[name])}")


def read_records_jsonl(path: str | Path) -> Iterator[PromptRecord]:
    """Yield the records of a records file, one line at a time.

    A line that is not JSON, lacks a field, holds a field of the wrong type
    or an invalid code raises an IngestionError naming the file and the
    line number.
    """
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_json(line)
            except json.JSONDecodeError as exc:
                problem = f"invalid JSON (column {exc.colno}: {exc.msg})"
            except KeyError as exc:
                problem = f"record lacks field {exc}"
            except TypeError:
                problem = "not a JSON object"
            except ValueError as exc:  # a code that breaks BinaryCode's invariants
                problem = str(exc)
            else:
                yield record
                continue
            raise IngestionError(f"records file {path}, line {number}: {problem}")
