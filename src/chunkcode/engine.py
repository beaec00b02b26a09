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
import os
import queue
import threading
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .classifier import NO_MATCH, BinaryCode, KeyPhraseSet, classify, default_key_phrases
from .codebook import Codebook
from .errors import ChunkCodeError, ConfigError, IngestionError
from .ingestion import DocumentText, chunk_document
from .llm_client import LLMClient, PromptRequest, decode_json, render_prompt

STRATEGIES = ("whole", "chunk")
# Cells handed out ahead of the one being consumed, per worker.
_WINDOW_PER_WORKER = 4
# Chunk indices lie below this. A document would need a million words at
# chunk size 1 to reach it; a run that would reach it is refused, and so is
# a record at or above it, since reducing a cell costs a bit per index.
CHUNK_INDEX_LIMIT = 1_000_000


class _RunConfig(NamedTuple):
    model: str
    strategy: str
    chunk_size: int
    iterations: int
    phrases: KeyPhraseSet
    word_boundary: bool
    max_prompt_words: int | None
    seed: int | None


# Stands for the stock phrase list, so that an explicit None is refused.
_STOCK_PHRASES = object()


class RunConfig(_RunConfig):
    """Everything that defines one coding run.

    ``phrases`` defaults to ``default_key_phrases()``.
    """

    __slots__ = ()

    def __new__(
        cls,
        model: str,
        strategy: str = "chunk",
        chunk_size: int = 500,
        iterations: int = 15,
        phrases: KeyPhraseSet = _STOCK_PHRASES,
        word_boundary: bool = False,
        max_prompt_words: int | None = None,
        seed: int | None = None,
    ) -> "RunConfig":
        if phrases is _STOCK_PHRASES:
            phrases = default_key_phrases()
        if not model:
            raise ConfigError("model identifier must be nonempty")
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        if max_prompt_words is not None and max_prompt_words < 1:
            raise ConfigError(f"max_prompt_words must be >= 1, got {max_prompt_words}")
        if not isinstance(phrases, KeyPhraseSet):
            raise ConfigError("phrases must be a KeyPhraseSet")
        return tuple.__new__(
            cls,
            (model, strategy, chunk_size, iterations, phrases, word_boundary, max_prompt_words, seed),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "RunConfig":
        # _replace builds through _make, so a changed copy is checked too.
        return cls(*iterable)


# A NamedTuple, as ingestion.Chunk: a run, a replay and every load of a
# records file build one per prompt. The hot paths build it positionally;
# the keyword constructor costs about twice as much.
class PromptRecord(NamedTuple):
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


class IterationResult(NamedTuple):
    """The code one iteration assigned to a (document, dimension) cell."""

    doc_id: str
    dimension_id: str
    iteration: int
    value: bool


class ConsensusResult(NamedTuple):
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


class CellFailure(NamedTuple):
    """Why one (document, dimension, iteration) cell produced no code."""

    doc_id: str
    dimension_id: str
    iteration: int
    chunk_index: int | None
    error: str


class InternalAgreement(NamedTuple):
    """Internal agreement of a run at its three scopes.

    cells  -> {(doc_id, dimension_id): fraction of iterations matching the mode}
    papers -> {doc_id: mean over that document's dimensions}
    model  -> mean of the paper-level values
    """

    cells: dict[tuple[str, str], float]
    papers: dict[str, float]
    model: float


class RunResult(NamedTuple):
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


def _map_in_order(fn, items: Sequence, workers: int, stop: threading.Event) -> Iterator:
    """Yield ``fn(item)`` for each item, in order, computed on up to ``workers`` threads.

    One worker maps in the caller's thread, as there is nothing to overlap.
    More start ``min(workers, len(items))`` threads that share only ``stop``
    and two queues: each takes an item's index from ``todo`` and puts
    ``(index, result, exception)`` on ``done``, which the caller's thread
    alone reads. ``todo`` holds indices up to ``_WINDOW_PER_WORKER * workers``
    past the result being read: enough that one call sleeping through a retry
    does not idle the other threads, few enough that a long run holds a
    handful of results. A call that raises, or closing the generator, sets
    ``stop``: a thread that sees it takes no further index, one waiting on
    ``todo`` ends at the ``None`` put there for it, and the calls running,
    which may poll ``stop`` to end early, finish. Once every thread has been
    joined, the first exception in item order is raised; no result is yielded
    after ``stop`` is set.
    """
    if workers == 1:
        yield from map(fn, items)
        return
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def work() -> None:
        while not stop.is_set():
            index = todo.get()
            if index is None:
                return
            try:
                done.put((index, fn(items[index]), None))
            except BaseException as exc:
                stop.set()
                done.put((index, None, exc))

    window = _WINDOW_PER_WORKER * workers
    for index in range(min(window + 1, len(items))):
        todo.put(index)
    results, errors = {}, {}  # read and written by this thread alone
    threads: list[threading.Thread] = []
    try:
        for _ in range(min(workers, len(items))):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        for head in range(len(items)):
            while head not in results and not stop.is_set():
                index, result, exc = done.get()
                if exc is None:
                    results[index] = result
                else:
                    errors[index] = exc
            if stop.is_set():
                break
            yield results.pop(head)
            if head + window + 1 < len(items):
                todo.put(head + window + 1)
        else:
            return
    finally:
        stop.set()
        for thread in threads:
            todo.put(None)
        for thread in threads:
            thread.join()
    while not done.empty():
        index, _, exc = done.get()
        if exc is not None:
            errors[index] = exc
    raise errors[min(errors)]


def validate_corpus(corpus: Sequence[DocumentText], cfg: RunConfig) -> None:
    """Reject an empty corpus, a repeated doc_id, a document without words,
    and a chunk run that would give a chunk index of ``CHUNK_INDEX_LIMIT``."""
    if not corpus:
        raise ConfigError("corpus is empty")
    seen: set[str] = set()
    for doc in corpus:
        if doc.doc_id in seen:
            raise ConfigError(f"corpus repeats doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        if not doc.words:
            raise ConfigError(f"document {doc.doc_id!r} has no words")
        if cfg.strategy == "chunk" and len(doc.words) > CHUNK_INDEX_LIMIT * cfg.chunk_size:
            raise ConfigError(
                f"document {doc.doc_id!r} has {len(doc.words)} words: at chunk size"
                f" {cfg.chunk_size} its chunk indices would reach {CHUNK_INDEX_LIMIT}"
            )


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

    Up to ``client.max_inflight`` cells run at once, each prompting its
    bodies in order: at 1 in the caller's thread, else on worker threads that
    take cells from one queue and put outcomes on another, which the caller
    reads in canonical cell order (iteration, document, dimension). So
    results, failures and the sink's stream are identical to a serial run.
    A failed prompt becomes its cell's ``CellFailure``, never an exception.
    An exception, including an interrupt, cancels the cells not yet started,
    stops those in flight before their next prompt, and is raised once the
    requests in flight finish; the sink has then seen a canonical-order
    prefix of the run.
    """
    validate_corpus(corpus, cfg)
    bodies_by_doc = {doc.doc_id: _prompt_bodies(doc, cfg) for doc in corpus}
    cells = [
        (iteration, doc_id, bodies, dim)
        for iteration in range(1, cfg.iterations + 1)
        for doc_id, bodies in bodies_by_doc.items()
        for dim in cb
    ]
    stop = threading.Event()

    def code_cell(cell) -> list[PromptRecord] | CellFailure | None:
        """Prompt a cell's bodies in order: their records, or the cell's first failure."""
        iteration, doc_id, bodies, dim = cell
        cell_records = []
        for chunk_index, body_words, text in bodies:
            if stop.is_set():
                return None  # the run is being abandoned; nothing reads this
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
            cell_records.append(PromptRecord(
                doc_id, dim.id, iteration, chunk_index, cfg.model, cfg.strategy, response.text, code,
                request.request_key,
            ))
        return cell_records

    outcomes = _map_in_order(code_cell, cells, client.max_inflight, stop)
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


def modal_code(trues: int, n: int) -> tuple[bool, float]:
    """The mode of ``n`` binary codes of which ``trues`` are True, an even
    split going to True, and the share of the codes agreeing with it."""
    value = 2 * trues >= n
    return value, (trues if value else n - trues) / n


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
    value, support = modal_code(trues, len(results))
    return ConsensusResult(doc_id, dimension_id, value, support, tie=2 * trues == len(results))


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
        if not (chunk is None or type(chunk) is int and 0 <= chunk < CHUNK_INDEX_LIMIT):
            raise IngestionError(f"record of cell {key} has chunk index {chunk!r}")
        bit = 2 if chunk is None else 4 << chunk
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


def _temp_name(path: Path) -> Path:
    """Where ``_write_whole`` writes ``path`` before renaming it into place."""
    return path.with_name(path.name + ".part")


def _write_whole(path: str | Path, text: str) -> None:
    """Write ``text`` to a temp name beside ``path`` and rename it into place,
    so ``path`` is never half written. A write that fails or is interrupted
    removes the temp file; an OSError names ``path``, not the temp name."""
    path = Path(path)
    temp = _temp_name(path)
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(temp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        temp.unlink(missing_ok=True)


# The string escape of json.dumps with ensure_ascii (quotes included).
_escape = json.encoder.encode_basestring_ascii


def record_to_json(record: PromptRecord) -> str:
    """Canonical single-line JSON for one record (stable byte-for-byte).

    The bytes of ``json.dumps`` with sorted keys, ``,``/``:`` separators and
    ``ensure_ascii``, written through a fixed template in that key order.
    """
    chunk, code = record.chunk_index, record.code
    phrase = code.matched_phrase
    return (
        f'{{"chunk_index":{"null" if chunk is None else chunk},'
        f'"code":{"true" if code.value else "false"},'
        f'"dimension_id":{_escape(record.dimension_id)},'
        f'"doc_id":{_escape(record.doc_id)},'
        f'"iteration":{record.iteration},'
        f'"matched_phrase":{"null" if phrase is None else _escape(phrase)},'
        f'"model":{_escape(record.model)},'
        f'"raw_response":{_escape(record.raw_response)},'
        f'"request_key":{_escape(record.request_key)},'
        f'"strategy":{_escape(record.strategy)}}}'
    )


_RECORD_STRING_FIELDS = (
    "doc_id", "dimension_id", "model", "strategy", "raw_response", "request_key"
)


def record_from_json(line: str) -> PromptRecord:
    """The record one line of a records file holds.

    Raises JSONDecodeError for invalid JSON, TypeError for a line that is
    not an object, KeyError for a missing field, and ValueError for a field
    of the wrong type, an invalid code, or a chunk index at or above
    ``CHUNK_INDEX_LIMIT``.
    """
    data = decode_json(line)
    for name in _RECORD_STRING_FIELDS:
        if not isinstance(data[name], str):
            raise _field_error(data, name, "a string")
    iteration, chunk, phrase = data["iteration"], data["chunk_index"], data["matched_phrase"]
    if type(iteration) is not int or iteration < 1:  # bool is an int subclass
        raise _field_error(data, "iteration", "a positive integer")
    if chunk is not None and (type(chunk) is not int or chunk < 0):
        raise _field_error(data, "chunk_index", "null or a non-negative integer")
    value = data["code"]
    if type(value) is not bool:
        raise _field_error(data, "code", "true or false")
    if phrase is not None and not isinstance(phrase, str):
        raise _field_error(data, "matched_phrase", "null or a string")
    code = NO_MATCH if value is False and phrase is None else BinaryCode(value, phrase)
    if chunk is not None and chunk >= CHUNK_INDEX_LIMIT:
        raise _field_error(data, "chunk_index", f"below {CHUNK_INDEX_LIMIT}")
    return PromptRecord(
        data["doc_id"], data["dimension_id"], iteration, chunk, data["model"],
        data["strategy"], data["raw_response"], code, data["request_key"],
    )


def _field_error(data: dict, name: str, expected: str) -> ValueError:
    return ValueError(f"field {name!r} must be {expected}, not {json.dumps(data[name])}")


def read_records_jsonl(path: str | Path) -> Iterator[PromptRecord]:
    """Yield the records of a records file, one line at a time.

    A line that is not UTF-8 or not JSON, lacks a field, holds a field of
    the wrong type or an invalid code, or a chunk index at or above
    ``CHUNK_INDEX_LIMIT``, raises an IngestionError naming the file and the
    line number.
    """
    with open(path, encoding="utf-8") as fh:
        try:
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
                except ValueError as exc:  # a mistyped or out-of-range field, an invalid code
                    problem = str(exc)
                else:
                    yield record
                    continue
                raise IngestionError(f"records file {path}, line {number}: {problem}")
        except UnicodeDecodeError as exc:
            # Text mode decodes ahead of the line it yields. Find the line as
            # the first holding a byte that surrogateescape stands in for.
            with open(path, encoding="utf-8", errors="surrogateescape") as escaped:
                number = next(
                    n for n, line in enumerate(escaped, 1) if any("\udc80" <= c <= "\udcff" for c in line)
                )
            raise IngestionError(f"records file {path}, line {number}: not UTF-8 ({exc.reason})") from None
