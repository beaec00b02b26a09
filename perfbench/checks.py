"""Output checks: what a run directory must hold, recomputed independently."""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import corpus

OUTPUT_FILES = ("records.jsonl", "iteration_results.csv", "consensus.csv", "failures.json")


def read_records(run_dir: Path) -> list[dict]:
    with open(run_dir / "records.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def count_records(run_dir: Path) -> int:
    with open(run_dir / "records.jsonl", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def read_consensus_csv(run_dir: Path) -> dict[tuple[str, str], str]:
    with open(run_dir / "consensus.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    dims = rows[0][1:]
    return {(row[0], dim): cell for row in rows[1:] for dim, cell in zip(dims, row[1:])}


def recompute_consensus(records: list[dict]) -> dict[tuple[str, str], bool]:
    """OR over a cell's chunks per iteration, then the mode over iterations
    (an even split resolves to True)."""
    per_iteration: dict[tuple[str, str, int], bool] = {}
    for r in records:
        key = (r["doc_id"], r["dimension_id"], r["iteration"])
        per_iteration[key] = per_iteration.get(key, False) or r["code"]
    votes: dict[tuple[str, str], Counter] = {}
    for (doc_id, dim_id, _), value in per_iteration.items():
        votes.setdefault((doc_id, dim_id), Counter())[value] += 1
    return {cell: c[True] >= c[False] for cell, c in votes.items()}


def digest(run_dir: Path, names=OUTPUT_FILES) -> str:
    h = hashlib.sha256()
    for name in names:
        path = run_dir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<absent>")
    return h.hexdigest()


def check_run_dir(
    run_dir: Path,
    c: corpus.Corpus,
    strategy: str,
    failed_pairs: frozenset[tuple[str, str]] = frozenset(),
) -> list[str]:
    """Problems with one run directory, or an empty list.

    ``failed_pairs`` are the (doc_id, dimension_id) pairs whose every
    iteration must fail; every other cell must be coded exactly as the
    endpoint's answer model says.
    """
    problems = []
    records = read_records(run_dir)
    expected = c.expected_responses(strategy)
    chunks = len(c.bodies(c.doc_ids[0], strategy))
    ok_cells = (len(c.doc_ids) * len(c.dims) - len(failed_pairs)) * corpus.ITERATIONS
    if len(records) != ok_cells * chunks:
        problems.append(f"{run_dir.name}: {len(records)} records, expected {ok_cells * chunks}")
    seen = Counter((r["doc_id"], r["dimension_id"], r["iteration"], r["chunk_index"]) for r in records)
    repeated = [k for k, n in seen.items() if n > 1]
    if repeated:
        problems.append(f"{run_dir.name}: (cell, chunk) recorded more than once: {repeated[:3]}")
    wrong = []
    for r in records:
        pair = (r["doc_id"], r["dimension_id"])
        text = expected.get((*pair, r["chunk_index"]))
        if pair in failed_pairs or r["raw_response"] != text or r["code"] != corpus.TEMPLATE_CODES.get(text):
            wrong.append((*pair, r["iteration"], r["chunk_index"]))
    if wrong:
        problems.append(f"{run_dir.name}: {len(wrong)} record(s) with a wrong cell, answer or code: {wrong[:3]}")

    truth = c.expected_consensus(strategy)
    written = read_consensus_csv(run_dir)
    recomputed = recompute_consensus(records)
    for pair, value in truth.items():
        want = "" if pair in failed_pairs else ("T" if value else "F")
        got_re = recomputed.get(pair)
        if written.get(pair) != want or (want and got_re != value):
            problems.append(
                f"{run_dir.name}: consensus for {pair} reads {written.get(pair)!r},"
                f" recomputed {got_re!r}, expected {want!r}"
            )
            break

    failures_path = run_dir / "failures.json"
    want_failed = {(d, m, i) for d, m in failed_pairs for i in range(1, corpus.ITERATIONS + 1)}
    if failures_path.exists():
        listed = {(f["doc_id"], f["dimension_id"], f["iteration"]) for f in json.loads(failures_path.read_text())}
    else:
        listed = set()
    if listed != want_failed:
        problems.append(f"{run_dir.name}: failures.json lists {len(listed)} cells, expected {len(want_failed)}")
    with open(run_dir / "iteration_results.csv", encoding="utf-8", newline="") as fh:
        coded = {(row["doc_id"], row["dimension_id"]) for row in csv.DictReader(fh)}
    if coded & failed_pairs:
        problems.append(f"{run_dir.name}: failed cells carry codes: {sorted(coded & failed_pairs)[:3]}")
    return problems


def check_endpoint(
    stats: dict,
    c: corpus.Corpus,
    strategies: tuple[str, ...],
    retry: dict[str, int] | None = None,
    reject: frozenset[str] = frozenset(),
    failed_pairs: frozenset[tuple[str, str]] = frozenset(),
) -> list[str]:
    """Every prompt of a successful cell reached the endpoint once per
    iteration, plus one extra arrival for each injected retry; rejected texts
    arrived once per iteration."""
    problems = []
    retry = retry or {}
    arrivals, answered = stats["arrivals"], stats["answered"]
    for doc_id, strategy in ((d, s) for d in c.doc_ids for s in strategies):
        for _, body in c.bodies(doc_id, strategy):
            for dim_id, name, _ in c.dims:
                if (doc_id, dim_id) in failed_pairs:
                    continue
                key = corpus.text_key(name, body)
                want = corpus.ITERATIONS + (key in retry)
                if arrivals.get(key, 0) != want or answered.get(key, 0) != corpus.ITERATIONS:
                    problems.append(
                        f"endpoint: {doc_id}/{dim_id} text arrived {arrivals.get(key, 0)} times"
                        f" ({answered.get(key, 0)} answered), expected {want}"
                    )
                    return problems
    for key in reject:
        if arrivals.get(key, 0) != corpus.ITERATIONS:
            problems.append(f"endpoint: rejected text arrived {arrivals.get(key, 0)} times")
    injected = stats["by_status"].get("429", 0) + stats["by_status"].get("503", 0)
    if injected != len(retry):
        problems.append(f"endpoint: {injected} injected retry responses, expected {len(retry)}")
    return problems
