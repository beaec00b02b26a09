"""In-memory span tracing by wrapping names where their callers look them up.

A span is (id, parent id, name, start, end, run id, thread CPU seconds).
Parents come from a thread-local stack, so spans stay correctly nested when
work runs on several threads. Spans are kept in a list and written out once
the traced process is done.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (owner, attribute, span name, measure thread CPU). The owner is a module,
# or "module:Class" for methods and properties. Functions imported with
# "from x import y" are wrapped in the importing module, where the caller
# looks them up.
TARGETS = (
    ("chunkcode.cli", "load_manifest", "ingestion.load_manifest", False),
    ("chunkcode.cli", "load_codebook", "codebook.load_codebook", False),
    ("chunkcode.engine", "chunk_document", "ingestion.chunk_document", False),
    ("chunkcode.engine", "render_prompt", "llm_client.render_prompt", False),
    ("chunkcode.llm_client:PromptRequest", "request_key", "llm_client.request_key", False),
    ("chunkcode.llm_client:LLMClient", "complete", "llm_client.complete", False),
    ("requests:Session", "post", "llm_client.transport", True),
    ("chunkcode.engine", "classify", "classifier.classify", False),
    ("chunkcode.engine", "run_iterations", "engine.run_iterations", False),
    ("chunkcode.engine", "record_to_json", "engine.record_to_json", False),
    ("chunkcode.report", "write_run_outputs", "report.write_run_outputs", False),
    ("chunkcode.report", "load_run", "report.load_run", False),
    ("chunkcode.engine", "read_records_jsonl", "engine.read_records_jsonl", False),
    ("chunkcode.engine", "consensus_table", "engine.consensus_table", False),
    ("chunkcode.engine", "internal_agreement", "engine.internal_agreement", False),
    ("chunkcode.report", "write_report_bundle", "report.write_report_bundle", False),
    ("chunkcode.agreement", "read_ratings_csv", "agreement.read_ratings_csv", False),
    ("chunkcode.agreement", "fleiss_kappa", "agreement.fleiss_kappa", False),
    ("chunkcode.agreement", "rating_matrix_from_iterations", "agreement.rating_matrix_from_iterations", False),
    ("chunkcode.stats", "mann_whitney_u", "stats.mann_whitney_u", False),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, cpu: bool = False):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter
        thread_clock = time.thread_time if cpu else (lambda: 0.0)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            c0 = thread_clock()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = thread_clock()
                stack.pop()
                spans.append((span_id, parent, name, t0, t1, self.run_id, c1 - c0))

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a target that no longer exists is recorded."""
        for owner_path, attr, name, cpu in targets:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            current = vars(owner).get(attr)
            if isinstance(current, property) and current.fget is not None:
                setattr(owner, attr, property(self.wrap(name, current.fget, cpu)))
            elif callable(current):
                setattr(owner, attr, self.wrap(name, current, cpu))
            else:
                self.missing.append(f"{owner_path}.{attr}")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None:
            children[s[1]].append((max(s[3], parent[3]), min(s[4], parent[4])))
    return {
        s[0]: (s[4] - s[3]) - _union_length([c for c in children[s[0]] if c[1] > c[0]])
        for s in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: total and self seconds, calls, durations, thread CPU."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s[2], {"s": 0.0, "self_s": 0.0, "calls": 0, "cpu_s": 0.0, "durations": []})
        entry["s"] += s[4] - s[3]
        entry["self_s"] += selfs[s[0]]
        entry["calls"] += 1
        entry["cpu_s"] += s[6]
        entry["durations"].append(s[4] - s[3])
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile (1 to 99), interpolated; 0.0 when there are none."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
