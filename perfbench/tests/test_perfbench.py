"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import http.client
import json
import sys
import threading
import types
from pathlib import Path

import pytest

import checks
import corpus
import fake_endpoint
import run
import spans
from chunkcode.classifier import classify, default_key_phrases
from chunkcode.codebook import Dimension
from chunkcode.llm_client import render_prompt

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def endpoint():
    state = fake_endpoint.State()
    server = fake_endpoint.Server(("127.0.0.1", 0), fake_endpoint.make_handler(state))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)

    def call(path, payload):
        conn.request("POST", path, body=json.dumps(payload))
        resp = conn.getresponse()
        return resp.status, resp.getheader("Retry-After"), json.loads(resp.read())

    call.port = server.server_address[1]
    yield state, call
    conn.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def completion(prompt):
    return {"model": "m", "messages": [{"role": "user", "content": prompt}]}


def prompt_for(name, body):
    return render_prompt(Dimension(id="d", name=name, definition="Some definition."), body)


def test_template_codes_match_the_classifier():
    for text, code in corpus.TEMPLATE_CODES.items():
        assert classify(text, default_key_phrases()).value is code


def test_split_prompt_reads_the_rendered_prompt():
    assert corpus.split_prompt(prompt_for("Heat Flow 3", "alpha beta")) == ("Heat Flow 3", "alpha beta")
    with pytest.raises(ValueError):
        corpus.split_prompt("no instruction here")


def test_endpoint_answers_are_a_pure_function_of_the_prompt(endpoint):
    state, call = endpoint
    call("/_bench/config", {"seed": 5})
    answers = {}
    for body in ("one two three", "four five six", "one two three"):
        status, _, payload = call("/v1/chat/completions", completion(prompt_for("Heat Flow 3", body)))
        assert status == 200
        text = payload["choices"][0]["message"]["content"]
        assert text == corpus.answer(5, corpus.text_key("Heat Flow 3", body))
        answers.setdefault(body, set()).add(text)
    assert all(len(texts) == 1 for texts in answers.values())
    stats = state.snapshot()
    assert stats["requests"] == 3 and stats["by_status"] == {"200": 3}
    assert stats["inflight_max"] == 1


def test_endpoint_serves_concurrent_requests_without_a_cap(endpoint):
    state, call = endpoint
    call("/_bench/config", {"seed": 2, "latency_s": 0.3})
    statuses = []

    def one(i):
        conn = http.client.HTTPConnection("127.0.0.1", call.port, timeout=10)
        conn.request("POST", "/v1/chat/completions", body=json.dumps(completion(prompt_for("B 2", f"text {i}"))))
        statuses.append(conn.getresponse().status)
        conn.close()

    threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert statuses == [200] * 8
    stats = state.snapshot()
    assert stats["inflight_max"] == 8
    # Eight overlapping 0.3 s calls: mostly more than one in flight.
    assert stats["span_s"] < 8 * 0.3 and stats["inflight_mean"] > 2


def test_endpoint_injects_retries_once_and_rejections_always(endpoint):
    state, call = endpoint
    retry_key = corpus.text_key("A 1", "retry me")
    reject_key = corpus.text_key("A 1", "reject me")
    call("/_bench/config", {"seed": 1, "retry": {retry_key: 503}, "reject": [reject_key]})
    assert call("/v1/chat/completions", completion(prompt_for("A 1", "retry me")))[:2] == (503, "0")
    assert call("/v1/chat/completions", completion(prompt_for("A 1", "retry me")))[0] == 200
    for _ in range(3):
        assert call("/v1/chat/completions", completion(prompt_for("A 1", "reject me")))[0] == 400
    stats = state.snapshot()
    assert stats["arrivals"] == {retry_key: 2, reject_key: 3}
    assert stats["answered"] == {retry_key: 1}
    assert len(stats["retry_gaps_s"]) == 1


def test_injections_are_exact_and_disjoint():
    for seed in range(5):
        c = corpus.make_corpus(seed, docs=2, words_per_doc=1000)
        retry, reject, failed = c.injections(retries=3, rejects=2)
        assert len(retry) == 3 and len(reject) == 2 and len(failed) == 2
        assert not set(retry) & reject
        assert sorted(retry.values()) == [429, 429, 503]
        # No retried text belongs to a failing cell.
        for doc_id in c.doc_ids:
            for _, body in c.bodies(doc_id, "chunk"):
                for dim_id, name, _ in c.dims:
                    if corpus.text_key(name, body) in retry:
                        assert (doc_id, dim_id) not in failed


def record(doc, dim, iteration, chunk, code):
    return {"doc_id": doc, "dimension_id": dim, "iteration": iteration, "chunk_index": chunk, "code": code}


def test_consensus_recomputation_ors_chunks_then_takes_the_mode():
    records = [
        # d1/x: iteration 1 True through chunk 1, iteration 2 False, iteration 3 True.
        record("d1", "x", 1, 0, False), record("d1", "x", 1, 1, True),
        record("d1", "x", 2, 0, False), record("d1", "x", 2, 1, False),
        record("d1", "x", 3, 0, True), record("d1", "x", 3, 1, False),
        # d1/y: False in two of three iterations.
        record("d1", "y", 1, 0, False), record("d1", "y", 2, 0, True), record("d1", "y", 3, 0, False),
        # d2/x: an even split resolves to True.
        record("d2", "x", 1, None, True), record("d2", "x", 2, None, False),
    ]
    assert checks.recompute_consensus(records) == {("d1", "x"): True, ("d1", "y"): False, ("d2", "x"): True}


def span(span_id, parent, start, end, name="n"):
    return (span_id, parent, name, start, end, "run", 0.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    trace = [
        span(1, 0, 0.0, 10.0, "parent"),
        span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 6.0),  # overlap: union 1..6
        span(4, 1, 8.0, 12.0),  # clipped to the parent: 8..10
        span(5, 2, 1.5, 2.0),  # grandchild: not the parent's child
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)
    summary = spans.summarize(trace)
    assert summary["parent"]["self_s"] == pytest.approx(3.0)
    assert summary["n"]["calls"] == 4


def test_missing_wrappers_are_reported_not_skipped(monkeypatch):
    module = types.ModuleType("bench_fake_target")

    class Thing:
        @property
        def key(self):
            return "k"

        def work(self):
            return self.key * 2

    module.Thing = Thing
    module.helper = lambda: Thing().work()
    monkeypatch.setitem(sys.modules, "bench_fake_target", module)
    tracer = spans.Tracer()
    tracer.install((
        ("bench_fake_target", "helper", "helper", False),
        ("bench_fake_target:Thing", "key", "key", False),
        ("bench_fake_target:Thing", "work", "work", True),
        ("bench_fake_target", "gone", "gone", False),
        ("bench_fake_target:Missing", "work", "missing-class", False),
        ("bench_no_such_module", "f", "missing-module", False),
    ))
    assert tracer.missing == [
        "bench_fake_target.gone", "bench_fake_target:Missing.work", "bench_no_such_module.f",
    ]
    assert module.helper() == "kk"
    by_id = {s[0]: s for s in tracer.spans}
    names = {s[2]: s for s in tracer.spans}
    assert set(names) == {"helper", "key", "work"}
    assert by_id[names["key"][1]][2] == "work"
    assert by_id[names["work"][1]][2] == "helper"


def test_every_target_exists_in_this_tree():
    tracer = spans.Tracer()
    saved = {}
    for owner_path, attr, _, _ in spans.TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = __import__(module_name, fromlist=["_"])
        owner = getattr(owner, class_name) if class_name else owner
        saved[(owner, attr)] = vars(owner)[attr]
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
