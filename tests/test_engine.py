import contextlib
import copy
import gc
import hashlib
import functools
import inspect
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chunkcode as cc
from chunkcode import engine, llm_client, report
from chunkcode.engine import cell_tag, record_from_json, record_to_json
from chunkcode.errors import ConfigError
import convert_flat_cache
from fake_transport import FakeTransport
from local_endpoint import LocalEndpoint

POSITIVE = "Yes, the parameter is mentioned."
NEGATIVE = "The paper does not focus on it."


def mock_client(responder):
    return cc.LLMClient(mode="mock", mock=responder)


def chunk_index_of(request):
    tag = request.tag
    return int(tag.rsplit("/c", 1)[1]) if "/c" in tag else None


def iteration_of(request):
    return int(request.tag.split("/i", 1)[1].split("/", 1)[0])


# Any text, lone surrogates and C0/C1 controls included.
ANY_TEXT = st.text(st.characters(blacklist_categories=()))


def sorted_json_dumps(record):
    """A record line as json.dumps writes it: the form records.jsonl keeps."""
    return json.dumps(
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
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )


# One factory per immutable record type of the package: two calls build
# distinct, equal instances.
RECORD_FACTORIES = {
    "RatingMatrix": lambda: cc.RatingMatrix(subjects=(("d", "x"),), raters=("a",), codes=((True,),)),
    "ConfusionCounts": lambda: cc.ConfusionCounts(1, 2, 3, 4),
    "KappaComparison": lambda: cc.KappaComparison(0.25, 0.5),
    "BinaryCode": lambda: cc.BinaryCode(True, "yes"),
    "Dimension": lambda: cc.Dimension("x", "X", "Ex."),
    "Codebook": lambda: cc.Codebook((cc.Dimension("x", "X", "Ex."),)),
    "RunConfig": lambda: cc.RunConfig(model="m"),
    "IterationResult": lambda: cc.IterationResult("d", "x", 1, True),
    "ConsensusResult": lambda: cc.ConsensusResult("d", "x", True, 1.0),
    "CellFailure": lambda: cc.CellFailure("d", "x", 1, None, "failed"),
    "InternalAgreement": lambda: cc.InternalAgreement({("d", "x"): 1.0}, {"d": 1.0}, 1.0),
    "DocumentText": lambda: cc.DocumentText.from_raw("d", "some words"),
    "PromptRequest": lambda: cc.PromptRequest("m", "prompt", "tag"),
    "Sample": lambda: cc.Sample("a", (1.0, 2.0)),
    "TestResult": lambda: cc.TestResult(1.0, 0.5, "exact"),
}


@pytest.mark.parametrize("name", RECORD_FACTORIES)
def test_records_are_immutable_and_compare_by_value(name):
    make = RECORD_FACTORIES[name]
    record, again = make(), make()
    assert record == again and record is not again
    assert not record != again
    if name != "InternalAgreement":  # it holds dicts
        assert hash(record) == hash(again)
    first = next(iter(inspect.signature(type(record)).parameters))
    for attribute in (first, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError):
            delattr(record, attribute)
    assert record == again
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


class TestRunConfig:
    def test_defaults(self):
        cfg = cc.RunConfig(model="m")
        assert cfg.strategy == "chunk"
        assert cfg.chunk_size == 500
        assert cfg.iterations == 15
        assert len(cfg.phrases) == 14

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"model": ""}, "model identifier must be nonempty"),
            (
                {"model": "m", "strategy": "sideways"},
                "unknown strategy 'sideways'; expected one of ('whole', 'chunk')",
            ),
            ({"model": "m", "chunk_size": 0}, "chunk_size must be >= 1, got 0"),
            ({"model": "m", "iterations": 0}, "iterations must be >= 1, got 0"),
            ({"model": "m", "max_prompt_words": 0}, "max_prompt_words must be >= 1, got 0"),
            ({"model": "m", "phrases": ["the text discusses"]}, "phrases must be a KeyPhraseSet"),
            ({"model": "m", "phrases": None}, "phrases must be a KeyPhraseSet"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cc.RunConfig(**kwargs)

    def test_a_changed_copy_is_checked_too(self):
        cfg = cc.RunConfig(model="m")
        changed = cfg._replace(iterations=3)
        assert type(changed) is cc.RunConfig and changed.iterations == 3
        with pytest.raises(ConfigError, match="^iterations must be >= 1, got 0$"):
            cfg._replace(iterations=0)
        with pytest.raises(ConfigError, match="^model identifier must be nonempty$"):
            cc.RunConfig._make(("", *cfg[1:]))


def run_collecting(corpus, codebook, cfg, client):
    """A run and the records its sink received, in order."""
    records = []
    rr = cc.run_iterations(corpus, codebook, cfg, client, record_sink=records.append)
    return rr, records


def single_iteration(corpus, codebook, client, **cfg_kwargs):
    """A single-iteration run, where each cell's code is its iteration's code."""
    cfg = cc.RunConfig(model="m", iterations=1, **cfg_kwargs)
    return run_collecting(corpus, codebook, cfg, client)


class TestCodeWhole:
    def test_constant_positive_mock_codes_all_true(self, codebook, tiny_corpus, positive_mock):
        rr, records = single_iteration(tiny_corpus[:1], codebook, positive_mock, strategy="whole")
        assert [r.value for r in rr.results] == [True, True, True]
        assert len(records) == len(codebook)
        assert all(r.chunk_index is None for r in records)

    def test_constant_negative_mock_codes_all_false(self, codebook, tiny_corpus, negative_mock):
        rr, _ = single_iteration(tiny_corpus[:1], codebook, negative_mock, strategy="whole")
        assert [r.value for r in rr.results] == [False, False, False]

    def test_prompt_count_law(self, codebook, tiny_corpus, positive_mock):
        rr, records = single_iteration(tiny_corpus[:1], codebook, positive_mock, strategy="whole")
        assert len(records) == rr.prompts == len(codebook)

    def test_empty_document_rejected(self, codebook, positive_mock):
        doc = cc.DocumentText.from_raw("empty", "")
        with pytest.raises(ConfigError):
            single_iteration([doc], codebook, positive_mock, strategy="whole")

    def test_oversized_prompt_refused_not_truncated(self, codebook, tiny_corpus, positive_mock):
        rr, records = single_iteration(
            tiny_corpus[:1], codebook, positive_mock, strategy="whole", max_prompt_words=3
        )
        assert "refusing to truncate" in rr.failures[0].error
        assert len(rr.failures) == len(codebook)
        assert not rr.results and not records and rr.prompts == 0


class TestCodeChunked:
    def test_or_aggregation_over_all_patterns(self, codebook):
        # 7-word document at size 3 gives chunks [3, 3, 1]
        doc = cc.DocumentText.from_raw("d", " ".join(f"w{i}" for i in range(7)))
        one_dim = cc.Codebook((codebook.dimensions[0],))
        for pattern in product([False, True], repeat=3):
            client = mock_client(
                lambda req, p=pattern: POSITIVE if p[chunk_index_of(req)] else NEGATIVE
            )
            rr, records = single_iteration([doc], one_dim, client, strategy="chunk", chunk_size=3)
            assert rr.results[0].value is any(pattern)
            assert [r.code.value for r in records] == list(pattern)
            assert [r.chunk_index for r in records] == [0, 1, 2]

    def test_prompt_count_law(self, codebook, positive_mock):
        doc = cc.DocumentText.from_raw("d", " ".join(f"w{i}" for i in range(1100)))
        rr, records = single_iteration(
            [doc], codebook, positive_mock, strategy="chunk", chunk_size=500
        )
        assert len(records) == rr.prompts == 3 * len(codebook)  # ceil(1100/500) * |dims|


class TestRunIterations:
    def test_result_and_record_counts(self, codebook, tiny_corpus, positive_mock):
        cfg = cc.RunConfig(
            model="m", strategy="chunk", chunk_size=5, iterations=3
        )
        rr, records = run_collecting(tiny_corpus, codebook, cfg, positive_mock)
        assert rr.ok
        assert len(rr.results) == 2 * 3 * 3  # docs * dims * iterations
        # doc-a: 7 words -> 2 chunks; doc-b: 4 words -> 1 chunk
        assert len(records) == rr.prompts == (2 + 1) * 3 * 3

    def test_empty_corpus_rejected(self, codebook, positive_mock):
        cfg = cc.RunConfig(model="m")
        with pytest.raises(ConfigError, match="empty"):
            cc.run_iterations([], codebook, cfg, positive_mock)

    def test_duplicate_doc_ids_rejected(self, codebook, tiny_corpus, positive_mock):
        cfg = cc.RunConfig(model="m")
        with pytest.raises(ConfigError, match="repeats"):
            cc.run_iterations(
                [tiny_corpus[0], tiny_corpus[0]], codebook, cfg, positive_mock
            )

    def test_cell_failures_are_collected_not_raised(self, codebook, tiny_corpus):
        def flaky(request):
            if request.tag == cell_tag("doc-a", "state", 2):
                raise cc.TransportError("socket burst into flames")
            return POSITIVE

        client = mock_client(flaky)
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=3)
        rr = cc.run_iterations(tiny_corpus, codebook, cfg, client)
        assert not rr.ok
        assert len(rr.failures) == 1
        failure = rr.failures[0]
        assert (failure.doc_id, failure.dimension_id, failure.iteration) == ("doc-a", "state", 2)
        assert "flames" in failure.error
        assert len(rr.results) == 2 * 3 * 3 - 1

    def test_failed_chunk_fails_only_its_cell(self, codebook, tiny_corpus):
        def flaky(request):
            if request.tag == cell_tag("doc-a", "fidelity", 1, 1):
                raise cc.TransportError("chunk 1 went missing")
            return NEGATIVE

        client = mock_client(flaky)
        cfg = cc.RunConfig(
            model="m", strategy="chunk", chunk_size=5, iterations=1
        )
        rr = cc.run_iterations(tiny_corpus, codebook, cfg, client)
        assert len(rr.failures) == 1
        assert rr.failures[0].chunk_index == 1
        produced = {(r.doc_id, r.dimension_id) for r in rr.results}
        assert ("doc-a", "fidelity") not in produced
        assert ("doc-a", "use-cases") in produced

    def test_record_sink_streams_all_records(self, codebook, tiny_corpus, positive_mock):
        cfg = cc.RunConfig(
            model="m", strategy="whole", iterations=2
        )
        rr, streamed = run_collecting(tiny_corpus, codebook, cfg, positive_mock)
        assert rr.prompts == len(streamed) == 2 * 3 * 2
        assert [(r.doc_id, r.dimension_id, r.iteration) for r in streamed] == [
            (doc.doc_id, dim_id, iteration)
            for iteration in (1, 2)
            for doc in tiny_corpus
            for dim_id in codebook.ids
        ]
        assert cc.iteration_results_from_records(streamed) == rr.results

    @pytest.mark.parametrize("max_inflight", [None, 8])
    def test_no_record_outlives_the_run(self, codebook, tiny_corpus, max_inflight):
        # None: a mock run, coded inline; 8: a live run, coded on a thread pool
        if max_inflight is None:
            client = mock_client(lambda request: POSITIVE)
        else:
            client = network_client(FakeTransport(), max_inflight)
        # Records are tuples, which take no weak reference, so the test looks
        # for them among the objects the collector tracks. The sink holds the
        # first record back, to show that the scan finds a record still alive.
        cfg = cc.RunConfig(model="outlives", strategy="chunk", chunk_size=2, iterations=3)
        held, seen = [], []

        def sink(record):
            if not held:
                held.append(record)
            seen.append(record.request_key)

        rr = cc.run_iterations(tiny_corpus, codebook, cfg, client, record_sink=sink)

        def live_records():
            gc.collect()
            return [
                o for o in gc.get_objects() if type(o) is cc.PromptRecord and o.model == cfg.model
            ]

        found = live_records()
        assert len(found) == 1 and found[0] is held[0]
        del found
        held.clear()
        assert live_records() == []
        assert rr.ok and rr.prompts == len(seen) == (4 + 2) * 3 * 3

    def test_single_iteration_consensus_equals_iteration(self, codebook, tiny_corpus, negative_mock):
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=1)
        rr = cc.run_iterations(tiny_corpus, codebook, cfg, negative_mock)
        for cell in cc.consensus_table(rr.results).values():
            assert cell.value is False
            assert cell.support == 1.0

    def test_deterministic_mock_gives_unanimous_support(self, codebook, tiny_corpus, positive_mock):
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=5)
        rr = cc.run_iterations(tiny_corpus, codebook, cfg, positive_mock)
        assert all(c.support == 1.0 for c in cc.consensus_table(rr.results).values())


class TestConsensus:
    def make_results(self, values, doc="d", dim="x"):
        return [
            cc.IterationResult(doc, dim, i + 1, v) for i, v in enumerate(values)
        ]

    def test_mode(self):
        cell = cc.consensus(self.make_results([True, True, False, True, False]))
        assert cell.value is True
        assert cell.support == 0.6
        assert cell.tie is False

    def test_unanimous(self):
        cell = cc.consensus(self.make_results([True] * 15))
        assert cell.value is True and cell.support == 1.0

    def test_every_two_iteration_outcome(self):
        for a, b in product([False, True], repeat=2):
            cell = cc.consensus(self.make_results([a, b]))
            if a == b:
                assert cell.value is a and cell.support == 1.0 and not cell.tie
            else:
                assert cell.value is True and cell.support == 0.5 and cell.tie

    @pytest.mark.parametrize(
        "trues, n, modal",
        [(1, 2, (True, 0.5)), (7, 14, (True, 0.5)), (2, 3, (True, 2 / 3)), (1, 3, (False, 2 / 3)),
         (0, 15, (False, 1.0)), (15, 15, (True, 1.0))],
    )
    def test_modal_code_goes_to_true_on_an_even_split(self, trues, n, modal):
        assert engine.modal_code(trues, n) == modal

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cc.consensus([])

    def test_mixed_cells_rejected(self):
        results = self.make_results([True]) + [cc.IterationResult("other", "x", 1, True)]
        with pytest.raises(ValueError, match="multiple cells"):
            cc.consensus(results)

    def test_order_invariance(self):
        values = [True, False, True, True, False, False, True]
        base = self.make_results(values)
        rng = random.Random(5)
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert cc.consensus(shuffled) == cc.consensus(base)

    def test_odd_iterations_majority_support(self):
        for values in product([False, True], repeat=5):
            cell = cc.consensus(self.make_results(list(values)))
            assert cell.support > 0.5
            assert not cell.tie


class TestInternalAgreement:
    def test_unanimous_everywhere(self):
        results = [
            cc.IterationResult("d", dim, i + 1, True)
            for dim in ("a", "b")
            for i in range(3)
        ]
        agreement = cc.internal_agreement(cc.consensus_table(results))
        assert agreement.cells == {("d", "a"): 1.0, ("d", "b"): 1.0}
        assert agreement.papers == {"d": 1.0}
        assert agreement.model == 1.0

    def test_paper_level_mixes_dimensions(self):
        # 16 unanimous dimensions and one at 3-of-5 support
        results = []
        for k in range(16):
            results += [cc.IterationResult("d", f"dim{k}", i + 1, True) for i in range(5)]
        results += [
            cc.IterationResult("d", "dim16", i + 1, v)
            for i, v in enumerate([True, True, False, True, False])
        ]
        paper = cc.internal_agreement(cc.consensus_table(results)).papers["d"]
        assert paper == pytest.approx((16 * 1.0 + 0.6) / 17)

    def test_model_level_averages_papers_equally(self):
        results = [
            cc.IterationResult("d1", "a", i + 1, v)
            for i, v in enumerate([True, True, False])
        ]
        results += [cc.IterationResult("d2", "a", i + 1, True) for i in range(3)]
        agreement = cc.internal_agreement(cc.consensus_table(results))
        assert agreement.papers == {"d1": pytest.approx(2 / 3), "d2": 1.0}
        assert agreement.model == pytest.approx((2 / 3 + 1.0) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cc.internal_agreement({})


class TestRecordSerialization:
    def test_round_trip(self, codebook, tiny_corpus, positive_mock, tmp_path):
        cfg = cc.RunConfig(model="m", strategy="chunk", chunk_size=4, iterations=2)
        _, records = run_collecting(tiny_corpus, codebook, cfg, positive_mock)
        report.write_run(tmp_path, tiny_corpus, codebook, cfg, positive_mock)
        assert list(cc.read_records_jsonl(tmp_path / report.RECORDS_NAME)) == records

    def test_single_record_round_trip(self):
        record = cc.PromptRecord(
            doc_id="d",
            dimension_id="x",
            iteration=2,
            chunk_index=None,
            model="m",
            strategy="whole",
            raw_response="Yes indeed.",
            code=cc.BinaryCode(True, "yes"),
            request_key="ff00",
        )
        assert record_from_json(record_to_json(record)) == record

    @pytest.mark.parametrize("code", [cc.BinaryCode(False), cc.BinaryCode(True, 'say "yes"')])
    @pytest.mark.parametrize("chunk_index", [None, 0, 7])
    @pytest.mark.parametrize(
        "text",
        [
            'quotes "yes" and \'no\'',
            "back\\slash \\u0041 \\",
            "controls \x00\x01\x1f\x7f\x85 \t\n\r\f\b",
            "non-BMP \U0001d518 \U0001f642 ü — ☃",
            "lone surrogates \ud800 \udfff \udbff\ud800",
            "",
        ],
    )
    def test_bytes_equal_json_dumps(self, text, chunk_index, code):
        record = cc.PromptRecord(
            doc_id=f"d{text[:3]}",
            dimension_id=text[-2:],
            iteration=3,
            chunk_index=chunk_index,
            model=text,
            strategy="chunk",
            raw_response=text,
            code=code,
            request_key="ab" * 32,
        )
        expected = json.dumps(
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
            },
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )
        assert record_to_json(record) == expected
        assert record_from_json(expected) == record

    @given(
        texts=st.lists(ANY_TEXT, min_size=6, max_size=6),
        chunk_index=st.none() | st.integers(min_value=0),
        iteration=st.integers(min_value=1),
        code=st.just(cc.BinaryCode(False)) | st.builds(cc.BinaryCode, st.just(True), ANY_TEXT),
    )
    def test_template_equals_sorted_json_dumps(self, texts, chunk_index, iteration, code):
        doc_id, dimension_id, model, strategy, raw_response, request_key = texts
        record = cc.PromptRecord(
            doc_id, dimension_id, iteration, chunk_index, model, strategy, raw_response, code,
            request_key,
        )
        line = record_to_json(record)
        assert line == sorted_json_dumps(record)
        if chunk_index is not None and chunk_index >= engine.CHUNK_INDEX_LIMIT:
            with pytest.raises(ValueError, match=f"must be below {engine.CHUNK_INDEX_LIMIT}, not {chunk_index}$"):
                record_from_json(line)
        else:
            assert record_from_json(line) == record

    def test_template_with_the_pure_python_escape(self, monkeypatch):
        """The escape interpreters built without ``_json`` use gives the same line."""
        monkeypatch.setattr(engine, "_escape", json.encoder.py_encode_basestring_ascii)
        text = 'controls \x00\x1f\x7f\x85 "q" \\ \ud800 \U0001f642 \u2028'
        record = cc.PromptRecord(
            text, text, 4, 2, text, text, text, cc.BinaryCode(True, text), text
        )
        assert record_to_json(record) == sorted_json_dumps(record)

    @pytest.mark.parametrize("chunk_index", [-1, "1", 2**63, engine.CHUNK_INDEX_LIMIT, True])
    def test_invalid_chunk_index_is_refused(self, chunk_index):
        record = cc.PromptRecord(
            "d", "x", 1, chunk_index, "m", "chunk", "No.", cc.BinaryCode(False, None), "ff00"
        )
        with pytest.raises(cc.IngestionError, match=f"chunk index {chunk_index!r}"):
            cc.iteration_results_from_records([record])

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"code": 1}, "field 'code' must be true or false, not 1"),
            ({"code": True}, "a True code must record its matched phrase"),
            ({}, f"field 'chunk_index' must be below {engine.CHUNK_INDEX_LIMIT}, not {2**63}"),
        ],
        ids=["code a number", "true without phrase", "chunk index alone"],
    )
    def test_chunk_index_limit_is_checked_after_the_other_fields(self, fault, message):
        record = cc.PromptRecord("d", "x", 1, 2**63, "m", "chunk", "No.", cc.BinaryCode(False, None), "ff")
        line = json.dumps({**json.loads(record_to_json(record)), **fault})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record_from_json(line)

    def test_chunk_index_below_the_limit_is_reduced(self):
        record = cc.PromptRecord(
            "d", "x", 1, engine.CHUNK_INDEX_LIMIT - 1, "m", "chunk", "Yes.", cc.BinaryCode(True, "yes"), "ff"
        )
        assert cc.iteration_results_from_records([record]) == [cc.IterationResult("d", "x", 1, True)]

    def test_iteration_results_from_records_match_run(self, codebook, tiny_corpus):
        def varied(request):
            return POSITIVE if (iteration_of(request) + len(request.tag)) % 2 else NEGATIVE

        client = mock_client(varied)
        cfg = cc.RunConfig(model="m", strategy="chunk", chunk_size=3, iterations=3)
        rr, records = run_collecting(tiny_corpus, codebook, cfg, client)
        rebuilt = cc.iteration_results_from_records(records)
        assert rebuilt == rr.results

    def test_byte_identical_across_runs(self, codebook, tiny_corpus, tmp_path):
        def run_once(out):
            client = cc.LLMClient(
                mode="mock",
                mock=cc.StochasticMock(seed=9, flip_probability=0.3),
            )
            cfg = cc.RunConfig(
                model="m", strategy="chunk", chunk_size=3, iterations=3, seed=9
            )
            report.write_run(out, tiny_corpus, codebook, cfg, client)
            return (out / report.RECORDS_NAME).read_bytes()

        assert run_once(tmp_path / "a") == run_once(tmp_path / "b")


class TestCellTag:
    def test_formats(self):
        assert cell_tag("d", "x", 3) == "d/x/i3"
        assert cell_tag("d", "x", 3, 0) == "d/x/i3/c0"


# Pinned outputs of a seeded run over ``tiny_corpus`` at chunk size 4, where
# doc-a splits into /c0 and /c1 and doc-b is a single /c0 chunk. Any change to
# the record bytes or the request keys breaks existing caches and run
# directories, so these values change only with a deliberate format change.
GOLDEN_RECORDS_SHA256 = {
    "whole": "821fe09b7a4f20c17a02017b8e42853d914f0f4eac6228a18fe09726a4138c21",
    "chunk": "d21b3e049d835a9a24dc5d1d9351ba872b0735e35616d1dc4e93061cbc436aea",
}
GOLDEN_REQUEST_KEYS = {
    "whole": [
        "0ec85633c3dc58a1d4fdbdb42485cc9843d0a6c264fc453b731360383c2c2291",
        "14301fcf0945cfbc945bfa320f9896757c6caa6e7a2cb6673cff9f91db86d4a8",
        "17b843c03752e2432aa7c173d336dff460c844b28a9afa05208b35dc94b75ba4",
        "23708c074da699d1ab559350c959c48107e1f15df32208ebb60ebb4a04742a85",
        "58a2b8857cb436c39ba734ec679abfd4732ceaaf4c38c7566efbeca01dedc41f",
        "8636f454af39400de0dab5fe890fce383968c7e36d4dd6a284cc9e7bff2de4b4",
        "cb1b65f793eb1d32788b8bab9d118bf629b89090283353a731567a3a8ca4914f",
        "cf82333024986d858b2efe0f65a826cd86c6e2608b4607d24bdf09558f1953d8",
        "d365e93412d51c27be59f75ed9368260fb6d82b43f67bb06588cff9ad77a554c",
        "d8205e6b22828e53bcf7f29209bf9c81602806908acec44af942e42d31931773",
        "e035d30206c592c974effc3ef781a101f4263124c78fdb030b512072022ed0a8",
        "fa87a415f3bd174cae1af637681adc9a0e83b3166fc56189deedea1a55391fc2",
    ],
    "chunk": [
        "0a60f79b60ca9d52acd7bc0364c8ebf285d922afa88e1c2366e0447d23871ecd",
        "0f5c998e4682d880bf76a90ec340016905a08d952ca50847ac627dc1ba8e3afe",
        "201ecba81f3bc716257cd8f9bec100a401ea7108a2612b05a19345ea322c4a83",
        "25bdba3d123cbbcd9ea3cb8466a1f9ea3f2b1d0bae697f80a3ba3ba764fed18c",
        "2db3f6336213558952e103349d22ffaf3803176a48e4e62b0f15bbf66be675c4",
        "40cc40c998aadb44468abcc9a7ba47d9d0a5f08c65d3f30edae308a2d3479474",
        "6721886b22ed14be9abbb262689e78bcd6bf2c4a455482f031fb05a97ea183eb",
        "68a7f35b61386c6599814c8ac023c6bdfd56c3dabee7a32e6d8b8ad91509af0c",
        "6ab66bbe186eedc984cb3c34c5b734cf4571324bd247cd152a03ef86d794d998",
        "878e542534e41975b70d45f9a6211d9f87e953cd37ca5c4bdc69a5a31779c364",
        "a76ac9ef0c3309b287d9ecbaada82f5b6a27596853cfcd1b996d1361f7daa14d",
        "a7d2ec6cd7b1496bf9d5f7b06f12c1b01f4997569e7dce289e14b4f96e737f7a",
        "acb46a436fa21edc1a2a18c28456891b8a4ef7fbcff0adb8d7d0fc55e0ab840f",
        "c606de9a313668c45c172d37a70da28d3a8eaee913edef6f84de9b77f14c6fc2",
        "c7cd16a5da5f388e76e5727c7ddecbfa9c4cd59c20df4d3ac1ad23efc7e27064",
        "ca2630efecec1adc4c7fc5db3142822e3505db70aa0cbdc81d2bf57cf1479190",
        "daa07a9cd6e03cfcdff4db044e18601ebd3652138c7158a013ed4b35daba4e62",
        "f20156db47ae832d09f3a29f440e6a1dedd4aa53b70a8327bf7b96e1fffdbf66",
    ],
}


@pytest.mark.parametrize("strategy", ["whole", "chunk"])
def test_golden_records_and_request_keys(strategy, codebook, tiny_corpus, tmp_path):
    cfg = cc.RunConfig(
        model="golden",
        strategy=strategy,
        chunk_size=4,
        iterations=2,
        seed=3,
    )
    client = cc.LLMClient(
        mode="mock", mock=cc.StochasticMock(seed=3, flip_probability=0.4)
    )
    assert report.write_run(tmp_path, tiny_corpus, codebook, cfg, client).ok
    path = tmp_path / report.RECORDS_NAME
    records = list(cc.read_records_jsonl(path))
    if strategy == "chunk":
        assert {r.chunk_index for r in records if r.doc_id == "doc-b"} == {0}
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_RECORDS_SHA256[strategy]
    assert sorted(r.request_key for r in records) == GOLDEN_REQUEST_KEYS[strategy]


def test_run_meta_takes_the_cache_mode_from_the_client(codebook, tiny_corpus, positive_mock, tmp_path):
    cfg = cc.RunConfig(model="m", iterations=1)
    assert report.write_run(tmp_path, tiny_corpus, codebook, cfg, positive_mock).ok
    meta = json.loads((tmp_path / report.RUN_META_NAME).read_text(encoding="utf-8"))
    assert meta["cache_mode"] == "mock"


def network_client(endpoint, max_inflight, mode="live", cache_dir=None):
    return endpoint.client(
        mode=mode,
        base_url="http://t/v1",
        cache_dir=cache_dir,
        max_inflight=max_inflight,
        sleep=lambda s: None,
    )


SEGMENT_CFG = cc.RunConfig(model="m", strategy="chunk", chunk_size=4, iterations=2)


def cached_run(codebook, corpus, cache, out, mode, endpoint=None):
    """A chunk run of ``corpus`` through ``cache``: its result and records bytes."""
    client = network_client(endpoint or FakeTransport(), 2, mode, cache)
    with client:
        result = report.write_run(out, corpus, codebook, SEGMENT_CFG, client)
    return result, (out / report.RECORDS_NAME).read_bytes()


def recorded_segments(cache):
    """The cache's segments, in name order, after asserting that the only
    other file in it is the index a recording close saved."""
    segments = sorted(cache.glob("segment-*"))
    assert sorted({path.name for path in cache.iterdir()} - {s.name for s in segments}) == [
        llm_client.INDEX_NAME
    ]
    return segments


def test_cache_mixing_entry_shapes_replays_the_recorded_bytes_once_converted(
    codebook, tiny_corpus, old_cache_entry, tmp_path
):
    """Flat entries, as caches held them before segments (with and without
    their prompt text), beside segment lines: every open refuses the cache
    and creates nothing. Once converted it replays the recorded bytes; a
    record-mode rerun sends no request and writes nothing, and a second
    conversion appends nothing."""
    cache = tmp_path / "cache"
    run = functools.partial(cached_run, codebook, tiny_corpus, cache)
    _, recorded = run(tmp_path / "record", "record")
    (segment,) = recorded_segments(cache)
    lines = {line[:64].decode(): line for line in segment.read_bytes().splitlines(keepends=True)}
    # Every other entry moves to a flat file; every other of those also gets
    # its prompt back, re-rendered from the corpus and the codebook and
    # checked against its request key.
    dims = {dim.id: dim for dim in codebook}
    docs = {doc.doc_id: doc for doc in tiny_corpus}
    records = list(cc.read_records_jsonl(tmp_path / "record" / report.RECORDS_NAME))
    for n, record in enumerate(records[::2]):
        model, tag, response = json.loads(lines.pop(record.request_key).split(b"\t", 1)[1])
        request = {"model": model, "tag": tag}
        if n % 2:
            chunks = cc.chunk_document(docs[record.doc_id], SEGMENT_CFG.chunk_size)
            prompt = cc.render_prompt(dims[record.dimension_id], chunks[record.chunk_index].text)
            assert cc.PromptRequest(model, prompt, tag).request_key == record.request_key
            request["prompt_text"] = prompt
        entry = {"request": request, "response": response}
        (cache / record.request_key).write_text(json.dumps(entry), encoding="utf-8")
    # One of this run's entries as it was recorded with its prompt text.
    assert old_cache_entry.name.encode() in recorded
    lines.pop(old_cache_entry.name, None)
    shutil.copy(old_cache_entry, cache)
    segment.write_bytes(b"".join(lines.values()))
    flat = len(records) - len(lines)
    listing = sorted(cache.iterdir())
    assert len(listing) == flat + 2  # the segment and the index

    for mode in ("replay", "record"):
        with pytest.raises(ConfigError, match=f"holds {flat} flat entries"):
            run(tmp_path / f"refused {mode}", mode)
        assert not (tmp_path / f"refused {mode}").exists()
        assert sorted(cache.iterdir()) == listing

    assert convert_flat_cache.convert(cache) == (flat, flat, [])
    listing = sorted(cache.iterdir())
    assert run(tmp_path / "replay", "replay")[1] == recorded
    endpoint = FakeTransport()
    assert run(tmp_path / "rerun", "record", endpoint)[1] == recorded
    assert endpoint.calls == 0
    assert sorted(cache.iterdir()) == listing
    assert convert_flat_cache.convert(cache) == (0, 0, [])
    assert sorted(cache.iterdir()) == listing


def test_segment_cut_mid_line_reads_that_key_as_a_miss(codebook, tiny_corpus, tmp_path):
    cache = tmp_path / "cache"
    run = functools.partial(cached_run, codebook, tiny_corpus, cache)
    _, recorded = run(tmp_path / "record", "record")
    (segment,) = recorded_segments(cache)
    data = segment.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    key = data[last : last + 64].decode()
    segment.write_bytes(data[: (last + len(data)) // 2])

    result, _ = run(tmp_path / "replay", "replay")
    (failure,) = result.failures
    assert f"no cached response for request_key {key}" in failure.error
    endpoint = FakeTransport()
    assert run(tmp_path / "rerun", "record", endpoint)[1] == recorded
    assert endpoint.calls == 1
    assert len(recorded_segments(cache)) == 2
    assert run(tmp_path / "replay2", "replay")[1] == recorded


def test_two_processes_recording_into_one_cache_at_once(codebook, tiny_corpus, tmp_path):
    """Each process opens the cache before either writes, so each records
    every prompt into a segment of its own."""
    script = """if True:
        import json, sys
        import chunkcode as cc
        from chunkcode import report

        spec, out = sys.argv[1:]
        spec = json.loads(spec)
        cb = cc.Codebook(tuple(cc.Dimension(*dim) for dim in spec["dims"]))
        corpus = [cc.DocumentText.from_raw(*doc) for doc in spec["docs"]]
        cfg = cc.RunConfig(model="m", strategy="chunk", chunk_size=4, iterations=2)
        with cc.LLMClient(mode="record", base_url=spec["url"], cache_dir=spec["cache"], max_inflight=2) as client:
            print("opened", flush=True)
            sys.stdin.readline()
            assert report.write_run(out, corpus, cb, cfg, client).ok
    """
    cache = tmp_path / "cache"
    run = functools.partial(cached_run, codebook, tiny_corpus, cache)
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cc.__file__))
    with LocalEndpoint() as endpoint:
        spec = json.dumps({
            "dims": [[dim.id, dim.name, dim.definition] for dim in codebook],
            "docs": [[doc.doc_id, doc.raw] for doc in tiny_corpus],
            "cache": str(cache),
            "url": endpoint.url,
        })
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, spec, str(tmp_path / f"out{i}")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
            for i in range(2)
        ]
        try:
            assert [proc.stdout.readline() for proc in procs] == ["opened\n"] * 2
            for proc in procs:
                proc.communicate("go\n", timeout=60)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    assert [proc.returncode for proc in procs] == [0, 0]
    recorded = (tmp_path / "out0" / report.RECORDS_NAME).read_bytes()
    assert (tmp_path / "out1" / report.RECORDS_NAME).read_bytes() == recorded
    segments = recorded_segments(cache)
    assert len(segments) == 2
    for segment in segments:
        assert segment.read_bytes().count(b"\n") == recorded.count(b"\n")
    with open(cache / llm_client.INDEX_NAME, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["segments"] == [[segment.name, segment.stat().st_size] for segment in segments]
    endpoint = FakeTransport()
    assert run(tmp_path / "replay", "replay", endpoint)[1] == recorded
    assert endpoint.calls == 0


def test_more_segments_than_open_descriptors_replay(codebook, tiny_corpus, tmp_path):
    cache = tmp_path / "cache"
    run = functools.partial(cached_run, codebook, tiny_corpus, cache)
    _, recorded = run(tmp_path / "record", "record")
    (segment,) = recorded_segments(cache)
    lines = segment.read_bytes().splitlines(keepends=True)
    segment.unlink()
    count = llm_client.MAX_OPEN_SEGMENTS + 3
    for i in range(count):  # round robin: consecutive prompts read different segments
        (cache / f"segment-1-0-{i:02x}").write_bytes(b"".join(lines[i::count]))

    fds = Path("/proc/self/fd")
    before = len(list(fds.iterdir()))
    client = network_client(FakeTransport(), 2, "replay", cache)
    result = report.write_run(tmp_path / "replay", tiny_corpus, codebook, SEGMENT_CFG, client)
    assert result.ok
    assert len(list(fds.iterdir())) - before <= llm_client.MAX_OPEN_SEGMENTS
    client.close()
    assert len(list(fds.iterdir())) == before
    assert (tmp_path / "replay" / report.RECORDS_NAME).read_bytes() == recorded


class TestConcurrentDispatch:
    @pytest.mark.parametrize("max_inflight", [2, 8, llm_client.DEFAULT_MAX_INFLIGHT])
    def test_peak_concurrency_equals_max_inflight(self, codebook, tiny_corpus, max_inflight):
        # Half the in-flight count goes first, and the other workers join as
        # those 200s open the window: at 64, 96 cells fill it. Starting 64
        # posts takes the client about 10 ms of CPU on a 2-core machine, so
        # each post lasts longer than that.
        iterations = max(6, max_inflight // 4)
        endpoint = FakeTransport(delay=lambda: 0.03)
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=iterations)
        threads_before = threading.active_count()
        rr = cc.run_iterations(tiny_corpus, codebook, cfg, network_client(endpoint, max_inflight))
        assert rr.ok and endpoint.calls == 2 * 3 * iterations
        assert endpoint.peak == max_inflight
        assert threading.active_count() == threads_before

    def test_starts_no_more_threads_than_cells(self, codebook, tiny_corpus):
        # 6 cells at 64 in flight; each post notes the threads alive
        alive = []
        endpoint = FakeTransport(delay=lambda: alive.append(threading.active_count()) or 0.01)
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=1)
        threads_before = threading.active_count()
        assert cc.run_iterations(tiny_corpus, codebook, cfg, network_client(endpoint, 64)).ok
        assert len(alive) == 2 * 3 and max(alive) - threads_before <= 2 * 3

    def test_cells_start_at_most_a_window_ahead(self, codebook, tiny_corpus):
        endpoint = FakeTransport()
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=6)
        started = []

        def sink(record):
            if not started:
                time.sleep(0.2)  # time for the workers to start all they may
                started.append(endpoint.calls)

        cc.run_iterations(tiny_corpus, codebook, cfg, network_client(endpoint, 2), record_sink=sink)
        assert started == [1 + engine._WINDOW_PER_WORKER * 2]

    def test_results_stay_in_order_under_contention(self):
        # More workers than cores and a thread switch every microsecond: a
        # lost wake-up hangs the run, a lost or misplaced result shows in it.
        items, out = range(2000), []

        def consume():
            out.extend(engine._map_in_order(lambda item: item, items, 16, threading.Event()))

        consumer = threading.Thread(target=consume)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            consumer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert out == list(items)

    def test_raises_the_first_exception_in_order(self):
        stop = threading.Event()

        def fn(item):
            if item == 3:
                stop.wait(timeout=10)  # until item 5 has raised
                raise ValueError(3)
            if item == 5:
                raise ValueError(5)
            return item

        threads_before = threading.active_count()
        yielded = []
        with pytest.raises(ValueError) as raised:
            for result in engine._map_in_order(fn, range(10), 4, stop):
                yielded.append(result)
        assert raised.value.args == (3,)
        assert yielded == [0, 1, 2][: len(yielded)]
        assert threading.active_count() == threads_before

    def test_random_pools_keep_order_and_raise_the_first_failure(self):
        # Seeded pools of 0-300 items on 1-39 workers, 0-2 of the items
        # raising, with a thread switch every 10 microseconds. Each pool is
        # also read by a consumer that closes it after some of its results.
        rng = random.Random(26)
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(100):
                size, workers = rng.randint(0, 300), rng.randint(1, 39)
                raising = set(rng.sample(range(size), min(size, rng.randint(0, 2))))

                def fn(item, raising=raising):
                    if item in raising:
                        raise ValueError(item)
                    return item

                first = min(raising, default=size)
                yielded = []
                with pytest.raises(ValueError) if raising else contextlib.nullcontext() as raised:
                    for result in engine._map_in_order(fn, range(size), workers, threading.Event()):
                        yielded.append(result)
                if raising:
                    assert raised.value.args == (first,)
                assert yielded == list(range(first))[: len(yielded)]
                assert raising or len(yielded) == size
                assert threading.active_count() == threads_before

                read = rng.randint(0, size)
                results = engine._map_in_order(lambda item: item, range(size), workers, threading.Event())
                assert [next(results) for _ in range(read)] == list(range(read))
                results.close()
                assert threading.active_count() == threads_before
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("mode, max_inflight", [("replay", 8), ("record", 1)])
    def test_one_prompt_in_flight_runs_in_the_callers_thread(self, codebook, tiny_corpus, tmp_path, mode, max_inflight):
        # A replay client has one prompt in flight whatever it is given.
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=2)
        cache = tmp_path / "cache"
        if mode == "replay":
            with network_client(FakeTransport(), 8, "record", cache) as recorder:
                assert cc.run_iterations(tiny_corpus, codebook, cfg, recorder).ok
        client = network_client(FakeTransport(), max_inflight, mode, cache)
        threads_before = threading.active_count()
        alive = []
        with client:
            rr = cc.run_iterations(
                tiny_corpus, codebook, cfg, client, record_sink=lambda r: alive.append(threading.active_count())
            )
        assert rr.ok and alive == [threads_before] * (2 * 3 * 2)

    def test_mock_mode_runs_inline(self, codebook, tiny_corpus):
        responder = FakeTransport(delay=lambda: 0.01)
        client = cc.LLMClient(mode="mock", mock=responder, max_inflight=8)
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=2)
        threads_before = threading.active_count()
        alive = []
        rr = cc.run_iterations(
            tiny_corpus, codebook, cfg, client, record_sink=lambda r: alive.append(threading.active_count())
        )
        assert rr.ok
        assert responder.peak == 1
        assert alive == [threads_before] * (2 * 3 * 2)

    def test_outputs_independent_of_completion_order(self, codebook, tiny_corpus, tmp_path):
        doc_a = tiny_corpus[0]
        rejected = cc.render_prompt(codebook.dimensions[2], cc.chunk_document(doc_a, 4)[1].text)
        cfg = cc.RunConfig(model="m", strategy="chunk", chunk_size=4, iterations=5)

        def run(max_inflight):
            rng = random.Random(max_inflight)
            endpoint = FakeTransport(delay=lambda: rng.uniform(0.0, 0.005), reject=[rejected])
            out = tmp_path / f"out{max_inflight}"
            client = network_client(endpoint, max_inflight, "record", tmp_path / f"cache{max_inflight}")
            rr = report.write_run(out, tiny_corpus, codebook, cfg, client)
            records = (out / report.RECORDS_NAME).read_bytes()
            return rr, records, (out / report.FAILURES_NAME).read_bytes(), endpoint

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, concurrent = run(1), run(8)
        finally:
            sys.setswitchinterval(interval)
        assert len(serial[0].failures) == cfg.iterations
        assert serial[3].peak == 1 and concurrent[3].peak > 1
        assert serial[:3] == concurrent[:3]

    def test_unexpected_error_cancels_queued_cells(self, codebook, tiny_corpus):
        cfg = cc.RunConfig(model="m", strategy="whole", iterations=10)
        _, full = run_collecting(
            tiny_corpus, codebook, cfg, network_client(FakeTransport(), 1)
        )
        endpoint = FakeTransport(delay=lambda: 0.001, fail_after=5)
        streamed = []
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="exploded"):
            cc.run_iterations(
                tiny_corpus, codebook, cfg, network_client(endpoint, 2), record_sink=streamed.append
            )
        assert threading.active_count() == threads_before
        assert endpoint.calls < len(full)
        assert streamed == full[: len(streamed)]

    def test_interrupt_stops_cells_between_prompts(self, codebook, tiny_corpus):
        # chunk size 1: every cell prompts 7 (doc-a) or 4 (doc-b) bodies in order
        endpoint = FakeTransport(delay=lambda: 0.005)
        cfg = cc.RunConfig(model="m", strategy="chunk", chunk_size=1, iterations=2)
        at_interrupt = []

        def sink(record):
            at_interrupt.append(endpoint.calls)
            raise KeyboardInterrupt

        threads_before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            cc.run_iterations(
                tiny_corpus, codebook, cfg, network_client(endpoint, 2), record_sink=sink
            )
        assert threading.active_count() == threads_before
        # each of the 2 workers may send at most the one prompt it had begun
        assert endpoint.calls - at_interrupt[0] <= 2
