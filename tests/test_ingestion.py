import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chunkcode as cc
from chunkcode.errors import ConfigError, IngestionError


class TestPreprocess:
    def test_dehyphenation_across_newline(self):
        assert cc.preprocess("water sys-\ntems management") == "water systems management"

    def test_whitespace_normalization(self):
        assert cc.preprocess("a\nb\tc") == "a b c"

    def test_empty_identity(self):
        assert cc.preprocess("") == ""

    def test_hyphen_before_uppercase_is_kept(self):
        assert cc.preprocess("Navier-\nStokes") == "Navier- Stokes"

    def test_hyphen_at_line_end_without_continuation(self):
        assert cc.preprocess("trailing-\n") == "trailing-"

    def test_control_characters_are_stripped(self):
        assert cc.preprocess("a\x00b\x07c") == "abc"
        assert cc.preprocess("a\rb") == "ab"

    def test_crlf_hyphenation_still_rejoins(self):
        assert cc.preprocess("sys-\r\ntems") == "systems"

    def test_runs_collapse_and_trim(self):
        assert cc.preprocess("  a   b  ") == "a b"

    def test_unicode_whitespace_collapses(self):
        assert cc.preprocess("a\xa0b\u2028c\u3000 d\u2029") == "a b c d"
        assert cc.preprocess("a\x1cb\x1fc\x85d") == "abcd"  # control characters: dropped, not spaces

    # Every whitespace character, \x1c-\x1f, \x85, \xa0 and \u3000 among them; none lies above U+3000.
    WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())

    @given(st.text(st.one_of(st.characters(), st.sampled_from(WHITESPACE)), max_size=300))
    def test_split_and_join_equals_the_regex_form(self, text):
        """str.split() and regex \\s split on the same characters, so joining
        the words with single spaces collapses whitespace as substituting
        each \\s run with a space and trimming the ends does."""
        assert " ".join(text.split()) == re.sub(r"\s+", " ", text.replace("\n", " ")).strip()

    @given(st.text(max_size=300))
    def test_idempotent(self, text):
        once = cc.preprocess(text)
        assert cc.preprocess(once) == once

    @given(st.text(max_size=300))
    def test_output_is_clean(self, text):
        out = cc.preprocess(text)
        assert "\n" not in out and "\t" not in out
        assert "  " not in out
        assert out == out.strip()


class TestTokenize:
    def test_whitespace_split(self):
        assert cc.tokenize_words("a b  c") == ["a", "b", "c"]

    def test_empty(self):
        assert cc.tokenize_words("") == []

    def test_punctuation_stays_inside_words(self):
        assert cc.tokenize_words("state-of-the-art.") == ["state-of-the-art."]


words_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8
    ),
    max_size=120,
)


class TestChunking:
    def test_exact_fit(self):
        doc = cc.DocumentText.from_raw("d", " ".join(["w"] * 500))
        chunks = cc.chunk_document(doc, 500)
        assert len(chunks) == 1 and len(chunks[0].words) == 500

    def test_remainder_chunk(self):
        doc = cc.DocumentText.from_raw("d", " ".join(f"w{i}" for i in range(1100)))
        chunks = cc.chunk_document(doc, 500)
        assert [len(c.words) for c in chunks] == [500, 500, 100]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_empty_document_yields_no_chunks(self):
        doc = cc.DocumentText.from_raw("d", "   ")
        assert cc.chunk_document(doc, 10) == []

    def test_zero_size_rejected(self):
        doc = cc.DocumentText.from_raw("d", "a b c")
        with pytest.raises(ConfigError):
            cc.chunk_document(doc, 0)

    def test_chunk_text_joins_words(self):
        doc = cc.DocumentText.from_raw("d", "a b c d e")
        chunks = cc.chunk_document(doc, 2)
        assert [c.text for c in chunks] == ["a b", "c d", "e"]

    @given(words=words_strategy, size=st.integers(min_value=1, max_value=600))
    def test_round_trip_and_count_laws(self, words, size):
        doc = cc.DocumentText.from_raw("d", " ".join(words))
        chunks = cc.chunk_document(doc, size)
        assert len(chunks) == math.ceil(len(doc.words) / size)
        flattened = tuple(w for c in chunks for w in c.words)
        assert flattened == doc.words
        assert all(len(c.words) == size for c in chunks[:-1])
        if chunks:
            assert 1 <= len(chunks[-1].words) <= size


class TestLoading:
    def test_load_document(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("ab cd", encoding="utf-8")
        doc = cc.load_document(path, "d1")
        assert doc.words == ("ab", "cd")
        assert doc.doc_id == "d1"
        assert doc.source_path == str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="nope.txt"):
            cc.load_document(tmp_path / "nope.txt", "d1")

    def test_invalid_encoding(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(IngestionError):
            cc.load_document(path, "d1")

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text(" \n\t ", encoding="utf-8")
        assert cc.load_document(path, "d1").words == ()

    def test_manifest_relative_paths(self, tmp_path):
        (tmp_path / "a.txt").write_text("one two", encoding="utf-8")
        (tmp_path / "b.txt").write_text("three", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps([{"doc_id": "a", "path": "a.txt"}, {"doc_id": "b", "path": "b.txt"}]),
            encoding="utf-8",
        )
        docs = cc.load_manifest(manifest)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert docs[0].words == ("one", "two")

    def test_manifest_duplicate_doc_id(self, tmp_path):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps([{"doc_id": "a", "path": "a.txt"}, {"doc_id": "a", "path": "a.txt"}]),
            encoding="utf-8",
        )
        with pytest.raises(IngestionError, match="repeats"):
            cc.load_manifest(manifest)

    def test_manifest_malformed(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(IngestionError):
            cc.load_manifest(manifest)
        manifest.write_text('[{"doc_id": 3, "path": "a.txt"}]', encoding="utf-8")
        with pytest.raises(IngestionError):
            cc.load_manifest(manifest)

    def test_manifest_not_json(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[{not json", encoding="utf-8")
        with pytest.raises(IngestionError, match=f"cannot read manifest {re.escape(str(manifest))}: Expecting"):
            cc.load_manifest(manifest)
