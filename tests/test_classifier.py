import copy
import json
import pickle
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chunkcode as cc
from chunkcode.classifier import NO_MATCH
from chunkcode.errors import ConfigError
from sample_responses import NEGATIVE_RESPONSES, POSITIVE_RESPONSES


@pytest.fixture(scope="module")
def phrases():
    return cc.default_key_phrases()


# The folding classify and KeyPhraseSet used before str.split, kept as the
# reference the current folding must agree with.
REGEX_WHITESPACE = re.compile(r"\s+")


def regex_normalized(phrase):
    return REGEX_WHITESPACE.sub(" ", phrase).strip().lower()


def regex_classify(text, phrases, word_boundary):
    haystack = REGEX_WHITESPACE.sub(" ", text).lower()
    for phrase in phrases:
        if word_boundary:
            if re.search(rf"\b{re.escape(phrase)}\b", haystack):
                return cc.BinaryCode(True, phrase)
        elif phrase in haystack:
            return cc.BinaryCode(True, phrase)
    return cc.BinaryCode(False)


ALL_CODE_POINTS = range(sys.maxunicode + 1)
WHITESPACE = [c for c in map(chr, ALL_CODE_POINTS) if c.isspace()]
FRAGMENTS = [
    "yes", "YES", "Yes", "yesterday", "is", "discussed", "mention", "ed", "the text does",
    "indeed", "implicit", "c++", "e.g.", "(", ")", "-", "_", "'", "x", "İ", "ß", "9",
]
# Phrases with non-word edges, where \b depends on the neighbouring characters,
# and one with inner Unicode whitespace.
EDGE_PHRASES = cc.KeyPhraseSet(["c++", "(yes)", "e.g.", "- ed", "is\u00a0 discussed"])
pieces = st.lists(
    st.sampled_from(WHITESPACE) | st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=30
).map("".join)
runs = st.text(alphabet=WHITESPACE, max_size=4)


class TestDefaultPhrases:
    def test_fourteen_phrases(self, phrases):
        assert len(phrases) == 14

    def test_membership(self, phrases):
        assert "indeed" in phrases
        assert "no" not in phrases

    def test_exact_list(self, phrases):
        assert tuple(phrases) == (
            "yes",
            "clearly stated",
            "the text does mention",
            "the text does discuss",
            "the paper mentions the parameter",
            "indirectly mentioned",
            "is explicitly mentioned",
            "indeed",
            "does talk",
            "is discussed",
            "is referenced",
            "is mentioned",
            "implicit",
            "does address",
        )


class TestKeyPhraseSet:
    def test_lowercased_and_collapsed(self):
        kps = cc.KeyPhraseSet(["Is   Discussed", "YES"])
        assert tuple(kps) == ("is discussed", "yes")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            cc.KeyPhraseSet(["yes", "Yes"])

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            cc.KeyPhraseSet(["yes", "  "])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            cc.KeyPhraseSet([])

    @pytest.mark.parametrize("name", ["phrases", "codes", "_bounded"])
    def test_no_attribute_can_be_assigned_or_deleted(self, name):
        kps = cc.default_key_phrases()
        with pytest.raises(AttributeError):
            setattr(kps, name, ("x",))
        with pytest.raises(AttributeError):
            delattr(kps, name)
        assert kps == cc.default_key_phrases()
        assert cc.classify("x", kps) is NO_MATCH

    def test_repr_names_the_field(self):
        assert repr(cc.KeyPhraseSet(["Yes", "is  discussed"])) == "KeyPhraseSet(phrases=('yes', 'is discussed'))"

    def test_a_copy_classifies_as_the_original(self, phrases):
        for again in (copy.copy(phrases), pickle.loads(pickle.dumps(phrases))):
            for text in ("Yesterday it is discussed.", "nothing"):
                for word_boundary in (False, True):
                    assert cc.classify(text, again, word_boundary=word_boundary) == cc.classify(
                        text, phrases, word_boundary=word_boundary
                    )

    @given(runs, pieces, runs)
    def test_normalized_as_the_regex_reference(self, head, phrase, tail):
        phrase = head + phrase + tail
        expected = regex_normalized(phrase)
        if not expected:
            with pytest.raises(ValueError, match="nonempty"):
                cc.KeyPhraseSet([phrase])
        else:
            assert cc.KeyPhraseSet([phrase]).phrases == (expected,)


class TestBinaryCode:
    def test_true_requires_phrase(self):
        with pytest.raises(ValueError, match="^a True code must record its matched phrase$"):
            cc.BinaryCode(True)

    def test_false_forbids_phrase(self):
        with pytest.raises(ValueError, match="^a False code cannot carry a matched phrase$"):
            cc.BinaryCode(False, "yes")

    def test_a_changed_copy_is_checked_too(self):
        assert cc.BinaryCode(False)._replace(value=True, matched_phrase="yes") == cc.BinaryCode(True, "yes")
        with pytest.raises(ValueError, match="^a True code must record its matched phrase$"):
            cc.BinaryCode(False)._replace(value=True)


class TestClassify:
    def test_positive_sample_matches_yes(self, phrases):
        code = cc.classify(POSITIVE_RESPONSES["gpt-4o-mini"], phrases)
        assert code.value is True
        assert code.matched_phrase == "yes"

    def test_negation_is_not_a_substring_match(self, phrases):
        # "is not explicitly mentioned" must not satisfy "is explicitly mentioned"
        code = cc.classify(NEGATIVE_RESPONSES["o1-mini"], phrases)
        assert code.value is False
        assert code.matched_phrase is None

    def test_does_not_address_sample(self, phrases):
        assert cc.classify(NEGATIVE_RESPONSES["gpt-4o"], phrases).value is False

    def test_empty_text(self, phrases):
        assert cc.classify("", phrases).value is False

    def test_first_match_in_list_order(self, phrases):
        code = cc.classify("Indeed, the topic is discussed at length.", phrases)
        assert code.matched_phrase == "indeed"

    def test_case_insensitive(self, phrases):
        assert cc.classify("YES.", phrases).value is True

    def test_whitespace_runs_normalized(self, phrases):
        assert cc.classify("the topic is\n   discussed", phrases).value is True

    def test_regex_and_str_split_whitespace_agree(self):
        regex_whitespace = [c for c in map(chr, ALL_CODE_POINTS) if REGEX_WHITESPACE.match(c)]
        assert regex_whitespace == WHITESPACE
        assert len(WHITESPACE) == 29

    @pytest.mark.parametrize("word_boundary", [False, True])
    @given(head=runs, text=pieces, tail=runs)
    def test_folding_codes_as_the_regex_reference(self, word_boundary, head, text, tail):
        text = head + text + tail
        for phrases in (cc.default_key_phrases(), EDGE_PHRASES):
            expected = regex_classify(text, phrases, word_boundary)
            code = cc.classify(text, phrases, word_boundary=word_boundary)
            assert code == expected
            assert code is (phrases.codes[code.matched_phrase] if code.value else NO_MATCH)

    @pytest.mark.parametrize("word_boundary", [False, True])
    def test_codes_are_shared_not_built_per_call(self, phrases, word_boundary):
        for text, fresh in [
            ("Yes, it is.", cc.BinaryCode(True, "yes")),
            ("The topic is discussed.", cc.BinaryCode(True, "is discussed")),
            ("Nothing of the kind.", cc.BinaryCode(False)),
        ]:
            first = cc.classify(text, phrases, word_boundary=word_boundary)
            assert first == fresh
            assert first is cc.classify(text.upper(), phrases, word_boundary=word_boundary)
            assert first is (phrases.codes[fresh.matched_phrase] if fresh.value else NO_MATCH)

    def test_word_boundary_flag(self, phrases):
        assert cc.classify("We met yesterday.", phrases).value is True
        assert cc.classify("We met yesterday.", phrases, word_boundary=True).value is False

    def test_determinism(self, phrases):
        text = POSITIVE_RESPONSES["o1-mini"]
        assert cc.classify(text, phrases) == cc.classify(text, phrases)

    @given(st.text(max_size=200), st.text(max_size=80))
    def test_appending_text_is_monotone(self, text, suffix):
        phrases = cc.default_key_phrases()
        before = cc.classify(text, phrases)
        after = cc.classify(text + suffix, phrases)
        if before.value:
            assert after.value


class TestLoadKeyPhrases:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "phrases.json"
        path.write_text(json.dumps(["affirmative", "certainly"]), encoding="utf-8")
        kps = cc.load_key_phrases(path)
        assert tuple(kps) == ("affirmative", "certainly")

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "phrases.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(ConfigError):
            cc.load_key_phrases(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "phrases.json"
        path.write_text('["yes", ', encoding="utf-8")
        with pytest.raises(ConfigError, match=f"cannot read phrase list {re.escape(str(path))}: Expecting"):
            cc.load_key_phrases(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "phrases.json"
        path.write_text(json.dumps(["yes", "YES"]), encoding="utf-8")
        with pytest.raises(ConfigError):
            cc.load_key_phrases(path)
