"""Key-phrase marking of model responses as binary presence codes."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ConfigError
from .frozen import Frozen

# Stock marker list: a response containing any of these (case-insensitive,
# single-spaced) is coded True. Order matters only for which match is logged.
_DEFAULT_PHRASES = (
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


def _fold(text: str) -> str:
    """``text`` lowercased, its whitespace runs collapsed to single spaces and
    its edges stripped; whitespace is what ``str.split`` splits on."""
    return " ".join(text.split()).lower()


class KeyPhraseSet(Frozen):
    """Ordered list of phrases whose presence marks a response True.

    Phrases are stored lowercase with inner whitespace collapsed to single
    spaces; duplicates and empty entries are rejected. Each phrase's
    word-boundary pattern and the True code it marks are built once, here:
    ``codes`` maps each phrase to the one ``BinaryCode`` that ``classify``
    returns for it.
    """

    __slots__ = ("phrases", "codes", "_bounded")
    _fields = ("phrases",)
    phrases: tuple[str, ...]

    def __init__(self, phrases: Iterable[str]):
        normalized: list[str] = []
        seen: set[str] = set()
        for phrase in phrases:
            p = _fold(phrase)
            if not p:
                raise ValueError("key phrases must be nonempty")
            if p in seen:
                raise ValueError(f"duplicate key phrase {p!r}")
            seen.add(p)
            normalized.append(p)
        if not normalized:
            raise ValueError("at least one key phrase is required")
        self._set(tuple(normalized))
        object.__setattr__(self, "codes", {p: BinaryCode(True, p) for p in normalized})
        object.__setattr__(self, "_bounded", tuple((p, re.compile(rf"\b{re.escape(p)}\b")) for p in normalized))

    def __iter__(self) -> Iterator[str]:
        return iter(self.phrases)

    def __len__(self) -> int:
        return len(self.phrases)

    def __contains__(self, phrase: str) -> bool:
        return phrase in self.phrases


class _BinaryCode(NamedTuple):
    value: bool
    matched_phrase: str | None


class BinaryCode(_BinaryCode):
    """A True/False code plus, when True, the phrase that triggered it."""

    __slots__ = ()

    def __new__(cls, value: bool, matched_phrase: str | None = None) -> "BinaryCode":
        if value and matched_phrase is None:
            raise ValueError("a True code must record its matched phrase")
        if not value and matched_phrase is not None:
            raise ValueError("a False code cannot carry a matched phrase")
        return tuple.__new__(cls, (value, matched_phrase))

    @classmethod
    def _make(cls, iterable: Iterable) -> "BinaryCode":
        # _replace builds through _make, so a changed copy is checked too.
        return cls(*iterable)


# The one False code: classify returns it for every response that matches no
# phrase, and engine.record_from_json for every such record it reads.
NO_MATCH = BinaryCode(False)


def classify(
    response_text: str, phrases: KeyPhraseSet, *, word_boundary: bool = False
) -> BinaryCode:
    """Mark a response True when any key phrase occurs in it.

    The search is a case-insensitive substring scan over the response with
    whitespace runs collapsed to single spaces; the first phrase to occur
    (in list order) is recorded. With ``word_boundary`` the phrase must also
    start and end on word boundaries, so "yes" no longer hits "yesterday".
    The code is shared, not built per call: the phrase set's code for the
    phrase, or ``NO_MATCH``.
    """
    haystack = _fold(response_text)
    if word_boundary:
        # A boundary match is also a substring match, so the scan goes first.
        for phrase, pattern in phrases._bounded:
            if phrase in haystack and pattern.search(haystack):
                return phrases.codes[phrase]
    else:
        for phrase in phrases.phrases:
            if phrase in haystack:
                return phrases.codes[phrase]
    return NO_MATCH


def default_key_phrases() -> KeyPhraseSet:
    """The stock 14-phrase marker list."""
    return KeyPhraseSet(_DEFAULT_PHRASES)


def load_key_phrases(path: str | Path) -> KeyPhraseSet:
    """Load an override phrase list: a JSON array of strings."""
    p = Path(path)
    try:
        entries = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read phrase list {p}: {exc}") from exc
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise ConfigError(f"phrase list {p} must be a JSON array of strings")
    try:
        return KeyPhraseSet(entries)
    except ValueError as exc:
        raise ConfigError(f"invalid phrase list {p}: {exc}") from exc
