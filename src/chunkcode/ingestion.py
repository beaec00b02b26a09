"""Document loading, text normalization, and fixed-size word chunking."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, IngestionError
from .frozen import Frozen

# Control characters (Unicode category Cc) other than newline and tab are
# dropped outright; newline and tab survive normalization as plain spaces.
_CONTROL_DELETE = {
    cp: None
    for block in (range(0x00, 0x20), range(0x7F, 0xA0))
    for cp in block
    if chr(cp) not in "\n\t"
}

# A hyphen broken across a line is rejoined only when the continuation starts
# with a lowercase letter, so hyphenated proper-noun compounds survive.
_HYPHEN_BREAK = re.compile(r"-\n(?=(\S))")


def preprocess(raw: str) -> str:
    """Normalize raw document text into single-spaced, printable prose.

    Dehyphenates words split across line breaks, turns remaining newlines
    into spaces, strips control characters, collapses whitespace runs, and
    trims the ends. Idempotent; empty input yields empty output.
    """
    text = raw.translate(_CONTROL_DELETE)
    text = _HYPHEN_BREAK.sub(
        lambda m: "" if m.group(1).islower() else m.group(0), text
    )
    return " ".join(text.split())


def tokenize_words(text: str) -> list[str]:
    """Split text into words: each maximal non-whitespace run is one word."""
    return text.split()


class DocumentText(Frozen):
    """A document after preprocessing, held as an ordered word sequence.

    Build instances through :meth:`from_raw` so that ``words`` is always the
    tokenization of the preprocessed ``raw`` text. Not a tuple: its length
    is its word count.
    """

    __slots__ = _fields = ("doc_id", "raw", "words", "source_path")
    doc_id: str
    raw: str
    words: tuple[str, ...]
    source_path: str

    def __init__(self, doc_id: str, raw: str, words: tuple[str, ...], source_path: str = "") -> None:
        self._set(doc_id, raw, words, source_path)

    @classmethod
    def from_raw(cls, doc_id: str, raw: str, source_path: str = "") -> "DocumentText":
        return cls(
            doc_id=doc_id,
            raw=raw,
            words=tuple(tokenize_words(preprocess(raw))),
            source_path=source_path,
        )

    @property
    def text(self) -> str:
        """The preprocessed text: words joined by single spaces."""
        return " ".join(self.words)

    def __len__(self) -> int:
        return len(self.words)


# A NamedTuple: chunking a long corpus at size 1 builds millions of these.
# chunk_document builds them positionally with tuple.__new__, because the
# generated keyword constructor costs about twice as much per chunk.
class Chunk(NamedTuple):
    """A contiguous run of document words, at most the configured size."""

    doc_id: str
    index: int
    words: tuple[str, ...]
    text: str


def chunk_document(doc: DocumentText, size: int) -> list[Chunk]:
    """Split a document into ceil(len(words) / size) fixed-size word chunks.

    Every chunk except possibly the last holds exactly ``size`` words; the
    last holds whatever remains. A document with no words yields no chunks.
    """
    if size < 1:
        raise ConfigError(f"chunk size must be >= 1, got {size}")
    doc_id, all_words = doc.doc_id, doc.words
    new, join = tuple.__new__, " ".join
    slices = [all_words[start : start + size] for start in range(0, len(all_words), size)]
    return [
        new(Chunk, (doc_id, index, words, join(words)))
        for index, words in enumerate(slices)
    ]


def load_document(path: str | Path, doc_id: str) -> DocumentText:
    """Read one UTF-8 plain-text file and return the preprocessed document."""
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise IngestionError(f"cannot read document {doc_id!r} from {p}: {exc}") from exc
    return DocumentText.from_raw(doc_id, raw, source_path=str(p))


def load_manifest(path: str | Path) -> list[DocumentText]:
    """Load a corpus from a manifest: a JSON array of {"doc_id", "path"}.

    Relative document paths are resolved against the manifest's directory.
    """
    p = Path(path)
    try:
        entries = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        raise IngestionError(f"cannot read manifest {p}: {exc}") from exc
    if not isinstance(entries, list):
        raise IngestionError(f"manifest {p} must be a JSON array")
    docs = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("doc_id"), str)
            or not isinstance(entry.get("path"), str)
        ):
            raise IngestionError(
                f"manifest {p} entry {i} must be an object with string"
                f" 'doc_id' and 'path' fields"
            )
        doc_id = entry["doc_id"]
        if doc_id in seen:
            raise IngestionError(f"manifest {p} repeats doc_id {doc_id!r}")
        seen.add(doc_id)
        doc_path = Path(entry["path"])
        if not doc_path.is_absolute():
            doc_path = p.parent / doc_path
        docs.append(load_document(doc_path, doc_id))
    return docs
