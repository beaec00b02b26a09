"""Seeded workload inputs and the fake endpoint's answer model.

Everything here is a pure function of the seed, so the benchmark parent,
the fake endpoint and the output checks agree on what each prompt should
be answered with without talking to each other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DIMENSIONS = 17
CHUNK_WORDS = 500
ITERATIONS = 15
RATERS = 3
MODEL = "bench-model"

# Share of distinct prompt texts answered with a positive template.
POSITIVE_SHARE = 0.12

# Answers carry no stock key phrase unless they are positive, so the known
# code of each template is what the classifier must assign.
POSITIVE_TEMPLATES = (
    "Yes, the parameter is mentioned in the text. The authors describe it when"
    " they lay out the system architecture and again in the evaluation, where"
    " it frames the comparison between configurations. The second passage ties"
    " it to the measurements reported in the results table.",
    "The parameter is discussed directly. The text describes how it shapes the"
    " design and returns to it in the closing section, citing it as a reason"
    " for the chosen approach and as a limit on how far the findings carry.",
    "Indeed, the passage covers this parameter. It appears in the problem"
    " statement and in the method description, where the authors explain how"
    " they account for it and what happens when it changes during operation.",
    "The text does mention the parameter, first in the motivation and later in"
    " the case study. Both passages describe it in concrete terms, with the"
    " case study giving numbers that show how it influenced the outcome.",
)
NEGATIVE_TEMPLATES = (
    "No. The passage concentrates on other topics and never turns to this"
    " parameter at all.",
    "The text does not cover this parameter; it focuses on implementation"
    " details that are unrelated to it.",
    "The paper does not focus on it. Its subject matter lies elsewhere, and no"
    " sentence refers to the concept in question.",
    "There is no treatment of this parameter here; the excerpt deals with"
    " a different part of the study.",
)
TEMPLATE_CODES = {t: True for t in POSITIVE_TEMPLATES} | {t: False for t in NEGATIVE_TEMPLATES}

_NAME = re.compile(r"parameter '([^']*)'")


def split_prompt(prompt: str) -> tuple[str, str]:
    """(dimension name, body) of a coding prompt, or ValueError.

    The prompt is an instruction naming the dimension in quotes, a blank
    line, then the text to code.
    """
    instruction, sep, body = prompt.partition("\n\n")
    match = _NAME.search(instruction)
    if not sep or not body or match is None:
        raise ValueError("not a coding prompt")
    return match.group(1), body


def text_key(name: str, body: str) -> str:
    """Identity of a prompt text: its dimension and its body."""
    return hashlib.sha256(f"{name}\x1f{body}".encode("utf-8")).hexdigest()


def _unit(seed: int, purpose: str, key: str) -> float:
    digest = hashlib.sha256(f"{seed}:{purpose}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def answer(seed: int, key: str) -> str:
    """The endpoint's answer to a prompt text: a pure function of the text."""
    digest = hashlib.sha256(f"{seed}:answer:{key}".encode("utf-8")).digest()
    positive = int.from_bytes(digest[:8], "big") / 2**64 < POSITIVE_SHARE
    templates = POSITIVE_TEMPLATES if positive else NEGATIVE_TEMPLATES
    return templates[digest[8] % len(templates)]


@dataclass(frozen=True)
class Corpus:
    seed: int
    doc_words: dict[str, list[str]]  # doc_id -> words, in manifest order
    dims: list[tuple[str, str, str]]  # (id, name, definition)

    @property
    def doc_ids(self) -> list[str]:
        return list(self.doc_words)

    def bodies(self, doc_id: str, strategy: str) -> list[tuple[int | None, str]]:
        """(chunk index, body) of every prompt a cell of this document sends."""
        words = self.doc_words[doc_id]
        if strategy == "whole":
            return [(None, " ".join(words))]
        return [
            (i // CHUNK_WORDS, " ".join(words[i : i + CHUNK_WORDS]))
            for i in range(0, len(words), CHUNK_WORDS)
        ]

    def expected_responses(self, strategy: str) -> dict[tuple[str, str, int | None], str]:
        """(doc_id, dimension_id, chunk index) -> the endpoint's answer."""
        out = {}
        for doc_id in self.doc_words:
            for index, body in self.bodies(doc_id, strategy):
                for dim_id, name, _ in self.dims:
                    out[(doc_id, dim_id, index)] = answer(self.seed, text_key(name, body))
        return out

    def expected_consensus(self, strategy: str) -> dict[tuple[str, str], bool]:
        """OR over chunks; every iteration gets the same answers."""
        out: dict[tuple[str, str], bool] = {}
        for (doc_id, dim_id, _), text in self.expected_responses(strategy).items():
            out[(doc_id, dim_id)] = out.get((doc_id, dim_id), False) or TEMPLATE_CODES[text]
        return out

    def injections(self, retries: int, rejects: int) -> tuple[dict[str, int], set[str], set[tuple[str, str]]]:
        """Pick chunk prompt texts for injected errors by a seeded hash.

        Returns (text key -> 429 or 503 on first arrival, text keys answered
        400 on every arrival, (doc_id, dimension_id) pairs those 400s fail).
        Rejected texts are first chunks, so a serial engine sends no other
        chunk of a failing cell; retried texts come from cells that never
        fail, so every one of them is sent. The counts are exact for every
        seed, which keeps run time comparable across seeds.
        """
        first, rest = [], []
        for doc_id in self.doc_words:
            for index, body in self.bodies(doc_id, "chunk"):
                for dim_id, name, _ in self.dims:
                    key = text_key(name, body)
                    (first if index == 0 else rest).append((_unit(self.seed, "inject", key), key, doc_id, dim_id))
        first.sort()
        failed = {(doc_id, dim_id) for _, _, doc_id, dim_id in first[:rejects]}
        reject_keys = {key for _, key, _, _ in first[:rejects]}
        pool = sorted(e for e in first[rejects:] + rest if (e[2], e[3]) not in failed)
        retry = {key: (429, 503)[i % 2] for i, (_, key, _, _) in enumerate(pool[:retries])}
        return retry, reject_keys, failed


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    consonants = "bcdfghklmnprstvz"
    vowels = "aeiou"
    words = set()
    while len(words) < count:
        syllables = rng.randint(1, 4)
        words.add("".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables)))
    return sorted(words)


def make_corpus(seed: int, docs: int, words_per_doc: int) -> Corpus:
    rng = random.Random(seed)
    vocab = _pseudo_words(rng, 3000)
    dims = []
    for i in range(1, DIMENSIONS + 1):
        name = " ".join(rng.choice(vocab).capitalize() for _ in range(2))
        definition = " ".join(rng.choice(vocab) for _ in range(rng.randint(20, 40))) + "."
        dims.append((f"dim-{i:02d}", f"{name} {i}", definition.capitalize()))
    doc_words = {}
    for d in range(1, docs + 1):
        words = [rng.choice(vocab) for _ in range(words_per_doc)]
        for i in range(11, words_per_doc - 1, 17):
            words[i] += rng.choice(",.;")
        doc_words[f"doc-{d:03d}"] = words
    return Corpus(seed=seed, doc_words=doc_words, dims=dims)


def write_inputs(corpus: Corpus, out: Path) -> dict[str, Path]:
    """Write documents, manifest, codebook and a seeded manual rating matrix."""
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for doc_id, words in corpus.doc_words.items():
        # Line breaks every 12 words: the program joins them back to spaces.
        lines = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)]
        (out / f"{doc_id}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries.append({"doc_id": doc_id, "path": f"{doc_id}.txt"})
    paths = {"manifest": out / "manifest.json", "codebook": out / "codebook.json", "manual": out / "manual.csv"}
    paths["manifest"].write_text(json.dumps(entries, indent=1), encoding="utf-8")
    paths["codebook"].write_text(
        json.dumps([{"id": i, "name": n, "definition": d} for i, n, d in corpus.dims], indent=1),
        encoding="utf-8",
    )
    # Raters mostly agree with the chunk consensus, each flipping some cells;
    # the first two cells pin both categories so kappa is never degenerate.
    rng = random.Random(f"{corpus.seed}:manual")
    truth = corpus.expected_consensus("chunk")
    with open(paths["manual"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["doc_id", "dimension_id", *(f"rater_{r}" for r in range(1, RATERS + 1))])
        for n, ((doc_id, dim_id), value) in enumerate(truth.items()):
            if n < 2:
                codes = [n == 0] * RATERS
            else:
                base = value if rng.random() < 0.8 else not value
                codes = [base if rng.random() < 0.9 else not base for _ in range(RATERS)]
            writer.writerow([doc_id, dim_id, *("T" if c else "F" for c in codes)])
    return paths
