"""Rater-agreement statistics over binary rating matrices.

Covers confusion metrics against a gold standard, percent agreement,
Fleiss' kappa, and the comparison of kappa before and after appending a
model's consensus column as an extra rater.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import engine
from .engine import IterationResult, modal_code
from .errors import (
    DegenerateKappaError,
    SubjectMismatchError,
    UndefinedMetricError,
)

Subject = tuple[str, str]  # (doc_id, dimension_id)

# Reporting thresholds: percent agreement below 0.90 is flagged weak, and
# kappa in [0.40, 0.75] reads as fair agreement beyond chance.
PERCENT_AGREEMENT_TARGET = 0.90
KAPPA_FAIR_MIN = 0.40
KAPPA_FAIR_MAX = 0.75


class _RatingMatrix(NamedTuple):
    subjects: tuple[Subject, ...]
    raters: tuple[str, ...]
    codes: tuple[tuple[bool, ...], ...]


class RatingMatrix(_RatingMatrix):
    """Fully populated subjects x raters matrix of binary codes.

    ``codes[i][j]`` is the code rater ``raters[j]`` gave ``subjects[i]``.
    """

    __slots__ = ()

    def __new__(
        cls, subjects: tuple[Subject, ...], raters: tuple[str, ...], codes: tuple[tuple[bool, ...], ...]
    ) -> "RatingMatrix":
        if not subjects:
            raise ValueError("a rating matrix needs at least one subject")
        if not raters:
            raise ValueError("a rating matrix needs at least one rater")
        if len(set(subjects)) != len(subjects):
            raise ValueError("subjects must be unique")
        if len(set(raters)) != len(raters):
            raise ValueError("rater ids must be unique")
        if len(codes) != len(subjects):
            raise ValueError("one code row per subject is required")
        for subject, row in zip(subjects, codes):
            if len(row) != len(raters):
                raise ValueError(f"subject {subject} is missing ratings")
        return tuple.__new__(cls, (subjects, raters, codes))

    @classmethod
    def _make(cls, iterable: Iterable) -> "RatingMatrix":
        # _replace builds through _make, so a changed copy is checked too.
        return cls(*iterable)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(doc_id for doc_id, _ in self.subjects))

    def column(self, rater_id: str) -> dict[Subject, bool]:
        j = self.raters.index(rater_id)
        return {subject: row[j] for subject, row in zip(self.subjects, self.codes)}

    def with_rater(self, rater_id: str, codes: Mapping[Subject, bool]) -> "RatingMatrix":
        """A new matrix with one appended rater column."""
        missing = [s for s in self.subjects if s not in codes]
        if missing:
            raise SubjectMismatchError(
                f"added rater {rater_id!r} does not cover {len(missing)} subject(s),"
                f" e.g. {missing[0]}",
                missing=missing,
            )
        return RatingMatrix(
            subjects=self.subjects,
            raters=self.raters + (rater_id,),
            codes=tuple(
                row + (bool(codes[subject]),)
                for subject, row in zip(self.subjects, self.codes)
            ),
        )

    def filter_doc(self, doc_id: str) -> "RatingMatrix":
        """The sub-matrix holding only one document's subjects."""
        picked = [
            (subject, row)
            for subject, row in zip(self.subjects, self.codes)
            if subject[0] == doc_id
        ]
        if not picked:
            raise ValueError(f"no subjects for doc_id {doc_id!r}")
        return RatingMatrix(
            subjects=tuple(s for s, _ in picked),
            raters=self.raters,
            codes=tuple(r for _, r in picked),
        )


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def manual_consensus(m: RatingMatrix) -> dict[Subject, bool]:
    """Modal code per subject across raters; even splits resolve to True."""
    return {subject: modal_code(sum(row), len(row))[0] for subject, row in zip(m.subjects, m.codes)}


def confusion(
    pred: Mapping[Subject, bool], gold: Mapping[Subject, bool]
) -> ConfusionCounts:
    """Count prediction outcomes against a gold standard.

    Both mappings must cover exactly the same subjects.
    """
    missing = sorted(set(gold) - set(pred))
    extra = sorted(set(pred) - set(gold))
    if missing or extra:
        raise SubjectMismatchError(
            f"subject sets differ: {len(missing)} missing from predictions,"
            f" {len(extra)} extra (e.g. {(missing + extra)[0]})",
            missing=missing,
            extra=extra,
        )
    tp = fp = fn = tn = 0
    for subject, gold_value in gold.items():
        pred_value = pred[subject]
        if pred_value and gold_value:
            tp += 1
        elif pred_value and not gold_value:
            fp += 1
        elif not pred_value and gold_value:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def accuracy(c: ConfusionCounts) -> float:
    """Correct codes over all codes."""
    if c.total == 0:
        raise UndefinedMetricError("accuracy is undefined with no subjects")
    return (c.tp + c.tn) / c.total


def precision(c: ConfusionCounts) -> float:
    """True positives over predicted positives."""
    if c.tp + c.fp == 0:
        raise UndefinedMetricError("precision is undefined with no predicted positives")
    return c.tp / (c.tp + c.fp)


def recall(c: ConfusionCounts) -> float:
    """True positives over gold positives."""
    if c.tp + c.fn == 0:
        raise UndefinedMetricError("recall is undefined with no gold positives")
    return c.tp / (c.tp + c.fn)


def negative_identification_rate(c: ConfusionCounts) -> float:
    """True negatives over gold negatives."""
    if c.tn + c.fp == 0:
        raise UndefinedMetricError(
            "negative identification rate is undefined with no gold negatives"
        )
    return c.tn / (c.tn + c.fp)


def identification_rates(c: ConfusionCounts) -> tuple[float, float]:
    """(positive rate, negative rate): TP over gold positives, TN over gold negatives."""
    return recall(c), negative_identification_rate(c)


def percent_agreement(m: RatingMatrix) -> float:
    """Mean over subjects of the fraction of raters matching the modal code.

    With binary codes the mode always covers at least half the raters, so
    the result is never below 0.5.
    """
    if len(m.raters) < 2:
        raise ValueError("percent agreement needs at least two raters")
    total = 0.0  # a loop, not sum(): from Python 3.12 sum() compensates float rounding
    for row in m.codes:
        total += modal_code(sum(row), len(row))[1]
    return total / len(m.subjects)


def fleiss_kappa(m: RatingMatrix) -> float:
    """Fleiss' chance-corrected multi-rater agreement for binary codes.

    Per-subject agreement is the fraction of concordant rater pairs; the
    chance term is the sum of squared overall category proportions. With
    fewer than two subjects, or every rating in one category, the statistic
    is undefined and a DegenerateKappaError is raised rather than returning
    NaN; fewer than two raters is a ValueError.
    """
    k = len(m.raters)
    if k < 2:
        raise ValueError("Fleiss' kappa needs at least two raters")
    if len(m.subjects) < 2:
        raise DegenerateKappaError("Fleiss' kappa needs at least two subjects")
    total_true = 0
    p_sum = 0.0
    for row in m.codes:
        trues = sum(row)
        falses = k - trues
        total_true += trues
        p_sum += (trues * (trues - 1) + falses * (falses - 1)) / (k * (k - 1))
    n_ratings = len(m.subjects) * k
    if total_true == 0 or total_true == n_ratings:
        raise DegenerateKappaError(
            "every rating falls in a single category; kappa is undefined"
        )
    p_bar = p_sum / len(m.subjects)
    p_true = total_true / n_ratings
    p_e = p_true * p_true + (1.0 - p_true) * (1.0 - p_true)
    return (p_bar - p_e) / (1.0 - p_e)


def kappa_band(kappa: float) -> str:
    """Interpretation label for a kappa value."""
    if kappa < KAPPA_FAIR_MIN:
        return "strongly driven by chance"
    if kappa <= KAPPA_FAIR_MAX:
        return "fair agreement beyond chance"
    return "strong agreement beyond chance"


class KappaComparison(NamedTuple):
    """Kappa before and after appending one extra rater."""

    kappa_before: float
    kappa_after: float

    @property
    def delta(self) -> float:
        return self.kappa_after - self.kappa_before


def kappa_with_llm(
    m: RatingMatrix, llm: Mapping[Subject, bool], rater_id: str = "llm"
) -> KappaComparison:
    """Effect on Fleiss' kappa of adding a model consensus column as a rater."""
    return KappaComparison(
        kappa_before=fleiss_kappa(m),
        kappa_after=fleiss_kappa(m.with_rater(rater_id, llm)),
    )


def kappa_with_llm_by_doc(
    m: RatingMatrix, llm: Mapping[Subject, bool], rater_id: str = "llm"
) -> dict[str, KappaComparison | None]:
    """Per-document kappa comparison, each over that document's subjects only.

    A document whose kappa is undefined (fewer than two subjects, or
    single-category ratings) maps to None.
    """
    by_doc: dict[str, KappaComparison | None] = {}
    for doc_id in m.doc_ids:
        try:
            by_doc[doc_id] = kappa_with_llm(m.filter_doc(doc_id), llm, rater_id)
        except DegenerateKappaError:
            by_doc[doc_id] = None
    return by_doc


def rating_matrix_from_iterations(results: Sequence[IterationResult]) -> RatingMatrix:
    """Matrix whose raters are the iterations and whose subjects are the cells.

    Every cell must cover the same iteration numbers (fully populated).
    """
    iterations = sorted({r.iteration for r in results})
    cells: dict[Subject, dict[int, bool]] = {}
    for r in results:
        cells.setdefault((r.doc_id, r.dimension_id), {})[r.iteration] = r.value
    subjects = tuple(cells)
    rows = []
    for subject in subjects:
        by_iter = cells[subject]
        missing = [i for i in iterations if i not in by_iter]
        if missing:
            raise ValueError(
                f"cell {subject} lacks iteration(s) {missing}; the matrix must be"
                f" fully populated"
            )
        rows.append(tuple(by_iter[i] for i in iterations))
    return RatingMatrix(
        subjects=subjects,
        raters=tuple(f"iter_{i}" for i in iterations),
        codes=tuple(rows),
    )


# -- CSV interchange ---------------------------------------------------------


def _parse_code(cell: str, context: str) -> bool:
    value = cell.strip().lower()
    if value in ("t", "true", "1"):
        return True
    if value in ("f", "false", "0"):
        return False
    raise ValueError(f"{context}: expected T or F, got {cell!r}")


def read_ratings_csv(path: str | Path) -> RatingMatrix:
    """Read a rating matrix from CSV.

    Header: ``doc_id,dimension_id,<rater>...``; cells are T or F.
    """
    p = Path(path)
    with open(p, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{p}: empty ratings file") from None
        if header[:2] != ["doc_id", "dimension_id"] or len(header) < 3:
            raise ValueError(
                f"{p}: header must start with doc_id,dimension_id and name at"
                f" least one rater"
            )
        raters = tuple(header[2:])
        subjects: dict[Subject, int] = {}  # subject -> its line number
        rows: list[tuple[bool, ...]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{p}:{lineno}: expected {len(header)} cells")
            subject = (row[0], row[1])
            if subject in subjects:
                raise ValueError(
                    f"{p}:{lineno}: subject {subject} repeats line {subjects[subject]}"
                )
            subjects[subject] = lineno
            rows.append(
                tuple(
                    _parse_code(cell, f"{p}:{lineno}:{raters[j]}")
                    for j, cell in enumerate(row[2:])
                )
            )
    try:
        return RatingMatrix(subjects=tuple(subjects), raters=raters, codes=tuple(rows))
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None


def write_ratings_csv(m: RatingMatrix, path: str | Path) -> None:
    """Write a rating matrix as CSV, whole, in the layout ``read_ratings_csv`` reads."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["doc_id", "dimension_id", *m.raters])
    for subject, row in zip(m.subjects, m.codes):
        writer.writerow([subject[0], subject[1], *("T" if v else "F" for v in row)])
    engine._write_whole(path, buffer.getvalue())
