"""Nonparametric significance tests and their chi-square support function.

Implements the Mann-Whitney U test, the Kruskal-Wallis rank test, and the
one-sample Wilcoxon signed-rank test. One pass ranks the data and sums its
tie term. Mann-Whitney and Wilcoxon then share one core: small, tie-free
samples get exact p-values by enumerating the null distribution; everything
else uses a tie-corrected normal approximation with continuity correction.
Kruskal-Wallis refers its tie-corrected H to the chi-square tail, which for
its whole-number df is a finite sum of exp terms, plus an erfc when df is
odd. Each
result's ``method_note`` records which route produced it, how ties were
handled, and how many zero differences were dropped, so reported p-values
stay auditable.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .frozen import Frozen

SIDES = ("two", "less", "greater")
METHODS = ("auto", "exact", "approx")

# Largest pooled (or effective) sample size for which the exact enumeration
# route is the default. C(12, 6) = 924 and 2**12 = 4096 keep it cheap.
EXACT_LIMIT = 12
# Most assignments an explicit exact request may enumerate: 2**20 sign
# assignments (Wilcoxon, n = 20) took 0.46-0.56 s of CPU on a 2-core VM.
EXACT_MAX_ASSIGNMENTS = 2**20


class Sample(Frozen):
    """A labelled group of finite real observations.

    Not a tuple: its length is its number of observations.
    """

    __slots__ = _fields = ("label", "values")
    label: str
    values: tuple[float, ...]

    def __init__(self, label: str, values: Iterable[float]) -> None:
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError(f"sample {label!r} is empty")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"sample {label!r} contains non-finite values")
        self._set(label, values)

    def __len__(self) -> int:
        return len(self.values)


class TestResult(NamedTuple):
    statistic: float
    p_value: float
    method_note: str


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n where tied values share the average of their positions.

    midranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]
    """
    return _ranked(values)[0]


def _ranked(values: Sequence[float]) -> tuple[list[float], int]:
    """Midranks of the values, and the tie term: the sum of t**3 - t over
    their tie groups of size t, which is 0 exactly when no two values tie."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        tie_term += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    return ranks, tie_term


def _normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _pick_side(p_less: float, p_greater: float, sides: str) -> float:
    if sides == "less":
        return min(1.0, p_less)
    if sides == "greater":
        return min(1.0, p_greater)
    return min(1.0, 2.0 * min(p_less, p_greater))


def _check_sides_method(sides: str, method: str) -> None:
    if sides not in SIDES:
        raise ValueError(f"sides must be one of {SIDES}, got {sides!r}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _rank_test(
    statistic: float, tie_term: int, n: int, sides: str, method: str, null: Iterable[float],
    assignments: int, exact_note: str, mu: float, sigma2: float, ranked: str, note_suffix: str = "",
) -> TestResult:
    """Result of a rank statistic over ``n`` values, called ``ranked`` in the
    refusal: exact over ``null``, a lazy iterable of the statistic under each
    of ``assignments`` equally likely assignments, or normal with mean ``mu``
    and variance ``sigma2``, kept positive by the callers' earlier degenerate
    returns."""
    if method == "exact" and tie_term:
        raise ValueError(f"exact method requires tie-free {ranked}")
    if method == "exact" and assignments > EXACT_MAX_ASSIGNMENTS:
        raise ValueError(
            f"exact method would enumerate {assignments} assignments, more than"
            f" EXACT_MAX_ASSIGNMENTS ({EXACT_MAX_ASSIGNMENTS})"
        )
    if method == "exact" or (method == "auto" and not tie_term and n <= EXACT_LIMIT):
        total = count_le = count_ge = 0
        for value in null:
            total += 1
            count_le += value <= statistic + 1e-9
            count_ge += value >= statistic - 1e-9
        p_less = count_le / total
        p_greater = count_ge / total
        note = exact_note
    else:
        sigma = math.sqrt(sigma2)
        p_greater = _normal_sf((statistic - mu - 0.5) / sigma)
        p_less = _normal_sf((mu - statistic - 0.5) / sigma)
        ties = "tie-corrected variance, " if tie_term else ""
        note = f"normal approximation with {ties}continuity correction"
    return TestResult(statistic, _pick_side(p_less, p_greater, sides), note + note_suffix)


# -- Mann-Whitney U ----------------------------------------------------------


def mann_whitney_u(
    a: Sample, b: Sample, sides: str = "two", *, method: str = "auto"
) -> TestResult:
    """Rank-sum comparison of two independent samples.

    The statistic is U for ``a``: its midrank sum minus the minimum possible,
    so swapping the samples maps U to len(a)*len(b) - U. ``sides="less"``
    tests whether ``a`` tends below ``b``. With ``method="auto"`` an exact
    p-value is computed by enumerating all rank assignments whenever the
    pooled size is at most 12 with no ties; otherwise the tie-corrected
    normal approximation with continuity correction is used. ``method="exact"``
    is refused over ties and above ``EXACT_MAX_ASSIGNMENTS`` assignments.
    """
    _check_sides_method(sides, method)
    n_a, n_b = len(a), len(b)
    pooled = a.values + b.values
    n = n_a + n_b
    ranks, tie_term = _ranked(pooled)
    base = n_a * (n_a + 1) / 2.0
    u = sum(ranks[:n_a]) - base

    if len(set(pooled)) == 1:
        return TestResult(u, 1.0, "degenerate: all pooled values identical")

    return _rank_test(
        u, tie_term, n, sides, method,
        null=(sum(c) - base for c in combinations(ranks, n_a)),
        assignments=math.comb(n, n_a),
        exact_note=f"exact enumeration over C({n},{n_a}) rank assignments",
        mu=n_a * n_b / 2.0,
        sigma2=(n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1))),
        ranked="data",
    )


def pairwise_mann_whitney(
    groups: Sequence[Sample], sides: str = "two", *, bonferroni: bool = False
) -> list[tuple[str, str, TestResult]]:
    """Mann-Whitney over every pair of groups.

    ``bonferroni`` multiplies each p-value by the number of comparisons
    (clamped at 1) and says so in the method note; by default p-values are
    reported uncorrected.
    """
    if len(groups) < 2:
        raise ValueError("pairwise comparison needs at least two groups")
    pairs = list(combinations(range(len(groups)), 2))
    out = []
    for i, j in pairs:
        result = mann_whitney_u(groups[i], groups[j], sides)
        if bonferroni:
            result = TestResult(
                result.statistic,
                min(1.0, result.p_value * len(pairs)),
                result.method_note + f"; Bonferroni corrected for {len(pairs)} comparisons",
            )
        out.append((groups[i].label, groups[j].label, result))
    return out


# -- Kruskal-Wallis ----------------------------------------------------------


def kruskal_wallis(groups: Sequence[Sample]) -> TestResult:
    """Rank test for a location difference across two or more groups.

    Computes H from pooled midranks, divides by the tie correction, and
    refers the result to the chi-square distribution with k-1 degrees of
    freedom.
    """
    if len(groups) < 2:
        raise ValueError("Kruskal-Wallis needs at least two groups")
    pooled = [v for g in groups for v in g.values]
    n = len(pooled)
    if n < 3:
        raise ValueError("Kruskal-Wallis needs a total of at least three values")
    if len(set(pooled)) == 1:
        return TestResult(0.0, 1.0, "degenerate: all values identical")

    ranks, tie_term = _ranked(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r_sum = sum(ranks[offset : offset + len(g)])
        h += r_sum * r_sum / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)

    h_corrected = h / (1.0 - tie_term / (n**3 - n))
    df = len(groups) - 1
    p = chi_square_sf(h_corrected, df)
    note = f"chi-square survival function, df={df}"
    if tie_term:
        note = "tie-corrected H; " + note
    return TestResult(h_corrected, p, note)


# -- one-sample Wilcoxon signed-rank ------------------------------------------


def wilcoxon_signed_rank_one_sample(
    s: Sample, target_median: float, sides: str = "two", *, method: str = "auto"
) -> TestResult:
    """Signed-rank test of a sample's median against a target value.

    Zero differences are dropped (their count lands in the method note).
    The statistic is W+, the rank sum of positive differences, ranked by
    absolute size with midranks for ties. ``sides="greater"`` tests whether
    the sample median lies above the target. Exact p-values enumerate all
    sign assignments when at most 12 nonzero differences remain and their
    absolute values are tie-free; otherwise the tie-corrected normal
    approximation with continuity correction applies. ``method="exact"`` is
    refused over ties and above ``EXACT_MAX_ASSIGNMENTS`` assignments.
    """
    _check_sides_method(sides, method)
    if not math.isfinite(target_median):
        raise ValueError("target median must be finite")
    diffs = [v - target_median for v in s.values if v != target_median]
    dropped = len(s) - len(diffs)
    drop_note = f"; {dropped} zero difference(s) dropped" if dropped else ""
    if not diffs:
        return TestResult(0.0, 1.0, "degenerate: all differences zero" + drop_note)

    n = len(diffs)
    ranks, tie_term = _ranked([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)

    return _rank_test(
        w_plus, tie_term, n, sides, method,
        null=(sum(c) for k in range(n + 1) for c in combinations(ranks, k)),
        assignments=2**n,
        exact_note=f"exact enumeration over 2^{n} sign assignments",
        mu=n * (n + 1) / 4.0,
        sigma2=n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0,
        ranked="absolute differences",
        note_suffix=drop_note,
    )


# -- chi-square survival function ---------------------------------------------


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with df degrees.

    For a whole df the tail is a finite sum (Abramowitz & Stegun 26.4.4-5):
    erfc(sqrt(x/2)) when df is odd, plus (x/2)**a * exp(-x/2) / gamma(a + 1)
    for a = 0 (or 1/2) up to df/2 - 1. Each term is taken in logs, so none
    underflows before the tail does. Past a = x/2 the terms shrink at least
    geometrically, so the sum stops once the rest cannot move it.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"degrees of freedom must be a whole number >= 1, got {df}")
    if not x >= 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    a = (df % 2) / 2.0
    total = math.erfc(math.sqrt(h)) if a else 0.0
    log_h = math.log(h)
    for _ in range(int(df) // 2):
        term = math.exp(a * log_h - h - math.lgamma(a + 1.0))
        total += term
        a += 1.0
        # The rest is at most term * r / (1 - r), with r = h / a.
        if a > h and term * h <= (a - h) * math.ulp(total) / 2:
            break
    return min(1.0, total)


# -- CSV interchange -----------------------------------------------------------


def read_samples_csv(path: str | Path) -> list[Sample]:
    """Read labelled samples from CSV with header ``group,value``.

    Groups come back in order of first appearance.
    """
    p = Path(path)
    grouped: dict[str, list[float]] = {}
    with open(p, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{p}: empty samples file") from None
        if [h.strip() for h in header[:2]] != ["group", "value"]:
            raise ValueError(f"{p}: header must be 'group,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{p}:{lineno}: expected 'group,value'")
            try:
                value = float(row[1])
            except ValueError:
                raise ValueError(f"{p}:{lineno}: {row[1]!r} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{p}:{lineno}: {row[1]!r} is not finite")
            grouped.setdefault(row[0], []).append(value)
    if not grouped:
        raise ValueError(f"{p}: no sample rows")
    return [Sample(label, tuple(values)) for label, values in grouped.items()]
