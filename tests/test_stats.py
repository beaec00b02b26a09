import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkcode import stats as cs
from oracles import (
    chi_square_sf_oracle,
    mann_whitney_enumeration,
    wilcoxon_enumeration,
)


def sample(label, values):
    return cs.Sample(label, tuple(values))


def distinct_floats(rng, n, lo=0.0, hi=100.0):
    out = set()
    while len(out) < n:
        out.add(round(rng.uniform(lo, hi), 6))
    return list(out)


class TestSample:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^sample 'a' is empty$"):
            sample("a", [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^sample 'a' contains non-finite values$"):
            sample("a", [1.0, math.inf])
        with pytest.raises(ValueError, match="^sample 'a' contains non-finite values$"):
            sample("a", [math.nan])


class TestMidranks:
    def test_tie_handling(self):
        assert cs.midranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]

    def test_no_ties(self):
        assert cs.midranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_all_equal(self):
        assert cs.midranks([5, 5, 5]) == [2.0, 2.0, 2.0]


class TestMannWhitney:
    def test_identical_samples(self):
        a = sample("a", [1, 2, 3])
        result = cs.mann_whitney_u(a, sample("b", [1, 2, 3]), "two")
        assert result.statistic == pytest.approx(9 / 2)
        assert result.p_value == pytest.approx(1.0, abs=1e-6)

    def test_separated_samples_one_sided(self):
        result = cs.mann_whitney_u(sample("a", [1, 2, 3]), sample("b", [4, 5, 6]), "less")
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1 / 20, abs=1e-12)
        assert "exact" in result.method_note

    def test_tiny_two_sided(self):
        result = cs.mann_whitney_u(sample("a", [1, 2]), sample("b", [3]), "two")
        assert result.p_value == pytest.approx(2 / 3, abs=1e-12)

    def test_degenerate_constant_data(self):
        result = cs.mann_whitney_u(sample("a", [7, 7]), sample("b", [7, 7, 7]), "two")
        assert result.p_value == 1.0
        assert "degenerate" in result.method_note

    def test_exact_requires_no_ties(self):
        with pytest.raises(ValueError):
            cs.mann_whitney_u(sample("a", [1, 1]), sample("b", [2]), "two", method="exact")

    def test_large_samples_use_approximation(self):
        rng = random.Random(0)
        a = sample("a", [rng.random() for _ in range(20)])
        b = sample("b", [rng.random() for _ in range(20)])
        result = cs.mann_whitney_u(a, b, "two")
        assert "approximation" in result.method_note

    @given(st.data())
    @settings(max_examples=60)
    def test_swap_symmetry(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        n_a = data.draw(st.integers(1, 6))
        n_b = data.draw(st.integers(1, 6))
        values = distinct_floats(rng, n_a + n_b)
        a, b = sample("a", values[:n_a]), sample("b", values[n_a:])
        forward = cs.mann_whitney_u(a, b, "two")
        backward = cs.mann_whitney_u(b, a, "two")
        assert forward.statistic + backward.statistic == pytest.approx(n_a * n_b)
        assert forward.p_value == backward.p_value

    def test_swap_symmetry_in_approx_regime(self):
        rng = random.Random(12)
        values = distinct_floats(rng, 30)
        a, b = sample("a", values[:14]), sample("b", values[14:])
        assert (
            cs.mann_whitney_u(a, b, "two").p_value
            == cs.mann_whitney_u(b, a, "two").p_value
        )

    @given(st.data())
    @settings(max_examples=60)
    def test_two_sided_at_least_smaller_one_sided(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        n_a = data.draw(st.integers(1, 6))
        n_b = data.draw(st.integers(1, 6))
        values = distinct_floats(rng, n_a + n_b)
        a, b = sample("a", values[:n_a]), sample("b", values[n_a:])
        p_two = cs.mann_whitney_u(a, b, "two").p_value
        p_less = cs.mann_whitney_u(a, b, "less").p_value
        p_greater = cs.mann_whitney_u(a, b, "greater").p_value
        assert p_two >= min(p_less, p_greater) - 1e-12
        assert 0.0 <= min(p_less, p_greater, p_two)
        assert max(p_less, p_greater, p_two) <= 1.0

    def test_matches_enumeration_oracle_with_ties_excluded(self):
        rng = random.Random(321)
        for _ in range(25):
            n_a, n_b = rng.randint(1, 5), rng.randint(1, 5)
            values = distinct_floats(rng, n_a + n_b)
            a, b = values[:n_a], values[n_a:]
            u, p_less, p_greater, p_two = mann_whitney_enumeration(a, b)
            for sides, expected in (("less", p_less), ("greater", p_greater), ("two", p_two)):
                result = cs.mann_whitney_u(sample("a", a), sample("b", b), sides)
                assert result.statistic == pytest.approx(u, abs=1e-12)
                assert result.p_value == pytest.approx(expected, abs=1e-12)


class TestPairwiseMannWhitney:
    def test_all_pairs_reported(self):
        groups = [sample("g1", [1, 2]), sample("g2", [3, 4]), sample("g3", [5, 6])]
        results = cs.pairwise_mann_whitney(groups)
        assert [(a, b) for a, b, _ in results] == [("g1", "g2"), ("g1", "g3"), ("g2", "g3")]

    def test_bonferroni_flag(self):
        groups = [sample("g1", [1, 2]), sample("g2", [3, 4]), sample("g3", [5, 6])]
        plain = cs.pairwise_mann_whitney(groups)
        corrected = cs.pairwise_mann_whitney(groups, bonferroni=True)
        for (_, _, p), (_, _, c) in zip(plain, corrected):
            assert c.p_value == pytest.approx(min(1.0, p.p_value * 3))
            assert "Bonferroni" in c.method_note

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            cs.pairwise_mann_whitney([sample("g", [1])])


class TestKruskalWallis:
    def test_identical_groups_degenerate(self):
        result = cs.kruskal_wallis([sample("a", [2, 2]), sample("b", [2, 2])])
        assert result.p_value == 1.0
        assert "degenerate" in result.method_note

    def test_hand_computed_three_group_fixture(self):
        groups = [
            sample("g1", [1, 2, 3]),
            sample("g2", [4, 5, 6]),
            sample("g3", [7, 8, 9]),
        ]
        result = cs.kruskal_wallis(groups)
        # rank sums 6, 15, 24 over N=9: H = 12/90 * (36+225+576)/3 - 30 = 7.2
        assert result.statistic == pytest.approx(7.2, abs=1e-10)
        assert result.p_value == pytest.approx(math.exp(-3.6), abs=1e-10)

    def test_two_identical_distributions_high_p(self):
        rng = random.Random(4)
        values = distinct_floats(rng, 12)
        result = cs.kruskal_wallis([sample("a", values[:6]), sample("b", values[6:])])
        assert result.p_value > 0.0

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            cs.kruskal_wallis([sample("a", [1, 2, 3])])

    def test_needs_three_values(self):
        with pytest.raises(ValueError):
            cs.kruskal_wallis([sample("a", [1]), sample("b", [2])])

    def test_tie_correction_applied(self):
        groups = [sample("a", [1, 1, 2]), sample("b", [2, 3, 3])]
        result = cs.kruskal_wallis(groups)
        assert "tie-corrected" in result.method_note
        assert 0.0 <= result.p_value <= 1.0

    def test_agrees_with_mann_whitney_for_two_groups(self):
        rng = random.Random(20240501)
        agree = 0
        trials = 200
        for t in range(trials):
            shift = (0.0, 0.4, 0.8, 1.4)[t % 4]
            a = sample("a", [rng.gauss(0, 1) for _ in range(rng.randint(8, 14))])
            b = sample("b", [rng.gauss(shift, 1) for _ in range(rng.randint(8, 14))])
            kw = cs.kruskal_wallis([a, b]).p_value < 0.05
            mw = cs.mann_whitney_u(a, b, "two").p_value < 0.05
            agree += kw == mw
        assert agree / trials >= 0.95


class TestWilcoxon:
    def test_symmetric_sample_two_sided(self):
        result = cs.wilcoxon_signed_rank_one_sample(sample("s", [0.88, 0.92]), 0.90, "two")
        assert result.p_value == pytest.approx(1.0)

    def test_all_above_target_one_sided(self):
        result = cs.wilcoxon_signed_rank_one_sample(
            sample("s", [0.91, 0.92, 0.93, 0.94, 0.95]), 0.90, "greater"
        )
        assert result.statistic == 15.0
        assert result.p_value == pytest.approx(1 / 32, abs=1e-12)
        assert "exact" in result.method_note

    def test_all_zero_differences_degenerate(self):
        result = cs.wilcoxon_signed_rank_one_sample(sample("s", [0.90]), 0.90, "two")
        assert result.p_value == 1.0
        assert "degenerate" in result.method_note
        assert "1 zero difference" in result.method_note

    def test_zero_differences_dropped_and_counted(self):
        result = cs.wilcoxon_signed_rank_one_sample(
            sample("s", [0.90, 0.93, 0.95, 0.90]), 0.90, "greater"
        )
        assert "2 zero difference(s) dropped" in result.method_note
        assert result.statistic == 3.0  # ranks 1 and 2, both positive
        assert result.p_value == pytest.approx(1 / 4, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 9)
            diffs = distinct_floats(rng, n, lo=0.5, hi=9.0)
            signs = [rng.choice([-1, 1]) for _ in range(n)]
            values = [10.0 + s * d for s, d in zip(signs, diffs)]
            w, p_less, p_greater, p_two = wilcoxon_enumeration(values, 10.0)
            for sides, expected in (("less", p_less), ("greater", p_greater), ("two", p_two)):
                result = cs.wilcoxon_signed_rank_one_sample(sample("s", values), 10.0, sides)
                assert result.statistic == pytest.approx(w, abs=1e-12)
                assert result.p_value == pytest.approx(expected, abs=1e-12)

    def test_tied_magnitudes_use_approximation(self):
        result = cs.wilcoxon_signed_rank_one_sample(
            sample("s", [0.88, 0.92, 0.94, 0.86]), 0.90, "two"
        )
        assert "approximation" in result.method_note
        assert "tie-corrected" in result.method_note

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cs.wilcoxon_signed_rank_one_sample(sample("s", [1.0]), math.nan, "two")
        with pytest.raises(ValueError):
            cs.wilcoxon_signed_rank_one_sample(sample("s", [1.0]), 0.5, "sideways")


TIED = sample("t", [8, 12])
FORTY = [sample(label, [v + 0.5 * k for v in range(40)]) for k, label in enumerate("ab")]
TIED_FORTY = [sample(label, range(40)) for label in "ab"]
TWENTY_ONE = sample("s", [v + 0.25 for v in range(21)])
SIDES_MESSAGE = "sides must be one of ('two', 'less', 'greater'), got 'sideways'"
METHOD_MESSAGE = "method must be one of ('auto', 'exact', 'approx'), got 'fast'"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cs.mann_whitney_u(TIED, TIED, method="exact"), "exact method requires tie-free data"),
        (
            lambda: cs.wilcoxon_signed_rank_one_sample(TIED, 10.0, method="exact"),
            "exact method requires tie-free absolute differences",
        ),
        (lambda: cs.mann_whitney_u(TIED, TIED, "sideways", method="fast"), SIDES_MESSAGE),
        (lambda: cs.mann_whitney_u(TIED, TIED, method="fast"), METHOD_MESSAGE),
        (
            lambda: cs.wilcoxon_signed_rank_one_sample(TIED, math.nan, "sideways", method="fast"),
            SIDES_MESSAGE,
        ),
        (lambda: cs.wilcoxon_signed_rank_one_sample(TIED, math.inf, method="fast"), METHOD_MESSAGE),
        (
            lambda: cs.wilcoxon_signed_rank_one_sample(TIED, math.nan, method="exact"),
            "target median must be finite",
        ),
        (
            lambda: cs.mann_whitney_u(*FORTY, method="exact"),
            "exact method would enumerate 107507208733336176461620 assignments, more than"
            " EXACT_MAX_ASSIGNMENTS (1048576)",
        ),
        (
            lambda: cs.wilcoxon_signed_rank_one_sample(TWENTY_ONE, 0.0, method="exact"),
            "exact method would enumerate 2097152 assignments, more than EXACT_MAX_ASSIGNMENTS (1048576)",
        ),
        (lambda: cs.mann_whitney_u(*TIED_FORTY, method="exact"), "exact method requires tie-free data"),
        (lambda: cs.mann_whitney_u(*FORTY, "sideways", method="exact"), SIDES_MESSAGE),
        (
            lambda: cs.wilcoxon_signed_rank_one_sample(TWENTY_ONE, math.inf, method="exact"),
            "target median must be finite",
        ),
    ],
)
def test_refusal_messages_and_their_order(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_exact_requests_up_to_the_assignment_limit_are_enumerated(monkeypatch):
    """The limit is inclusive and binds only an explicit exact request:
    ``auto`` picks its route by ``EXACT_LIMIT`` alone."""
    monkeypatch.setattr(cs, "EXACT_MAX_ASSIGNMENTS", 16)
    four, five = sample("s", [1.5, 2.5, 3.5, 4.5]), sample("s", [1.5, 2.5, 3.5, 4.5, 5.5])
    assert cs.wilcoxon_signed_rank_one_sample(four, 0.0, method="exact").method_note == (
        "exact enumeration over 2^4 sign assignments"
    )
    with pytest.raises(ValueError, match="would enumerate 32 assignments"):
        cs.wilcoxon_signed_rank_one_sample(five, 0.0, method="exact")
    pair = sample("a", [1, 2])
    four_b, five_b = sample("b", [3.5, 4.5, 5.5, 6.5]), sample("b", [3.5, 4.5, 5.5, 6.5, 7.5])
    assert cs.mann_whitney_u(pair, four_b, method="exact").method_note == (
        "exact enumeration over C(6,2) rank assignments"
    )
    with pytest.raises(ValueError, match="would enumerate 21 assignments"):
        cs.mann_whitney_u(pair, five_b, method="exact")
    assert cs.mann_whitney_u(pair, five_b).method_note == "exact enumeration over C(7,2) rank assignments"


def test_degenerate_data_is_not_refused_by_an_exact_request():
    constant = cs.mann_whitney_u(sample("a", [7, 7]), sample("b", [7, 7, 7]), method="exact")
    assert constant == cs.TestResult(3.0, 1.0, "degenerate: all pooled values identical")
    zeros = cs.wilcoxon_signed_rank_one_sample(sample("s", [5, 5]), 5.0, method="exact")
    assert zeros == cs.TestResult(
        0.0, 1.0, "degenerate: all differences zero; 2 zero difference(s) dropped"
    )


class TestChiSquareSF:
    def test_at_zero(self):
        for df in (1, 2, 5):
            assert cs.chi_square_sf(0.0, df) == 1.0

    def test_classic_critical_value(self):
        assert cs.chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)

    def test_df_two_closed_form(self):
        for x in (0.5, 2.0, 7.2, 31.0):
            assert cs.chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_matches_recurrence_oracle(self):
        for df in (1, 2, 3, 4, 7, 10, 25):
            for x in (0.01, 0.5, 1.0, 3.841, 9.2, 20.0, 55.0):
                assert cs.chi_square_sf(x, df) == pytest.approx(
                    chi_square_sf_oracle(x, df), abs=1e-10
                )

    @given(
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=80.0),
        st.integers(min_value=1, max_value=30),
    )
    def test_monotone_decreasing(self, x1, x2, df):
        lo, hi = sorted((x1, x2))
        assert cs.chi_square_sf(lo, df) >= cs.chi_square_sf(hi, df) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cs.chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            cs.chi_square_sf(1.0, 0)

    # (df, x, Q): Q is mpmath 1.3.0's gammainc(df/2, x/2, inf, regularized=True)
    # at mp.dps = 60, rounded to the nearest float. Unlike chi_square_sf_oracle
    # it shares no closed form with the code under test.
    MPMATH_REFERENCE = [
        (1, 0.5, 0.4795001221869535),
        (1, 3.841, 0.0500136837639567),
        (2, 31.0, 1.8553913626159784e-07),
        (3, 0.01, 0.9997348349413444),
        (4, 9.2, 0.056290280169948075),
        (5, 20.0, 0.0012497305630313753),
        (7, 55.0, 1.4909069484204908e-09),
        (10, 1.0, 0.9998278843700441),
        (25, 30.0, 0.22428900483440392),
        (50, 333.3, 1.6690768903634888e-43),
        (99, 150.0, 0.0007204453957169629),
        (41, 1400.0, 5.657578192413954e-267),
        (60, 1400.0, 3.7455417501517596e-253),
        (100, 1.0, 1.0),
    ]

    @pytest.mark.parametrize("df, x, q", MPMATH_REFERENCE)
    def test_matches_mpmath_reference(self, df, x, q):
        assert cs.chi_square_sf(x, df) == pytest.approx(q, rel=1e-12)

    def test_whole_float_df_is_the_integer(self):
        assert cs.chi_square_sf(4.5, 3.0) == cs.chi_square_sf(4.5, 3)

    @pytest.mark.parametrize("df", [0, 2.5, math.nan, math.inf])
    def test_df_not_a_whole_number_from_one_is_refused_naming_it(self, df):
        with pytest.raises(ValueError, match=f"got {df}$"):
            cs.chi_square_sf(1.0, df)

    def test_nan_statistic_is_refused_naming_it(self):
        with pytest.raises(ValueError, match="got nan$"):
            cs.chi_square_sf(math.nan, 2)

    def test_infinite_statistic_has_no_tail(self):
        for df in (1, 2, 5):
            assert cs.chi_square_sf(math.inf, df) == 0.0

    def test_subnormal_statistic_whose_half_underflows(self):
        for df in (1, 2, 5):
            assert cs.chi_square_sf(5e-324, df) == 1.0

    def test_huge_df_stops_once_the_terms_cannot_move_the_sum(self):
        start = time.process_time()
        assert cs.chi_square_sf(5.0, 10**9) == 1.0
        assert time.process_time() - start < 1.0


class TestSamplesCSV:
    def test_groups_in_first_seen_order(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "group,value\nchunk,0.9\nwhole,0.7\nchunk,0.95\n", encoding="utf-8"
        )
        groups = cs.read_samples_csv(path)
        assert [g.label for g in groups] == ["chunk", "whole"]
        assert groups[0].values == (0.9, 0.95)

    def test_a_leading_byte_order_mark_reads_as_without_one(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one.
        text = "group,value\r\nchunk,0.9\r\nwhole,0.7\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8", newline="")
        marked.write_text("\ufeff" + text, encoding="utf-8", newline="")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert cs.read_samples_csv(marked) == cs.read_samples_csv(plain)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte order mark"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_a_byte_not_utf8_is_named_by_file_and_line(self, tmp_path, end, bom):
        path = tmp_path / "samples.csv"
        lines = [b"group,value", b"a,1", b"a\xff,2"]
        path.write_bytes(bom + end.join(lines) + end)
        with pytest.raises(ValueError) as raised:
            cs.read_samples_csv(path)
        assert str(raised.value) == f"{path}:3: not UTF-8 (invalid start byte)"
        path.write_bytes(bom + end.join(lines[:2]) + end)
        assert cs.read_samples_csv(path) == [cs.Sample("a", (1.0,))]

    def test_bad_number(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("group,value\na,not-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not-a-number"):
            cs.read_samples_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e309"])
    def test_non_finite_value_named_by_line(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_text(f"group,value\na,1\na,{text}\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            cs.read_samples_csv(path)
        assert str(raised.value) == f"{path}:3: {text!r} is not finite"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_a_line_after_a_cell_spanning_lines_is_named_by_its_file_line(self, tmp_path, end):
        path = tmp_path / "samples.csv"
        lines = ["group,value", '"a', 'b",1', "c,x"]
        path.write_bytes(end.join(lines).encode() + end.encode())
        with pytest.raises(ValueError) as raised:
            cs.read_samples_csv(path)
        assert str(raised.value) == f"{path}:4: 'x' is not a number"

    def test_missing_value_named_by_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("group,value\na,1\na\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            cs.read_samples_csv(path)
        assert str(raised.value) == f"{path}:3: expected 'group,value'"

    @pytest.mark.parametrize(
        "text, problem",
        [("", "empty samples file"), ("group,value\n", "no sample rows"), ("group,value\n\n\n", "no sample rows")],
        ids=["empty", "header-only", "header-and-blank-lines"],
    )
    def test_a_file_without_samples_is_refused(self, tmp_path, text, problem):
        path = tmp_path / "samples.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            cs.read_samples_csv(path)
        assert str(raised.value) == f"{path}: {problem}"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("label,measure\na,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            cs.read_samples_csv(path)
