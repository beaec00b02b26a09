from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chunkcode as cc
from chunkcode.errors import (
    DegenerateKappaError,
    SubjectMismatchError,
    UndefinedMetricError,
)
from oracles import fleiss_kappa_oracle


def matrix(rows, raters=None):
    """Build a RatingMatrix from a list of per-subject bool lists."""
    n_raters = len(rows[0])
    return cc.RatingMatrix(
        subjects=tuple((f"doc{i // 4}", f"dim{i % 4}") for i in range(len(rows))),
        raters=tuple(raters or (f"r{j}" for j in range(n_raters))),
        codes=tuple(tuple(row) for row in rows),
    )


# Worked 3-rater, 4-subject example: kappa comes out at exactly 1/3, rising
# to 11/27 when a fourth rater equal to rater 0 is appended, and falling to
# -1/6 when the added rater contradicts the consensus on every subject.
FIXTURE_ROWS = [
    [True, True, True],
    [True, True, False],
    [False, False, False],
    [True, False, False],
]

matrices_strategy = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k), min_size=2, max_size=6
    )
)


class TestRatingMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            cc.RatingMatrix(subjects=(), raters=("a",), codes=())
        with pytest.raises(ValueError, match="^subjects must be unique$"):
            cc.RatingMatrix(
                subjects=(("d", "x"), ("d", "x")),
                raters=("a",),
                codes=((True,), (False,)),
            )
        with pytest.raises(ValueError, match=r"^subject \('d', 'x'\) is missing ratings$"):
            cc.RatingMatrix(subjects=(("d", "x"),), raters=("a", "b"), codes=((True,),))
        with pytest.raises(ValueError, match="^a rating matrix needs at least one rater$"):
            cc.RatingMatrix(subjects=(("d", "x"),), raters=(), codes=((),))
        with pytest.raises(ValueError, match="^one code row per subject is required$"):
            cc.RatingMatrix(subjects=(("d", "x"), ("d", "y")), raters=("a",), codes=((True,),))
        matrix = cc.RatingMatrix(subjects=(("d", "x"),), raters=("a",), codes=((True,),))
        with pytest.raises(ValueError, match="^a rating matrix needs at least one rater$"):
            matrix._replace(raters=())

    def test_with_rater_appends_column(self):
        m = matrix(FIXTURE_ROWS)
        consensus = cc.manual_consensus(m)
        extended = m.with_rater("llm", consensus)
        assert extended.raters[-1] == "llm"
        assert extended.column("llm") == consensus

    def test_with_rater_requires_full_coverage(self):
        m = matrix(FIXTURE_ROWS)
        with pytest.raises(SubjectMismatchError):
            m.with_rater("llm", {m.subjects[0]: True})

    def test_filter_doc(self):
        m = matrix(FIXTURE_ROWS)
        sub = m.filter_doc("doc0")
        assert all(s[0] == "doc0" for s in sub.subjects)
        with pytest.raises(ValueError):
            m.filter_doc("nope")


class TestManualConsensus:
    def test_majority(self):
        m = matrix([[True, True, False], [False, False, False]])
        consensus = cc.manual_consensus(m)
        assert consensus[m.subjects[0]] is True
        assert consensus[m.subjects[1]] is False

    def test_even_tie_resolves_true(self):
        m = matrix([[True, False]])
        assert cc.manual_consensus(m)[m.subjects[0]] is True

    @pytest.mark.parametrize("raters", range(2, 7))
    def test_raters_reduce_as_iterations_do(self, raters):
        """Each row's manual mode and agreeing share are the consensus value
        and support of iterations coding the same."""
        for row in product([False, True], repeat=raters):
            m = matrix([row])
            cell = cc.consensus([cc.IterationResult("d", "x", i + 1, v) for i, v in enumerate(row)])
            assert (cc.manual_consensus(m)[m.subjects[0]], cc.percent_agreement(m)) == (cell.value, cell.support)


class TestConfusion:
    def gold(self, n_true, n_false):
        return {
            (f"d{i}", "x"): i < n_true for i in range(n_true + n_false)
        }

    def test_identity(self):
        gold = self.gold(6, 4)
        counts = cc.confusion(gold, gold)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (6, 0, 0, 4)

    def test_all_positive_predictions(self):
        gold = self.gold(6, 4)
        pred = {s: True for s in gold}
        counts = cc.confusion(pred, gold)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (6, 4, 0, 0)

    def test_subject_mismatch(self):
        gold = self.gold(2, 2)
        pred = {("other", "x"): True}
        with pytest.raises(SubjectMismatchError) as excinfo:
            cc.confusion(pred, gold)
        assert len(excinfo.value.missing) == 4
        assert len(excinfo.value.extra) == 1


class TestConfusionMetrics:
    def test_arithmetic(self):
        counts = cc.ConfusionCounts(tp=3, fp=1, fn=1, tn=5)
        assert cc.accuracy(counts) == pytest.approx(0.8)
        assert cc.precision(counts) == pytest.approx(0.75)
        assert cc.recall(counts) == pytest.approx(0.75)

    def test_undefined_metrics_raise(self):
        no_positive_predictions = cc.ConfusionCounts(tp=0, fp=0, fn=0, tn=10)
        with pytest.raises(UndefinedMetricError):
            cc.precision(no_positive_predictions)
        with pytest.raises(UndefinedMetricError):
            cc.recall(no_positive_predictions)
        with pytest.raises(UndefinedMetricError):
            cc.accuracy(cc.ConfusionCounts(0, 0, 0, 0))

    def test_identification_rates(self):
        counts = cc.ConfusionCounts(tp=9, fp=6, fn=1, tn=4)
        assert cc.identification_rates(counts) == (pytest.approx(0.9), pytest.approx(0.4))

    def test_identification_rates_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cc.identification_rates(cc.ConfusionCounts(tp=0, fp=1, fn=0, tn=1))

    @given(
        st.tuples(
            st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
        )
    )
    def test_metrics_stay_in_unit_interval(self, quad):
        counts = cc.ConfusionCounts(*quad)
        for metric in (cc.accuracy, cc.precision, cc.recall):
            try:
                assert 0.0 <= metric(counts) <= 1.0
            except UndefinedMetricError:
                pass

    def test_accuracy_between_class_conditional_rates(self):
        """Over every 4-subject prediction/gold combination, accuracy lies
        between the positive and negative identification rates (it is their
        prevalence-weighted average)."""
        from itertools import product

        subjects = [(f"d{i}", "x") for i in range(4)]
        for gold_bits, pred_bits in product(
            product([False, True], repeat=4), repeat=2
        ):
            gold = dict(zip(subjects, gold_bits))
            pred = dict(zip(subjects, pred_bits))
            counts = cc.confusion(pred, gold)
            try:
                rates = cc.identification_rates(counts)
            except UndefinedMetricError:
                continue
            acc = cc.accuracy(counts)
            assert min(rates) - 1e-12 <= acc <= max(rates) + 1e-12


class TestPercentAgreement:
    def test_full_agreement(self):
        assert cc.percent_agreement(matrix([[True] * 3, [False] * 3])) == 1.0

    def test_worked_example(self):
        m = matrix([[True, True, False], [False, False, False]])
        assert cc.percent_agreement(m) == pytest.approx(5 / 6)

    def test_needs_two_raters(self):
        with pytest.raises(ValueError):
            cc.percent_agreement(matrix([[True]]))

    @given(matrices_strategy)
    def test_never_below_half(self, rows):
        assert cc.percent_agreement(matrix(rows)) >= 0.5


class TestFleissKappa:
    def test_perfect_agreement_with_both_categories(self):
        m = matrix([[True, True, True], [False, False, False]])
        assert cc.fleiss_kappa(m) == pytest.approx(1.0, abs=1e-12)

    def test_worked_fixture(self):
        m = matrix(FIXTURE_ROWS)
        kappa = cc.fleiss_kappa(m)
        assert kappa == pytest.approx(1 / 3, abs=1e-12)
        assert kappa == pytest.approx(fleiss_kappa_oracle(FIXTURE_ROWS), abs=1e-12)

    def test_degenerate_single_category(self):
        with pytest.raises(DegenerateKappaError):
            cc.fleiss_kappa(matrix([[True, True], [True, True]]))

    def test_minimum_shape(self):
        with pytest.raises(ValueError):
            cc.fleiss_kappa(matrix([[True], [False]]))  # one rater
        with pytest.raises(ValueError):
            cc.fleiss_kappa(matrix([[True, False]]))  # one subject

    @given(matrices_strategy)
    def test_matches_oracle(self, rows):
        expected = fleiss_kappa_oracle(rows)
        m = matrix(rows)
        if expected is None:
            with pytest.raises(DegenerateKappaError):
                cc.fleiss_kappa(m)
        else:
            assert cc.fleiss_kappa(m) == pytest.approx(expected, abs=1e-12)

    @given(matrices_strategy, st.randoms(use_true_random=False))
    def test_invariant_under_permutations(self, rows, rng):
        expected = fleiss_kappa_oracle(rows)
        subject_order = list(range(len(rows)))
        rater_order = list(range(len(rows[0])))
        rng.shuffle(subject_order)
        rng.shuffle(rater_order)
        shuffled = [[rows[i][j] for j in rater_order] for i in subject_order]
        m = matrix(shuffled)
        if expected is None:
            with pytest.raises(DegenerateKappaError):
                cc.fleiss_kappa(m)
        else:
            assert cc.fleiss_kappa(m) == pytest.approx(expected, abs=1e-12)

    @given(matrices_strategy)
    def test_equals_one_exactly_for_unanimous_subjects(self, rows):
        unanimous = all(len(set(row)) == 1 for row in rows)
        categories = {v for row in rows for v in row}
        m = matrix(rows)
        if unanimous and len(categories) == 2:
            assert cc.fleiss_kappa(m) == pytest.approx(1.0, abs=1e-12)
        elif len(categories) == 2:
            assert cc.fleiss_kappa(m) < 1.0


class TestKappaWithLLM:
    def test_agreeing_extra_rater_raises_kappa(self):
        m = matrix(FIXTURE_ROWS)
        llm = m.column("r0")
        comparison = cc.kappa_with_llm(m, llm)
        assert comparison.kappa_before == pytest.approx(1 / 3, abs=1e-12)
        assert comparison.kappa_after == pytest.approx(11 / 27, abs=1e-12)
        assert comparison.kappa_after >= comparison.kappa_before
        assert comparison.delta == pytest.approx(11 / 27 - 1 / 3, abs=1e-12)

    def test_contrarian_extra_rater_lowers_kappa(self):
        m = matrix(FIXTURE_ROWS)
        llm = {s: not v for s, v in cc.manual_consensus(m).items()}
        comparison = cc.kappa_with_llm(m, llm)
        assert comparison.kappa_after == pytest.approx(-1 / 6, abs=1e-12)
        assert comparison.delta < 0

    def test_oracle_agreement_on_extended_matrix(self):
        m = matrix(FIXTURE_ROWS)
        llm = m.column("r0")
        extended_rows = [row + [llm[s]] for s, row in zip(m.subjects, FIXTURE_ROWS)]
        assert cc.kappa_with_llm(m, llm).kappa_after == pytest.approx(
            fleiss_kappa_oracle(extended_rows), abs=1e-12
        )

    def test_per_document_slices(self):
        # doc0 and doc1 are mixed; doc2 is rated False by everyone
        rows = [[True, True, False], [True, False, False]] * 4 + [[False] * 3] * 4
        m = matrix(rows)
        llm = cc.manual_consensus(m)
        by_doc = cc.kappa_with_llm_by_doc(m, llm)
        assert set(by_doc) == set(m.doc_ids)
        assert by_doc.pop("doc2") is None
        with pytest.raises(DegenerateKappaError):
            cc.kappa_with_llm(m.filter_doc("doc2"), llm)
        assert set(by_doc) == {"doc0", "doc1"}
        for doc_id, comparison in by_doc.items():
            expected = cc.kappa_with_llm(m.filter_doc(doc_id), llm)
            assert comparison == expected


    def test_documents_of_one_subject_map_to_none_but_one_rater_is_refused(self):
        subjects = (("doc0", "dim0"), ("doc1", "dim0"))
        m = cc.RatingMatrix(subjects=subjects, raters=("r0", "r1"), codes=((True, False), (True, True)))
        llm = dict(zip(subjects, (True, False)))
        assert cc.kappa_with_llm_by_doc(m, llm) == {"doc0": None, "doc1": None}
        with pytest.raises(DegenerateKappaError, match="at least two subjects"):
            cc.fleiss_kappa(m.filter_doc("doc0"))
        one_rater = cc.RatingMatrix(subjects=subjects, raters=("r0",), codes=((True,), (False,)))
        with pytest.raises(ValueError, match="at least two raters"):
            cc.kappa_with_llm_by_doc(one_rater, llm)


class TestIterationMatrix:
    def test_builds_iterations_as_raters(self):
        results = [
            cc.IterationResult("d", "a", i, v)
            for i, v in ((1, True), (2, False), (3, True))
        ] + [cc.IterationResult("d", "b", i, False) for i in (1, 2, 3)]
        m = cc.rating_matrix_from_iterations(results)
        assert m.raters == ("iter_1", "iter_2", "iter_3")
        assert m.subjects == (("d", "a"), ("d", "b"))
        assert m.codes == ((True, False, True), (False, False, False))

    def test_missing_iteration_rejected(self):
        results = [
            cc.IterationResult("d", "a", 1, True),
            cc.IterationResult("d", "a", 2, True),
            cc.IterationResult("d", "b", 1, False),
        ]
        with pytest.raises(ValueError, match="fully populated"):
            cc.rating_matrix_from_iterations(results)


class TestRatingsCSV:
    def test_round_trip(self, tmp_path):
        m = matrix(FIXTURE_ROWS, raters=("alice", "bob", "cleo"))
        path = tmp_path / "ratings.csv"
        cc.write_ratings_csv(m, path)
        assert cc.read_ratings_csv(path) == m

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("doc_id,dimension_id,r1\nd,x,maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="maybe"):
            cc.read_ratings_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("paper,dim,r1\nd,x,T\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            cc.read_ratings_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("doc_id,dimension_id,r1\nd,x,T\n\nd,y,F\n\n", encoding="utf-8")
        m = cc.read_ratings_csv(path)
        assert m.subjects == (("d", "x"), ("d", "y"))
        assert m.codes == ((True,), (False,))

    def test_a_leading_byte_order_mark_reads_as_without_one(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one.
        text = "doc_id,dimension_id,r1,r2\r\nd,x,T,F\r\nd,y,F,F\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8", newline="")
        marked.write_text("\ufeff" + text, encoding="utf-8", newline="")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert cc.read_ratings_csv(marked) == cc.read_ratings_csv(plain)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte order mark"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_a_byte_not_utf8_is_named_by_file_and_line(self, tmp_path, end, bom):
        path = tmp_path / "ratings.csv"
        lines = [b"doc_id,dimension_id,r1", b"d,x,T", b"d,\xff,F"]
        path.write_bytes(bom + end.join(lines) + end)
        with pytest.raises(ValueError) as excinfo:
            cc.read_ratings_csv(path)
        assert str(excinfo.value) == f"{path}:3: not UTF-8 (invalid start byte)"
        path.write_bytes(bom + end.join(lines[:2]) + end)
        assert cc.read_ratings_csv(path).subjects == (("d", "x"),)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_a_line_after_a_cell_spanning_lines_is_named_by_its_file_line(self, tmp_path, end):
        path = tmp_path / "ratings.csv"
        lines = ["doc_id,dimension_id,r1", '"d', 'x",a,T', "d,b,maybe"]
        path.write_bytes(end.join(lines).encode() + end.encode())
        with pytest.raises(ValueError) as excinfo:
            cc.read_ratings_csv(path)
        assert str(excinfo.value).startswith(f"{path}:4:r1: ")

    def test_accepts_spelled_out_booleans(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "doc_id,dimension_id,r1,r2\nd,x,True,false\nd,y,1,0\n", encoding="utf-8"
        )
        m = cc.read_ratings_csv(path)
        assert m.codes == ((True, False), (True, False))

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("doc_id,dimension_id,r1,r2\nd,x,T,F\nd,y,T,T\nd,x,F,F\n",
             ":4: subject ('d', 'x') repeats line 2"),
            ("doc_id,dimension_id,r1,r2\n", ": a rating matrix needs at least one subject"),
            ("doc_id,dimension_id,r1,r1\nd,x,T,F\n", ": rater ids must be unique"),
            ("", ": empty ratings file"),
            ("doc_id,dimension_id,r1,r2\nd,x,T,F\nd,y,T\n", ":3: expected 4 cells"),
        ],
        ids=["repeated-subject", "no-rows", "repeated-rater", "empty-file", "short-row"],
    )
    def test_matrix_refusals_name_the_file(self, tmp_path, text, problem):
        path = tmp_path / "ratings.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            cc.read_ratings_csv(path)
        assert str(excinfo.value) == f"{path}{problem}"


class TestKappaBand:
    def test_bands(self):
        assert cc.kappa_band(0.1) == "strongly driven by chance"
        assert cc.kappa_band(0.434) == "fair agreement beyond chance"
        assert cc.kappa_band(0.9) == "strong agreement beyond chance"
        assert cc.kappa_band(0.40) == "fair agreement beyond chance"
        assert cc.kappa_band(0.75) == "fair agreement beyond chance"
