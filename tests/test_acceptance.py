"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The recorded-run replay test skips itself when the optional
reference data is not installed (see its docstring for the layout).
"""

import math
import random
import time
from itertools import chain, product
from pathlib import Path

import pytest

import chunkcode as cc
from chunkcode import report, stats as cs
from chunkcode.engine import cell_tag
from chunkcode.errors import DegenerateKappaError
from oracles import (
    chi_square_sf_oracle,
    fleiss_kappa_oracle,
    mann_whitney_enumeration,
    modal_agreement_moments,
    wilcoxon_enumeration,
)
from sample_responses import NEGATIVE_RESPONSES, POSITIVE_RESPONSES

POSITIVE = "Yes, the parameter is mentioned."
NEGATIVE = "The paper does not focus on it."


def test_classifier_sample_fixtures():
    """Every sample response classifies according to its conclusion, by the
    documented rule (True exactly when a key phrase occurs). Under the stock
    phrases, two positive samples match "yes"; the gpt-4o positive sample
    holds none of them and is the rule's known miss; the three negative
    samples are False, including the "is not explicitly mentioned" non-match
    trap. Under the documented remedy, an override list of the stock phrases
    plus "the text discusses", all six samples classify by their conclusion.
    Runtime < 1 s.
    """
    phrases = cc.default_key_phrases()
    remedy = cc.KeyPhraseSet([*phrases, "the text discusses"])
    start = time.perf_counter()
    positive = {m: cc.classify(t, phrases) for m, t in POSITIVE_RESPONSES.items()}
    negative = {m: cc.classify(t, phrases) for m, t in NEGATIVE_RESPONSES.items()}
    mismatches = []
    for model, text in POSITIVE_RESPONSES.items():
        if cc.classify(text, remedy).value is not True:
            mismatches.append(f"{model} positive sample classified False")
    for model, text in NEGATIVE_RESPONSES.items():
        code = cc.classify(text, remedy)
        if code.value is not False:
            mismatches.append(
                f"{model} negative sample classified True via {code.matched_phrase!r}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"classification took {elapsed:.3f}s"

    assert positive["gpt-4o-mini"] == cc.BinaryCode(True, "yes")
    assert positive["o1-mini"] == cc.BinaryCode(True, "yes")
    # The stock rule's known miss: "The text discusses ..." announces a
    # positive conclusion but contains none of the 14 stock phrases.
    assert positive["gpt-4o"].value is False
    assert positive["gpt-4o"].matched_phrase is None
    for model, code in negative.items():
        assert code.value is False, (
            f"{model} negative sample classified True via {code.matched_phrase!r}"
        )
    assert not mismatches, "with the remedy list: " + "; ".join(mismatches)


def test_chunker_laws():
    """Round-trip and count laws hold exactly for 1000 randomized documents
    of 0..5000 words at sizes 1, 7, and 500. The chunk_document calls take
    < 5 s of process CPU time; building the documents and checking the laws
    are not timed, and CPU time leaves out waits on a shared host.
    """
    rng = random.Random(42)
    vocab = [f"w{i}" for i in range(50)]
    docs = []
    for i in range(1000):
        words = tuple(rng.choices(vocab, k=rng.randint(0, 5000)))
        docs.append(cc.DocumentText(doc_id=f"doc{i}", raw=" ".join(words), words=words))
    elapsed = 0.0
    for size in (1, 7, 500):
        for doc in docs:
            start = time.process_time()
            chunks = cc.chunk_document(doc, size)
            elapsed += time.process_time() - start
            assert len(chunks) == math.ceil(len(doc.words) / size)
            assert tuple(chain.from_iterable(c.words for c in chunks)) == doc.words
            assert all(len(c.words) == size for c in chunks[:-1])
            if chunks:
                assert 1 <= len(chunks[-1].words) <= size
    assert elapsed < 5.0, f"chunking took {elapsed:.3f}s of CPU"


def test_fleiss_kappa_oracle_equivalence():
    """All 4096 binary rating matrices with 3 raters and 4 subjects match the
    direct-formula oracle to 1e-12; single-category matrices raise the
    documented degenerate error. Runtime < 10 s.
    """
    start = time.perf_counter()
    subjects = tuple(("doc", f"dim{i}") for i in range(4))
    raters = ("r0", "r1", "r2")
    degenerate_count = 0
    for bits in product([False, True], repeat=12):
        rows = [list(bits[i * 3 : i * 3 + 3]) for i in range(4)]
        m = cc.RatingMatrix(
            subjects=subjects, raters=raters, codes=tuple(tuple(r) for r in rows)
        )
        expected = fleiss_kappa_oracle(rows)
        if expected is None:
            degenerate_count += 1
            with pytest.raises(DegenerateKappaError):
                cc.fleiss_kappa(m)
        else:
            assert cc.fleiss_kappa(m) == pytest.approx(expected, abs=1e-12)
    assert degenerate_count == 2  # all-True and all-False
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"kappa sweep took {elapsed:.3f}s"


def test_rank_test_exact_oracles():
    """Exact p-values match full-enumeration oracles to 1e-12 for 200 seeded
    tie-free datasets per test with pooled (or effective) size at most 10,
    over all three sidedness choices. The normal approximation stays within
    0.02 of the exact one-sided p-values for pooled sizes 8..12 with both
    groups of size >= 3 (where the approximation is meant to hold; extreme
    splits like 1 vs 11 are out of its regime), over 500 seeded datasets.
    """
    rng = random.Random(2024)

    def distinct(n, lo=0.0, hi=100.0):
        out = set()
        while len(out) < n:
            out.add(round(rng.uniform(lo, hi), 6))
        return list(out)

    # Mann-Whitney exact vs enumeration
    pairs = [(n_a, n_b) for n_a in range(1, 10) for n_b in range(1, 10) if n_a + n_b <= 10]
    for trial in range(200):
        n_a, n_b = pairs[trial % len(pairs)]
        values = distinct(n_a + n_b)
        a, b = values[:n_a], values[n_a:]
        u, p_less, p_greater, p_two = mann_whitney_enumeration(a, b)
        for sides, expected in (("less", p_less), ("greater", p_greater), ("two", p_two)):
            result = cs.mann_whitney_u(cs.Sample("a", a), cs.Sample("b", b), sides)
            assert "exact" in result.method_note
            assert result.statistic == pytest.approx(u, abs=1e-12)
            assert result.p_value == pytest.approx(expected, abs=1e-12)

    # Wilcoxon exact vs enumeration
    for trial in range(200):
        n = trial % 10 + 1
        magnitudes = distinct(n, lo=0.5, hi=9.0)
        values = [10.0 + rng.choice([-1, 1]) * d for d in magnitudes]
        w, p_less, p_greater, p_two = wilcoxon_enumeration(values, 10.0)
        for sides, expected in (("less", p_less), ("greater", p_greater), ("two", p_two)):
            result = cs.wilcoxon_signed_rank_one_sample(cs.Sample("s", values), 10.0, sides)
            assert "exact" in result.method_note
            assert result.statistic == pytest.approx(w, abs=1e-12)
            assert result.p_value == pytest.approx(expected, abs=1e-12)

    # approximation band against the exact route
    for trial in range(500):
        n = rng.randint(8, 12)
        n_a = rng.randint(3, n - 3)
        values = distinct(n)
        a = cs.Sample("a", values[:n_a])
        b = cs.Sample("b", values[n_a:])
        for sides in ("less", "greater"):
            p_exact = cs.mann_whitney_u(a, b, sides, method="exact").p_value
            p_approx = cs.mann_whitney_u(a, b, sides, method="approx").p_value
            assert abs(p_exact - p_approx) <= 0.02


def test_kruskal_wallis_criteria():
    """The hand-computed three-group fixture matches to 1e-10, the classic
    chi-square critical value reproduces to 5e-4, and the two-group decision
    agrees with two-sided Mann-Whitney at alpha=0.05 on at least 95% of 500
    seeded datasets.
    """
    groups = [
        cs.Sample("g1", (1, 2, 3)),
        cs.Sample("g2", (4, 5, 6)),
        cs.Sample("g3", (7, 8, 9)),
    ]
    result = cs.kruskal_wallis(groups)
    # rank sums 6, 15, 24: H = 12/(9*10) * (36+225+576)/3 - 3*10 = 7.2 and,
    # with df=2, p = exp(-H/2)
    assert result.statistic == pytest.approx(7.2, abs=1e-10)
    assert result.p_value == pytest.approx(math.exp(-3.6), abs=1e-10)

    assert cs.chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)
    for df in (1, 2, 3, 5, 8):
        for x in (0.3, 2.0, 7.2, 15.0):
            assert cs.chi_square_sf(x, df) == pytest.approx(
                chi_square_sf_oracle(x, df), abs=1e-10
            )

    rng = random.Random(20240501)
    agree = 0
    trials = 500
    for t in range(trials):
        shift = (0.0, 0.3, 0.6, 1.0, 1.5)[t % 5]
        a = cs.Sample("a", tuple(rng.gauss(0, 1) for _ in range(rng.randint(8, 15))))
        b = cs.Sample("b", tuple(rng.gauss(shift, 1) for _ in range(rng.randint(8, 15))))
        kw_significant = cs.kruskal_wallis([a, b]).p_value < 0.05
        mw_significant = cs.mann_whitney_u(a, b, "two").p_value < 0.05
        agree += kw_significant == mw_significant
    assert agree / trials >= 0.95, f"agreement {agree / trials:.3f}"


def _scripted_corpus():
    docs = [
        cc.DocumentText.from_raw("doc-a", " ".join(f"alpha{i}" for i in range(6))),
        cc.DocumentText.from_raw("doc-b", " ".join(f"beta{i}" for i in range(3))),
    ]
    cb = cc.Codebook(
        tuple(
            cc.Dimension(id=f"dim{i}", name=f"Dim {i}", definition=f"Definition {i}.")
            for i in range(3)
        )
    )
    return docs, cb


def _build_script(docs, cb, cfg):
    """Precompute a full request_key -> response script for a run."""
    pattern_rng = random.Random(77)
    script = {}
    for doc in docs:
        chunks = cc.chunk_document(doc, cfg.chunk_size)
        for dim in cb:
            for iteration in range(1, cfg.iterations + 1):
                for chunk in chunks:
                    request = cc.PromptRequest(
                        model=cfg.model,
                        prompt_text=cc.render_prompt(dim, chunk.text),
                        tag=cell_tag(doc.doc_id, dim.id, iteration, chunk.index),
                    )
                    script[request.request_key] = (
                        POSITIVE if pattern_rng.random() < 0.5 else NEGATIVE
                    )
    return script


def test_engine_semantics_under_scripted_mock(tmp_path):
    """Two docs x three dims x three iterations give byte-identical record
    files across repeated runs, and OR-aggregation plus consensus match
    brute-force truth tables over every pattern of three chunk codes.
    """
    docs, cb = _scripted_corpus()
    cfg = cc.RunConfig(
        model="scripted", strategy="chunk", chunk_size=2, iterations=3
    )
    script = _build_script(docs, cb, cfg)

    def run_once(out):
        client = cc.LLMClient(mode="mock", mock=lambda request: script[request.request_key])
        assert report.write_run(out, docs, cb, cfg, client).ok
        return (out / report.RECORDS_NAME).read_bytes()

    assert run_once(tmp_path / "first") == run_once(tmp_path / "second")

    # OR-aggregation truth table over all 2^3 chunk outcomes
    doc = cc.DocumentText.from_raw("d", " ".join(f"w{i}" for i in range(6)))
    one_dim = cc.Codebook((cc.Dimension(id="x", name="X", definition="D."),))
    or_cfg = cc.RunConfig(
        model="m", strategy="chunk", chunk_size=2, iterations=1
    )
    for pattern in product([False, True], repeat=3):
        def by_chunk(request, p=pattern):
            index = int(request.tag.rsplit("/c", 1)[1])
            return POSITIVE if p[index] else NEGATIVE

        client = cc.LLMClient(mode="mock", mock=by_chunk)
        records = []
        rr = cc.run_iterations([doc], one_dim, or_cfg, client, record_sink=records.append)
        assert rr.results[0].value is any(pattern)
        assert [r.code.value for r in records] == list(pattern)

    # consensus mode truth table over all 2^3 iteration outcomes
    consensus_cfg = cc.RunConfig(
        model="m", strategy="whole", iterations=3
    )
    for pattern in product([False, True], repeat=3):
        def by_iteration(request, p=pattern):
            iteration = int(request.tag.split("/i", 1)[1].split("/", 1)[0])
            return POSITIVE if p[iteration - 1] else NEGATIVE

        client = cc.LLMClient(mode="mock", mock=by_iteration)
        rr = cc.run_iterations([doc], one_dim, consensus_cfg, client)
        cell = cc.consensus_table(rr.results)[("d", "x")]
        expected_mode = sum(pattern) > 1
        assert cell.value is expected_mode
        assert cell.support == pytest.approx(max(sum(pattern), 3 - sum(pattern)) / 3)
        assert not cell.tie


def test_stochastic_mock_calibration():
    """With flip probability 0.1 over 15 iterations and 1000 cells, the mean
    internal agreement lands within three standard errors of the exact
    binomial expectation of the modal-agreement statistic.
    """
    flip = 0.1
    iterations = 15
    cb = cc.Codebook(
        tuple(
            cc.Dimension(id=f"dim{i:02d}", name=f"Dim {i}", definition=f"Def {i}.")
            for i in range(20)
        )
    )
    docs = [
        cc.DocumentText.from_raw(f"doc{i:02d}", f"body text {i}") for i in range(50)
    ]
    cfg = cc.RunConfig(
        model="mock", strategy="whole", iterations=iterations, seed=7
    )
    client = cc.LLMClient(
        mode="mock", mock=cc.StochasticMock(seed=7, flip_probability=flip, truth=True)
    )
    rr = cc.run_iterations(docs, cb, cfg, client)
    assert rr.ok
    cells = cc.internal_agreement(cc.consensus_table(rr.results)).cells
    assert len(cells) == 1000
    empirical_mean = sum(cells.values()) / len(cells)
    expected_mean, cell_variance = modal_agreement_moments(iterations, 1.0 - flip)
    standard_error = math.sqrt(cell_variance / len(cells))
    assert abs(empirical_mean - expected_mean) <= 3 * standard_error, (
        f"mean {empirical_mean:.5f} vs expected {expected_mean:.5f}"
        f" (3se = {3 * standard_error:.5f})"
    )


REPLAY_DIR = Path(__file__).parent / "fixtures" / "replay"


@pytest.mark.skipif(
    not REPLAY_DIR.is_dir(), reason="reference replay data not installed"
)
def test_recorded_run_replay_targets():
    """Replaying the reference recorded run reproduces its published summary
    figures: the gpt-4o chunking row of the performance table
    (87.61 / 87.65 / 90.63 / 95.09, each within 0.01 percentage points) and
    the three-rater manual kappa of 0.434 within 0.001.

    Expected layout under tests/fixtures/replay/:
      manual.csv              three-rater matrix, 10 documents x 17 dimensions
      gpt-4o_chunk/           run directory (run_meta.json + records.jsonl)
      ...                     further run directories, one per model/strategy
    """
    from chunkcode import agreement

    manual = agreement.read_ratings_csv(REPLAY_DIR / "manual.csv")
    run = report.load_run(REPLAY_DIR / "gpt-4o_chunk")
    assert run.model == "gpt-4o" and run.strategy == "chunk"
    rows = report.performance_rows([run], manual)
    row = rows[0]
    assert row["internal_agreement"] == pytest.approx(0.8761, abs=1e-4)
    assert row["accuracy"] == pytest.approx(0.8765, abs=1e-4)
    assert row["precision"] == pytest.approx(0.9063, abs=1e-4)
    assert row["recall"] == pytest.approx(0.9509, abs=1e-4)
    assert agreement.fleiss_kappa(manual) == pytest.approx(0.434, abs=1e-3)
