import math
import random
import re
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bulletsum.corpus import Transcript
from bulletsum.errors import AlignmentError
from bulletsum.metrics import (
    MetricsReport,
    evaluate_corpus,
    normalized_numbers,
    format_report_table,
    num_prec,
    rouge_l,
    rouge_n,
    write_per_document_csv,
)
from bulletsum.text import tokenize


def brute_force_lcs(a, b):
    """Exhaustive common-subsequence search; only viable for len(a) <= ~12."""

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        if len(sub) > best and is_subsequence(sub, b):
            best = len(sub)
    return best


class TestTokenize:
    def test_financial_sentence(self):
        assert tokenize("Q2 non-gaap EPS $0.97.") == ["q2", "non", "gaap", "eps", "0.97"]

    def test_empty(self):
        assert tokenize("") == []

    def test_casefold_and_punctuation(self):
        assert tokenize("a A a.") == ["a", "a", "a"]

    def test_decimal_kept_letters_split(self):
        assert tokenize("u.s. growth 3.5%") == ["u", "s", "growth", "3.5"]

    # Mostly the characters the pattern cares about, plus non-ASCII digits
    # and letters and the Kelvin sign, which lowercases to ASCII "k".
    near_tokens = st.text(alphabet=st.sampled_from("aZ09.,-$% \n\u00e9\u0663\u212a"), max_size=40)

    @given(near_tokens | st.text(max_size=40))
    def test_tokens_are_stable_and_match_the_documented_pattern(self, text):
        # Documented: runs of letters/digits, a "." kept only between digits.
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        for token in tokens:
            assert re.fullmatch(r"\d+(?:\.\d+)+|[a-z0-9]+", token), token


class TestRougeN:
    def test_identical_texts(self):
        score = rouge_n("revenue rose sharply", "revenue rose sharply", 1)
        assert score.f1 == 1.0

    def test_unigram_hand_count(self):
        # 5 overlapping unigrams; p = 5/5, r = 5/7, f1 = 10/12.
        score = rouge_n(
            "q2 earnings per share 0.97",
            "q2 non gaap earnings per share 0.97",
            1,
        )
        assert score.precision == pytest.approx(1.0, abs=1e-9)
        assert score.recall == pytest.approx(5 / 7, abs=1e-9)
        assert score.f1 == pytest.approx(10 / 12, abs=1e-9)

    def test_bigram_hand_count(self):
        score = rouge_n("a b d", "a b c", 2)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_overlap_clipping(self):
        score = rouge_n("a a a", "a", 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0

    def test_empty_candidate(self):
        score = rouge_n("", "a b", 1)
        assert score == rouge_n("a b", "", 1)
        assert score.f1 == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", 3)

    def test_f1_zero_iff_no_overlap(self):
        rng = random.Random(55)
        vocab = ["w1", "w2", "w3", "w4", "w5"]
        for _ in range(100):
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            for n in (1, 2):
                cand_grams = set(zip(*[cand[i:] for i in range(n)]))
                ref_grams = set(zip(*[ref[i:] for i in range(n)]))
                score = rouge_n(" ".join(cand), " ".join(ref), n)
                assert (score.f1 == 0.0) == (not cand_grams & ref_grams)


class TestRougeL:
    def test_lcs_hand_case(self):
        score = rouge_l("the cat sat", "the cat on mat sat")
        assert score.precision == 1.0
        assert score.recall == pytest.approx(0.6)
        assert score.f1 == pytest.approx(0.75)

    def test_disjoint(self):
        assert rouge_l("a b", "c d").f1 == 0.0

    def test_identical(self):
        assert rouge_l("x y z", "x y z").f1 == 1.0

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(20240301)
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            lcs = brute_force_lcs(cand, ref)
            score = rouge_l(" ".join(cand), " ".join(ref))
            if not cand or not ref:
                assert score.f1 == 0.0
                continue
            p, r = lcs / len(cand), lcs / len(ref)
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert score.precision == p
            assert score.recall == r
            assert score.f1 == expected


class TestExtractNumbers:
    def test_currency_scale_percent(self):
        numbers = normalized_numbers(["eps $0.97, revenue $6.15 billion, growth 16%"])
        assert numbers == {"0.97", "6.15", "16"}

    def test_embedded_excluded(self):
        assert normalized_numbers(["q2 fy2021"]) == set()
        assert normalized_numbers(["covid19 response"]) == set()

    def test_comma_stripping(self):
        assert normalized_numbers(["1,234.5"]) == {"1234.5"}

    def test_offsets_point_at_raw(self):
        text = "margin was 58.5% this quarter"
        assert normalized_numbers([text]) == {"58.5"}

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["$1,234.5", "16%", "0.97", "q2", "fy2021", "1,23", "$", ",", "%"]),
                st.text("0123456789$,.%ab -", max_size=10),
            ),
            max_size=10,
        ).map("".join)
    )
    def test_tokens_are_ordered_spans_of_the_text(self, text):
        # Each number is a run of the text once its thousands commas are gone.
        for number in normalized_numbers([text]):
            assert re.fullmatch(r"\d+(?:\.\d+)?", number)
            assert number in text.replace(",", "")


class TestNumPrec:
    def test_verbatim_extract_is_one(self, make_transcript):
        doc = make_transcript(
            "d", ["revenue was $6.15 billion.", "eps came in at $0.97."]
        )
        assert num_prec("revenue was $6.15 billion. eps came in at $0.97.", doc) == 1.0

    def test_half_supported(self, make_transcript):
        doc = make_transcript("d", ["eps was $0.97 this quarter."])
        assert num_prec("eps $0.97 and revenue $6.15 billion", doc) == 0.5

    def test_vacuous_candidate(self, make_transcript):
        doc = make_transcript("d", ["revenue was $6.15 billion."])
        assert num_prec("revenue grew nicely", doc) == 1.0

    def test_monotone_in_unsupported_numbers(self, make_transcript):
        doc = make_transcript("d", ["values 1 and 2 and 3 appear here."])
        candidate = "we saw 1 and 2"
        previous = num_prec(candidate, doc)
        for bogus in ("77", "88", "99"):
            candidate += f" and {bogus}"
            current = num_prec(candidate, doc)
            assert current <= previous
            previous = current

    # Sentences of these characters put numbers against both sentence ends.
    NUMBER_TEXT = st.text("0123456789ab$,.%", max_size=12)

    @given(sentences=st.lists(NUMBER_TEXT, min_size=1, max_size=6), candidate=NUMBER_TEXT)
    def test_one_scan_is_the_union_over_sentences(self, sentences, candidate):
        union = set().union(*(normalized_numbers([sentence]) for sentence in sentences))
        assert normalized_numbers(sentences) == union
        wanted = normalized_numbers([candidate])
        expected = len(wanted & union) / len(wanted) if wanted else 1.0
        doc = Transcript(id="d", sentences=tuple(sentences))
        assert num_prec(candidate, doc) == expected


class TestEvaluateCorpus:
    def _fixture(self, make_transcript, make_summary):
        sources = {
            "a": make_transcript("a", ["revenue rose 5% to $10 million.", "eps was $0.50."]),
            "b": make_transcript("b", ["sales fell 3%.", "margin was 20%."]),
        }
        references = {
            "a": make_summary("a", ["revenue rose 5% to $10 million.", "eps $0.50."]),
            "b": make_summary("b", ["sales fell 3%.", "margin 20%."]),
        }
        return sources, references

    def test_perfect_predictions(self, make_transcript, make_summary):
        sources, references = self._fixture(make_transcript, make_summary)
        predictions = {doc_id: list(ref.bullets) for doc_id, ref in references.items()}
        report = evaluate_corpus(predictions, references, sources)
        assert report.rouge1.f1 == report.rouge2.f1 == report.rougeL.f1 == 1.0
        assert report.num_prec == 1.0
        assert set(asdict(report)) == {"rouge1", "rouge2", "rougeL", "num_prec", "per_document"}

    def test_single_document_mean(self, make_transcript, make_summary):
        sources, references = self._fixture(make_transcript, make_summary)
        predictions = {"a": ["revenue rose 5%."]}
        report = evaluate_corpus(
            predictions, {"a": references["a"]}, {"a": sources["a"]}
        )
        doc = report.per_document[0]
        assert report.rouge1 == doc.rouge1
        assert report.num_prec == doc.num_prec

    def test_alignment_error_lists_ids(self, make_transcript, make_summary):
        sources, references = self._fixture(make_transcript, make_summary)
        predictions = {"a": ["x"], "zz": ["y"]}
        with pytest.raises(AlignmentError) as excinfo:
            evaluate_corpus(predictions, references, sources)
        assert "zz" in excinfo.value.offending_ids
        assert "b" in excinfo.value.offending_ids

    def test_empty_maps_rejected(self):
        with pytest.raises(AlignmentError):
            evaluate_corpus({}, {}, {})


class TestReportOutputs:
    def _report(self, make_transcript, make_summary):
        doc = make_transcript("a", ["revenue was $5 million."])
        ref = make_summary("a", ["revenue $5 million."])
        return evaluate_corpus({"a": ["revenue was $5 million."]}, {"a": ref}, {"a": doc})

    def test_json_round_trip_values_bounded(self, make_transcript, make_summary):
        report = self._report(make_transcript, make_summary)
        data = asdict(report)
        for key in ("rouge1", "rouge2", "rougeL"):
            for stat in data[key].values():
                assert 0.0 <= stat <= 1.0
        assert 0.0 <= data["num_prec"] <= 1.0

    def test_table_has_benchmark_columns(self, make_transcript, make_summary):
        table = format_report_table(self._report(make_transcript, make_summary))
        for column in ("ROUGE-1", "ROUGE-2", "ROUGE-L", "Num-Prec."):
            assert column in table
        assert "-" not in table.split()

    def test_csv_breakdown(self, tmp_path, make_transcript, make_summary):
        report = self._report(make_transcript, make_summary)
        out = tmp_path / "per_doc.csv"
        write_per_document_csv(report, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("doc_id,")
        assert len(lines) == 2 and lines[1].startswith("a,")
