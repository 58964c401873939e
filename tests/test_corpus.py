import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bulletsum.corpus import (
    Corpus,
    corpus_stats,
    load_corpus,
    segment_sentences,
    split_corpus,
)
from bulletsum.errors import DivisionDegenerate, EmptyCorpus, EmptyDocument, IoError
from bulletsum.text import word_count


class TestSegmentSentences:
    def test_pre_segmented_lines(self):
        sentences = segment_sentences("line a\nline b")
        assert sentences == ["line a", "line b"]

    def test_blank_lines_skipped(self):
        sentences = segment_sentences("one\n\n  \ntwo\n")
        assert sentences == ["one", "two"]

    def test_single_line_punctuation_split(self):
        sentences = segment_sentences("Revenue rose. EPS was $0.97.")
        assert sentences == ["Revenue rose.", "EPS was $0.97."]

    def test_split_before_digit(self):
        sentences = segment_sentences("Margins improved. 16% growth followed.")
        assert len(sentences) == 2

    def test_abbreviations_do_not_split(self):
        text = "We acquired Widget Inc. It closed fast. Sales in the U.S. Grew well."
        sentences = segment_sentences(text)
        assert sentences == [
            "We acquired Widget Inc. It closed fast.",
            "Sales in the U.S. Grew well.",
        ]

    @pytest.mark.parametrize("abbrev", ["Inc.", "Corp.", "Q1.", "Q4.", "U.S.", "vs.", "No."])
    def test_stop_list_entries(self, abbrev):
        assert len(segment_sentences(f"It was {abbrev} Then more.")) == 1

    def test_lowercase_continuation_not_split(self):
        assert len(segment_sentences("approx. nothing splits here")) == 1

    def test_empty_input(self):
        with pytest.raises(EmptyDocument):
            segment_sentences("")

    def test_whitespace_only_input(self):
        with pytest.raises(EmptyDocument):
            segment_sentences("  \n\t \n")

    @pytest.mark.parametrize(
        "raw",
        [
            "line a\nline b",
            "Revenue rose. EPS was $0.97.",
            "Alpha beta. Gamma delta. Epsilon zeta.",
            "one sentence only",
            "Mixed line. With split\nplain second line\nIn the U.S. Market grew.",
        ],
    )
    def test_idempotent_on_joined_output(self, raw):
        first = segment_sentences(raw)
        rejoined = "\n".join(first)
        second = segment_sentences(rejoined)
        assert first == second

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["Revenue", "rose", "5%.", "Inc.", "U.S.", "Q3.", "EPS?", "up!"]),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
            ),
            max_size=12,
        ).map(lambda parts: " ".join(parts))
        | st.text(" \t\n.?!AaZz09", max_size=40)
    )
    def test_sentences_partition_the_whitespace_tokens(self, raw):
        assume(raw.strip())
        sentences = segment_sentences(raw)
        assert all(s.strip() for s in sentences)
        assert [tok for s in sentences for tok in s.split()] == raw.split()

    def test_positions_sequential_and_text_clean(self):
        for sentence in segment_sentences("  padded line \nnext one  "):
            assert sentence == sentence.strip()
            assert "\n" not in sentence


def _write_corpus(tmp_path, docs, summaries):
    tdir = tmp_path / "transcripts"
    sdir = tmp_path / "summaries"
    tdir.mkdir()
    sdir.mkdir()
    for name, text in docs.items():
        (tdir / f"{name}.txt").write_text(text, encoding="utf-8")
    for name, text in summaries.items():
        (sdir / f"{name}.txt").write_text(text, encoding="utf-8")
    return tdir, sdir


class TestLoadCorpus:
    def test_pairs_by_stem_with_warning(self, tmp_path, caplog):
        tdir, sdir = _write_corpus(
            tmp_path,
            {"a": "one\ntwo", "b": "solo\nlines"},
            {"a": "bullet one"},
        )
        with caplog.at_level("WARNING"):
            corpus = load_corpus(tdir, sdir)
        assert sorted(corpus.transcripts) == ["a"]
        assert any("b.txt" in record.message for record in caplog.records)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoError):
            load_corpus(tmp_path / "nope", tmp_path)

    def test_zero_pairs(self, tmp_path):
        tdir, sdir = _write_corpus(tmp_path, {}, {})
        with pytest.raises(EmptyCorpus):
            load_corpus(tdir, sdir)

    def test_word_counts_are_whitespace_tokens(self, tmp_path):
        tdir, sdir = _write_corpus(
            tmp_path, {"a": "two words\nthree little words"}, {"a": "one bullet here"}
        )
        corpus = load_corpus(tdir, sdir)
        assert corpus_stats(corpus)["mean_doc_words"] == 5

    @given(
        text=st.text(alphabet=st.sampled_from("ab1. \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"))
        | st.text()
    )
    # The ASCII separators str.split splits on, beyond the usual whitespace;
    # whitespace that is not ASCII; no text; whitespace at both ends.
    @example(text="two\x1cwords")
    @example(text="one\x85two")
    @example(text="no\xa0break")
    @example(text="ideographic\u3000space")
    @example(text="")
    @example(text="  leading and trailing \n")
    def test_word_count_is_len_of_split(self, text):
        assert word_count(text) == len(text.split())

    def test_synthetic_bundle_loads(self, synthetic_dirs):
        corpus = load_corpus(*synthetic_dirs)
        assert len(corpus.transcripts) == 5
        for sentences in corpus.transcripts.values():
            assert len(sentences) >= 15
        for bullets in corpus.summaries.values():
            assert len(bullets) == 12


class TestSplitCorpus:
    def _corpus_of(self, n):
        ids = [f"doc{i:04d}" for i in range(n)]
        return Corpus(
            transcripts=dict.fromkeys(ids, ("text here",)),
            summaries=dict.fromkeys(ids, ("a bullet",)),
        )

    @pytest.mark.parametrize(
        "n, sizes",
        [(10, (7, 1, 2)), (90, (63, 9, 18)), (730, (511, 73, 146))],
        ids=["n10", "n90", "n730"],
    )
    def test_exact_ratio(self, n, sizes):
        split = split_corpus(self._corpus_of(n), seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == sizes

    def test_floor_arithmetic_n2425(self):
        split = split_corpus(self._corpus_of(2425), seed=99)
        assert (len(split.train), len(split.val), len(split.test)) == (1697, 242, 486)

    def test_deterministic_under_seed(self):
        corpus = self._corpus_of(50)
        assert split_corpus(corpus, seed=7) == split_corpus(corpus, seed=7)

    def test_partition_covers_every_id_once(self):
        corpus = self._corpus_of(23)
        split = split_corpus(corpus, seed=3)
        combined = list(split.train) + list(split.val) + list(split.test)
        assert sorted(combined) == sorted(corpus.transcripts)
        assert len(set(combined)) == len(combined)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            split_corpus(Corpus(transcripts={}, summaries={}), seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers())
    def test_sizes_are_exact_floors_and_parts_partition_the_ids(self, n, seed):
        corpus = self._corpus_of(n)
        split = split_corpus(corpus, seed=seed)
        assert len(split.train) == 7 * n // 10
        assert len(split.val) == n // 10
        assert len(split.test) == n - 7 * n // 10 - n // 10
        parts = [set(split.train), set(split.val), set(split.test)]
        assert sum(len(part) for part in parts) == n
        assert set().union(*parts) == set(corpus.transcripts)


class TestCorpusStats:
    def _corpus(self, doc_words, summary_words):
        text = " ".join(["word"] * doc_words)
        bullets = (" ".join(["tok"] * summary_words),) if summary_words else ("x",)
        return Corpus(transcripts={"a": (text,)}, summaries={"a": bullets})

    def test_simple_ratio(self):
        stats = corpus_stats(self._corpus(100, 10))
        assert stats["compression_ratio"] == 10.0
        assert stats["mean_doc_words"] == 100.0

    def test_duplication_leaves_ratio_unchanged(self, synthetic_dirs):
        corpus = load_corpus(*synthetic_dirs)
        base = corpus_stats(corpus)
        doubled = Corpus(
            transcripts={
                **corpus.transcripts,
                **{f"{k}_copy": v for k, v in corpus.transcripts.items()},
            },
            summaries={
                **corpus.summaries,
                **{f"{k}_copy": v for k, v in corpus.summaries.items()},
            },
        )
        dup = corpus_stats(doubled)
        assert dup["compression_ratio"] == pytest.approx(base["compression_ratio"])

    def test_zero_summary_words(self):
        corpus = Corpus(transcripts={"a": ("w w",)}, summaries={"a": ("",)})
        with pytest.raises(DivisionDegenerate):
            corpus_stats(corpus)
