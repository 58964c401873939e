import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bulletsum import pipeline
from bulletsum.errors import EmptyCorpus, MalformedResponse, ServiceUnavailable
from bulletsum.qbank import (
    Question,
    QuestionBank,
    build_question_bank,
    generate_questions_external,
    question_from_bullet,
    unique_questions,
)
from bulletsum.records import reader
from bulletsum.text import normalize_text


class TestQuestionFromBullet:
    @pytest.mark.parametrize(
        "bullet,expected",
        [
            ("q2 non-gaap earnings per share $0.97.", "what is q2 non-gaap earnings per share?"),
            ("q2 net profit 64 million usd.", "what is q2 net profit?"),
            ("growth", "what is growth?"),
            ("reported sales growth 16% - 19%.", "what is reported sales growth?"),
            ("sees fy revenue $6.15 billion to $6.21 billion.", "what is sees fy revenue?"),
            ("q2 same store sales rose 5.8 percent.", "what is q2 same store sales rose?"),
            ("raises quarterly dividend to $0.27 per share.", "what is raises quarterly dividend?"),
            ("q2 store count reached 1,240.", "what is q2 store count reached?"),
        ],
    )
    def test_template_examples(self, bullet, expected):
        assert question_from_bullet(bullet).text == expected

    def test_eps_phrase_survives(self):
        question = question_from_bullet("q2 non-gaap earnings per share $0.97.")
        assert "earnings per share" in question.text

    def test_numeric_only_bullet_falls_back(self):
        assert question_from_bullet("$0.97.").text == "what is $0.97?"

    def test_no_value_tail_without_number(self):
        # "million" alone is not a value expression.
        assert question_from_bullet("spending in the million").text == "what is spending in the million?"

    def test_provenance_recorded(self):
        question = question_from_bullet("q1 revenue $5 million.", "docA", 3)
        assert question.source_doc == "docA"
        assert question.source_bullet_index == 3

    def test_invariants_on_fuzzed_bullets(self):
        rng = random.Random(7)
        pieces = ["Revenue", "GREW", "fast,", "$1.25", "billion", "16%", "-", "19%", "usd", "per", "share"]
        for _ in range(300):
            bullet = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
            text = question_from_bullet(bullet).text
            assert text.endswith("?")
            assert "\n" not in text
            assert text == text.lower()
            assert text.startswith("what is")


class _EchoClient:
    def question(self, sentence):
        return f"What is the gist of {sentence.rstrip('.')}?"


class _DownClient:
    def question(self, sentence):
        raise ServiceUnavailable("connection refused")


class _GarbageClient:
    def question(self, sentence):
        raise MalformedResponse("not json")


class TestExternalGeneration:
    def test_mock_service_outputs_sanitized(self):
        questions = generate_questions_external(["Q2 Revenue $5M."], _EchoClient())
        assert questions[0].text == "what is the gist of q2 revenue $5m?"

    def test_service_down_with_fallback(self):
        questions = generate_questions_external(
            ["q2 net profit 64 million usd."], _DownClient(), fallback=True
        )
        assert questions[0].text == "what is q2 net profit?"

    def test_service_down_without_fallback(self):
        with pytest.raises(ServiceUnavailable):
            generate_questions_external(["any bullet"], _DownClient(), fallback=False)

    def test_malformed_with_fallback(self):
        questions = generate_questions_external(["growth"], _GarbageClient(), fallback=True)
        assert questions[0].text == "what is growth?"


class TestBuildQuestionBank:
    def test_cross_doc_dedup(self):
        summaries = {
            "a": ("q2 revenue $5 million.",),
            "b": ("q2 revenue $9 million.",),
        }
        bank = build_question_bank(summaries)
        assert len(bank.master) == 1
        assert len(bank.per_doc["a"]) == 1 and len(bank.per_doc["b"]) == 1

    def test_within_doc_dedup_and_count(self):
        bank = build_question_bank(
            {"a": ("growth 5%.", "growth 7%.", "margin 3%.", "volume 2%.")}
        )
        assert len(bank.per_doc["a"]) == 3  # growth questions collapse

    def test_empty_input(self):
        with pytest.raises(EmptyCorpus):
            build_question_bank({})

    def test_idempotent(self):
        summaries = {
            "a": ("q1 sales $4 million.", "q1 margin 10%."),
            "b": ("q1 sales $4 million.", "fy outlook strong."),
        }
        first = build_question_bank(summaries)
        second = build_question_bank(summaries)
        assert first == second

    def test_master_bounded_by_per_doc_totals(self):
        summaries = {f"d{i}": [f"metric {i} value {j}%." for j in range(4)] for i in range(5)}
        bank = build_question_bank(summaries)
        assert len(bank.master) <= sum(len(bank.per_doc[d]) for d in bank.per_doc)

    def test_every_master_entry_in_some_per_doc(self):
        summaries = {
            "a": ("alpha revenue $1 million.", "beta costs 5%."),
            "b": ("gamma sales 7%.",),
        }
        bank = build_question_bank(summaries)
        per_doc_keys = {
            normalize_text(q.text) for qs in bank.per_doc.values() for q in qs
        }
        for question in bank.master:
            assert normalize_text(question.text) in per_doc_keys

    def test_deterministic_order(self):
        summaries = {
            "zz": ("zulu metric 5%.",),
            "aa": ("alpha metric 7%.",),
        }
        bank = build_question_bank(summaries)
        assert [q.source_doc for q in bank.master] == ["aa", "zz"]

    def test_serialization_round_trip(self):
        bank = build_question_bank({"a": ("q1 sales $4 million.",)})
        bank.master[0] = bank.master[0].with_topics({"t1"})
        clone = reader(QuestionBank)(json.loads(pipeline._dumps(bank)))
        assert clone == bank

    @pytest.mark.parametrize(
        "key, value",
        [
            ("text", 5),
            ("text", None),
            ("source_doc", 3),
            ("source_bullet_index", True),
            ("source_bullet_index", "0"),
            ("source_bullet_index", 1.0),
            ("topics", "abc"),
            ("topics", [1]),
            ("topics", {"t1": 1}),
        ],
    )
    def test_wrong_typed_field_rejected(self, key, value):
        data = {"text": "what is q1 sales?", "source_doc": "a", "source_bullet_index": 0,
                "topics": ["t1"]}
        assert reader(Question)(data) == Question("what is q1 sales?", "a", 0, frozenset({"t1"}))
        with pytest.raises(TypeError):
            reader(Question)({**data, key: value})

    def test_external_generator_path(self):
        bank = build_question_bank(
            {"a": ("q2 revenue $5 million.",)},
            client=_EchoClient(),
        )
        assert bank.master[0].text.startswith("what is the gist of")


class TestUniqueQuestions:
    # Case, punctuation and spacing variants of a few texts, so that
    # normalized duplicates are common.
    texts = st.lists(
        st.sampled_from(
            ["revenue", "Revenue", "net  profit", "net profit?", "eps", "e.p.s", "EPS!"]
        ),
        min_size=1,
        max_size=3,
    ).map(" ".join)

    @given(st.lists(texts, max_size=12))
    def test_first_of_each_normalized_text_in_order(self, texts):
        questions = [
            Question(text=text, source_doc=f"d{i}", source_bullet_index=i, topics=frozenset())
            for i, text in enumerate(texts)
        ]
        unique = unique_questions(questions)
        assert unique_questions(unique) == unique
        keys = [normalize_text(q.text) for q in unique]
        assert len(set(keys)) == len(keys) == len({normalize_text(t) for t in texts})
        positions = [next(i for i, q in enumerate(questions) if q is u) for u in unique]
        assert positions == sorted(positions)
