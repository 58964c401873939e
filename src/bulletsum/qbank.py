"""Question generation from reference bullets and master-list assembly.

The built-in generator is a deterministic template rule: strip the trailing
value expression from a bullet and ask "what is <rest>?". A neural question
generator can be plugged in through the external service client; the bank
build path is identical either way.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

from .errors import EmptyCorpus, MalformedResponse, ServiceUnavailable
from .text import normalize_text

_TRAILING_PUNCT = ".,;:!?"
# Number token, optionally a compact range ("16%-19%"), after per-token
# punctuation cleanup.
_NUM_TOKEN_RE = re.compile(
    r"^\$?\d[\d,]*(?:\.\d+)?%?(?:-\$?\d[\d,]*(?:\.\d+)?%?)?$"
)
_SCALE_WORDS = {"million", "billion"}
_CONNECTORS = {"-", "to", "–"}
_TERMINAL_UNITS = {"usd", "percent"}


@dataclass(frozen=True)
class Question:
    text: str
    source_doc: str
    source_bullet_index: int
    topics: frozenset[str] = field(default_factory=frozenset)

    def with_topics(self, topics) -> "Question":
        return replace(self, topics=frozenset(topics))


@dataclass
class QuestionBank:
    per_doc: dict[str, list[Question]]
    master: list[Question]


@dataclass
class MasterList:
    """The ``topics/question_bank.json`` record: the master list, each question with its topics."""

    master: list[Question]


def _clean_token(token: str) -> str:
    return token.lstrip("(\"'").rstrip(_TRAILING_PUNCT)


def _is_number(token: str) -> bool:
    return bool(_NUM_TOKEN_RE.match(_clean_token(token)))


def _strip_value_tail(tokens: list[str]) -> list[str]:
    """Drop the longest trailing value expression.

    The tail may contain numbers (with currency sign / percent), range
    connectors, and scale words; unit words count only in terminal position.
    A tail qualifies only if it contains at least one number.
    """
    end = len(tokens)
    numbers = 0

    if end >= 1 and _clean_token(tokens[end - 1]) in _TERMINAL_UNITS:
        end -= 1
    elif (
        end >= 2
        and _clean_token(tokens[end - 2]) == "per"
        and _clean_token(tokens[end - 1]) == "share"
    ):
        end -= 2

    while end >= 1:
        token = _clean_token(tokens[end - 1])
        if _is_number(tokens[end - 1]):
            numbers += 1
            end -= 1
        elif token in _SCALE_WORDS or token in _CONNECTORS:
            end -= 1
        else:
            break

    if numbers == 0:
        return tokens
    return tokens[:end]


def question_from_bullet(bullet: str, source_doc: str = "", bullet_index: int = 0) -> Question:
    """Turn one reference bullet into a template question."""
    lowered = " ".join(bullet.lower().split())
    tokens = lowered.split()
    kept = _strip_value_tail(tokens)
    phrase = " ".join(kept).rstrip(_TRAILING_PUNCT).strip()
    if not phrase:
        phrase = lowered.rstrip(_TRAILING_PUNCT).strip()
    return Question(
        text=f"what is {phrase}?",
        source_doc=source_doc,
        source_bullet_index=bullet_index,
    )


def _sanitize_external(text: str) -> str:
    cleaned = " ".join(text.lower().split())
    cleaned = cleaned.rstrip(_TRAILING_PUNCT) or "what is this"
    return f"{cleaned}?"


def generate_questions_external(
    bullets: list[str],
    client,
    fallback: bool = False,
    source_doc: str = "",
) -> list[Question]:
    """One question per bullet from the QG service.

    With ``fallback`` enabled, a per-bullet service error falls back to the
    built-in template; otherwise the error propagates.
    """
    questions = []
    for index, bullet in enumerate(bullets):
        try:
            raw = client.question(bullet)
        except (ServiceUnavailable, MalformedResponse):
            if not fallback:
                raise
            questions.append(question_from_bullet(bullet, source_doc, index))
            continue
        questions.append(
            Question(
                text=_sanitize_external(raw),
                source_doc=source_doc,
                source_bullet_index=index,
            )
        )
    return questions


def unique_questions(questions: Iterable[Question]) -> list[Question]:
    """The first question for each normalized text, in order.

    Normalized text is lowercase, punctuation stripped and whitespace
    collapsed; questions equal under it are the same question.
    """
    first: dict[str, Question] = {}
    for question in questions:
        first.setdefault(normalize_text(question.text), question)
    return list(first.values())


def build_question_bank(
    summaries: Mapping[str, Sequence[str]],
    client=None,
    fallback: bool = False,
) -> QuestionBank:
    """Generate, deduplicate, and assemble the per-doc and master lists.

    ``summaries`` maps each document id to its bullets. Questions come from
    the QG service ``client``, or from the built-in template when ``client``
    is None. Deduplication (``unique_questions``) runs within each document
    and globally. Ordering is deterministic: doc id, then bullet index.
    """
    if not summaries:
        raise EmptyCorpus("no summaries to build a question bank from")

    per_doc: dict[str, list[Question]] = {}
    for doc_id, bullets in sorted(summaries.items()):
        if client is None:
            candidates = [
                question_from_bullet(bullet, doc_id, index) for index, bullet in enumerate(bullets)
            ]
        else:
            candidates = generate_questions_external(
                list(bullets), client, fallback=fallback, source_doc=doc_id
            )
        per_doc[doc_id] = unique_questions(candidates)

    master = unique_questions(
        question for doc_id in sorted(per_doc) for question in per_doc[doc_id]
    )
    return QuestionBank(per_doc=per_doc, master=master)
