import pytest

from bulletsum import synthetic_data_dirs
from bulletsum.corpus import BulletSummary, Transcript
from bulletsum.qbank import Question


@pytest.fixture
def make_transcript():
    def _make(doc_id, sentences):
        return Transcript(id=doc_id, sentences=tuple(sentences))

    return _make


@pytest.fixture
def make_summary():
    def _make(doc_id, bullets):
        return BulletSummary(id=doc_id, bullets=tuple(bullets))

    return _make


@pytest.fixture
def make_question():
    def _make(text, doc="d0", index=0, topics=()):
        return Question(
            text=text,
            source_doc=doc,
            source_bullet_index=index,
            topics=frozenset(topics),
        )

    return _make


@pytest.fixture(scope="session")
def synthetic_dirs():
    transcripts, summaries = synthetic_data_dirs()
    assert transcripts.is_dir() and summaries.is_dir()
    return transcripts, summaries
