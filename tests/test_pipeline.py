import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulletsum import kernels, pipeline, retrieval
from bulletsum.config import PipelineConfig
from bulletsum.corpus import corpus_stats, load_corpus, split_corpus
from bulletsum.errors import IoError, MissingArtifact
from bulletsum.qbank import build_question_bank
from bulletsum.retrieval import TfidfEmbedder, build_context, cosine_matrix, encode
from bulletsum.router import detect_topics, select_questions, topic_buckets

from test_cli import README, _tree_digest
from test_golden import CASES
from test_retrieval import embed_texts, loop_embed

ROOT = Path(__file__).resolve().parents[1]
ROUND = ROOT / "bench" / "round.py"
BUNDLED = ROOT / "src" / "bulletsum" / "data" / "synthetic"


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def ingested(tmp_path, synthetic_dirs):
    """A workspace holding one published ingest stage, and its file digests."""
    workspace = tmp_path / "ws"
    pipeline.run_stage("ingest", PipelineConfig(), workspace, *synthetic_dirs)
    return workspace, _tree_digest(workspace / "ingest")


def test_ingest_reads_back_as_loaded(ingested, synthetic_dirs):
    workspace, _ = ingested
    corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
    split = pipeline.read_artifact(workspace, "ingest/split.json")
    loaded = load_corpus(*synthetic_dirs)
    assert corpus == loaded
    assert split == split_corpus(loaded, PipelineConfig().split_seed)
    stats = json.loads((workspace / "ingest" / "stats.json").read_text(encoding="utf-8"))
    assert corpus_stats(corpus) == stats


def test_each_stage_reads_what_it_declares(tmp_path, synthetic_dirs, monkeypatch):
    """A run opens each stage's declared reads, in order, all written by earlier stages."""
    workspace = tmp_path / "ws"
    reads = {}
    publish, read_json = pipeline._publish, pipeline._read_json

    def recording_publish(workspace, stage, config):
        reads[stage] = []
        return publish(workspace, stage, config)

    def recording_read_json(path, parse):
        reads[next(reversed(reads))].append(path.relative_to(workspace).as_posix())
        return read_json(path, parse)

    monkeypatch.setattr(pipeline, "_publish", recording_publish)
    monkeypatch.setattr(pipeline, "_read_json", recording_read_json)
    pipeline.run_stage("run", PipelineConfig(lda_iters=20), workspace, *synthetic_dirs)
    assert reads == {name: list(stage.reads) for name, stage in pipeline.STAGES.items()}
    order = list(pipeline.STAGES)
    for stage, paths in reads.items():
        assert all(order.index(path.split("/")[0]) < order.index(stage) for path in paths)
    assert {path for paths in reads.values() for path in paths} == set(pipeline.ARTIFACTS)


def test_readme_table_lists_every_stage_and_its_reads():
    text = README.read_text(encoding="utf-8")
    table = text.split("| stage | reads |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    listed = {
        stage.strip().strip("`"): tuple(re.findall(r"`(\w+/[\w.]+)`", reads))
        for stage, reads in rows
    }
    assert list(listed.items()) == [(name, stage.reads) for name, stage in pipeline.STAGES.items()]


class TestOneBlasThread:
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("caller", [1, 2])
    def test_stage_runs_on_one_thread_and_the_callers_count_comes_back(
        self, caller, raises, tmp_path, monkeypatch
    ):
        threads = kernels._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
        get, set_ = threads
        seen = []

        def stage(config, out, *inputs):
            seen.append(get())
            if raises:
                raise RuntimeError("stage failed")

        monkeypatch.setitem(pipeline.STAGES, "topics", pipeline.Stage(stage))
        before = get()
        set_(caller)
        try:
            expected = get()
            with pytest.raises(RuntimeError, match="stage failed") if raises else nullcontext():
                pipeline.run_stage("topics", PipelineConfig(), tmp_path / "ws")
            assert seen == [1]
            assert get() == expected
        finally:
            set_(before)


class TestPublish:
    def test_failed_stage_keeps_previous_output(self, ingested, synthetic_dirs, monkeypatch):
        workspace, before = ingested

        def crash(config, out, *inputs):
            (out / "corpus.json").write_text("partial")
            raise RuntimeError("crash after writing")

        monkeypatch.setitem(pipeline.STAGES, "ingest", pipeline.Stage(crash))
        with pytest.raises(RuntimeError):
            pipeline.run_stage("ingest", PipelineConfig(), workspace, *synthetic_dirs)
        assert _tree_digest(workspace / "ingest") == before
        assert list(workspace.glob(".ingest.*")) == []

    def test_failed_swap_keeps_previous_output(self, ingested, synthetic_dirs, monkeypatch):
        workspace, before = ingested
        rename = Path.rename

        def failing_rename(self, target):
            if self.name.startswith(".ingest.") and not self.name.endswith(".old"):
                raise OSError("simulated rename failure")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", failing_rename)
        with pytest.raises(IoError, match="ingest"):
            pipeline.run_stage("ingest", PipelineConfig(k=4), workspace, *synthetic_dirs)
        assert _tree_digest(workspace / "ingest") == before
        assert list(workspace.glob(".ingest.*")) == []

    def test_failed_stage_removes_the_workspace_it_created(self, tmp_path):
        with pytest.raises(MissingArtifact):
            pipeline.run_stage("route", PipelineConfig(), tmp_path / "new" / "ws")
        assert not (tmp_path / "new" / "ws").exists()
        (tmp_path / "empty").mkdir()
        with pytest.raises(MissingArtifact):
            pipeline.run_stage("route", PipelineConfig(), tmp_path / "empty")
        assert (tmp_path / "empty").is_dir()

    def test_concurrent_publishes_use_distinct_directories(self, tmp_path):
        config = PipelineConfig()
        with pipeline._publish(tmp_path, "qgen", config) as first:
            with pipeline._publish(tmp_path, "qgen", config) as second:
                assert first != second
                (first / "owner.txt").write_text("first")
                (second / "owner.txt").write_text("second")
        assert (tmp_path / "qgen" / "owner.txt").read_text() == "first"
        assert (tmp_path / "qgen" / "config.json").is_file()
        assert list(tmp_path.glob(".qgen.*")) == []

    @pytest.fixture
    def dead_pid(self):
        """The id of a process that has exited."""
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        return child.pid

    def test_leftovers_of_dead_processes_removed(self, tmp_path, dead_pid):
        (tmp_path / "qgen").mkdir()
        leftovers = [tmp_path / f".qgen.{dead_pid}.abc_123", tmp_path / f".qgen.{dead_pid}.xyz.old"]
        for leftover in leftovers:
            leftover.mkdir()
            (leftover / "config.json").write_text("{}")
        other_stage = tmp_path / f".topics.{dead_pid}.abc"
        other_stage.mkdir()
        with pipeline._publish(tmp_path, "qgen", PipelineConfig()):
            pass
        assert not any(leftover.exists() for leftover in leftovers)
        assert other_stage.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == [other_stage.name, "qgen"]

    def test_leftover_of_a_running_process_kept(self, tmp_path):
        running = tmp_path / f".qgen.{os.getpid()}.abc"
        running.mkdir()
        with pipeline._publish(tmp_path, "qgen", PipelineConfig()):
            pass
        assert running.is_dir()

    def test_old_output_kept_while_the_stage_is_missing(self, tmp_path, dead_pid):
        aside = tmp_path / f".qgen.{dead_pid}.abc.old"
        aside.mkdir()
        with pipeline._publish(tmp_path, "qgen", PipelineConfig()):
            pass
        assert aside.is_dir()
        with pipeline._publish(tmp_path, "qgen", PipelineConfig()):
            pass
        assert not aside.exists()


def test_artifact_is_its_dataclass_fields(tmp_path):
    bank = build_question_bank({"a": ("q1 sales $4 million.", "q1 margin 10%.")})
    bank.master[0] = bank.master[0].with_topics({"t2", "t10"})
    path = tmp_path / "qgen" / "question_bank.json"
    path.parent.mkdir()
    pipeline._write_json(path, bank)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["master"][0] == {
        "text": "what is q1 sales?",
        "source_doc": "a",
        "source_bullet_index": 0,
        "topics": ["t10", "t2"],
    }
    assert pipeline.read_artifact(tmp_path, "qgen/question_bank.json") == bank
    with pytest.raises(TypeError):
        pipeline._write_json(path, object())


def _round(tmp_path, name, *trace):
    workspace = tmp_path / name
    done = subprocess.run(
        [sys.executable, str(ROUND), str(ROOT), str(BUNDLED), str(workspace),
         json.dumps({"lda_iters": 20}), *map(str, trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return workspace


# Every layer call the benchmark's tracer wraps (``bench/tracer.py``) that a
# run with the built-in embedder and generator makes.
TRACED_LAYERS = {
    "corpus.load",
    "qbank.build",
    "topics.fit_lda",
    "topics.keywords",
    "topics.categorize",
    "retrieval.embedder_fit",
    "retrieval.embed",
    "retrieval.build_context",
    "router.detect",
    "router.select",
    "generator.export",
    "generator.prompt",
    "generator.generate",
    "metrics.eval",
}


def test_traced_round_matches_untraced(tmp_path):
    """The benchmark's tracer still wraps every stage and layer and changes no artifact.

    A stage that stops calling a layer through the name the tracer patches
    drops that layer's spans, and its per-layer metric would read 0.
    """
    trace = tmp_path / "trace.jsonl"
    traced = _round(tmp_path, "traced", trace)
    plain = _round(tmp_path, "plain")
    spans = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    stage_spans = [s["name"] for s in spans if s["name"].startswith("pipeline.")]
    assert stage_spans == [f"pipeline.{stage}" for stage in pipeline.STAGES]
    layers = Counter(s["name"] for s in spans if not s["name"].startswith("pipeline."))
    assert set(layers) == TRACED_LAYERS
    n_test = len(pipeline.read_artifact(traced, "ingest/split.json").test)
    assert layers["router.detect"] == layers["router.select"] == n_test > 0
    assert _tree_digest(traced) == _tree_digest(plain)


def test_non_ascii_documents_give_the_python_tokenizer_workspace(tmp_path, monkeypatch):
    """Documents with text that is not ASCII, among ASCII ones, leave the
    workspace that a run with every kernel unavailable leaves."""
    corpus = tmp_path / "corpus"
    shutil.copytree(BUNDLED, corpus)
    for path in sorted((corpus / "transcripts").glob("*.txt"))[::2]:
        text = path.read_text(encoding="utf-8").rstrip("\n")
        text += "\nrevenue at the café rose ٣.٤ points, ٣ ahead of plan.\n"
        path.write_text(text, encoding="utf-8")
    dirs = (corpus / "transcripts", corpus / "summaries")
    config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
    pipeline.run_stage("run", config, tmp_path / "kernel", *dirs)
    monkeypatch.setattr(kernels, "load", lambda *kernel: None)
    pipeline.run_stage("run", config, tmp_path / "python", *dirs)
    assert "café" in (tmp_path / "kernel" / "ingest" / "corpus.json").read_text(encoding="utf-8")
    assert _tree_digest(tmp_path / "kernel") == _tree_digest(tmp_path / "python")


def test_non_ascii_run_passes_the_oracle_checks(tmp_path):
    """A run on transcripts with text that is not ASCII agrees with the
    benchmark's checks (``bench/checks.py``), which recompute every ranking
    and score from their definitions on ASCII tokens."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from checks import check_workspace
    finally:
        sys.path.remove(str(ROOT / "bench"))
    corpus = tmp_path / "corpus"
    shutil.copytree(BUNDLED, corpus)
    for path in (corpus / "transcripts").glob("*.txt"):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [f"café ٣.٤ {line}" if "revenue" in line.lower() else line for line in lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    words = {
        part: sum(len(p.read_text(encoding="utf-8").split()) for p in (corpus / part).glob("*.txt"))
        for part in ("transcripts", "summaries")
    }
    n_docs = len(list((corpus / "transcripts").glob("*.txt")))
    shape = {
        "mean_doc_words": words["transcripts"] / n_docs,
        "compression_ratio": words["transcripts"] / words["summaries"],
    }
    workspace = tmp_path / "ws"
    config = PipelineConfig(lda_iters=20, num_topics=5)
    pipeline.run_stage("run", config, workspace, corpus / "transcripts", corpus / "summaries")
    assert "café" in (workspace / "ingest" / "corpus.json").read_text(encoding="utf-8")
    assert check_workspace(workspace, corpus, shape, remote=False) == []


@pytest.fixture
def counted_encodes(monkeypatch):
    """The texts of every ``encode`` call, one list per call."""
    calls = []

    def counting_encode(texts, sizes=None):
        calls.append(list(texts))
        return encode(texts, sizes)

    monkeypatch.setattr(retrieval, "encode", counting_encode)
    monkeypatch.setattr(pipeline, "encode", counting_encode)
    return calls


def test_extract_encodes_each_batch_of_train_documents_once(
    tmp_path, synthetic_dirs, counted_encodes, monkeypatch
):
    """Each train document's sentences and then its questions, a batch of documents a call."""
    config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
    workspace = tmp_path / "ws"
    for stage in ("ingest", "qgen", "topics"):
        pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
    corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
    bank = pipeline.read_artifact(workspace, "qgen/question_bank.json")
    train = pipeline.read_artifact(workspace, "ingest/split.json").train
    documents = [
        (doc_id, corpus.transcripts[doc_id], [q.text for q in bank.per_doc[doc_id]])
        for doc_id in sorted(train)
    ]
    # The budget of the first two documents' text: a batch of two, then of one.
    budget = sum(len(text) for _, *texts in documents[:2] for part in texts for text in part)
    monkeypatch.setattr(pipeline, "FIT_BATCH_BYTES", budget)
    counted_encodes.clear()
    pipeline.run_stage("extract", config, workspace)

    batches = list(pipeline._fit_batches(documents, budget))
    assert [len(batch) for batch in batches] == [2, 1]
    assert counted_encodes == [
        [text for _, sentences, questions in batch for text in (*sentences, *questions)]
        for batch in batches
    ]


@settings(deadline=None, max_examples=60)  # the first example may build the kernel
@given(
    documents=st.lists(
        st.tuples(
            st.lists(embed_texts, min_size=1, max_size=5),
            st.lists(embed_texts, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=5,
    ),
    budget=st.integers(0, 120),
)
# A document with no token; a question with no fit token; a document that is
# not ASCII; two documents that share every token.
@example(documents=[(["!!", "-"], ["revenue?"]), (["revenue rose"], ["cash"])], budget=20)
@example(documents=[(["revenue rose", "cash"], ["q3 sales"])], budget=0)
@example(
    documents=[(["café revenue ٣.٤", "İ rose \u212a"], ["revenue café"]), (["rose"], ["rose"])],
    budget=40,
)
@example(
    documents=[(["revenue rose", "cash"], ["revenue cash"]), (["cash rose revenue"], ["rose"])],
    budget=1000,
)
def test_extract_context_does_not_depend_on_the_batch(documents, budget):
    """A document's scores, alone, in one batch with the others, or batched by ``budget``."""
    documents = [(f"d{i}", sentences, questions) for i, (sentences, questions) in enumerate(documents)]
    batches = list(pipeline._fit_batches(documents, budget))
    assert [document for batch in batches for document in batch] == documents
    for batch in batches:
        sizes = [sum(map(len, [*sentences, *questions])) for _, sentences, questions in batch]
        assert len(batch) == 1 or sum(sizes) <= budget

    def scored(budget):
        """Each document's scores, selected scores and context, fit in the batches of ``budget``."""
        scored = []
        for (doc_id, sentences, questions), scores in zip(
            documents, pipeline._tfidf_scores(documents, budget)
        ):
            context = build_context(doc_id, sentences, questions, scores, 3)
            selected = np.array([s.score for s in context.selections])
            scored.append((scores.tobytes(), selected.tobytes(), context))
        return scored

    alone = scored(0)  # every document is past a budget of 0, so each is a batch alone
    assert scored(budget) == alone
    assert scored(10**9) == alone  # one batch of them all


@pytest.mark.parametrize("budget", [pipeline.FIT_BATCH_BYTES, 0], ids=["one-batch", "alone"])
def test_route_encodes_the_master_list_once_then_each_batch_of_test_documents_once(
    tmp_path, synthetic_dirs, counted_encodes, monkeypatch, budget
):
    """The chosen questions are scored from the master list's counts, not encoded again."""
    config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
    workspace = tmp_path / "ws"
    for stage in ("ingest", "qgen", "topics"):
        pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
    monkeypatch.setattr(pipeline, "FIT_BATCH_BYTES", budget)
    counted_encodes.clear()
    pipeline.run_stage("route", config, workspace)

    corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
    master = pipeline.read_artifact(workspace, "topics/question_bank.json").master
    test_ids = pipeline.read_artifact(workspace, "ingest/split.json").test
    documents = [(doc_id, corpus.transcripts[doc_id], ()) for doc_id in sorted(test_ids)]
    batches = list(pipeline._fit_batches(documents, budget))
    # The bundled corpus's two test documents fit one batch, or a budget of 0 fits each alone.
    assert [len(batch) for batch in batches] == ([2] if budget else [1, 1])
    assert counted_encodes == [
        [q.text for q in master],
        *([text for _, sentences, _ in batch for text in sentences] for batch in batches),
    ]


@pytest.fixture(scope="module", params=sorted(CASES))
def topics_workspace(request, tmp_path_factory):
    """The golden cases' workspaces up to ``topics``, and their configs."""
    config, corpus = CASES[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    dirs = corpus(tmp / "corpus")
    workspace = tmp / "ws"
    for stage in ("ingest", "qgen", "topics"):
        pipeline.run_stage(stage, config, workspace, *dirs)
    return config, workspace


def test_route_document_does_not_depend_on_the_batch(topics_workspace):
    """Each test document through ``route_document``, fit alone or in one batch of all.

    Both give the stage's ``detections``, ``questions`` and ``contexts``
    records, and the same score bits.
    """
    config, workspace = topics_workspace
    pipeline.run_stage("route", config, workspace)
    corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
    split = pipeline.read_artifact(workspace, "ingest/split.json")
    master = pipeline.read_artifact(workspace, "topics/question_bank.json").master
    keywords = pipeline.read_artifact(workspace, "topics/topic_model.json").keywords
    texts = [q.text for q in master]
    buckets = topic_buckets(master)
    documents = [(doc_id, corpus.transcripts[doc_id], ()) for doc_id in sorted(split.test)]
    recorded = [
        (workspace / "route" / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        for name in ("detections", "questions", "contexts")
    ]

    def route_each(budget):
        """Each document's records as the stage writes them, and its context's score bytes."""
        # Taken in full first: a record must not depend on the fit's later documents.
        embeddings = list(pipeline._tfidf_routes(documents, texts, budget))
        records, scores = [], []
        for (doc_id, sentences, _), embedded in zip(documents, embeddings):
            routed = pipeline.route_document(
                config, keywords, texts, buckets, doc_id, sentences, embedded
            )
            records.append([pipeline._dumps(record) for record in routed])
            scores.append(np.array([s.score for s in routed[-1].selections]).tobytes())
        return [list(lines) for lines in zip(*records)], scores

    assert len(list(pipeline._fit_batches(documents, 10**9))) == 1
    alone = route_each(0)  # every document is past a budget of 0, so each is a batch alone
    assert alone[0] == recorded
    assert route_each(10**9) == alone  # one batch of them all


def test_route_ranks_and_scores_as_on_dense_master_vectors(topics_workspace, monkeypatch):
    """Every test document chooses, and scores its context on, what the dense reference does.

    The reference embeds the sentences and the whole master list on the
    document's vocabulary with the per-token loop. The stage folds the IDF
    into the topic centroids against the master counts, and scores only the
    chosen questions, from those counts.
    """
    config, workspace = topics_workspace
    handed = {}

    def recording_build_context(doc_id, sentences, questions, scores, k):
        handed[doc_id] = scores
        return retrieval.build_context(doc_id, sentences, questions, scores, k)

    monkeypatch.setattr(pipeline, "build_context", recording_build_context)
    pipeline.run_stage("route", config, workspace)
    routed = {
        record["doc_id"]: record["questions"]
        for record in _jsonl(workspace / "route" / "questions.jsonl")
    }

    corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
    split = pipeline.read_artifact(workspace, "ingest/split.json")
    master = pipeline.read_artifact(workspace, "topics/question_bank.json").master
    keywords = pipeline.read_artifact(workspace, "topics/topic_model.json").keywords
    texts = [q.text for q in master]
    buckets = topic_buckets(master)
    assert sorted(routed) == sorted(split.test)
    for doc_id in sorted(split.test):
        doc = corpus.transcripts[doc_id]
        sentences = loop_embed(doc, doc)
        dense = loop_embed(doc, texts)
        encoded = encode(doc)
        detection = detect_topics(doc_id, keywords, encoded.terms, encoded.tokens())
        score_master = partial(pipeline._pair_cosines, dense, np.linalg.norm(dense, axis=1))
        chosen = select_questions(detection, sentences, score_master, buckets, config.q_per_topic)
        assert routed[doc_id] == [texts[i] for i in chosen]
        np.testing.assert_allclose(
            handed[doc_id], cosine_matrix(dense[chosen], sentences), rtol=0, atol=1e-12
        )


def test_route_embeds_only_the_chosen_master_questions(topics_workspace, monkeypatch):
    """No per-document embed of the whole master list."""
    config, workspace = topics_workspace
    master = {q.text for q in pipeline.read_artifact(workspace, "topics/question_bank.json").master}
    embed = TfidfEmbedder.embed
    embedded = []

    def counting_embed(self, texts, *counts):
        embedded.extend(text for text in texts if text in master)
        return embed(self, texts, *counts)

    monkeypatch.setattr(TfidfEmbedder, "embed", counting_embed)
    pipeline.run_stage("route", config, workspace)
    records = _jsonl(workspace / "route" / "questions.jsonl")
    assert 0 < len(embedded) <= sum(len(record["questions"]) for record in records)
