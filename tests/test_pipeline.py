import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bulletsum import kernels, pipeline, retrieval
from bulletsum.config import PipelineConfig
from bulletsum.corpus import corpus_stats, load_corpus, split_corpus
from bulletsum.errors import IoError, MissingArtifact
from bulletsum.qbank import build_question_bank
from bulletsum.retrieval import TfidfEmbedder, encode
from bulletsum.router import detect_topics, select_questions, topic_buckets

from test_cli import README, _tree_digest
from test_golden import CASES

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


def test_traced_round_matches_untraced(tmp_path):
    """The benchmark's tracer still wraps every stage and changes no artifact."""
    trace = tmp_path / "trace.jsonl"
    traced = _round(tmp_path, "traced", trace)
    plain = _round(tmp_path, "plain")
    spans = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    stage_spans = [s["name"] for s in spans if s["name"].startswith("pipeline.")]
    assert stage_spans == [f"pipeline.{stage}" for stage in pipeline.STAGES]
    assert {"corpus.load", "topics.fit_lda", "router.select", "metrics.eval"} <= {
        s["name"] for s in spans
    }
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


def test_route_tokenizes_each_sentence_once(tmp_path, synthetic_dirs, monkeypatch):
    """Route encodes the master list once, each test sentence once, and the
    questions chosen for a document once more each, to embed them."""
    config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
    workspace = tmp_path / "ws"
    for stage in ("ingest", "qgen", "topics"):
        pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
    calls = []

    def counting_encode(texts):
        calls.extend(texts)
        return encode(texts)

    monkeypatch.setattr(retrieval, "encode", counting_encode)
    monkeypatch.setattr(pipeline, "encode", counting_encode)
    pipeline.run_stage("route", config, workspace)

    master = json.loads((workspace / "topics" / "question_bank.json").read_text())["master"]
    transcripts = json.loads((workspace / "ingest" / "corpus.json").read_text())["transcripts"]
    test_ids = json.loads((workspace / "ingest" / "split.json").read_text())["test"]
    sentences = [text for doc_id in test_ids for text in transcripts[doc_id]]
    routed = _jsonl(workspace / "route" / "questions.jsonl")
    chosen = [question for record in routed for question in record["questions"]]
    assert sorted(calls) == sorted([q["text"] for q in master] + sentences + chosen)


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


def test_route_ranks_and_embeds_as_on_dense_master_vectors(topics_workspace, monkeypatch):
    """Every test document chooses, and hands ``build_context``, what the dense reference does.

    The reference embeds the whole master list on the document's vocabulary.
    The stage ranks on the master tokens' columns (``embed_counts``) and
    embeds only the chosen questions.
    """
    config, workspace = topics_workspace
    handed = {}

    def recording_build_context(doc_id, sentences, questions, question_vectors, *rest):
        handed[doc_id] = question_vectors
        return retrieval.build_context(doc_id, sentences, questions, question_vectors, *rest)

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
    master_ids = encode(texts)
    counts = master_ids.counts()
    buckets = topic_buckets(master)
    assert sorted(routed) == sorted(split.test)
    for doc_id in sorted(split.test):
        doc = corpus.transcripts[doc_id]
        embedder = TfidfEmbedder(doc)
        sentences = embedder.embed(doc)
        dense = embedder.embed(texts)
        columns, narrow = embedder.embed_counts(counts, master_ids.tokens)
        detection = detect_topics(doc_id, keywords, embedder.fit)
        chosen = select_questions(detection, sentences, dense, buckets, config.q_per_topic)
        narrow_chosen = select_questions(
            detection, sentences[:, columns], narrow, buckets, config.q_per_topic
        )
        assert narrow_chosen == chosen
        assert routed[doc_id] == [texts[i] for i in chosen]
        assert np.array_equal(handed[doc_id], dense[chosen])


def test_route_embeds_only_the_chosen_master_questions(topics_workspace, monkeypatch):
    """No per-document embed of the whole master list."""
    config, workspace = topics_workspace
    master = {q.text for q in pipeline.read_artifact(workspace, "topics/question_bank.json").master}
    embed = TfidfEmbedder.embed
    embedded = []

    def counting_embed(self, texts):
        embedded.extend(text for text in texts if text in master)
        return embed(self, texts)

    monkeypatch.setattr(TfidfEmbedder, "embed", counting_embed)
    pipeline.run_stage("route", config, workspace)
    records = _jsonl(workspace / "route" / "questions.jsonl")
    assert 0 < len(embedded) <= sum(len(record["questions"]) for record in records)
