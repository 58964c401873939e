"""Stage orchestration and workspace artifact handling.

Each stage in ``STAGES`` declares the workspace artifacts it reads, as keys of
``ARTIFACTS``. ``run_stage`` reads them and hands them to the stage in that order;
the stage writes its own into a fresh directory that ``run_stage`` publishes as
``workspace/<stage>/`` (see ``_publish``), with the resolved config
snapshotted next to them so reruns are auditable. Artifact objects, the
corpus among them, are written as their dataclass fields and read back with
``records.reader`` of their dataclass. With the built-in embedder and the mock
generator, rerunning a stage with identical inputs and seeds produces
byte-identical artifacts.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from . import generator as gen
from . import metrics as met
from .config import PipelineConfig
from .corpus import Corpus, CorpusSplit, corpus_stats, load_corpus, split_corpus
from .errors import ConfigInvalid, EmptyDocument, IoError, MissingArtifact, NoTopicsDetected
from .qbank import MasterList, QuestionBank, build_question_bank
from .records import reader
from .retrieval import ExtractiveContext, TfidfEmbedder, build_context, encode
from .router import detect_topics, select_questions, topic_buckets
from .services import EmbeddingClient, GenerationClient, QGClient
from .text import QUESTION_STOPWORDS, load_stopwords, read_text_file
from .topics import TopicModel, categorize_questions, fit_lda, question_distribution, topic_keywords

logger = logging.getLogger(__name__)


def _jsonable(value):
    """What the encoder cannot write itself: a dataclass as its fields, a set sorted.

    ``vars`` gives the same mapping as ``dataclasses.asdict`` for these
    field-only classes, one level at a time (the encoder calls back for what
    is nested), without ``asdict``'s deep copy of every value, which costs
    more than the rest of writing ``route/detections.jsonl``.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return vars(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not an artifact type")


_dumps = functools.partial(json.dumps, sort_keys=True, ensure_ascii=False, default=_jsonable)


def _write_json(path: Path, payload) -> None:
    path.write_text(_dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dumps(record) + "\n")


def _read_json(path: Path, parse):
    """Read a JSON artifact with ``parse``; a ``.jsonl`` one into a list, record by record."""
    if not path.is_file():
        raise MissingArtifact(f"missing artifact {path}")
    jsonl = path.suffix == ".jsonl"
    try:
        with path.open(encoding="utf-8") as fh:
            data = [json.loads(line) for line in fh if line.strip()] if jsonl else json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoError(f"artifact {path} is not valid JSON: {exc}") from exc
    try:
        return [parse(record) for record in data] if jsonl else parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"artifact {path} does not have the expected shape: {exc!r}") from exc


def _rename(source: Path, target: Path) -> None:
    try:
        source.rename(target)
    except OSError as exc:
        raise IoError(f"could not rename {source} to {target}: {exc}") from exc


def _running(pid: int) -> bool:
    """Whether process ``pid`` may be running; only a lookup that finds none says no."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # another user's process, or an id kill cannot take
        pass
    return True


def _remove_dead_leftovers(workspace: Path, stage: str) -> None:
    """Remove the ``_publish`` directories of ``stage`` whose process is not running.

    A leftover ``.old`` is the last good output while ``workspace/<stage>``
    is missing, so it is removed only when that exists.
    """
    published = (workspace / stage).exists()
    for path in workspace.glob(f".{stage}.*"):
        match = re.fullmatch(rf"\.{stage}\.(\d+)\.\w+(\.old)?", path.name)
        if match and not _running(int(match[1])) and (published or not match[2]):
            shutil.rmtree(path, ignore_errors=True)


@contextmanager
def _publish(workspace: Path, stage: str, config: PipelineConfig):
    """Yield a fresh directory for ``stage``'s artifacts, then publish it.

    The directory is unique to this call, so concurrent runs never share it.
    If the stage raises, the directory is removed and ``workspace/<stage>``
    is left as it was. Otherwise the old output is renamed aside, the new one
    renamed in, and only then is the old one deleted: a complete output
    exists on disk at every instant. If the new one cannot be renamed in, the
    old one is put back and the error is an ``IoError``. A workspace this
    call created is removed again if the stage raises and leaves it empty.
    The directory is named ``.<stage>.<pid>.*``, so that before publishing,
    the leftovers of a process that died mid-stage can be told apart and
    removed (``_remove_dead_leftovers``). An ``OSError`` on the way, such as
    a workspace path that is a file or an artifact that cannot be read or
    written, is an ``IoError`` naming the path.
    """
    created = not workspace.exists()
    try:
        workspace.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{stage}.{os.getpid()}.", dir=workspace))
    except OSError as exc:
        raise IoError(f"could not create a {stage} directory in {workspace}: {exc}") from exc
    try:
        logger.info("stage %s config hash %s", stage, config.hash())
        _write_json(tmp / "config.json", {"config": config.to_dict(), "hash": config.hash()})
        yield tmp
    except BaseException as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if created:
            with suppress(OSError):  # rmdir removes it only while it is empty
                workspace.rmdir()
        if isinstance(exc, OSError):
            raise IoError(f"stage {stage} could not read or write a file: {exc}") from exc
        raise
    _remove_dead_leftovers(workspace, stage)
    final = workspace / stage
    aside = tmp.with_name(tmp.name + ".old")
    if final.exists():
        _rename(final, aside)
    try:
        _rename(tmp, final)
    except IoError:
        if aside.exists():
            _rename(aside, final)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def _check_split(corpus: Corpus, split: CorpusSplit, path: Path) -> None:
    counts = Counter(split.train + split.val + split.test)
    repeated = sorted(i for i, n in counts.items() if n > 1)
    if repeated:
        raise IoError(f"artifact {path} names ids more than once: {repeated}")
    unknown = sorted(counts.keys() - (corpus.transcripts.keys() & corpus.summaries.keys()))
    if unknown:
        raise IoError(f"artifact {path} names ids missing from the corpus: {unknown}")


# Every artifact a stage reads, by its path in the workspace, and its reader.
ARTIFACTS = {
    "ingest/corpus.json": reader(Corpus),
    "ingest/split.json": reader(CorpusSplit),
    "qgen/question_bank.json": reader(QuestionBank),
    "topics/question_bank.json": reader(MasterList),
    "topics/topic_model.json": reader(TopicModel),
    "route/contexts.jsonl": ExtractiveContext.from_dict,
    "generate/predictions.json": reader(dict[str, list[str]]),
}


def read_artifact(workspace, path: str):
    """The artifact at ``path`` in ``workspace``, one of ``ARTIFACTS``, read with its reader."""
    return _read_json(Path(workspace) / path, ARTIFACTS[path])


def _prompt_template(config: PipelineConfig) -> gen.PromptTemplate:
    if config.instruction_file:
        instruction = read_text_file(config.instruction_file, "instruction file").strip()
        if not instruction:
            raise EmptyDocument(f"instruction file {config.instruction_file} holds only whitespace")
        return gen.PromptTemplate(instruction=instruction, separator=config.separator)
    return gen.PromptTemplate(separator=config.separator)


def _embedding_client(config: PipelineConfig) -> EmbeddingClient | None:
    return EmbeddingClient(config.embed_url) if config.embed_url else None


def stage_ingest(config: PipelineConfig, out: Path, transcripts_dir, summaries_dir) -> None:
    corpus = load_corpus(transcripts_dir, summaries_dir)
    _write_json(out / "corpus.json", corpus)
    _write_json(out / "split.json", split_corpus(corpus, config.split_seed))
    _write_json(out / "stats.json", corpus_stats(corpus))


def stage_qgen(config: PipelineConfig, out: Path, corpus, split) -> None:
    train_summaries = {doc_id: corpus.summaries[doc_id] for doc_id in split.train}
    client = QGClient(config.qg_url) if config.qg_url else None
    bank = build_question_bank(train_summaries, client=client, fallback=config.qg_fallback)
    report = {
        "train_documents": len(train_summaries),
        "questions_per_doc": {doc_id: len(questions) for doc_id, questions in bank.per_doc.items()},
        "master_size": len(bank.master),
        "generator": "external" if config.qg_url else "builtin",
    }
    _write_json(out / "question_bank.json", bank)
    _write_json(out / "report.json", report)


def stage_topics(config: PipelineConfig, out: Path, bank) -> None:
    stopwords = (
        load_stopwords(config.stopword_file)
        if config.stopword_file
        else QUESTION_STOPWORDS
    )
    model = fit_lda(
        [q.text for q in bank.master],
        K=config.num_topics,
        alpha=config.lda_alpha,
        beta=config.lda_beta,
        iters=config.lda_iters,
        seed=config.lda_seed,
        stopwords=stopwords,
    )
    try:
        model.keywords = topic_keywords(model, w=config.keywords_per_topic)
    except ValueError as exc:
        raise ConfigInvalid(f"keywords_per_topic: {exc}") from None
    categorized = categorize_questions(bank.master, model.keywords)
    _write_json(out / "topic_model.json", model)
    _write_json(out / "question_bank.json", MasterList(categorized))
    _write_json(out / "distribution.json", question_distribution(categorized))


def stage_extract(config: PipelineConfig, out: Path, corpus, split, bank) -> None:
    template = _prompt_template(config)
    client = _embedding_client(config)

    documents = []
    for doc_id in sorted(split.train):
        questions = [q.text for q in bank.per_doc.get(doc_id, [])]
        if questions:
            documents.append((doc_id, corpus.transcripts[doc_id], questions))
        else:
            logger.warning("train document %s has no questions; skipped", doc_id)
    if client:
        # One batch per document; a row depends only on its own text.
        batches = ([*sentences, *questions] for _, sentences, questions in documents)
        embedded = (
            (vectors[: len(sentences)], vectors[len(sentences) :])
            for (_, sentences, _), vectors in zip(documents, client.embed_many(batches))
        )
    else:
        embedders = (TfidfEmbedder(sentences) for _, sentences, _ in documents)
        embedded = (
            (embedder.fit_vectors, embedder.embed(questions))
            for embedder, (_, _, questions) in zip(embedders, documents)
        )

    contexts = []
    pairs = []
    for (doc_id, sentences, questions), (sentence_vectors, question_vectors) in zip(
        documents, embedded
    ):
        context = build_context(
            doc_id, sentences, questions, question_vectors, sentence_vectors, config.k
        )
        contexts.append(context)
        pairs.append((context, corpus.summaries[doc_id]))

    _write_jsonl(out / "contexts.jsonl", contexts)
    gen.export_finetune_dataset(pairs, template, gen.FineTuneSpec(), out / "finetune.jsonl")


def stage_route(config: PipelineConfig, out: Path, corpus, split, categorized, model) -> None:
    master = categorized.master
    master_texts = [q.text for q in master]
    buckets = topic_buckets(master)
    client = _embedding_client(config)
    test_ids = sorted(split.test)
    # A service's vectors do not depend on the document, so the master list is
    # embedded once, ahead of the documents' sentences. TF-IDF vectors do; the
    # master list's term counts over the tokens of its own encoding are built
    # once and weighed per document.
    if client:
        embedded = client.embed_many([master_texts, *(corpus.transcripts[i] for i in test_ids)])
        service_master_vectors = next(embedded)
    else:
        master_ids = encode(master_texts)
        master_counts = master_ids.counts()

    detections = []
    selected_questions = []
    contexts = []
    for doc_id in test_ids:
        sentences = corpus.transcripts[doc_id]
        if client:
            sentence_vectors = next(embedded)
            sentence_ids = encode(sentences)
            ranked_sentences, ranked_master = sentence_vectors, service_master_vectors
        else:
            embedder = TfidfEmbedder(sentences)
            sentence_ids, sentence_vectors = embedder.fit, embedder.fit_vectors
            # A master row is zero outside the master tokens' columns, so a
            # cosine on them is the full one times a positive factor per topic
            # centroid: each topic ranks its bucket the same.
            columns, ranked_master = embedder.embed_counts(master_counts, master_ids.tokens)
            ranked_sentences = sentence_vectors[:, columns]
        detection = detect_topics(doc_id, model.keywords, sentence_ids)
        try:
            chosen = select_questions(
                detection, ranked_sentences, ranked_master, buckets, config.q_per_topic
            )
        except NoTopicsDetected:
            if not config.fallback_on_empty_detection:
                raise
            logger.warning(
                "no topics detected for %s; falling back to the master list", doc_id
            )
            chosen = list(range(len(master)))
        questions = [master_texts[i] for i in chosen]
        # A row depends only on its own text: these are the full master rows.
        question_vectors = service_master_vectors[chosen] if client else embedder.embed(questions)
        detections.append(detection)
        selected_questions.append({"doc_id": doc_id, "questions": questions})
        context = build_context(
            doc_id, sentences, questions, question_vectors, sentence_vectors, config.k
        )
        contexts.append(context)
        # Release this document's arrays before the next document's are built.
        embedder = sentence_ids = sentence_vectors = None
        ranked_sentences = ranked_master = question_vectors = None

    _write_jsonl(out / "detections.jsonl", detections)
    _write_jsonl(out / "questions.jsonl", selected_questions)
    _write_jsonl(out / "contexts.jsonl", contexts)


def stage_generate(config: PipelineConfig, out: Path, contexts) -> None:
    template = _prompt_template(config)
    if config.generate_url:
        client = GenerationClient(config.generate_url)
    else:
        client = gen.MockGenClient(template)

    predictions = {}
    for context in contexts:
        try:
            prompt = gen.build_prompt(template, context, config.max_input_tokens)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        predictions[context.doc_id] = gen.generate(client, prompt, config.max_new_tokens)
    _write_json(out / "predictions.json", predictions)


def stage_eval(config: PipelineConfig, out: Path, corpus, split, predictions) -> None:
    references = {doc_id: corpus.summaries[doc_id] for doc_id in split.test}
    sources = {doc_id: corpus.transcripts[doc_id] for doc_id in split.test}
    report = met.evaluate_corpus(predictions, references, sources)
    _write_json(out / "report.json", report)
    (out / "report.txt").write_text(met.format_report_table(report) + "\n", encoding="utf-8")
    met.write_per_document_csv(report, out / "per_document.csv")


class Stage(NamedTuple):
    run: Callable[..., None]  # run(config, out, *inputs) writes the stage's artifacts into out
    reads: tuple[str, ...] = ()  # the ARTIFACTS read, in order, as its inputs


_CORPUS_AND_SPLIT = ("ingest/corpus.json", "ingest/split.json")

# Every stage in pipeline order.
STAGES = {
    "ingest": Stage(stage_ingest),
    "qgen": Stage(stage_qgen, _CORPUS_AND_SPLIT),
    "topics": Stage(stage_topics, ("qgen/question_bank.json",)),
    "extract": Stage(stage_extract, (*_CORPUS_AND_SPLIT, "qgen/question_bank.json")),
    "route": Stage(
        stage_route, (*_CORPUS_AND_SPLIT, "topics/question_bank.json", "topics/topic_model.json")
    ),
    "generate": Stage(stage_generate, ("route/contexts.jsonl",)),
    "eval": Stage(stage_eval, (*_CORPUS_AND_SPLIT, "generate/predictions.json")),
}


def run_stage(
    stage: str,
    config: PipelineConfig,
    workspace,
    transcripts_dir=None,
    summaries_dir=None,
) -> None:
    """Run one stage on its declared reads and publish its artifacts, or every stage for ``run``."""
    workspace = Path(workspace)
    if stage == "run":
        for name in STAGES:
            run_stage(name, config, workspace, transcripts_dir, summaries_dir)
        return
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    directories = ()
    if stage == "ingest":
        if transcripts_dir is None or summaries_dir is None:
            raise MissingArtifact("ingest requires --transcripts and --summaries")
        directories = (transcripts_dir, summaries_dir)
    with _publish(workspace, stage, config) as out:
        inputs = {}
        for path in STAGES[stage].reads:
            inputs[path] = read_artifact(workspace, path)
            if path == "ingest/split.json":
                _check_split(inputs["ingest/corpus.json"], inputs[path], workspace / path)
        STAGES[stage].run(config, out, *inputs.values(), *directories)
