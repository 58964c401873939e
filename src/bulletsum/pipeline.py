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

import numpy as np

from . import generator as gen
from . import kernels
from . import metrics as met
from .config import PipelineConfig
from .corpus import Corpus, CorpusSplit, corpus_stats, load_corpus, split_corpus
from .errors import ConfigInvalid, EmptyDocument, IoError, MissingArtifact, NoTopicsDetected
from .qbank import MasterList, QuestionBank, build_question_bank
from .records import reader
from .retrieval import (
    Entries,
    ExtractiveContext,
    TfidfEmbedder,
    build_context,
    cosine_matrix,
    encode,
    entry_cosines,
)
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
    # A RecursionError is JSON nested too deeply to parse.
    try:
        with path.open(encoding="utf-8") as fh:
            data = [json.loads(line) for line in fh if line.strip()] if jsonl else json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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


# The most text, in characters (the tokenizer's bytes), that one TF-IDF fit
# serves: its documents' sentences, and in ``extract`` their questions. A
# document with more is fit alone. A fit's arrays grow with its text, and a
# larger budget fits faster. On the seed-1 400-document benchmark corpus (about
# 18,000 characters a document, so three to four a batch), these batches
# fit and score the training documents in about 100 ms, against 130 ms for
# one fit per document; a run's peak RSS stays where ``ingest`` and
# ``eval`` set it at this budget, and at 256 KiB it rose by 2-4 MB.
FIT_BATCH_BYTES = 1 << 16


def _fit_batches(documents, budget: int):
    """``(doc_id, sentences, questions)`` documents in order, in lists of at most ``budget`` bytes.

    A batch closes before the document that would take it past the budget,
    so a document past it on its own is a batch alone.
    """
    batch, size = [], 0
    for document in documents:
        _, sentences, questions = document
        length = sum(map(len, sentences)) + sum(map(len, questions))
        if batch and size + length > budget:
            yield batch
            batch, size = [], 0
        batch.append(document)
        size += length
    if batch:
        yield batch


def _tfidf_scores(documents, budget: int):
    """Each document's question x sentence cosines, one fit per batch of documents."""
    for batch in _fit_batches(documents, budget):
        embedder = TfidfEmbedder([s for _, s, _ in batch], [q for _, _, q in batch])
        for document, (_, _, questions) in enumerate(batch):
            yield entry_cosines(*embedder.embed(questions, document=document))


def stage_extract(config: PipelineConfig, out: Path, corpus, split, bank) -> None:
    template = _prompt_template(config)
    client = EmbeddingClient(config.embed_url) if config.embed_url else None

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
        scored = (
            cosine_matrix(vectors[len(sentences) :], vectors[: len(sentences)])
            for (_, sentences, _), vectors in zip(documents, client.embed_many(batches))
        )
    else:
        scored = _tfidf_scores(documents, FIT_BATCH_BYTES)

    contexts = [
        build_context(doc_id, sentences, questions, scores, config.k)
        for (doc_id, sentences, questions), scores in zip(documents, scored)
    ]
    pairs = [(context, corpus.summaries[context.doc_id]) for context in contexts]
    _write_jsonl(out / "contexts.jsonl", contexts)
    gen.export_finetune_dataset(pairs, template, gen.FineTuneSpec(), out / "finetune.jsonl")


def _pair_cosines(
    candidates: np.ndarray,
    candidate_norms: np.ndarray,
    queries: np.ndarray,
    topics: np.ndarray,
    texts: np.ndarray,
) -> np.ndarray:
    """``cosine_matrix`` of ``queries`` against ``candidates``, at the (query, candidate) pairs.

    ``candidate_norms`` are the candidates' row norms, computed once by the caller.
    """
    norms = (np.linalg.norm(queries, axis=1), candidate_norms)
    return cosine_matrix(queries, candidates, norms)[topics, texts]


class RouteEmbedding(NamedTuple):
    """A test document's embedding, from the one embedder of its ``route`` stage."""

    terms: Entries  # a row per sentence, on the columns of ``tokens``: ``detect_topics``'s
    tokens: list[str]
    ranked: np.ndarray  # the rows that ``select_questions`` averages into topic centroids
    score_master: Callable  # ``select_questions``'s master scorer
    score_chosen: Callable  # (chosen, questions) -> their cosines to the sentences, a row each


def _tfidf_routes(documents, master_texts: list[str], budget: int):
    """Each ``(doc_id, sentences, ())`` document's ``RouteEmbedding``, one fit per batch."""
    master = encode(master_texts)
    master_tokens = master.tokens()
    for batch in _fit_batches(documents, budget):
        fit = TfidfEmbedder([sentences for _, sentences, _ in batch])
        for d in range(len(batch)):
            # Built by a call, so that no variable here keeps a document's
            # arrays while the next document's are built.
            yield _tfidf_route(fit, d, master_tokens, master.terms)


def _tfidf_route(fit: TfidfEmbedder, d: int, master_tokens, master_counts) -> RouteEmbedding:
    """Document ``d``'s ``RouteEmbedding``, with the master counts weighed by its IDF.

    The chosen questions are scored from those weights; they are not encoded again.
    """
    fold = fit.fold(master_tokens, master_counts, d)

    def score_chosen(chosen, questions):
        return entry_cosines(*fit.embed(questions, fold.weights_of(chosen), d))

    ranked = fit.vectors(fold.fit_columns, d)
    return RouteEmbedding(fit.weights(d), fit.tokens(d), ranked, fold.scores, score_chosen)


def _service_routes(client: EmbeddingClient, documents, master_texts: list[str]):
    """Each document's ``RouteEmbedding`` from a service, after one embedding of the master list."""
    embedded = client.embed_many([master_texts, *(sentences for _, sentences, _ in documents)])
    master = next(embedded)
    score_master = functools.partial(_pair_cosines, master, np.linalg.norm(master, axis=1))
    for (_, sentences, _), vectors in zip(documents, embedded):
        encoded = encode(sentences)

        def score_chosen(chosen, questions, vectors=vectors):
            return cosine_matrix(master[chosen], vectors)

        yield RouteEmbedding(encoded.terms, encoded.tokens(), vectors, score_master, score_chosen)


def route_document(config, keywords, master_texts, buckets, doc_id, sentences, embedded):
    """One test document's detection, ``questions.jsonl`` record and context.

    ``keywords`` are the topic model's, ``buckets`` the master list's
    ``topic_buckets``. With no topic detected and
    ``fallback_on_empty_detection`` set, the whole master list is chosen.
    """
    terms, tokens, ranked, score_master, score_chosen = embedded
    detection = detect_topics(doc_id, keywords, terms, tokens)
    try:
        chosen = select_questions(detection, ranked, score_master, buckets, config.q_per_topic)
    except NoTopicsDetected:
        if not config.fallback_on_empty_detection:
            raise
        logger.warning("no topics detected for %s; falling back to the master list", doc_id)
        chosen = list(range(len(master_texts)))
    questions = [master_texts[i] for i in chosen]
    context = build_context(doc_id, sentences, questions, score_chosen(chosen, questions), config.k)
    return detection, {"doc_id": doc_id, "questions": questions}, context


def stage_route(config: PipelineConfig, out: Path, corpus, split, categorized, model) -> None:
    master_texts = [q.text for q in categorized.master]
    buckets = topic_buckets(categorized.master)
    doc_ids = sorted(split.test)
    documents = [(doc_id, corpus.transcripts[doc_id], ()) for doc_id in doc_ids]
    if config.embed_url:
        embeddings = _service_routes(EmbeddingClient(config.embed_url), documents, master_texts)
    else:
        embeddings = _tfidf_routes(documents, master_texts, FIT_BATCH_BYTES)
    route = functools.partial(route_document, config, model.keywords, master_texts, buckets)
    # ``map`` lets go of each document's embedding before the next one is built.
    routed = list(map(route, doc_ids, [corpus.transcripts[i] for i in doc_ids], embeddings))
    for i, name in enumerate(("detections", "questions", "contexts")):
        _write_jsonl(out / f"{name}.jsonl", [records[i] for records in routed])


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
        # The products are small and per document: a second BLAS thread saves
        # little and keeps spinning after them, on a CPU a service may need.
        with kernels.one_blas_thread():
            STAGES[stage].run(config, out, *inputs.values(), *directories)
