"""Span recording around the public functions each pipeline stage calls.

The tracer patches those functions in the already imported ``bulletsum``
modules, so the program itself is unchanged. Each span has an id, a parent
id, a name ``<layer>.<call>`` and start and end times in nanoseconds; an
``embed`` span also counts the texts it embedded, and during the route stage
how many of them are master questions. Spans stay in memory until
``write`` puts them in a JSONL file, one span a line, all with the run id.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # Master question texts while the route stage runs; embed spans count
        # how many of their texts are master questions.
        self.master_texts: frozenset[str] = frozenset()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "name": name}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    def _embed_attrs(self, embedder, texts, *args, **kwargs) -> dict:
        attrs = {"texts": len(texts)}
        if self.master_texts:
            attrs["master_texts"] = sum(text in self.master_texts for text in texts)
        return attrs

    def install(self) -> None:
        """Patch every traced call in the imported ``bulletsum`` modules."""
        from bulletsum import generator, metrics, pipeline, retrieval, services

        for attr, name, attrs in (
            ("load_corpus", "corpus.load", None),
            ("build_question_bank", "qbank.build", None),
            ("fit_lda", "topics.fit_lda", None),
            ("topic_keywords", "topics.keywords", None),
            ("categorize_questions", "topics.categorize", None),
            ("build_context", "retrieval.build_context", None),
            ("detect_topics", "router.detect", None),
            ("select_questions", "router.select", None),
        ):
            setattr(pipeline, attr, self.wrap(name, getattr(pipeline, attr), attrs))
        for attr, name in (
            ("build_prompt", "generator.prompt"),
            ("generate", "generator.generate"),
            ("export_finetune_dataset", "generator.export"),
        ):
            setattr(generator, attr, self.wrap(name, getattr(generator, attr)))
        metrics.evaluate_corpus = self.wrap("metrics.eval", metrics.evaluate_corpus)

        tfidf = retrieval.TfidfEmbedder
        tfidf.__init__ = self.wrap("retrieval.embedder_fit", tfidf.__init__)
        tfidf.embed = self.wrap("retrieval.embed", tfidf.embed, self._embed_attrs)
        services.EmbeddingClient.embed = self.wrap(
            "services.embed", services.EmbeddingClient.embed, self._embed_attrs
        )
        services.QGClient.question = self.wrap("services.question", services.QGClient.question)
        services.GenerationClient.generate = self.wrap(
            "services.generate", services.GenerationClient.generate
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps({"run": self.run_id, **record}, sort_keys=True) + "\n")
