import hashlib
import json
import math
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from bulletsum.cli import build_parser, main, resolve_config
from bulletsum.config import PipelineConfig
from bulletsum.errors import ConfigInvalid
from bulletsum.generator import DEFAULT_INSTRUCTION
from bulletsum.pipeline import STAGES
from bulletsum.retrieval import ExtractiveContext, TfidfEmbedder, build_context, entry_cosines
from bulletsum.text import tokenize

from test_services import dead_port

FAST_FLAGS = ["--num-topics", "6", "--lda-iters", "60", "--keywords-per-topic", "4"]
README = Path(__file__).resolve().parents[1] / "README.md"

# The flags the CLI has always had: their spelling, value and meaning are fixed.
PINNED_FLAGS = [
    ("--k", "5", "k", 5),
    ("--num-topics", "6", "num_topics", 6),
    ("--keywords-per-topic", "4", "keywords_per_topic", 4),
    ("--q-per-topic", "3", "q_per_topic", 3),
    ("--lda-iters", "60", "lda_iters", 60),
    ("--lda-seed", "9", "lda_seed", 9),
    ("--split-seed", "11", "split_seed", 11),
    ("--max-input-tokens", "100", "max_input_tokens", 100),
    ("--max-new-tokens", "50", "max_new_tokens", 50),
    ("--instruction-file", "i.txt", "instruction_file", "i.txt"),
    ("--separator", " || ", "separator", " || "),
    ("--stopword-file", "s.txt", "stopword_file", "s.txt"),
    ("--qg-fallback", None, "qg_fallback", True),
    ("--fallback-on-empty-detection", None, "fallback_on_empty_detection", True),
]

# A value unlike every default, for each non-bool field type.
FLAG_VALUES = {int: ("4", 4), float: ("0.5", 0.5), str: ("text", "text")}


def _tree_digest(root: Path) -> dict:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def _run(args):
    return main([str(a) for a in args])


def _without_keywords(text: str) -> str:
    model = json.loads(text)
    del model["keywords"]
    return json.dumps(model)


def _without_iterations(text: str) -> str:
    model = json.loads(text)
    del model["iterations"]
    return json.dumps(model)


def _with_train_doc(part: str, value):
    """An edit that sets one train document's transcript or summary to ``value``."""

    def edit(text: str) -> str:
        corpus = json.loads(text)
        corpus[part]["acme_semiconductor"] = value  # a train id under the default split
        return json.dumps(corpus)

    return edit


def _with_ghost_train_id(text: str) -> str:
    split = json.loads(text)
    split["train"].append("ghost")
    return json.dumps(split)


def _with_train_id_in(part: str, value=None):
    """An edit that appends ``value`` to a split part; by default the first train id."""

    def edit(text: str) -> str:
        split = json.loads(text)
        split[part].append(split["train"][0] if value is None else value)
        return json.dumps(split)

    return edit


def _not_utf8(text: str) -> bytes:
    return text.encode("utf-8") + b"\xff\xfe"


def _predictions_not_lists(text: str) -> str:
    return json.dumps({doc_id: 5 for doc_id in json.loads(text)})


def _with_first_context(change):
    """An edit that applies ``change`` to the first record of a contexts.jsonl."""

    def edit(text: str) -> str:
        first, *rest = text.splitlines()
        record = json.loads(first)
        change(record)
        return "\n".join([json.dumps(record), *rest]) + "\n"

    return edit


def _with_json(change):
    """An edit that applies ``change`` to the data of a JSON artifact."""

    def edit(text: str) -> str:
        data = json.loads(text)
        change(data)
        return json.dumps(data)

    return edit


def _with_first_master(key: str, value):
    """An edit that sets ``key`` of a question bank's first master question."""
    return _with_json(lambda bank: bank["master"][0].__setitem__(key, value))


def _with_first_per_doc(key: str, value):
    """An edit that sets ``key`` of the first question of a bank's first document."""
    return _with_json(lambda bank: next(iter(bank["per_doc"].values()))[0].__setitem__(key, value))


def _with_first_keyword(value):
    """An edit that replaces the first keyword of a topic model's first topic."""
    return _with_json(lambda model: next(iter(model["keywords"].values())).__setitem__(0, value))


def _with_first_selection(key: str, value):
    """A change that sets ``key`` of a context record's first selection."""
    return lambda record: record["selections"][0].__setitem__(key, value)


def _with_doc_id(value):
    return lambda record: record.__setitem__("doc_id", value)


def _tamper_context_text(record: dict) -> None:
    record["context_text"] = "tampered"


def _stray_selection(record: dict) -> None:
    record["selections"][0]["position"] = 9999


class TestConfig:
    def test_defaults_are_paper_constants(self):
        config = PipelineConfig()
        assert config.k == 3
        assert config.num_topics == 30
        assert config.max_input_tokens == 128
        assert config.max_new_tokens == 60

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            PipelineConfig.from_dict({"num_topic": 10})

    def test_knobs_must_be_positive(self):
        for name, value in (
            ("k", 0),
            ("max_input_tokens", -5),
            ("lda_alpha", 0),
            ("lda_beta", -1),
            ("lda_seed", 0),
            ("lda_alpha", math.nan),
            ("lda_beta", math.inf),
        ):
            with pytest.raises(ConfigInvalid, match=name):
                PipelineConfig(**{name: value})

    def test_env_urls_override_file_values(self):
        config = PipelineConfig(embed_url="http://from-file", qg_url="http://qg-file")
        resolved = config.with_env_urls(
            {
                "BULLETSUM_EMBED_URL": "http://from-env",
                "BULLETSUM_QG_URL": "",
                "BULLETSUM_GENERATE_URL": "http://generate-env",
            }
        )
        assert resolved.embed_url == "http://from-env"
        assert resolved.qg_url == "http://qg-file"
        assert resolved.generate_url == "http://generate-env"
        assert config.embed_url == "http://from-file"
        assert config.with_env_urls({"BULLETSUM_QG_URL": "http://qg-env"}).qg_url == (
            "http://qg-env"
        )

    @pytest.mark.parametrize("field", fields(PipelineConfig), ids=lambda f: f.name)
    def test_every_field_is_a_flag(self, field, tmp_path):
        hint = typing.get_type_hints(PipelineConfig)[field.name]
        argv = ["qgen", "--workspace", str(tmp_path), "--" + field.name.replace("_", "-")]
        if hint is bool:
            expected = True
        else:
            (value_type,) = set(typing.get_args(hint) or (hint,)) - {type(None)}
            text, expected = FLAG_VALUES[value_type]
            argv.append(text)
        value = getattr(resolve_config(build_parser().parse_args(argv)), field.name)
        assert value == expected
        assert type(value) is type(expected)

    def test_pinned_flags_parse_as_before(self, tmp_path):
        argv = ["qgen", "--workspace", str(tmp_path)]
        for flag, text, _, _ in PINNED_FLAGS:
            argv += [flag] if text is None else [flag, text]
        config = resolve_config(build_parser().parse_args(argv))
        expected = {name: value for _, _, name, value in PINNED_FLAGS}
        assert {name: getattr(config, name) for name in expected} == expected

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BULLETSUM_EMBED_URL", "http://from-env")
        argv = ["route", "--workspace", str(tmp_path), "--embed-url", "http://from-flag"]
        assert resolve_config(build_parser().parse_args(argv)).embed_url == "http://from-flag"
        argv = ["route", "--workspace", str(tmp_path)]
        assert resolve_config(build_parser().parse_args(argv)).embed_url == "http://from-env"

    def test_readme_table_lists_every_field(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration\n", 1)[1].split("\n#", 1)[0]
        table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
        missing = [f.name for f in fields(PipelineConfig) if f"`{f.name}`" not in table]
        assert missing == []

    def test_overrides_win_and_none_ignored(self):
        config = PipelineConfig(k=5).with_overrides(k=7, num_topics=None)
        assert config.k == 7
        assert config.num_topics == 30

    def test_hash_stable_and_sensitive(self):
        assert PipelineConfig().hash() == PipelineConfig().hash()
        assert PipelineConfig().hash() != PipelineConfig(k=4).hash()


class TestStages:
    def test_full_run_produces_report(self, tmp_path, synthetic_dirs):
        workspace = tmp_path / "ws"
        transcripts, summaries = synthetic_dirs
        code = _run(
            ["run", "--workspace", workspace, "--transcripts", transcripts,
             "--summaries", summaries, *FAST_FLAGS]
        )
        assert code == 0
        report = json.loads((workspace / "eval" / "report.json").read_text())
        for key in ("rouge1", "rouge2", "rougeL"):
            assert 0.0 <= report[key]["f1"] <= 1.0
        assert 0.0 <= report["num_prec"] <= 1.0
        assert (workspace / "extract" / "finetune_spec.json").is_file()

    def test_run_equals_sequential_stages(self, tmp_path, synthetic_dirs):
        transcripts, summaries = synthetic_dirs
        ws_run = tmp_path / "ws_run"
        ws_seq = tmp_path / "ws_seq"
        assert _run(["run", "--workspace", ws_run, "--transcripts", transcripts,
                     "--summaries", summaries, *FAST_FLAGS]) == 0
        for stage in ("ingest", "qgen", "topics", "extract", "route", "generate", "eval"):
            assert _run([stage, "--workspace", ws_seq, "--transcripts", transcripts,
                         "--summaries", summaries, *FAST_FLAGS]) == 0
        assert _tree_digest(ws_run) == _tree_digest(ws_seq)

    def test_stage_without_upstream_artifact(self, tmp_path, capsys):
        code = _run(["topics", "--workspace", tmp_path / "empty_ws"])
        assert code != 0
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "MissingArtifact"
        assert error["stage"] == "topics"

    def test_eval_alignment_error_surfaces_ids(self, tmp_path, synthetic_dirs, capsys):
        workspace = tmp_path / "ws"
        transcripts, summaries = synthetic_dirs
        assert _run(["run", "--workspace", workspace, "--transcripts", transcripts,
                     "--summaries", summaries, *FAST_FLAGS]) == 0
        predictions_path = workspace / "generate" / "predictions.json"
        predictions = json.loads(predictions_path.read_text())
        renamed = {f"wrong_{k}" if i == 0 else k: v
                   for i, (k, v) in enumerate(sorted(predictions.items()))}
        predictions_path.write_text(json.dumps(renamed))
        code = _run(["eval", "--workspace", workspace])
        assert code != 0
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "AlignmentError"
        assert any(doc_id.startswith("wrong_") for doc_id in error["offending_ids"])

    def test_ingest_requires_directories(self, tmp_path, capsys):
        code = _run(["ingest", "--workspace", tmp_path / "ws"])
        assert code != 0
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "MissingArtifact"

    def test_invalid_config_value(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k": 0}))
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--config", config_path])
        assert code != 0
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ConfigInvalid"

    def _error(self, code, capsys) -> dict:
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    def test_empty_separator_rejected(self, tmp_path, capsys):
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--separator", ""])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"
        assert "separator" in error["message"]

    def test_wrong_typed_config_value(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"lda_beta": "0.01"}))
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--config", config_path])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"
        assert "lda_beta" in error["message"]

    def test_lda_iters_beyond_the_compiled_sampler_rejected(self, tmp_path, synthetic_dirs, capsys):
        # 2**32 + 20 would wrap to 20 sweeps in the kernel's C int.
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        for stage in ("ingest", "qgen"):
            assert _run([stage, "--workspace", workspace, "--transcripts", transcripts,
                         "--summaries", summaries, *FAST_FLAGS]) == 0
        code = _run(["topics", "--workspace", workspace, *FAST_FLAGS,
                     "--lda-iters", str(2**32 + 20)])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"
        assert error["stage"] == "topics"
        assert "lda_iters" in error["message"]
        assert not (workspace / "topics").exists()

    def test_config_file_not_utf8(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"k": 5}\xff\xfe')
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--config", config_path])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"

    def test_config_file_nested_too_deeply(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000 + "]" * 100_000)
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--config", config_path])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"
        assert "not valid JSON" in error["message"]

    @pytest.mark.parametrize(
        "artifact, edit, stage",
        [
            ("ingest/split.json", lambda _: '{"train": [', "qgen"),
            ("ingest/split.json", lambda _: '{"train": []}', "qgen"),
            ("ingest/corpus.json", lambda _: "[]", "qgen"),
            ("ingest/corpus.json", _with_train_doc("transcripts", []), "extract"),
            ("ingest/corpus.json", _with_train_doc("summaries", []), "qgen"),
            ("ingest/corpus.json", _with_train_doc("transcripts", "revenue rose"), "extract"),
            ("ingest/corpus.json", _with_train_doc("summaries", [5]), "qgen"),
            ("topics/topic_model.json", _without_keywords, "route"),
            ("topics/topic_model.json", _without_iterations, "route"),
            ("ingest/split.json", _with_ghost_train_id, "qgen"),
            ("ingest/split.json", _with_train_id_in("train", ["x"]), "qgen"),
            ("ingest/split.json", _with_train_id_in("test"), "qgen"),
            ("ingest/split.json", _not_utf8, "qgen"),
            ("ingest/split.json", lambda _: "[" * 100_000 + "]" * 100_000, "qgen"),
            ("route/contexts.jsonl", _not_utf8, "generate"),
            ("generate/predictions.json", _predictions_not_lists, "eval"),
            ("route/contexts.jsonl", _with_first_context(_tamper_context_text), "generate"),
            ("route/contexts.jsonl", _with_first_context(_stray_selection), "generate"),
            ("topics/question_bank.json", _with_first_master("text", 5), "route"),
            ("topics/question_bank.json", _with_first_master("text", {"a": 1}), "route"),
            ("topics/question_bank.json", _with_first_master("topics", "abc"), "route"),
            ("topics/topic_model.json", _with_first_keyword({"a": 1}), "route"),
            ("topics/topic_model.json", _with_first_keyword(7), "route"),
            ("qgen/question_bank.json", _with_first_per_doc("text", 5), "extract"),
            ("qgen/question_bank.json", _with_first_master("text", True), "topics"),
            ("route/contexts.jsonl", _with_first_context(_with_doc_id(None)), "generate"),
            ("route/contexts.jsonl", _with_first_context(_with_doc_id({})), "generate"),
            ("ingest/split.json", _with_json(lambda split: split.__setitem__("seed", "")), "qgen"),
            ("route/contexts.jsonl", _with_first_context(_with_first_selection("score", "x")),
             "generate"),
            ("route/contexts.jsonl", _with_first_context(_with_first_selection("question", 0)),
             "generate"),
            ("route/contexts.jsonl", _with_first_context(_with_first_selection("rank", None)),
             "generate"),
            ("topics/topic_model.json", _with_json(lambda model: model["vocab"].__setitem__(0, 1)),
             "route"),
            ("topics/topic_model.json",
             _with_json(lambda model: model["phi"][0].__setitem__(0, None)), "route"),
            ("topics/topic_model.json", _with_json(lambda model: model.__setitem__("extra", 1)),
             "route"),
            ("ingest/corpus.json", _with_json(lambda corpus: corpus.__setitem__("extra", {})),
             "qgen"),
            ("topics/question_bank.json", _with_json(lambda bank: bank.__setitem__("extra", [])),
             "route"),
        ],
        ids=[
            "truncated-split",
            "split-without-val",
            "corpus-list",
            "corpus-empty-transcript",
            "corpus-empty-summary",
            "corpus-transcript-string",
            "corpus-bullet-number",
            "model-without-keywords",
            "model-without-iterations",
            "split-unknown-id",
            "split-unhashable-id",
            "split-overlapping-parts",
            "split-not-utf8",
            "split-nested-too-deeply",
            "contexts-not-utf8",
            "predictions-not-lists",
            "context-text-tampered",
            "selection-outside-context",
            "master-text-int",
            "master-text-object",
            "master-topics-string",
            "keyword-object",
            "keyword-int",
            "per-doc-text-int",
            "qgen-master-text-bool",
            "context-doc-id-null",
            "context-doc-id-object",
            "split-seed-string",
            "selection-score-string",
            "selection-question-int",
            "selection-rank-null",
            "vocab-entry-int",
            "phi-entry-null",
            "model-extra-key",
            "corpus-extra-key",
            "bank-extra-key",
        ],
    )
    def test_corrupt_artifact(self, tmp_path, synthetic_dirs, capsys, artifact, edit, stage):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        order = list(STAGES)
        for name in order[: order.index(stage)]:
            assert _run([name, "--workspace", workspace, "--transcripts", transcripts,
                         "--summaries", summaries, *FAST_FLAGS]) == 0
        path = workspace / artifact
        edited = edit(path.read_text(encoding="utf-8"))
        path.write_bytes(edited if isinstance(edited, bytes) else edited.encode("utf-8"))
        error = self._error(_run([stage, "--workspace", workspace]), capsys)
        assert error["error"] == "IoError"
        assert error["stage"] == stage
        assert str(path) in error["message"]

    @pytest.mark.parametrize("fallback", [False, True])
    def test_route_with_no_topic_detected(self, tmp_path, synthetic_dirs, capsys, fallback):
        """A test document with no topic keyword fails, or falls back to the master list."""
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        for stage in ("ingest", "qgen", "topics"):
            assert _run([stage, "--workspace", workspace, "--transcripts", transcripts,
                         "--summaries", summaries, *FAST_FLAGS]) == 0
        corpus_path = workspace / "ingest" / "corpus.json"
        corpus = json.loads(corpus_path.read_text(encoding="utf-8"))
        doc_id = json.loads((workspace / "ingest" / "split.json").read_text())["test"][0]
        sentences = ["Good morning and welcome to the call.", "Operator, please go ahead."]
        corpus["transcripts"][doc_id] = sentences
        corpus_path.write_text(json.dumps(corpus), encoding="utf-8")
        model = json.loads((workspace / "topics" / "topic_model.json").read_text())
        keywords = {word for words in model["keywords"].values() for word in words}
        assert keywords.isdisjoint(tokenize(" ".join(sentences)))

        flags = ["--fallback-on-empty-detection"] if fallback else []
        code = _run(["route", "--workspace", workspace, *FAST_FLAGS, *flags])
        if not fallback:
            error = self._error(code, capsys)
            assert error["error"] == "NoTopicsDetected"
            assert doc_id in error["message"]
            return
        assert code == 0
        contexts = [json.loads(line) for line in
                    (workspace / "route" / "contexts.jsonl").read_text().splitlines()]
        routed = next(c for c in contexts if c["doc_id"] == doc_id)
        master = [q["text"] for q in json.loads(
            (workspace / "topics" / "question_bank.json").read_text())["master"]]
        embedder = TfidfEmbedder([sentences], [master])
        scores = entry_cosines(*embedder.embed(master, embedder.queries()))
        expected = build_context(doc_id, sentences, master, scores, PipelineConfig().k)
        assert ExtractiveContext.from_dict(routed) == expected

    def test_empty_transcript_names_file(self, tmp_path, capsys):
        transcripts, summaries = tmp_path / "ects", tmp_path / "gts"
        transcripts.mkdir()
        summaries.mkdir()
        (transcripts / "acme.txt").write_text(" \n")
        (summaries / "acme.txt").write_text("revenue rose 5%.\n")
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--transcripts", transcripts,
                     "--summaries", summaries])
        error = self._error(code, capsys)
        assert error["error"] == "EmptyDocument"
        assert str(transcripts / "acme.txt") in error["message"]

    @pytest.mark.parametrize("bad", ["transcripts", "summaries"])
    def test_non_utf8_input_names_file(self, tmp_path, capsys, bad):
        dirs = {name: tmp_path / name for name in ("transcripts", "summaries")}
        for directory in dirs.values():
            directory.mkdir()
            (directory / "acme.txt").write_text("revenue rose 5%.\n", encoding="utf-8")
        (dirs[bad] / "acme.txt").write_bytes(b"revenue rose \xff\xfe 5%.\n")
        code = _run(["ingest", "--workspace", tmp_path / "ws", "--transcripts",
                     dirs["transcripts"], "--summaries", dirs["summaries"]])
        error = self._error(code, capsys)
        assert error["error"] == "IoError"
        assert str(dirs[bad] / "acme.txt") in error["message"]

    @pytest.mark.parametrize(
        "stage, flag, content, expected",
        [
            ("topics", "--stopword-file", None, "MissingArtifact"),
            ("topics", "--stopword-file", b"revenue\n\xff\xfe\n", "IoError"),
            ("extract", "--instruction-file", b"Summarize \xff\xfe\n", "IoError"),
            ("extract", "--instruction-file", b" \n\t\n", "EmptyDocument"),
        ],
        ids=[
            "stopwords-missing", "stopwords-not-utf8", "instruction-not-utf8", "instruction-blank"
        ],
    )
    def test_unreadable_input_file(
        self, tmp_path, synthetic_dirs, capsys, stage, flag, content, expected
    ):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        order = list(STAGES)
        for name in order[: order.index(stage)]:
            assert _run([name, "--workspace", workspace, "--transcripts", transcripts,
                         "--summaries", summaries, *FAST_FLAGS]) == 0
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        error = self._error(_run([stage, "--workspace", workspace, flag, path]), capsys)
        assert error["error"] == expected
        assert error["stage"] == stage
        assert str(path) in error["message"]

    def test_more_keywords_than_vocabulary(self, tmp_path, synthetic_dirs, capsys):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        flags = ["--num-topics", "5", "--lda-iters", "20"]
        for stage in ("ingest", "qgen", "topics"):
            assert _run([stage, "--workspace", workspace, "--transcripts", transcripts,
                         "--summaries", summaries, *flags]) == 0
        published = _tree_digest(workspace)
        vocab = json.loads((workspace / "topics" / "topic_model.json").read_text())["vocab"]
        code = _run(["topics", "--workspace", workspace, *flags, "--keywords-per-topic", "100000"])
        error = self._error(code, capsys)
        assert error["error"] == "ConfigInvalid"
        assert "keywords_per_topic" in error["message"]
        assert f"vocabulary size {len(vocab)}" in error["message"]
        assert _tree_digest(workspace) == published

    @pytest.mark.parametrize("service", [False, True], ids=["mock", "dead-service"])
    def test_budget_without_room_for_context(self, tmp_path, synthetic_dirs, capsys, service):
        """A max_input_tokens within the instruction fails before any generation request."""
        transcripts, summaries = synthetic_dirs
        flags = ["--generate-url", f"http://127.0.0.1:{dead_port()}"] if service else []
        code = _run(["run", "--workspace", tmp_path / "ws", "--transcripts", transcripts,
                     "--summaries", summaries, *FAST_FLAGS, "--max-input-tokens", "1", *flags])
        error = self._error(code, capsys)
        assert (error["error"], error["stage"]) == ("ConfigInvalid", "run")
        assert "max_input_tokens" in error["message"]
        assert f"instruction's {len(DEFAULT_INSTRUCTION.split())} whitespace" in error["message"]
        assert not (tmp_path / "ws" / "generate").exists()

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    def test_workspace_that_is_not_a_directory(self, tmp_path, synthetic_dirs, capsys, nested):
        transcripts, summaries = synthetic_dirs
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        workspace = blocker / "ws" if nested else blocker
        code = _run(["ingest", "--workspace", workspace, "--transcripts", transcripts,
                     "--summaries", summaries])
        error = self._error(code, capsys)
        assert error["error"] == "IoError"
        assert error["stage"] == "ingest"
        assert str(workspace) in error["message"]
        assert blocker.read_text() == "not a directory"

    def test_flags_override_config_file(self, tmp_path, synthetic_dirs):
        transcripts, summaries = synthetic_dirs
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k": 5, "split_seed": 3}))
        workspace = tmp_path / "ws"
        assert _run(["ingest", "--workspace", workspace, "--config", config_path,
                     "--transcripts", transcripts, "--summaries", summaries,
                     "--k", "7"]) == 0
        emitted = json.loads((workspace / "ingest" / "config.json").read_text())
        assert emitted["config"]["k"] == 7
        assert emitted["config"]["split_seed"] == 3

    def test_master_seed_flag_sets_both_seeds(self, tmp_path, synthetic_dirs):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        assert _run(["ingest", "--workspace", workspace, "--transcripts", transcripts,
                     "--summaries", summaries, "--seed", "123"]) == 0
        emitted = json.loads((workspace / "ingest" / "config.json").read_text())
        assert emitted["config"]["split_seed"] == 123
        assert emitted["config"]["lda_seed"] == 123

    def test_stage_reruns_are_byte_identical(self, tmp_path, synthetic_dirs):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        args = ["ingest", "--workspace", workspace, "--transcripts", transcripts,
                "--summaries", summaries]
        assert _run(args) == 0
        first = _tree_digest(workspace)
        assert _run(args) == 0
        assert _tree_digest(workspace) == first

    def test_qgen_report_records_actual_master_count(self, tmp_path, synthetic_dirs):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        assert _run(["ingest", "--workspace", workspace, "--transcripts", transcripts,
                     "--summaries", summaries]) == 0
        assert _run(["qgen", "--workspace", workspace]) == 0
        report = json.loads((workspace / "qgen" / "report.json").read_text())
        bank = json.loads((workspace / "qgen" / "question_bank.json").read_text())
        assert report["master_size"] == len(bank["master"])
        assert report["generator"] == "builtin"
