import hashlib
import json
from pathlib import Path

import pytest

from bulletsum.cli import main
from bulletsum.config import PipelineConfig
from bulletsum.errors import ConfigInvalid

FAST_FLAGS = ["--num-topics", "6", "--lda-iters", "60", "--keywords-per-topic", "4"]


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
        with pytest.raises(ConfigInvalid):
            PipelineConfig(k=0)
        with pytest.raises(ConfigInvalid):
            PipelineConfig(max_input_tokens=-5)

    def test_env_urls_override_file_values(self):
        config = PipelineConfig(embed_url="http://from-file")
        resolved = config.with_env_urls(
            {"BULLETSUM_EMBED_URL": "http://from-env"}
        )
        assert resolved.embed_url == "http://from-env"
        assert config.embed_url == "http://from-file"

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

    def test_corrupt_artifact(self, tmp_path, synthetic_dirs, capsys):
        transcripts, summaries = synthetic_dirs
        workspace = tmp_path / "ws"
        assert _run(["ingest", "--workspace", workspace, "--transcripts", transcripts,
                     "--summaries", summaries]) == 0
        split_path = workspace / "ingest" / "split.json"
        split_path.write_text('{"train": [')
        error = self._error(_run(["qgen", "--workspace", workspace]), capsys)
        assert error["error"] == "IoError"
        assert str(split_path) in error["message"]

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
