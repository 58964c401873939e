import json

import pytest

from bulletsum.errors import EmptyContext, EmptyGeneration, MalformedPrompt
from bulletsum.generator import (
    FineTuneSpec,
    MockGenClient,
    PromptTemplate,
    build_prompt,
    export_finetune_dataset,
    generate,
    mock_generate,
)
from bulletsum.retrieval import ExtractiveContext, Sentence


def _context(doc_id, texts):
    sentences = [Sentence(position=i, text=t) for i, t in enumerate(texts)]
    return ExtractiveContext(doc_id=doc_id, selections=[], context_sentences=sentences)


class TestBuildPrompt:
    def test_concatenation_contract(self):
        template = PromptTemplate(instruction="I", separator="\n\n")
        prompt = build_prompt(template, _context("d", ["a.", "b."]))
        assert prompt == "I\n\na. b."

    def test_instruction_prefix_and_single_separator(self):
        template = PromptTemplate()
        prompt = build_prompt(template, _context("d", ["alpha.", "beta."]))
        assert prompt.startswith(template.instruction)
        assert prompt.count(template.separator) == 1

    def test_truncation_to_token_limit(self, caplog):
        template = PromptTemplate(instruction="summarize this")
        long_context = _context("d", [" ".join(f"w{i}" for i in range(300)) + "."])
        with caplog.at_level("WARNING"):
            prompt = build_prompt(template, long_context, max_input_tokens=128)
        assert len(prompt.split()) == 128
        assert any("truncated" in r.message for r in caplog.records)

    def test_short_context_not_truncated(self, caplog):
        with caplog.at_level("WARNING"):
            prompt = build_prompt(PromptTemplate(), _context("d", ["short text."]))
        assert "short text." in prompt
        assert not caplog.records

    def test_budget_must_leave_room_for_context(self):
        template = PromptTemplate(instruction="summarize this")
        with pytest.raises(ValueError, match="instruction's 2 whitespace tokens, got 2"):
            build_prompt(template, _context("d", ["a b."]), max_input_tokens=2)
        assert build_prompt(template, _context("d", ["a b."]), max_input_tokens=3).endswith("\n\na")

    def test_empty_context(self):
        with pytest.raises(EmptyContext):
            build_prompt(PromptTemplate(), _context("d", []))

    def test_empty_instruction_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(instruction="")


class TestMockGenerate:
    def _prompt(self, texts, template=PromptTemplate()):
        return build_prompt(template, _context("d", texts), max_input_tokens=500)

    def test_two_sentences_two_bullets(self):
        prompt = self._prompt(["revenue rose 5%.", "profit fell 3%."])
        bullets = mock_generate(prompt, PromptTemplate())
        assert bullets == ["revenue rose 5%.", "profit fell 3%."]

    def test_capped_at_four_bullets(self):
        prompt = self._prompt([f"sentence number {i} stands alone." for i in range(10)])
        assert len(mock_generate(prompt, PromptTemplate())) == 4

    def test_long_sentence_clipped_to_twelve_tokens(self):
        long_sentence = " ".join(f"tok{i}" for i in range(30)) + "."
        bullets = mock_generate(self._prompt([long_sentence]), PromptTemplate())
        assert len(bullets[0].split()) == 12

    def test_missing_separator(self):
        with pytest.raises(MalformedPrompt):
            mock_generate("no separator here", PromptTemplate())

    def test_other_instruction_rejected(self):
        prompt = self._prompt(["revenue rose 5%."], PromptTemplate(instruction="other"))
        with pytest.raises(MalformedPrompt):
            mock_generate(prompt, PromptTemplate())

    def test_separator_inside_instruction(self):
        template = PromptTemplate(separator=" ")
        prompt = self._prompt(["revenue rose 5%.", "profit fell 3%."], template)
        assert mock_generate(prompt, template) == ["revenue rose 5%.", "profit fell 3%."]
        client = MockGenClient(template)
        assert client.generate(prompt, 60) == "revenue rose 5%.\nprofit fell 3%."

    def test_deterministic(self):
        prompt = self._prompt(["alpha one.", "beta two."])
        assert mock_generate(prompt, PromptTemplate()) == mock_generate(prompt, PromptTemplate())


class _StubClient:
    def __init__(self, text):
        self.text = text

    def generate(self, prompt, max_new_tokens):
        return self.text


class TestGenerate:
    def test_blank_lines_dropped(self):
        bullets = generate(_StubClient("a\n\nb"), "p", 60)
        assert bullets == ["a", "b"]

    def test_bullets_never_contain_line_breaks(self):
        bullets = generate(_StubClient("one\ntwo\r\nthree"), "p", 60)
        assert all("\n" not in b and "\r" not in b for b in bullets)

    def test_empty_generation(self):
        with pytest.raises(EmptyGeneration):
            generate(_StubClient("\n \n"), "p", 60)

    def test_mock_client_round_trip(self):
        prompt = build_prompt(PromptTemplate(), _context("d", ["rev rose 5%.", "eps was $1."]))
        bullets = generate(MockGenClient(), prompt, 60)
        assert bullets == ["rev rose 5%.", "eps was $1."]


class TestFineTuneExport:
    def test_single_pair_schema(self, tmp_path, make_summary):
        context = _context("a", ["revenue rose 5%."])
        summary = make_summary("a", ["revenue rose 5%.", "eps $1.10."])
        out = export_finetune_dataset(
            [(context, summary)], PromptTemplate(), FineTuneSpec(), tmp_path / "ft.jsonl"
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"instruction", "input", "output"}
        assert record["input"] == "revenue rose 5%."
        assert record["output"] == "revenue rose 5%.\neps $1.10."

    def test_line_count_matches_pairs(self, tmp_path, make_summary):
        pairs = [
            (_context(f"d{i}", [f"sentence {i}."]), make_summary(f"d{i}", [f"bullet {i}."]))
            for i in range(7)
        ]
        out = export_finetune_dataset(pairs, PromptTemplate(), FineTuneSpec(), tmp_path / "ft.jsonl")
        assert len(out.read_text().strip().splitlines()) == 7

    def test_sidecar_training_constants(self, tmp_path, make_summary):
        export_finetune_dataset(
            [(_context("a", ["x."]), make_summary("a", ["y."]))],
            PromptTemplate(),
            FineTuneSpec(),
            tmp_path / "ft.jsonl",
        )
        sidecar = json.loads((tmp_path / "finetune_spec.json").read_text())
        assert sidecar["base_model"] == "flan-t5-large"
        assert sidecar["method"] == "lora"
        assert sidecar["lora_rank"] == 2
        assert sidecar["learning_rate"] == 5e-4
        assert sidecar["epochs"] == 10
        assert sidecar["trainable_fraction"] == 0.0008

    def test_round_trip_identity(self, tmp_path, make_summary):
        pairs = [(_context("a", ["alpha."]), make_summary("a", ["beta."]))]
        out = export_finetune_dataset(pairs, PromptTemplate(), FineTuneSpec(), tmp_path / "ft.jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines() if line]
        rewritten = "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
        assert rewritten == out.read_text()
