"""Abstractive-stage plumbing: prompts, generation contract, dataset export.

Decoding itself lives behind the generation service; this module owns the
prompt format, the response contract, a deterministic offline mock,
and the export of the instruction-tuning dataset plus its training config.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import EmptyContext, EmptyGeneration, MalformedPrompt
from .retrieval import ExtractiveContext

logger = logging.getLogger(__name__)

DEFAULT_INSTRUCTION = (
    "summarize the following earnings call context into concise bullet points "
    "covering the key financial figures."
)
DEFAULT_SEPARATOR = "\n\n"

MOCK_MAX_BULLETS = 4
MOCK_BULLET_TOKENS = 12

_SENTENCE_END_RE = re.compile(r"(?<=[.?!])\s+")


@dataclass(frozen=True)
class PromptTemplate:
    instruction: str = DEFAULT_INSTRUCTION
    separator: str = DEFAULT_SEPARATOR

    def __post_init__(self):
        if not self.instruction:
            raise ValueError("instruction must be non-empty")


@dataclass(frozen=True)
class FineTuneSpec:
    """Training configuration exported verbatim for the external fine-tuner."""

    base_model: str = "flan-t5-large"
    method: str = "lora"
    lora_rank: int = 2
    learning_rate: float = 5e-4
    epochs: int = 10
    trainable_fraction: float = 0.0008


def build_prompt(
    template: PromptTemplate,
    context: ExtractiveContext,
    max_input_tokens: int = 128,
) -> str:
    """Instruction + separator + context sentences joined by single spaces.

    The context is truncated so the whole prompt stays within
    ``max_input_tokens`` whitespace tokens; truncation is logged, not fatal.
    A ``max_input_tokens`` that leaves no room for context raises ValueError.
    """
    instruction_tokens = len(template.instruction.split())
    if max_input_tokens <= instruction_tokens:
        raise ValueError(
            f"max_input_tokens must be more than the instruction's {instruction_tokens} "
            f"whitespace tokens, got {max_input_tokens}"
        )
    if not context.context_sentences:
        raise EmptyContext(f"document {context.doc_id!r} has an empty context")
    context_tokens = context.context_text.split()
    budget = max_input_tokens - instruction_tokens
    if len(context_tokens) > budget:
        logger.warning(
            "context for %s truncated from %d to %d whitespace tokens",
            context.doc_id,
            len(context_tokens),
            budget,
        )
        context_tokens = context_tokens[:budget]
    return template.instruction + template.separator + " ".join(context_tokens)


def generate(client, prompt: str, max_new_tokens: int) -> list[str]:
    """Generate from ``prompt`` with ``client`` and split the response into bullets.

    The response text is split on line breaks; blank lines are dropped. An
    empty result raises EmptyGeneration.
    """
    text = client.generate(prompt, max_new_tokens)
    bullets = [line.strip() for line in text.splitlines() if line.strip()]
    if not bullets:
        raise EmptyGeneration("generation service returned no usable lines")
    return bullets


def mock_generate(prompt: str, template: PromptTemplate | None = None) -> list[str]:
    """Deterministic offline stand-in for the generation service.

    The context is what follows the template's exact instruction and
    separator; without a template, what follows the first default separator.
    Returns the first four context sentences, each clipped to twelve
    whitespace tokens.
    """
    if template is None:
        _, separator, context_part = prompt.partition(DEFAULT_SEPARATOR)
        if not separator:
            raise MalformedPrompt("prompt does not contain the instruction separator")
    else:
        prefix = template.instruction + template.separator
        if not prompt.startswith(prefix):
            raise MalformedPrompt("prompt does not start with the instruction and separator")
        context_part = prompt[len(prefix) :]
    sentences = [s.strip() for s in _SENTENCE_END_RE.split(context_part) if s.strip()]
    return [
        " ".join(sentence.split()[:MOCK_BULLET_TOKENS])
        for sentence in sentences[:MOCK_MAX_BULLETS]
    ]


class MockGenClient:
    """Generation client that answers locally via ``mock_generate``."""

    def __init__(self, template: PromptTemplate | None = None):
        self.template = template

    def generate(self, prompt: str, max_new_tokens: int) -> str:
        return "\n".join(mock_generate(prompt, self.template))


def export_finetune_dataset(
    pairs: list[tuple[ExtractiveContext, Sequence[str]]],
    template: PromptTemplate,
    spec: FineTuneSpec,
    out,
) -> Path:
    """Write the instruction-tuning JSONL plus the training-config sidecar.

    One record per (context, bullets) pair: instruction, context text as
    input, the reference bullets joined by line breaks as output. The sidecar
    ``finetune_spec.json`` sits next to the dataset file.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for context, bullets in pairs:
            record = {
                "instruction": template.instruction,
                "input": context.context_text,
                "output": "\n".join(bullets),
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    sidecar = out.parent / "finetune_spec.json"
    sidecar.write_text(json.dumps(asdict(spec), indent=2) + "\n", encoding="utf-8")
    return out
