"""Pipeline configuration: defaults, file loading, overrides, hashing.

The fields of ``PipelineConfig`` are the one list of settings: the CLI flags,
the positivity check and the environment overrides are derived from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigInvalid
from .records import reader


@dataclass
class PipelineConfig:
    k: int = 3
    num_topics: int = 30
    keywords_per_topic: int = 10
    q_per_topic: int = 2
    lda_iters: int = 1000
    lda_seed: int = 7
    lda_alpha: float | None = None  # None -> 50 / num_topics
    lda_beta: float = 0.01
    split_seed: int = 13
    max_input_tokens: int = 128
    max_new_tokens: int = 60
    qg_url: str | None = None
    embed_url: str | None = None
    generate_url: str | None = None
    instruction_file: str | None = None
    stopword_file: str | None = None
    separator: str = "\n\n"
    qg_fallback: bool = False
    fallback_on_empty_detection: bool = False

    def __post_init__(self):
        annotations = typing.get_type_hints(type(self))
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                reader(annotations[field.name])(value)
            except TypeError:
                raise ConfigInvalid(f"{field.name} must be {field.type}, got {value!r}") from None
            # Every number is a count, a seed or a prior: finite and > 0.
            is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if is_number and not 0 < value < math.inf:
                raise ConfigInvalid(f"{field.name} must be positive and finite, got {value!r}")
        if not self.separator:
            raise ConfigInvalid("separator must be non-empty")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigInvalid(f"config file not found: {path}")
        # A RecursionError is JSON nested too deeply to parse.
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("config file must hold a JSON object")
        return cls.from_dict(data)

    def with_overrides(self, **overrides) -> "PipelineConfig":
        """New config with the given non-None fields replaced (flags win)."""
        data = self.to_dict()
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
        return PipelineConfig.from_dict(data)

    def with_env_urls(self, environ=None) -> "PipelineConfig":
        """Override every ``*_url`` field from ``BULLETSUM_<FIELD>``; empty is unset."""
        environ = os.environ if environ is None else environ
        return self.with_overrides(
            **{
                field.name: environ.get(f"BULLETSUM_{field.name.upper()}") or None
                for field in fields(self)
                if field.name.endswith("_url")
            }
        )

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
