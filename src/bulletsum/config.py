"""Pipeline configuration: defaults, file loading, overrides, hashing."""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigInvalid

# Environment variables that override the service URLs from the config file.
ENV_QG_URL = "BULLETSUM_QG_URL"
ENV_EMBED_URL = "BULLETSUM_EMBED_URL"
ENV_GENERATE_URL = "BULLETSUM_GENERATE_URL"

_POSITIVE_INT_FIELDS = (
    "k",
    "num_topics",
    "keywords_per_topic",
    "q_per_topic",
    "lda_iters",
    "lda_seed",
    "split_seed",
    "max_input_tokens",
    "max_new_tokens",
)


def _has_type(value, annotation) -> bool:
    """Whether a value fits a field annotation such as ``float | None``.

    A bool is not an int, and an int is accepted where a float is expected.
    """
    types = typing.get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in types
    if isinstance(value, int) and float in types:
        return True
    return isinstance(value, types)


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
            if not _has_type(value, annotations[field.name]):
                raise ConfigInvalid(f"{field.name} must be {field.type}, got {value!r}")
        for name in _POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigInvalid(f"{name} must be an integer >= 1, got {value!r}")
        if self.lda_alpha is not None and self.lda_alpha <= 0:
            raise ConfigInvalid(f"lda_alpha must be positive, got {self.lda_alpha!r}")
        if self.lda_beta <= 0:
            raise ConfigInvalid(f"lda_beta must be positive, got {self.lda_beta!r}")
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
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
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
        """Apply service-URL environment overrides."""
        environ = os.environ if environ is None else environ
        data = self.to_dict()
        for env_name, key in (
            (ENV_QG_URL, "qg_url"),
            (ENV_EMBED_URL, "embed_url"),
            (ENV_GENERATE_URL, "generate_url"),
        ):
            if environ.get(env_name):
                data[key] = environ[env_name]
        return PipelineConfig.from_dict(data)

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
