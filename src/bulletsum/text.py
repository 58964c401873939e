"""Shared text utilities: tokenization, normalization, stop words, text files."""

from __future__ import annotations

import re
import string
from pathlib import Path

from .errors import IoError, MissingArtifact

# Tokens are runs of ASCII letters/digits; decimal points survive only inside
# numbers ("0.97" is one token, "u.s." is ["u", "s"]).
_TOKEN_RE = re.compile(r"[0-9]+(?:\.[0-9]+)+|[a-z0-9]+")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# Standard English stop words plus fillers that dominate generated questions
# (interrogatives and fiscal-calendar markers carry no topical signal).
STANDARD_STOPWORDS = frozenset("""
i me my myself we our ours ourselves you your yours yourself yourselves he him
his himself she her hers herself it its itself they them their theirs
themselves what which who whom this that these those am is are was were be
been being have has had having do does did doing a an the and but if or
because as until while of at by for with about against between into through
during before after above below to from up down in out on off over under
again further then once here there when where why how all any both each few
more most other some such no nor not only own same so than too very s t can
will just don should now
""".split())

QUESTION_STOPWORDS = STANDARD_STOPWORDS | {"q1", "q2", "q3", "q4", "fy", "qtrly"}


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word/number tokens.

    Splits on any character that is not an ASCII letter or digit, except that
    a `.` between digits is kept so decimal values stay intact.
    """
    return _TOKEN_RE.findall(text.lower())


def normalize_text(text: str) -> str:
    """Canonical form for exact-match deduplication.

    Lowercases, strips punctuation characters, and collapses whitespace.
    """
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


# Each byte as "0" where ``str.split`` splits on it (ASCII whitespace, with
# "\x1c" to "\x1f") and "1" elsewhere: a text's words are its runs of "1".
_WORD_BYTES = bytes(ord("0") if chr(byte).isspace() else ord("1") for byte in range(256))


def word_count(text: str) -> int:
    """Whitespace token count, ``len(text.split())``, without making the tokens of ASCII text."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WORD_BYTES)
    return marks.count(b"01") + marks.startswith(b"1")


def read_text_file(path, what: str) -> str:
    """The UTF-8 text of an input file; a missing or unreadable file is a typed error."""
    path = Path(path)
    if not path.is_file():
        raise MissingArtifact(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IoError(f"{what} {path} is not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise IoError(f"could not read {what} {path}: {exc}") from exc


def load_stopwords(path) -> frozenset[str]:
    """Read a stop-word file (one word per line, blank lines ignored)."""
    lines = read_text_file(path, "stopword file").split("\n")
    return frozenset(line.strip().lower() for line in lines if line.strip())
