import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bulletsum.cli import main
from bulletsum.records import reader

from test_cli import FAST_FLAGS


@dataclass(frozen=True)
class _Point:
    x: float
    label: str | None
    tags: frozenset[str] = frozenset()


@dataclass
class _Shape:
    name: str
    points: list[_Point]
    size: int = field(init=False)

    def __post_init__(self):
        self.size = len(self.points)


class TestReader:
    @pytest.mark.parametrize(
        "annotation, value",
        [
            (str, "a"),
            (int, 3),
            (float, 1.5),
            (float, 2),
            (bool, False),
            (str | None, None),
            (float | None, 1),
            (list[int], [1, 2]),
            (list[list[float]], [[1.0], [2, 3.5]]),
            (dict[str, list[str]], {"a": ["b"], "c": []}),
        ],
    )
    def test_matching_value_read_as_is(self, annotation, value):
        assert reader(annotation)(value) == value
        assert type(reader(annotation)(value)) is type(value)

    @pytest.mark.parametrize(
        "annotation, value",
        [
            (str, 1),
            (str, None),
            (int, True),
            (int, 1.0),
            (int, float("nan")),
            (float, "1.0"),
            (float, False),
            (bool, 0),
            (str | None, 0),
            (list[str], "ab"),
            (list[str], ["a", 1]),
            (list[int], [1, True]),
            (tuple[str, ...], {"a": "b"}),
            (frozenset[str], [["a"]]),
            (dict[str, int], [1]),
            (dict[str, int], {"a": None}),
            (dict[str, list[str]], {"a": ["b", {}]}),
        ],
    )
    def test_mismatch_is_a_type_error(self, annotation, value):
        with pytest.raises(TypeError):
            reader(annotation)(value)

    def test_sequences_become_their_annotation(self):
        assert reader(tuple[str, ...])(["a", "b"]) == ("a", "b")
        assert reader(frozenset[str])(["a", "a"]) == frozenset({"a"})
        assert reader(dict[str, tuple[int, ...]])({"a": [1]}) == {"a": (1,)}

    def test_dataclass_read_through_its_init_fields(self):
        data = {"name": "s", "points": [{"x": 1, "label": None, "tags": ["t"]}], "size": 9}
        shape = reader(_Shape)(data)
        assert shape == _Shape("s", [_Point(1, None, frozenset({"t"}))])
        assert shape.size == 1

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"name": "s", "points": [{"x": 1, "label": 2, "tags": []}]},
             "_Shape: _Point: expected str, got 2"),
            ({"name": "s", "points": [{"x": 1, "label": None}]}, "_Shape: expected _Point"),
            ({"name": "s", "points": [], "extra": 1}, "expected _Shape"),
            ({"name": 5, "points": []}, "_Shape: expected str, got 5"),
            ([], "expected _Shape, got []"),
        ],
    )
    def test_dataclass_mismatch_names_record_and_value(self, data, message):
        with pytest.raises(TypeError) as raised:
            reader(_Shape)(data)
        assert str(raised.value).startswith(message)

    def test_scalar_list_mismatch_names_the_entry(self):
        with pytest.raises(TypeError, match="^expected str, got 3$"):
            reader(dict[str, list[str]])({"a": [], "b": ["x", "y", 3]})

    def test_reader_built_once(self):
        assert reader(list[_Point]) is reader(list[_Point])

    def test_unsupported_annotation(self):
        with pytest.raises(NotImplementedError):
            reader(int | str)


# The workspace artifacts each stage reads.
READS = {
    "qgen": ["ingest/corpus.json", "ingest/split.json"],
    "topics": ["qgen/question_bank.json"],
    "extract": ["ingest/corpus.json", "ingest/split.json", "qgen/question_bank.json"],
    "route": ["ingest/corpus.json", "ingest/split.json", "topics/question_bank.json",
              "topics/topic_model.json"],
    "generate": ["route/contexts.jsonl"],
    "eval": ["ingest/corpus.json", "ingest/split.json", "generate/predictions.json"],
}
READ_PAIRS = [(stage, artifact) for stage, artifacts in READS.items() for artifact in artifacts]
# What a mutated node becomes; DELETE removes it from its parent.
DELETE = object()
MUTANTS = [None, 0, -1, 1.5, True, "", "x", [], [1], {}, {"a": 1}, math.nan, 1e30, DELETE]


def _load(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _dump(path, data) -> None:
    if path.suffix == ".jsonl":
        text = "".join(json.dumps(record) + "\n" for record in data)
    else:
        text = json.dumps(data)
    path.write_text(text, encoding="utf-8")


def _node_paths(data, path=()):
    """The key path of every node of JSON data, the root included."""
    yield path
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, (*path, key))


def _mutated(data, path, mutant):
    if not path:
        return mutant
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if mutant is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutant
    return data


@pytest.fixture(scope="session")
def small_workspace(tmp_path_factory, synthetic_dirs):
    """A full run's workspace on the bundled corpus, and each read artifact's node paths."""
    transcripts, summaries = synthetic_dirs
    workspace = tmp_path_factory.mktemp("mutations") / "ws"
    assert main(["run", "--workspace", str(workspace), "--transcripts", str(transcripts),
                 "--summaries", str(summaries), *FAST_FLAGS]) == 0
    paths = {}
    for _, artifact in READ_PAIRS:
        nodes = list(_node_paths(_load(workspace / artifact)))
        # A JSON-lines file's records can be changed, but not the file as one value.
        paths[artifact] = nodes[1:] if artifact.endswith(".jsonl") else nodes
    return workspace, paths


@settings(max_examples=100, deadline=None)
@given(pair=st.sampled_from(READ_PAIRS), choice=st.data())
def test_mutated_artifact_fails_as_one_json_line(small_workspace, pair, choice):
    """A stage reading an artifact with one node changed or deleted succeeds or fails typed."""
    base, paths = small_workspace
    stage, artifact = pair
    path = choice.draw(st.sampled_from(paths[artifact]), label="node")
    mutant = choice.draw(st.sampled_from(MUTANTS), label="mutant")
    assume(path or mutant is not DELETE)
    with tempfile.TemporaryDirectory(dir=base.parent) as scratch:
        workspace = Path(shutil.copytree(base, Path(scratch) / "ws"))
        target = workspace / artifact
        _dump(target, _mutated(_load(target), path, mutant))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([stage, "--workspace", str(workspace), *FAST_FLAGS])
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1)
    assert len(lines) == code
    if code:
        error = json.loads(lines[0])
        assert error["stage"] == stage
