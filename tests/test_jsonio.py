"""The canonical emitter against its oracle, json.dumps(sort_keys, indent=2)."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statikit.jsonio import dumps

GOLDEN = sorted((Path(__file__).parent / "fixtures" / "golden").glob("*.json"))


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# every code point class the encoder escapes: controls, quotes, backslashes,
# non-ASCII and astral characters (as surrogate pairs)
TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é", " ", "\U0001f600"])
ATOMS = TEXT | st.booleans() | st.none() | st.integers() | st.integers(min_value=10**19, max_value=10**25)
DOCS = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DOCS)
@example({
    "text": "naïve é\t\"q\" \\ \x01 \U0001f600",
    "empty": [[], {}, ()],
    "flags": [True, False, None],
    "big": -123456789012345678901,
    "nested": {"b": [1, {"a": ()}], "a": {}},
})
@example("top")
def test_dumps_matches_json_dumps(obj):
    assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_dumps_reproduces_golden(path):
    text = path.read_text()
    obj = json.loads(text)
    assert dumps(obj) == oracle(obj) == text


@pytest.mark.parametrize("obj", [1.5, {"x": [0.0]}, {1, 2}, [{"a"}], {1: "a"}, {None: "a"}, {"a": {True: 1}}])
def test_dumps_rejects_floats_sets_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        dumps(obj)
