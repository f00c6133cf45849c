"""Canonical JSON: the shared encoder's bytes against the stdlib
encoder's, what it refuses, the flat encoders compiled per shape against
the same reference, on their shape and off it, and the observation
envelope the tick loop wraps around an encoded `data`."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import canon, sim
from flowbench.canon import canonical_json, fingerprint

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.floats(max_value=-1e-12, allow_nan=False, allow_infinity=False),
    st.text(),
    st.text(alphabet="äé中 \U0001f600\"\\\n\t", max_size=8),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_bytes_equal_json_dumps_with_the_canonical_options(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    assert canonical_json(value) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_refused(bad):
    with pytest.raises(ValueError):
        canonical_json({"b": bad})
    with pytest.raises(ValueError):
        canonical_json([[bad]])
    with pytest.raises(ValueError):
        fingerprint({"nested": {"x": bad}})


@pytest.mark.parametrize("bad", [math.nan, math.inf, object()])
def test_a_refused_document_encodes_once_fixed(bad):
    # The one shared encoder marks each container it enters; a failed
    # encode must not leave them marked, or the fixed document would be
    # refused as circular.
    doc = {"i": {"a": 1}, "z": bad}
    with pytest.raises((ValueError, TypeError)):
        canonical_json(doc)
    doc["z"] = 0.0
    assert canonical_json(doc) == '{"i":{"a":1},"z":0.0}'


def test_a_container_holding_itself_is_refused():
    doc = {"a": [1]}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(doc)
    doc["a"].pop()
    assert canonical_json(doc) == '{"a":[1]}'


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_bytes_equal_the_stdlib_encoder_with_the_same_options(value):
    # `_ENCODER.encode` goes through `json`'s Python-level wrapper, which
    # builds a fresh encoder per call: the reference for the one built at import.
    assert canonical_json(value) == canon._ENCODER.encode(value)


# Kinds with quotes, backslashes, control and non-ASCII characters, which
# the envelope must escape as `canonical_json` does.
KINDS = st.one_of(st.text(max_size=8), st.text(alphabet='"\\\x00\x1f\x7f\u2028é中\U0001f600k', max_size=6))
TICKS = st.integers(0, 2**63)


@given(JSON_VALUES, KINDS, TICKS)
@settings(max_examples=200, deadline=None)
def test_the_envelope_text_equals_the_whole_doc_encoded(data, kind, tick):
    doc = {"data": data, "kind": kind, "tick": tick}
    assert sim._Envelope().sorted_texts([(kind, data)], tick) == [(canonical_json(doc), kind, data)]


@given(st.lists(st.tuples(JSON_VALUES, st.sampled_from(["a", "b\"", "\u00e9"]) | KINDS), max_size=6), TICKS)
@settings(max_examples=100, deadline=None)
def test_a_batch_sorts_by_the_whole_doc_text(pairs, tick):
    batch = [(kind, data) for data, kind in pairs]
    envelope = sim._Envelope()
    expected = sorted(
        ((canonical_json({"data": data, "kind": kind, "tick": tick}), kind, data) for kind, data in batch),
        key=lambda encoded: encoded[0],
    )
    assert envelope.sorted_texts(batch, tick) == expected
    assert envelope.sorted_texts(batch, tick) == expected  # the kinds' envelopes now cached


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_in_the_data_is_refused_in_the_envelope(bad):
    with pytest.raises(ValueError):
        sim._Envelope().sorted_texts([("k", {"x": [bad]})], 3)


# Flat dicts, the shape `flat_encoder` compiles for: keys with quotes,
# braces, backslashes, control and non-ASCII characters (lone surrogates
# too), and values at the edges of each type's text.
FLAT_KEYS = st.one_of(st.text(max_size=6), st.text(alphabet='"{}:,\\\x00\x1f\x7f é中\U0001f600\ud800k', max_size=5))
FLAT_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**300),
    st.integers(-(2**300), -(2**63)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e-7, 0.1, 1.7976931348623157e308]),
    st.text(),
    st.text(alphabet='äé中 \U0001f600"\\\n\t\ud800\x7f', max_size=8),
)
FLAT_DICTS = st.dictionaries(FLAT_KEYS, FLAT_VALUES, min_size=1, max_size=8)


class SubInt(int):
    pass


class SubFloat(float):
    pass


class SubStr(str):
    pass


class SubDict(dict):
    pass


@given(FLAT_DICTS)
@settings(max_examples=400, deadline=None)
def test_a_flat_encoder_gives_the_reference_text(doc):
    encode = canon.flat_encoder(doc)
    assert encode(doc) == canon._ENCODER.encode(doc)
    assert encode(dict(reversed(doc.items()))) == canon._ENCODER.encode(doc)  # key order does not matter
    assert canonical_json(doc, encode) == canon._ENCODER.encode(doc)


# For a value of each flat type, a value of another type or a subclass in its place.
NEAR_MISSES = {
    bool: [1, 0, 1.0, "true", SubInt(1), None],
    int: [True, False, 1.0, "1", SubInt(1), 2**80 * 1.0, None],
    float: [1, True, "1.0", SubFloat(1.5), [1.0]],
    str: [1, None, SubStr("x"), {"x": 1}],
}


def _off_shape(doc: dict, draw) -> dict:
    """`doc` off its shape by one thing: an extra, missing or renamed key, or
    one value of the wrong type."""
    keys = sorted(doc)
    key = draw(st.sampled_from(keys))
    change = draw(st.sampled_from(["extra", "missing", "renamed", "value"]))
    off = dict(doc)
    if change == "extra":
        off[draw(FLAT_KEYS.filter(lambda k: k not in doc))] = draw(FLAT_VALUES)
    elif change == "missing":
        del off[key]
    elif change == "renamed":
        off[draw(FLAT_KEYS.filter(lambda k: k not in doc))] = off.pop(key)
    else:
        off[key] = draw(st.sampled_from(NEAR_MISSES[type(doc[key])]))
    return off


@given(FLAT_DICTS, st.data())
@settings(max_examples=400, deadline=None)
def test_an_off_shape_input_gives_none_then_the_reference_text(doc, data):
    encode = canon.flat_encoder(doc)
    for off in (_off_shape(doc, data.draw), SubDict(doc)):
        assert encode(off) is None
        assert canonical_json(off, encode) == canon._ENCODER.encode(off)


@pytest.mark.parametrize(
    "off", [{"f": 1, "i": 1, "s": "x"}, {"f": 1.0, "i": True, "s": "x"}, {"f": 1.0, "i": 1, "s": SubStr("x")},
            {"f": 1.0, "i": SubInt(1), "s": "x"}, {"f": SubFloat(1.0), "i": 1, "s": "x"},
            {"f": 1.0, "i": 1}, {"f": 1.0, "i": 1, "s": "x", "t": "y"}, {"f": 1.0, "i": 1, "t": "x"},
            SubDict(f=1.0, i=1, s="x"), [1.0, 1, "x"], "x", None],
)
def test_each_named_near_miss_gives_none_then_the_reference_text(off):
    encode = canon.flat_encoder({"f": 2.5, "i": 3, "s": "a"})
    assert encode(off) is None
    assert canonical_json(off, encode) == canon._ENCODER.encode(off)


@pytest.mark.parametrize(
    "sample", [{}, {"a": None}, {"a": [1]}, {"a": {"b": 1}}, {1: 2}, {SubStr("a"): 1}, {"a": SubInt(1)},
               {"a": SubFloat(1.0)}, {"a": SubStr("x")}, SubDict(a=1), [("a", 1)], "a", 1, None],
)
def test_only_a_non_empty_dict_of_str_keys_and_flat_values_compiles(sample):
    assert canon.flat_encoder(sample) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_flat_encoder_answers_none_for_a_non_finite_float_which_stays_refused(bad):
    encode = canon.flat_encoder({"f": 1.5, "s": "x"})
    assert encode({"f": bad, "s": "x"}) is None
    with pytest.raises(ValueError):
        canonical_json({"f": bad, "s": "x"}, encode)


def test_a_flat_encoder_keeps_its_keys_out_of_its_source():
    # Keys and their texts are globals of the encoder, never source text.
    encode = canon.flat_encoder({"')\n import os": 1, "b": "x"})
    assert encode({"')\n import os": 2, "b": "y"}) == '{"\')\\n import os":2,"b":"y"}'
    assert "import" not in "".join(map(str, encode.__code__.co_consts))


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), FLAT_DICTS | JSON_VALUES), max_size=8), TICKS)
@settings(max_examples=200, deadline=None)
def test_an_envelope_gives_the_whole_doc_text_whatever_shape_each_kind_starts_with(pairs, tick):
    # Each kind's encoder is learnt from its first doc; later docs of other
    # shapes take the C encoder and give the same text.
    envelope = sim._Envelope()
    for kind, data in pairs:
        doc = {"data": data, "kind": kind, "tick": tick}
        assert envelope.sorted_texts([(kind, data)], tick) == [(canonical_json(doc), kind, data)]
