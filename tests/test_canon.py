"""Canonical JSON: the shared encoder's bytes against the stdlib
encoder's, what it refuses, and the observation envelope the tick loop
wraps around an encoded `data`."""

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
    assert sim._Envelope().sorted_texts([doc], tick) == [(canonical_json(doc), doc)]


@given(st.lists(st.tuples(JSON_VALUES, st.sampled_from(["a", "b\"", "\u00e9"]) | KINDS), max_size=6), TICKS)
@settings(max_examples=100, deadline=None)
def test_a_batch_sorts_by_the_whole_doc_text(pairs, tick):
    batch = [{"data": data, "kind": kind, "tick": tick} for data, kind in pairs]
    envelope = sim._Envelope()
    expected = sorted(((canonical_json(doc), doc) for doc in batch), key=lambda pair: pair[0])
    assert envelope.sorted_texts(batch, tick) == expected
    assert envelope.sorted_texts(batch, tick) == expected  # the kinds' envelopes now cached


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_in_the_data_is_refused_in_the_envelope(bad):
    with pytest.raises(ValueError):
        sim._Envelope().sorted_texts([{"data": {"x": [bad]}, "kind": "k", "tick": 3}], 3)
