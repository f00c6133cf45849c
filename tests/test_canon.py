"""Canonical JSON: the shared encoder's bytes and what it refuses."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
