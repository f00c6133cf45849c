"""Dataset assembly: source discovery, joins, file round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.canon import canonical_json
from flowbench.collection import (
    CollectionError,
    CollectionSpec,
    DatasetFormatError,
    DatasetRow,
    StreamSelect,
    collect,
    discover_sources,
    join,
    read_dataset,
    write_dataset,
)
from flowbench.graph import Category, GraphBuilder, Schema, UnknownElementError
from flowbench.runtime import start
from util_graphs import chain_graph, diamond_graph

RIDE = Schema("ride", (("ride", "int"), ("wait", "float")))
FEAT = Schema("feat", (("ride", "int"), ("dist", "float")))


def _join_graph():
    """Two input streams; the label stream is derived so it sits downstream."""
    b = GraphBuilder()
    b.stream("picks", Category.INPUT, RIDE)
    b.stream("feats", Category.INPUT, FEAT)
    b.stream("waits", Category.OUTPUT, RIDE)
    b.node(
        "track",
        lambda inputs: {"out": [r.as_dict() for r in inputs["p"].new]},
        inputs={"p": "picks", "f": "feats"},
        outputs={"out": "waits"},
    )
    return b.build()


class TestDiscoverSources:
    def test_chain_label_on_output(self):
        assert discover_sources(chain_graph(), "o") == ["i", "s"]

    def test_input_label_has_no_sources(self):
        assert discover_sources(chain_graph(), "i") == []

    def test_diamond_label_sees_only_its_branch(self):
        # Oracle: reverse reachability from o1 picks up s1 and i but not s2.
        assert discover_sources(diamond_graph(), "o1") == ["i", "s1"]

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownElementError):
            discover_sources(chain_graph(), "nope")


def _spec():
    return CollectionSpec(
        label=StreamSelect("waits", ("wait",), "ride"),
        features=(StreamSelect("feats", ("dist",), "ride"),),
        dataset_name="wait_dataset",
    )


class TestCollect:
    def test_single_join(self):
        inst = start(_join_graph())
        inst.inject("picks", {"ride": 1, "wait": 5.0})
        inst.inject("feats", {"ride": 1, "dist": 2.0})
        inst.step()
        rows = collect(inst, _spec())
        assert rows == [DatasetRow(key=1, features={"dist": 2.0}, label={"wait": 5.0})]

    def test_missing_feature_drops_row(self):
        inst = start(_join_graph())
        inst.inject("picks", {"ride": 2, "wait": 1.0})
        inst.step()
        assert collect(inst, _spec()) == []

    def test_rows_follow_label_order_matches_nested_loop_oracle(self):
        inst = start(_join_graph())
        for ride in (3, 1, 2):
            inst.inject("picks", {"ride": ride, "wait": float(ride)})
        for ride in (2, 3):
            inst.inject("feats", {"ride": ride, "dist": 10.0 * ride})
        inst.step()

        labels = [r.as_dict() for r in inst.read("waits", 0)]
        feats = [r.as_dict() for r in inst.read("feats", 0)]
        oracle = [
            DatasetRow(key=l["ride"], features={"dist": f["dist"]}, label={"wait": l["wait"]})
            for l in labels
            for f in feats
            if f["ride"] == l["ride"]
        ]
        assert len(oracle) == 2
        assert collect(inst, _spec()) == oracle

    def test_duplicate_key_in_feature_stream_is_error(self):
        inst = start(_join_graph())
        inst.inject("picks", {"ride": 1, "wait": 5.0})
        inst.inject("feats", {"ride": 1, "dist": 2.0})
        inst.inject("feats", {"ride": 1, "dist": 3.0})
        inst.step()
        with pytest.raises(CollectionError, match="duplicate key"):
            collect(inst, _spec())

    def test_missing_field_is_error(self):
        inst = start(_join_graph())
        bad = CollectionSpec(
            label=StreamSelect("waits", ("wait",), "ride"),
            features=(StreamSelect("feats", ("nope",), "ride"),),
            dataset_name="d",
        )
        with pytest.raises(CollectionError, match="no field"):
            collect(inst, bad)

    def test_repeated_feature_name_rejected_at_spec_construction(self):
        with pytest.raises(CollectionError):
            CollectionSpec(
                label=StreamSelect("waits", ("wait",), "ride"),
                features=(
                    StreamSelect("feats", ("dist",), "ride"),
                    StreamSelect("other", ("dist",), "ride"),
                ),
                dataset_name="d",
            )


def _two_feature_spec():
    return CollectionSpec(
        label=StreamSelect("labels", ("y",), "k"),
        features=(StreamSelect("f1", ("a",), "k"), StreamSelect("f2", ("b", "c"), "k")),
        dataset_name="d",
    )


def _docs(keys, *fields):
    return [{"k": key, **{f: float(i) + len(f) for f in fields}} for i, key in enumerate(keys)]


KEYS = st.lists(st.integers(0, 12), unique=True, max_size=10)


class TestJoin:
    @given(labels=KEYS, f1=KEYS, f2=KEYS)
    @settings(max_examples=60, deadline=None)
    def test_plain_dicts_match_nested_loop_oracle(self, labels, f1, f2):
        label_docs, f1_docs, f2_docs = _docs(labels, "y"), _docs(f1, "a"), _docs(f2, "b", "c")
        oracle = [
            DatasetRow(l["k"], {"a": x["a"], "b": z["b"], "c": z["c"]}, {"y": l["y"]})
            for l in label_docs
            for x in f1_docs
            if x["k"] == l["k"]
            for z in f2_docs
            if z["k"] == l["k"]
        ]
        assert join(_two_feature_spec(), label_docs, [f1_docs, f2_docs]) == oracle

    def test_duplicate_label_key_names_the_label_stream(self):
        labels = _docs([1, 2, 1], "y")
        with pytest.raises(CollectionError, match="duplicate key 1 in stream 'labels'"):
            join(_two_feature_spec(), labels, [_docs([1, 2], "a"), _docs([1, 2], "b", "c")])

    def test_duplicate_feature_key_names_the_feature_stream(self):
        f2 = _docs([2, 2], "b", "c")
        with pytest.raises(CollectionError, match="duplicate key 2 in stream 'f2'"):
            join(_two_feature_spec(), _docs([1, 2], "y"), [_docs([1, 2], "a"), f2])


row_strategy = st.builds(
    DatasetRow,
    key=st.integers(min_value=0, max_value=10**6),
    features=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=3,
    ),
    label=st.dictionaries(
        st.sampled_from(["y"]), st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=1,
    ),
)


class TestDatasetFiles:
    def test_write_zero_rows(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_dataset([], path) == 0
        assert path.read_bytes() == b""
        assert read_dataset(path) == []

    @given(st.lists(row_strategy, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, rows):
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            write_dataset(rows, path)
            assert read_dataset(path) == rows
        finally:
            os.unlink(path)

    def test_writes_are_canonical(self, tmp_path):
        rows = [DatasetRow(key=1, features={"b": 2.0, "a": 1.0}, label={"y": 0.5})]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_dataset(rows, p1)
        write_dataset(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith('{"features":{"a":1.0,"b":2.0}')

    def test_bytes_are_canonical_json(self, tmp_path):
        rows = [
            DatasetRow(key=1, features={"b": 2.0, "é": 1}, label={"y": -0.5}),
            DatasetRow(key=2, features={}, label={"y": 2**70}),
        ]
        path = tmp_path / "rows.jsonl"
        write_dataset(rows, path)
        expected = "".join(canonical_json(row.to_doc()) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_are_refused(self, tmp_path, bad):
        rows = [DatasetRow(key=1, features={"x": bad}, label={"y": 0.0})]
        with pytest.raises(ValueError):
            write_dataset(rows, tmp_path / "bad.jsonl")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features":{},"key":1,"label":{}}\nnot json\n')
        with pytest.raises(DatasetFormatError, match=":2:"):
            read_dataset(path)
