"""Dataset assembly over stream logs.

Turning a running program into training data takes three steps here:
find candidate sources by walking the graph upstream from the label
stream, join label and feature records on a correlation key, and persist
the rows as canonical JSON-Lines. Joins are strict inner joins: a key
missing any requested feature drops the row, and a key occurring twice in
one stream is an error (the applications guarantee unique keys by
construction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .canon import canonical_json
from .graph import Category, FlowGraph, UnknownElementError, upstream_closure
from .runtime import RuntimeInstance


class CollectionError(Exception):
    pass


class DatasetFormatError(CollectionError):
    def __init__(self, path, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


@dataclass(frozen=True)
class StreamSelect:
    """Fields to take from one stream, keyed by a correlation field."""

    stream_id: str
    fields: tuple[str, ...]
    key_field: str


@dataclass(frozen=True)
class CollectionSpec:
    label: StreamSelect
    features: tuple[StreamSelect, ...]
    dataset_name: str

    def __post_init__(self):
        names: list[str] = []
        for sel in self.features:
            names.extend(sel.fields)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise CollectionError(
                f"feature fields must be unique across the spec, repeated: {sorted(dupes)}"
            )


@dataclass(frozen=True)
class DatasetRow:
    key: object
    features: dict
    label: dict

    def to_doc(self) -> dict:
        return {"features": self.features, "key": self.key, "label": self.label}

    @classmethod
    def from_doc(cls, doc: dict) -> "DatasetRow":
        return cls(key=doc["key"], features=dict(doc["features"]), label=dict(doc["label"]))


def discover_sources(graph: FlowGraph, label_stream: str) -> list[str]:
    """Candidate feature sources for a label: every input and internal
    stream the label stream depends on, sorted by id."""
    streams = graph.stream_map()
    if label_stream not in streams:
        raise UnknownElementError(label_stream)
    closure = upstream_closure(graph, label_stream)
    return sorted(
        sid
        for sid in closure
        if sid in streams
        and sid != label_stream
        and streams[sid].category in (Category.INPUT, Category.INTERNAL)
    )


def _check_select(instance: RuntimeInstance, sel: StreamSelect) -> None:
    decl = instance.graph.stream_map().get(sel.stream_id)
    if decl is None:
        raise CollectionError(f"spec references missing stream {sel.stream_id!r}")
    names = decl.schema.field_names
    for f in sel.fields + (sel.key_field,):
        if f not in names:
            raise CollectionError(
                f"stream {sel.stream_id!r} has no field {f!r} (wanted by the spec)"
            )


def _index_by_key(instance: RuntimeInstance, sel: StreamSelect) -> dict:
    index: dict = {}
    for rec in instance.read(sel.stream_id, 0):
        key = rec[sel.key_field]
        if key in index:
            raise CollectionError(
                f"duplicate key {key!r} in stream {sel.stream_id!r}"
            )
        index[key] = rec
    return index


def collect(instance: RuntimeInstance, spec: CollectionSpec) -> list[DatasetRow]:
    """Inner-join the label stream with every feature stream on the key.

    Rows come back in label-record order. Key types must agree across the
    selected streams.
    """
    _check_select(instance, spec.label)
    streams = instance.graph.stream_map()
    key_type = streams[spec.label.stream_id].schema.field_type(spec.label.key_field)
    for sel in spec.features:
        _check_select(instance, sel)
        if streams[sel.stream_id].schema.field_type(sel.key_field) != key_type:
            raise CollectionError(
                f"key field {sel.key_field!r} of {sel.stream_id!r} is not of type {key_type!r}"
            )

    feature_indexes = [(sel, _index_by_key(instance, sel)) for sel in spec.features]
    _index_by_key(instance, spec.label)  # duplicate-label-key check

    rows: list[DatasetRow] = []
    for rec in instance.read(spec.label.stream_id, 0):
        key = rec[spec.label.key_field]
        features: dict = {}
        complete = True
        for sel, index in feature_indexes:
            match = index.get(key)
            if match is None:
                complete = False
                break
            for f in sel.fields:
                features[f] = match[f]
        if not complete:
            continue
        rows.append(
            DatasetRow(
                key=key,
                features=features,
                label={f: rec[f] for f in spec.label.fields},
            )
        )
    return rows


def publish_rows(instance: RuntimeInstance, spec: CollectionSpec, rows: list[DatasetRow]) -> int:
    """Materialize collected rows into the declared dataset stream.

    The dataset stream is an output stream with no producing node; the
    runtime owns its write path, so the rest of the graph is untouched.
    """
    for row in rows:
        instance.append_collected(
            spec.dataset_name,
            {spec.label.key_field: row.key, **row.features, **row.label},
        )
    return len(rows)


def write_dataset(rows: list[DatasetRow], path) -> int:
    """One canonical JSON object per row (see `canon`), LF endings, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(canonical_json(row.to_doc()))
            fh.write("\n")
    return len(rows)


def read_dataset(path) -> list[DatasetRow]:
    rows: list[DatasetRow] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                rows.append(DatasetRow.from_doc(doc))
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetFormatError(path, line_no, str(exc)) from exc
    return rows
