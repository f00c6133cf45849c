"""Dataset assembly over stream logs.

Turning a running program into training data takes three steps here:
find candidate sources by walking the graph upstream from the label
stream, join label and feature records on a correlation key, and persist
the rows as canonical JSON-Lines. Both paradigms join through `join`:
the dataflow build over its stream logs (`collect`), the service build
over the documents its `export_dataset` API gathers. Joins are strict
inner joins: a key missing any requested feature drops the row, and a key
occurring twice in one stream is an error (the applications guarantee
unique keys by construction).
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


def _index(sel: StreamSelect, docs) -> dict:
    index: dict = {}
    for doc in docs:
        key = doc[sel.key_field]
        if key in index:
            raise CollectionError(f"duplicate key {key!r} in stream {sel.stream_id!r}")
        index[key] = doc
    return index


def join(spec: CollectionSpec, labels, features) -> list[DatasetRow]:
    """Inner-join label docs with one iterable of feature docs per entry of
    `spec.features`, on the key.

    A doc is anything indexed by field name: a stream `Record` or a stored
    document. Rows come back in label order; a key occurring twice on
    either side is an error.
    """
    indexes = [
        (sel.fields, _index(sel, docs)) for sel, docs in zip(spec.features, features, strict=True)
    ]
    label_fields = spec.label.fields
    rows: list[DatasetRow] = []
    for key, doc in _index(spec.label, labels).items():
        row_features: dict = {}
        for fields, index in indexes:
            match = index.get(key)
            if match is None:
                break
            for f in fields:
                row_features[f] = match[f]
        else:
            rows.append(DatasetRow(key, row_features, {f: doc[f] for f in label_fields}))
    return rows


def collect(instance: RuntimeInstance, spec: CollectionSpec) -> list[DatasetRow]:
    """`join` the label stream with every feature stream of a running program.

    The selected streams and fields must exist, and key types must agree
    across the selected streams.
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
    return join(
        spec,
        instance.read(spec.label.stream_id),
        [instance.read(sel.stream_id) for sel in spec.features],
    )


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
