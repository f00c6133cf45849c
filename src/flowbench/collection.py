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

A dataset row is one plain document, `{"features": {...}, "key": k,
"label": {...}}`, from `join` to the model fit: the same dict is what an
`export_dataset` response carries, what `publish_rows` flattens into the
dataset stream and what `write_dataset` writes as one line.

A `CollectionSpec` is the one record of a dataset. An fbp data stage
names only its spec: `with_dataset` checks the spec against the graph
when the app is built and declares the dataset stream, whose schema it
reads off the selected streams in the order `publish_rows` writes a row.
"""

from __future__ import annotations

from typing import NamedTuple

from .canon import canonical_json
from .graph import FlowGraph, Schema, StreamDecl, UnknownElementError, upstream_closure
from .runtime import RuntimeInstance
from .value import Value


class CollectionError(Exception):
    pass


class StreamSelect(NamedTuple):
    """Fields to take from one stream, keyed by a correlation field."""

    stream_id: str
    fields: tuple[str, ...]
    key_field: str


class CollectionSpec(Value):
    _fields = ("label", "features", "dataset_name")

    def __init__(self, label: StreamSelect, features: tuple[StreamSelect, ...], dataset_name: str):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "dataset_name", dataset_name)
        features = [f for sel in self.features for f in sel.fields]
        row = [self.label.key_field, *features, *self.label.fields]  # a dataset stream record
        dupes = {n for n in row if row.count(n) > 1}
        if dupes:
            raise CollectionError(f"the key, feature and label fields must differ, repeated: {sorted(dupes)}")


def discover_sources(graph: FlowGraph, label_stream: str) -> list[str]:
    """Candidate feature sources for a label: every stream the label stream
    depends on, sorted by id. Each feeds a node upstream of the label, so
    some node reads it: it is an input or internal one."""
    streams = graph.stream_map()
    if label_stream not in streams:
        raise UnknownElementError(label_stream)
    return sorted(streams.keys() & upstream_closure(graph, label_stream) - {label_stream})


def _checked_schemas(graph: FlowGraph, spec: CollectionSpec) -> tuple[Schema, list[Schema]]:
    """The schemas of the label stream and of each feature stream of `spec`.

    Every selected stream and field must exist in `graph`, and each key
    must be of the label key's type.
    """
    streams, schemas = graph.stream_map(), []
    for sel in (spec.label, *spec.features):
        decl = streams.get(sel.stream_id)
        if decl is None:
            raise CollectionError(f"spec references missing stream {sel.stream_id!r}")
        for f in sel.fields + (sel.key_field,):
            if f not in decl.schema.field_names:
                raise CollectionError(f"stream {sel.stream_id!r} has no field {f!r} (wanted by the spec)")
        key_type = (schemas[0] if schemas else decl.schema).field_type(spec.label.key_field)
        if decl.schema.field_type(sel.key_field) != key_type:
            raise CollectionError(f"key field {sel.key_field!r} of {sel.stream_id!r} is not of type {key_type!r}")
        schemas.append(decl.schema)
    return schemas[0], schemas[1:]


def with_dataset(graph: FlowGraph, spec: CollectionSpec) -> FlowGraph:
    """`graph` plus the dataset stream `publish_rows` fills, declared last.

    Its schema is the row `publish_rows` writes: the key, typed as in the
    label stream, then each feature select's fields in spec order, then the
    label fields, each typed as in its stream. A spec that does not fit
    `graph` raises `CollectionError`, as `collect` would.
    """
    label, features = _checked_schemas(graph, spec)
    fields = [(spec.label.key_field, label.field_type(spec.label.key_field))]
    for sel, schema in zip(spec.features, features):
        fields += [(f, schema.field_type(f)) for f in sel.fields]
    fields += [(f, label.field_type(f)) for f in spec.label.fields]
    name = spec.dataset_name
    return graph._replace(streams=graph.streams + (StreamDecl(name, Schema(name, tuple(fields))),))


def _index(sel: StreamSelect, docs) -> dict:
    index: dict = {}
    key_field = sel.key_field
    for doc in docs:
        key = doc[key_field]
        if key in index:
            raise CollectionError(f"duplicate key {key!r} in stream {sel.stream_id!r}")
        index[key] = doc
    return index


def join(spec: CollectionSpec, labels, features) -> list[dict]:
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
    rows: list[dict] = []
    for key, doc in _index(spec.label, labels).items():
        row_features: dict = {}
        for fields, index in indexes:
            match = index.get(key)
            if match is None:
                break
            for f in fields:
                row_features[f] = match[f]
        else:
            rows.append(
                {"features": row_features, "key": key, "label": {f: doc[f] for f in label_fields}}
            )
    return rows


def collect(instance: RuntimeInstance, spec: CollectionSpec) -> list[dict]:
    """`join` the label stream with every feature stream of a running program.

    The selected streams and fields must exist, and key types must agree
    across the selected streams.
    """
    _checked_schemas(instance.graph, spec)
    return join(
        spec,
        instance.read(spec.label.stream_id),
        [instance.read(sel.stream_id) for sel in spec.features],
    )


def publish_rows(instance: RuntimeInstance, spec: CollectionSpec, rows: list[dict]) -> int:
    """Materialize collected rows into the dataset stream `with_dataset` declared.

    The dataset stream is an output stream with no producing node; the
    runtime owns its write path, so the rest of the graph is untouched.
    """
    dataset, key_field = spec.dataset_name, spec.label.key_field
    for row in rows:
        instance.append_collected(dataset, {key_field: row["key"], **row["features"], **row["label"]})
    return len(rows)


def write_dataset(rows: list[dict], path) -> int:
    """One canonical JSON object per row (see `canon`), LF endings, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(canonical_json(row))
            fh.write("\n")
    return len(rows)
