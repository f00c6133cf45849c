"""A dataset is declared once.

An fbp data stage names only its `CollectionSpec`: the dataset stream and
its schema are derived from it when the app is built, and a spec that does
not fit the graph is refused then, before any tick. A soa build's exporter
is the one service with an `export_dataset` API.
"""

import pytest

from flowbench import apps, metrics, sim
from flowbench.apps import insurance_claims, ride_allocation
from flowbench.cli import main
from flowbench.collection import CollectionError, CollectionSpec
from flowbench.graph import Schema
from flowbench.services import ApiSpec, ServiceSpec
from util_runs import forbid_simulation

OFFLINE_APPS = ("insurance_claims", "ride_allocation")
MODULES = {"insurance_claims": insurance_claims, "ride_allocation": ride_allocation}

# The dataset schemas as each app once declared them by hand.
EXPECTED = {
    "insurance_claims": Schema(
        "claims_dataset",
        (
            ("claim_id", "int"),
            ("amount", "float"),
            ("flagged", "bool"),
            ("kind", "text"),
            ("prior_claims", "int"),
            ("decision", "text"),
        ),
    ),
    "ride_allocation": Schema(
        "wait_dataset",
        (
            ("ride_id", "int"),
            ("distance", "float"),
            ("n_available", "int"),
            ("tod", "int"),
            ("wait_time", "float"),
        ),
    ),
}


def _build(app, stage):
    return apps.build_app(apps.app_version(app, "fbp", stage), apps.make_scenario(app, 30, 5))


@pytest.mark.parametrize("stage", apps.APP_STAGES)
@pytest.mark.parametrize("app", apps.APP_NAMES)
def test_the_dataset_stream_is_derived_from_the_spec(app, stage):
    built = _build(app, stage)
    if built.collection is None:
        assert app not in OFFLINE_APPS or stage == "min"
        return
    assert built.collection.dataset_name == EXPECTED[app].name
    assert built.graph.streams[-1].id == EXPECTED[app].name
    assert built.graph.streams[-1].schema == EXPECTED[app]


# A field of each app's feature stream whose type is not the key's.
_OTHER_TYPE = {"insurance_claims": "kind", "ride_allocation": "distance"}


def _bad_spec(app, fault):
    spec = MODULES[app].COLLECTION
    sel = spec.features[0]
    if fault == "missing stream":
        sel = sel._replace(stream_id="nowhere")
    elif fault == "missing field":
        sel = sel._replace(fields=sel.fields + ("nope",))
    else:
        sel = sel._replace(key_field=_OTHER_TYPE[app])
    return CollectionSpec(spec.label, (sel,), spec.dataset_name)


FAULTS = {
    "missing stream": "spec references missing stream 'nowhere'",
    "missing field": "has no field 'nope'",
    "key type": "is not of type 'int'",
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("app", OFFLINE_APPS)
class TestASpecThatDoesNotFitIsRefusedAtBuild:
    def test_build_app_and_manifest(self, monkeypatch, app, fault):
        forbid_simulation(monkeypatch)
        monkeypatch.setattr(MODULES[app], "COLLECTION", _bad_spec(app, fault))
        for stage in ("data", "ml"):
            with pytest.raises(CollectionError, match=FAULTS[fault]):
                _build(app, stage)
            with pytest.raises(CollectionError, match=FAULTS[fault]):
                metrics.manifest(apps.app_version(app, "fbp", stage))
        assert _build(app, "min").collection is None

    def test_cli_before_any_tick(self, monkeypatch, capsys, tmp_path, app, fault):
        def tick(self, tick):
            raise AssertionError("a refused spec ticked")

        monkeypatch.setattr(MODULES[app], "COLLECTION", _bad_spec(app, fault))
        monkeypatch.setattr(type(apps.make_world(apps.make_scenario(app, 1, 1))), "generate_events", tick)
        commands = (
            ["run", app, "fbp", "data", "--ticks", "20"],
            ["run", app, "fbp", "ml", "--ticks", "20"],
            ["collect", app, "--ticks", "20", "--out", str(tmp_path / "rows.jsonl")],
            ["diff", app, "min", "data", "--paradigm", "fbp"],
            ["graph", app, "data"],
        )
        for argv in commands:
            assert main(argv) == 2, argv
            assert FAULTS[fault] in capsys.readouterr().err, argv
        assert not (tmp_path / "rows.jsonl").exists()


def test_an_added_feature_reaches_the_dataset_stream_and_the_manifest(monkeypatch):
    version = apps.app_version("ride_allocation", "fbp", "data")
    before = metrics.manifest(version)
    spec = ride_allocation.COLLECTION
    sel = spec.features[0]
    edited = CollectionSpec(spec.label, (sel._replace(fields=sel.fields + ("request_tick",)),), spec.dataset_name)
    monkeypatch.setattr(ride_allocation, "COLLECTION", edited)

    result = sim.execute(apps.make_scenario("ride_allocation", 200, 3), version)
    published = [rec.as_dict() for rec in result.instance.read("wait_dataset")]
    assert published and len(published) == len(result.dataset_rows)
    for doc, row in zip(published, result.dataset_rows):
        assert doc["request_tick"] == row["features"]["request_tick"]
        assert doc == {"ride_id": row["key"], **row["features"], **row["label"]}

    d = metrics.diff(before, metrics.manifest(version))
    assert (d.added, d.removed, d.changed) == (frozenset(), frozenset(), {"stream/wait_dataset"})
    c01 = metrics.diff(metrics.manifest(apps.app_version("ride_allocation", "fbp", "min")), metrics.manifest(version))
    assert c01.affected_count == 1


def test_a_soa_build_with_two_exporters_is_refused_before_any_tick(monkeypatch):
    real = insurance_claims.build_soa

    def two_exporters(stage, scenario, model=None):
        built = real(stage, scenario, model)
        exporter = ApiSpec("export_dataset", lambda req, ctx: {"rows": []}, (), ("rows",))
        built.registry.register(ServiceSpec("audit", apis=(exporter,)))
        return built

    def tick(self, tick):
        raise AssertionError("a refused build ticked")

    monkeypatch.setattr(insurance_claims, "build_soa", two_exporters)
    monkeypatch.setattr(insurance_claims.ClaimsWorld, "generate_events", tick)
    version = apps.app_version("insurance_claims", "soa", "data")
    with pytest.raises(ValueError, match=r"services \['audit', 'intake'\] each have an export_dataset API"):
        sim.execute(apps.make_scenario("insurance_claims", 20, 1), version)
