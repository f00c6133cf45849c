"""Component manifests and the affected-components diff."""

import hashlib
import json

import pytest

from flowbench import apps, metrics
from flowbench.graph import Schema
from flowbench.metrics import ComponentManifest, diff, fbp_manifest, manifest, soa_manifest
from flowbench.services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from util_graphs import chain_graph


@pytest.fixture(scope="module")
def ride_manifests():
    return {
        stage: manifest(apps.app_version("ride_allocation", "fbp", stage))
        for stage in ("min", "data")
    }


class TestManifest:
    def test_fbp_component_count(self):
        # chain fixture: 2 nodes + 3 streams.
        m = fbp_manifest(chain_graph(), "fb_chain")
        assert len(m.components) == 5
        assert {cid.split("/")[0] for cid in m.components} == {"node", "stream"}

    def test_soa_component_count(self):
        reg = ServiceRegistry()
        reg.register(
            ServiceSpec(
                "svc",
                apis=(
                    ApiSpec("a", lambda r, c: {}, (), ()),
                    ApiSpec("b", lambda r, c: {}, (), ()),
                    ApiSpec("c", lambda r, c: {}, (), ()),
                ),
                routines=(
                    RoutineSpec("r1", lambda c: None),
                    RoutineSpec("r2", lambda c: None),
                ),
            )
        )
        m = soa_manifest(reg, "soa_svc")
        assert len(m.components) == 5

    def test_manifest_is_deterministic(self):
        a = manifest(apps.app_version("insurance_claims", "soa", "min"))
        b = manifest(apps.app_version("insurance_claims", "soa", "min"))
        assert a == b

    def test_manifest_bytes_of_all_versions_are_pinned(self):
        # The same document the benchmark's manifest sweep hashes: every
        # version's components under its key, as sorted-key JSON.
        components = {}
        for app in apps.APP_NAMES:
            for paradigm in apps.PARADIGMS:
                for stage in apps.APP_STAGES:
                    m = manifest(apps.app_version(app, paradigm, stage))
                    components[m.version_key] = m.components
        assert len(components) == 24
        digest = hashlib.sha256(json.dumps(components, sort_keys=True).encode("utf-8")).hexdigest()
        assert digest == "88ce890a79aee6aa7074917dbd0911ee200c264070bf7c1cdef836b7e525d09f"

    def test_a_port_has_its_streams_schema(self):
        # Nodes declare no port schemas: retyping chain_graph's internal
        # stream s moves s, its writer A and its reader B, and nothing else.
        graph = chain_graph()
        wide = Schema("point", (("x", "int"), ("y", "int")))
        retyped = graph._replace(
            streams=tuple(s._replace(schema=wide) if s.id == "s" else s for s in graph.streams)
        )
        d = diff(fbp_manifest(graph, "a"), fbp_manifest(retyped, "b"))
        assert d.changed == frozenset({"stream/s", "node/A", "node/B"})

    def test_version_keys_follow_naming_scheme(self, ride_manifests):
        assert ride_manifests["min"].version_key == "fb_ride_allocation_min"


class TestDiff:
    def test_identity_diff_is_empty(self, ride_manifests):
        d = diff(ride_manifests["min"], ride_manifests["min"])
        assert d.affected_count == 0

    def test_constructed_change_and_addition(self):
        a = ComponentManifest("a", {"n1": "v1"})
        b = ComponentManifest("b", {"n1": "v2", "n2": "v1"})
        d = diff(a, b)
        assert d.changed == frozenset({"n1"})
        assert d.added == frozenset({"n2"})
        assert d.removed == frozenset()
        assert d.affected_count == 2

    def test_offline_collection_is_one_component(self, ride_manifests):
        # The dataset declaration is the only delta between the basic and
        # collecting builds of the ride app.
        d = diff(ride_manifests["min"], ride_manifests["data"])
        assert d.affected_count == 1
        assert d.added == frozenset({"stream/wait_dataset"})

    def test_count_is_symmetric_with_roles_swapped(self, ride_manifests):
        fwd = diff(ride_manifests["min"], ride_manifests["data"])
        back = diff(ride_manifests["data"], ride_manifests["min"])
        assert fwd.affected_count == back.affected_count
        assert fwd.added == back.removed
        assert fwd.removed == back.added
        assert fwd.changed == back.changed

    def test_triangle_inequality_over_stages(self):
        ms = [
            manifest(apps.app_version("insurance_claims", "fbp", stage))
            for stage in ("min", "data", "ml")
        ]
        d_ac = diff(ms[0], ms[2]).affected_count
        d_ab = diff(ms[0], ms[1]).affected_count
        d_bc = diff(ms[1], ms[2]).affected_count
        assert d_ac <= d_ab + d_bc

    def test_logic_version_bump_changes_fingerprint(self):
        # The playlist builder node is rewired and revised at the model
        # stage; its component id persists while the fingerprint moves.
        a = manifest(apps.app_version("playlist_builder", "fbp", "data"))
        b = manifest(apps.app_version("playlist_builder", "fbp", "ml"))
        d = diff(a, b)
        assert d.changed == frozenset({"node/builder"})
        assert d.affected_count == 1
