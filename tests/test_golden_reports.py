"""Golden run reports: the behaviour contract of every app version.

`golden_reports.json` holds the sha256 of `run_scenario(...).to_json()`
for all 24 versions at two seeds, and the sha256 of the canonical dataset
rows of each data-stage build. A refactor of the harness, the runtime or
the services must reproduce both byte for byte.

Re-record (only for a deliberate behaviour change, said so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from flowbench import apps, canon
from flowbench.canon import canonical_json, sha256_hex
from flowbench.sim import execute, run_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
TICKS = 80
SEEDS = (1, 9)
VERSIONS = [
    apps.app_version(app, paradigm, stage)
    for app in apps.APP_NAMES
    for paradigm in apps.PARADIGMS
    for stage in apps.APP_STAGES
]


def _label(version, seed: int) -> str:
    return f"{version.key}@{seed}"


def report_digest(version, seed: int) -> str:
    scenario = apps.make_scenario(version.app, TICKS, seed)
    return sha256_hex(run_scenario(scenario, version).to_json())


def dataset_digest(version, seed: int) -> str:
    scenario = apps.make_scenario(version.app, TICKS, seed)
    return sha256_hex(canonical_json(execute(scenario, version).dataset_rows))


def record() -> dict:
    return {
        "dataset_rows": {
            _label(v, seed): dataset_digest(v, seed)
            for v in VERSIONS
            if v.stage == "data"
            for seed in SEEDS
        },
        "reports": {_label(v, seed): report_digest(v, seed) for v in VERSIONS for seed in SEEDS},
        "seeds": list(SEEDS),
        "ticks": TICKS,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    doc = json.loads(GOLDEN_PATH.read_text())
    assert doc["ticks"] == TICKS and doc["seeds"] == list(SEEDS)
    return doc


def test_table_covers_every_version(golden):
    assert len(golden["reports"]) == 24 * len(SEEDS)
    assert len(golden["dataset_rows"]) == 8 * len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.key)
def test_report_matches_golden(golden, version, seed):
    assert report_digest(version, seed) == golden["reports"][_label(version, seed)]


@pytest.mark.parametrize("version", [v for v in VERSIONS if v.stage == "ml"], ids=lambda v: v.key)
def test_report_matches_golden_with_every_observation_on_the_c_encoder(golden, version, monkeypatch):
    # The compiled flat encoders and the C encoder give the same texts, so
    # the same digests: with no kind given an encoder, the report is unchanged.
    asked = []
    monkeypatch.setattr(canon, "flat_encoder", lambda sample: asked.append(sample) and None)
    seed = SEEDS[0]
    assert report_digest(version, seed) == golden["reports"][_label(version, seed)]
    assert asked


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "version", [v for v in VERSIONS if v.stage == "data"], ids=lambda v: v.key
)
def test_dataset_rows_match_golden(golden, version, seed):
    assert dataset_digest(version, seed) == golden["dataset_rows"][_label(version, seed)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
