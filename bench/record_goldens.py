"""Record the output goldens the benchmark checks samples against.

usage: python3 bench/record_goldens.py FIRST_SEED LAST_SEED

Runs one plain sample per run workload and seed in [FIRST_SEED, LAST_SEED]
(the default and held-out seeds are always included) and stores the hash
of each run-report JSON. For `manifest-sweep` it stores the 24
`affected_count` values and the hash of all manifests, which must not
depend on the seed; recording fails if two seeds disagree. Writes
bench/goldens.json. Re-record only when a change is meant to alter
outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, run_sample
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    seeds = sorted({DEFAULT_SEED, HELD_OUT_SEED, *range(first, last + 1)})
    goldens: dict[str, dict] = {}
    for name, w in WORKLOADS.items():
        if w.app is None:
            runs = [run_sample(name, seed, w.ticks, "plain") for seed in (DEFAULT_SEED, HELD_OUT_SEED)]
            if any(r is None for r in runs):
                raise SystemExit(f"{name}: sample failed")
            if runs[0]["sha256"] != runs[1]["sha256"] or runs[0]["affected"] != runs[1]["affected"]:
                raise SystemExit(f"{name}: manifests depend on the seed")
            goldens[name] = {
                "affected": runs[0]["affected"],
                "sha256_every_seed": runs[0]["sha256"],
                "ticks": w.ticks,
            }
            continue
        hashes = {}
        for seed in seeds:
            sample = run_sample(name, seed, w.ticks, "plain")
            if sample is None:
                raise SystemExit(f"{name} seed {seed}: sample failed")
            hashes[str(seed)] = sample["sha256"]
            print(f"{name} seed {seed}: {sample['sha256'][:12]}", file=sys.stderr)
        goldens[name] = {"sha256": hashes, "ticks": w.ticks}
    path = BENCH_DIR / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
