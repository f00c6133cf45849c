"""Command-line front end.

Subcommands
-----------
run      execute one app version under a scenario, print/serialize the report
graph    emit the dataflow build of an app stage as DOT text
collect  run the data stage and write the offline dataset (JSON-Lines)
diff     affected-components table between two stages of one paradigm
equiv    run both paradigms at the min stage and compare output digests

Exit codes: 0 success or MATCH, 1 usage error, 2 runtime failure,
3 MISMATCH.
"""

from __future__ import annotations

import argparse
import sys

from . import apps, metrics
from .collection import write_dataset
from .graph import export_dot
from .sim import execute, run_scenario

USAGE_ERROR = 1
RUNTIME_ERROR = 2
MISMATCH = 3


class UsageError(Exception):
    """Arguments that parse but name no valid run (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this artifact reserves 2 for runtime
    failures, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario against one app version")
    run.add_argument("app", choices=apps.APP_NAMES)
    run.add_argument("paradigm", choices=apps.PARADIGMS)
    run.add_argument("stage", choices=apps.APP_STAGES)
    run.add_argument("--ticks", type=int, default=100)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--report", metavar="PATH", default=None)

    graph = sub.add_parser("graph", help="export the dataflow graph as DOT")
    graph.add_argument("app", choices=apps.APP_NAMES)
    graph.add_argument("stage", choices=apps.APP_STAGES)
    graph.add_argument("--out", metavar="PATH", default=None)

    coll = sub.add_parser("collect", help="run the data stage and write the dataset")
    coll.add_argument("app", choices=apps.APP_NAMES)
    coll.add_argument("--ticks", type=int, default=100)
    coll.add_argument("--seed", type=int, default=1)
    coll.add_argument("--out", metavar="PATH", required=True)

    dif = sub.add_parser("diff", help="affected components between two stages")
    dif.add_argument("app", choices=apps.APP_NAMES)
    dif.add_argument("stage_a", choices=apps.APP_STAGES)
    dif.add_argument("stage_b", choices=apps.APP_STAGES)
    dif.add_argument("--paradigm", choices=apps.PARADIGMS, required=True)

    eq = sub.add_parser("equiv", help="compare min-stage outputs across paradigms")
    eq.add_argument("app", choices=apps.APP_NAMES)
    eq.add_argument("--ticks", type=int, default=100)
    eq.add_argument("--seed", type=int, default=1)

    return parser


def _scenario(args):
    """The scenario named by `--ticks`/`--seed`; one it refuses is a usage error."""
    try:
        return apps.make_scenario(args.app, args.ticks, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_run(args) -> int:
    scenario = _scenario(args)
    report = run_scenario(scenario, apps.app_version(args.app, args.paradigm, args.stage))
    text = report.to_json()
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_graph(args) -> int:
    scenario = apps.make_scenario(args.app, metrics.MANIFEST_TICKS, metrics.MANIFEST_SEED)
    built = apps.build_app(apps.app_version(args.app, "fbp", args.stage), scenario)
    text = export_dot(built.graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_collect(args) -> int:
    scenario = _scenario(args)
    version = apps.app_version(args.app, "fbp", "data")
    if apps.build_app(version, scenario).collection is None:
        raise UsageError(f"{args.app} collects data online only and writes no offline dataset")
    result = execute(scenario, version, rows_only=True)
    count = write_dataset(result.dataset_rows, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_diff(args) -> int:
    version_a = apps.app_version(args.app, args.paradigm, args.stage_a)
    version_b = apps.app_version(args.app, args.paradigm, args.stage_b)
    d = metrics.diff(metrics.manifest(version_a), metrics.manifest(version_b))
    for label, ids in (("added", d.added), ("removed", d.removed), ("changed", d.changed)):
        for cid in sorted(ids):
            print(f"{label:8s} {cid}")
    print(f"affected_count {d.affected_count}")
    return 0


def _cmd_equiv(args) -> int:
    scenario = _scenario(args)
    fbp = run_scenario(scenario, apps.app_version(args.app, "fbp", "min"))
    soa = run_scenario(scenario, apps.app_version(args.app, "soa", "min"))
    if fbp.digests == soa.digests:
        print("MATCH")
        return 0
    print("MISMATCH")
    for kind in sorted(set(fbp.digests) | set(soa.digests)):
        print(f"  {kind}: fbp={fbp.digests.get(kind, '-')} soa={soa.digests.get(kind, '-')}")
    return MISMATCH


_COMMANDS = {
    "run": _cmd_run,
    "graph": _cmd_graph,
    "collect": _cmd_collect,
    "diff": _cmd_diff,
    "equiv": _cmd_equiv,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (UsageError, apps.NoTrainingRowsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
