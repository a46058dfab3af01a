"""CLI entry point: ``python -m repro.experiments <name>|all``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runner import REGISTRY, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run paper-reproduction experiments and print their "
                    "result tables.",
        epilog="experiments: " + ", ".join(sorted(REGISTRY)),
    )
    parser.add_argument(
        "names", nargs="+", metavar="NAME",
        help="experiment names from the registry, or 'all'",
    )
    return parser


def main(argv) -> int:
    args = build_parser().parse_args(argv)
    names = None if args.names == ["all"] else args.names
    unknown = sorted(set(names or ()) - set(REGISTRY))
    if unknown:
        print(f"error: unknown experiments {unknown}; "
              f"known: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2
    for result in run_all(names):
        print(result.format_table())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
