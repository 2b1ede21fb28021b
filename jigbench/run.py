"""Benchmark entry point.

Usage, from the repository root::

    python3 jigbench/run.py --workload tile_serve --seed 1 --seconds 15 --trace 0

Prints one line per metric (name, value, unit, clock domain) and, as
the last line of standard output, the JSON result object.  Exits 2
without a result when the program's sources (``src/repro``) are absent,
and 1 when a run fails outright.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from jigbench.workloads import WORKLOADS, run_workload, table

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result, errors, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(f"# {line}")
    for line in table(result, bool(args.trace)):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
