#!/usr/bin/env python3
"""Print a Markdown table comparing fresh bench numbers with the committed ones.

Usage: python3 .github/bench_diff.py NAME... >> "$GITHUB_STEP_SUMMARY"

For each NAME it reads the committed baseline BENCH_<NAME>.json and the
fresh run fresh_<NAME>.json (both flat JSON objects of numbers) from the
working directory. A missing file becomes one "(missing)" row; a key
absent from the fresh file prints "–".
"""

import json
import sys

DASH = "–"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError:
        return None


def cell(value):
    return DASH if value is None else f"{value:.2f}"


def main(names):
    print(f"## Bench: fresh vs committed ({', '.join(names)})")
    print()
    print("| metric | committed | fresh | fresh/committed |")
    print("| --- | ---: | ---: | ---: |")
    for name in names:
        committed = load(f"BENCH_{name}.json")
        fresh = load(f"fresh_{name}.json")
        if committed is None or fresh is None:
            print(f"| {name} (missing) | {DASH} | {DASH} | {DASH} |")
            continue
        for key, base in committed.items():
            new = fresh.get(key)
            ratio = new / base if new is not None and base else None
            print(f"| {name}.{key} | {cell(base)} | {cell(new)} | {cell(ratio)} |")


if __name__ == "__main__":
    main(sys.argv[1:])
