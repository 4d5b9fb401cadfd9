#!/usr/bin/env python3
"""Compare two --json cell summaries on simulated numbers only.

Usage: cells_diff.py BASELINE.json CANDIDATE.json [--expect-cells N]

Cells are keyed by (tag, vm, workload, technique, cpu, scale, predictor)
and compared field by field on everything the simulator determines --
ok, cycles, mispredict_rate, mispredicts, icache_misses, vm_instrs,
code_bytes, error.  Wall-clock, serve time, production mode, attempts
and store provenance (from_store, from_journal before vmbp-cells/9) are
environment, not simulation, and are ignored, so a vmbp-cells/9 run is
comparable against an older-schema baseline.

Exits non-zero listing every differing cell, any cell present on only
one side, or a cell-count mismatch against --expect-cells.
"""

import json
import sys

SIM_FIELDS = (
    "ok",
    "cycles",
    "mispredict_rate",
    "mispredicts",
    "icache_misses",
    "vm_instrs",
    "code_bytes",
    "error",
)


def key(cell):
    return (
        cell.get("tag", ""),
        cell.get("vm", ""),
        cell.get("workload", ""),
        cell.get("technique", ""),
        cell.get("cpu", ""),
        cell.get("scale", 1),
        cell.get("predictor", ""),
    )


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if not schema.startswith("vmbp-cells/"):
        raise SystemExit(f"cells_diff: {path}: unexpected schema {schema!r}")
    cells = {}
    for cell in doc["results"]:
        k = key(cell)
        # A cell repeated within one run (same key) is disambiguated by
        # its occurrence index; order within a key is deterministic.
        n = 0
        while (k, n) in cells:
            n += 1
        cells[(k, n)] = cell
    return schema, cells


def main():
    args = sys.argv[1:]
    expect = None
    if "--expect-cells" in args:
        i = args.index("--expect-cells")
        expect = int(args[i + 1])
        del args[i : i + 2]
    if len(args) != 2:
        raise SystemExit(__doc__.strip().splitlines()[2])
    a_schema, a = load(args[0])
    b_schema, b = load(args[1])

    problems = []
    for k in sorted(set(a) | set(b)):
        if k not in a:
            problems.append(f"only in {args[1]}: {k}")
        elif k not in b:
            problems.append(f"only in {args[0]}: {k}")
        else:
            for field in SIM_FIELDS:
                va, vb = a[k].get(field), b[k].get(field)
                if va != vb:
                    problems.append(f"{k}: {field}: {va!r} != {vb!r}")
    if expect is not None and len(b) != expect:
        problems.append(f"expected {expect} cells, {args[1]} has {len(b)}")

    if problems:
        for p in problems:
            print(f"cells_diff: {p}", file=sys.stderr)
        raise SystemExit(
            f"cells_diff: {len(problems)} difference(s) between "
            f"{args[0]} ({a_schema}) and {args[1]} ({b_schema})"
        )
    print(
        f"cells_diff: {len(a)} cells numerically identical "
        f"({a_schema} vs {b_schema})"
    )


if __name__ == "__main__":
    main()
