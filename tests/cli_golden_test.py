#!/usr/bin/env python3
"""Golden check of the `pimtc count --json` contract (stdlib only;
registered in ctest as `pimtc_cli_golden`).

Generates a small community graph with the built CLI, runs two PIM count
variants with every randomized component seeded, and compares every JSON
leaf (key path and value) against the files in tests/golden/.  Only the
locally measured host clocks are exempt: `times.host_s` and the graph
phase's `preprocess.{read_s,dedup_s,shuffle_s}`.  Everything else —
modeled phase times, kernel and transfer counters, fault ledger, heavy
hitters — is deterministic and must match exactly.

Usage:
  cli_golden_test.py PIMTC_BINARY            compare against the goldens
  cli_golden_test.py PIMTC_BINARY --update   rewrite the goldens
"""

import json
import pathlib
import subprocess
import sys
import tempfile

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

BASE_ARGS = ["--backend=pim", "--colors=6", "--threads=2", "--no-pipeline",
             "--json"]

VARIANTS = {
    "count_misra_gries": ["--misra-gries", "--mg-top=4"],
    "count_deletes_faults": [
        "--delete-frac=0.25",
        "--inject-faults=seed=3,launch-transient=0.05,launch-permanent=0.05,"
        "corrupt=0.02,bitflip=0.05,spares=32",
    ],
}

MEASURED = {
    ("times", "host_s"),
    ("preprocess", "read_s"),
    ("preprocess", "dedup_s"),
    ("preprocess", "shuffle_s"),
}


def leaves(node, path=()):
    """Flattens parsed JSON into {key path: scalar}."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(leaves(value, path + (key,)))
        return out
    if isinstance(node, list):
        out = {}
        for i, value in enumerate(node):
            out.update(leaves(value, path + (i,)))
        return out
    return {path: node}


def run(binary, args, cwd):
    proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def main():
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["--update"]):
        sys.exit(__doc__)
    binary = str(pathlib.Path(sys.argv[1]).resolve())
    update = sys.argv[2:] == ["--update"]

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        run(binary, ["generate", "--kind=community", "--edges=20000",
                     "--seed=7", "--out=g.txt"], tmp)
        for name, extra in VARIANTS.items():
            got = json.loads(run(binary, ["count", "--graph=g.txt"] +
                                 BASE_ARGS + extra, tmp))
            golden_path = GOLDEN_DIR / f"{name}.json"
            if update:
                golden_path.write_text(json.dumps(got, indent=1) + "\n")
                print(f"wrote {golden_path}")
                continue
            want = json.loads(golden_path.read_text())
            got_leaves = {k: v for k, v in leaves(got).items()
                          if k not in MEASURED}
            want_leaves = {k: v for k, v in leaves(want).items()
                           if k not in MEASURED}
            for key in sorted(set(got_leaves) | set(want_leaves), key=str):
                g = got_leaves.get(key, "<missing>")
                w = want_leaves.get(key, "<missing>")
                if g != w:
                    failures += 1
                    print(f"{name}: {'.'.join(map(str, key))}: "
                          f"got {g!r}, want {w!r}")
            print(f"{name}: {len(want_leaves)} leaves compared")
    if failures:
        sys.exit(f"{failures} leaf mismatch(es) against {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
