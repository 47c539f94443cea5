"""Record the verdicts that later runs are compared against.

    python3 perfbench/record_reference.py --seeds 0-20

Run from the root of a checkout of the commit whose answers are the
reference.  Each workload's items for the given seeds go through the same
worker as a benchmark pass; an item that fails an oracle check aborts the
recording.  Entries are merged into ``reference.json`` keyed by item, so a
run compares every item it shares with a recorded seed.  The witness has a
known answer in ``oracles.py`` and is not recorded here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import inputs
from run import REFERENCE, call_worker, item_key

WORKLOADS = ("screen-sweep", "residue-calculus")


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-20"))
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in args.workloads:
        table = reference.setdefault(workload, {})
        for seed in args.seeds:
            items = inputs.generate(workload, seed)
            out = call_worker(Path.cwd(), {"workload": workload, "items": items,
                                           "trace": False})
            for item, res in zip(items, out["items"]):
                if res["failures"]:
                    print(f"{workload} seed {seed} {item}: {res['failures']}", file=sys.stderr)
                    return 1
                table[item_key(item)] = res["verdict"]
            print(f"{workload} seed {seed}: {len(items)} items", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
