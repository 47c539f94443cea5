"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` exactly as ``BENCHMARK.json`` says, one run at a time, from
the current directory (the root of a checkout).  For each workload and
end-to-end metric it reports the median over seeds and the spread: the
distance between the first and third quartiles, as a share of the median.
The raw result of every run is kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from record_reference import seed_range

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "run_seconds": BENCH["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(BENCH["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=time.perf_counter() - t0)
            results.append(result)
            print(workload, seed, f"{result['wall_s']:.1f}s", json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
        summary = summarise(results)
        report["workloads"][workload] = {"summary": summary, "runs": results}
        for name, s in summary.items():
            flag = " OVER 1/3 BOUND" if name in bounds and s["spread"] > bounds[name] / 3 else ""
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
