"""Benchmark of the enriq verifier: one workload, one seed, one run.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
Each pass over the workload's items runs in a fresh interpreter (see
``worker.py``), one after another, so every pass pays cold caches and
set-up is measured once per pass.  Passes repeat until the next one would
end after ``--seconds``, with a floor of ``MIN_PASSES``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics, including the tracing overhead.  Every output is
checked (``oracles.py`` and the recorded ``reference.json``); an item that
raises or fails a check counts into ``failed``.

Every time reported is in seconds on a reference host: probes in the
worker sample the shared host's speed while it works, and each timed
window is scaled by how much slower than on the reference host they ran
(see ``hostspeed.py``).  Raw wall time on a shared host swings by a third
from one minute to the next; the adjusted times stay within a few percent.

``BENCHMARK.json`` lists the workloads the benchmark is judged on.
``residue-calculus`` also runs here but is left out of that list, which
keeps a full round of the benchmark (22 runs per listed workload) under an
hour at 50 s a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
from oracles import CERTIFIED, agrees  # noqa: E402

MIN_PASSES = {"witness": 2, "screen-sweep": 2, "residue-calculus": 3}
#: Set-up is sampled at least this often per run; set-up-only workers fill up.
MIN_SETUPS = 6
WORKER_TIMEOUT_S = 170
REFERENCE = HERE / "reference.json"
TRACE_DIR = Path(".perfbench") / "spans"


class BenchError(RuntimeError):
    pass


def item_key(item) -> str:
    if isinstance(item, list):
        return ",".join(map(str, item))
    text = json.dumps(item, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile: a mean of all the
    order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.

    A per-item cost has steps (a triplet either needs a p-adic survival
    grid or not), and the plain order statistic jumps by a step when one
    item changes side; this estimate moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail(times: list[float]) -> float:
    """The highest of p99, p95, p90, p75 and p50 with at least ten items
    beyond its nearest rank, estimated by :func:`quantile`; the slowest
    item when there are under 20."""
    n = len(times)
    for q in (0.99, 0.95, 0.9, 0.75, 0.5):
        if n - math.ceil(q * n) >= 10:
            return quantile(times, q)
    return max(times)


def call_worker(root: Path, job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=root, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def load_reference(workload: str) -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Run:
    """The passes of one run and the checks on their outputs."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.items = inputs.generate(workload, seed)
        self.keys = [item_key(item) for item in self.items]
        self.reference = load_reference(workload)
        self.setups: list[dict] = []
        self.probes: list[float] = []
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def job(self, **extra) -> dict:
        return {"workload": self.workload, "items": self.items, "trace": False, **extra}

    def call(self, **extra) -> dict:
        out = call_worker(self.root, self.job(**extra))
        self.setups.append(out["setup"])
        self.probes += out["probes"]
        return out

    def one_pass(self, trace: bool = False, spans_path=None) -> dict:
        out = self.call(trace=trace, spans_path=spans_path)
        for key, res in zip(self.keys, out["items"]):
            failures = list(res["failures"])
            want = self.reference.get(key)
            if want is not None and not agrees(want, res["verdict"] or ""):
                failures.append(f"verdict {res['verdict']} disagrees with reference {want}")
            self.attempted += 1
            if failures:
                self.failed += 1
                self.messages += [f"{self.workload} item {key}: {m}" for m in failures]
        return out

    def keep_going(self, started: float, walls: list[float], done: int, floor: int) -> bool:
        if done < floor:
            return True
        return time.perf_counter() - started + statistics.median(walls) <= self.seconds

    def fill_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            self.call(setup_only=True)

    def item_seconds(self, out: dict) -> list[float]:
        return [hostspeed.adjusted(res["time"]) for res in out["items"]]

    def setup_seconds(self, *parts: str) -> float:
        return statistics.median(sum(hostspeed.adjusted(s[part]) for part in parts)
                                 for s in self.setups)

    def untraced(self) -> dict:
        passes, walls = [], []
        started = time.perf_counter()
        while self.keep_going(started, walls, len(passes), MIN_PASSES[self.workload]):
            t0 = time.perf_counter()
            passes.append(self.one_pass())
            walls.append(time.perf_counter() - t0)
        self.fill_setups()
        times = [self.item_seconds(p) for p in passes]
        per_item = [statistics.median(t[i] for t in times) for i in range(len(self.items))]
        verdicts = [v for p in passes for res in p["items"] for v in res["verdicts"]]
        return {
            "setup_s": (self.setup_seconds("import", "load"), "s"),
            "pass_s": (statistics.median(sum(t) for t in times), "s"),
            "item_p50_s": (quantile(per_item, 0.5), "s"),
            "item_tail_s": (tail(per_item), "s"),
            "decided_frac": (sum(v in CERTIFIED for v in verdicts) / max(len(verdicts), 1),
                             "fraction"),
            "ok_frac": (1 - self.failed / self.attempted, "fraction"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        }

    def traced(self) -> dict:
        plain, traced, walls = [], [], []
        started = time.perf_counter()
        spans_dir = self.root / TRACE_DIR
        spans_dir.mkdir(parents=True, exist_ok=True)
        while self.keep_going(started, walls, len(plain) + len(traced), 2):
            t0 = time.perf_counter()
            if len(plain) <= len(traced):
                plain.append(self.one_pass())
            else:
                path = spans_dir / f"{self.workload}-seed{self.seed}-pass{len(traced)}.json"
                traced.append(self.one_pass(trace=True, spans_path=str(path)))
            walls.append(time.perf_counter() - t0)
        self.fill_setups()
        metrics = {}
        # span times are raw; each pass's own factor brings them to the reference host
        factors = [sum(self.item_seconds(p)) / sum(r["time"]["s"] for r in p["items"])
                   for p in traced]
        for name in traced[0]["layers"]:
            unit = ("count" if name.endswith(("_calls", "_steps", "_searches"))
                    or ".places_" in name else "ratio" if name.endswith("_ratio") else "s")
            value = statistics.median(
                p["layers"][name] * (f if unit == "s" else 1) for p, f in zip(traced, factors))
            metrics[name] = (value, unit)
        metrics["setup.import_s"] = (self.setup_seconds("import"), "s")
        metrics["datafiles.load_s"] = (self.setup_seconds("load"), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(sum(self.item_seconds(p)) for p in traced)
            - statistics.median(sum(self.item_seconds(p)) for p in plain), "s")
        metrics["hostspeed.probe_s"] = (statistics.median(self.probes), "s")
        metrics["hostspeed.slowdown"] = (statistics.median(1 / f for f in factors), "ratio")
        return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "enriq" / "__init__.py").is_file():
        print(f"no src/enriq under {root}: run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        call_worker(root, run.job(setup_only=True))  # compiles bytecode; not measured
        metrics = run.traced() if args.trace else run.untraced()
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    for message in run.messages[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
