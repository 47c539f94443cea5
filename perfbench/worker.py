"""One pass over a workload's items, in a fresh interpreter.

Reads a job from stdin, prints one JSON result line on stdout:

    {"workload": ..., "items": [...], "trace": false, "spans_path": null,
     "setup_only": false}

Set-up (cold ``import enriq.*`` plus loading the five data tables) is
timed first, before anything else pulls in the program's dependencies.
A :class:`hostspeed.Speedometer` samples the host's speed throughout; every
timed window (import, load, each item) is reported raw and with the
probes' figures that ``hostspeed.adjusted`` turns into seconds on the
reference host.
"""

import json
import resource
import sys
import time

import hostspeed

TABLES = (
    ("galois_actions.json", "galois-actions/1"),
    ("lattice_classes.json", "picard-lattice/1"),
    ("branch_points.json", "weierstrass-points/1"),
    ("blowdown_points.json", "blowdown-points/1"),
    ("curve_equations.json", "curve-equations/1"),
)


def set_up(speed: hostspeed.Speedometer) -> dict:
    import importlib
    import pkgutil

    t0 = time.perf_counter()
    import enriq

    for mod in sorted(m.name for m in pkgutil.iter_modules(enriq.__path__)):
        importlib.import_module(f"enriq.{mod}")
    t1 = time.perf_counter()
    from enriq import datafiles

    for filename, fmt in TABLES:
        datafiles.load(filename, fmt)
    t2 = time.perf_counter()
    return {"import": speed.window(t0, t1), "load": speed.window(t1, t2)}


def run_pass(job: dict, speed: hostspeed.Speedometer) -> tuple[list[dict], dict | None]:
    import items
    import tracing

    run, check = items.RUNNERS[job["workload"]]
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        items.install_probes(tracer)
    ctx = items.Context(tracer)
    results = []
    for item in job["items"]:
        start = time.perf_counter()
        try:
            with ctx.span("item"):
                outcome = run(item, ctx)
        except Exception as exc:  # an item that raises counts as failed
            results.append({"time": speed.window(start, time.perf_counter()),
                            "verdict": None, "verdicts": [],
                            "failures": [f"raised {exc!r}"]})
            continue
        window = speed.window(start, time.perf_counter())
        with ctx.paused():
            verdict, verdicts, failures = check(item, outcome)
        results.append({"time": window, "verdict": verdict,
                        "verdicts": verdicts, "failures": failures})
    if tracer:
        tracer.restore()
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
        return results, items.layer_metrics(tracer)
    return results, None


def main() -> None:
    job = json.loads(sys.stdin.read())
    speed = hostspeed.Speedometer()
    speed.start()
    try:
        out = {"setup": set_up(speed)}
        if not job.get("setup_only"):
            out["items"], out["layers"] = run_pass(job, speed)
    finally:
        speed.stop()
    out["probes"] = speed.durations
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
