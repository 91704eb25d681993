"""Benchmark of the modp library: one workload per run, closed loop.

    python3 perfbench/run.py --workload spin-verify --seed 1 --seconds 25 --trace 0

One client in one process sends each job only after the previous one has
finished.  A run repeats the seeded job list in passes until --seconds is
spent (at least three passes), checks every answer, and prints a table
of metrics followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
alternates untraced and traced passes and reports the per-layer
counters of the traced passes, plus their overhead over the untraced
ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

from layertrace import Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("exactalg", "groupdata", "invariants", "charclass", "quillen", "cli")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3          # untraced passes; the traced run makes at least 2 + 2


def metric_spec() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics, as
    BENCHMARK.json at the repository root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_modp() -> dict:
    """Import every modp module afresh (dropping earlier copies)."""
    for name in [n for n in sys.modules if n == "modp" or n.startswith("modp.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"modp.{name}") for name in MODULES}
    origin = Path(modules["exactalg"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"modp was imported from {origin}, not from {SRC}")
    return modules


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Runner:
    """Runs passes over one job list and checks every answer."""

    def __init__(self, workload, jobs, golden: dict, speed: Speed):
        self.workload = workload
        self.speed = speed
        self.jobs = jobs
        self.golden = golden
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []

    def fail(self, job, npass: int, reason: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name} pass {npass} {job.key}: {reason}", file=sys.stderr)

    def run_pass(self, traced: bool = False) -> dict:
        clock = time.perf_counter
        npass = len(self.passes) + 1
        self.workload.begin_pass()
        times, kinds, spans = [], [], []
        self.speed.sample(force=True)
        calibrating = 0.0
        start = clock()
        for i, job in enumerate(self.jobs):
            calibrating += self.speed.sample()
            self.attempted += 1
            if job.prep is not None:
                job.prep()
            t0 = clock()
            try:
                raw, ok = job.run()
            except Exception as exc:  # a failing job is counted, never fatal
                spans.append((t0, clock()))
                kinds.append(job.kind)
                self.fail(job, npass, f"raised {type(exc).__name__}: {exc}")
                continue
            spans.append((t0, clock()))
            kinds.append(job.kind)
            d = digest(job.canon(raw))
            reason = None
            if not ok:
                reason = "the library's own check failed"
            elif job.after is not None and not job.after():
                reason = "outside check failed (cache entries)"
            elif self.golden.get(job.key, d) != d:
                reason = f"answer {d} differs from golden {self.golden[job.key]}"
            elif self.first_digest.setdefault(i, d) != d:
                reason = "answer differs from an earlier pass of this run"
            if reason:
                self.fail(job, npass, reason)
        pass_s = clock() - start - calibrating
        self.speed.sample(force=True)
        times = [t1 - t0 for t0, t1 in spans]
        ref = [t * self.speed.factor(*span) for t, span in zip(times, spans)]
        record = {"traced": traced, "pass_s": pass_s, "times": times, "ref_times": ref,
                  "kinds": kinds, "factor": sum(ref) / sum(times)}
        self.passes.append(record)
        return record


def budget_loop(run_round, seconds: float, min_rounds: int) -> None:
    """Run rounds until the next one would end past `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        run_round()
        rounds += 1
        last = time.perf_counter() - t0
        if rounds >= min_rounds and time.perf_counter() - start + last > seconds:
            return


def end_to_end(runner: Runner, setup_s: float, setup_factor: float, rescale: bool) -> dict:
    """End-to-end metrics of the untraced passes, in wall seconds or, with
    `rescale`, in reference seconds (each job by its own factor, a pass by
    the time-weighted factor of its jobs)."""
    passes = runner.passes
    factors = [p["factor"] if rescale else 1.0 for p in passes]
    times = [p["ref_times"] if rescale else p["times"] for p in passes]
    every = [t for ts in times for t in ts]
    by_kind: dict[str, list[float]] = {}
    for p, ts in zip(passes, times):
        for t, k in zip(ts, p["kinds"]):
            by_kind.setdefault(k, []).append(t)
    metrics = {
        "setup_s": setup_s * (setup_factor if rescale else 1.0),
        "pass_s": statistics.median(p["pass_s"] * f for p, f in zip(passes, factors)),
        "job_p50_s": statistics.median(every),
        "job_p90_s": statistics.quantiles(every, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if "cold" in by_kind:
        # cached queries: a miss in a fresh cache directory, and a hit
        metrics["cold_p50_s"] = statistics.median(by_kind["cold"])
        metrics["warm_p50_s"] = statistics.median(by_kind["warm"])
    return metrics


def traced_run(runner: Runner, tracer: Tracer, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; return the per-layer metrics
    and the problems the trace self-checks found."""
    snapshots = []

    def pair():
        runner.run_pass()
        tracer.reset()
        tracer.install()
        try:
            runner.run_pass(traced=True)
        finally:
            tracer.uninstall()
        factor = runner.passes[-1]["factor"]
        snapshots.append({name: value * factor if name.endswith("self_s") else value
                          for name, value in tracer.snapshot().items()})

    budget_loop(pair, seconds, 2)
    problems = []
    metrics = {}
    for name in snapshots[0]:
        values = [s[name] for s in snapshots]
        if name.endswith("self_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    untraced = [p["pass_s"] * p["factor"] for p in runner.passes if not p["traced"]]
    traced = [p["pass_s"] * p["factor"] for p in runner.passes if p["traced"]]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for name in runner.workload.exercised:
        if not metrics[name]:
            problems.append(f"layer metric {name} reads zero on {runner.workload.name}")
    return metrics, problems


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row[1:]]
        print(f"  {row[0]:<30}" + "".join(f"{c:>14}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modp" / "__init__.py").is_file():
        print(f"perfbench: no modp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    cls = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = metric_spec()
    speed = Speed()

    setups = []
    for i in range(SETUP_REPEATS):
        speed.sample(force=True)
        t0 = time.perf_counter()
        modules = import_modp()
        workload = cls(modules, TMP_DIR)
        workload.prepare()
        setups.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            workload.close()
    speed.sample(force=True)
    setup_factor = speed.factor(speed.stamps[0], speed.stamps[-1])

    try:
        jobs = workload.jobs(args.seed)
        golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
        runner = Runner(workload, jobs, golden, speed)
        problems = []
        if args.trace:
            metrics, problems = traced_run(runner, Tracer(modules), args.seconds)
            wanted = per_layer_units
            rows = [(name, value) for name, value in metrics.items()]
        else:
            budget_loop(runner.run_pass, args.seconds, MIN_PASSES)
            if runner.attempted < 100:
                problems.append(f"only {runner.attempted} jobs; p90 needs at least 100")
            setup_s = statistics.median(setups)
            metrics = end_to_end(runner, setup_s, setup_factor, rescale=True)
            wall = end_to_end(runner, setup_s, setup_factor, rescale=False)
            wanted = end_to_end_units
            rows = [("metric", "reported", "wall", "unit")]
            rows += [(name, metrics[name], wall[name], wanted.get(name, "s")) for name in metrics]
    finally:
        workload.close()

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "passes": len(runner.passes), "jobs_per_pass": len(jobs),
            "jobs_total": runner.attempted, "jobs_failed": runner.failed,
            "calibration_mean_s": statistics.fmean(speed.samples),
            "calibration_samples": len(speed.samples),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg())}
    for problem in problems:
        print(f"CHECK {problem}", file=sys.stderr)
    print("run " + json.dumps(info, sort_keys=True))
    print_table(f"{workload.name} (seed {args.seed}, "
                f"{'traced' if args.trace else 'untraced'})",
                rows + [("jobs_total", runner.attempted), ("jobs_failed", runner.failed)])
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
