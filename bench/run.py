"""Benchmark of snnplace: seeded synthetic workloads, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload train_pipeline --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2 and prints no
result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  A failed correctness check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train_pipeline", "query_stream", "replay_batch")
SETUP_REPEATS = 5


def git_rev(root: str) -> str:
    """Commit of the checkout, read from .git without starting git; 'unknown' outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # kB on Linux


def run_metadata(seed: int) -> dict:
    import numpy as np

    return {
        "git_rev": git_rev(ROOT),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "workers": 1,
    }


class SpeedProbe:
    """Scale factors from wall seconds to reference seconds.

    The machine changes speed by up to 1.8x over tens of seconds, and CPU
    time moves with wall time, so the core itself runs slower.  The probe
    is a fixed numpy loop shaped like the simulation step, over weight
    matrices of the workload's expert count and size, so that it shares
    the workload's cache footprint.  It calls no snnplace code, so no
    change to the library moves it.  An interval between two probe points
    is scaled by ``reference_s`` over the mean probe time at its ends.
    """

    steps = 300
    runs = 5

    def __init__(self, experts: int, neurons: int, reference_s: float):
        import numpy as np

        rng = np.random.default_rng(0)
        self.weights = [rng.uniform(0.0, 0.3, (784, neurons)) for _ in range(experts)]
        self.rows = rng.integers(0, 784, size=(self.steps, 13))   # ~13 input spikes per step
        self.reference_s = reference_s
        self.factors: list[float] = []
        self.last = self.probe_s()

    def probe_s(self) -> float:
        """Median wall seconds of ``runs`` loops, each over the next weight matrix."""
        import numpy as np

        times = []
        for run in range(self.runs):
            w = self.weights[run % len(self.weights)]
            g = np.zeros(w.shape[1])
            v = np.full(w.shape[1], -65.0)
            start = time.perf_counter()
            for rows in self.rows:
                g += w[rows].sum(axis=0)
                dv = 0.005 * ((-65.0 - v) + g * (0.0 - v))
                v += np.where(v > -70.0, dv, 0.0)
                g *= 0.6
                v[v >= -52.0] = -65.0
            times.append(time.perf_counter() - start)
        return sorted(times)[len(times) // 2]

    def factor(self) -> float:
        """Factor for the interval since the previous call (or construction)."""
        now = self.probe_s()
        self.factors.append(self.reference_s / ((self.last + now) / 2.0))
        self.last = now
        return self.factors[-1]


def import_library():
    """Import snnplace from this checkout's src/ or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "snnplace", "__init__.py")):
        print(f"error: no snnplace sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import snnplace

    if not os.path.abspath(snnplace.__file__).startswith(SRC + os.sep):
        print(f"error: snnplace was imported from {snnplace.__file__}", file=sys.stderr)
        sys.exit(2)


def measure(cls, seed: int, seconds: float, work: str):
    """Untraced run: set-up repeated, then jobs until the time is up."""
    from workloads import median

    probe = SpeedProbe(*cls.probe)
    setup_wall_s = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed, os.path.join(work, f"setup{i}"))
        workload.warm_up()
        setup_wall_s.append(time.perf_counter() - start)
        probe.factor()

    workload.speed = probe
    samples = []    # per job: stage -> (wall, reference) seconds
    start = time.perf_counter()
    while len(samples) < workload.min_jobs or time.perf_counter() - start < seconds:
        samples.extend(workload.round(len(samples)))
    workload.check()

    # Set-up is too short for a probe point of its own to be reliable, so it
    # is scaled by the median factor of the whole run.
    setup_s = median(setup_wall_s) * median(probe.factors)
    job_s = [sum(ref for _, ref in stages.values()) for stages in samples]
    job_wall_s = [sum(wall for wall, _ in stages.values()) for stages in samples]

    def row(value, unit, stat, n):
        return {"value": value, "unit": unit, "stat": stat, "samples": n}

    details = {
        "job_s": row(median(job_s), "s", "median", len(job_s)),
        "setup_s": row(setup_s, "s", "median", len(setup_wall_s)),
        "peak_rss_mb": row(peak_rss_mb(), "MB", "process peak", 1),
        **workload.details(samples),
        "job_wall_s": row(median(job_wall_s), "s", "median", len(job_wall_s)),
        "setup_wall_s": row(median(setup_wall_s), "s", "median", len(setup_wall_s)),
        "speed_factor": row(median(probe.factors), "ratio", "median", len(probe.factors)),
    }
    metrics = {name: {"value": details[name]["value"], "unit": details[name]["unit"]}
               for name in ("job_s", "setup_s", "peak_rss_mb")}
    return workload, len(samples), metrics, details


COUNT_UNITS = ("count", "bytes")


def measure_traced(cls, seed: int, work: str):
    """Traced run: untraced and traced passes of the same work, alternating.

    Each pass is scaled to reference seconds by probe points around it, so
    that the overhead estimate does not follow the machine's speed.
    """
    from tracing import Tracer

    workload = cls(seed, os.path.join(work, "setup"))
    workload.warm_up()
    probe = SpeedProbe(*cls.probe)
    tracer = Tracer()
    jobs = 0
    untraced_s, passes = [], []
    for _ in range(2):
        start = time.perf_counter()
        jobs += workload.traced_pass()
        untraced_s.append((time.perf_counter() - start) * probe.factor())
        tracer.reset()
        tracer.install()
        workload.tracer = tracer
        try:
            start = time.perf_counter()
            with tracer.span("job"):
                jobs += workload.traced_pass()
            elapsed = time.perf_counter() - start
        finally:
            workload.tracer = None
            tracer.uninstall()
        passes.append((elapsed * probe.factor(), tracer.layer_metrics()))
    workload.check()

    counts = [{k: v for k, (v, unit) in layer.items() if unit in COUNT_UNITS} for _, layer in passes]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        workload.fail(-1, f"work counts differ between two traced passes: {differ}")
    traced_s = min(seconds for seconds, _ in passes)
    untraced_s = min(untraced_s)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in passes[1][1].items()}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{cls.name}-seed{seed}.json"), "w") as fh:
        json.dump({"untraced_s": untraced_s, "traced_s": traced_s,
                   "spans": [span.as_dict() for span in tracer.spans]}, fh)
    details = {"trace.untraced_pass_s": {"value": untraced_s, "unit": "s", "stat": "min", "samples": 2},
               "trace.traced_pass_s": {"value": traced_s, "unit": "s", "stat": "min", "samples": 2}}
    return workload, jobs, metrics, details


def run_one(args) -> int:
    import_library()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            workload, attempted, metrics, details = measure_traced(cls, args.seed, work)
        else:
            workload, attempted, metrics, details = measure(cls, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, messages in sorted(workload.failures.items()):
        for message in messages:
            print(f"check failed (job {index}): {message}", file=sys.stderr)
    failed = len(workload.failures)
    for name, row in details.items():
        print(f"{args.workload} {name} = {row['value']:.6g} {row['unit']} "
              f"({row['stat']} of {row['samples']})")
    print(json.dumps({"meta": run_metadata(args.seed), "workload": args.workload,
                      "trace": args.trace, "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
