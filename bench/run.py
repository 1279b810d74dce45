"""pltl-learn benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload families|exhaustive|check-large \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
One process, one request in flight, jobs=1, BLAS capped at min(nproc, 2)
threads.  The seed derives every input.

--trace 0 measures the end-to-end metrics with tracing off: requests
run in whole passes until the next pass would overrun --seconds, then
every output is checked against the workload's reference.

--trace 1 runs each request of a fixed list untraced and then traced
(spans around the calls into each layer, see spans.py), checks both and
that their outputs are identical, and reports the per-layer metrics and
the tracing overhead.  The spans go to .bench_out/ in gzipped TSV.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it records the environment and the details
behind the metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

# BLAS reads its thread count when numpy loads.
NPROC = os.cpu_count() or 1
BLAS_THREADS = min(NPROC, 2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, StatsRecorder  # noqa: E402

ROOT = Path.cwd()
MODULES = ("dtmc", "ltl", "engine", "learner", "benchgen", "cli")
SETUP_REPS = 20
WARMUP_S = 1.0
# Enough requests that req_tail_s has 10 beyond it and a median besides.
MIN_REQUESTS = 20
# Stop starting passes after this long whatever --seconds says, so a run
# ends well inside its time limit.
MAX_MEASURE_S = 120.0
TAIL_BEYOND = 10

END_TO_END = {
    "req_p50_s": "s",
    "req_tail_s": "s",
    "req_per_s": "1/s",
    "bodies_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def import_package() -> SimpleNamespace:
    importlib.import_module("pltl_learn")
    return SimpleNamespace(**{m: importlib.import_module(f"pltl_learn.{m}") for m in MODULES})


# One set-up round's import, in a fresh interpreter so that it includes
# numpy and everything else pltl_learn loads; interpreter start-up is not
# timed.
IMPORT_ROUND = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    f"import pltl_learn, {', '.join(f'pltl_learn.{m}' for m in MODULES)}\n"
    "print(time.perf_counter() - t0)\n"
)


def fresh_import_s() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_ROUND, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


class SetUp:
    """Set-up rounds, each a fresh-interpreter import of pltl_learn plus
    loading the inputs in this process.  A run does half of its rounds
    before the requests and half after them, so drift in machine speed
    over the run falls on both halves."""

    def __init__(self, workload, pkg):
        self.workload, self.pkg = workload, pkg
        self.rounds: list[float] = []
        self.imports: list[float] = []

    def run(self, n: int) -> None:
        for _ in range(n):
            self.imports.append(fresh_import_s())
            gc.collect()
            t0 = time.perf_counter()
            self.workload.load(self.pkg)
            self.rounds.append(self.imports[-1] + time.perf_counter() - t0)


class Record(NamedTuple):
    key: Any
    seconds: float
    output: Any
    bodies: int
    error: str | None


def run_request(workload, pkg, recorder, key, tracer=None) -> Record:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output, bodies = workload.request(pkg, recorder, key)
        else:
            output, bodies = tracer.request(key, workload.request, pkg, recorder, key)
        error = None
    except Exception as e:  # an unexpected exception is a failed request
        output, bodies, error = None, 0, f"{type(e).__name__}: {e}"
    return Record(key, time.perf_counter() - t0, output, bodies, error)


def warm_up(workload, pkg, recorder) -> None:
    """Untimed requests from a pass the measurement starts elsewhere, so
    lazy imports and first-call costs are paid before timing."""
    t0 = time.perf_counter()
    for key in workload.pass_requests(-1):
        run_request(workload, pkg, recorder, key)
        if time.perf_counter() - t0 > WARMUP_S:
            break


def measure(workload, pkg, recorder, seconds: float) -> tuple[list[Record], float, int]:
    """Whole passes until the next one would end after `seconds`."""
    records: list[Record] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for key in workload.pass_requests(passes):
            records.append(run_request(workload, pkg, recorder, key))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed > MAX_MEASURE_S:
            break
        if len(records) >= MIN_REQUESTS and elapsed * (passes + 1) / passes > seconds:
            break
    return records, time.perf_counter() - start, passes


def gate(workload, records: list[Record]) -> list[str]:
    """Descriptions of the failed requests (wrong output or exception)."""
    failures = []
    for r in records:
        if r.error is not None:
            failures.append(f"{workload.describe(r.key)}: {r.error}")
        elif not workload.check(r.key, r.output):
            failures.append(f"{workload.describe(r.key)}: wrong output")
    return failures


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    requests beyond it: the (TAIL_BEYOND+1)-th slowest request."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed: int) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_e2e(workload, pkg, recorder, seconds, setup, details) -> tuple[dict, int, int]:
    warm_up(workload, pkg, recorder)
    records, wall, passes = measure(workload, pkg, recorder, seconds)
    setup.run(SETUP_REPS - SETUP_REPS // 2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = gate(workload, records)
    times = [r.seconds for r in records]
    n = len(records)
    tail_s, tail_pct = tail(times)
    details.update(
        requests=n, passes=passes, measured_s=wall,
        req_tail_percentile=tail_pct, req_tail_samples=n, failures=failures[:5],
    )
    metrics = {
        "req_p50_s": statistics.median(times),
        "req_tail_s": tail_s,
        "req_per_s": n / wall,
        "bodies_per_s": sum(r.bodies for r in records) / wall,
        "setup_s": statistics.median(setup.rounds),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_rate": (n - len(failures)) / n,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, n, len(failures)


def run_traced(workload, pkg, recorder, seed, details) -> tuple[dict, int, int, bool]:
    """Each request of a fixed list runs untraced and then traced, so
    machine noise falls on both sides of the overhead alike."""
    keys = [k for p in range(workload.trace_passes) for k in workload.pass_requests(p)]
    warm_up(workload, pkg, recorder)
    tracer = spans.Tracer(pkg)
    plain, traced = [], []
    for k in keys:
        plain.append(run_request(workload, pkg, recorder, k))
        tracer.install()
        try:
            traced.append(run_request(workload, pkg, recorder, k, tracer))
        finally:
            tracer.uninstall()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    failures = gate(workload, plain) + gate(workload, traced)
    identical = [r.output for r in plain] == [r.output for r in traced]
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(out)
    details.update(
        requests=len(keys), untraced_s=plain_s, traced_s=traced_s,
        traced_outputs_identical=identical, spans=len(tracer.start),
        spans_file=str(out.relative_to(ROOT)), failures=failures[:5],
    )
    result = {k: {"value": metrics[k], "unit": u} for k, u in spans.METRICS.items()}
    return result, 2 * len(keys), len(failures), identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        pkg = import_package()
        workload.generate(args.seed, workdir, pkg)
        setup = SetUp(workload, pkg)
        setup.run(SETUP_REPS // 2)
        recorder = StatsRecorder(pkg.learner.RunStats)
        pkg.learner.RunStats = recorder
        details = {"workload": workload.name, "trace": args.trace, "env": environment(args.seed)}
        if args.trace:
            metrics, attempted, failed, identical = run_traced(workload, pkg, recorder, args.seed, details)
        else:
            metrics, attempted, failed = run_e2e(workload, pkg, recorder, args.seconds, setup, details)
            identical = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(setup_runs_s=setup.rounds, setup_import_s=setup.imports)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
