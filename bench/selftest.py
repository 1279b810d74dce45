"""Self-test of the benchmark: the gate rejects corrupted outputs, and
the names the command prints match BENCHMARK.json.

    python3 bench/selftest.py

Run from the root of a checkout.  Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
from workloads import WORKLOADS, StatsRecorder

SEED = 3


def workload(name: str, workdir: Path):
    w = WORKLOADS[name]()
    pkg = run.import_package()
    w.generate(SEED, workdir, pkg)
    w.load(pkg)
    recorder = StatsRecorder(getattr(pkg.learner.RunStats, "cls", pkg.learner.RunStats))
    pkg.learner.RunStats = recorder
    return w, pkg, recorder


def gate_checks(workdir: Path) -> list[str]:
    problems = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    w, pkg, rec = workload("check-large", workdir / "c")
    solved = pinned_one = None
    for i in range(len(w.keys)):
        expected, pinned = w.reference(i)
        if solved is None and not all(pinned):
            solved = (i, pinned.index(False))
        if pinned_one is None and any(p and v == 1.0 for v, p in zip(expected, pinned)):
            pinned_one = (i, next(s for s, (v, p) in enumerate(zip(expected, pinned)) if p and v == 1.0))
    for label, (i, s), corrupt in (
        ("check-large: value nudged by 1e-6", solved, lambda v: v + 1e-6),
        ("check-large: 1.0 pin turned into 1 - 2**-53", pinned_one, lambda v: 1.0 - 2.0**-53),
    ):
        values, _ = w.request(pkg, rec, i)
        expect(f"check-large: {w.describe(i)} passes", w.check(i, values))
        bad = list(values)
        bad[s] = corrupt(bad[s])
        expect(f"{label} ({w.describe(i)}, state {s}) is rejected", not w.check(i, tuple(bad)))

    w, pkg, rec = workload("families", workdir / "f")
    i = next(k for k, (_, ref) in enumerate(w.samples) if ref.count("\n") > 1)
    (rc, out, err), _ = w.request(pkg, rec, i)
    expect("families: a request passes", w.check(i, (rc, out, err)))
    dropped = "".join(out.splitlines(keepends=True)[1:])
    expect("families: output missing one line is rejected", not w.check(i, (rc, dropped, err)))
    expect("families: nonzero exit is rejected", not w.check(i, (1, out, err)))

    w, pkg, rec = workload("exhaustive", workdir / "e")
    counters, _ = w.request(pkg, rec, 0)
    expect("exhaustive: a request passes", w.check(0, counters))
    bad = json.loads(json.dumps(counters))
    size = max(bad["checked"], key=int)
    bad["checked"][size] += 1
    expect("exhaustive: one changed counter is rejected", not w.check(0, bad))
    expect("exhaustive: a found formula is rejected", not w.check(0, ("found", ["P>0.5 [F(a)]"])))
    return problems


def name_checks() -> list[str]:
    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": sorted(w["name"] for w in bench["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared["workloads"] != sorted(WORKLOADS):
        problems.append(f"workloads {declared['workloads']} != {sorted(WORKLOADS)}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, "bench/run.py", "--workload", "families", "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace)]
        last = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(last.splitlines()[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        ok = printed == declared[key] and result["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} --trace {trace} prints the {key} metrics of BENCHMARK.json")
        if not ok:
            problems.append(f"--trace {trace}: printed {printed}, declared {declared[key]}")
    if set(spans.METRICS) != set(declared["per_layer"]):
        problems.append("spans.METRICS differs from BENCHMARK.json per_layer")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        problems = gate_checks(workdir) + name_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
