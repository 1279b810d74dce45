"""Regenerate the gate references in bench/ref/ from the current program.

    python3 bench/make_refs.py

Run it only at a commit whose outputs are trusted: the references pin
that commit's outputs, and every later run is compared with them.

families.json maps the content digest of every benchgen variant (each
kind has a small menu of parameter sets; benchgen seeds 0..SEEDS-1 reach
all of them) to its `learn` stdout.  exhaustive.json holds, for every
chain of the pool, its digest and the per-size counters of its search.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gen
import run
from workloads import REF_DIR, Families, StatsRecorder, learn_cli, run_counters

SEEDS = 4000


def families(pkg, workdir: Path) -> dict:
    refs: dict[str, str] = {}
    for kind in gen.FAMILY_KINDS:
        builder, params = pkg.benchgen.KINDS[kind]
        seen: dict[str, str] = {}
        for s in range(SEEDS):
            path = pkg.benchgen.write_sample(builder(seed=s), workdir / "s", "json", params)
            key = Families.content_key(path)
            if key in seen:
                continue
            rc, out, err = learn_cli(pkg, path)
            if rc != 0 or err:
                raise SystemExit(f"{kind} seed {s}: exit {rc}: {err}")
            seen[key] = out
        print(f"families: {kind}: {len(seen)} variants", file=sys.stderr)
        refs.update(seen)
    return dict(sorted(refs.items()))


def exhaustive(pkg) -> dict:
    recorder = StatsRecorder(pkg.learner.RunStats)
    pkg.learner.RunStats = recorder
    config = pkg.learner.LearnConfig(**gen.EXHAUSTIVE_CONFIG)
    chains = []
    for i in range(gen.EXHAUSTIVE_POOL):
        text = gen.exhaustive_chain(i)
        m = pkg.dtmc.parse_json_dtmc(text)
        try:
            pkg.learner.learn(pkg.dtmc.Sample.build([m], [m], list(gen.EXHAUSTIVE_AP)), config)
        except pkg.learner.NoSolutionError:
            chains.append({"digest": gen.digest(text), "counters": run_counters(recorder.last)})
        else:
            raise SystemExit(f"pool chain {i} has a solution")
    pkg.learner.RunStats = recorder.cls
    return {"config": gen.EXHAUSTIVE_CONFIG, "states": gen.EXHAUSTIVE_STATES,
            "ap": list(gen.EXHAUSTIVE_AP), "chains": chains}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    pkg = run.import_package()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.ROOT / ".bench_work"))
    try:
        doc = families(pkg, workdir)
        (REF_DIR / "families.json").write_text(json.dumps(doc, indent=1) + "\n")
        doc = exhaustive(pkg)
        (REF_DIR / "exhaustive.json").write_text(json.dumps(doc, indent=None) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
