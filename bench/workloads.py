"""The three workloads: inputs, set-up, one request, and its gate.

A request is one `learn` or one `check_ltl` call.  Every call goes
through a module attribute looked up at call time (`pkg.cli.main`,
`pkg.learner.learn`, `pkg.engine.check_ltl`), so the traced run sees the
same calls the program makes.

Why these workloads:

* families: the README path.  Searches stop at size 2-5, so fixed costs
  per request dominate (manifest parsing, projection, re-verification,
  printing, and bsc on conjunction).  The control for enumeration and
  solver changes, and where added set-up cost shows.
* exhaustive: samples with no solution, so the search scans every
  canonical body up to the size bound.  Stresses gbe, pts and many tiny
  engine calls; half of its chains repeat content.
* check-large: check_ltl on chains of 100-900 states, where dense
  solves dominate.  No enumeration: the control for gbe/pts/bsc changes.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import gen
import reference

REF_DIR = Path(__file__).resolve().parent / "ref"
COUNTERS = ("constructed", "pruned_temporal", "pruned_boolean", "checked", "discarded", "pooled")
# check-large gate: absolute tolerance for values the reference solved.
TOLERANCE = 1e-9


def run_counters(stats) -> dict:
    """The per-size RunStats counters as JSON-ready dicts."""
    return {c: {str(k): v for k, v in sorted(getattr(stats, c).items())} for c in COUNTERS}


def learn_cli(pkg, manifest: Path) -> tuple[int, str, str]:
    """`pltl-learn learn --sample manifest` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(["learn", "--sample", str(manifest)])
    return rc, out.getvalue(), err.getvalue()


class StatsRecorder:
    """Stands in for learner.RunStats so the benchmark sees the counters of
    each learn call, including one that ends in NoSolutionError."""

    def __init__(self, cls):
        self.cls = cls
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.cls(*args, **kwargs)
        return self.last


class Families:
    """All five benchgen kinds at 8 benchgen seeds each, learned through
    the command line entry point with each manifest's default params."""

    name = "families"
    trace_passes = 5

    def generate(self, seed: int, workdir: Path, pkg) -> None:
        refs = json.loads((REF_DIR / "families.json").read_text())
        self.samples = []  # (manifest path, expected stdout)
        for i, (kind, s) in enumerate(gen.family_seeds(seed)):
            builder, params = pkg.benchgen.KINDS[kind]
            path = pkg.benchgen.write_sample(
                builder(seed=s), workdir / f"{i:02d}-{kind}", "json", params,
                generator={"name": kind, "seed": s},
            )
            self.samples.append((path, refs.get(self.content_key(path))))

    @staticmethod
    def content_key(manifest: Path) -> str:
        """Digest of what the learner sees: chain files and params."""
        doc = json.loads(manifest.read_text())
        parts = [json.dumps(doc.get("params"), sort_keys=True)]
        for side in ("positive", "negative"):
            parts += [(manifest.parent / e["path"]).read_text() for e in doc[side]]
        return gen.digest("\n".join(parts))

    def load(self, pkg) -> None:
        """Parse every chain and build every sample, as the CLI does."""
        for path, _ in self.samples:
            doc = json.loads(path.read_text())
            chains = {
                side: [pkg.dtmc.parse_json_dtmc((path.parent / e["path"]).read_text())
                       for e in doc[side]]
                for side in ("positive", "negative")
            }
            pkg.dtmc.Sample.build(chains["positive"], chains["negative"], doc.get("ap"))

    def pass_requests(self, k: int) -> list[int]:
        return list(range(len(self.samples)))

    def request(self, pkg, recorder, i: int):
        return learn_cli(pkg, self.samples[i][0]), recorder.last.total("checked")

    def check(self, i: int, output) -> bool:
        # A variant missing from the reference cannot be vouched for.
        expected = self.samples[i][1]
        return expected is not None and output == (0, expected, "")

    def describe(self, i: int) -> str:
        return f"families {self.samples[i][0].parent.name}"


class Exhaustive:
    """learn() on one random 12-state chain placed on both sides, so every
    request must end in NoSolutionError after scanning all bodies up to
    the size bound.  The seed orders a fixed pool of chains whose
    per-size counters the reference file holds; the counters also give
    the bands gen.exhaustive_order draws from."""

    name = "exhaustive"
    trace_passes = 8

    def generate(self, seed: int, workdir: Path, pkg) -> None:
        ref = json.loads((REF_DIR / "exhaustive.json").read_text())
        work = [sum(c["counters"]["checked"].values()) for c in ref["chains"]]
        self.order = gen.exhaustive_order(seed, work)
        self.texts = [gen.exhaustive_chain(i) for i in self.order]
        self.expected = []
        for i, text in zip(self.order, self.texts):
            entry = ref["chains"][i]
            # A changed generator would make the reference meaningless.
            self.expected.append(entry["counters"] if entry["digest"] == gen.digest(text) else None)

    def load(self, pkg) -> None:
        ap = list(gen.EXHAUSTIVE_AP)
        self.samples = []
        for text in self.texts:
            m = pkg.dtmc.parse_json_dtmc(text)
            self.samples.append(pkg.dtmc.Sample.build([m], [m], ap))
        self.config = pkg.learner.LearnConfig(**gen.EXHAUSTIVE_CONFIG)

    def pass_requests(self, k: int) -> list[int]:
        return [k % len(self.samples)]

    def request(self, pkg, recorder, i: int):
        try:
            result = pkg.learner.learn(self.samples[i], self.config)
        except pkg.learner.NoSolutionError:
            return run_counters(recorder.last), recorder.last.total("checked")
        return ("found", [pkg.ltl.print_pltl(f) for f in result.formulas]), result.stats.total("checked")

    def check(self, i: int, output) -> bool:
        return self.expected[i] is not None and output == self.expected[i]

    def describe(self, i: int) -> str:
        return f"exhaustive pool chain {self.order[i]}"


class CheckLarge:
    """check_ltl of a fixed list of depth-1 and depth-2 bodies on random
    chains with absorbing sinks (100-800 states), one strongly connected
    400-state chain, and timid/bold gridworld chains at 20x20 and 30x30."""

    name = "check-large"
    trace_passes = 1

    def generate(self, seed: int, workdir: Path, pkg) -> None:
        self.chains = gen.check_chains(seed, pkg.benchgen, pkg.dtmc.dtmc_to_json)
        self.keys = [(c, t) for c in range(len(self.chains)) for t in range(len(gen.BODIES))]
        self.references: dict[tuple[int, int], tuple] = {}

    def load(self, pkg) -> None:
        self.models = [pkg.dtmc.parse_json_dtmc(text) for _, text, _ in self.chains]
        self.bodies = [
            [pkg.ltl.parse_ltl(tpl.format(a=a, b=b)) for tpl in gen.BODIES]
            for _, _, (a, b) in self.chains
        ]

    def pass_requests(self, k: int) -> list[int]:
        return list(range(len(self.keys)))

    def request(self, pkg, recorder, i: int):
        c, t = self.keys[i]
        return pkg.engine.check_ltl(self.models[c], self.bodies[c][t]).values, 1

    def reference(self, i: int):
        """(values, pinned) from the independent evaluator, computed once."""
        c, t = self.keys[i]
        if (c, t) not in self.references:
            _, text, (a, b) = self.chains[c]
            self.references[(c, t)] = reference.evaluate(text, gen.BODIES[t], a, b)
        return self.references[(c, t)]

    def check(self, i: int, values) -> bool:
        expected, pinned = self.reference(i)
        if len(values) != len(expected):
            return False
        for v, e, p in zip(values, expected, pinned):
            # Pinned 0.0/1.0 must match exactly: pts's discard rule
            # compares with ==.  The negated <= also rejects NaN.
            if v != e if p else not abs(v - e) <= TOLERANCE:
                return False
        return True

    def describe(self, i: int) -> str:
        c, t = self.keys[i]
        return f"check-large {self.chains[c][0]} {gen.BODIES[t]}"


WORKLOADS = {w.name: w for w in (Families, Exhaustive, CheckLarge)}
