"""Seeded input generation for the benchmark workloads.

Nothing here is timed.  Random chains are built as JSON documents in the
package's chain format, so set-up loads them through the package's own
parser.  Transition masses are multiples of 1/64, so every row sums to
exactly 1.0 in floating point.
"""
from __future__ import annotations

import hashlib
import json
import random

# Exhaustive workload: one random chain on both sides of a sample, so no
# formula separates it.  Size 5 keeps a request near one second, which
# leaves room for a few dozen requests in a run.
EXHAUSTIVE_STATES = 12
EXHAUSTIVE_AP = ("a", "b", "c")
EXHAUSTIVE_CONFIG = {"max_size": 5, "max_depth": 2, "delta": 0.05}
EXHAUSTIVE_POOL = 256
# Requests come in rounds that take one chain from each of this many bands
# of search work; see exhaustive_order.
EXHAUSTIVE_BANDS = 8

# Check-large workload: chain sizes and the body templates evaluated on
# every chain.  {a} and {b} are the chain's two propositions.
SINK_SIZES = (100, 200, 400, 800)
SCC_SIZE = 400
GRID_SIZES = (20, 30)
GRID_SLIPS = (1.0 / 3.0, 0.25, 0.3125, 0.375)
BODIES = (
    "F({a})",
    "G(!{b})",
    "({a} U {b})",
    "X({b})",
    "G(F({a}))",
    "F(G({b}))",
    "F(({a} & F({b})))",
    "(F({a}) U {b})",
    "X(F({b}))",
)

FAMILY_KINDS = ("reach", "safety", "conjunction", "until", "gridworld")
FAMILY_SEEDS_PER_KIND = 8


def _masses(rng: random.Random, k: int) -> list[float]:
    """k positive multiples of 1/64 summing to exactly 1.0."""
    cuts = sorted(rng.sample(range(1, 64), k - 1)) if k > 1 else []
    bounds = [0, *cuts, 64]
    return [(b - a) / 64.0 for a, b in zip(bounds, bounds[1:])]


def _labels(rng: random.Random, n: int, ap) -> list[list[str]]:
    return [[p for p in ap if rng.random() < 0.35] for _ in range(n)]


def chain_doc(n: int, init: int, ap, labels, edges) -> dict:
    return {
        "states": n,
        "init": init,
        "ap": list(ap),
        "labels": {str(i): lab for i, lab in enumerate(labels) if lab},
        "transitions": [[s, t, q] for s, t, q in edges],
    }


def random_chain(rng: random.Random, n: int, ap, sink_every: int = 0) -> dict:
    """Up to three successors per state; with sink_every > 0, n // sink_every
    states (at least one) are absorbing instead."""
    labels = _labels(rng, n, ap)
    sinks = set(rng.sample(range(n), max(1, n // sink_every))) if sink_every else set()
    edges = []
    for s in range(n):
        if s in sinks:
            edges.append((s, s, 1.0))
            continue
        k = rng.randint(1, min(3, n))
        edges += [(s, t, q) for t, q in zip(rng.sample(range(n), k), _masses(rng, k))]
    return chain_doc(n, rng.randrange(n), ap, labels, edges)


def scc_chain(rng: random.Random, n: int, ap) -> dict:
    """Strongly connected: a ring s -> s+1 plus up to two random chords."""
    labels = _labels(rng, n, ap)
    edges = []
    for s in range(n):
        targets = [(s + 1) % n]
        for t in rng.sample(range(n), rng.randint(0, 2)):
            if t not in targets:
                targets.append(t)
        edges += [(s, t, q) for t, q in zip(targets, _masses(rng, len(targets)))]
    return chain_doc(n, rng.randrange(n), ap, labels, edges)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exhaustive_chain(index: int) -> str:
    """JSON text of pool chain `index`; the reference file pins its digest."""
    rng = random.Random(index)
    return dumps(random_chain(rng, EXHAUSTIVE_STATES, EXHAUSTIVE_AP))


def exhaustive_order(seed: int, work: list[int]) -> list[int]:
    """The workload seed's request order over the pool.

    Search cost differs about fourfold between pool chains, and a run
    makes only a few dozen requests, so a plain shuffle would let the
    seed's draw of cheap and dear chains move the run's median and tail.
    The pool is cut into EXHAUSTIVE_BANDS bands by `work` (bodies each
    chain's search scores), and each round of requests takes one chain
    from every band in a seeded order."""
    rng = random.Random(seed)
    ranked = sorted(range(EXHAUSTIVE_POOL), key=lambda i: (work[i], i))
    size = EXHAUSTIVE_POOL // EXHAUSTIVE_BANDS
    bands = [ranked[k * size:(k + 1) * size] for k in range(EXHAUSTIVE_BANDS)]
    for band in bands:
        rng.shuffle(band)
    order = []
    for r in range(size):
        round_ = [band[r] for band in bands]
        rng.shuffle(round_)
        order.extend(round_)
    return order


def family_seeds(seed: int) -> list[tuple[str, int]]:
    """(kind, benchgen seed) pairs; benchgen maps each seed to one of a
    small menu of parameter variants."""
    rng = random.Random(seed)
    return [
        (kind, rng.randrange(1 << 20))
        for kind in FAMILY_KINDS
        for _ in range(FAMILY_SEEDS_PER_KIND)
    ]


def check_chains(seed: int, benchgen, dtmc_to_json) -> list[tuple[str, str, tuple[str, str]]]:
    """(name, JSON text, (a, b) proposition names) for every chain."""
    rng = random.Random(seed)
    out = []
    for n in SINK_SIZES:
        out.append((f"sink{n}", dumps(random_chain(rng, n, ("a", "b"), 16)), ("a", "b")))
    out.append((f"scc{SCC_SIZE}", dumps(scc_chain(rng, SCC_SIZE, ("a", "b"))), ("a", "b")))
    slip = rng.choice(GRID_SLIPS)
    for w in GRID_SIZES:
        mdp = benchgen.gridworld_mdp(w, w, slip)
        for kind in ("timid", "bold"):
            m = benchgen.induced_dtmc(mdp, benchgen.gridworld_strategy(w, w, kind))
            out.append((f"{kind}{w}", dtmc_to_json(m), ("goal", "trap")))
    return out
