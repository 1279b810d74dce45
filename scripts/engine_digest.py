#!/usr/bin/env python3
"""One sha256 over the engine's output on a fixed body set and fixed chains.

Every canonical body up to size 5 over a, b, c (temporal depth at most 2)
is scored with check_ltl on a set of seeded random chains, in the order
pts walks them (sorted by the hashes of their temporal subformula
sequences) and with one refinement log shared per chain, as pts does.
The digest covers repr() of every per-state vector, so two trees that
print the same digest compute bit-identical vectors.  One chain lacks
the proposition c, so bodies naming it read c as false everywhere.

Run it on two trees and compare the printed digests:

    PYTHONPATH=src python3 scripts/engine_digest.py
"""
import hashlib
import random

from pltl_learn.dtmc import Dtmc
from pltl_learn.engine import LinearSolveError, check_ltl, temporal_subformulas
from pltl_learn.learner import gbe_init, gbe_step, size_bucket

AP = ("a", "b", "c")
MAX_SIZE = 5
# (seed, states, alphabet): the last chain lacks c.
CHAINS = [(seed, 6 + 2 * seed, AP) for seed in range(6)] + [(6, 10, ("a", "b"))]


def random_chain(seed: int, n: int, ap) -> Dtmc:
    """n states, up to three successors each, masses that are multiples
    of 1/60 (not dyadic, so sums round)."""
    rng = random.Random(seed)
    labels = [frozenset(p for p in ap if rng.random() < 0.4) for _ in range(n)]
    edges = []
    for s in range(n):
        k = rng.randint(1, 3)
        cuts = [0, *sorted(rng.sample(range(1, 60), k - 1)), 60]
        for t, (lo, hi) in zip(rng.sample(range(n), k), zip(cuts, cuts[1:])):
            edges.append((s, t, (hi - lo) / 60.0))
    return Dtmc(n, rng.randrange(n), tuple(ap), tuple(labels), tuple(edges))


def bodies() -> list:
    state = gbe_init(AP, max_depth=2)
    out = list(size_bucket(state, 1))
    for n in range(2, MAX_SIZE + 1):
        gbe_step(state, n)
        out += size_bucket(state, n)
    return sorted(out, key=lambda f: tuple(psi.hash64 for psi in temporal_subformulas(f)))


def main() -> None:
    fs = bodies()
    h = hashlib.sha256()
    for seed, n, ap in CHAINS:
        m = random_chain(seed, n, ap)
        log: list = []
        for f in fs:
            try:
                got = repr(check_ltl(m, f, log).values)
            except LinearSolveError as err:
                got = f"{type(err).__name__}: {err}"
            h.update(got.encode() + b"\n")
    print(f"{h.hexdigest()}  {len(fs)} bodies x {len(CHAINS)} chains")


if __name__ == "__main__":
    main()
