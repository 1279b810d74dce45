#!/usr/bin/env python3
"""One sha256 over the engine's output on a fixed body set and fixed chains.

Every canonical body up to size 5 over a, b, c (temporal depth at most 2)
is scored with engine.check_each on a set of seeded random chains, as
pts scores a sample, and hashed in the order check_each yields them.
The digest covers repr() of every per-state vector as a tuple of
floats, so two trees that print the same digest compute bit-identical
vectors.  One chain lacks the proposition c, so bodies naming it read
c as false everywhere.

The bodies are also scored with check_each on the union of a sample of
the chains projected onto a, b, c, and each chain is read at its offset
in it, as pts reads a sample.  The script exits 1 if any chain's part of
the union's vector differs from the chain's own vector, or if the union
and the chains disagree on which bodies fail to solve.

Run it on two trees and compare the printed digests:

    PYTHONPATH=src python3 scripts/engine_digest.py
"""
import hashlib
import random
import sys

from pltl_learn.dtmc import Dtmc, Sample
from pltl_learn.engine import LinearSolveError, check_each
from pltl_learn.learner import gbe_init, gbe_step, size_bucket
from pltl_learn.ltl import print_ltl

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
    return out


def union_mismatches(fs, ms, alone) -> list[str]:
    """Bodies whose vectors on the union differ from the chains' own;
    alone[k][j] is repr() of chain k's vector for body j as a tuple, or
    None if its solve failed."""
    # A sample needs a negative chain; the first chain again adds no
    # content to the union.
    sample = Sample.build(ms, ms[:1], list(AP))
    bad = []
    for j, got in check_each(sample.union, fs):
        expect = [own[j] for own in alone]
        if isinstance(got, LinearSolveError):
            if None not in expect:
                bad.append(print_ltl(fs[j]))
        elif [repr(tuple(got.values[at : at + m.n_states])) for at, m in zip(sample.offsets, ms)] != expect:
            bad.append(print_ltl(fs[j]))
    return bad


def main() -> int:
    fs = bodies()
    ms = [random_chain(seed, n, ap) for seed, n, ap in CHAINS]
    h = hashlib.sha256()
    alone = []
    for m in ms:
        own = [None] * len(fs)
        for j, got in check_each(m, fs):
            if isinstance(got, LinearSolveError):
                line = f"{type(got).__name__}: {got}"
            else:
                line = own[j] = repr(tuple(got.values))
            h.update(line.encode() + b"\n")
        alone.append(own)
    print(f"{h.hexdigest()}  {len(fs)} bodies x {len(CHAINS)} chains")
    bad = union_mismatches(fs, ms, alone)
    if bad:
        print(f"union vectors differ on {len(bad)} bodies, first {bad[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
