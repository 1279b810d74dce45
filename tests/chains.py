"""Random chain generation and refinement-free probability oracles.

The random chains use transition masses that are multiples of 1/64, so
row sums are exactly 1.0 in floating point and validation never trips on
generator dust.  The oracles share no code with the library's engine:
next_prob and until_prob work on dense_matrix, the chain's transition
matrix as a numpy array, with graph sets found as fixpoints over its
nonzero pattern and one numpy.linalg.solve; gf_oracle and fg_oracle
reduce to until_prob through the bottom-SCC search bsccs; xx_prob and
seq_prob compose them.  None of them touch the prophecy-refinement path
they are used to judge, and the library never needs them.  dense_solve
is the plain dense Gaussian elimination that engine.solve_linear must
match bit for bit.
"""
from __future__ import annotations

import random

import numpy as np

from pltl_learn.dtmc import Dtmc
from pltl_learn.engine import LinearSolveError, SingularSystemError


def dense_matrix(m: Dtmc) -> np.ndarray:
    """Transition probabilities as an n_states x n_states array."""
    out = np.zeros((m.n_states, m.n_states))
    for s, t, p in m.transitions:
        out[s, t] += p
    return out


def dense_solve(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Ax = c by dense Gaussian elimination with partial pivoting: every
    step updates the whole trailing block.  Same pivot rule and pivot
    error as engine.solve_linear.  Its numpy residual, A @ x - c, is an
    independent check of the answer, not the engine's _checked."""
    A0 = np.array(A, dtype=float)
    c0 = np.array(c, dtype=float)
    n = c0.shape[0]
    if A0.shape != (n, n):
        raise ValueError(f"shape mismatch: A is {A0.shape}, c has {n} entries")
    if n == 0:
        return np.zeros(0)
    U = A0.copy()
    rhs = c0.copy()
    for k in range(n):
        piv = k + int(np.argmax(np.abs(U[k:, k])))
        if abs(U[piv, k]) < 1e-12:
            raise SingularSystemError(f"no usable pivot in column {k}")
        if piv != k:
            U[[k, piv]] = U[[piv, k]]
            rhs[[k, piv]] = rhs[[piv, k]]
        factors = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, k:] -= np.outer(factors, U[k, k:])
        rhs[k + 1 :] -= factors * rhs[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - U[k, k + 1 :] @ x[k + 1 :]) / U[k, k]
    resid = float(np.max(np.abs(A0 @ x - c0)))
    if not resid <= 1e-9 * (1.0 + float(np.max(np.abs(c0)))):
        raise LinearSolveError(f"residual {resid} too large")
    return x


def bsccs(m: Dtmc) -> list[frozenset[int]]:
    """Bottom strongly connected components, sorted by smallest member.

    Iterative Tarjan; a component is bottom when no edge leaves it.
    """
    rows = m.rows
    index = [-1] * m.n_states
    low = [0] * m.n_states
    on_stack = [False] * m.n_states
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []
    comp_of = [-1] * m.n_states

    for root in range(m.n_states):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if ei < len(rows[v]):
                work[-1] = (v, ei + 1)
                w = rows[v][ei][0]
                if index[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(comps)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)

    bottom = []
    for ci, comp in enumerate(comps):
        if all(comp_of[t] == ci for v in comp for t, _ in rows[v]):
            bottom.append(frozenset(comp))
    bottom.sort(key=min)
    return bottom


def _as_pred(m: Dtmc, pred):
    if callable(pred):
        return pred
    name = str(pred)
    return lambda s: name in m.labels[s]


def _true(_s: int) -> bool:
    return True


def _truth(m: Dtmc, pred) -> np.ndarray:
    p = _as_pred(m, pred)
    return np.array([bool(p(s)) for s in range(m.n_states)], dtype=bool)


def _reaches(edge: np.ndarray, target: np.ndarray, via: np.ndarray) -> np.ndarray:
    """States with a path to target whose states before it are via-states:
    the least fixpoint of target | (via & some edge into the set)."""
    out = target.copy()
    while True:
        grown = out | (via & edge[:, out].any(axis=1))
        if np.array_equal(grown, out):
            return out
        out = grown


def next_prob(m: Dtmc, pred) -> list[float]:
    """Per-state probability that the successor satisfies pred.

    A state whose successors all satisfy pred gets exactly 1.0."""
    P = dense_matrix(m)
    hit = _truth(m, pred)
    out = P @ hit
    out[~(P[:, ~hit] > 0).any(axis=1)] = 1.0
    return out.tolist()


def until_prob(m: Dtmc, a, b) -> list[float]:
    """Per-state probability of reaching a b-state along a-states.

    Two graph sets on the dense matrix, states of probability 0 and of
    probability 1, are pinned exactly; the rest solve
    (I - P_rest) x = P_rest,one 1 with numpy.linalg.solve.
    """
    P = dense_matrix(m)
    edge = P > 0
    hit = _truth(m, b)
    via = _truth(m, a) & ~hit
    some = _reaches(edge, hit, via)
    one = ~_reaches(edge, ~some, via)
    rest = some & ~one
    out = one.astype(float)
    if rest.any():
        A = np.eye(int(rest.sum())) - P[np.ix_(rest, rest)]
        out[rest] = np.linalg.solve(A, P[np.ix_(rest, one)].sum(axis=1))
    return out.tolist()


def gf_oracle(m: Dtmc, pred) -> list[float]:
    """Per-state probability that pred holds infinitely often.

    A run almost surely settles in a bottom SCC and then visits each of
    its states infinitely often, so this is the probability of reaching a
    bottom SCC containing a pred-state.
    """
    p = _as_pred(m, pred)
    good = set()
    for comp in bsccs(m):
        if any(p(s) for s in comp):
            good |= comp
    return until_prob(m, _true, lambda s: s in good)


def fg_oracle(m: Dtmc, pred) -> list[float]:
    """Per-state probability that pred eventually holds forever."""
    p = _as_pred(m, pred)
    good = set()
    for comp in bsccs(m):
        if all(p(s) for s in comp):
            good |= comp
    return until_prob(m, _true, lambda s: s in good)


def _masses(rng: random.Random, k: int) -> list[float]:
    """k positive multiples of 1/64 summing to exactly 1.0."""
    cuts = sorted(rng.sample(range(1, 64), k - 1)) if k > 1 else []
    bounds = [0, *cuts, 64]
    return [(b - a) / 64.0 for a, b in zip(bounds, bounds[1:])]


def random_chain(rng: random.Random, max_states: int = 20, ap=("a", "b")) -> Dtmc:
    n = rng.randint(1, max_states)
    labels = [
        frozenset(p for p in ap if rng.random() < 0.35) for _ in range(n)
    ]
    edges = []
    for s in range(n):
        k = rng.randint(1, min(3, n))
        for t, q in zip(rng.sample(range(n), k), _masses(rng, k)):
            edges.append((s, t, q))
    return Dtmc(
        n_states=n,
        init=rng.randrange(n),
        ap=tuple(ap),
        labels=tuple(labels),
        transitions=tuple(edges),
    )


def sink_chain(rng: random.Random, n: int, ap=("a", "b"), sink_every: int = 16) -> Dtmc:
    """n states, n // sink_every of them absorbing and the rest with up to
    three random successors.  The sinks and the sparse rows leave many
    small SCCs, so an until system over such a chain splits into many
    blocks."""
    labels = [frozenset(p for p in ap if rng.random() < 0.35) for _ in range(n)]
    sinks = set(rng.sample(range(n), max(1, n // sink_every)))
    edges = []
    for s in range(n):
        if s in sinks:
            edges.append((s, s, 1.0))
            continue
        k = rng.randint(1, min(3, n))
        for t, q in zip(rng.sample(range(n), k), _masses(rng, k)):
            edges.append((s, t, q))
    return Dtmc(
        n_states=n,
        init=rng.randrange(n),
        ap=tuple(ap),
        labels=tuple(labels),
        transitions=tuple(edges),
    )


def f_prob(m: Dtmc, prop: str) -> list[float]:
    return until_prob(m, _true, prop)


def g_prob(m: Dtmc, prop: str) -> list[float]:
    bad = lambda s: prop not in m.labels[s]
    return [1.0 - v for v in until_prob(m, _true, bad)]


def xx_prob(m: Dtmc, prop: str) -> list[float]:
    one = np.array(next_prob(m, prop))
    return list(dense_matrix(m) @ one)


def seq_prob(m: Dtmc, first: str, second: str) -> list[float]:
    """Pr of seeing `first` and then (possibly simultaneously) `second`.

    Product chain over a seen-`first` flag: copy s of the original state
    space keeps the flag false, copy n_states+s keeps it true; the target
    is any flagged `second` state.  Entry from state s starts with the
    flag already reflecting s's own label.
    """
    n = m.n_states

    def pid(s: int, seen: bool) -> int:
        return s + (n if seen else 0)

    edges = []
    for s in range(n):
        for t, q in m.rows[s]:
            hit = first in m.labels[t]
            edges.append((pid(s, False), pid(t, hit), q))
            edges.append((pid(s, True), pid(t, True), q))
    labels = [frozenset()] * n + [
        frozenset({"hit"}) if second in m.labels[s] else frozenset()
        for s in range(n)
    ]
    prod = Dtmc(
        n_states=2 * n,
        init=pid(m.init, first in m.labels[m.init]),
        ap=("hit",),
        labels=tuple(labels),
        transitions=tuple(edges),
    )
    full = until_prob(prod, _true, "hit")
    return [full[pid(s, first in m.labels[s])] for s in range(n)]


def oracle_suite(m: Dtmc) -> dict[str, list[float]]:
    """The ten reference vectors the engine must reproduce."""
    no_h = lambda s: "h" not in m.labels[s]
    h = lambda s: "h" in m.labels[s]
    return {
        "F(a)": f_prob(m, "a"),
        "G(a)": g_prob(m, "a"),
        "X(a)": next_prob(m, "a"),
        "(a U b)": until_prob(m, "a", "b"),
        "G(F(a))": gf_oracle(m, "a"),
        "F(G(a))": fg_oracle(m, "a"),
        "F(a & F(b))": seq_prob(m, "a", "b"),
        "X(X(a))": xx_prob(m, "a"),
        "(!h U a)": until_prob(m, no_h, "a"),
        "G(!h)": [1.0 - v for v in until_prob(m, _true, h)],
    }
