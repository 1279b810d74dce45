"""Independent per-state probabilities for the check-large bodies.

Each body template is a small deterministic automaton that reads the
labels along a run.  Its product with the chain is solved as
reachability of accepting bottom SCCs: graph passes pin the product
states that reach them with probability exactly 0 or 1, and one
numpy.linalg.solve gives the rest.  Nothing here uses pltl_learn, so
the check-large gate does not trust the engine it judges.
"""
from __future__ import annotations

import json
from collections import deque

import numpy as np


def _in_state(q: int):
    """BSCC test for an absorbing automaton state q: every product state
    of a bottom SCC then carries the same automaton state."""
    return lambda states, A, B: states[0][1] == q


def _until_after_f(q, a, b):
    # (F(a) U b): true iff b now, or the first b comes at k >= 1 and some a
    # occurs at position k-1 or later.  0: start; 1: no b yet, the last
    # position had a; 2: no b yet, the last position had no a; 3: b seen
    # without a at k-1 or k, an a must still come; 4: satisfied.
    if q in (0, 1):
        return 4 if b else (1 if a else 2)
    if q == 2:
        return (4 if a else 3) if b else (1 if a else 2)
    if q == 3:
        return 4 if a else 3
    return 4


# template -> (initial state, step(q, has_a, has_b) -> q, accepting-BSCC test).
# A BSCC test gets the product states (chain state, automaton state) of
# one bottom SCC and the chain's a/b label tests.
AUTOMATA = {
    "F({a})": (0, lambda q, a, b: 1 if q == 1 or a else 0, _in_state(1)),
    "G(!{b})": (0, lambda q, a, b: 1 if q == 1 or b else 0, _in_state(0)),
    "({a} U {b})": (
        0,
        lambda q, a, b: q if q else (1 if b else (0 if a else 2)),
        _in_state(1),
    ),
    "X({b})": (
        0,
        lambda q, a, b: 1 if q == 0 else (q if q >= 2 else (2 if b else 3)),
        _in_state(2),
    ),
    "G(F({a}))": (0, lambda q, a, b: 0, lambda states, A, B: any(A(s) for s, _ in states)),
    "F(G({b}))": (0, lambda q, a, b: 0, lambda states, A, B: all(B(s) for s, _ in states)),
    "F(({a} & F({b})))": (
        0,
        lambda q, a, b: 2 if q == 2 or (q == 1 and b) or (a and b) else (1 if q == 1 or a else 0),
        _in_state(2),
    ),
    "(F({a}) U {b})": (0, _until_after_f, _in_state(4)),
    "X(F({b}))": (
        0,
        lambda q, a, b: 1 if q == 0 else (2 if q == 2 or b else 1),
        _in_state(2),
    ),
}


def _bottom_sccs(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns the components no edge leaves."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp_of = [-1] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
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
    return [c for k, c in enumerate(comps) if all(comp_of[w] == k for v in c for w in succ[v])]


def _backward(n: int, pred: list[list[int]], seeds) -> list[bool]:
    mark = [False] * n
    dq = deque(seeds)
    for s in dq:
        mark[s] = True
    while dq:
        t = dq.popleft()
        for s in pred[t]:
            if not mark[s]:
                mark[s] = True
                dq.append(s)
    return mark


def evaluate(chain_text: str, template: str, a: str, b: str):
    """Per-state values of the body on the chain, and which are pinned.

    Returns (values, pinned): pinned[s] is True where graph passes alone
    decide the value, which is then exactly 0.0 or 1.0.
    """
    doc = json.loads(chain_text)
    n = doc["states"]
    raw = doc["labels"]
    items = raw.items() if isinstance(raw, dict) else enumerate(raw)
    labels = [frozenset()] * n
    for k, names in items:
        labels[int(k)] = frozenset(names)
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, t, p in doc["transitions"]:
        rows[int(s)].append((int(t), float(p)))
    A = lambda s: a in labels[s]  # noqa: E731
    B = lambda s: b in labels[s]  # noqa: E731
    q0, step, accepting = AUTOMATA[template]

    # Product states reachable from every chain state's entry point.
    ids: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []

    def node(s: int, q: int) -> int:
        key = (s, step(q, A(s), B(s)))
        if key not in ids:
            ids[key] = len(states)
            states.append(key)
        return ids[key]

    entry = [node(s, q0) for s in range(n)]
    edges: list[list[tuple[int, float]]] = []
    i = 0
    while i < len(states):
        s, q = states[i]
        edges.append([(node(t, q), p) for t, p in rows[s]])
        i += 1
    m = len(states)
    succ = [[j for j, _ in row] for row in edges]
    pred: list[list[int]] = [[] for _ in range(m)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)

    good = [
        v
        for comp in _bottom_sccs(m, succ)
        if accepting([states[v] for v in comp], A, B)
        for v in comp
    ]
    can_win = _backward(m, pred, good)
    can_lose = _backward(m, pred, [v for v in range(m) if not can_win[v]])
    x = np.array([0.0 if not can_win[v] else 1.0 for v in range(m)])
    maybe = [v for v in range(m) if can_win[v] and can_lose[v]]
    if maybe:
        pos = {v: k for k, v in enumerate(maybe)}
        M = np.eye(len(maybe))
        c = np.zeros(len(maybe))
        for k, v in enumerate(maybe):
            for j, p in edges[v]:
                if j in pos:
                    M[k, pos[j]] -= p
                elif not can_lose[j]:
                    c[k] += p
        x[maybe] = np.clip(np.linalg.solve(M, c), 0.0, 1.0)
    values = [float(x[entry[s]]) for s in range(n)]
    pinned = [not (can_win[entry[s]] and can_lose[entry[s]]) for s in range(n)]
    return values, pinned
