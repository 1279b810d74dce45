"""Exact LTL satisfaction probabilities on finite DTMCs.

The evaluator rewrites one innermost temporal operator at a time.  For the
chosen subformula it computes the per-state satisfaction probability with a
graph pass plus one linear solve, then splits every state into a copy that
prophesies the subformula holds on the run and a copy that prophesies it
does not, conditioning the transition structure on each branch.  The
subformula is then replaced by a fresh proposition that labels exactly the
prophesying copies.  Once the formula is propositional, the per-state value
is the weight of the satisfying copies.

Graph preprocessing pins impossible states to exactly 0.0 and almost-sure
states to exactly 1.0, so downstream exact-equality tests on degenerate
values are reliable.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dtmc import Dtmc
from .ltl import (
    And,
    Finally,
    Globally,
    Lit,
    LtlFormula,
    Next,
    Or,
    Until,
    is_propositional,
    print_ltl,
)

__all__ = [
    "LinearSolveError",
    "SingularSystemError",
    "solve_linear",
    "ProbVector",
    "RefinedChain",
    "RefinementRound",
    "initial_refinement",
    "refine",
    "check_ltl",
]

# Prophecy branches with conditional probability below this are dropped;
# the conditioned rows would otherwise divide by a vanishing factor.
_BRANCH_EPS = 1e-12


class LinearSolveError(RuntimeError):
    pass


class SingularSystemError(LinearSolveError):
    pass


def solve_linear(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve Ax = c by Gaussian elimination with partial pivoting.

    Raises SingularSystemError when no pivot above 1e-12 exists and
    LinearSolveError when the residual of the computed solution exceeds
    1e-9 * (1 + max|c|).
    """
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
    if resid > 1e-9 * (1.0 + float(np.max(np.abs(c0)))):
        raise LinearSolveError(f"residual {resid} too large")
    return x


# ---------------------------------------------------------------------------
# Reachability-style probability passes over raw successor lists


def _next_vec(rows, pred: list[bool]) -> list[float]:
    out = []
    for row in rows:
        total = 0.0
        all_match = True
        for t, q in row:
            if pred[t]:
                total += q
            else:
                all_match = False
        # A full row mathematically sums to one; pin it.
        out.append(1.0 if all_match else total)
    return out


def _until_vec(rows, a: list[bool], b: list[bool]) -> list[float]:
    n = len(rows)
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(rows):
        for t, _ in row:
            preds[t].append(s)

    # Positive-probability states: can reach b through a-states.
    reach = [False] * n
    dq = deque()
    for i in range(n):
        if b[i]:
            reach[i] = True
            dq.append(i)
    while dq:
        t = dq.popleft()
        for s in preds[t]:
            if not reach[s] and a[s] and not b[s]:
                reach[s] = True
                dq.append(s)

    # States with failure probability: can reach a zero state while the
    # obligation is still pending.
    unsafe = [False] * n
    dq = deque()
    for i in range(n):
        if not reach[i]:
            unsafe[i] = True
            dq.append(i)
    while dq:
        t = dq.popleft()
        for s in preds[t]:
            if not unsafe[s] and a[s] and not b[s]:
                unsafe[s] = True
                dq.append(s)

    out = [0.0] * n
    maybe = []
    for i in range(n):
        if not reach[i]:
            out[i] = 0.0
        elif not unsafe[i]:
            out[i] = 1.0
        else:
            maybe.append(i)
    if maybe:
        pos = {s: j for j, s in enumerate(maybe)}
        k = len(maybe)
        A = np.zeros((k, k))
        c = np.zeros(k)
        for j, s in enumerate(maybe):
            A[j, j] = 1.0
            for t, q in rows[s]:
                if t in pos:
                    A[j, pos[t]] -= q
                elif reach[t] and not unsafe[t]:
                    c[j] += q
        x = solve_linear(A, c)
        for j, s in enumerate(maybe):
            out[s] = min(1.0, max(0.0, float(x[j])))
    return out


# ---------------------------------------------------------------------------
# Prophecy refinement


@dataclass
class RefinedChain:
    """A chain whose states are copies of original states.

    ``origin[i]`` is the original state a copy stands for, ``weights[i]``
    the conditional probability of the copy's prophecy combination given
    a run starts in that original state; the weights of all copies of one
    original state sum to one.  ``rows`` are conditioned transitions and
    each row sums to one.
    """

    origin: list[int]
    weights: list[float]
    labels: list[frozenset[str]]
    rows: list[list[tuple[int, float]]]


@dataclass(frozen=True)
class RefinementRound:
    """Snapshot of the chain right after one prophecy split."""

    subformula: str
    prop: str
    origin: tuple[int, ...]
    weights: tuple[float, ...]
    rows: tuple[tuple[tuple[int, float], ...], ...]


@dataclass(frozen=True)
class ProbVector:
    """Per-state satisfaction probabilities and the initial-state value."""

    values: tuple[float, ...]
    init: float


def initial_refinement(m: Dtmc) -> RefinedChain:
    return RefinedChain(
        origin=list(range(m.n_states)),
        weights=[1.0] * m.n_states,
        labels=list(m.labels),
        rows=[list(row) for row in m.rows],
    )


def _sat(labels: frozenset[str], f: LtlFormula) -> bool:
    if isinstance(f, Lit):
        return (f.name in labels) == f.positive
    if isinstance(f, And):
        return _sat(labels, f.left) and _sat(labels, f.right)
    if isinstance(f, Or):
        return _sat(labels, f.left) or _sat(labels, f.right)
    raise ValueError(f"not propositional: {print_ltl(f)}")


def _innermost_temporal(f: LtlFormula) -> LtlFormula | None:
    """Leftmost temporal subformula whose operands are propositional."""
    if isinstance(f, Lit):
        return None
    if isinstance(f, (And, Or)):
        return _innermost_temporal(f.left) or _innermost_temporal(f.right)
    if isinstance(f, (Next, Finally, Globally)):
        return _innermost_temporal(f.child) or f
    if isinstance(f, Until):
        return _innermost_temporal(f.left) or _innermost_temporal(f.right) or f
    raise TypeError(f"unknown node {f!r}")


def _substitute(f: LtlFormula, target: LtlFormula, rep: LtlFormula) -> LtlFormula:
    if f == target:
        return rep
    if isinstance(f, Lit):
        return f
    if isinstance(f, (Next, Finally, Globally)):
        return type(f)(_substitute(f.child, target, rep))
    return type(f)(
        _substitute(f.left, target, rep), _substitute(f.right, target, rep)
    )


def _prophecy_vector(r: RefinedChain, psi: LtlFormula) -> list[float]:
    n = len(r.origin)
    if isinstance(psi, Next):
        return _next_vec(r.rows, [_sat(r.labels[t], psi.child) for t in range(n)])
    if isinstance(psi, Finally):
        sat = [_sat(r.labels[s], psi.child) for s in range(n)]
        return _until_vec(r.rows, [True] * n, sat)
    if isinstance(psi, Globally):
        bad = [not _sat(r.labels[s], psi.child) for s in range(n)]
        return [1.0 - v for v in _until_vec(r.rows, [True] * n, bad)]
    if isinstance(psi, Until):
        sa = [_sat(r.labels[s], psi.left) for s in range(n)]
        sb = [_sat(r.labels[s], psi.right) for s in range(n)]
        return _until_vec(r.rows, sa, sb)
    raise TypeError(f"not a temporal node: {print_ltl(psi)}")


def _prophecy_rule(r: RefinedChain, psi: LtlFormula):
    """Return g(u, v, b') = prophecy value at u given successor value b'."""
    n = len(r.origin)
    if isinstance(psi, Next):
        ok = [_sat(r.labels[v], psi.child) for v in range(n)]
        return lambda u, v, b2: 1 if ok[v] else 0
    if isinstance(psi, Finally):
        here = [_sat(r.labels[u], psi.child) for u in range(n)]
        return lambda u, v, b2: 1 if here[u] else b2
    if isinstance(psi, Globally):
        here = [_sat(r.labels[u], psi.child) for u in range(n)]
        return lambda u, v, b2: b2 if here[u] else 0
    if isinstance(psi, Until):
        sa = [_sat(r.labels[u], psi.left) for u in range(n)]
        sb = [_sat(r.labels[u], psi.right) for u in range(n)]
        return lambda u, v, b2: 1 if sb[u] else (b2 if sa[u] else 0)
    raise TypeError(f"not a temporal node: {print_ltl(psi)}")


def refine(r: RefinedChain, psi: LtlFormula, p: list[float], prop: str) -> RefinedChain:
    """Split every state on whether the run will satisfy psi.

    p[i] is the satisfaction probability of psi from state i of r.  The
    positive copy is labelled with prop.  Branches of conditional
    probability below 1e-12 are dropped; each conditioned row is divided
    by the sum of its kept numerators, which equals the branch factor up
    to the dropped mass, so row sums are exactly one.
    """
    n = len(r.origin)
    p = [min(1.0, max(0.0, x)) for x in p]
    index: dict[tuple[int, int], int] = {}
    origin: list[int] = []
    weights: list[float] = []
    labels: list[frozenset[str]] = []
    order: list[tuple[int, int]] = []
    for u in range(n):
        for b in (1, 0):
            factor = p[u] if b else 1.0 - p[u]
            if factor < _BRANCH_EPS:
                continue
            index[(u, b)] = len(order)
            order.append((u, b))
            origin.append(r.origin[u])
            weights.append(r.weights[u] * factor)
            labels.append(r.labels[u] | {prop} if b else r.labels[u])

    g = _prophecy_rule(r, psi)
    rows: list[list[tuple[int, float]]] = []
    for u, bu in order:
        numer: list[tuple[int, float]] = []
        for v, q in r.rows[u]:
            for b2 in (1, 0):
                j = index.get((v, b2))
                if j is None or g(u, v, b2) != bu:
                    continue
                factor = p[v] if b2 else 1.0 - p[v]
                w = q * factor
                if w > 0.0:
                    numer.append((j, w))
        total = sum(w for _, w in numer)
        if total <= 0.0:
            # Measure-zero husk: every successor branch was dropped.
            rows.append([(index[(u, bu)], 1.0)])
        else:
            rows.append([(j, w / total) for j, w in numer])
    return RefinedChain(origin, weights, labels, rows)


def check_ltl(
    m: Dtmc, f: LtlFormula, refinement_log: list[RefinementRound] | None = None
) -> ProbVector:
    """Per-state probability that a run satisfies f, exactly up to solver
    accuracy.

    Pass a list as refinement_log to receive one RefinementRound per
    prophecy split for inspection.
    """
    r = initial_refinement(m)
    g = f
    counter = 0
    while not is_propositional(g):
        psi = _innermost_temporal(g)
        p = _prophecy_vector(r, psi)
        prop = f"~q{counter}"
        counter += 1
        r = refine(r, psi, p, prop)
        if refinement_log is not None:
            refinement_log.append(
                RefinementRound(
                    subformula=print_ltl(psi),
                    prop=prop,
                    origin=tuple(r.origin),
                    weights=tuple(r.weights),
                    rows=tuple(tuple(row) for row in r.rows),
                )
            )
        g = _substitute(g, psi, Lit(prop))
    values = [0.0] * m.n_states
    for i, o in enumerate(r.origin):
        if _sat(r.labels[i], g):
            values[o] += r.weights[i]
    values = [min(1.0, max(0.0, v)) for v in values]
    return ProbVector(tuple(values), values[m.init])
