"""Exact LTL satisfaction probabilities on finite DTMCs.

The evaluator resolves the distinct temporal subformulas one at a time,
children before parents.  For each it computes the per-state satisfaction
probability with a graph pass plus one linear solve, then splits every
state into a copy that prophesies the subformula holds on the run and a
copy that prophesies it does not, conditioning the transition structure on
each branch.  The prophesying copies are labelled with the subformula node
itself, so later rounds read it as a proposition.  Once every temporal
subformula is resolved, the per-state value is the weight of the copies
whose labels satisfy the formula.  A caller scoring many bodies on one
chain can pass the same refinement log to every call, so the rounds a
body shares with the previous one are not refined again.

Graph preprocessing pins impossible states to exactly 0.0 and almost-sure
states to exactly 1.0, so downstream exact-equality tests on degenerate
values are reliable.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dtmc import Dtmc
from .ltl import And, Finally, Globally, Lit, LtlFormula, Next, Or, Until, print_ltl

__all__ = [
    "LinearSolveError",
    "SingularSystemError",
    "solve_linear",
    "ProbVector",
    "RefinedChain",
    "initial_refinement",
    "refine",
    "temporal_subformulas",
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
    original state sum to one.  ``labels[i]`` holds the original state's
    proposition names plus each resolved temporal subformula the copy
    prophesies.  ``rows`` are conditioned transitions and each row sums
    to one.
    """

    origin: list[int]
    weights: list[float]
    labels: list[frozenset[str | LtlFormula]]
    rows: list[list[tuple[int, float]]]


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


def _sat(labels: frozenset[str | LtlFormula], f: LtlFormula) -> bool:
    """Truth of f in a copy; a temporal node is true where it is a label."""
    if isinstance(f, Lit):
        return (f.name in labels) == f.positive
    if isinstance(f, And):
        return _sat(labels, f.left) and _sat(labels, f.right)
    if isinstance(f, Or):
        return _sat(labels, f.left) or _sat(labels, f.right)
    return f in labels


def temporal_subformulas(f: LtlFormula) -> list[LtlFormula]:
    """The distinct temporal subformulas of f, children first, left to right.

    This is the order in which check_ltl resolves them: one refinement
    round per entry.
    """
    out: dict[LtlFormula, None] = {}

    def walk(g: LtlFormula) -> None:
        if isinstance(g, Lit) or g in out:
            return
        if isinstance(g, (Next, Finally, Globally)):
            walk(g.child)
        else:
            walk(g.left)
            walk(g.right)
        if not isinstance(g, (And, Or)):
            out[g] = None

    walk(f)
    return list(out)


def _operands(r: RefinedChain, psi: LtlFormula) -> tuple[list[bool] | None, list[bool]]:
    """Per-state truth of psi's operands (a, b), reading psi as a U b.

    F phi is true U phi; G phi takes the prophecy rule of phi U false.
    X phi has no left operand: b is the truth of phi.
    """

    def sat(g: LtlFormula) -> list[bool]:
        return [_sat(lab, g) for lab in r.labels]

    n = len(r.origin)
    if isinstance(psi, Until):
        return sat(psi.left), sat(psi.right)
    if isinstance(psi, Finally):
        return [True] * n, sat(psi.child)
    if isinstance(psi, Globally):
        return sat(psi.child), [False] * n
    if isinstance(psi, Next):
        return None, sat(psi.child)
    raise TypeError(f"not a temporal node: {print_ltl(psi)}")


def _prophecy_vector(r: RefinedChain, psi: LtlFormula) -> list[float]:
    a, b = _operands(r, psi)
    if isinstance(psi, Next):
        return _next_vec(r.rows, b)
    if isinstance(psi, Globally):
        # G phi holds unless the run reaches a !phi state.
        return [1.0 - v for v in _until_vec(r.rows, [True] * len(a), [not x for x in a])]
    return _until_vec(r.rows, a, b)


def _prophecy_rule(r: RefinedChain, psi: LtlFormula):
    """Return g(u, v, b') = prophecy value at u given successor value b'."""
    a, b = _operands(r, psi)
    if isinstance(psi, Next):
        return lambda u, v, b2: 1 if b[v] else 0
    return lambda u, v, b2: 1 if b[u] else (b2 if a[u] else 0)


def refine(r: RefinedChain, psi: LtlFormula, p: list[float], prop: LtlFormula) -> RefinedChain:
    """Split every state on whether the run will satisfy psi.

    p[i] is the satisfaction probability of psi from state i of r.  The
    positive copy gets prop as an extra label; check_ltl passes psi
    itself, which _sat then reads as true in exactly those copies.
    Branches of conditional probability below 1e-12 are dropped; each
    conditioned row is divided by the sum of its kept numerators, which
    equals the branch factor up to the dropped mass, so row sums are
    exactly one.
    """
    n = len(r.origin)
    p = [min(1.0, max(0.0, x)) for x in p]
    index: dict[tuple[int, int], int] = {}
    origin: list[int] = []
    weights: list[float] = []
    labels: list[frozenset[str | LtlFormula]] = []
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
    m: Dtmc,
    f: LtlFormula,
    refinement_log: list[tuple[LtlFormula, RefinedChain]] | None = None,
) -> ProbVector:
    """Per-state probability that a run satisfies f, exactly up to solver
    accuracy.

    Pass a list as refinement_log to receive one (subformula, refined
    chain) pair per prophecy split, in temporal_subformulas(f) order.  A
    non-empty log must come from earlier calls on this same chain m: its
    longest leading run of pairs whose subformulas equal the leading
    entries of temporal_subformulas(f) is reused, the rest of the log is
    deleted, and only the remaining rounds are refined and appended.
    The result is the same as without a log, since each round depends
    only on m and the subformulas resolved before it.
    """
    rounds = temporal_subformulas(f)
    log = refinement_log
    keep = 0
    if log:
        while keep < min(len(log), len(rounds)) and log[keep][0] == rounds[keep]:
            keep += 1
        del log[keep:]
    r = log[-1][1] if keep else initial_refinement(m)
    for psi in rounds[keep:]:
        r = refine(r, psi, _prophecy_vector(r, psi), psi)
        if log is not None:
            log.append((psi, r))
    values = [0.0] * m.n_states
    for i, o in enumerate(r.origin):
        if _sat(r.labels[i], f):
            values[o] += r.weights[i]
    values = [min(1.0, max(0.0, v)) for v in values]
    return ProbVector(tuple(values), values[m.init])
