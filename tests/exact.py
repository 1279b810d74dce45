"""Exact rational answers for judging the engine's float answers.

solve takes a linear system in engine._system's form, one {column: value}
dict per row and a right-hand side, reads every float as the exact
rational it is, and eliminates in fractions.Fraction, so its answer
carries no rounding error.

check_each builds the prophecy construction in Fraction: each
transition mass is the exact rational its float is, every branch of
positive probability is kept, the states of probability 0 and 1 are
decided by graph passes, and the rest are solved by solve.  It computes
its own order of subformulas and shares no code with the engine, so it
judges the engine's rounding, though not the construction, which
tests/chains.py and tests/lasso.py check.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from pltl_learn.dtmc import Dtmc
from pltl_learn.ltl import And, Finally, Globally, Lit, LtlFormula, Next, Or, Until, print_ltl


def solve(U: list[dict[int, float]], c: list[float]) -> list[Fraction]:
    """The exact solution of Ux = c by Gaussian elimination, taking the
    first nonzero pivot of each column; ValueError if U is singular."""
    n = len(c)
    M = [[Fraction(row.get(i, 0.0)) for i in range(n)] + [Fraction(cj)] for row, cj in zip(U, c)]
    for k in range(n):
        p = next((j for j in range(k, n) if M[j][k]), None)
        if p is None:
            raise ValueError(f"singular in column {k}")
        M[k], M[p] = M[p], M[k]
        for j in range(k + 1, n):
            f = M[j][k] / M[k][k]
            if f:
                M[j] = [a - f * b for a, b in zip(M[j], M[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][i] * x[i] for i in range(k + 1, n))) / M[k][k]
    return x


# ---------------------------------------------------------------------------
# The prophecy construction


@dataclass
class _Copies:
    """A refined chain: copy i stands for state origin[i] with weight
    weight[i], truth[key][i] tells whether a proposition or resolved
    temporal node holds there, and rows[i] lists (copy, mass) steps."""

    origin: list[int]
    weight: list[Fraction]
    truth: dict[object, list[bool]]
    rows: list[list[tuple[int, Fraction]]]


def _rounds(f: LtlFormula) -> list[LtlFormula]:
    """The distinct temporal nodes of f, each after the nodes below it."""
    out: dict[LtlFormula, None] = {}

    def walk(g: LtlFormula) -> None:
        if isinstance(g, Lit):
            return
        for child in (g.child,) if isinstance(g, (Next, Finally, Globally)) else (g.left, g.right):
            walk(child)
        if not isinstance(g, (And, Or)):
            out.setdefault(g)

    walk(f)
    return list(out)


def _holds(r: _Copies, g: LtlFormula) -> list[bool]:
    if isinstance(g, (And, Or)):
        op = all if isinstance(g, And) else any
        return [op(pair) for pair in zip(_holds(r, g.left), _holds(r, g.right))]
    if isinstance(g, Lit):
        col = r.truth.get(g.name, [False] * len(r.origin))
        return col if g.positive else [not x for x in col]
    return r.truth[g]


def _until(rows, a: list[bool], b: list[bool]) -> list[Fraction]:
    """Per-copy probability of a U b: the 0 and 1 copies by two backward
    searches, the rest by one exact solve."""
    n = len(rows)
    preds: list[set[int]] = [set() for _ in range(n)]
    for s, row in enumerate(rows):
        for t, _ in row:
            preds[t].add(s)
    pending = [x and not y for x, y in zip(a, b)]

    def back(start: list[bool]) -> list[bool]:
        # start, and every pending copy with a path of pending copies to it
        seen, todo = list(start), [s for s in range(n) if start[s]]
        while todo:
            for s in preds[todo.pop()]:
                if pending[s] and not seen[s]:
                    seen[s] = True
                    todo.append(s)
        return seen

    some = back(b)  # probability above 0
    short = back([not x for x in some])  # probability below 1
    value = [Fraction(int(x and not y)) for x, y in zip(some, short)]
    rest = [s for s in range(n) if some[s] and short[s]]
    at = {s: k for k, s in enumerate(rest)}
    U = [{k: Fraction(1)} for k in range(len(rest))]
    c = [Fraction(0)] * len(rest)
    for k, s in enumerate(rest):
        for t, q in rows[s]:
            if t in at:
                U[k][at[t]] = U[k].get(at[t], 0) - q
            else:
                c[k] += q * value[t]
    for s, x in zip(rest, solve(U, c) if rest else []):
        value[s] = x
    return value


def _operands(r: _Copies, psi: LtlFormula) -> tuple[list[bool], list[bool]]:
    """psi's operands read as a U b; X's a is unused."""
    n = len(r.origin)
    if isinstance(psi, Until):
        return _holds(r, psi.left), _holds(r, psi.right)
    if isinstance(psi, Finally):
        return [True] * n, _holds(r, psi.child)
    if isinstance(psi, Globally):
        return _holds(r, psi.child), [False] * n
    return [False] * n, _holds(r, psi.child)


def _probability(r: _Copies, psi: LtlFormula, a: list[bool], b: list[bool]) -> list[Fraction]:
    if isinstance(psi, Next):
        return [sum((q for t, q in row if b[t]), Fraction(0)) for row in r.rows]
    if isinstance(psi, Globally):
        # G phi fails exactly when the run reaches a !phi copy.
        return [1 - v for v in _until(r.rows, [True] * len(a), [not x for x in a])]
    return _until(r.rows, a, b)


def _refine(r: _Copies, psi: LtlFormula) -> _Copies:
    """Split every copy u into (u, 1), the runs from u that satisfy psi,
    and (u, 0), the runs that do not, keeping each of positive
    probability; a step keeps the copy's prophecy, and its mass is
    conditioned on the target's."""
    a, b = _operands(r, psi)
    p = _probability(r, psi, a, b)
    split = [(u, bu) for u in range(len(p)) for bu in (1, 0) if (p[u] if bu else 1 - p[u]) > 0]
    index = {key: j for j, key in enumerate(split)}
    rows = []
    for u, bu in split:
        numer = []
        for v, q in r.rows[u]:
            for bv in (1, 0):
                j = index.get((v, bv))
                # X psi's prophecy at u is whether its child holds at v;
                # a U b's is that b holds at u, or a does and v's holds.
                keeps = b[v] if isinstance(psi, Next) else b[u] or (a[u] and bv)
                if j is not None and keeps == bu:
                    numer.append((j, q * (p[v] if bv else 1 - p[v])))
        total = sum(w for _, w in numer)
        rows.append([(j, w / total) for j, w in numer])
    return _Copies(
        origin=[r.origin[u] for u, _ in split],
        weight=[r.weight[u] * (p[u] if bu else 1 - p[u]) for u, bu in split],
        truth={
            **{key: [col[u] for u, _ in split] for key, col in r.truth.items()},
            psi: [bu == 1 for _, bu in split],
        },
        rows=rows,
    )


def check_each(m: Dtmc, bodies: Sequence[LtlFormula]) -> list[list[Fraction]]:
    """The exact per-state probability that a run of m satisfies each
    body.  The bodies are taken in order of their printed rounds, so
    a prefix of rounds that neighbours share is refined once."""
    root = _Copies(
        origin=list(range(m.n_states)),
        weight=[Fraction(1)] * m.n_states,
        truth={a: [a in lab for lab in m.labels] for a in m.ap},
        rows=[[(t, Fraction(q)) for t, q in row] for row in m.rows],
    )
    seqs = [_rounds(f) for f in bodies]
    path: list[tuple[LtlFormula | None, _Copies]] = [(None, root)]
    out: list = [None] * len(bodies)
    for j in sorted(range(len(bodies)), key=lambda j: [print_ltl(psi) for psi in seqs[j]]):
        keep = 0
        while keep < min(len(path) - 1, len(seqs[j])) and path[keep + 1][0] == seqs[j][keep]:
            keep += 1
        del path[keep + 1 :]
        for psi in seqs[j][keep:]:
            path.append((psi, _refine(path[-1][1], psi)))
        r = path[-1][1]
        values = [Fraction(0)] * m.n_states
        for s, w, x in zip(r.origin, r.weight, _holds(r, bodies[j])):
            if x:
                values[s] += w
        out[j] = values
    return out
