"""Exact rational solves for judging the engine's float answers.

solve takes a linear system in engine._system's form, one {column: value}
dict per row and a right-hand side, reads every float as the exact
rational it is, and eliminates in fractions.Fraction, so its answer
carries no rounding error.  It shares no code with the engine.
"""
from __future__ import annotations

from fractions import Fraction


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
