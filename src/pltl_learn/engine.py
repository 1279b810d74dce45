"""Exact LTL satisfaction probabilities on finite DTMCs.

The evaluator resolves the distinct temporal subformulas one at a time,
children before parents.  For each it computes the per-state satisfaction
probability with graph passes plus linear solves, then splits every
state into a copy that prophesies the subformula holds on the run and a
copy that prophesies it does not, conditioning the transition structure on
each branch.  A refined chain keeps its labels as one boolean matrix, a
row per copy and a column per proposition or resolved subformula; the
new column of a round is keyed by the subformula node itself, so later
rounds read it as a proposition.  Once every temporal subformula is
resolved, the per-state value is the weight of the copies in which the
formula's column expression holds.  A round's conditioned transitions
are built only when they are first read, that is when a later round
refines that chain again; the last round of a body never needs them.
check_each scores many bodies on one chain in prefix-trie order of
their subformula sequences with one RefinementLog, so rounds a body
shares with the previous one are not refined again and the chain's
initial refinement is built once.  Each round's undecided states are
solved component by component, each as it would be alone; no
transition joins two chains of a ``dtmc.disjoint_union``, so a union is
scored in one call and each chain's slice of it takes that chain's own
values.  _until_vec states which solver takes which system and the
contract they all keep.  The values come back as one read-only
memoryview over a float64 array.

Graph preprocessing pins impossible states to exactly 0.0 and almost-sure
states to exactly 1.0, so downstream exact-equality tests on degenerate
values are reliable.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

import numpy as np

from .dtmc import Dtmc
from .ltl import And, Finally, Globally, Lit, LtlFormula, Next, Or, Until, print_ltl

__all__ = [
    "LinearSolveError",
    "SingularSystemError",
    "solve_linear",
    "ProbVector",
    "RefinedChain",
    "RefinementLog",
    "initial_refinement",
    "refine",
    "temporal_subformulas",
    "check_ltl",
    "check_each",
]

# Prophecy branches with conditional probability below this are dropped;
# the conditioned rows would otherwise divide by a vanishing factor.
_BRANCH_EPS = 1e-12

# The size at which _until_vec splits a component into SCCs and solves
# a block by sparse elimination.
_SCC_MIN = 64

# No solver divides by a pivot below this.
_PIVOT_MIN = 1e-12


class LinearSolveError(RuntimeError):
    pass


class SingularSystemError(LinearSolveError):
    pass


def _pivot(v: float, k: int) -> float:
    """v, the pivot of elimination step k, if |v| is at least _PIVOT_MIN."""
    if abs(v) < _PIVOT_MIN:
        raise SingularSystemError(f"no usable pivot in column {k}")
    return v


def _residual_bound(c: list[float]) -> float:
    """The largest residual a solve of (U, c) may leave."""
    return 1e-9 * (1.0 + max(map(abs, c)))


def solve_linear(U: list[dict[int, float]], c: list[float]) -> list[float]:
    """_system's (U, c) by dense Gaussian elimination with partial
    pivoting, on a matrix that holds each entry of U as written there.
    U and c are only read; the residual is A @ x - c for that matrix A.
    """
    n = len(c)
    A = np.zeros((n, n))
    for j, row in enumerate(U):
        for i, v in row.items():
            A[j, i] = v
    M = A.copy()
    rhs = np.array(c)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(M[k:, k])))
        _pivot(M[piv, k], k)
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
            rhs[[k, piv]] = rhs[[piv, k]]
        factors = M[k + 1 :, k] / M[k, k]
        M[k + 1 :, k:] -= np.outer(factors, M[k, k:])
        rhs[k + 1 :] -= factors * rhs[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - M[k, k + 1 :] @ x[k + 1 :]) / M[k, k]
    resid = float(np.max(np.abs(A @ x - c)))
    if not resid <= _residual_bound(c):
        raise LinearSolveError(f"residual {resid} too large")
    return x.tolist()


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


def _reach_back(preds, start: list[bool], through: list[bool]) -> list[bool]:
    """The states with a path to a start state whose states before it are
    all through states: one backward breadth-first pass."""
    seen = list(start)
    dq = deque(i for i, x in enumerate(start) if x)
    while dq:
        t = dq.popleft()
        for s in preds[t]:
            if not seen[s] and through[s]:
                seen[s] = True
                dq.append(s)
    return seen


def _sccs(rows, preds, run: list[int]) -> list[list[int]]:
    """The strongly connected components of the run's states under rows,
    each sorted and each after every component it reaches.

    Two passes (Sharir, "A strong-connectivity algorithm and its
    applications in data flow analysis", Comput. Math. Appl. 1981): a
    depth-first pass over rows records the states in finishing order,
    then a flood over preds from each state in reverse finishing order
    collects the run's states not yet taken, which are that state's
    component.  Neither pass recurses, so deep chains are fine, and both
    track only the run's states, so they cost the run's states and edges.
    """
    todo = set(run)  # not yet visited
    finished: list[int] = []
    for root in run:
        if root not in todo:
            continue
        todo.discard(root)
        work = [(root, iter(rows[root]))]
        while work:
            v, succ = work[-1]
            # The iterator resumes where v's scan last stopped.
            for t, _ in succ:
                if t in todo:
                    todo.discard(t)
                    work.append((t, iter(rows[t])))
                    break
            else:
                work.pop()
                finished.append(v)
    todo = set(run)  # not yet in a component
    comps: list[list[int]] = []
    for root in reversed(finished):
        if root not in todo:
            continue
        todo.discard(root)
        comp = [root]
        # The loop also visits the states appended while it runs.
        for u in comp:
            for s in preds[u]:
                if s in todo:
                    todo.discard(s)
                    comp.append(s)
        comps.append(sorted(comp))
    # The flood takes a component before every component it reaches.
    comps.reverse()
    return comps


def _system(rows, block: list[int], out: list[float]):
    """The block's system (I - Q)x = c, the only one built from rows:
    U[j] is row j of I - Q as a {column: value} dict, Q the block's rows
    restricted to the block, c the mass they send to states valued in out."""
    pos = {s: j for j, s in enumerate(block)}
    U = [{j: 1.0} for j in range(len(block))]
    c = [0.0] * len(block)
    for j, s in enumerate(block):
        for t, q in rows[s]:
            i = pos.get(t)
            if i is not None:
                U[j][i] = U[j].get(i, 0.0) - q
            elif out[t]:
                # A successor outside the block is pinned or in a block
                # solved before this one.
                c[j] += q * out[t]
    return U, c


def _solve_small(U: list[dict[int, float]], c: list[float]) -> list[float]:
    """_system's (U, c) of one or two unknowns in closed form: the same
    float operations, in the same order, as solve_linear's elimination
    of them, so the same bits.  (Its one-term dot product turns -0.0
    into 0.0; c never holds -0.0, which _system builds by adding
    nonnegative terms to 0.0.)  The row with the larger first entry
    goes first, the first row on a tie.

    solve_linear's A @ x may round a two-term row differently (BLAS may
    fuse the multiply-add), by less than 1e-14 of the row's terms; a
    residual not that far inside the bound is left to solve_linear,
    which then raises its LinearSolveError or returns these same values.
    """
    if len(c) == 1:
        x = [c[0] / _pivot(U[0][0], 0)]
    else:
        r0, r1 = ([row.get(0, 0.0), row.get(1, 0.0), cj] for row, cj in zip(U, c))
        if abs(r1[0]) > abs(r0[0]):
            r0, r1 = r1, r0
        (u00, u01, s0), (u10, u11, s1) = r0, r1
        f = u10 / _pivot(u00, 0)
        u11 -= f * u01
        s1 -= f * s0
        x1 = s1 / _pivot(u11, 1)
        x = [(s0 - u01 * x1) / u00, x1]
    bound = _residual_bound(c)
    for row, cj in zip(U, c):
        terms = [v * x[i] for i, v in row.items()]
        if not abs(sum(terms) - cj) + 1e-14 * (sum(map(abs, terms)) + abs(cj)) <= bound:
            return solve_linear(U, c)
    return x


def _solve_sparse(U: list[dict[int, float]], c: list[float]) -> list[float]:
    """_system's (U, c) by sparse Gaussian elimination of its row dicts,
    in place, so time and memory follow the nonzeros and their fill-ins.

    Pivots are taken on the diagonal in Markowitz order (Markowitz, "The
    elimination form of the inverse...", Management Science 1957): next
    comes the unknown with the fewest (row nonzeros - 1) * (column
    nonzeros - 1), from a heap whose stale entries are skipped.  A block
    here is an SCC that leaks, so I - Q is a nonsingular M-matrix,
    diagonally dominant by rows, that needs no row exchanges.  The
    residual is taken against a copy of U as assembled and summed left
    to right, not by solve_linear's BLAS product: on an ill-conditioned
    system whose right-hand side exceeds its rows' leak, this sum may
    pass where solve_linear raises.
    """
    k = len(c)
    A = [dict(row) for row in U]
    c0 = c.copy()
    # cols[j]: the rows not yet eliminated with an entry in column j.
    cols: list[set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(U):
        for j in row:
            cols[j].add(i)

    def cost(j: int) -> int:
        return (len(U[j]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(j), j) for j in range(k)]
    heapify(heap)
    order: list[int] = []
    done = [False] * k
    while heap:
        m, p = heappop(heap)
        if done[p] or m != cost(p):
            continue
        row = U[p]
        piv = _pivot(row[p], len(order))
        done[p] = True
        order.append(p)
        for j in row:
            cols[j].discard(p)
        changed = set(row)
        for i in cols[p]:
            below = U[i]
            f = below.pop(p) / piv
            for j, v in row.items():
                if j == p:
                    continue
                if j in below:
                    below[j] -= f * v
                else:
                    below[j] = -f * v
                    cols[j].add(i)
            c[i] -= f * c[p]
            changed.add(i)
        for j in changed:
            if not done[j]:
                heappush(heap, (cost(j), j))
    # Each pivot row holds only columns eliminated after it.
    x = [0.0] * k
    for p in reversed(order):
        acc = c[p]
        for j, v in U[p].items():
            if j != p:
                acc -= v * x[j]
        x[p] = acc / U[p][p]
    resid = 0.0
    for row, r in zip(A, c0):
        for i, v in row.items():
            r -= v * x[i]
        resid = max(resid, abs(r))
    if not resid <= _residual_bound(c0):
        raise LinearSolveError(f"residual {resid} too large")
    return x


def _preds(rows) -> list[list[int]]:
    """Per-state predecessor lists: preds[t] holds every s with an edge
    s -> t, in row order."""
    preds: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t, _ in row:
            preds[t].append(s)
    return preds


def _until_vec(rows, preds, a: list[bool], b: list[bool]) -> list[float]:
    """Per-state probability of a U b: graph passes pin the states of
    probability 0 and 1 (Baier & Katoen, Principles of Model Checking,
    section 10.1), linear solves give the rest.

    The undecided states are split into components, each a maximal set
    linked by transitions in either direction, taken in order of their
    smallest state; a component's rows reach no undecided state outside
    it, so its systems are the ones it gives alone.  _system builds each
    block's system once, and the component's size picks the tier:
    - one or two states: one block, to _solve_small's closed form, which
      gives solve_linear's bits without numpy's per-call costs;
    - 3 to _SCC_MIN - 1 (63) states: one block, to solve_linear's dense
      elimination;
    - _SCC_MIN (64) states or more: split by _sccs and solved one SCC
      at a time, each block after the blocks it reaches, which are then
      known; a block below _SCC_MIN (even of one state) goes to
      solve_linear, a larger one to _solve_sparse, whose time and memory
      follow the block's nonzeros and fill-ins.
    Every solver keeps one contract: a pivot below _PIVOT_MIN raises
    SingularSystemError naming its elimination step, and a residual
    max|Ux - c| above _residual_bound(c) raises LinearSolveError.  The
    values are clamped to [0, 1].
    """
    pending = [x and not y for x, y in zip(a, b)]
    # Positive probability: b is reachable through pending states.
    reach = _reach_back(preds, b, pending)
    # Probability below one: a zero state is reachable while pending.
    unsafe = _reach_back(preds, [not x for x in reach], pending)

    out = [1.0 if x and not y else 0.0 for x, y in zip(reach, unsafe)]
    # Undecided states not yet in a component.
    free = [x and y for x, y in zip(reach, unsafe)]
    for s, x in enumerate(free):
        if not x:
            continue
        free[s] = False
        comp = [s]
        # The loop also visits the states appended while it runs.
        for u in comp:
            for t, _ in rows[u]:
                if free[t]:
                    free[t] = False
                    comp.append(t)
            for t in preds[u]:
                if free[t]:
                    free[t] = False
                    comp.append(t)
        comp.sort()
        blocks = _sccs(rows, preds, comp) if len(comp) >= _SCC_MIN else [comp]
        for block in blocks:
            if len(comp) <= 2:
                solve = _solve_small
            else:
                solve = _solve_sparse if len(block) >= _SCC_MIN else solve_linear
            for i, v in zip(block, solve(*_system(rows, block, out))):
                out[i] = min(1.0, max(0.0, v))
    return out


# ---------------------------------------------------------------------------
# Prophecy refinement


@dataclass(eq=False)
class RefinedChain:
    """A chain whose states are copies of original states.

    ``origin[i]`` is the original state a copy stands for, ``weights[i]``
    the conditional probability of the copy's prophecy combination given
    a run starts in that original state; the weights of all copies of one
    original state sum to one.  ``labels`` is a boolean matrix with a row
    per copy and a column per proposition of the chain or resolved
    temporal subformula, and ``columns`` maps each name or subformula
    node to its column.  ``rows`` are conditioned transitions and each
    row sums to one; ``build_rows`` makes them on first read, which only
    a later round that refines this chain further does; ``preds`` are
    their predecessor lists, built once.  A copy steps only to itself or
    to copies of its state's successors, so the chains of a
    ``dtmc.disjoint_union`` stay apart in every refinement.
    """

    origin: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    columns: dict[str | LtlFormula, int]
    build_rows: Callable[[], Sequence[Sequence[tuple[int, float]]]]

    @cached_property
    def rows(self) -> Sequence[Sequence[tuple[int, float]]]:
        return self.build_rows()

    @cached_property
    def preds(self) -> list[list[int]]:
        return _preds(self.rows)


@dataclass(frozen=True)
class ProbVector:
    """Per-state satisfaction probabilities and the initial-state value.

    ``values`` is a read-only memoryview over one float64 buffer, 8 bytes
    a state.  Indexing and iteration give Python floats, slices are
    memoryviews, and ``==`` compares by value with another memoryview;
    take ``tuple(values)`` to compare with a tuple, concatenate or hash.
    """

    values: memoryview
    init: float

    def __repr__(self) -> str:
        return f"ProbVector(values={tuple(self.values)!r}, init={self.init!r})"


class RefinementLog(list):
    """The (subformula, refined chain) pairs of check_ltl's last call on
    chain m, one per round, with m as chain and m's initial refinement
    as root, where a call that reuses no logged round starts."""

    def __init__(self, m: Dtmc) -> None:
        super().__init__()
        self.chain = m
        self.root = initial_refinement(m)


def initial_refinement(m: Dtmc) -> RefinedChain:
    n = m.n_states
    labels = np.array([a in lab for lab in m.labels for a in m.ap], dtype=bool)
    return RefinedChain(
        origin=np.arange(n),
        weights=np.ones(n),
        labels=labels.reshape(n, len(m.ap)),
        columns={a: j for j, a in enumerate(m.ap)},
        build_rows=lambda: m.rows,
    )


def _column(r: RefinedChain, f: LtlFormula) -> np.ndarray:
    """Truth of f in every copy of r.

    A proposition or temporal node without a column is false everywhere.
    """
    if isinstance(f, And):
        return _column(r, f.left) & _column(r, f.right)
    if isinstance(f, Or):
        return _column(r, f.left) | _column(r, f.right)
    j = r.columns.get(f.name if isinstance(f, Lit) else f)
    col = np.zeros(len(r.origin), dtype=bool) if j is None else r.labels[:, j]
    return ~col if isinstance(f, Lit) and not f.positive else col


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
        return _column(r, g).tolist()

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
        reach_bad = _until_vec(r.rows, r.preds, [True] * len(a), [not x for x in a])
        return [1.0 - v for v in reach_bad]
    return _until_vec(r.rows, r.preds, a, b)


def refine(r: RefinedChain, psi: LtlFormula, p: list[float], prop: LtlFormula) -> RefinedChain:
    """Split every state on whether the run will satisfy psi.

    p[i] is the satisfaction probability of psi from state i of r.  The
    copies keep their parents' label rows plus one new column, keyed by
    psi, that is true in the positive copies.  prop is not read: check_ltl
    passes psi again, and the parameter stays because the benchmark's
    tracer calls refine with four positional arguments.
    Branches of conditional probability below 1e-12 are dropped; each
    conditioned row is divided by the sum of its kept numerators, which
    equals the branch factor up to the dropped mass, so row sums are
    exactly one.  The rows are built on first read.
    """
    p = np.fmin(1.0, np.fmax(0.0, np.asarray(p, dtype=float)))
    factor = np.array((p, 1.0 - p)).T
    # Copies in order of parent, positive copy first; side 0 is positive.
    parent, side = np.nonzero(factor >= _BRANCH_EPS)

    def build_rows() -> list[list[tuple[int, float]]]:
        a, b = _operands(r, psi)
        is_next = isinstance(psi, Next)
        prob = p.tolist()
        order = list(zip(parent.tolist(), (1 - side).tolist()))
        index = {key: j for j, key in enumerate(order)}
        rows: list[list[tuple[int, float]]] = []
        for u, bu in order:
            numer: list[tuple[int, float]] = []
            # Added left to right: sum() compensates from Python 3.12 on.
            total = 0.0
            for v, q in r.rows[u]:
                for b2 in (1, 0):
                    j = index.get((v, b2))
                    # The step keeps u's prophecy bu iff, for X, v satisfies
                    # phi, else b holds at u or a does and v's prophecy b2.
                    if j is None or (b[v] if is_next else b[u] or (a[u] and b2)) != bu:
                        continue
                    w = q * (prob[v] if b2 else 1.0 - prob[v])
                    if w > 0.0:
                        numer.append((j, w))
                        total += w
            if total <= 0.0:
                # Measure-zero husk: every successor branch was dropped.
                rows.append([(index[(u, bu)], 1.0)])
            else:
                rows.append([(j, w / total) for j, w in numer])
        return rows

    return RefinedChain(
        origin=r.origin[parent],
        weights=r.weights[parent] * factor[parent, side],
        labels=np.concatenate((r.labels[parent], (side == 0)[:, None]), axis=1),
        columns={**r.columns, psi: r.labels.shape[1]},
        build_rows=build_rows,
    )


def check_ltl(m: Dtmc, f: LtlFormula, refinement_log: RefinementLog | None = None) -> ProbVector:
    """Per-state probability that a run satisfies f, exactly up to solver
    accuracy.

    Pass a RefinementLog of m to receive one (subformula, refined chain)
    pair per prophecy split, in temporal_subformulas(f) order.  The log's
    longest leading run of pairs whose subformulas equal the leading
    entries of temporal_subformulas(f) is reused, the rest is deleted,
    and only the remaining rounds are refined and appended, from the
    log's root when no pair is reused.  The result is the same as
    without a log, since each round depends only on m and the
    subformulas resolved before it.  A log of another chain raises
    ValueError and is left as it was.
    """
    log = RefinementLog(m) if refinement_log is None else refinement_log
    if log.chain is not m:
        raise ValueError("the refinement log belongs to another chain")
    rounds = temporal_subformulas(f)
    keep = 0
    while keep < min(len(log), len(rounds)) and log[keep][0] == rounds[keep]:
        keep += 1
    del log[keep:]
    r = log[-1][1] if keep else log.root
    for psi in rounds[keep:]:
        r = refine(r, psi, _prophecy_vector(r, psi), psi)
        log.append((psi, r))
    # bincount adds the weights in copy order, as a loop over copies would.
    mask = _column(r, f)
    values = np.bincount(r.origin[mask], r.weights[mask], minlength=m.n_states)
    values = memoryview(np.fmin(1.0, np.fmax(0.0, values))).toreadonly()
    return ProbVector(values, values[m.init])


def check_each(
    m: Dtmc, bodies: Sequence[LtlFormula]
) -> Iterator[tuple[int, ProbVector | LinearSolveError]]:
    """Yield (j, check_ltl(m, bodies[j])) once per body j, or the
    LinearSolveError that call raises, sharing the rounds bodies share.

    The bodies come in depth-first order of the prefix trie of their
    temporal_subformulas sequences, ties in the given order, and every
    call gets one RefinementLog(m): each shared prefix is refined once,
    and only one path of refined chains is alive at a time.
    """
    log = RefinementLog(m)
    walk = sorted(
        range(len(bodies)),
        key=lambda j: tuple(psi.hash64 for psi in temporal_subformulas(bodies[j])),
    )
    for j in walk:
        try:
            got = check_ltl(m, bodies[j], log)
        except LinearSolveError as err:
            got = err
        yield j, got
