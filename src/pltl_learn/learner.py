"""Search for minimal probabilistic-threshold formulas separating samples.

Three cooperating pieces:

* an enumerator of canonical NNF formulas that builds each size's
  layer in one pass over the smaller layers, keeps it split by temporal
  depth in scan order, and skips syntactic redundancy (rewrite rules,
  commutative duplicates, complement combinations),
* a per-size scan that evaluates every candidate body on every chain and
  returns the widest-margin thresholded atoms once some body separates
  the sample by more than delta, and otherwise the atoms of failed
  bodies worth combining,
* a set-cover style combiner over those atoms, read as the positive
  chains each misses and the negative chains each admits, that looks
  for a conjunction or disjunction of two that misses and admits none.

Minimality: sizes are scanned in increasing order, Boolean combinations
tighten the size budget when they find a candidate, and every returned
formula is re-verified against the sample before it leaves this module.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, product
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from .dtmc import Dtmc, Sample
from .engine import LinearSolveError, check_each, check_ltl
from .ltl import (
    And,
    Finally,
    Globally,
    Lit,
    LtlFormula,
    Next,
    Or,
    PltlAnd,
    PltlAtom,
    PltlFormula,
    PltlOr,
    Until,
    boolean_simplify_applies,
    canonicalize,  # unused here; bench/spans.py traces it by this name
    join,
    print_ltl,
    print_pltl,
    temporal_simplify_applies,
)

__all__ = [
    "LearnConfig",
    "RunStats",
    "SearchState",
    "EngineFailure",
    "NoSolutionError",
    "LearnResult",
    "gbe_init",
    "gbe_step",
    "size_bucket",
    "remove_formulas",
    "pts",
    "PtsResult",
    "best_threshold",
    "ScoredCandidate",
    "make_scored",
    "bsc",
    "learn",
    "check_consistency",
]


@dataclass(frozen=True)
class LearnConfig:
    """Search parameters.

    max_size bounds formula size, max_depth the temporal nesting depth.
    delta is the required margin between the worst positive and best
    negative probability before a single atom counts as consistent.
    bool_limit caps the high-score list used for Boolean combinations.
    delta is a real number and the other three integers, none a bool; a
    field of another type or out of range raises ValueError naming it.
    A consistent single atom ends the search at its size either way;
    eager_return also ends it at the first Boolean combination found,
    where the search would otherwise go on through the sizes below the
    combination's, looking for a smaller formula.  all_minimal reports
    every consistent atom at the winning size rather than only the
    widest-margin ones.
    """

    max_size: int
    max_depth: int = 2
    delta: float = 0.05
    bool_limit: int = 10
    eager_return: bool = False
    all_minimal: bool = False

    def __post_init__(self):
        for name in ("max_size", "max_depth", "bool_limit", "delta"):
            kind, what = (Real, "a number") if name == "delta" else (Integral, "an integer")
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if not 0.0 < self.delta < 0.1:
            raise ValueError("delta must lie in (0, 0.1)")
        if self.bool_limit < 1:
            raise ValueError("bool_limit must be at least 1")


@dataclass
class RunStats:
    """Per-size search counters, phase timings, and engine-call total.

    engine_calls counts body x chain evaluations, one per body for each
    chain of the sample.  pts scores a body on every chain of the sample
    with one check_ltl call on sample.union, so it calls check_ltl once
    per body unless a solve fails.

    For every size whose scan completed, constructed equals
    pruned_temporal + pruned_boolean + checked at that size.
    """

    # The per-size counters, in the order --stats prints them.
    PER_SIZE: ClassVar[tuple[str, ...]] = (
        "constructed", "pruned_temporal", "pruned_boolean", "checked", "discarded", "pooled",
    )

    constructed: dict[int, int] = field(default_factory=dict)
    pruned_temporal: dict[int, int] = field(default_factory=dict)
    pruned_boolean: dict[int, int] = field(default_factory=dict)
    checked: dict[int, int] = field(default_factory=dict)
    discarded: dict[int, int] = field(default_factory=dict)
    pooled: dict[int, int] = field(default_factory=dict)
    combos_tried: int = 0
    engine_calls: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def add(self, counter: str, size: int, k: int = 1) -> None:
        d = getattr(self, counter)
        d[size] = d.get(size, 0) + k

    def total(self, counter: str) -> int:
        return sum(getattr(self, counter).values())

    def add_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def sizes(self) -> list[int]:
        return sorted({n for counter in self.PER_SIZE for n in getattr(self, counter)})


class EngineFailure(RuntimeError):
    """A probability evaluation failed; names the formula and the chain."""

    def __init__(self, formula: LtlFormula, role: str, index: int, cause: Exception):
        self.formula = formula
        self.role = role
        self.index = index
        super().__init__(
            f"engine failure on {print_ltl(formula)} "
            f"over {role} chain {index}: {cause}"
        )


class NoSolutionError(Exception):
    """The bounded space holds no consistent formula; stats holds the
    counters of the search that found none."""

    def __init__(self, max_size: int, max_depth: int, delta: float, stats: RunStats):
        self.max_size = max_size
        self.max_depth = max_depth
        self.delta = delta
        self.stats = stats
        super().__init__(
            f"no formula in the search space "
            f"(K={max_size}, D={max_depth}, delta={delta:g})"
        )


# ---------------------------------------------------------------------------
# Grammar-based enumeration


@dataclass
class SearchState:
    """Formula layers indexed by size, each split by temporal depth.

    buckets[n][d] holds the kept size-n formulas of depth d, sorted by
    printed form, so a layer read depth by depth is in scan order.  A
    size-n formula nests at most n - 1 temporal operators, so buckets[n]
    has min(max_depth, n - 1) + 1 lists.
    """

    max_depth: int
    buckets: dict[int, list[list[LtlFormula]]]
    stats: RunStats


def gbe_init(ap, max_depth: int = 2, stats: RunStats | None = None) -> SearchState:
    """Start a search state with the size-one layer: all literals."""
    ap = tuple(ap)
    if not ap:
        raise ValueError("at least one atomic proposition is required")
    state = SearchState(
        max_depth=max_depth,
        buckets={},
        stats=stats if stats is not None else RunStats(),
    )
    lits = [lit for name in ap for lit in (Lit(name, True), Lit(name, False))]
    state.stats.add("constructed", 1, len(lits))
    state.buckets[1] = [sorted(lits, key=print_ltl)]
    return state


def gbe_step(state: SearchState, n: int) -> None:
    """Build the size-n layer in one pass from the smaller layers present.

    X, F and G lift each size-(n-1) formula shallower than max_depth.
    For each split k, every pair of a size-k and a size-(n-1-k) formula
    is joined by & and | when the left operand is at least as deep as
    the right (join orders the operands, so the other pairs repeat
    these), and by U when both are shallower than max_depth.  Whether a
    pair's operands collapse (boolean_simplify_applies) is asked once
    for all three; a candidate its temporal rules prune still counts as
    pruned_temporal.  A kept
    candidate goes to the list for its depth, and each list is sorted by
    printed form once it is full.  Formulas leave a layer only through
    remove_formulas.
    """
    if n < 2:
        raise ValueError("size-one layer is built by gbe_init")
    if n in state.buckets:
        raise ValueError(f"size {n} already built")
    missing = [k for k in range(1, n) if k not in state.buckets]
    if missing:
        raise ValueError(f"smaller layers missing: {missing}")
    D = state.max_depth
    bk = state.buckets
    new: list[list[LtlFormula]] = [[] for _ in range(min(D, n - 1) + 1)]
    stats = state.stats
    # Every candidate has size n and formulas of different sizes differ,
    # so a duplicate can only be one built earlier in this step.
    seen: set[LtlFormula] = set()

    def consider(c: LtlFormula, collapses: bool = False) -> None:
        stats.add("constructed", n)
        if temporal_simplify_applies(c):
            stats.add("pruned_temporal", n)
            return
        if collapses or c in seen:
            # Operands equal or complementary, or a commutative /
            # associative duplicate of an earlier candidate.
            stats.add("pruned_boolean", n)
            return
        seen.add(c)
        new[c.depth].append(c)

    for child in chain.from_iterable(bk[n - 1]):
        if child.depth < D:
            consider(Next(child))
            consider(Finally(child))
            consider(Globally(child))
    for k in range(1, n - 1):
        for left, right in product(chain.from_iterable(bk[k]), chain.from_iterable(bk[n - 1 - k])):
            boolean = left.depth >= right.depth
            until = left.depth < D and right.depth < D
            if not (boolean or until):
                continue
            # The same for &, | and U, so asked once per pair.
            collapses = boolean_simplify_applies(left, right)
            if boolean:
                consider(join(And, left, right), collapses)
                consider(join(Or, left, right), collapses)
            if until:
                consider(Until(left, right), collapses)

    state.buckets[n] = [sorted(layer, key=print_ltl) for layer in new]


def size_bucket(state: SearchState, n: int) -> list[LtlFormula]:
    """A new list of the size-n formulas in scan order: by depth, then printed form."""
    return list(chain.from_iterable(state.buckets[n]))


def remove_formulas(state: SearchState, n: int, formulas) -> None:
    """Drop formulas from the size-n layer so later sizes never reuse them."""
    drop = set(formulas)
    state.buckets[n] = [[f for f in layer if f not in drop] for layer in state.buckets[n]]


# ---------------------------------------------------------------------------
# Per-size threshold scan


@dataclass(frozen=True)
class PtsResult:
    found: bool
    # (atom, margin) pairs; winners carry the widest margin only
    winners: tuple[tuple[PltlAtom, float], ...]
    consistent: tuple[tuple[PltlAtom, float], ...]
    discards: tuple[LtlFormula, ...]
    # atoms of inconsistent bodies that bsc may combine, in scan order
    pooled: tuple[ScoredCandidate, ...]


def pts(
    formulas,
    sample: Sample,
    delta: float,
    *,
    stats: RunStats | None = None,
) -> PtsResult:
    """Evaluate candidate bodies and classify each one once.

    A body phi is consistent when min over positives of its initial
    probability exceeds max over negatives by more than delta; the atom
    threshold is the midpoint.  A body whose whole per-state vector is
    exactly 0 on every positive chain or exactly 1 on every negative
    chain cannot occur inside any minimal consistent formula and is
    reported as a discard.  In a layer with no consistent body, every
    other body is pooled as make_scored's atom unless its initial value
    is 0 on every positive or 1 on every negative (useless in a
    combination, though the body may serve as a subterm later) or the
    atom alone classifies every chain (it missed delta, and any pair
    holding it would admit it without a margin).

    Each body is one check_ltl call on sample.union, where chains with
    equal content appear once, and chain i's (init, all 0, all 1)
    summary is read from the union's values at sample.offsets[i], which
    are the values chain i takes alone.  engine.check_each scores the
    bodies in the order it picks, so the union's initial refinement is
    built once per call of pts, each shared prefix is refined once, and
    only one path of refined chains is alive at a time; the scan then
    runs in the given order.  When the union's solve fails, each
    distinct chain is scored alone, once, so results, stats and the
    body, role and index an EngineFailure names are those of a plain
    loop over bodies, then positive and negative chains.
    """
    formulas = list(formulas)
    located = list(zip(sample.offsets, (*sample.positive, *sample.negative)))
    # scores[j][i]: (init, all values == 0.0, all values == 1.0), or the
    # solver error, of body j on chain i.
    scores: list[list] = [None] * len(formulas)
    for j, v in check_each(sample.union, formulas):
        if isinstance(v, LinearSolveError):
            # Find the failing chains by scoring each distinct one alone.
            alone = {at: _alone(m, formulas[j]) for at, m in dict(located).items()}
            scores[j] = [alone[at] for at, _ in located]
        else:
            scores[j] = [_summary(v.values, at, m) for at, m in located]

    n_pos = len(sample.positive)
    consistent: list[tuple[PltlAtom, float]] = []
    discards: list[LtlFormula] = []
    pooled: list[ScoredCandidate] = []
    for f, got in zip(formulas, scores):
        for i, score in enumerate(got):
            if isinstance(score, LinearSolveError):
                role, k = ("positive", i) if i < n_pos else ("negative", i - n_pos)
                raise EngineFailure(f, role, k, score) from score
        if stats is not None:
            stats.add("checked", f.size)
            stats.engine_calls += len(located)
        pos = tuple(init for init, _, _ in got[:n_pos])
        neg = tuple(init for init, _, _ in got[n_pos:])
        lo, hi = min(pos), max(neg)
        if lo - hi > delta:
            consistent.append((PltlAtom((lo + hi) / 2.0, f), lo - hi))
        elif all(zero for _, zero, _ in got[:n_pos]) or all(one for _, _, one in got[n_pos:]):
            discards.append(f)
        elif not consistent and max(pos) > 0.0 and min(neg) < 1.0:
            atom = make_scored(f, pos, neg)
            if atom.misses or atom.admits:
                pooled.append(atom)

    if consistent:
        top = max(m for _, m in consistent)
        winners = tuple((a, m) for a, m in consistent if m == top)
        return PtsResult(True, winners, tuple(consistent), (), ())
    return PtsResult(False, (), (), tuple(discards), tuple(pooled))


def _summary(values: memoryview, start: int, m: Dtmc) -> tuple[float, bool, bool]:
    """(init, all 0, all 1) of chain m, whose state 0 is values[start].

    check_ltl clamps values into [0, 1], so all are 1 when the least is;
    own[0] settles most slices before min reads them all."""
    own = values[start : start + m.n_states]
    return values[start + m.init], not any(own), own[0] == 1.0 and min(own) == 1.0


def _alone(m: Dtmc, f: LtlFormula) -> tuple[float, bool, bool] | LinearSolveError:
    """The _summary of f on chain m checked alone, or the LinearSolveError
    that check raises."""
    try:
        return _summary(check_ltl(m, f).values, 0, m)
    except LinearSolveError as err:
        return err


def best_threshold(pos, neg) -> tuple[float, int]:
    """Threshold maximizing correctly classified chains.

    Candidates are midpoints of consecutive distinct observed values,
    with 0 and 1 added as sentinels so one-sided gaps are usable, that
    lie strictly between the two values they split (some pair always
    has one): the threshold lies in (0, 1) and equals no value.  A chain
    counts when its positive value lies above or its negative value
    below it.  Ties prefer the widest value gap, then the lowest threshold.
    """
    vals = sorted({*pos, *neg, 0.0, 1.0})
    best_r, best_c, best_gap = 0.5, -1, -1.0
    for a, b in zip(vals, vals[1:]):
        r = (a + b) / 2.0
        if not a < r < b:
            continue
        c = sum(1 for v in pos if v > r) + sum(1 for v in neg if v < r)
        gap = b - a
        if c > best_c or (c == best_c and (gap > best_gap or (gap == best_gap and r < best_r))):
            best_r, best_c, best_gap = r, c, gap
    return best_r, best_c


# ---------------------------------------------------------------------------
# Boolean set cover over failed atoms


@dataclass(frozen=True)
class ScoredCandidate:
    atom: PltlAtom
    size: int
    count: int  # chains the atom classifies correctly
    sigma: float
    misses: int  # bit i set: false on positive chain i
    admits: int  # bit i set: true on negative chain i


def make_scored(body: LtlFormula, pos, neg) -> ScoredCandidate:
    """body's atom at best_threshold, which equals no value: the positives
    below it are misses, the negatives above it admits, the rest count."""
    r, _ = best_threshold(pos, neg)
    misses = sum(1 << i for i, v in enumerate(pos) if v < r)
    admits = sum(1 << i for i, v in enumerate(neg) if v > r)
    count = len(pos) + len(neg) - misses.bit_count() - admits.bit_count()
    return ScoredCandidate(
        atom=PltlAtom(r, body),
        size=body.size,
        count=count,
        sigma=count / (1.0 + math.sqrt(body.size)),
        misses=misses,
        admits=admits,
    )


@dataclass
class _Run:
    """Mutable loop state shared between the size scan and the combiner."""

    config: LearnConfig
    stats: RunStats
    budget: int
    best: tuple[tuple[PltlFormula, float | None], ...] | None = None
    best_size: int | None = None


def bsc(pooled: list[ScoredCandidate], run: _Run) -> None:
    """Search conjunctions/disjunctions of two pooled atoms.

    pooled accumulates across sizes.  Pairs draw one side from the whole
    pool in score order and the other from the bool_limit best; each pair
    tries & then |.  A conjunction misses what either atom misses and
    admits what both admit, a disjunction the reverse; a pair that
    misses and admits nothing is consistent.  A hit records the
    combination and tightens the size budget to one below it, so only
    strictly smaller candidates can follow.
    """
    order = sorted(pooled, key=lambda s: (-s.sigma, s.size, print_pltl(s.atom)))
    top = order[: run.config.bool_limit]
    for psi in order:
        for phi in top:
            size = psi.size + phi.size + 1
            if size > run.budget:
                continue
            for op in ("&", "|"):
                run.stats.combos_tried += 1
                if op == "&":
                    wrong = (psi.misses | phi.misses) or (psi.admits & phi.admits)
                else:
                    wrong = (psi.misses & phi.misses) or (psi.admits | phi.admits)
                if wrong:
                    continue
                combo = (PltlAnd if op == "&" else PltlOr)(psi.atom, phi.atom)
                run.best = ((combo, None),)
                run.best_size = size
                run.budget = size - 1


# ---------------------------------------------------------------------------
# Putting it together


@dataclass(frozen=True)
class LearnResult:
    formulas: tuple[PltlFormula, ...]
    margins: tuple[float | None, ...]
    size: int
    stats: RunStats


def _holds(f: PltlFormula, m: Dtmc, states: list[int]) -> np.ndarray:
    """Whether f holds from each of the given states of m: one check_ltl
    call per atom, whose values at those states are compared with its
    threshold, and the atoms' truths folded with & and |."""
    if isinstance(f, PltlAtom):
        return np.asarray(check_ltl(m, f.body).values)[states] > f.threshold
    left, right = _holds(f.left, m, states), _holds(f.right, m, states)
    return left & right if isinstance(f, PltlAnd) else left | right


def check_consistency(f: PltlFormula, sample: Sample) -> bool:
    """True iff f holds on every positive chain and no negative one.

    Each atom is one check_ltl call on sample.union, and chain i's value
    is read at state sample.offsets[i] + m.init of it, which holds the
    value chain i takes alone; so each chain gets the verdict it gets
    when checked alone.
    """
    chains = (*sample.positive, *sample.negative)
    holds = _holds(f, sample.union, [at + m.init for at, m in zip(sample.offsets, chains)])
    n_pos = len(sample.positive)
    return bool(holds[:n_pos].all() and not holds[n_pos:].any())


def learn(sample: Sample, config: LearnConfig) -> LearnResult:
    """Find minimal consistent threshold formulas for the sample.

    Raises NoSolutionError when the bounded space holds no consistent
    formula.  Every result is re-verified against the sample; a
    verification failure raises RuntimeError since it would mean the
    search data structures are inconsistent.
    """
    stats = RunStats()
    state = gbe_init(sample.ap, config.max_depth, stats)
    run = _Run(config=config, stats=stats, budget=config.max_size)
    pooled: list[ScoredCandidate] = []

    n = 0
    while n < run.budget:
        n += 1
        if n > 1:
            t0 = time.perf_counter()
            gbe_step(state, n)
            stats.add_time("gbe", time.perf_counter() - t0)
        t0 = time.perf_counter()
        res = pts(size_bucket(state, n), sample, config.delta, stats=stats)
        stats.add_time("pts", time.perf_counter() - t0)
        if res.found:
            run.best = res.consistent if config.all_minimal else res.winners
            run.best_size = n
            break
        remove_formulas(state, n, res.discards)
        stats.add("discarded", n, len(res.discards))
        stats.add("pooled", n, len(res.pooled))
        pooled.extend(res.pooled)
        t0 = time.perf_counter()
        bsc(pooled, run)
        stats.add_time("bsc", time.perf_counter() - t0)
        if run.best is not None and config.eager_return:
            break

    if run.best is None:
        raise NoSolutionError(config.max_size, config.max_depth, config.delta, stats)
    for f, _ in run.best:
        if not check_consistency(f, sample):
            raise RuntimeError(
                f"internal error: result fails re-verification: {print_pltl(f)}"
            )
    return LearnResult(
        formulas=tuple(f for f, _ in run.best),
        margins=tuple(m for _, m in run.best),
        size=run.best_size,
        stats=stats,
    )
