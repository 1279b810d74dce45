"""Search for minimal probabilistic-threshold formulas separating samples.

Three cooperating pieces:

* a size-and-depth indexed enumerator of canonical NNF formulas that
  skips syntactic redundancy (rewrite rules, commutative duplicates,
  complement combinations),
* a per-size scan that evaluates every candidate body on every chain and
  returns the widest-margin thresholded atoms once some body separates
  the sample by more than delta,
* a set-cover style combiner that reuses failed bodies as atoms with the
  best achievable threshold and searches for a consistent conjunction or
  disjunction of two of them.

Minimality: sizes are scanned in increasing order, Boolean combinations
tighten the size budget when they find a candidate, and every returned
formula is re-verified against the sample before it leaves this module.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .dtmc import Dtmc, Sample
from .engine import LinearSolveError, check_ltl, temporal_subformulas
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
    "pltl_holds",
    "check_consistency",
]


@dataclass(frozen=True)
class LearnConfig:
    """Search parameters.

    max_size bounds formula size, max_depth the temporal nesting depth.
    delta is the required margin between the worst positive and best
    negative probability before a single atom counts as consistent.
    bool_limit caps the high-score list used for Boolean combinations.
    eager_return stops at the first consistent formula instead of
    finishing the size level; all_minimal reports every consistent atom
    at the winning size rather than only the widest-margin ones.
    """

    max_size: int
    max_depth: int = 2
    delta: float = 0.05
    bool_limit: int = 10
    eager_return: bool = False
    all_minimal: bool = False

    def __post_init__(self):
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
    chain of the sample; pts evaluates chains with equal content once,
    so it can call check_ltl fewer times.

    For every size whose scan completed, constructed equals
    pruned_temporal + pruned_boolean + checked at that size.
    """

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
        keys = set()
        for counter in ("constructed", "pruned_temporal", "pruned_boolean",
                        "checked", "discarded", "pooled"):
            keys.update(getattr(self, counter))
        return sorted(keys)


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
    def __init__(self, max_size: int, max_depth: int, delta: float):
        self.max_size = max_size
        self.max_depth = max_depth
        self.delta = delta
        super().__init__(
            f"no formula in the search space "
            f"(K={max_size}, D={max_depth}, delta={delta:g})"
        )


# ---------------------------------------------------------------------------
# Grammar-based enumeration


@dataclass
class SearchState:
    """Formula buckets indexed by size, then by temporal depth."""

    ap: tuple[str, ...]
    max_depth: int
    buckets: dict[int, list[list[LtlFormula]]]
    seen: set[LtlFormula]
    stats: RunStats


def gbe_init(ap, max_depth: int = 2, stats: RunStats | None = None) -> SearchState:
    """Start a search state with the size-one layer: all literals."""
    ap = tuple(ap)
    if not ap:
        raise ValueError("at least one atomic proposition is required")
    state = SearchState(
        ap=ap,
        max_depth=max_depth,
        buckets={},
        seen=set(),
        stats=stats if stats is not None else RunStats(),
    )
    layer = [[] for _ in range(max_depth + 1)]
    for name in state.ap:
        for lit in (Lit(name, True), Lit(name, False)):
            state.stats.add("constructed", 1)
            state.seen.add(lit)
            layer[0].append(lit)
    state.buckets[1] = layer
    return state


def _consider(state: SearchState, sink: list[LtlFormula], c: LtlFormula, operands=None):
    state.stats.add("constructed", c.size)
    if temporal_simplify_applies(c):
        state.stats.add("pruned_temporal", c.size)
        return
    if operands is not None and boolean_simplify_applies(*operands):
        state.stats.add("pruned_boolean", c.size)
        return
    if c in state.seen:
        # Commutative / associative duplicate of an earlier candidate.
        state.stats.add("pruned_boolean", c.size)
        return
    state.seen.add(c)
    sink.append(c)


def gbe_step(state: SearchState, n: int) -> None:
    """Fill the size-n layer from the smaller layers already present.

    Unary operators lift size n-1; binary ones combine sizes k and
    n-1-k.  Depth bookkeeping pairs the buckets so each combination is
    produced exactly once per operand multiset; commutativity of & and |
    is covered by join, which orders the chain of canonical operands, plus
    the duplicate check.  Formulas leave a layer only through
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
    new: list[list[LtlFormula]] = [[] for _ in range(D + 1)]

    for d in range(D + 1):
        sink = new[d]
        if d >= 1:
            for child in bk[n - 1][d - 1]:
                _consider(state, sink, Next(child))
                _consider(state, sink, Finally(child))
                _consider(state, sink, Globally(child))
        for k in range(1, n - 1):
            lhs, rhs = bk[k], bk[n - 1 - k]
            for left in lhs[d]:
                for d2 in range(d + 1):
                    for right in rhs[d2]:
                        _consider(state, sink, join(And, left, right), (left, right))
                        _consider(state, sink, join(Or, left, right), (left, right))
            if d >= 1:
                for left in lhs[d - 1]:
                    for d2 in range(d):
                        for right in rhs[d2]:
                            _consider(state, sink, Until(left, right), (left, right))
                for d2 in range(d - 1):
                    for left in lhs[d2]:
                        for right in rhs[d - 1]:
                            _consider(state, sink, Until(left, right), (left, right))

    state.buckets[n] = new


def size_bucket(state: SearchState, n: int) -> list[LtlFormula]:
    """The size-n formulas in scan order: by depth, then printed form."""
    out: list[LtlFormula] = []
    for layer in state.buckets[n]:
        out.extend(sorted(layer, key=print_ltl))
    return out


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
    # (body, positive values, negative values) for inconsistent survivors
    kept: tuple[tuple[LtlFormula, tuple[float, ...], tuple[float, ...]], ...]


def pts(
    formulas,
    sample: Sample,
    delta: float,
    *,
    stats: RunStats | None = None,
) -> PtsResult:
    """Evaluate candidate bodies and pick consistent thresholded atoms.

    A body phi is consistent when min over positives of its initial
    probability exceeds max over negatives by more than delta; the atom
    threshold is the midpoint.  A body whose whole per-state vector is
    exactly 0 on every positive chain or exactly 1 on every negative
    chain cannot occur inside any minimal consistent formula and is
    reported as a discard; everything else survives with its
    initial-state values.

    Chains with equal content are evaluated once.  On each distinct
    chain the bodies go through check_ltl with one shared refinement
    log, sorted by the hashes of their temporal subformula sequences:
    a depth-first walk of the prefix trie, so each shared prefix is
    refined once and only one path of refined chains is alive at a
    time.  The scan itself then runs in the given order over
    (init, all 0, all 1) summaries, so results, stats and the body,
    role and index an EngineFailure names are those of a plain loop
    over bodies, then positive and negative chains.
    """
    formulas = list(formulas)
    chains = [("positive", i, m) for i, m in enumerate(sample.positive)]
    chains += [("negative", i, m) for i, m in enumerate(sample.negative)]
    slots: dict[Dtmc, int] = {}
    slot_of = [slots.setdefault(m, len(slots)) for _, _, m in chains]
    walk = sorted(
        range(len(formulas)),
        key=lambda j: tuple(psi.hash64 for psi in temporal_subformulas(formulas[j])),
    )
    # scores[slot][j]: (init, all values == 0.0, all values == 1.0), or
    # the solver error, of body j on that chain.
    scores: list[list] = []
    for m in slots:
        log: list = []
        row: list = [None] * len(formulas)
        for j in walk:
            try:
                v = check_ltl(m, formulas[j], log)
            except LinearSolveError as err:
                row[j] = err
                continue
            row[j] = (
                v.init,
                all(x == 0.0 for x in v.values),
                all(x == 1.0 for x in v.values),
            )
        scores.append(row)

    n_pos = len(sample.positive)
    consistent: list[tuple[PltlAtom, float]] = []
    discards: list[LtlFormula] = []
    kept: list[tuple[LtlFormula, tuple[float, ...], tuple[float, ...]]] = []
    for j, f in enumerate(formulas):
        got = []
        for (role, i, _), slot in zip(chains, slot_of):
            score = scores[slot][j]
            if isinstance(score, LinearSolveError):
                raise EngineFailure(f, role, i, score) from score
            got.append(score)
        if stats is not None:
            stats.add("checked", f.size)
            stats.engine_calls += len(chains)
        pos = tuple(init for init, _, _ in got[:n_pos])
        neg = tuple(init for init, _, _ in got[n_pos:])
        lo, hi = min(pos), max(neg)
        if lo - hi > delta:
            consistent.append((PltlAtom((lo + hi) / 2.0, f), lo - hi))
            continue
        never_pos = all(zero for _, zero, _ in got[:n_pos])
        always_neg = all(one for _, _, one in got[n_pos:])
        if never_pos or always_neg:
            discards.append(f)
            continue
        kept.append((f, pos, neg))

    if consistent:
        top = max(m for _, m in consistent)
        winners = tuple((a, m) for a, m in consistent if m == top)
        return PtsResult(True, winners, tuple(consistent), (), ())
    return PtsResult(False, (), (), tuple(discards), tuple(kept))


def best_threshold(pos, neg) -> tuple[float, int]:
    """Threshold maximizing correctly classified chains.

    Candidates are midpoints of consecutive distinct observed values,
    with 0 and 1 added as sentinels so one-sided gaps are usable.  A
    chain counts when its positive value lies strictly above or its
    negative value strictly below the threshold.  Ties prefer the widest
    value gap, then the smallest threshold.
    """
    vals = sorted({*pos, *neg, 0.0, 1.0})
    best_r, best_c, best_gap = 0.5, -1, -1.0
    for a, b in zip(vals, vals[1:]):
        r = (a + b) / 2.0
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
    count: int
    sigma: float
    pos_bits: tuple[bool, ...]
    neg_bits: tuple[bool, ...]


def make_scored(body: LtlFormula, pos, neg) -> ScoredCandidate:
    r, c = best_threshold(pos, neg)
    atom = PltlAtom(r, body)
    return ScoredCandidate(
        atom=atom,
        size=body.size,
        count=c,
        sigma=c / (1.0 + math.sqrt(body.size)),
        pos_bits=tuple(v > r for v in pos),
        neg_bits=tuple(v > r for v in neg),
    )


@dataclass
class _Run:
    """Mutable loop state shared between the size scan and the combiner."""

    sample: Sample
    config: LearnConfig
    stats: RunStats
    budget: int
    best: tuple[tuple[PltlFormula, float | None], ...] | None = None
    best_size: int | None = None


def bsc(pooled: list[ScoredCandidate], run: _Run) -> None:
    """Search conjunctions/disjunctions of two pooled atoms.

    pooled accumulates across sizes.  Pairs draw one side from the whole
    pool in score order and the other from the bool_limit best; each pair
    tries & then |.  Consistency is read off the cached per-chain bits.
    A hit records the combination and tightens the size budget to one
    below it, so only strictly smaller candidates can follow.
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
                    pos_ok = all(a and b for a, b in zip(psi.pos_bits, phi.pos_bits))
                    neg_bad = any(a and b for a, b in zip(psi.neg_bits, phi.neg_bits))
                else:
                    pos_ok = all(a or b for a, b in zip(psi.pos_bits, phi.pos_bits))
                    neg_bad = any(a or b for a, b in zip(psi.neg_bits, phi.neg_bits))
                if not pos_ok or neg_bad:
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


def pltl_holds(m: Dtmc, f: PltlFormula) -> bool:
    """Whether the chain satisfies the threshold formula."""
    if isinstance(f, PltlAtom):
        return check_ltl(m, f.body).init > f.threshold
    if isinstance(f, PltlAnd):
        return pltl_holds(m, f.left) and pltl_holds(m, f.right)
    return pltl_holds(m, f.left) or pltl_holds(m, f.right)


def check_consistency(f: PltlFormula, sample: Sample) -> bool:
    """True iff f holds on every positive chain and no negative one."""
    return all(pltl_holds(m, f) for m in sample.positive) and not any(
        pltl_holds(m, f) for m in sample.negative
    )


def learn(sample: Sample, config: LearnConfig) -> LearnResult:
    """Find minimal consistent threshold formulas for the sample.

    Raises NoSolutionError when the bounded space holds no consistent
    formula.  Every result is re-verified against the sample; a
    verification failure raises RuntimeError since it would mean the
    search data structures are inconsistent.
    """
    stats = RunStats()
    state = gbe_init(sample.ap, config.max_depth, stats)
    run = _Run(sample=sample, config=config, stats=stats, budget=config.max_size)
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
        # An atom that is false at the root of every positive or true at
        # the root of every negative is useless inside a combination,
        # though its body may still serve as a subterm later.
        scored = [
            make_scored(f, pos, neg)
            for f, pos, neg in res.kept
            if not (all(v == 0.0 for v in pos) or all(v == 1.0 for v in neg))
        ]
        stats.add("pooled", n, len(scored))
        pooled.extend(scored)
        t0 = time.perf_counter()
        bsc(pooled, run)
        stats.add_time("bsc", time.perf_counter() - t0)
        if run.best is not None and config.eager_return:
            break

    if run.best is None:
        raise NoSolutionError(config.max_size, config.max_depth, config.delta)
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
