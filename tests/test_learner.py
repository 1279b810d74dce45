import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chains
from lasso import all_syntactic, checker
from pltl_learn.benchgen import (
    conjunction_sample,
    gridworld_sample,
    reach_chain,
    reach_sample,
    safety_sample,
    until_sample,
)
from pltl_learn.dtmc import Dtmc, Sample, disjoint_union
from pltl_learn.engine import LinearSolveError, RefinementLog, check_ltl, temporal_subformulas
from pltl_learn.learner import (
    EngineFailure,
    LearnConfig,
    NoSolutionError,
    PtsResult,
    RunStats,
    ScoredCandidate,
    _Run,
    best_threshold,
    bsc,
    check_consistency,
    gbe_init,
    gbe_step,
    learn,
    make_scored,
    pts,
    remove_formulas,
    size_bucket,
)
from pltl_learn.ltl import (
    And,
    Finally,
    Globally,
    Lit,
    Next,
    Or,
    PltlAnd,
    PltlAtom,
    PltlOr,
    Until,
    parse_ltl,
    print_ltl,
    print_pltl,
)


def _mk(n, init, labels, edges, ap=("a",)):
    return Dtmc(
        n_states=n,
        init=init,
        ap=ap,
        labels=tuple(frozenset(l) for l in labels),
        transitions=tuple(edges),
    )


# retry loop: F(a) is sure, X(a) is a coin flip
RETRY = _mk(2, 0, [(), ("a",)], [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)])


def _prints(formulas) -> list[str]:
    return [print_ltl(f) for f in formulas]


# ---------------------------------------------------------------------------
# Configuration


def test_config_validation():
    LearnConfig(max_size=1)
    with pytest.raises(ValueError, match="max_size"):
        LearnConfig(max_size=0)
    with pytest.raises(ValueError, match="max_depth"):
        LearnConfig(max_size=2, max_depth=-1)
    for bad in (0.0, 0.1, -0.01, 0.5):
        with pytest.raises(ValueError, match="delta"):
            LearnConfig(max_size=2, delta=bad)
    with pytest.raises(ValueError, match="bool_limit"):
        LearnConfig(max_size=2, bool_limit=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_size", 2.5),
        ("max_size", True),
        ("max_size", None),
        ("max_depth", 1.5),
        ("max_depth", np.bool_(True)),
        ("bool_limit", 2.5),
        ("delta", "0.05"),
        ("delta", False),
        ("delta", None),
    ],
)
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an? "):
        LearnConfig(**{"max_size": 4, field: value})


def test_config_accepts_numpy_and_exact_numbers():
    config = LearnConfig(max_size=np.int64(3), max_depth=np.int32(1), delta=Fraction(1, 20))
    assert (config.max_size, config.max_depth, config.delta) == (3, 1, Fraction(1, 20))


# ---------------------------------------------------------------------------
# Enumeration


def test_gbe_needs_propositions():
    with pytest.raises(ValueError, match="at least one"):
        gbe_init(())


def test_gbe_size_one():
    assert _prints(size_bucket(gbe_init(("p",)), 1)) == ["!p", "p"]
    assert len(size_bucket(gbe_init(("a", "b", "h")), 1)) == 6


def test_gbe_size_two_over_one_prop():
    state = gbe_init(("p",))
    gbe_step(state, 2)
    assert _prints(size_bucket(state, 2)) == [
        "F(!p)", "F(p)", "G(!p)", "G(p)", "X(!p)", "X(p)",
    ]


def test_gbe_size_three_over_one_prop():
    state = gbe_init(("p",))
    gbe_step(state, 2)
    gbe_step(state, 3)
    assert _prints(size_bucket(state, 3)) == [
        "F(G(!p))", "F(G(p))", "G(F(!p))", "G(F(p))",
        "X(F(!p))", "X(F(p))", "X(G(!p))", "X(G(p))",
        "X(X(!p))", "X(X(p))",
    ]


def test_gbe_depth_zero_has_no_temporal_formulas():
    state = gbe_init(("a", "b"), max_depth=0)
    gbe_step(state, 2)
    gbe_step(state, 3)
    assert size_bucket(state, 2) == []
    assert all("U" not in p and "F" not in p for p in _prints(size_bucket(state, 3)))
    assert "(a & b)" in _prints(size_bucket(state, 3))


def test_gbe_step_order_errors():
    state = gbe_init(("p",))
    with pytest.raises(ValueError, match="size-one"):
        gbe_step(state, 1)
    with pytest.raises(ValueError, match="smaller layers missing"):
        gbe_step(state, 3)
    gbe_step(state, 2)
    with pytest.raises(ValueError, match="already built"):
        gbe_step(state, 2)


def test_remove_formulas_shrinks_bucket():
    state = gbe_init(("p",))
    gbe_step(state, 2)
    remove_formulas(state, 2, [Finally(Lit("p"))])
    assert "F(p)" not in _prints(size_bucket(state, 2))
    gbe_step(state, 3)
    # removed formulas never act as subterms of later sizes
    assert "F(F(p))" not in _prints(size_bucket(state, 3))
    assert all("F(p)" not in p for p in _prints(size_bucket(state, 3)))


def test_gbe_counters_balance_bucket_sizes():
    state = gbe_init(("a", "b"))
    for n in (2, 3, 4):
        gbe_step(state, n)
    s = state.stats
    for n in (1, 2, 3, 4):
        kept = len(size_bucket(state, n))
        assert s.constructed[n] == (
            s.pruned_temporal.get(n, 0) + s.pruned_boolean.get(n, 0) + kept
        )


@pytest.mark.parametrize("max_depth", [0, 2, 50])
def test_layers_are_no_deeper_than_their_size_allows(max_depth):
    # A size-n formula nests at most n - 1 temporal operators.
    state = gbe_init(("a", "b"), max_depth)
    for n in range(2, 6):
        gbe_step(state, n)
    for n in range(1, 6):
        assert len(state.buckets[n]) == min(max_depth, n - 1) + 1


def test_depth_bound_past_the_size_bound_changes_nothing():
    shallow = learn(until_sample(), LearnConfig(max_size=4, max_depth=3))
    deep = learn(until_sample(), LearnConfig(max_size=4, max_depth=10**9))
    assert deep.formulas == shallow.formulas
    assert deep.margins == shallow.margins
    assert deep.size == shallow.size
    for counter in RunStats.PER_SIZE:
        assert getattr(deep.stats, counter) == getattr(shallow.stats, counter), counter


def _buckets(ap, max_depth, max_size):
    state = gbe_init(ap, max_depth)
    for n in range(2, max_size + 1):
        gbe_step(state, n)
    return state.buckets


def test_enumerated_buckets_are_pinned():
    # Every member, in bucket order (depth, then printed form), of two
    # enumerations.
    h = hashlib.sha256()
    for ap, max_depth, max_size in ((("a", "b", "c"), 2, 5), (("p",), 4, 6)):
        buckets = _buckets(ap, max_depth, max_size)
        for n in range(1, max_size + 1):
            for d, layer in enumerate(buckets[n]):
                for f in layer:
                    h.update(f"{n} {d} {print_ltl(f)}\n".encode())
    assert h.hexdigest() == "8f29cd96dbac4bcbaf4d528865d709819213a349d09c59980aad73700dc35682"


def _is_canonical(f) -> bool:
    # By definition: each &/| chain leans left (no right operand of the
    # chain's class), with operand keys (hash, printed form) non-decreasing.
    if isinstance(f, Lit):
        return True
    if isinstance(f, (Next, Finally, Globally)):
        return _is_canonical(f.child)
    if isinstance(f, Until):
        return _is_canonical(f.left) and _is_canonical(f.right)
    cls, ops = type(f), []
    while isinstance(f, cls):
        if isinstance(f.right, cls):
            return False
        ops.append(f.right)
        f = f.left
    ops.append(f)
    keys = [(g.hash64, print_ltl(g)) for g in reversed(ops)]
    return keys == sorted(keys) and all(map(_is_canonical, ops))


def test_enumerated_bodies_are_canonical():
    buckets = _buckets(("a", "b"), 3, 6)
    bodies = [f for n in range(1, 7) for layer in buckets[n] for f in layer]
    assert sum(isinstance(f, (And, Or)) and isinstance(f.left, type(f)) for f in bodies) > 100
    assert all(_is_canonical(f) for f in bodies)


def test_enumeration_is_semantically_complete():
    """Every non-constant syntactic formula of size <= 4 and depth <= 2
    over one proposition has a retained equal-or-smaller representative
    with the same behaviour on all lasso words |u| + |v| <= 8.  Constants
    only need a representative somewhere within the bound, since no
    constant can separate a sample; exactly the four literal-complement
    combinations rely on that slack."""
    ck = checker()
    state = gbe_init(("p",), max_depth=2)
    for n in (2, 3, 4):
        gbe_step(state, n)
    best: dict[bytes, int] = {}
    for n in range(1, 5):
        for f in size_bucket(state, n):
            sig = ck.signature(f)
            if sig not in best or best[sig] > n:
                best[sig] = n

    syntactic = all_syntactic(4, max_depth=2)
    total = 0
    late_constants = []
    for n, layer in syntactic.items():
        for f in layer:
            total += 1
            twin = best.get(ck.signature(f))
            assert twin is not None, print_ltl(f)
            if twin > n:
                assert ck.is_constant(f), print_ltl(f)
                late_constants.append(print_ltl(f))
    assert total == 146
    assert sorted(late_constants) == ["(!p & p)", "(!p | p)", "(p & !p)", "(p | !p)"]


# ---------------------------------------------------------------------------
# Per-size scan


def test_pts_finds_widest_margin_atom():
    sample = Sample.build([RETRY], [reach_chain(0.3)])
    state = gbe_init(sample.ap, max_depth=1)
    gbe_step(state, 2)
    res = pts(size_bucket(state, 2), sample, 0.05)
    assert res.found
    assert res.discards == () and res.pooled == ()
    ((atom, margin),) = res.winners
    assert print_pltl(atom) == "P>0.65 [F(a)]"
    assert atom.threshold == (1.0 + 0.3) / 2
    assert margin == 1.0 - 0.3
    # the narrower separator is consistent but not a winner
    assert len(res.consistent) == 2
    atom2, margin2 = res.consistent[1]
    assert print_pltl(atom2) == f"P>{(0.5 + 0.3) / 2:.6g} [X(a)]"
    assert margin2 == 0.5 - 0.3


def test_pts_margin_gate():
    sample = Sample.build([reach_chain(0.52)], [reach_chain(0.49)])
    wide = pts([parse_ltl("F(a)")], sample, 0.05)
    assert not wide.found
    # F(a) classifies both chains alone, missing only delta: not pooled
    assert wide.discards == () and wide.pooled == ()
    tight = pts([parse_ltl("F(a)")], sample, 0.01)
    assert tight.found
    assert tight.winners[0][0].threshold == (0.52 + 0.49) / 2


def test_pts_discards_never_positive_bodies():
    blank = _mk(1, 0, [()], [(0, 0, 1.0)])
    sample = Sample.build([blank], [reach_chain(0.3)])
    res = pts([parse_ltl("F(a)")], sample, 0.05)
    assert res.discards == (parse_ltl("F(a)"),)
    assert res.pooled == ()


def test_pts_discards_always_negative_bodies():
    allon = _mk(1, 0, [("a",)], [(0, 0, 1.0)])
    sample = Sample.build([RETRY], [allon])
    res = pts([parse_ltl("G(a)")], sample, 0.05)
    assert res.discards == (parse_ltl("G(a)"),)


def test_pts_discard_looks_at_whole_vector():
    # X(a) is 0 at the positive root but 1 deeper in, so it survives
    chain = _mk(
        3, 0, [(), (), ("a",)], [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)]
    )
    sample = Sample.build([chain], [reach_chain(0.3)])
    res = pts([parse_ltl("X(a)")], sample, 0.05)
    assert res.discards == ()
    # 0 at the only positive root, so not pooled either
    assert res.pooled == ()


def test_pts_scan_of_until_family_size_two():
    sample = until_sample()
    state = gbe_init(sample.ap, max_depth=2)
    gbe_step(state, 2)
    res = pts(size_bucket(state, 2), sample, 0.05)
    assert not res.found
    assert {print_ltl(f) for f in res.discards} == {"F(!a)", "F(!b)", "G(a)", "G(b)"}
    # Of the 8 survivors, only the bodies informative at the root are
    # pooled.  F(b) is 0.9375 and G(!b) 0.0625 on all four chains, so
    # each is right on one side only, at the widest gap's midpoint.
    scored = {print_pltl(s.atom): (s.count, s.misses, s.admits) for s in res.pooled}
    assert scored == {
        "P>0.46875 [F(b)]": (2, 0b00, 0b11),
        "P>0.53125 [G(!b)]": (2, 0b11, 0b00),
    }


def test_pts_engine_failure_names_the_chain(monkeypatch):
    def boom(m, f, refinement_log=None):
        raise LinearSolveError("forced")

    # The union goes through engine.check_each, each chain alone through
    # learner's own name.
    monkeypatch.setattr("pltl_learn.engine.check_ltl", boom)
    monkeypatch.setattr("pltl_learn.learner.check_ltl", boom)
    sample = Sample.build([RETRY], [reach_chain(0.3)])
    with pytest.raises(EngineFailure, match="positive chain 0"):
        pts([parse_ltl("F(a)")], sample, 0.05)
    try:
        pts([parse_ltl("F(a)")], sample, 0.05)
    except EngineFailure as e:
        assert e.role == "positive" and e.index == 0
        assert "F(a)" in str(e)


def test_pts_stats_count_engine_calls():
    sample = Sample.build([RETRY], [reach_chain(0.3)])
    stats = RunStats()
    pts([parse_ltl("F(a)"), parse_ltl("X(a)")], sample, 0.05, stats=stats)
    assert stats.checked == {2: 2}
    assert stats.engine_calls == 4


def _pts_by_body(formulas, sample, delta):
    """The scan as one plain loop: every body on every chain, from scratch."""
    consistent, discards, pooled = [], [], []
    for f in formulas:
        pvecs = [check_ltl(m, f) for m in sample.positive]
        nvecs = [check_ltl(m, f) for m in sample.negative]
        pos = tuple(v.init for v in pvecs)
        neg = tuple(v.init for v in nvecs)
        lo, hi = min(pos), max(neg)
        if lo - hi > delta:
            consistent.append((PltlAtom((lo + hi) / 2.0, f), lo - hi))
        elif all(all(x == 0.0 for x in v.values) for v in pvecs) or all(
            all(x == 1.0 for x in v.values) for v in nvecs
        ):
            discards.append(f)
        elif max(pos) > 0.0 and min(neg) < 1.0:
            atom = make_scored(f, pos, neg)
            if atom.count < len(pos) + len(neg):
                pooled.append(atom)
    if consistent:
        top = max(m for _, m in consistent)
        winners = tuple((a, m) for a, m in consistent if m == top)
        return PtsResult(True, winners, tuple(consistent), (), ())
    return PtsResult(False, (), (), tuple(discards), tuple(pooled))


def test_pts_refines_each_shared_prefix_once(monkeypatch):
    import pltl_learn.engine as engine

    refined = []
    original = engine.refine

    def counting(r, psi, p, prop):
        refined.append(psi)
        return original(r, psi, p, prop)

    state = gbe_init(("a", "b"), max_depth=2)
    gbe_step(state, 2)
    gbe_step(state, 3)
    bodies = size_bucket(state, 3)
    chain = chains.random_chain(random.Random(7), max_states=8)
    # Sample.build projects each side, so the two sides are equal, not identical
    sample = Sample.build([chain], [chain])
    stats = RunStats()
    monkeypatch.setattr(engine, "refine", counting)
    res = pts(bodies, sample, 0.05, stats=stats)
    monkeypatch.setattr(engine, "refine", original)

    prefixes = set()
    for f in bodies:
        rounds = tuple(temporal_subformulas(f))
        prefixes.update(rounds[:k] for k in range(1, len(rounds) + 1))
    assert len(refined) == len(prefixes) < sum(len(temporal_subformulas(f)) for f in bodies)
    assert res == _pts_by_body(bodies, sample, 0.05)
    assert stats.checked == {3: len(bodies)}
    assert stats.engine_calls == stats.checked[3] * 2


def test_pts_builds_the_root_refinement_once(monkeypatch):
    import pltl_learn.engine as engine

    roots = []
    original = engine.initial_refinement
    monkeypatch.setattr(engine, "initial_refinement", lambda m: roots.append(m) or original(m))
    state = gbe_init(("a", "b"), max_depth=2)
    gbe_step(state, 2)
    gbe_step(state, 3)
    bodies = [f for n in (1, 2, 3) for f in size_bucket(state, n)]
    # Propositional bodies start from the root alone, and sort first.
    assert sum(1 for f in bodies if not temporal_subformulas(f)) > 10
    rng = random.Random(13)
    a, b, c = (chains.random_chain(rng, max_states=8) for _ in range(3))
    sample = Sample.build([a, b], [c, a])
    res = pts(bodies, sample, 0.05)
    assert len(roots) == 1 and roots[0] is sample.union
    pts(size_bucket(state, 1), sample, 0.05)
    assert len(roots) == 2  # one per call of pts
    monkeypatch.undo()
    assert res == _pts_by_body(bodies, sample, 0.05)


def test_pts_matches_plain_loop_on_distinct_chains():
    rng = random.Random(11)
    a, b, c = (chains.random_chain(rng, max_states=8) for _ in range(3))
    state = gbe_init(("a", "b"), max_depth=2)
    for n in (1, 2, 3, 4):
        if n > 1:
            gbe_step(state, n)
        bodies = size_bucket(state, n)
        for sample in (Sample.build([a, b], [c]), until_sample()):
            assert pts(bodies, sample, 0.05) == _pts_by_body(bodies, sample, 0.05)


def test_pts_engine_failure_keeps_scan_order_with_shared_chains(monkeypatch):
    a = reach_chain(0.3)
    b = _mk(2, 0, [(), ("a",)], [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)])
    bodies = [parse_ltl("F(a)"), parse_ltl("X(a)"), parse_ltl("G(a)")]
    # evaluation runs in another order than the scan
    assert sorted(bodies, key=lambda f: f.hash64) == bodies[::-1]

    def failing(m, f, refinement_log=None):
        # X(a) fails on b and G(a) on a, so both fail on any union of chains.
        union = m not in (a, b)
        if (f == bodies[1] and (m == b or union)) or (f == bodies[2] and (m == a or union)):
            raise LinearSolveError("forced")
        return check_ltl(m, f, refinement_log)

    monkeypatch.setattr("pltl_learn.engine.check_ltl", failing)
    monkeypatch.setattr("pltl_learn.learner.check_ltl", failing)
    sample = Sample.build([a, b], [RETRY])
    assert sample.positive[1] == sample.negative[0]
    with pytest.raises(EngineFailure, match="positive chain 1") as info:
        pts(bodies, sample, 0.05)
    assert info.value.formula == bodies[1]
    assert (info.value.role, info.value.index) == ("positive", 1)


def test_pts_engine_failure_names_the_chain_first_in_scan_order(monkeypatch):
    import pltl_learn.engine as engine

    # With every solve failing, x fails in the F(b) round and y earlier,
    # in the F(a) round, so the union fails on y's part first.
    edges = [(0, 1, 0.5), (0, 2, 0.5), (1, 1, 1.0), (2, 2, 1.0)]
    x = _mk(3, 0, [("a",), ("a", "b"), ("a",)], edges, ap=("a", "b"))
    y = _mk(3, 0, [(), ("a",), ()], edges)
    f = parse_ltl("(F(a) | F(b))")
    assert [print_ltl(psi) for psi in temporal_subformulas(f)] == ["F(a)", "F(b)"]

    def failing(rows, block, out):
        raise LinearSolveError("forced")

    # Every system is assembled by _system, whichever solver takes it.
    monkeypatch.setattr(engine, "_system", failing)
    sample = Sample.build([x], [RETRY, y], ap=["a", "b"])
    ms = [*sample.positive, *sample.negative]
    for m, rounds_done in ((disjoint_union(ms), 0), (ms[0], 1), (ms[2], 0)):
        log = RefinementLog(m)
        with pytest.raises(LinearSolveError):
            check_ltl(m, f, log)
        assert len(log) == rounds_done
    with pytest.raises(EngineFailure, match="positive chain 0") as info:
        pts([f], sample, 0.05)
    assert info.value.formula == f
    assert (info.value.role, info.value.index) == ("positive", 0)


# ---------------------------------------------------------------------------
# Threshold selection


def test_best_threshold_majority():
    r, c = best_threshold([0.9, 0.8], [0.4])
    assert c == 3
    assert r == (0.4 + 0.8) / 2
    assert abs(r - 0.6) <= 1e-9


def test_best_threshold_prefers_wide_gaps():
    assert best_threshold([0.3], [0.9]) == (0.15, 1)


def test_best_threshold_separable_pair():
    assert best_threshold([1.0], [0.3]) == (0.65, 2)


def test_best_threshold_identical_values():
    # a chain can never sit on both sides; the wide low gap wins
    assert best_threshold([0.5, 0.5], [0.5]) == (0.25, 2)


_dyadic = st.integers(min_value=0, max_value=64).map(lambda k: k / 64.0)


@given(
    st.lists(_dyadic, min_size=1, max_size=6),
    st.lists(_dyadic, min_size=1, max_size=6),
)
def test_best_threshold_is_optimal(pos, neg):
    r, c = best_threshold(pos, neg)
    assert 0.0 <= r <= 1.0
    assert sum(1 for v in pos if v > r) + sum(1 for v in neg if v < r) == c
    grid_best = max(
        sum(1 for v in pos if v > g) + sum(1 for v in neg if v < g)
        for g in ((2 * k + 1) / 256.0 for k in range(128))
    )
    assert c == grid_best


# Values an ulp away from 0, 1 and interior values, where a midpoint can
# round onto one of the two values it splits.
_near = st.sampled_from((0.0, 0.25, 0.5, 1.0 - 2**-10, 1.0)).flatmap(
    lambda x: st.sampled_from((x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)))
)
_value = st.one_of(_near, st.floats(min_value=0.0, max_value=1.0))


@given(st.lists(_value, min_size=1, max_size=5), st.lists(_value, min_size=1, max_size=5))
def test_threshold_lies_strictly_between_values(pos, neg):
    r, c = best_threshold(pos, neg)
    assert 0.0 < r < 1.0
    vals = sorted({*pos, *neg, 0.0, 1.0})
    assert any(a < r < b for a, b in zip(vals, vals[1:]))
    s = make_scored(parse_ltl("F(a)"), tuple(pos), tuple(neg))
    assert s.atom.threshold == r
    assert s.misses == sum(1 << i for i, v in enumerate(pos) if v < r)
    assert s.admits == sum(1 << i for i, v in enumerate(neg) if v > r)
    right = len(pos) + len(neg) - s.misses.bit_count() - s.admits.bit_count()
    assert s.count == right == c


def test_learn_threshold_never_rounds_onto_a_value():
    # The midpoint of 1 - 2**-53 and 1 rounds to 1.0; no atom takes it,
    # and the search runs out.
    sample = Sample.build([reach_chain(1.0)], [reach_chain(1 - 2**-53)] * 2)
    with pytest.raises(NoSolutionError):
        learn(sample, LearnConfig(max_size=2, max_depth=1))


def test_make_scored_sigma_and_bits():
    s = make_scored(parse_ltl("F(a)"), (0.9, 0.8), (0.4,))
    assert s.count == 3
    assert s.size == 2
    assert abs(s.sigma - 3.0 / (1.0 + math.sqrt(2.0))) <= 1e-12
    assert (s.misses, s.admits) == (0, 0)
    assert s.atom.body == parse_ltl("F(a)")
    # at 0.5, positive 1 (0.05) is missed and negative 1 (0.95) admitted
    s = make_scored(parse_ltl("F(a)"), (0.9, 0.05), (0.1, 0.95))
    assert s.atom.threshold == 0.5
    assert (s.count, s.misses, s.admits) == (2, 0b10, 0b10)


# ---------------------------------------------------------------------------
# Boolean combinations

def _cand(text, count, pos_bits, neg_bits, threshold=0.5):
    """A pooled atom that holds on the chains whose bit is True."""
    body = parse_ltl(text)
    return ScoredCandidate(
        atom=PltlAtom(threshold, body),
        size=body.size,
        count=count,
        sigma=count / (1.0 + math.sqrt(body.size)),
        misses=sum(1 << i for i, holds in enumerate(pos_bits) if not holds),
        admits=sum(1 << i for i, holds in enumerate(neg_bits) if holds),
    )


def _fresh_run(budget, bool_limit=10):
    cfg = LearnConfig(max_size=budget, max_depth=2, bool_limit=bool_limit)
    return _Run(config=cfg, stats=RunStats(), budget=budget)


def test_bsc_finds_complementary_conjunction():
    fa = _cand("F(a)", 3, (True, True), (True, False))
    fb = _cand("F(b)", 3, (True, True), (False, True))
    run = _fresh_run(5)
    bsc([fa, fb], run)
    assert run.best is not None
    ((combo, margin),) = run.best
    assert isinstance(combo, PltlAnd)
    assert print_pltl(combo) == "(P>0.5 [F(a)] & P>0.5 [F(b)])"
    assert margin is None
    assert run.best_size == 5
    assert run.budget == 4
    assert run.stats.combos_tried == 4


def test_bsc_finds_disjunction():
    ga = _cand("G(a)", 3, (True, False), (False, False))
    gb = _cand("G(b)", 3, (False, True), (False, False))
    run = _fresh_run(5)
    bsc([ga, gb], run)
    ((combo, _),) = run.best
    assert isinstance(combo, PltlOr)


def test_bsc_respects_budget():
    fa = _cand("F(G(a))", 2, (True, True), (True, False))
    fb = _cand("F(G(b))", 2, (True, True), (False, True))
    run = _fresh_run(5)
    bsc([fa, fb], run)  # combined size 7 > 5
    assert run.best is None
    assert run.stats.combos_tried == 0


def test_bsc_requires_strict_improvement():
    fa = _cand("F(a)", 3, (True, True), (True, False))
    fb = _cand("F(b)", 3, (True, True), (False, True))
    run = _fresh_run(5)
    bsc([fa, fb], run)
    first = run.best
    # a second scan with the same pool finds nothing smaller
    bsc([fa, fb], run)
    assert run.best is first
    assert run.best_size == 5


def test_bsc_rejects_inconsistent_pairs():
    # both atoms misclassify the same negative chain
    fa = _cand("F(a)", 2, (True, True), (True, True))
    fb = _cand("F(b)", 2, (True, True), (True, False))
    run = _fresh_run(5)
    bsc([fa, fb], run)
    assert run.best is None


def test_learn_pools_no_atom_that_classifies_alone():
    # F(a) classifies both chains with a margin below delta; pooled, it
    # would pass as (P>r [F(a)] | P>r [F(a)]) or paired with X(a).
    sample = Sample.build([reach_chain(0.5)], [reach_chain(0.46875)])
    with pytest.raises(NoSolutionError):
        learn(sample, LearnConfig(max_size=5, max_depth=1))


def test_bsc_score_order_prefers_small_high_count():
    strong = _cand("X(a)", 3, (True, True), (False, False))
    weak = _cand("F(G(b))", 1, (False, False), (False, False))
    order = sorted(
        [weak, strong], key=lambda s: (-s.sigma, s.size, print_pltl(s.atom))
    )
    assert order[0] is strong


# ---------------------------------------------------------------------------
# End-to-end runs on the generator families


def test_learn_reach():
    result = learn(reach_sample(), LearnConfig(max_size=2, max_depth=1))
    assert [print_pltl(f) for f in result.formulas] == [
        "P>0.65 [F(a)]",
        "P>0.65 [X(a)]",
    ]
    assert result.margins == (1.0 - 0.3, 1.0 - 0.3)
    assert result.size == 2
    assert result.stats.constructed == {1: 2, 2: 6}
    for f in result.formulas:
        assert check_consistency(f, reach_sample())


def test_learn_safety():
    sample = safety_sample()
    result = learn(sample, LearnConfig(max_size=4, max_depth=2))
    assert [print_pltl(f) for f in result.formulas] == ["P>0.605957 [G(!h)]"]
    assert result.formulas[0].threshold == 0.60595703125
    assert result.margins == (0.4306640625,)
    assert result.size == 2
    assert result.stats.constructed == {1: 2, 2: 6}
    assert check_consistency(result.formulas[0], sample)


def test_learn_safety_all_minimal():
    result = learn(
        safety_sample(), LearnConfig(max_size=4, max_depth=2, all_minimal=True)
    )
    assert [print_pltl(f) for f in result.formulas] == [
        "P>0.605957 [G(!h)]",
        "P>0.765625 [X(!h)]",
    ]
    assert result.formulas[1].threshold == (0.90625 + 0.625) / 2
    assert result.margins == (0.4306640625, 0.90625 - 0.625)


def test_learn_conjunction():
    sample = conjunction_sample()
    result = learn(sample, LearnConfig(max_size=5, max_depth=2))
    assert [print_pltl(f) for f in result.formulas] == [
        "(P>0.488281 [F(a)] & P>0.488281 [F(b)])"
    ]
    assert result.margins == (None,)
    assert result.size == 5
    combo = result.formulas[0]
    assert combo.left.threshold == (0.09375 + 0.8828125) / 2
    assert combo.right.threshold == combo.left.threshold
    assert result.stats.constructed == {1: 4, 2: 12, 3: 72, 4: 164}
    assert result.stats.combos_tried > 0
    assert check_consistency(combo, sample)


def test_learn_conjunction_eager_return():
    result = learn(
        conjunction_sample(),
        LearnConfig(max_size=5, max_depth=2, eager_return=True),
    )
    assert [print_pltl(f) for f in result.formulas] == [
        "(P>0.488281 [F(a)] & P>0.488281 [F(b)])"
    ]
    # the eager run stops at the size level that produced the combination
    assert set(result.stats.checked) <= {1, 2}


def test_learn_until():
    sample = until_sample()
    result = learn(sample, LearnConfig(max_size=4, max_depth=2))
    assert [print_pltl(f) for f in result.formulas] == ["P>0.65625 [(!a U b)]"]
    assert result.formulas[0].threshold == (0.875 + 0.4375) / 2
    assert result.margins == (0.875 - 0.4375,)
    assert result.size == 3
    assert result.stats.constructed == {1: 4, 2: 12, 3: 72}
    assert result.stats.discarded == {1: 0, 2: 4}
    assert result.stats.pooled == {1: 0, 2: 2}
    assert check_consistency(result.formulas[0], sample)


def test_learn_gridworld():
    result = learn(gridworld_sample(), LearnConfig(max_size=3, max_depth=2))
    assert [print_pltl(f) for f in result.formulas] == ["P>0.639583 [F(goal)]"]
    assert result.size == 2
    assert result.stats.constructed == {1: 4, 2: 12}


@pytest.mark.xfail(
    strict=True,
    reason="the two margins differ by 4 ulps of solver rounding and pts keeps m == top",
)
def test_learn_gridworld_seed_5_reports_both_tied_winners():
    # F(goal) and G(!trap) separate the seed-5 sample by the same margin,
    # 0.201041, so both are widest-margin winners.
    result = learn(gridworld_sample(seed=5), LearnConfig(max_size=3, max_depth=2))
    assert [print_pltl(f) for f in result.formulas] == [
        "P>0.609157 [F(goal)]",
        "P>0.609157 [G(!trap)]",
    ]


def test_learn_until_needs_size_three():
    with pytest.raises(NoSolutionError):
        learn(until_sample(), LearnConfig(max_size=2, max_depth=2))


def test_learn_no_solution_message():
    m = reach_chain(0.3)
    sample = Sample.build([m], [m])
    with pytest.raises(NoSolutionError) as e:
        learn(sample, LearnConfig(max_size=4, max_depth=2, delta=0.05))
    assert str(e.value) == "no formula in the search space (K=4, D=2, delta=0.05)"
    assert (e.value.max_size, e.value.max_depth, e.value.delta) == (4, 2, 0.05)


def test_learn_results_are_sound_and_small():
    cases = [
        (reach_sample(), LearnConfig(max_size=2, max_depth=1)),
        (safety_sample(), LearnConfig(max_size=4, max_depth=2)),
        (until_sample(), LearnConfig(max_size=4, max_depth=2)),
        (gridworld_sample(), LearnConfig(max_size=3, max_depth=2)),
    ]
    for sample, cfg in cases:
        result = learn(sample, cfg)
        assert result.size <= cfg.max_size
        for f in result.formulas:
            assert check_consistency(f, sample)


def test_learn_stats_balance_at_every_size():
    for sample, cfg in [
        (reach_sample(), LearnConfig(max_size=2, max_depth=1)),
        (until_sample(), LearnConfig(max_size=4, max_depth=2)),
        (conjunction_sample(), LearnConfig(max_size=5, max_depth=2)),
    ]:
        s = learn(sample, cfg).stats
        for n in s.constructed:
            assert s.constructed[n] == (
                s.pruned_temporal.get(n, 0)
                + s.pruned_boolean.get(n, 0)
                + s.checked.get(n, 0)
            ), n
        assert s.engine_calls == s.total("checked") * (
            len(sample.positive) + len(sample.negative)
        )
        assert set(s.phase_seconds) <= {"gbe", "pts", "bsc"}


def _result_fingerprint(result):
    return (
        [print_pltl(f) for f in result.formulas],
        result.margins,
        result.size,
        result.stats.constructed,
        result.stats.pruned_temporal,
        result.stats.pruned_boolean,
        result.stats.checked,
        result.stats.discarded,
        result.stats.pooled,
        result.stats.combos_tried,
        result.stats.engine_calls,
    )


def test_learn_is_deterministic():
    cfg = LearnConfig(max_size=4, max_depth=2)
    a = learn(until_sample(), cfg)
    b = learn(until_sample(), cfg)
    assert _result_fingerprint(a) == _result_fingerprint(b)


# ---------------------------------------------------------------------------
# Discard safety: wrapping a discarded body cannot rescue it


def test_discards_stay_degenerate_under_wrapping():
    sample = until_sample()
    state = gbe_init(sample.ap, max_depth=2)
    gbe_step(state, 2)
    res = pts(size_bucket(state, 2), sample, 0.05)
    assert res.discards
    lit = Lit(sample.ap[0])
    for d in res.discards:
        never_pos = all(
            all(x == 0.0 for x in check_ltl(m, d).values) for m in sample.positive
        )
        if never_pos:
            wrappers = [Next(d), Finally(d), Globally(d), Until(lit, d), And(lit, d)]
            for w in wrappers:
                for m in sample.positive:
                    assert all(x == 0.0 for x in check_ltl(m, w).values), print_ltl(w)
        else:
            wrappers = [Next(d), Finally(d), Globally(d), Until(lit, d), Or(lit, d)]
            for w in wrappers:
                for m in sample.negative:
                    assert all(x == 1.0 for x in check_ltl(m, w).values), print_ltl(w)


# ---------------------------------------------------------------------------
# Threshold-formula semantics


def pltl_holds(m, f):
    """Whether chain m alone satisfies f: each atom's value at m's initial
    state is compared with its threshold, and the truths folded with &
    and |."""
    if isinstance(f, PltlAtom):
        return check_ltl(m, f.body).init > f.threshold
    left, right = pltl_holds(m, f.left), pltl_holds(m, f.right)
    return left and right if isinstance(f, PltlAnd) else left or right


def test_pltl_holds_is_strict():
    m = reach_chain(0.3)
    assert not pltl_holds(m, PltlAtom(0.3, parse_ltl("F(a)")))
    assert pltl_holds(m, PltlAtom(0.25, parse_ltl("F(a)")))
    assert not pltl_holds(m, PltlAtom(0.35, parse_ltl("F(a)")))


def test_pltl_holds_combinations():
    m = reach_chain(0.3)
    lo = PltlAtom(0.25, parse_ltl("F(a)"))
    hi = PltlAtom(0.9, parse_ltl("F(a)"))
    assert pltl_holds(m, PltlOr(hi, lo))
    assert not pltl_holds(m, PltlAnd(hi, lo))
    assert pltl_holds(m, PltlAnd(lo, lo))


def _atoms(f) -> int:
    return 1 if isinstance(f, PltlAtom) else _atoms(f.left) + _atoms(f.right)


def test_check_consistency_checks_each_atom_once_on_the_union(monkeypatch):
    import pltl_learn.learner as learner

    calls = []

    def counting(m, f, refinement_log=None):
        calls.append(m)
        return check_ltl(m, f, refinement_log)

    monkeypatch.setattr(learner, "check_ltl", counting)
    rng = random.Random(83)
    bodies = [parse_ltl(t) for t in ("F(a)", "G(b)", "(a U b)", "X(a)", "a", "(b | X(a))")]
    verdicts = []
    for _ in range(30):
        ms = [chains.random_chain(rng, max_states=6) for _ in range(3)]
        x, y, z = (PltlAtom(rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng.choice(bodies)) for _ in range(3))
        for f in (x, PltlAnd(x, y), PltlOr(x, y), PltlAnd(PltlOr(x, y), z), PltlOr(PltlAnd(x, x), z)):
            holds = [pltl_holds(m, f) for m in ms]
            sides = [
                ([ms[0], ms[1], ms[0]], [ms[2], ms[2]]),
                ([m for m, h in zip(ms, holds) if h] * 2, [m for m, h in zip(ms, holds) if not h] * 2),
            ]
            for pos, neg in sides:
                if not (pos and neg):
                    continue
                sample = Sample.build(pos, neg)
                want = all(pltl_holds(m, f) for m in sample.positive) and not any(
                    pltl_holds(m, f) for m in sample.negative
                )
                calls.clear()
                assert check_consistency(f, sample) is want
                assert len(calls) == _atoms(f) and all(m is sample.union for m in calls)
                verdicts.append(want)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_learn_builds_one_union_per_sample(monkeypatch):
    import pltl_learn.dtmc as dtmc

    built = []
    original = dtmc.disjoint_union
    monkeypatch.setattr(dtmc, "disjoint_union", lambda ms: built.append(1) or original(ms))
    sample = until_sample()
    result = learn(sample, LearnConfig(max_size=3))
    # Sizes 1 to 3 are scanned and the result re-verified on one union.
    assert result.size == 3 and result.stats.sizes() == [1, 2, 3]
    assert len(set(sample.offsets)) > 1
    assert built == [1]
    learn(sample, LearnConfig(max_size=3))
    assert built == [1]


def test_check_consistency_direction():
    sample = Sample.build([reach_chain(1.0)], [reach_chain(0.3)])
    good = PltlAtom(0.65, parse_ltl("F(a)"))
    inverted = PltlAtom(0.1, parse_ltl("F(a)"))
    assert check_consistency(good, sample)
    assert not check_consistency(inverted, sample)
