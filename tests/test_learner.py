import hashlib
import math
import random

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
from pltl_learn.dtmc import Dtmc, Sample
from pltl_learn.engine import LinearSolveError, check_ltl, temporal_subformulas
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
    pltl_holds,
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


def _buckets(ap, max_depth, max_size):
    state = gbe_init(ap, max_depth)
    for n in range(2, max_size + 1):
        gbe_step(state, n)
    return state.buckets


def test_enumerated_buckets_are_pinned():
    # Every member, in bucket order, of two enumerations; the digest was
    # taken before candidates were built canonical by construction.
    h = hashlib.sha256()
    for ap, max_depth, max_size in ((("a", "b", "c"), 2, 5), (("p",), 4, 6)):
        buckets = _buckets(ap, max_depth, max_size)
        for n in range(1, max_size + 1):
            for d, layer in enumerate(buckets[n]):
                for f in layer:
                    h.update(f"{n} {d} {print_ltl(f)}\n".encode())
    assert h.hexdigest() == "72523e297d9b8a6c831c568b2358ad8ea255ba0e7c9fce103a6521516ae53b75"


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
    assert res.discards == () and res.kept == ()
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
    assert wide.kept == ((parse_ltl("F(a)"), (0.52,), (0.49,)),)
    tight = pts([parse_ltl("F(a)")], sample, 0.01)
    assert tight.found
    assert tight.winners[0][0].threshold == (0.52 + 0.49) / 2


def test_pts_discards_never_positive_bodies():
    blank = _mk(1, 0, [()], [(0, 0, 1.0)])
    sample = Sample.build([blank], [reach_chain(0.3)])
    res = pts([parse_ltl("F(a)")], sample, 0.05)
    assert res.discards == (parse_ltl("F(a)"),)
    assert res.kept == ()


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
    assert res.kept[0][1] == (0.0,)


def test_pts_scan_of_until_family_size_two():
    sample = until_sample()
    state = gbe_init(sample.ap, max_depth=2)
    gbe_step(state, 2)
    res = pts(size_bucket(state, 2), sample, 0.05)
    assert not res.found
    assert {print_ltl(f) for f in res.discards} == {"F(!a)", "F(!b)", "G(a)", "G(b)"}
    assert len(res.kept) == 8
    # the pool filter keeps only bodies informative at the root
    scored = {
        print_ltl(f): (pos, neg)
        for f, pos, neg in res.kept
        if not (all(v == 0.0 for v in pos) or all(v == 1.0 for v in neg))
    }
    assert scored == {
        "F(b)": ((0.9375, 0.9375), (0.9375, 0.9375)),
        "G(!b)": ((0.0625, 0.0625), (0.0625, 0.0625)),
    }


def test_pts_engine_failure_names_the_chain(monkeypatch):
    def boom(m, f, refinement_log=None):
        raise LinearSolveError("forced")

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
    consistent, discards, kept = [], [], []
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
        else:
            kept.append((f, pos, neg))
    if consistent:
        top = max(m for _, m in consistent)
        winners = tuple((a, m) for a, m in consistent if m == top)
        return PtsResult(True, winners, tuple(consistent), (), ())
    return PtsResult(False, (), (), tuple(discards), tuple(kept))


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
        if (m == b and f == bodies[1]) or (m == a and f == bodies[2]):
            raise LinearSolveError("forced")
        return check_ltl(m, f, refinement_log)

    monkeypatch.setattr("pltl_learn.learner.check_ltl", failing)
    sample = Sample.build([a, b], [RETRY])
    assert sample.positive[1] == sample.negative[0]
    with pytest.raises(EngineFailure, match="positive chain 1") as info:
        pts(bodies, sample, 0.05)
    assert info.value.formula == bodies[1]
    assert (info.value.role, info.value.index) == ("positive", 1)


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


def test_make_scored_sigma_and_bits():
    s = make_scored(parse_ltl("F(a)"), (0.9, 0.8), (0.4,))
    assert s.count == 3
    assert s.size == 2
    assert abs(s.sigma - 3.0 / (1.0 + math.sqrt(2.0))) <= 1e-12
    assert s.pos_bits == (True, True)
    assert s.neg_bits == (False,)
    assert s.atom.body == parse_ltl("F(a)")


# ---------------------------------------------------------------------------
# Boolean combinations

_TINY_SAMPLE = Sample.build([RETRY], [reach_chain(0.3)])


def _cand(text, count, pos_bits, neg_bits, threshold=0.5):
    body = parse_ltl(text)
    return ScoredCandidate(
        atom=PltlAtom(threshold, body),
        size=body.size,
        count=count,
        sigma=count / (1.0 + math.sqrt(body.size)),
        pos_bits=pos_bits,
        neg_bits=neg_bits,
    )


def _fresh_run(budget, bool_limit=10):
    cfg = LearnConfig(max_size=budget, max_depth=2, bool_limit=bool_limit)
    return _Run(
        sample=_TINY_SAMPLE, config=cfg, stats=RunStats(), budget=budget
    )


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


def test_check_consistency_direction():
    sample = Sample.build([reach_chain(1.0)], [reach_chain(0.3)])
    good = PltlAtom(0.65, parse_ltl("F(a)"))
    inverted = PltlAtom(0.1, parse_ltl("F(a)"))
    assert check_consistency(good, sample)
    assert not check_consistency(inverted, sample)
