import random

import pytest
from hypothesis import given, strategies as st

from lasso import all_syntactic, checker
from pltl_learn.ltl import (
    And,
    Finally,
    Globally,
    Lit,
    LtlParseError,
    Next,
    Or,
    PltlAnd,
    PltlAtom,
    PltlOr,
    Until,
    boolean_simplify_applies,
    canonicalize,
    is_complement,
    join,
    nnf_dual,
    parse_ltl,
    print_ltl,
    print_pltl,
    temporal_simplify_applies,
)
from pltl_learn.learner import gbe_init, gbe_step


def random_formula(rng: random.Random, size: int, ap=("a", "b", "c")):
    if size <= 1:
        return Lit(rng.choice(ap), rng.random() < 0.5)
    if size == 2 or rng.random() < 0.5:
        cls = rng.choice((Next, Finally, Globally))
        return cls(random_formula(rng, size - 1, ap))
    k = rng.randint(1, size - 2)
    cls = rng.choice((And, Or, Until))
    return cls(random_formula(rng, k, ap), random_formula(rng, size - 1 - k, ap))


# ---------------------------------------------------------------------------
# Parsing


def test_parse_sequencing_example():
    assert parse_ltl("F(a & F(b))") == Finally(And(Lit("a"), Finally(Lit("b"))))


def test_parse_negation_becomes_dual():
    assert parse_ltl("!(F a)") == Globally(Lit("a", False))
    assert parse_ltl("!(G a)") == Finally(Lit("a", False))
    assert parse_ltl("!(X a)") == Next(Lit("a", False))
    assert parse_ltl("!(a & b)") == Or(Lit("a", False), Lit("b", False))
    assert parse_ltl("!(a | b)") == And(Lit("a", False), Lit("b", False))
    assert parse_ltl("!!a") == Lit("a")
    assert parse_ltl("!(!a | !(F b))") == And(Lit("a"), Finally(Lit("b")))


def test_parse_right_nested_until():
    f = parse_ltl("a U (b U a)")
    assert f == Until(Lit("a"), Until(Lit("b"), Lit("a")))
    assert _size_depth(f) == (5, 2)


def test_parse_negated_until_rejected():
    with pytest.raises(LtlParseError, match=r"\(a U b\)"):
        parse_ltl("!(a U b)")
    # also when the negation arrives via NNF pushing
    with pytest.raises(LtlParseError):
        parse_ltl("!(c | (a U b))")


def test_parse_names_the_negated_until():
    # Each ! is applied at once, so a second one cannot cancel it.
    for text in ("!(c | (a U b))", "!!(a U b)", "!(c & !(a U b))", "!X((a U b) | (b U c))"):
        with pytest.raises(LtlParseError, match=r"\(a U b\)"):
            parse_ltl(text)


def test_parse_chained_binary_needs_parens():
    for text in ("a & b & c", "(a | b | c)", "a U b U c", "(a & b | c)"):
        with pytest.raises(LtlParseError):
            parse_ltl(text)


def test_parse_error_positions():
    with pytest.raises(LtlParseError) as e:
        parse_ltl("a @ b")
    assert e.value.position == 2
    with pytest.raises(LtlParseError):
        parse_ltl("(a")
    with pytest.raises(LtlParseError):
        parse_ltl("F(")
    with pytest.raises(LtlParseError):
        parse_ltl("a b")
    with pytest.raises(LtlParseError):
        parse_ltl("")


def test_parse_identifiers():
    # reserved single letters are operators; longer words are plain names
    assert parse_ltl("Ua") == Lit("Ua")
    assert parse_ltl("x_1") == Lit("x_1")
    assert parse_ltl("F(goal)") == Finally(Lit("goal"))
    with pytest.raises(LtlParseError):
        parse_ltl("U")


def test_parse_whitespace_insignificant():
    assert parse_ltl(" F ( a &\tF( b ) ) ") == parse_ltl("F(a&F(b))")


def test_print_examples():
    assert print_ltl(Finally(Lit("a"))) == "F(a)"
    assert print_ltl(Until(Lit("a"), Lit("b"))) == "(a U b)"
    assert print_ltl(And(Globally(Lit("h", False)), Finally(Lit("a")))) == "(G(!h) & F(a))"
    assert print_ltl(parse_ltl("F(a & F(b))")) == "F(a & F(b))"


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(2000):
        f = random_formula(rng, rng.randint(1, 9))
        assert parse_ltl(print_ltl(f)) == f


def test_roundtrip_enumerated():
    state = gbe_init(("a", "b"), max_depth=2)
    for n in (2, 3, 4):
        gbe_step(state, n)
    for n in range(1, 5):
        for layer in state.buckets[n]:
            for f in layer:
                assert parse_ltl(print_ltl(f)) == f


# ---------------------------------------------------------------------------
# size / depth


def _size_depth(f):
    return f.size, f.depth


def test_measure_nested_eventually():
    assert _size_depth(parse_ltl("F(p & F(!q))")) == (5, 2)


def test_measure_base_case():
    assert _size_depth(Lit("p")) == (1, 0)
    assert _size_depth(Lit("p", False)) == (1, 0)


def test_measure_next_under_until():
    assert _size_depth(parse_ltl("(X p) U q")) == (4, 2)


def test_measure_boolean_depth_is_max():
    assert _size_depth(parse_ltl("(F(a) & G(b))")) == (5, 1)
    assert _size_depth(parse_ltl("(a | b)")) == (3, 0)


def _ref_measure(f):
    if isinstance(f, Lit):
        return 1, 0
    if isinstance(f, (Next, Finally, Globally)):
        s, d = _ref_measure(f.child)
        return s + 1, d + 1
    ls, ld = _ref_measure(f.left)
    rs, rd = _ref_measure(f.right)
    bump = 1 if isinstance(f, Until) else 0
    return ls + rs + 1, bump + max(ld, rd)


def test_measure_matches_reference_recursion():
    rng = random.Random(11)
    for _ in range(10_000):
        f = random_formula(rng, rng.randint(1, 12))
        assert _size_depth(f) == _ref_measure(f)


# ---------------------------------------------------------------------------
# Canonical form


def test_canonicalize_commutes():
    assert canonicalize(parse_ltl("(b | a)")) == canonicalize(parse_ltl("(a | b)"))


def test_canonicalize_flattens_associative_chains():
    variants = ["(a & (c & b))", "((a & b) & c)", "(c & (a & b))", "((b & c) & a)"]
    forms = {canonicalize(parse_ltl(v)) for v in variants}
    assert len(forms) == 1
    assert _size_depth(forms.pop()) == (5, 0)


def test_canonicalize_keeps_until_ordered():
    f = parse_ltl("(b U a)")
    assert canonicalize(f) == f


def test_canonicalize_idempotent():
    rng = random.Random(3)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(1, 8))
        c = canonicalize(f)
        assert canonicalize(c) == c
        assert c.size == f.size
        assert parse_ltl(print_ltl(c)) == c


def test_join_is_canonicalize_of_the_pair():
    rng = random.Random(29)
    both_chains = 0
    for _ in range(2000):
        cls = rng.choice((And, Or))
        # Chains of cls on either side, with operands that repeat.
        f, g = (
            canonicalize(
                random_formula(rng, rng.randint(1, 4), ("a", "b"))
                if rng.random() < 0.4
                else cls(
                    random_formula(rng, rng.randint(1, 3), ("a", "b")),
                    random_formula(rng, rng.randint(1, 3), ("a", "b")),
                )
            )
            for _ in range(2)
        )
        both_chains += isinstance(f, cls) and isinstance(g, cls)
        assert join(cls, f, g) == canonicalize(cls(f, g)), (print_ltl(f), print_ltl(g))
    assert both_chains > 500


def test_parsed_negation_is_nnf_dual():
    rng = random.Random(31)
    checked = 0
    while checked < 500:
        f = random_formula(rng, rng.randint(1, 8))
        if " U " in print_ltl(f):
            continue
        assert parse_ltl("!(" + print_ltl(f) + ")") == nnf_dual(f), print_ltl(f)
        checked += 1


# ---------------------------------------------------------------------------
# Complements and simplification predicates


def test_is_complement_literals():
    assert is_complement(Lit("p"), Lit("p", False))
    assert is_complement(Lit("p", False), Lit("p"))
    assert not is_complement(Lit("p"), Lit("q", False))


def test_is_complement_dual_pair():
    assert is_complement(parse_ltl("G(!h)"), parse_ltl("F(h)"))
    conj = canonicalize(parse_ltl("(F(a) & G(b))"))
    disj = canonicalize(parse_ltl("(G(!a) | F(!b))"))
    assert is_complement(conj, disj)
    assert is_complement(disj, conj)
    assert not is_complement(parse_ltl("F(a)"), parse_ltl("G(a)"))


def test_is_complement_orders_the_dual():
    # The dual keeps f's operand order, which is not always canonical.
    rng = random.Random(37)
    reordered = 0
    for _ in range(500):
        f = canonicalize(random_formula(rng, rng.randint(1, 8)))
        d = nnf_dual(f)
        if d is None:
            continue
        assert is_complement(f, canonicalize(d)), print_ltl(f)
        reordered += d != canonicalize(d)
    assert reordered > 20


def test_is_complement_until_has_no_dual():
    u = parse_ltl("(a U b)")
    assert nnf_dual(u) is None
    for other in ("(a U b)", "(!a U !b)", "G(!b)", "a"):
        assert not is_complement(u, parse_ltl(other))
    assert nnf_dual(parse_ltl("F(a U b)")) is None


def test_temporal_rules():
    applies = [
        "F(F(p))",          # R1
        "G(G(p))",          # R2
        "F(X(p))",          # R3: XF is the retained form
        "G(X(p))",          # R4
        "F(G(F(p)))",       # R5
        "G(F(G(p)))",       # R6
        "(F(p) | F(q))",    # R7
        "(G(p) & G(q))",    # R8
        "(X(p) & X(q))",    # R9
        "(X(p) | X(q))",
        "(X(p) U X(q))",
        "(p U (p U q))",    # R10
        "((p U q) U q)",
    ]
    retained = [
        "X(F(p))",
        "X(G(p))",
        "F(G(p))",
        "G(F(p))",
        "F(p & F(q))",
        "(F(p) & F(q))",
        "(G(p) | G(q))",
        "(p U q)",
        "(p U (q U p))",
        "((p U q) U p)",
        "X(X(p))",
        "(p & X(q))",
    ]
    for text in applies:
        assert temporal_simplify_applies(parse_ltl(text)), text
    for text in retained:
        assert not temporal_simplify_applies(parse_ltl(text)), text


def test_boolean_simplify_cases():
    p, q = Lit("p"), Lit("q")
    assert boolean_simplify_applies(p, p)
    assert boolean_simplify_applies(p, Lit("p", False))
    assert not boolean_simplify_applies(parse_ltl("F(a)"), parse_ltl("G(b)"))
    # equality is up to canonical reordering
    assert boolean_simplify_applies(
        canonicalize(parse_ltl("(p & q)")), canonicalize(parse_ltl("(q & p)"))
    )
    assert boolean_simplify_applies(parse_ltl("F(a)"), parse_ltl("G(!a)"))
    assert not boolean_simplify_applies(p, q)


def test_structural_hash_discriminates():
    assert parse_ltl("(a U b)").hash64 != parse_ltl("(b U a)").hash64
    assert Lit("p").hash64 != Lit("p", False).hash64
    assert parse_ltl("F(a & F(b))").hash64 == Finally(And(Lit("a"), Finally(Lit("b")))).hash64


# ---------------------------------------------------------------------------
# Bounded-lasso soundness of the pruning rules

# Retained formulas at sizes <= 4 that are semantically equal on every
# lasso word |u|+|v| <= 8 while structurally distinct.  Each group is a
# known equivalence the syntactic rule set deliberately does not chase:
# absorption (p & F(p) = p), until collapses with F/G operands
# ((F(p) U p) = F(p)), prefix independence (X(G(F(p))) = G(F(p))), and
# two constant groups.  The pruner may keep duplicates; it must never
# drop a non-duplicate, which is what this list pins down.
RULE_GAP_GROUPS = {
    frozenset({"!p", "(!p & F(!p))", "(!p | G(!p))", "(G(!p) U !p)", "(G(p) U !p)", "(X(p) U !p)"}),
    frozenset({"(!p & G(!p))", "(!p U G(!p))", "G(!p)"}),
    frozenset({"(!p & G(p))", "(G(!p) & p)"}),
    frozenset({"(!p U F(!p))", "(!p | F(!p))", "(F(!p) U !p)", "(F(p) U !p)", "(p U F(!p))", "F(!p)"}),
    frozenset({"(!p U F(p))", "(F(!p) U p)", "(F(p) U p)", "(p U F(p))", "(p | F(p))", "F(p)"}),
    frozenset({"(!p | F(p))", "(p | F(!p))"}),
    frozenset({"(!p | X(!p))", "(X(!p) U !p)"}),
    frozenset({"(G(!p) U p)", "(G(p) U p)", "(G(p) | p)", "(X(!p) U p)", "(p & F(p))", "p"}),
    frozenset({"(G(p) & p)", "(p U G(p))", "G(p)"}),
    frozenset({"(X(p) U p)", "(p | X(p))"}),
    frozenset({"F(G(!p))", "X(F(G(!p)))"}),
    frozenset({"F(G(p))", "X(F(G(p)))"}),
    frozenset({"G(F(!p))", "X(G(F(!p)))"}),
    frozenset({"G(F(p))", "X(G(F(p)))"}),
}


def _retained_buckets(max_size: int, max_depth: int):
    state = gbe_init(("p",), max_depth)
    for n in range(2, max_size + 1):
        gbe_step(state, n)
    return {
        n: [f for layer in state.buckets[n] for f in layer]
        for n in range(1, max_size + 1)
    }


def test_pruning_soundness_lasso():
    """Everything the rules reject has a retained twin of equal-or-smaller
    size on all lasso words |u|+|v| <= 8; rejected constants are exempt
    because no minimal consistent formula can contain one."""
    ck = checker()
    flat = _retained_buckets(5, max_depth=4)
    best = {}
    for n, layer in flat.items():
        for f in layer:
            sig = ck.signature(f)
            if sig not in best or best[sig] > n:
                best[sig] = n

    rejected = []
    for n in range(2, 6):
        for child in flat[n - 1]:
            for op in (Next, Finally, Globally):
                c = canonicalize(op(child))
                if temporal_simplify_applies(c):
                    rejected.append(c)
        for k in range(1, n - 1):
            for left in flat[k]:
                for right in flat[n - 1 - k]:
                    for cls in (And, Or, Until):
                        c = canonicalize(cls(left, right))
                        if temporal_simplify_applies(c) or boolean_simplify_applies(
                            left, right
                        ):
                            rejected.append(c)

    assert len(rejected) == 100
    exempt = 0
    for c in rejected:
        if ck.is_constant(c):
            exempt += 1
            continue
        twin = best.get(ck.signature(c))
        assert twin is not None and twin <= c.size, print_ltl(c)
    assert exempt == 20


def test_disequivalence_rule_gap_list():
    """Retained formulas at sizes <= 4 collide on lasso-8 signatures only
    in the documented groups."""
    ck = checker()
    flat = _retained_buckets(4, max_depth=3)
    groups: dict[bytes, list] = {}
    for layer in flat.values():
        for f in layer:
            groups.setdefault(ck.signature(f), []).append(f)
    found = {
        frozenset(print_ltl(f) for f in fs)
        for fs in groups.values()
        if len(fs) > 1
    }
    assert found == RULE_GAP_GROUPS


def test_lasso_checker_agrees_with_simplification_rules():
    ck = checker()
    for a, b in [
        ("F(F(p))", "F(p)"),
        ("G(G(p))", "G(p)"),
        ("F(X(p))", "X(F(p))"),
        ("G(X(p))", "X(G(p))"),
        ("F(G(F(p)))", "G(F(p))"),
        ("G(F(G(p)))", "F(G(p))"),
        ("(F(p) | F(!p))", "(p | !p)"),
        ("(G(p) & G(!p))", "(p & !p)"),
        ("(X(p) U X(!p))", "X(p U !p)"),
        ("(p U (p U !p))", "(p U !p)"),
        ("((p U !p) U !p)", "(p U !p)"),
        ("(p U !p)", "F(!p)"),
    ]:
        assert ck.signature(parse_ltl(a)) == ck.signature(parse_ltl(b)), (a, b)


def test_lasso_checker_distinguishes():
    ck = checker()
    for a, b in [
        ("F(p)", "G(p)"),
        ("X(p)", "p"),
        ("G(F(p))", "F(G(p))"),
        ("(p U !p)", "(!p U p)"),
        ("F(p & F(!p))", "F(p)"),
    ]:
        assert ck.signature(parse_ltl(a)) != ck.signature(parse_ltl(b)), (a, b)


def test_all_syntactic_counts():
    by_size = all_syntactic(5)
    assert [len(by_size[n]) for n in (1, 2, 3, 4, 5)] == [2, 6, 30, 162, 954]


# ---------------------------------------------------------------------------
# Threshold formulas


def test_pltl_threshold_range():
    for bad in (0.0, 1.0, -0.25, 1.5):
        with pytest.raises(ValueError):
            PltlAtom(bad, Lit("a"))
    PltlAtom(1e-9, Lit("a"))
    PltlAtom(1 - 1e-9, Lit("a"))


def test_print_pltl_six_significant_digits():
    assert print_pltl(PltlAtom(0.65, parse_ltl("F(a)"))) == "P>0.65 [F(a)]"
    assert print_pltl(PltlAtom(0.60595703125, parse_ltl("G(!h)"))) == "P>0.605957 [G(!h)]"
    combo = PltlAnd(
        PltlAtom(0.5, parse_ltl("F(a)")), PltlAtom(0.99, parse_ltl("F(b)"))
    )
    assert print_pltl(combo) == "(P>0.5 [F(a)] & P>0.99 [F(b)])"
    assert (
        print_pltl(PltlOr(combo, PltlAtom(0.125, parse_ltl("X(a)"))))
        == "((P>0.5 [F(a)] & P>0.99 [F(b)]) | P>0.125 [X(a)])"
    )


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_pltl_atom_accepts_open_interval(r):
    PltlAtom(r, Lit("a"))
