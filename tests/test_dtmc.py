import random

import numpy as np
import pytest

from chains import bsccs, dense_matrix, random_chain
from pltl_learn.benchgen import (
    gridworld_mdp,
    gridworld_strategy,
    reach_chain,
    safety_chain,
    until_chain,
)
from pltl_learn.dtmc import (
    Dtmc,
    DtmcError,
    Mdp,
    Sample,
    dtmc_to_json,
    disjoint_union,
    dtmc_to_prism,
    induced_dtmc,
    parse_json_dtmc,
    parse_prism_explicit,
    project,
    validate,
)
from pltl_learn.engine import check_ltl
from pltl_learn.ltl import parse_ltl


def _chain(**kw) -> Dtmc:
    base = dict(
        n_states=2,
        init=0,
        ap=("a",),
        labels=(frozenset(), frozenset({"a"})),
        transitions=((0, 1, 1.0), (1, 1, 1.0)),
    )
    base.update(kw)
    return Dtmc(**base)


def _raw(**kw) -> Dtmc:
    """Build without construction-time validation, for exercising validate()."""
    m = object.__new__(Dtmc)
    for key, val in kw.items():
        object.__setattr__(m, key, val)
    return m


# ---------------------------------------------------------------------------
# Construction and validation


def test_valid_chain_constructs():
    m = _chain()
    assert validate(m) == []


def test_row_must_sum_to_one():
    with pytest.raises(DtmcError, match="row sums"):
        _chain(transitions=((0, 1, 0.9), (1, 1, 1.0)))


def test_row_tolerance_boundary():
    # 1e-7 off is rejected, 5e-10 is accepted
    with pytest.raises(DtmcError):
        _chain(transitions=((0, 1, 1.0000001), (1, 1, 1.0)))
    _chain(transitions=((0, 0, 1.0 + 5e-10), (1, 1, 1.0)))


def test_duplicate_edge_rejected():
    with pytest.raises(DtmcError, match="duplicate transition"):
        _chain(transitions=((0, 1, 0.5), (0, 1, 0.5), (1, 1, 1.0)))


def test_transition_out_of_range():
    with pytest.raises(DtmcError, match="out of range"):
        _chain(transitions=((0, 5, 1.0), (1, 1, 1.0)))


def test_non_positive_probability():
    with pytest.raises(DtmcError, match="non-positive"):
        _chain(transitions=((0, 1, 1.0), (0, 0, 0.0), (1, 1, 1.0)))
    with pytest.raises(DtmcError, match="non-positive"):
        _chain(transitions=((0, 1, 1.2), (0, 0, -0.2), (1, 1, 1.0)))


def test_unknown_label_rejected():
    with pytest.raises(DtmcError, match="unknown"):
        _chain(labels=(frozenset({"z"}), frozenset({"a"})))


def test_init_out_of_range():
    with pytest.raises(DtmcError, match="initial state"):
        _chain(init=2)


def test_state_count_positive():
    errs = validate(_raw(n_states=0, init=0, ap=(), labels=(), transitions=()))
    assert errs == ["state count must be positive, got 0"]


def test_duplicate_proposition():
    with pytest.raises(DtmcError, match="duplicate proposition"):
        _chain(ap=("a", "a"))


def test_label_count_mismatch():
    with pytest.raises(DtmcError, match="label sets"):
        _chain(labels=(frozenset(),))


def test_validate_collects_everything():
    m = _raw(
        n_states=2,
        init=7,
        ap=("a",),
        labels=(frozenset({"bogus"}), frozenset()),
        transitions=((0, 1, 0.5), (0, 1, 0.25), (1, 1, 1.0)),
    )
    errs = validate(m)
    assert len(errs) == 4
    assert any("initial state 7" in e for e in errs)
    assert any("unknown" in e for e in errs)
    assert any("duplicate transition" in e for e in errs)
    assert any("row sums" in e for e in errs)


def test_rows_and_matrix():
    m = _chain(transitions=((0, 1, 0.25), (0, 0, 0.75), (1, 1, 1.0)))
    assert m.rows[0] == ((1, 0.25), (0, 0.75))
    assert m.rows[1] == ((1, 1.0),)
    assert np.allclose(dense_matrix(m).sum(axis=1), 1.0)
    assert dense_matrix(m)[0, 1] == 0.25


# ---------------------------------------------------------------------------
# JSON format


def test_json_roundtrip():
    for m in (reach_chain(0.3), safety_chain(0.0625), until_chain(0.875)):
        assert parse_json_dtmc(dtmc_to_json(m)) == m


def test_json_labels_as_list():
    text = """
    {"states": 2, "init": 0, "ap": ["a"],
     "labels": [[], ["a"]],
     "transitions": [[0, 1, 1.0], [1, 1, 1.0]]}
    """
    assert parse_json_dtmc(text) == _chain()


def test_json_labels_as_dict():
    text = """
    {"states": 2, "init": 0, "ap": ["a"],
     "labels": {"1": ["a"]},
     "transitions": [[0, 1, 1.0], [1, 1, 1.0]]}
    """
    assert parse_json_dtmc(text) == _chain()


def test_json_missing_key():
    with pytest.raises(DtmcError, match="missing key 'transitions'"):
        parse_json_dtmc('{"states": 1, "init": 0, "ap": [], "labels": {}}')


def test_json_bad_document():
    with pytest.raises(DtmcError, match="bad JSON"):
        parse_json_dtmc("{nope")


def test_json_integer_past_digit_limit():
    # json.loads raises a plain ValueError on these, not a JSONDecodeError.
    huge = "1" * 5000
    for text in (
        f'{{"states": {huge}, "init": 0, "ap": [], "labels": {{}}, "transitions": [[0, 0, 1.0]]}}',
        f'{{"states": 1, "init": 0, "ap": [], "labels": {{}}, "transitions": [[0, 0, {huge}]]}}',
    ):
        with pytest.raises(DtmcError, match="bad JSON: Exceeds the limit"):
            parse_json_dtmc(text)


def test_json_bad_label_key():
    text = """
    {"states": 2, "init": 0, "ap": ["a"], "labels": {"one": ["a"]},
     "transitions": [[0, 1, 1.0], [1, 1, 1.0]]}
    """
    with pytest.raises(DtmcError, match="not a state index"):
        parse_json_dtmc(text)


def test_json_label_out_of_range():
    text = """
    {"states": 2, "init": 0, "ap": ["a"], "labels": {"5": ["a"]},
     "transitions": [[0, 1, 1.0], [1, 1, 1.0]]}
    """
    with pytest.raises(DtmcError, match="out-of-range"):
        parse_json_dtmc(text)


def test_json_bad_transition_row():
    text = """
    {"states": 1, "init": 0, "ap": [], "labels": {},
     "transitions": [[0, 0]]}
    """
    with pytest.raises(DtmcError, match="not \\[src, dst, prob\\]"):
        parse_json_dtmc(text)


def test_json_states_must_be_int():
    text = '{"states": "2", "init": 0, "ap": [], "labels": {}, "transitions": []}'
    with pytest.raises(DtmcError, match="states must be an integer"):
        parse_json_dtmc(text)


def test_json_states_must_not_be_bool():
    text = '{"states": true, "init": 0, "ap": [], "labels": {}, "transitions": [[0, 0, 1.0]]}'
    with pytest.raises(DtmcError, match="states must be an integer, got bool"):
        parse_json_dtmc(text)


def test_json_nan_probability_rejected():
    # Python's json reads the bare NaN token as a float; a string is no number.
    text = '{"states": 1, "init": 0, "ap": [], "labels": {}, "transitions": [[0, 0, NaN]]}'
    with pytest.raises(DtmcError, match="non-positive probability nan"):
        parse_json_dtmc(text)
    with pytest.raises(DtmcError, match="not \\[src, dst, prob\\]"):
        parse_json_dtmc(text.replace("NaN", '"nan"'))


def test_json_output_skips_empty_label_sets():
    doc = dtmc_to_json(_chain())
    assert '"0"' not in doc.split('"transitions"')[0]


# ---------------------------------------------------------------------------
# PRISM explicit format


TINY_TRA = "2 2\n0 1 1.0\n1 1 1.0\n"
TINY_LAB = '0="init" 1="a"\n0: 0\n1: 1\n'


def test_prism_two_state_example():
    m = parse_prism_explicit(TINY_TRA, TINY_LAB)
    assert m == _chain()


def _named(name: str) -> Dtmc:
    return _chain(ap=(name,), labels=(frozenset(), frozenset({name})))


def test_prism_roundtrip():
    odd = [_named(name) for name in ('b"c', "b=c", "init2", "Deadlock")]
    for m in (reach_chain(0.3), safety_chain(0.0625), until_chain(0.875), *odd):
        tra, lab = dtmc_to_prism(m)
        assert parse_prism_explicit(tra, lab) == m


def test_prism_exact_probabilities():
    # repr round-trip keeps every bit of the float
    m = _chain(transitions=((0, 1, 1 / 3), (0, 0, 1 - 1 / 3), (1, 1, 1.0)))
    tra, lab = dtmc_to_prism(m)
    back = parse_prism_explicit(tra, lab)
    assert back.transitions == m.transitions


def test_prism_deadlock_label_stripped():
    lab = '0="init" 1="a" 2="deadlock"\n0: 0\n1: 1 2\n'
    m = parse_prism_explicit(TINY_TRA, lab)
    assert m.ap == ("a",)
    assert m.labels[1] == frozenset({"a"})


def test_prism_bad_header():
    with pytest.raises(DtmcError, match="bad .tra header"):
        parse_prism_explicit("2\n0 1 1.0\n", TINY_LAB)
    with pytest.raises(DtmcError, match="bad .tra header"):
        parse_prism_explicit("two 2\n", TINY_LAB)
    with pytest.raises(DtmcError, match="empty .tra"):
        parse_prism_explicit("", TINY_LAB)


def test_prism_promise_mismatch():
    with pytest.raises(DtmcError, match="promises 3 transitions, found 2"):
        parse_prism_explicit("2 3\n0 1 1.0\n1 1 1.0\n", TINY_LAB)


def test_prism_bad_line():
    with pytest.raises(DtmcError, match="bad .tra line"):
        parse_prism_explicit("2 2\n0 1\n1 1 1.0\n", TINY_LAB)


def test_prism_init_must_be_unique():
    with pytest.raises(DtmcError, match="exactly one init state, found 0"):
        parse_prism_explicit(TINY_TRA, '0="init" 1="a"\n1: 1\n')
    with pytest.raises(DtmcError, match="exactly one init state, found 2"):
        parse_prism_explicit(TINY_TRA, '0="init" 1="a"\n0: 0\n1: 0 1\n')


def test_prism_undeclared_label_id():
    with pytest.raises(DtmcError, match="undeclared label id 9"):
        parse_prism_explicit(TINY_TRA, '0="init"\n0: 0\n1: 9\n')


def test_prism_bad_label_lines():
    with pytest.raises(DtmcError, match="bad .lab declaration"):
        parse_prism_explicit(TINY_TRA, 'init\n0: 0\n')
    with pytest.raises(DtmcError, match="bad .lab line"):
        parse_prism_explicit(TINY_TRA, '0="init"\n0 0\n')
    with pytest.raises(DtmcError, match="out-of-range"):
        parse_prism_explicit(TINY_TRA, '0="init"\n5: 0\n')
    with pytest.raises(DtmcError, match="empty .lab"):
        parse_prism_explicit(TINY_TRA, "")


# Each integer must be the plain ASCII decimal of its value, each
# probability a float in ASCII without "_", and each label id declared
# once.
_MALFORMED_PRISM = {
    "header-underscore": ("3 0_4\n", TINY_LAB, "bad .tra header '3 0_4'"),
    "tra-underscore": ("2 2\n0 0_2 0.5\n1 1 1.0\n", TINY_LAB, "bad .tra line '0 0_2 0.5'"),
    "tra-plus": ("2 2\n0 1 1.0\n+1 1 1.0\n", TINY_LAB, "bad .tra line '+1 1 1.0'"),
    "tra-fullwidth": ("2 2\n0 1 1.0\n\uff11 1 1.0\n", TINY_LAB, "bad .tra line '\uff11 1 1.0'"),
    "tra-prob-underscore": ("2 2\n0 1 0.2_5\n1 1 1.0\n", TINY_LAB, "bad .tra line '0 1 0.2_5'"),
    "tra-prob-fullwidth": ("2 2\n0 1 \uff11.0\n1 1 1.0\n", TINY_LAB, "bad .tra line '0 1 \uff11.0'"),
    "tra-prob-word": ("2 2\n0 1 one\n1 1 1.0\n", TINY_LAB, "bad .tra line '0 1 one'"),
    "lab-state-underscore": (TINY_TRA, '0="init" 1="a"\n0: 0\n0_1: 1\n', "bad .lab line '0_1: 1'"),
    "lab-id-plus": (TINY_TRA, '0="init" 1="a"\n0: 0\n1: +1\n', "bad .lab line '1: +1'"),
    "lab-state-word": (TINY_TRA, '0="init" 1="a"\n0: 0\nx: 1\n', "bad .lab line 'x: 1'"),
    "lab-declared-id": (
        TINY_TRA,
        '0="init" 0_1="a"\n0: 0\n',
        "bad .lab declaration '0_1=\"a\"' in '0=\"init\" 0_1=\"a\"'",
    ),
    "lab-id-twice": (
        TINY_TRA,
        '0="init" 1="a" 1="b"\n0: 0\n1: 1\n',
        "label id 1 declared twice in '0=\"init\" 1=\"a\" 1=\"b\"'",
    ),
}


@pytest.mark.parametrize("tra, lab, message", _MALFORMED_PRISM.values(), ids=_MALFORMED_PRISM)
def test_prism_rejects_loose_numbers_and_repeated_ids(tra, lab, message):
    with pytest.raises(DtmcError) as e:
        parse_prism_explicit(tra, lab)
    assert str(e.value) == message


@pytest.mark.parametrize("name", ["init", "deadlock", "b c", "b\tc", '"b', 'b"'])
def test_prism_roundtrip_refuses_names_the_reader_cannot_read_back(name):
    # The reader would take init as the initial state, drop deadlock,
    # split a declaration at whitespace and strip edge quotes.
    with pytest.raises(DtmcError, match="cannot be a PRISM label"):
        dtmc_to_prism(_named(name))


# ---------------------------------------------------------------------------
# Projection and samples


def test_project_drops_foreign_labels():
    m = _chain(
        ap=("a", "b"),
        labels=(frozenset({"b"}), frozenset({"a", "b"})),
    )
    p = project(m, ("a",))
    assert p.ap == ("a",)
    assert p.labels == (frozenset(), frozenset({"a"}))
    assert p.transitions == m.transitions


def _bold30() -> Dtmc:
    return induced_dtmc(gridworld_mdp(30, 30, 0.2), gridworld_strategy(30, 30, "bold"))


@pytest.mark.parametrize(
    "build",
    [
        _bold30,
        lambda: project(_bold30(), ("goal", "trap")),
        lambda: parse_prism_explicit(*dtmc_to_prism(_bold30())),
    ],
    ids=["induced", "project", "prism-roundtrip"],
)
def test_unlabelled_states_share_one_empty_set(build):
    # 898 of the 900 states are unlabelled; a new empty frozenset for
    # each would hold 216 bytes apiece.
    m = build()
    empty = {id(lab) for lab in m.labels if not lab}
    assert sum(not lab for lab in m.labels) == 898
    assert len(empty) == 1


# ---------------------------------------------------------------------------
# Disjoint unions


def test_disjoint_union_shifts_each_chain():
    left = _chain(init=1)
    right = _chain(
        n_states=3,
        labels=(frozenset({"a"}), frozenset(), frozenset()),
        transitions=((0, 2, 0.5), (0, 1, 0.5), (1, 1, 1.0), (2, 0, 1.0)),
    )
    u = disjoint_union([left, right, left])
    assert (u.n_states, u.init, u.ap) == (7, 1, ("a",))
    assert u.labels == left.labels + right.labels + left.labels
    assert u.transitions == (
        (0, 1, 1.0), (1, 1, 1.0),
        (2, 4, 0.5), (2, 3, 0.5), (3, 3, 1.0), (4, 2, 1.0),
        (5, 6, 1.0), (6, 6, 1.0),
    )


def test_disjoint_union_of_one_chain_is_that_chain():
    m = _chain()
    assert disjoint_union([m]) is m


def test_disjoint_union_needs_equal_alphabets():
    other = _chain(ap=("a", "b"))
    with pytest.raises(DtmcError, match="alphabets differ"):
        disjoint_union([_chain(), other])
    with pytest.raises(DtmcError, match="at least one chain"):
        disjoint_union([])


def test_sample_build_unions_alphabets():
    pos = _chain(ap=("a",), labels=(frozenset(), frozenset({"a"})))
    neg = _chain(ap=("b",), labels=(frozenset({"b"}), frozenset()))
    s = Sample.build([pos], [neg])
    assert s.ap == ("a", "b")
    assert all(m.ap == ("a", "b") for m in (*s.positive, *s.negative))
    assert s.negative[0].labels[0] == frozenset({"b"})


def test_sample_build_explicit_alphabet_projects():
    pos = _chain(ap=("a", "b"), labels=(frozenset({"b"}), frozenset({"a"})))
    s = Sample.build([pos], [pos], ap=["a"])
    assert s.ap == ("a",)
    assert s.positive[0].labels == (frozenset(), frozenset({"a"}))


@pytest.mark.parametrize("ap", ["ab", [1], [["a"]], {"a": 1}], ids=["str", "int", "list", "dict"])
def test_sample_build_rejects_an_alphabet_that_is_not_a_list_of_names(ap):
    with pytest.raises(DtmcError, match="ap must be a list of names"):
        Sample.build([_chain()], [_chain()], ap)


@pytest.mark.parametrize("name", ["a&b", "F", "X", "U", "x y", "", "1a", "!a", " a"])
def test_sample_build_rejects_a_name_a_formula_cannot_use(name):
    # A formula learned over such a name would print as text that parses
    # as another formula, or not at all.
    m = _chain(ap=(name,), labels=(frozenset(), frozenset({name})))
    message = f"proposition {name!r} is not a name a formula can use"
    with pytest.raises(DtmcError) as info:
        Sample.build([m], [m])
    assert str(info.value) == message
    with pytest.raises(DtmcError) as info:
        Sample.build([_chain()], [_chain()], ap=["a", name])
    assert str(info.value) == message


def test_sample_build_accepts_identifiers_and_projects_bad_names_away():
    m = _chain(ap=("a&b", "_x1", "goal", "é"), labels=(frozenset({"goal"}), frozenset({"a&b", "é"})))
    s = Sample.build([m], [m], ap=["_x1", "goal", "é"])
    assert s.ap == ("_x1", "goal", "é")
    assert s.positive[0].labels == (frozenset({"goal"}), frozenset({"é"}))


def test_sample_needs_both_sides():
    with pytest.raises(DtmcError, match="each side"):
        Sample.build([], [_chain()])
    with pytest.raises(DtmcError, match="each side"):
        Sample.build([_chain()], [])


def test_sample_union_keeps_each_content_once_and_offsets_locate_every_chain():
    rng = random.Random(5)
    a, b, c = (random_chain(rng, max_states=6) for _ in range(3))
    assert len({a, b, c}) == 3
    s = Sample.build([a, b, a], [b, c])
    na, nb = a.n_states, b.n_states
    assert s.union == disjoint_union([a, b, c])
    assert s.offsets == (0, na, 0, na, na + nb)


def test_sample_of_one_content_is_read_through_that_chain():
    m = random_chain(random.Random(6), max_states=6)
    s = Sample.build([m, m], [m])
    assert s.union == m
    assert s.union is s.positive[0]
    assert s.offsets == (0, 0, 0)


def test_each_chain_takes_the_union_values_at_its_offset_bit_for_bit():
    bodies = [
        parse_ltl(t)
        for t in ("a", "X(b)", "F(a)", "G(!b)", "(a U b)", "(F(a) U X(!a))", "(G(a) | F(b))", "X(G(F(b)))")
    ]
    rng = random.Random(7)
    for _ in range(25):
        pool = [random_chain(rng, max_states=8) for _ in range(3)]
        pos = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        neg = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        s = Sample.build(pos, neg)
        for f in bodies:
            whole = check_ltl(s.union, f).values
            for at, m in zip(s.offsets, (*s.positive, *s.negative)):
                own = check_ltl(m, f).values
                assert whole[at : at + m.n_states].tobytes() == own.tobytes()


# ---------------------------------------------------------------------------
# MDPs


def _two_action_mdp() -> Mdp:
    return Mdp(
        n_states=3,
        init=0,
        ap=("a",),
        labels=(frozenset(), frozenset({"a"}), frozenset()),
        actions=(
            {
                "safe": ((1, 0.3), (2, 0.7)),
                "bold": ((1, 1.0),),
            },
            {"stay": ((1, 1.0),)},
            {"stay": ((2, 1.0),)},
        ),
    )


def test_induced_dtmc_resolves_choices():
    mdp = _two_action_mdp()
    m = induced_dtmc(mdp, {0: "safe", 1: "stay", 2: "stay"})
    assert m.transitions == ((0, 1, 0.3), (0, 2, 0.7), (1, 1, 1.0), (2, 2, 1.0))
    bold = induced_dtmc(mdp, {0: "bold", 1: "stay", 2: "stay"})
    assert bold.transitions[0] == (0, 1, 1.0)
    assert validate(m) == []


def test_induced_dtmc_merges_duplicate_targets():
    mdp = Mdp(
        n_states=2,
        init=0,
        ap=(),
        labels=(frozenset(), frozenset()),
        actions=(
            {"split": ((1, 0.5), (1, 0.25), (0, 0.25))},
            {"stay": ((1, 1.0),)},
        ),
    )
    m = induced_dtmc(mdp, {0: "split", 1: "stay"})
    assert m.transitions == ((0, 0, 0.25), (0, 1, 0.75), (1, 1, 1.0))


def test_induced_dtmc_strategy_errors():
    mdp = _two_action_mdp()
    with pytest.raises(DtmcError, match="unresolved"):
        induced_dtmc(mdp, {0: "safe", 1: "stay"})
    with pytest.raises(DtmcError, match="no action 'jump'"):
        induced_dtmc(mdp, {0: "jump", 1: "stay", 2: "stay"})


def test_mdp_validation():
    with pytest.raises(DtmcError, match="action maps"):
        Mdp(n_states=2, init=0, ap=(), labels=(frozenset(),) * 2, actions=({},))
    with pytest.raises(DtmcError, match="no actions"):
        Mdp(n_states=1, init=0, ap=(), labels=(frozenset(),), actions=({},))


# ---------------------------------------------------------------------------
# Bottom strongly connected components


def test_bsccs_two_absorbing():
    assert bsccs(reach_chain(0.3)) == [frozenset({1}), frozenset({2})]


def test_bsccs_cycle_with_entry():
    m = Dtmc(
        n_states=4,
        init=0,
        ap=(),
        labels=(frozenset(),) * 4,
        transitions=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)),
    )
    assert bsccs(m) == [frozenset({1, 2, 3})]


def test_bsccs_strongly_connected():
    m = Dtmc(
        n_states=2,
        init=0,
        ap=(),
        labels=(frozenset(),) * 2,
        transitions=((0, 1, 1.0), (1, 0, 1.0)),
    )
    assert bsccs(m) == [frozenset({0, 1})]


def _brute_bsccs(m: Dtmc) -> list[frozenset[int]]:
    n = m.n_states
    adj = dense_matrix(m) > 0
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    mutual = reach & reach.T
    comps = {frozenset(int(x) for x in np.nonzero(mutual[v])[0]) for v in range(n)}
    out = [
        comp
        for comp in comps
        if all(int(t) in comp for v in comp for t in np.nonzero(adj[v])[0])
    ]
    return sorted(out, key=min)


def test_bsccs_match_transitive_closure():
    rng = random.Random(23)
    for _ in range(150):
        m = random_chain(rng, max_states=12)
        assert bsccs(m) == _brute_bsccs(m)
