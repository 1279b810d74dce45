import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chains
import exact
from chains import fg_oracle, gf_oracle, next_prob, until_prob
from pltl_learn import cli, engine, learner
from pltl_learn.benchgen import gridworld_mdp, gridworld_strategy, induced_dtmc
from pltl_learn.dtmc import Dtmc, Sample, disjoint_union, parse_json_dtmc
from pltl_learn.engine import (
    LinearSolveError,
    ProbVector,
    RefinementLog,
    SingularSystemError,
    check_each,
    check_ltl,
    initial_refinement,
    refine,
    solve_linear,
    temporal_subformulas,
)
from pltl_learn.learner import gbe_init, gbe_step, size_bucket
from pltl_learn.ltl import And, Finally, Lit, LtlFormula, Next, Or, parse_ltl, print_ltl


def _mk(n, init, labels, edges, ap=("a", "b")):
    return Dtmc(
        n_states=n,
        init=init,
        ap=ap,
        labels=tuple(frozenset(l) for l in labels),
        transitions=tuple(edges),
    )


# The five worked examples: a branch into two absorbing fates, a retrying
# loop, a guarded handoff, a coin flip between recurrent fates, and a
# two-step sequence.
C1 = _mk(3, 0, [(), ("a",), ()], [(0, 1, 0.3), (0, 2, 0.7), (1, 1, 1.0), (2, 2, 1.0)])
C2 = _mk(2, 0, [(), ("a",)], [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)])
C3 = _mk(3, 0, [("a",), ("b",), ()], [(0, 1, 0.4), (0, 2, 0.6), (1, 1, 1.0), (2, 2, 1.0)])
C4 = _mk(3, 0, [(), ("a",), ()], [(0, 1, 0.5), (0, 2, 0.5), (1, 1, 1.0), (2, 2, 1.0)])
C5 = _mk(
    4,
    0,
    [(), ("a",), (), ("b",)],
    [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 2, 1.0), (3, 3, 1.0)],
)


# ---------------------------------------------------------------------------
# Linear solver


def _rows(A):
    """A matrix as engine._system's rows: one {column: value} dict per
    row, holding every entry, zeros included."""
    return [dict(enumerate(row)) for row in np.asarray(A, dtype=float).tolist()]


def test_solve_identity():
    c = [0.25, -1.0, 3.0]
    assert solve_linear(_rows(np.eye(3)), c) == c


def test_solve_scalar():
    assert solve_linear(_rows([[0.5]]), [0.5])[0] == pytest.approx(1.0)


def test_solve_requires_pivoting():
    x = solve_linear(_rows([[0.0, 1.0], [1.0, 0.0]]), [2.0, 3.0])
    assert np.allclose(x, [3.0, 2.0])


def test_solve_singular():
    with pytest.raises(SingularSystemError):
        solve_linear(_rows(np.zeros((2, 2))), [0.0, 0.0])
    with pytest.raises(SingularSystemError):
        solve_linear(_rows([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])


# Every solver _until_vec picks from, each answer checked by _checked.
_SOLVERS = [solve_linear, engine._solve_small, engine._solve_sparse]


@pytest.mark.parametrize(
    "A, c",
    [([[np.nan]], [1.0]), ([[1.0, np.nan], [0.0, 1.0]], [1.0, 1.0]), ([[1.0]], [np.inf])],
    ids=["nan-pivot", "nan-entry", "inf-rhs"],
)
def test_solve_non_finite_solution_is_a_linear_solve_error(A, c):
    # A NaN residual compares False with any bound, whichever solver gave
    # the answer; the oracle checks it the same way.
    U = _rows(A)
    with np.errstate(invalid="ignore"):
        for solve in _SOLVERS:
            with pytest.raises(LinearSolveError, match="^residual nan too large$"):
                engine._checked(U, c, solve(U, c))
        with pytest.raises(LinearSolveError, match="residual"):
            chains.dense_solve(np.array(A), np.array(c))


def test_checked_raises_on_a_finite_residual_above_the_bound():
    # The bound for c = [0.5] is 1.5e-9; the exact answer is 1.0, and
    # these x leave residuals of 0, 2**-31 and 2**-27.
    U, c = [{0: 0.5}], [0.5]
    for x in ([1.0], [1.0 + 2.0**-30]):
        assert engine._checked(U, c, x) is x
    with pytest.raises(LinearSolveError, match=f"^residual {2.0**-27} too large$"):
        engine._checked(U, c, [1.0 + 2.0**-26])


def test_a_non_finite_sparse_solution_is_a_linear_solve_error(monkeypatch):
    # The sparse tier's answer is checked like the others: a NaN raises
    # instead of being clamped into [0, 1].
    m = chains.sink_chain(random.Random(37), 150)
    sizes = []

    def nan_sparse(U, c):
        sizes.append(len(c))
        return [float("nan")] * len(c)

    monkeypatch.setattr(engine, "_solve_sparse", nan_sparse)
    with pytest.raises(LinearSolveError, match="^residual nan too large$"):
        check_ltl(m, parse_ltl("G(F(a))"))
    assert sizes and min(sizes) >= engine._SCC_MIN


def test_solve_random_diagonally_dominant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        A = rng.uniform(-1.0, 1.0, size=(20, 20))
        A += np.diag(21.0 * np.sign(np.diag(A)) + np.diag(A))
        c = rng.uniform(-5.0, 5.0, size=20)
        assert np.allclose(solve_linear(_rows(A), c.tolist()), np.linalg.solve(A, c), atol=1e-9)


def test_singular_is_a_linear_solve_error():
    assert issubclass(SingularSystemError, LinearSolveError)


# ---------------------------------------------------------------------------
# Closed forms for whole components of one or two undecided states


def _outcome(solve, *args):
    """A solver's answer as bytes, or its error as (type, message)."""
    try:
        return np.asarray(solve(*args), dtype=float).tobytes()
    except LinearSolveError as err:
        return type(err), str(err)


def _small_outcomes(U, c):
    """engine._solve_small's outcome on (U, c), and solve_linear's."""
    return _outcome(engine._solve_small, U, c), _outcome(solve_linear, U, c)


@st.composite
def _small_systems(draw):
    """engine._system's (U, c) for a block of one or two states whose rows
    step among the block and two states valued in [0, 1] outside it."""
    n = draw(st.integers(1, 2))
    mass = st.floats(0.0, 1.0)
    out = [0.0] * n + [draw(mass), draw(mass)]
    rows = [list(draw(st.dictionaries(st.integers(0, n + 1), mass, max_size=4)).items()) for _ in range(n)]
    return engine._system(rows, list(range(n)), out)


@given(_small_systems())
def test_closed_form_equals_solve_linear_bit_for_bit(system):
    got, want = _small_outcomes(*system)
    assert got == want


# The rows of I - Q; each Q row sums to at most one.
_EDGE_SYSTEMS = {
    # |u10| > |u00|, so solve_linear exchanges the rows.
    "row-swap": ([{0: 0.3, 1: -0.1}, {0: -0.4, 1: 0.9}], [0.1, 0.4]),
    # |u10| == |u00|: no exchange, which here gives other bits than one.
    "pivot-tie": ([{0: 0.3, 1: -0.1}, {0: -0.3, 1: 0.75}], [0.1, 0.4]),
    "pivot-column-0-of-1": ([{0: 2.0**-41}], [2.0**-42]),
    "pivot-column-0-of-2": ([{0: 2.0**-41, 1: 0.0}, {0: -(2.0**-42), 1: 0.5}], [0.0, 0.5]),
    # Two states that swap, with a leak below the floor.
    "pivot-column-1": ([{0: 1.0, 1: -(1.0 - 2.0**-41)}, {0: -1.0, 1: 1.0}], [2.0**-41, 0.0]),
    "zero-rhs-of-1": ([{0: 0.5}], [0.0]),
    "zero-rhs-of-2": ([{0: 0.75, 1: -0.25}, {0: -0.5, 1: 1.0}], [0.0, 0.0]),
    # Rows that each leak 2**-34, with a right-hand side far from the
    # leaks: an ill-conditioned system whose solution is about 6.2e9.
    "residual": ([{0: 0.7, 1: -(0.7 - 2.0**-34)}, {0: -0.4, 1: 0.4 + 2.0**-34}], [1.0, 0.0]),
}


@pytest.mark.parametrize("name", _EDGE_SYSTEMS)
def test_closed_form_edge_cases_equal_solve_linear(name):
    got, want = _small_outcomes(*_EDGE_SYSTEMS[name])
    assert got == want
    if name.startswith("pivot-column"):
        assert want == (SingularSystemError, f"no usable pivot in column {name.split('-')[2]}")
    else:
        assert isinstance(want, bytes)
    if name.startswith("zero-rhs"):
        assert want == bytes(len(want))


def test_every_solver_answers_the_ill_conditioned_edge_system_alike():
    # The residual edge system's right-hand side, 1.0, is far above its
    # rows' leak, 2**-34.  Every solver gives the same bits, about 1.7e-7
    # from exact relative to the solution, and _checked accepts them, so
    # no solver's answer is judged by another rule.
    U, c = _EDGE_SYSTEMS["residual"]
    (x,) = {_outcome(solve, U, c) for solve in _SOLVERS}
    x = np.frombuffer(x).tolist()
    assert engine._checked(U, c, x) is x
    for v, w in zip(x, exact.solve(U, c)):
        assert abs(Fraction(v) - w) <= 2e-7 * w


def _sparse_system(rng, n):
    # I - Q for a substochastic Q with at most three successors per row,
    # the rest of each row's mass going to the target: the shape of the
    # systems _until_vec builds.
    A, c = np.eye(n), np.zeros(n)
    for i in range(n):
        k = int(rng.integers(1, min(3, n) + 1))
        mass = rng.uniform(0.05, 1.0, size=k + 1)
        mass /= mass.sum()
        for t, q in zip(rng.choice(n, size=k, replace=False), mass[:k]):
            A[i, t] -= q
        c[i] = mass[k]
    return A, c


def _grid_system(rng, w, h):
    # A w x h gridworld walk: each cell steps to its four neighbours or
    # stays; a step off the grid reaches the target.
    n = w * h
    A, c = np.eye(n), np.zeros(n)
    for y in range(h):
        for x in range(w):
            i = y * w + x
            mass = rng.uniform(0.1, 1.0, size=5)
            mass /= mass.sum()
            A[i, i] -= mass[4]
            for (dx, dy), q in zip(((1, 0), (-1, 0), (0, 1), (0, -1)), mass[:4]):
                if 0 <= x + dx < w and 0 <= y + dy < h:
                    A[i, i + dy * w + dx] -= q
                else:
                    c[i] += q
    return A, c


def _dense_system(rng, n):
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    A += np.diag((n + 1.0) * np.sign(np.diag(A)))
    return A, rng.uniform(-5.0, 5.0, size=n)


def test_solve_matches_dense_elimination_bit_for_bit():
    rng = np.random.default_rng(71)
    systems = [_sparse_system(rng, int(rng.integers(1, 80))) for _ in range(150)]
    systems += [_grid_system(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(40)]
    systems += [_dense_system(rng, int(rng.integers(1, 40))) for _ in range(60)]
    for A, c in systems:
        assert np.array_equal(solve_linear(_rows(A), c.tolist()), chains.dense_solve(A, c))


def test_solve_leaves_its_inputs_unchanged():
    A, rhs = _grid_system(np.random.default_rng(79), 4, 3)
    for solve in _SOLVERS:
        U, c = _EDGE_SYSTEMS["row-swap"] if solve is engine._solve_small else (_rows(A), rhs.tolist())
        U0, c0 = [dict(row) for row in U], list(c)
        solve(U, c)
        assert U == U0 and c == c0, solve.__name__


def test_solve_singular_names_the_dense_elimination_column():
    rng = np.random.default_rng(73)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        A, c = _sparse_system(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        A[j] = A[i]
        with pytest.raises(SingularSystemError) as want:
            chains.dense_solve(A, c)
        with pytest.raises(SingularSystemError, match=f"^{want.value}$"):
            solve_linear(_rows(A), c.tolist())


def test_every_solver_is_within_1e_9_of_an_exact_solve(monkeypatch):
    # The systems F and U rounds build on random chains: blocks of 1 to
    # 20 states, each solved exactly from the floats as _system wrote them.
    systems = _record_systems(monkeypatch)
    rng = random.Random(97)
    for _ in range(150):
        m = chains.random_chain(rng)
        for text in ("F(a)", "F(b)", "(a U b)", "(!b U a)"):
            check_ltl(m, parse_ltl(text))
    assert len(systems) > 200 and max(len(c) for _, c in systems) >= 10
    for U, c in systems:
        want = exact.solve(U, c)
        for solve in _SOLVERS if len(c) <= 2 else (solve_linear, engine._solve_sparse):
            x = engine._checked(U, c, solve(U, c))
            assert all(abs(Fraction(v) - w) <= 1e-9 for v, w in zip(x, want)), (solve.__name__, U, c)


# ---------------------------------------------------------------------------
# Worked examples, pinned


def test_branch_example_values():
    assert check_ltl(C1, parse_ltl("X(a)")).init == 0.3
    assert check_ltl(C1, parse_ltl("F(a)")).init == 0.3
    assert check_ltl(C1, parse_ltl("G(!a)")).init == 0.7


def test_retry_loop_values():
    assert check_ltl(C2, parse_ltl("X(a)")).init == 0.5
    assert check_ltl(C2, parse_ltl("F(a)")).init == 1.0
    assert check_ltl(C2, parse_ltl("X(X(a))")).init == 0.75


def test_handoff_until_value():
    assert check_ltl(C3, parse_ltl("(a U b)")).init == 0.4
    assert tuple(check_ltl(C3, parse_ltl("(a U b)")).values) == (0.4, 1.0, 0.0)


def test_coin_flip_recurrence_values():
    assert check_ltl(C4, parse_ltl("G(F(a))")).init == 0.5
    assert check_ltl(C4, parse_ltl("F(G(a))")).init == 0.5
    assert gf_oracle(C4, "a")[0] == 0.5
    assert fg_oracle(C4, "a")[0] == 0.5


def test_sequence_example_value():
    assert check_ltl(C5, parse_ltl("F(a & F(b))")).init == 0.5


def test_degenerate_values_are_exact():
    # graph passes pin impossible/almost-sure states to exact 0.0 / 1.0
    v = check_ltl(C2, parse_ltl("F(a)"))
    assert tuple(v.values) == (1.0, 1.0)
    assert tuple(check_ltl(C1, parse_ltl("F(b)")).values) == (0.0, 0.0, 0.0)
    assert tuple(check_ltl(C1, parse_ltl("(b U a)")).values) == (0.0, 1.0, 0.0)


# Chain 43 of the benchmark's exhaustive pool (bench/gen.py exhaustive_chain).
POOL_CHAIN_43 = parse_json_dtmc(
    "{"
    '"ap": ["a", "b", "c"], "init": 8, '
    '"labels": {"0": ["a", "c"], "10": ["b"], "11": ["b"], "2": ["c"], "5": ["a"], "6": ["b"], "9": ["a", "b"]}, '
    '"states": 12, "transitions": ['
    '[0, 10, 0.109375], [0, 11, 0.75], [0, 0, 0.140625], '
    '[1, 7, 0.34375], [1, 10, 0.1875], [1, 5, 0.46875], '
    '[2, 11, 0.140625], [2, 7, 0.71875], [2, 2, 0.140625], '
    '[3, 5, 1.0], [4, 9, 1.0], [5, 5, 0.6875], '
    '[5, 2, 0.3125], [6, 1, 0.3125], [6, 8, 0.1875], '
    '[6, 11, 0.5], [7, 5, 0.484375], [7, 6, 0.484375], '
    '[7, 0, 0.03125], [8, 9, 0.359375], [8, 1, 0.640625], '
    '[9, 10, 1.0], [10, 10, 1.0], [11, 2, 0.109375], '
    '[11, 9, 0.59375], [11, 4, 0.296875]'
    "]}"
)


@pytest.mark.xfail(
    strict=True,
    reason="the solve leaves 1 - 2**-53 at state 7, so the pts discard test == 1.0 misses",
)
def test_sure_until_is_exactly_one_on_pool_chain_43():
    # "some step >= 1 is !a": state 7 steps to the !a state 6, and every
    # other successor already has value 1, so state 7 has value exactly 1.
    v = check_ltl(POOL_CHAIN_43, parse_ltl("(F(a) U X(!a))"))
    assert tuple(v.values) == (1.0,) * 12


def test_exact_prophecy_values_on_the_worked_examples():
    # A mass such as C1's 0.3 is the exact rational of its float, not 3/10.
    cases = [
        (C1, "F(a)", [Fraction(0.3), 1, 0]),
        (C2, "X(X(a))", [Fraction(3, 4), 1]),
        (C3, "(a U b)", [Fraction(0.4), 1, 0]),
        (C4, "G(F(a))", [Fraction(1, 2), 1, 0]),
        (C4, "(F(G(a)) & X(a))", [Fraction(1, 2), 1, 0]),
        (C5, "F(a & F(b))", [Fraction(1, 2), 1, 0, 0]),
        (C5, "(G(!a) & X(X(b)))", [0, 0, 0, 1]),
    ]
    for m, text, want in cases:
        assert exact.check_each(m, [parse_ltl(text)]) == [want], text


@pytest.fixture(scope="module")
def pool_chain_43_exact():
    """(body, engine values, exact values) on POOL_CHAIN_43 for every body
    up to size 5 over a, b, c at D=2, the bodies of a K=5 search."""
    state = gbe_init(POOL_CHAIN_43.ap, max_depth=2)
    for n in range(2, 6):
        gbe_step(state, n)
    bodies = [f for n in range(1, 6) for f in size_bucket(state, n)]
    assert len(bodies) == 3352
    got = dict(check_each(POOL_CHAIN_43, bodies))
    want = exact.check_each(POOL_CHAIN_43, bodies)
    return [(f, got[j].values, want[j]) for j, f in enumerate(bodies)]


def test_every_value_on_pool_chain_43_is_within_1e_9_of_exact(pool_chain_43_exact):
    far = [
        (print_ltl(f), s, v)
        for f, got, want in pool_chain_43_exact
        for s, (v, w) in enumerate(zip(got, want))
        if not abs(Fraction(v) - w) <= 1e-9
    ]
    assert far == []


@pytest.mark.xfail(
    strict=True,
    reason="the solve leaves 1 - 2**-53 for (F(a) U X(!a)) at state 7, where the exact value is 1",
)
def test_every_exact_0_or_1_on_pool_chain_43_is_that_float(pool_chain_43_exact):
    off = [
        (print_ltl(f), s, v)
        for f, got, want in pool_chain_43_exact
        for s, (v, w) in enumerate(zip(got, want))
        if w in (0, 1) and v != w
    ]
    assert off == []


def test_pool_chain_43_search_counters_match_the_benchmark_reference(monkeypatch):
    # The same chain on both sides: no formula separates them, so learn
    # scores every body.  The counters are bench/ref/exhaustive.json's
    # sizes 1-4 for this chain; they pin the exact 0/1 discard and pool
    # rules of pts and learn.
    made = []
    run_stats = learner.RunStats

    def recording_stats():
        made.append(run_stats())
        return made[-1]

    monkeypatch.setattr(learner, "RunStats", recording_stats)
    sample = Sample.build([POOL_CHAIN_43], [POOL_CHAIN_43])
    with pytest.raises(learner.NoSolutionError):
        learner.learn(sample, learner.LearnConfig(max_size=4))
    (stats,) = made
    assert stats.checked == {1: 6, 2: 18, 3: 66, 4: 423}
    assert stats.discarded == {1: 0, 2: 6, 3: 9, 4: 57}
    assert stats.pooled == {1: 0, 2: 8, 3: 16, 4: 179}


def test_propositional_formulas_fold_to_indicators():
    v = check_ltl(C3, parse_ltl("(a | b)"))
    assert tuple(v.values) == (1.0, 1.0, 0.0)
    assert tuple(check_ltl(C3, parse_ltl("(a | !a)")).values) == (1.0, 1.0, 1.0)
    assert tuple(check_ltl(C3, parse_ltl("(a & !a)")).values) == (0.0, 0.0, 0.0)
    assert tuple(check_ltl(C1, parse_ltl("F(a | !a)")).values) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Direct probability passes


def test_until_with_no_target_states():
    assert until_prob(C1, "a", "b") == [0.0, 0.0, 0.0]


def test_gf_on_strongly_connected_chain():
    ring = _mk(3, 0, [(), ("a",), ()], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert gf_oracle(ring, "a") == [1.0, 1.0, 1.0]
    assert fg_oracle(ring, "a") == [0.0, 0.0, 0.0]


def test_limit_oracles_on_absent_proposition():
    assert gf_oracle(C2, "b") == [0.0, 0.0]
    assert fg_oracle(C2, "b") == [0.0, 0.0]


def test_next_accepts_callables():
    assert next_prob(C1, lambda s: True) == [1.0, 1.0, 1.0]
    assert next_prob(C1, lambda s: s == 1) == [0.3, 1.0, 0.0]


# ---------------------------------------------------------------------------
# Refinement structure


def test_refinement_of_sure_formula_is_isomorphic():
    log = RefinementLog(C2)
    check_ltl(C2, parse_ltl("F(a)"), refinement_log=log)
    ((psi, round0),) = log
    assert print_ltl(psi) == "F(a)"
    assert list(round0.origin) == [0, 1]
    assert list(round0.weights) == [1.0, 1.0]
    assert round0.rows == [[(0, 0.5), (1, 0.5)], [(1, 1.0)]]


def test_refinement_splits_branch_example():
    log = RefinementLog(C1)
    check_ltl(C1, parse_ltl("F(a)"), refinement_log=log)
    ((_, round0),) = log
    assert list(round0.origin) == [0, 0, 1, 2]
    assert list(round0.weights) == [0.3, 0.7, 1.0, 1.0]
    # the positive copy of the root commits to the a-branch, the negative
    # copy to the other one
    assert round0.rows[0] == [(2, 1.0)]
    assert round0.rows[1] == [(3, 1.0)]


def test_refinement_round_sequence_for_nested_formula():
    log = RefinementLog(C5)
    check_ltl(C5, parse_ltl("F(a & F(b))"), refinement_log=log)
    assert [print_ltl(psi) for psi, _ in log] == ["F(b)", "F(a & F(b))"]


def test_proposition_names_cannot_collide_with_resolved_subformulas():
    # Any string is a valid proposition name; resolving F(b) or X(b) must
    # leave a proposition that happens to be called "~q0" untouched.
    m = _mk(2, 0, [(), ("b",)], [(0, 1, 1.0), (1, 1, 1.0)], ap=("b", "~q0"))
    assert tuple(check_ltl(m, And(Finally(Lit("b")), Lit("~q0"))).values) == (0.0, 0.0)
    assert tuple(check_ltl(m, And(Next(Lit("b")), Lit("~q0", False))).values) == (1.0, 1.0)


def test_refine_husk_keeps_rows_stochastic():
    # A copy whose every successor branch drops gets a self-loop; this
    # simulates solver dust producing a kept copy of conditional measure
    # zero.
    m = _mk(1, 0, [()], [(0, 0, 1.0)])
    r = refine(initial_refinement(m), Next(Lit("a")), [0.5], "~q0")
    assert r.rows[0] == [(0, 1.0)]
    assert sum(w for _, w in r.rows[1]) == pytest.approx(1.0)


def test_initial_refinement_copies_chain():
    r = initial_refinement(C1)
    assert list(r.origin) == [0, 1, 2]
    assert list(r.weights) == [1.0, 1.0, 1.0]
    assert list(r.rows[0]) == [(1, 0.3), (2, 0.7)]


# ---------------------------------------------------------------------------
# Randomized cross-checks against refinement-free oracles

_EXACT_ORACLES = [
    ("F(a)", lambda m: chains.f_prob(m, "a")),
    ("G(a)", lambda m: chains.g_prob(m, "a")),
    ("X(a)", lambda m: next_prob(m, "a")),
    ("(a U b)", lambda m: until_prob(m, "a", "b")),
    ("G(F(a))", lambda m: gf_oracle(m, "a")),
    ("F(G(a))", lambda m: fg_oracle(m, "a")),
]


def test_engine_matches_oracles_on_random_chains():
    rng = random.Random(41)
    for _ in range(150):
        m = chains.random_chain(rng, max_states=15)
        for text, oracle in _EXACT_ORACLES:
            got = check_ltl(m, parse_ltl(text))
            want = oracle(m)
            assert np.allclose(got.values, want, atol=1e-9), (text, m)


def test_engine_matches_sequence_oracle():
    rng = random.Random(43)
    f = parse_ltl("F(a & F(b))")
    for _ in range(60):
        m = chains.random_chain(rng, max_states=12)
        got = check_ltl(m, f)
        want = chains.seq_prob(m, "a", "b")
        assert np.allclose(got.values, want, atol=1e-9)


def test_refinement_invariants_on_random_chains():
    rng = random.Random(47)
    fs = [parse_ltl(t) for t in ("F(a)", "(a U b)", "G(F(a))", "F(a & F(b))")]
    for _ in range(120):
        m = chains.random_chain(rng, max_states=15)
        for f in fs:
            log = RefinementLog(m)
            v = check_ltl(m, f, refinement_log=log)
            assert all(0.0 <= x <= 1.0 for x in v.values)
            assert v.init == v.values[m.init]
            for _, rnd in log:
                for row in rnd.rows:
                    assert abs(sum(q for _, q in row) - 1.0) <= 1e-9
                by_origin = [0.0] * m.n_states
                for o, w in zip(rnd.origin, rnd.weights):
                    assert w > 0.0
                    by_origin[o] += w
                assert all(abs(t - 1.0) <= 1e-9 for t in by_origin)


def test_shared_log_matches_fresh_evaluation():
    state = gbe_init(("a", "b"), max_depth=2)
    bodies = size_bucket(state, 1)
    for n in range(2, 6):
        gbe_step(state, n)
        bodies += size_bucket(state, n)
    rng = random.Random(61)
    reused = 0
    for _ in range(3):
        m = chains.random_chain(rng, max_states=8)
        order = bodies[:]
        rng.shuffle(order)
        log = RefinementLog(m)
        for f in order:
            before = list(log)
            rounds = temporal_subformulas(f)
            keep = 0
            while keep < min(len(before), len(rounds)) and before[keep][0] == rounds[keep]:
                keep += 1
            assert check_ltl(m, f, log) == check_ltl(m, f), print_ltl(f)
            assert [psi for psi, _ in log] == rounds
            # the matching leading rounds are reused, not refined again
            assert all(log[i][1] is before[i][1] for i in range(keep))
            reused += keep
    assert reused > 0


def _copy_sat(labels: frozenset, f: LtlFormula) -> bool:
    # Truth of f in one copy whose labels are a set of names and nodes.
    if isinstance(f, Lit):
        return (f.name in labels) == f.positive
    if isinstance(f, And):
        return _copy_sat(labels, f.left) and _copy_sat(labels, f.right)
    if isinstance(f, Or):
        return _copy_sat(labels, f.left) or _copy_sat(labels, f.right)
    return f in labels


def test_weight_sum_matches_a_loop_over_copies():
    # The plain per-copy loop the label matrix and bincount replace: the
    # sums are added in the same order, so the values are equal.
    state = gbe_init(("a", "b", "c"), max_depth=2)
    bodies = size_bucket(state, 1)
    for n in range(2, 5):
        gbe_step(state, n)
        bodies += size_bucket(state, n)
    rng = random.Random(67)
    for ap in (("a", "b", "c"), ("a", "b")):
        m = chains.random_chain(rng, max_states=10, ap=ap)
        for f in bodies:
            log = RefinementLog(m)
            got = check_ltl(m, f, log)
            r = log[-1][1] if log else log.root
            values = [0.0] * m.n_states
            for i, o in enumerate(r.origin):
                labels = frozenset(key for key, j in r.columns.items() if r.labels[i, j])
                if _copy_sat(labels, f):
                    values[o] += r.weights[i]
            assert tuple(got.values) == tuple(min(1.0, max(0.0, v)) for v in values), print_ltl(f)


# scripts/engine_digest.py random_chain(0, 6, AP): masses are multiples of 1/60.
SIXTIETHS_CHAIN = Dtmc(
    6,
    5,
    ("a", "b", "c"),
    (frozenset(), frozenset("a"), frozenset("b"), frozenset(), frozenset("a"), frozenset("a")),
    tuple(
        (s, t, k / 60)
        for s, t, k in (
            (0, 2, 10), (0, 0, 48), (0, 4, 2), (1, 4, 22), (1, 0, 9), (1, 2, 29),
            (2, 4, 21), (2, 1, 39), (3, 4, 29), (3, 2, 2), (3, 0, 29), (4, 0, 1),
            (4, 3, 58), (4, 5, 1), (5, 2, 32), (5, 1, 21), (5, 5, 7),
        )
    ),
)


def _neumaier_sum(xs, start=0):
    # The compensated float sum of Python 3.12 and later.
    total, comp = float(start), 0.0
    for x in xs:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_row_totals_do_not_depend_on_the_python_sum(monkeypatch):
    # Conditioned rows divide by their total; a compensated sum rounds
    # state 3 of X(X(!b)) one ulp lower than left-to-right addition.
    f = parse_ltl("X(X(!b))")
    plain = check_ltl(SIXTIETHS_CHAIN, f).values
    assert plain[3] == 0.9194444444444446
    monkeypatch.setattr(engine, "sum", _neumaier_sum, raising=False)
    assert check_ltl(SIXTIETHS_CHAIN, f).values == plain


def test_rows_are_built_only_for_rounds_refined_again():
    log = RefinementLog(C5)
    check_ltl(C5, parse_ltl("F(a & F(b))"), refinement_log=log)
    (_, inner), (_, outer) = log
    assert "rows" in vars(inner)  # read to resolve F(a & F(b))
    assert "rows" not in vars(outer)
    assert sum(w for _, w in outer.rows[0]) == pytest.approx(1.0)


def test_refinement_log_keeps_its_root(monkeypatch):
    # Bodies with no temporal subformula, and bodies that share no round
    # with the log, start from the chain's initial refinement, which the
    # log builds once.
    m = chains.random_chain(random.Random(89), max_states=8)
    bodies = [parse_ltl(t) for t in ("a", "(a & !b)", "F(a)", "(b | F(a))", "G(b)", "b", "F(a & F(b))")]
    want = [check_ltl(m, f) for f in bodies]
    roots = []
    monkeypatch.setattr(engine, "initial_refinement", lambda c: roots.append(c) or initial_refinement(c))
    log = RefinementLog(m)
    for f, v in zip(bodies, want):
        assert check_ltl(m, f, log) == v, print_ltl(f)
        assert [psi for psi, _ in log] == temporal_subformulas(f)
    assert roots == [m] and log.chain is m


def _bodies(ap, max_size):
    state = gbe_init(ap, max_depth=2)
    bodies = size_bucket(state, 1)
    for n in range(2, max_size + 1):
        gbe_step(state, n)
        bodies += size_bucket(state, n)
    return bodies


# State 0 leaves its self-loop with mass 2e-13, so every round whose
# system reaches it has no pivot above the solver's 1e-12; rounds that
# solve nothing there, such as X(a) and G(a), still succeed.
_STUCK_CHAIN = _mk(
    5,
    4,
    [(), ("a",), ("b",), ("a",), ()],
    [
        (0, 0, 0.9999999999998), (0, 1, 1e-13), (0, 2, 1e-13), (1, 1, 1.0), (2, 2, 1.0),
        (3, 0, 0.5), (3, 3, 0.25), (3, 2, 0.25), (4, 3, 0.5), (4, 1, 0.5),
    ],
)


def test_check_each_equals_check_ltl_one_body_at_a_time():
    bodies = _bodies(("a", "b"), 4)
    rng = random.Random(97)
    ms = [chains.random_chain(rng, max_states=9) for _ in range(4)] + [_STUCK_CHAIN]
    resumed_after_failure = 0
    for m in ms:
        walk = list(check_each(m, bodies))
        assert sorted(j for j, _ in walk) == list(range(len(bodies)))
        keys = [tuple(psi.hash64 for psi in temporal_subformulas(bodies[j])) for j, _ in walk]
        assert keys == sorted(keys)
        failed: list[LtlFormula] = []
        for j, got in walk:
            f = bodies[j]
            try:
                want = check_ltl(m, f)
            except LinearSolveError as err:
                assert type(got) is type(err) and str(got) == str(err), print_ltl(f)
                failed = temporal_subformulas(f)
                continue
            assert isinstance(got, ProbVector), print_ltl(f)
            assert bytes(got.values) == bytes(want.values) and got.init == want.init, print_ltl(f)
            if failed and temporal_subformulas(f)[:1] == failed[:1]:
                resumed_after_failure += 1
            failed = []
    # Some body right after a failed one reuses the rounds it shares.
    assert resumed_after_failure > 0


def test_a_log_of_another_chain_is_refused():
    rng = random.Random(101)
    m1, m2 = (chains.random_chain(rng, max_states=6) for _ in range(2))
    f = parse_ltl("F(a & F(b))")
    log = RefinementLog(m1)
    check_ltl(m1, f, log)
    before = list(log)
    with pytest.raises(ValueError, match="another chain"):
        check_ltl(m2, f, log)
    assert len(log) == len(before) and all(x is y for x, y in zip(log, before))
    assert check_ltl(m2, f, RefinementLog(m2)) == check_ltl(m2, f)


def test_duality_on_random_chains():
    rng = random.Random(53)
    ga, fna = parse_ltl("G(a)"), parse_ltl("F(!a)")
    for _ in range(100):
        m = chains.random_chain(rng, max_states=15)
        g = check_ltl(m, ga).values
        f = check_ltl(m, fna).values
        assert all(abs(x + y - 1.0) <= 1e-9 for x, y in zip(g, f))


def test_boolean_monotonicity_on_random_chains():
    rng = random.Random(59)
    pairs = [
        ("F(a)", "G(b)"),
        ("X(a)", "F(b)"),
        ("(a U b)", "F(a)"),
    ]
    for _ in range(40):
        m = chains.random_chain(rng, max_states=12)
        for lt, rt in pairs:
            lv = check_ltl(m, parse_ltl(lt)).values
            rv = check_ltl(m, parse_ltl(rt)).values
            both = check_ltl(m, parse_ltl(f"({lt} & {rt})")).values
            either = check_ltl(m, parse_ltl(f"({lt} | {rt})")).values
            for i in range(m.n_states):
                assert both[i] <= min(lv[i], rv[i]) + 1e-9
                assert either[i] >= max(lv[i], rv[i]) - 1e-9
                assert abs((both[i] + either[i]) - (lv[i] + rv[i])) <= 1e-9


def test_prob_vector_is_frozen():
    v = ProbVector((0.5,), 0.5)
    with pytest.raises(AttributeError):
        v.init = 0.25


# ---------------------------------------------------------------------------
# Disjoint unions


def _record_systems(monkeypatch):
    """Every (U, c) that engine._system assembles, in order.  Each
    component or SCC block is assembled there once, whichever solver
    then takes it, and no solver changes it."""
    systems = []
    original = engine._system

    def recording(rows, block, out):
        U, c = original(rows, block, out)
        systems.append((U, c))
        return U, c

    monkeypatch.setattr(engine, "_system", recording)
    return systems


@pytest.mark.parametrize("seed", [1, 3, 8])
def test_union_parts_match_each_chain_alone_bit_for_bit(seed, monkeypatch):
    rng = random.Random(seed)
    # Chains of different sizes, two equal ones, and one without b that
    # projection extends with an all-false b column.
    first = chains.random_chain(rng, max_states=4)
    others = [chains.random_chain(rng, max_states=9) for _ in range(rng.randint(0, 1))]
    lacking = chains.random_chain(rng, max_states=6, ap=("a",))
    sample = Sample.build([first, *others], [lacking, first], ap=["a", "b"])
    ms = [*sample.positive, *sample.negative]
    assert 3 <= len(ms) <= 4 and ms[0] == ms[-1]
    assert len({m.n_states for m in ms}) > 1
    union = disjoint_union(ms)
    starts = [0]
    for m in ms:
        starts.append(starts[-1] + m.n_states)
    bodies = _bodies(("a", "b"), 4)
    systems = _record_systems(monkeypatch)
    on_union = dict(check_each(union, bodies))
    # one system per component, as many as the chains solve alone in the
    # same walk
    union_solves = len(systems)
    for m in ms:
        for _ in check_each(m, bodies):
            pass
    assert union_solves == len(systems) - union_solves > 0
    for j, f in enumerate(bodies):
        got = on_union[j]
        assert got.init == got.values[ms[0].init]
        for m, lo, hi in zip(ms, starts, starts[1:]):
            assert got.values[lo:hi] == check_ltl(m, f).values, print_ltl(f)


def test_chain_of_two_pieces_matches_the_oracles_and_its_union_slice(monkeypatch):
    # States 0-3 and 4-6 share no transition, so each piece solves alone.
    m = _mk(
        7,
        0,
        [(), (), ("a",), ("b",), (), ("b",), ("a",)],
        [
            (0, 1, 0.5), (0, 2, 0.25), (0, 3, 0.25),
            (1, 0, 0.5), (1, 2, 0.125), (1, 3, 0.375),
            (2, 2, 1.0), (3, 3, 1.0),
            (4, 4, 0.25), (4, 5, 0.5), (4, 6, 0.25),
            (5, 5, 1.0), (6, 6, 0.5), (6, 4, 0.5),
        ],
    )
    systems = _record_systems(monkeypatch)
    not_a = lambda s: "a" not in m.labels[s]  # noqa: E731
    cases = {
        "F(a)": until_prob(m, chains._true, "a"),
        "(!a U b)": until_prob(m, not_a, "b"),
        "G(!b)": [1.0 - v for v in until_prob(m, chains._true, "b")],
        "G(F(a))": gf_oracle(m, "a"),
        "G(F(b))": gf_oracle(m, "b"),
    }
    other = chains.random_chain(random.Random(5))
    union = disjoint_union([other, m])
    for text, want in cases.items():
        got = check_ltl(m, parse_ltl(text)).values
        _assert_matches(got, want, text)
        on_union = check_ltl(union, parse_ltl(text)).values[other.n_states :]
        assert on_union.tobytes() == got.tobytes(), text
    # F(a) leaves both pieces undecided: states 0-1 and state 4 solve apart.
    systems.clear()
    check_ltl(m, parse_ltl("F(a)"))
    assert [len(c) for _, c in systems] == [2, 1]


def test_one_round_mixes_closed_form_and_dense_components(monkeypatch):
    # For F(a), state 0 alone, states 1-2 and states 3-5 are undecided
    # components; state 6 (a) is pinned to 1 and state 7 to 0.
    m = _mk(
        8,
        0,
        [()] * 6 + [("a",), ()],
        [
            (0, 0, 0.25), (0, 6, 0.25), (0, 7, 0.5),
            (1, 2, 0.5), (1, 6, 0.25), (1, 7, 0.25),
            (2, 1, 0.5), (2, 6, 0.125), (2, 7, 0.375),
            (3, 4, 0.5), (3, 7, 0.5),
            (4, 5, 0.5), (4, 6, 0.25), (4, 7, 0.25),
            (5, 3, 0.75), (5, 6, 0.25),
            (6, 6, 1.0), (7, 7, 1.0),
        ],
    )
    systems = _record_systems(monkeypatch)
    dense = []
    solve = engine.solve_linear
    monkeypatch.setattr(engine, "solve_linear", lambda U, c: dense.append(len(c)) or solve(U, c))
    f = parse_ltl("F(a)")
    got = check_ltl(m, f).values
    # One round, three systems; only the three-state one is solved densely.
    assert [len(c) for _, c in systems] == [1, 2, 3]
    assert dense == [3]
    _assert_matches(got, until_prob(m, chains._true, "a"), "F(a)")
    assert all(0.0 < v < 1.0 for v in got[:6])
    for chains_in_union in ([m, C1], [C5, m, m]):
        union = disjoint_union(chains_in_union)
        values = check_ltl(union, f).values
        lo = 0
        for part in chains_in_union:
            assert values[lo : lo + part.n_states].tobytes() == check_ltl(part, f).values.tobytes()
            lo += part.n_states
        assert lo == union.n_states


def test_undecided_states_joined_only_through_decided_ones_solve_apart(monkeypatch):
    # The edge 0 -> 5 spans every cut of the state order, so no run of
    # states is closed.  For F(a), state 2 is pinned to 1 and state 5 to
    # 0, and they are the only link between undecided states 0-1 and 3.
    m = _mk(
        6,
        0,
        [(), (), ("b",), (), ("a",), ("b",)],
        [
            (0, 0, 0.25), (0, 1, 0.25), (0, 2, 0.25), (0, 5, 0.25),
            (1, 0, 0.5), (1, 5, 0.5),
            (2, 4, 1.0),
            (3, 3, 0.5), (3, 2, 0.25), (3, 5, 0.25),
            (4, 4, 1.0), (5, 5, 1.0),
        ],
    )
    systems = _record_systems(monkeypatch)
    check_ltl(m, parse_ltl("F(a)"))
    assert [len(c) for _, c in systems] == [2, 1]
    not_a = lambda s: "a" not in m.labels[s]  # noqa: E731
    cases = {
        "F(a)": until_prob(m, chains._true, "a"),
        "(!a U b)": until_prob(m, not_a, "b"),
        "G(!b)": [1.0 - v for v in until_prob(m, chains._true, "b")],
        "G(F(a))": gf_oracle(m, "a"),
        "F(G(b))": fg_oracle(m, "b"),
    }
    other = chains.random_chain(random.Random(17))
    union = disjoint_union([other, m])
    for text, want in cases.items():
        got = check_ltl(m, parse_ltl(text)).values
        _assert_matches(got, want, text)
        on_union = check_ltl(union, parse_ltl(text)).values[other.n_states :]
        assert on_union.tobytes() == got.tobytes(), text


def test_union_solves_each_part_alone_in_the_same_round(monkeypatch):
    # F(a) leaves state 0 undecided on both chains, so the one round of
    # the union solves two systems, each the one its chain solves alone.
    left = _mk(3, 0, [(), ("a",), ()], [(0, 1, 0.3), (0, 2, 0.7), (1, 1, 1.0), (2, 2, 1.0)])
    right = _mk(
        3, 0, [(), ("a",), ()], [(0, 0, 0.25), (0, 1, 0.25), (0, 2, 0.5), (1, 1, 1.0), (2, 2, 1.0)]
    )
    systems = _record_systems(monkeypatch)
    f = parse_ltl("F(a)")
    alone = [tuple(check_ltl(m, f).values) for m in (left, right)]
    alone_systems = list(systems)
    systems.clear()
    got = check_ltl(disjoint_union([left, right]), f)
    assert len(alone_systems) == 2
    assert systems == alone_systems
    assert tuple(got.values) == alone[0] + alone[1]


# ---------------------------------------------------------------------------
# SCC-ordered solves: systems of at least engine._SCC_MIN unknowns


def _large_chains():
    rng = random.Random(29)
    sinks = [chains.sink_chain(rng, n) for n in (150, 250, 400)]
    mdp = gridworld_mdp(20, 20, 0.25)
    bold = induced_dtmc(mdp, gridworld_strategy(20, 20, "bold"))
    return [(m, "a", "b") for m in sinks] + [(bold, "goal", "trap")]


def _assert_matches(got, want, what):
    assert len(got) == len(want), what
    for s, (g, w) in enumerate(zip(got, want)):
        # Values the oracle's graph sets pin must be exact: pts's discard
        # rule compares with ==.
        if w in (0.0, 1.0):
            assert g == w, (what, s)
        else:
            assert abs(g - w) <= 1e-9, (what, s)


@pytest.mark.parametrize("index", range(4))
def test_large_systems_solve_scc_by_scc_and_match_the_oracles(index, monkeypatch):
    m, a, b = _large_chains()[index]
    blocks = []
    original = engine._sccs

    def recording(rows, preds, run):
        blocks.append(original(rows, preds, run))
        return blocks[-1]

    monkeypatch.setattr(engine, "_sccs", recording)
    not_b = lambda s: b not in m.labels[s]  # noqa: E731
    cases = {
        f"F({a})": until_prob(m, chains._true, a),
        f"G(!{b})": [1.0 - v for v in until_prob(m, chains._true, b)],
        f"({a} U {b})": until_prob(m, a, b),
        f"(!{b} U {a})": until_prob(m, not_b, a),
        f"G(F({a}))": gf_oracle(m, a),
        f"F(G({b}))": fg_oracle(m, b),
    }
    for text, want in cases.items():
        got = check_ltl(m, parse_ltl(text))
        _assert_matches(got.values, want, text)
    # Some system reached the cutover and split into several blocks.
    assert any(len(comps) > 1 for comps in blocks)


def _closure(rows, run):
    """reach[s]: the run's states reachable from s through run states,
    s included, by brute force."""
    inside = set(run)
    reach = {}
    for s in run:
        seen, todo = {s}, [s]
        while todo:
            for t, _ in rows[todo.pop()]:
                if t in inside and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[s] = seen
    return reach


def _assert_scc_order(rows, run, comps):
    reach = _closure(rows, run)
    assert sorted(s for comp in comps for s in comp) == sorted(run)
    for comp in comps:
        assert comp == sorted(comp)
        # A block is one mutual-reachability class, whole.
        assert set(comp) == {t for t in reach[comp[0]] if comp[0] in reach[t]}
    where = {s: k for k, comp in enumerate(comps) for s in comp}
    for s in run:
        # Each block comes after every block it reaches.
        assert all(where[t] <= where[s] for t in reach[s])


@pytest.mark.parametrize("seed", range(40))
def test_sccs_match_a_transitive_closure(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    rows = []
    for _ in range(n):
        ts = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        rows.append([(t, 1.0 / len(ts)) for t in ts])
    # The run leaves states out, and edges leave the run.
    run = [s for s in range(n) if rng.random() < 0.8]
    rng.shuffle(run)
    comps = engine._sccs(rows, engine._preds(rows), run)
    _assert_scc_order(rows, run, comps)


def test_sccs_walk_a_long_path_without_recursion():
    n = 20_000
    rows = [[(s + 1, 1.0)] for s in range(n - 1)] + [[(0, 0.5), (n - 1, 0.5)]]
    preds = engine._preds(rows)
    # The back edge closes one cycle of every state.
    assert engine._sccs(rows, preds, list(range(n))) == [list(range(n))]
    # Without the last state the path is n - 1 singletons, tail first.
    rows[-1] = [(n - 1, 1.0)]
    preds = engine._preds(rows)
    assert engine._sccs(rows, preds, list(range(n - 1))) == [[s] for s in range(n - 2, -1, -1)]


def test_large_union_parts_match_each_chain_alone_bit_for_bit():
    rng = random.Random(31)
    left, right = chains.sink_chain(rng, 200), chains.sink_chain(rng, 300)
    union = disjoint_union([left, right])
    for text in ("F(a)", "G(!b)", "(a U b)", "G(F(a))", "F(G(b))", "F((a & F(b)))"):
        f = parse_ltl(text)
        got = check_ltl(union, f).values
        assert got[:200].tobytes() == check_ltl(left, f).values.tobytes(), text
        assert got[200:].tobytes() == check_ltl(right, f).values.tobytes(), text


def _ring_with_near_absorbing_state(n: int) -> dict:
    """A ring of n states that each leave to a goal (state n) or a fail
    state (n + 1) and one state, n + 2, that leaves itself with
    probability 2e-13 only.  Every ring state reaches it."""
    goal, fail, stuck = n, n + 1, n + 2
    transitions = [[goal, goal, 1.0], [fail, fail, 1.0]]
    transitions += [[stuck, stuck, 0.9999999999998], [stuck, goal, 1e-13], [stuck, fail, 1e-13]]
    for s in range(n):
        transitions += [[s, (s + 1) % n, 0.5], [s, goal, 0.25], [s, stuck if s == 7 else fail, 0.25]]
    return {"states": n + 3, "init": 0, "ap": ["a"], "labels": {str(goal): ["a"]}, "transitions": transitions}


def test_pivot_floor_holds_inside_a_large_system(tmp_path, capsys):
    doc = _ring_with_near_absorbing_state(100)
    m = parse_json_dtmc(json.dumps(doc))
    with pytest.raises(SingularSystemError, match="no usable pivot"):
        check_ltl(m, parse_ltl("F(a)"))
    (tmp_path / "chain.json").write_text(json.dumps(doc))
    rc = cli.main(["check", "--model", str(tmp_path / "chain.json"), "--formula", "F(a)"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: no usable pivot in column 0\n"


# ---------------------------------------------------------------------------
# Sparse elimination: blocks of at least engine._SCC_MIN unknowns


def _leaky_scc_block(rng: random.Random, k: int):
    """(rows, block, out): k unknowns joined by a ring, so they form one
    SCC, with up to two more successors inside the block; about a third
    of them also step to one of four states outside it that are already
    valued in out, one of them at 0.0.  The block lists its states in a
    shuffled order, so the solver may not assume they are sorted."""
    block = rng.sample(range(k + 4), k)
    outside = sorted(set(range(k + 4)) - set(block))
    out = [0.0] * (k + 4)
    for t, v in zip(outside, (1.0, 0.0, rng.random(), rng.random())):
        out[t] = v
    rows: list[list[tuple[int, float]]] = [[] for _ in range(k + 4)]
    for j, s in enumerate(block):
        succ = {block[(j + 1) % k]} | set(rng.sample(block, rng.randint(0, 2)))
        if j == 0 or rng.random() < 0.35:
            succ.add(rng.choice(outside))
        succ = sorted(succ)
        rows[s] = list(zip(succ, chains._masses(rng, len(succ))))
    return rows, block, out


def test_sparse_solve_matches_dense_elimination_on_random_blocks():
    rng = random.Random(83)
    for k in [64, 65, 100, 400] + [rng.randint(64, 400) for _ in range(12)]:
        U, c = engine._system(*_leaky_scc_block(rng, k))
        A = np.zeros((k, k))
        for j, row in enumerate(U):
            for i, v in row.items():
                A[j, i] = v
        want = chains.dense_solve(A, c)
        got = engine._solve_sparse(U, c)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12, k


@pytest.mark.parametrize("n", [150, 400])
def test_no_dense_system_reaches_the_cutover(n, monkeypatch):
    m = chains.sink_chain(random.Random(37), n)
    dense, sparse = [], []
    solve, solve_sparse = engine.solve_linear, engine._solve_sparse

    def spy_sparse(U, c):
        sparse.append(len(c))
        return solve_sparse(U, c)

    monkeypatch.setattr(engine, "solve_linear", lambda U, c: dense.append(len(c)) or solve(U, c))
    monkeypatch.setattr(engine, "_solve_sparse", spy_sparse)
    for text, want in (("G(F(a))", gf_oracle(m, "a")), ("F(G(b))", fg_oracle(m, "b"))):
        _assert_matches(check_ltl(m, parse_ltl(text)).values, want, text)
    # An SCC of at least _SCC_MIN unknowns went to the sparse solver,
    # and solve_linear only ever saw systems below the cutover.
    assert dense and max(dense) < engine._SCC_MIN
    assert sparse and min(sparse) >= engine._SCC_MIN


def test_pivot_floor_holds_in_sparse_elimination(tmp_path, capsys):
    # A 100-state ring whose states each leak 2**-51 to the goal and
    # 2**-51 to a fail state: one SCC, so one sparse system, whose last
    # pivot is about 100 * 2**-50, below the 1e-12 floor.
    n, leak = 100, 2.0**-51
    goal, fail = n, n + 1
    transitions = [[goal, goal, 1.0], [fail, fail, 1.0]]
    for s in range(n):
        transitions += [[s, (s + 1) % n, 1.0 - 2 * leak], [s, goal, leak], [s, fail, leak]]
    doc = {"states": n + 2, "init": 0, "ap": ["a"], "labels": {str(goal): ["a"]}}
    doc["transitions"] = transitions
    with pytest.raises(SingularSystemError, match="^no usable pivot in column 99$"):
        check_ltl(parse_json_dtmc(json.dumps(doc)), parse_ltl("F(a)"))
    (tmp_path / "chain.json").write_text(json.dumps(doc))
    rc = cli.main(["check", "--model", str(tmp_path / "chain.json"), "--formula", "F(a)"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: no usable pivot in column 99\n"


def test_long_line_of_singleton_components_matches_the_closed_form(monkeypatch):
    # Line state i steps to i + 1 with probability 1 - p and to the goal
    # with p; the last one steps to a dead end.  Pr(F goal) from line
    # state i is 1 - (1 - p) ** (n - i).  A dense solve would need an
    # n x n matrix.
    n, p = 5000, 2.0**-10
    goal, dead = n, n + 1
    edges = [(goal, goal, 1.0), (dead, dead, 1.0)]
    edges += [(i, i + 1 if i + 1 < n else dead, 1.0 - p) for i in range(n)]
    edges += [(i, goal, p) for i in range(n)]
    m = _mk(n + 2, 0, [()] * n + [("a",), ()], edges)
    dims = []
    original = engine.solve_linear
    monkeypatch.setattr(engine, "solve_linear", lambda U, c: dims.append(len(c)) or original(U, c))
    got = check_ltl(m, parse_ltl("F(a)")).values
    assert len(dims) == n and set(dims) == {1}
    want = [1.0 - (1.0 - p) ** (n - i) for i in range(n)] + [1.0, 0.0]
    _assert_matches(got, want, "F(a)")
