import filecmp
import json

import pytest

from pltl_learn import benchgen
from pltl_learn.benchgen import (
    KINDS,
    conjunction_sample,
    gridworld_mdp,
    gridworld_sample,
    gridworld_strategy,
    reach_chain,
    reach_sample,
    safety_chain,
    safety_sample,
    two_signal_chain,
    until_chain,
    until_sample,
    write_sample,
)
from pltl_learn.dtmc import (
    Dtmc,
    Sample,
    induced_dtmc,
    parse_json_dtmc,
    parse_prism_explicit,
    validate,
)
from pltl_learn.engine import check_ltl
from pltl_learn.learner import LearnConfig, check_consistency, learn
from pltl_learn.ltl import PltlAnd, PltlAtom, parse_ltl


# ---------------------------------------------------------------------------
# Individual chain builders


def test_reach_chain_is_the_branch_example():
    assert reach_chain(0.3) == Dtmc(
        n_states=3,
        init=0,
        ap=("a",),
        labels=(frozenset(), frozenset({"a"}), frozenset()),
        transitions=((0, 1, 0.3), (0, 2, 0.7), (1, 1, 1.0), (2, 2, 1.0)),
    )


def test_reach_chain_sure_hit_has_no_miss_edge():
    m = reach_chain(1.0)
    assert m.transitions == ((0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0))


def test_reach_chain_parameter_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="p must lie"):
            reach_chain(bad)


def test_safety_chain_survival_probability():
    m = safety_chain(0.0625)
    assert m.n_states == 4
    assert check_ltl(m, parse_ltl("G(!h)")).init == 0.87890625


def test_safety_chain_parameter_range():
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="d must lie"):
            safety_chain(bad)


def test_two_signal_chain_masses_must_be_a_distribution():
    with pytest.raises(ValueError, match="sum to 1"):
        two_signal_chain(0.5, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="sum to 1"):
        two_signal_chain(0.5, 0.7, -0.2, 0.0, 0.0)


def test_two_signal_chain_eventualities():
    m = two_signal_chain(0.5, 0.25, 0.125, 0.0625, 0.0625)
    # F(a) collects the ab, ba, and a-only branches
    assert check_ltl(m, parse_ltl("F(a)")).init == 0.875
    assert check_ltl(m, parse_ltl("F(b)")).init == 0.8125
    # single-step looks see no signal on any branch
    assert check_ltl(m, parse_ltl("X(a)")).init == 0.0
    assert check_ltl(m, parse_ltl("X(b)")).init == 0.0


def test_until_chain_race_value():
    m = until_chain(0.875)
    assert check_ltl(m, parse_ltl("(!a U b)")).init == 0.875
    # the flat decoys: F(b) and bounded looks do not depend on p
    for p in (0.4375, 0.875):
        c = until_chain(p)
        assert check_ltl(c, parse_ltl("F(b)")).init == 0.9375
        assert check_ltl(c, parse_ltl("F(a)")).init == 1.0
        assert check_ltl(c, parse_ltl("X(b)")).init == 0.0
        assert check_ltl(c, parse_ltl("X(X(b))")).init == 0.25


def test_until_chain_parameter_range():
    for bad in (0.25, 0.9375, 0.0, 1.0):
        with pytest.raises(ValueError, match="p must lie"):
            until_chain(bad)


# ---------------------------------------------------------------------------
# Gridworld


def test_gridworld_slip_third_splits_rows_evenly():
    mdp = gridworld_mdp(3, 3, slip=1.0 / 3.0)
    # free corner, heading north: intended (0,1), slips east and stay
    north = dict(mdp.actions[0]["n"])
    assert set(north) == {0, 1, 3}
    for q in north.values():
        assert q == pytest.approx(1.0 / 3.0, abs=1e-9)
    # heading south from the corner merges the wall-stay outcomes
    south = dict(mdp.actions[0]["s"])
    assert south[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert south[1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_gridworld_absorbing_cells():
    mdp = gridworld_mdp(3, 3)
    goal, trap = 8, 2
    assert mdp.labels[goal] == frozenset({"goal"})
    assert mdp.labels[trap] == frozenset({"trap"})
    assert mdp.actions[goal] == {"stay": ((goal, 1.0),)}
    assert mdp.actions[trap] == {"stay": ((trap, 1.0),)}


def test_gridworld_parameter_validation():
    with pytest.raises(ValueError, match="at least 2x2"):
        gridworld_mdp(1, 3)
    for bad in (0.0, 0.5, 0.75):
        with pytest.raises(ValueError, match="slip must lie"):
            gridworld_mdp(3, 3, slip=bad)
    with pytest.raises(ValueError, match="unknown strategy"):
        gridworld_strategy(3, 3, "reckless")


def test_gridworld_strategies_grade_the_risk():
    mdp = gridworld_mdp(3, 3)
    timid = induced_dtmc(mdp, gridworld_strategy(3, 3, "timid"))
    bold = induced_dtmc(mdp, gridworld_strategy(3, 3, "bold"))
    assert validate(timid) == [] and validate(bold) == []
    t = check_ltl(timid, parse_ltl("F(goal)")).init
    b = check_ltl(bold, parse_ltl("F(goal)")).init
    assert t > b + 0.05
    # both policies end in goal or trap, so the fates partition
    assert t + check_ltl(timid, parse_ltl("F(trap)")).init == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Planted formulas stay consistent on every menu pick


def test_reach_sample_planted_formula():
    planted = PltlAtom(0.6, parse_ltl("F(a)"))
    for seed in (0, 1, 2, 7, 40):
        assert check_consistency(planted, reach_sample(seed=seed)), seed


def test_safety_sample_planted_formula():
    planted = PltlAtom(0.5, parse_ltl("G(!h)"))
    for seed in (0, 1, 2, 7, 40):
        assert check_consistency(planted, safety_sample(seed=seed)), seed


def test_conjunction_sample_planted_formula():
    planted = PltlAnd(
        PltlAtom(0.5, parse_ltl("F(a)")), PltlAtom(0.5, parse_ltl("F(b)"))
    )
    for seed in (0, 1, 2, 7, 40):
        sample = conjunction_sample(seed=seed)
        assert check_consistency(planted, sample), seed
        # but neither eventuality separates on its own
        for single in (planted.left, planted.right):
            assert not check_consistency(single, sample), seed


@pytest.mark.xfail(
    strict=True,
    reason="8 of the 9 mass pairs are separated by the size-4 atom (F(a) U b) first",
)
def test_every_conjunction_variant_learns_a_size_5_conjunction():
    # Each (positive, negative) pair of masses that a seed can draw.
    config = LearnConfig(**KINDS["conjunction"][1])
    missed = []
    for p in benchgen._CONJ_POS:
        for n in benchgen._CONJ_NEG:
            sample = Sample.build(
                [two_signal_chain(*p), two_signal_chain(*benchgen._mirror(p))],
                [two_signal_chain(*n), two_signal_chain(*benchgen._mirror(n))],
            )
            result = learn(sample, config)
            if result.size != 5 or not all(isinstance(f, PltlAnd) for f in result.formulas):
                missed.append((p, n))
    assert missed == []


def test_until_sample_planted_formula():
    planted = PltlAtom(0.6, parse_ltl("(!a U b)"))
    for seed in (0, 1, 2, 7, 40):
        assert check_consistency(planted, until_sample(seed=seed)), seed


def test_gridworld_sample_learnable_at_every_slip():
    for seed in (0, 1, 2):
        result = learn(gridworld_sample(seed=seed), LearnConfig(max_size=3, max_depth=2))
        assert result.size == 2, seed


def test_reach_sample_explicit_probabilities():
    s = Sample.build([reach_chain(0.9)], [reach_chain(0.2)])
    assert check_ltl(s.positive[0], parse_ltl("F(a)")).init == 0.9
    assert check_ltl(s.negative[0], parse_ltl("F(a)")).init == 0.2


# ---------------------------------------------------------------------------
# Seeding


def test_same_seed_reproduces_the_sample():
    assert reach_sample(seed=7) == reach_sample(seed=7)
    assert until_sample(seed=3) == until_sample(seed=3)
    assert conjunction_sample(seed=5) == conjunction_sample(seed=5)
    assert gridworld_sample(seed=2) == gridworld_sample(seed=2)


def test_different_seeds_vary_the_parameters():
    assert reach_sample(seed=0) != reach_sample(seed=7)


def test_seed_zero_uses_documented_defaults():
    s = reach_sample(seed=0)
    assert check_ltl(s.positive[0], parse_ltl("F(a)")).init == 1.0
    assert check_ltl(s.negative[0], parse_ltl("F(a)")).init == 0.3
    assert safety_sample(seed=0) == Sample.build(
        [safety_chain(0.0625), safety_chain(0.09375)], [safety_chain(0.375), safety_chain(0.4375)]
    )


# ---------------------------------------------------------------------------
# On-disk layout


def test_write_sample_json_roundtrip(tmp_path):
    sample = reach_sample()
    manifest_path = write_sample(sample, tmp_path, params={"max_size": 2})
    assert manifest_path == tmp_path / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    assert doc["ap"] == ["a"]
    assert doc["params"] == {"max_size": 2}
    assert [e["format"] for e in doc["positive"]] == ["json"]
    back = parse_json_dtmc((tmp_path / doc["positive"][0]["path"]).read_text())
    assert back == sample.positive[0]
    back_neg = parse_json_dtmc((tmp_path / doc["negative"][0]["path"]).read_text())
    assert back_neg == sample.negative[0]


def test_write_sample_prism_roundtrip(tmp_path):
    sample = until_sample()
    manifest_path = write_sample(sample, tmp_path, fmt="prism")
    doc = json.loads(manifest_path.read_text())
    entry = doc["positive"][0]
    assert entry["format"] == "prism-explicit"
    back = parse_prism_explicit(
        (tmp_path / entry["tra"]).read_text(), (tmp_path / entry["lab"]).read_text()
    )
    assert back == sample.positive[0]


def test_write_sample_generator_field(tmp_path):
    manifest_path = write_sample(
        reach_sample(), tmp_path, generator={"name": "reach", "seed": 0}
    )
    doc = json.loads(manifest_path.read_text())
    assert doc["generator"] == {"name": "reach", "seed": 0}


def test_write_sample_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        write_sample(reach_sample(), tmp_path, fmt="yaml")


def test_write_sample_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_sample(safety_sample(seed=7), a, params=KINDS["safety"][1])
    write_sample(safety_sample(seed=7), b, params=KINDS["safety"][1])
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_kinds_table_is_complete():
    assert sorted(KINDS) == ["conjunction", "gridworld", "reach", "safety", "until"]
    for name, (builder, params) in KINDS.items():
        assert callable(builder)
        assert {"max_size", "max_depth", "delta"} <= set(params), name
        LearnConfig(**params)
