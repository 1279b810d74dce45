"""The benchmark's tracer still installs over the package and counts.

bench/spans.py wraps functions by module attribute and pins some of
their signatures (engine.refine's four positional parameters, for one),
so a change to a traced name or signature fails here as well as in
`bench/run.py --trace 1`.
"""
import importlib.util
from pathlib import Path

import pltl_learn
import pltl_learn.cli
import pltl_learn.dtmc
import pltl_learn.engine
import pltl_learn.learner
from pltl_learn.benchgen import safety_sample
from pltl_learn.dtmc import Dtmc
from pltl_learn.learner import LearnConfig
from pltl_learn.ltl import parse_ltl

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# States 0-2 form a loop that leaks to the a-state 3 and the dead end 4,
# so F(a) leaves one component of three undecided states.
LOOP = Dtmc(
    n_states=5,
    init=0,
    ap=("a",),
    labels=(frozenset(),) * 3 + (frozenset({"a"}), frozenset()),
    transitions=(
        (0, 1, 0.5), (0, 3, 0.25), (0, 4, 0.25),
        (1, 2, 0.5), (1, 3, 0.5),
        (2, 0, 0.75), (2, 4, 0.25),
        (3, 3, 1.0), (4, 4, 1.0),
    ),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_counts():
    tracer = _load_spans().Tracer(pltl_learn)
    sample = safety_sample()
    refine = pltl_learn.engine.refine
    tracer.install()
    try:
        pltl_learn.learner.learn(sample, LearnConfig(max_size=4))
        pltl_learn.engine.check_ltl(sample.positive[0], parse_ltl("G(!h)"))
        pltl_learn.engine.check_ltl(LOOP, parse_ltl("F(a)"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # pts scores each body once on the union of the sample's distinct
    # chains, and the re-verification checks each atom once on it.
    # LOOP adds one call and one round of 8 copies (two for each
    # undecided state, one for each of states 3 and 4).
    assert metrics["engine.check_ltl.calls"] == 10 + 1
    assert metrics["engine.refine.calls"] == 8 + 1
    assert metrics["engine.refine.states_out_sum"] == 158 + 8
    # The safety sample's 13 systems each have one or two unknowns, which
    # are solved in closed form, not by solve_linear; LOOP's system of
    # three is the one solve_linear call.
    assert metrics["engine.solve_linear.calls"] == 1
    assert metrics["learner.pts.bodies"] == 8
    assert pltl_learn.engine.refine is refine
