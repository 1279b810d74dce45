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
from pltl_learn.learner import LearnConfig
from pltl_learn.ltl import parse_ltl

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # pts scores each body once on the union of the sample's distinct
    # chains, and the re-verification checks each atom once on it.
    assert metrics["engine.check_ltl.calls"] == 10
    assert metrics["engine.refine.calls"] == 8
    assert metrics["engine.refine.states_out_sum"] == 158
    assert metrics["engine.solve_linear.calls"] == 13
    assert metrics["learner.pts.bodies"] == 8
    assert pltl_learn.engine.refine is refine
