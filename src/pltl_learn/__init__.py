"""Learn minimal probabilistic-threshold LTL specifications from samples
of positive and negative discrete-time Markov chains.

The names below are the library surface; the search internals live in
the submodules (``ltl``, ``dtmc``, ``engine``, ``learner``, ``benchgen``).
"""

from .dtmc import Dtmc, DtmcError, Sample, parse_json_dtmc, parse_prism_explicit
from .engine import ProbVector, check_ltl
from .learner import EngineFailure, LearnConfig, LearnResult, NoSolutionError, learn
from .ltl import LtlParseError, parse_ltl, print_ltl, print_pltl

__all__ = [
    "Dtmc",
    "DtmcError",
    "EngineFailure",
    "LearnConfig",
    "LearnResult",
    "LtlParseError",
    "NoSolutionError",
    "ProbVector",
    "Sample",
    "check_ltl",
    "learn",
    "parse_json_dtmc",
    "parse_ltl",
    "parse_prism_explicit",
    "print_ltl",
    "print_pltl",
]
