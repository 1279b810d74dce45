#!/usr/bin/env python3
"""Hazard-rate sweep for the safety family.

Fixes the positive chains at low per-step hazard rates and walks the
negative rates toward them, showing the learned formula, its threshold,
and the margin shrinking until the scan gives up: the searcher only
certifies an atom when the sides are separated by more than delta.
"""
import argparse

from pltl_learn.benchgen import safety_chain
from pltl_learn.dtmc import Sample
from pltl_learn.engine import check_ltl
from pltl_learn.learner import LearnConfig, NoSolutionError, learn
from pltl_learn.ltl import parse_ltl, print_pltl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=0.05, help="required atom margin")
    ap.add_argument("--max-size", type=int, default=4, help="formula size bound")
    args = ap.parse_args()

    pos = (0.0625, 0.09375)
    target = parse_ltl("G(!h)")
    print(f"positives survive with per-step hazard {pos[0]:g} and {pos[1]:g}")
    print(f"delta = {args.delta:g}, size bound = {args.max_size}")
    print()
    print(f"{'neg hazard':>12} {'G(!h) gap':>10}  result")

    for neg_d in (0.4375, 0.375, 0.3125, 0.25, 0.1875, 0.15625, 0.125):
        sample = Sample.build([safety_chain(d) for d in pos], [safety_chain(neg_d)] * 2)
        lo = min(check_ltl(m, target).init for m in sample.positive)
        hi = max(check_ltl(m, target).init for m in sample.negative)
        cfg = LearnConfig(max_size=args.max_size, max_depth=2, delta=args.delta)
        try:
            result = learn(sample, cfg)
            shown = ", ".join(
                print_pltl(f)
                + ("" if m is None else f"  (margin {m:.6f})")
                for f, m in zip(result.formulas, result.margins)
            )
        except NoSolutionError as e:
            shown = f"none: {e}"
        print(f"{neg_d:>12g} {lo - hi:>10.6f}  {shown}")


if __name__ == "__main__":
    main()
