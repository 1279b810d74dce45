"""Command line front end.

Subcommands: learn a separating formula from a manifest of labelled
chains, check one LTL formula on one chain, and benchgen to emit the
bundled benchmark samples.  Exit codes: 0 success, 1 no formula exists
within the search bounds, 2 bad input or usage, or a linear system the
engine cannot solve.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import benchgen
from .dtmc import Dtmc, DtmcError, Sample, load_json, parse_json_dtmc, parse_prism_explicit
from .engine import LinearSolveError, check_ltl
from .learner import EngineFailure, LearnConfig, NoSolutionError, learn
from .ltl import parse_ltl, print_pltl


def _read_chain(path: Path, lab: Path | None = None) -> Dtmc:
    """A JSON chain file, or a PRISM explicit .tra file with its .lab file."""
    if lab is None:
        return parse_json_dtmc(path.read_text(encoding="utf-8"))
    return parse_prism_explicit(path.read_text(encoding="utf-8"), lab.read_text(encoding="utf-8"))


def _load_chain(entry: dict, base: Path) -> Dtmc:
    if not isinstance(entry, dict):
        raise DtmcError(f"chain entry {entry!r} is not an object")

    def path(key: str) -> Path:
        if key not in entry:
            raise DtmcError(f"chain entry lacks {key!r}")
        name = entry[key]
        if not isinstance(name, str):
            raise DtmcError(f"chain entry {key!r} must be a string, got {type(name).__name__}")
        return base / name

    fmt = entry.get("format", "json")
    if fmt == "json":
        return _read_chain(path("path"))
    if fmt == "prism-explicit":
        return _read_chain(path("tra"), path("lab"))
    raise DtmcError(f"unknown chain format {fmt!r}")


def _print_stats(s) -> None:
    totals = " ".join(f"{c}={s.total(c)}" for c in s.PER_SIZE)
    print(
        f"stats: {totals} combos_tried={s.combos_tried} engine_calls={s.engine_calls}",
        file=sys.stderr,
    )
    for n in s.sizes():
        counts = " ".join(f"{c}={getattr(s, c).get(n, 0)}" for c in s.PER_SIZE)
        print(f"stats[size {n}]: {counts}", file=sys.stderr)
    phases = " ".join(
        f"{name}={s.phase_seconds[name]:.3f}s" for name in sorted(s.phase_seconds)
    )
    if phases:
        print(f"stats[phase]: {phases}", file=sys.stderr)


def _cmd_learn(args) -> int:
    doc = load_json(args.sample.read_text(encoding="utf-8"), "manifest JSON")
    if not isinstance(doc, dict):
        raise DtmcError("a manifest must be a JSON object")
    base = args.sample.resolve().parent
    for side in ("positive", "negative"):
        if not isinstance(doc.get(side), list):
            raise DtmcError(f"manifest lacks a {side!r} list")
    positive = [_load_chain(e, base) for e in doc["positive"]]
    negative = [_load_chain(e, base) for e in doc["negative"]]
    sample = Sample.build(positive, negative, doc.get("ap"))

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise DtmcError("manifest params must be an object")
    # A flag overrides params; what neither gives keeps LearnConfig's
    # default, and LearnConfig checks what is given.
    keys = ("max_size", "max_depth", "delta", "bool_limit")
    for k in params:
        if k not in keys:
            raise DtmcError(f"unknown key {k!r} in manifest params")
    given = {k: params[k] for k in keys if k in params}
    given |= {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if given.get("max_size") is None:
        raise DtmcError("a size bound is required (--max-size or params.max_size)")
    config = LearnConfig(**given, eager_return=args.eager_return, all_minimal=args.all_minimal)
    try:
        result = learn(sample, config)
    except NoSolutionError as e:
        print(e, file=sys.stderr)
        if args.stats:
            _print_stats(e.stats)
        return 1
    for f, margin in zip(result.formulas, result.margins):
        shown = "n/a" if margin is None else f"{margin:.6f}"
        print(f"{print_pltl(f)}  margin={shown}")
    if args.stats:
        _print_stats(result.stats)
    return 0


def _cmd_check(args) -> int:
    formula = parse_ltl(args.formula)
    lab = args.lab
    if lab is None and args.model.suffix == ".tra":
        lab = args.model.with_suffix(".lab")
    vec = check_ltl(_read_chain(args.model, lab), formula)
    for i, v in enumerate(vec.values):
        print(f"state {i}: {v:.9f}")
    print(f"v_I = {vec.init:.9f}")
    return 0


def _cmd_benchgen(args) -> int:
    builder, params = benchgen.KINDS[args.name]
    manifest = benchgen.write_sample(
        builder(seed=args.seed),
        Path(args.out),
        args.format,
        params,
        generator={"name": args.name, "seed": args.seed},
    )
    print(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pltl-learn",
        description="learn minimal probabilistic-threshold LTL formulas "
        "separating positive from negative Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="learn a formula from a sample manifest")
    p_learn.add_argument("--sample", type=Path, required=True, help="manifest.json describing the sample")
    p_learn.add_argument("-K", "--max-size", type=int, default=None, help="formula size bound")
    p_learn.add_argument("-D", "--max-depth", type=int, default=None, help="temporal depth bound")
    p_learn.add_argument("--delta", type=float, default=None, help="required atom margin")
    p_learn.add_argument("--bool-limit", type=int, default=None, help="combination shortlist length")
    p_learn.add_argument("--eager-return", action="store_true", help="stop at the first hit")
    p_learn.add_argument(
        "--all-minimal", action="store_true", help="report every consistent atom at the winning size"
    )
    p_learn.add_argument("--stats", action="store_true", help="print search statistics to stderr")
    p_learn.set_defaults(func=_cmd_learn)

    p_check = sub.add_parser("check", help="print per-state probabilities of a formula")
    p_check.add_argument("--model", type=Path, required=True, help="chain file: .json, or .tra with a sibling .lab")
    p_check.add_argument("--formula", required=True, help="LTL formula, e.g. 'F(a & F(b))'")
    p_check.add_argument("--lab", type=Path, help="PRISM .lab file when not named like the .tra")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("benchgen", help="write a bundled benchmark sample")
    p_gen.add_argument("--name", required=True, choices=sorted(benchgen.KINDS))
    p_gen.add_argument("--out", required=True, help="directory for chain files and manifest.json")
    p_gen.add_argument("--seed", type=int, default=0, help="parameter seed; 0 keeps the documented defaults")
    p_gen.add_argument("--format", choices=("json", "prism"), default="json")
    p_gen.set_defaults(func=_cmd_benchgen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: parse_args keeps no state.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, LinearSolveError, EngineFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
