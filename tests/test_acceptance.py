"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with -s to see them on success).

Tolerances are part of the guarantee and are asserted exactly as stated:
engine accuracy 1e-6 per state, refinement bookkeeping 1e-9, threshold
pins exact or 1e-9 as noted, wall-clock budgets per block.
"""
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chains
import pltl_learn
from lasso import checker
from pltl_learn.benchgen import (
    conjunction_sample,
    reach_chain,
    safety_sample,
    until_sample,
    write_sample,
)
from pltl_learn.dtmc import Sample
from pltl_learn.engine import RefinementLog, check_ltl
from pltl_learn.learner import (
    LearnConfig,
    best_threshold,
    check_consistency,
    gbe_init,
    gbe_step,
    learn,
    make_scored,
    pts,
    size_bucket,
)
from pltl_learn.ltl import (
    And,
    Finally,
    Globally,
    Next,
    Or,
    PltlAnd,
    PltlAtom,
    Until,
    boolean_simplify_applies,
    canonicalize,
    parse_ltl,
    print_ltl,
    print_pltl,
    temporal_simplify_applies,
)


def _report(cid: str, desc: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"acceptance {cid} ({desc}): {status}")
    assert not problems, f"{cid}: " + "; ".join(problems[:10])


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one sweep over seeded random chains.


@pytest.fixture(scope="module")
def engine_sweep():
    rng = random.Random(2024)
    logs: list[tuple[int, RefinementLog]] = []
    worst = 0.0
    mismatches: list[str] = []
    t0 = time.perf_counter()
    for i in range(100):
        m = chains.random_chain(rng, max_states=20, ap=("a", "b"))
        suite = chains.oracle_suite(m)
        for text, want in suite.items():
            log = RefinementLog(m)
            got = check_ltl(m, parse_ltl(text), refinement_log=log)
            logs.append((m.n_states, log))
            err = max(abs(g - w) for g, w in zip(got.values, want))
            worst = max(worst, err)
            if err > 1e-6:
                mismatches.append(f"chain {i} {text}: err {err:.3g}")
    elapsed = time.perf_counter() - t0
    return logs, worst, mismatches, elapsed


def test_criterion_1_engine_accuracy(engine_sweep):
    logs, worst, mismatches, elapsed = engine_sweep
    problems = list(mismatches)
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _report(
        "criterion 1",
        f"engine vs oracles, 100 chains x 10 formulas, worst {worst:.2e}, "
        f"{elapsed:.1f}s",
        problems,
    )


def test_criterion_2_refinement_bookkeeping(engine_sweep):
    logs, _, _, _ = engine_sweep
    problems: list[str] = []
    rounds = 0
    for n_states, log in logs:
        for psi, rnd in log:
            rounds += 1
            for row in rnd.rows:
                if abs(sum(q for _, q in row) - 1.0) > 1e-9:
                    problems.append(f"row sum off in {print_ltl(psi)}")
            sums = [0.0] * n_states
            for o, w in zip(rnd.origin, rnd.weights):
                sums[o] += w
            if any(abs(s - 1.0) > 1e-9 for s in sums):
                problems.append(f"weight sum off in {print_ltl(psi)}")
    _report(
        "criterion 2",
        f"row and weight sums within 1e-9 over {rounds} refinement rounds",
        problems,
    )


# ---------------------------------------------------------------------------


def test_criterion_3_enumeration_and_pruning():
    t0 = time.perf_counter()
    problems: list[str] = []

    state = gbe_init(("p",), max_depth=3)
    for n in (2, 3, 4):
        gbe_step(state, n)
    f1 = [print_ltl(f) for f in size_bucket(state, 1)]
    f2 = [print_ltl(f) for f in size_bucket(state, 2)]
    if f1 != ["!p", "p"]:
        problems.append(f"size-1 layer is {f1}")
    if f2 != ["F(!p)", "F(p)", "G(!p)", "G(p)", "X(!p)", "X(p)"]:
        problems.append(f"size-2 layer is {f2}")

    ck = checker()  # all lasso words with |u| + |v| <= 8
    flat = {n: size_bucket(state, n) for n in (1, 2, 3, 4)}
    best: dict[bytes, int] = {}
    for n, layer in flat.items():
        for f in layer:
            sig = ck.signature(f)
            if sig not in best or best[sig] > n:
                best[sig] = n

    rejected = 0
    for n in (2, 3, 4):
        cands = []
        for child in flat[n - 1]:
            for op in (Next, Finally, Globally):
                cands.append((op(child), None))
        for k in range(1, n - 1):
            for left in flat[k]:
                for right in flat[n - 1 - k]:
                    for cls in (And, Or, Until):
                        cands.append((cls(left, right), (left, right)))
        for cand, binop in cands:
            c = canonicalize(cand)
            if not (
                temporal_simplify_applies(c)
                or (binop is not None and boolean_simplify_applies(*binop))
            ):
                continue
            rejected += 1
            if ck.is_constant(c):
                continue
            twin = best.get(ck.signature(c))
            if twin is None or twin > c.size:
                problems.append(f"unsound rejection of {print_ltl(c)}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 3",
        f"layer sizes exact, {rejected} rejections sound on lasso words, "
        f"{elapsed:.1f}s",
        problems,
    )


def test_criterion_4_midpoint_threshold_is_exact():
    sample = Sample.build([reach_chain(1.0)], [reach_chain(0.3)])
    res = pts([parse_ltl("F(a)")], sample, 0.05)
    problems: list[str] = []
    if not res.found:
        problems.append("scan found no consistent atom")
    else:
        r = res.winners[0][0].threshold
        if r != 0.65:
            problems.append(f"threshold {r!r} is not exactly 0.65")
    _report("criterion 4", "midpoint threshold for 1.0 vs 0.3 is exactly 0.65", problems)


# ---------------------------------------------------------------------------
# Learning end-to-ends


def test_criterion_5a_safety_family():
    t0 = time.perf_counter()
    sample = safety_sample()
    result = learn(sample, LearnConfig(max_size=4, max_depth=2))
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    (f,) = result.formulas
    if result.size != 2 or not isinstance(f, PltlAtom) or print_ltl(f.body) != "G(!h)":
        problems.append(f"learned {print_pltl(f)} at size {result.size}")
    else:
        lo = min(check_ltl(m, f.body).init for m in sample.positive)
        hi = max(check_ltl(m, f.body).init for m in sample.negative)
        if not hi < f.threshold < lo:
            problems.append(f"threshold {f.threshold} outside ({hi}, {lo})")
    if not check_consistency(f, sample):
        problems.append("result fails re-verification")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 5a",
        f"safety sample gives size-2 {print_pltl(result.formulas[0])}, "
        f"{elapsed:.1f}s",
        problems,
    )


def test_criterion_5b_conjunction_family():
    t0 = time.perf_counter()
    sample = conjunction_sample()
    result = learn(sample, LearnConfig(max_size=5, max_depth=2))
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    (f,) = result.formulas
    bodies = set()
    if isinstance(f, PltlAnd):
        for side in (f.left, f.right):
            if isinstance(side, PltlAtom) and isinstance(side.body, Finally):
                bodies.add(print_ltl(side.body))
    if result.size != 5 or bodies != {"F(a)", "F(b)"}:
        problems.append(f"learned {print_pltl(f)} at size {result.size}")
    if not check_consistency(f, sample):
        problems.append("result fails re-verification")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 5b",
        f"conjunction sample gives a size-5 conjunction of eventualities, "
        f"{elapsed:.1f}s",
        problems,
    )


def test_criterion_5c_until_family():
    t0 = time.perf_counter()
    sample = until_sample()
    result = learn(sample, LearnConfig(max_size=4, max_depth=2))
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    (f,) = result.formulas
    if (
        result.size != 3
        or not isinstance(f, PltlAtom)
        or print_ltl(f.body) != "(!a U b)"
    ):
        problems.append(f"learned {print_pltl(f)} at size {result.size}")
    if not check_consistency(f, sample):
        problems.append("result fails re-verification")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 5c",
        f"until sample gives size-3 {print_pltl(result.formulas[0])}, "
        f"{elapsed:.1f}s",
        problems,
    )


# ---------------------------------------------------------------------------
# Command line behaviour, exercised through real processes


def _cli(*argv: str) -> subprocess.CompletedProcess:
    # The child imports the same pltl_learn as this process, installed or not.
    src = str(Path(pltl_learn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pltl_learn.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_6_exhaustion_reports_the_bounds(tmp_path):
    t0 = time.perf_counter()
    m = reach_chain(0.3)
    write_sample(Sample.build([m], [m]), tmp_path)
    proc = _cli("learn", "--sample", str(tmp_path / "manifest.json"), "-K", "4")
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    if proc.returncode != 1:
        problems.append(f"exit code {proc.returncode}, expected 1")
    if "no formula in the search space (K=4, D=2, delta=0.05)" not in proc.stderr:
        problems.append(f"stderr was {proc.stderr!r}")
    if proc.stdout != "":
        problems.append(f"stdout was {proc.stdout!r}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 6",
        f"identical sides exhaust the space with exit 1, {elapsed:.1f}s",
        problems,
    )


def test_criterion_7_scoring_pins():
    problems: list[str] = []
    r, c = best_threshold([0.9, 0.8], [0.4])
    if c != 3:
        problems.append(f"count {c}, expected 3")
    if not 0.4 < r < 0.8:
        problems.append(f"threshold {r} outside (0.4, 0.8)")
    if abs(r - 0.6) > 1e-9:
        problems.append(f"threshold {r!r} not within 1e-9 of 0.6")
    sigma = make_scored(parse_ltl("F(a)"), (0.9, 0.8), (0.4,)).sigma
    if abs(sigma - 3.0 / (1.0 + math.sqrt(2.0))) > 1e-9:
        problems.append(f"sigma {sigma!r}")
    _report(
        "criterion 7",
        "majority threshold lands mid-gap and sigma matches 3/(1+sqrt(2))",
        problems,
    )


def test_criterion_8_repeat_runs_are_byte_identical(tmp_path):
    problems: list[str] = []
    for name in ("safety", "conjunction", "until"):
        out = tmp_path / name
        gen = _cli("benchgen", "--name", name, "--out", str(out), "--seed", "0")
        if gen.returncode != 0:
            problems.append(f"{name}: benchgen exit {gen.returncode}")
            continue
        argv = ("learn", "--sample", str(out / "manifest.json"), "--stats")
        first = _cli(*argv)
        second = _cli(*argv)
        if first.returncode != 0 or second.returncode != 0:
            problems.append(f"{name}: learn exits {first.returncode}/{second.returncode}")
        if first.stdout != second.stdout:
            problems.append(f"{name}: stdout differs between runs")
        if "stats[phase]:" not in first.stderr:
            problems.append(f"{name}: stats missing from stderr")
    _report(
        "criterion 8",
        "repeated seeded runs print byte-identical results on stdout",
        problems,
    )
