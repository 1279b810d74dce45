"""Sample generators with known separating formulas.

Each family plants a target property: the positive chains satisfy a
thresholded version of it with a wide margin and the negative chains do
not, while every syntactically smaller candidate is either constant
across the sample or separated by less than the default margin delta.
conjunction_sample keeps that only at its default masses (see there).

Generators are deterministic.  The samplers take only a seed: seed=0
keeps the documented default parameters; other seeds pick from small
menus of alternative dyadic parameters that preserve the planted
formula's consistency, so a fixed seed always reproduces byte-identical
files.  Dyadic probabilities keep the interesting satisfaction values
exact, and flat where flatness is needed.  Other variants are built
with Sample.build over the chain builders, as the samplers do.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from .dtmc import NO_LABELS, Dtmc, Mdp, Sample, dtmc_to_json, dtmc_to_prism, induced_dtmc

__all__ = [
    "reach_chain",
    "reach_sample",
    "safety_chain",
    "safety_sample",
    "two_signal_chain",
    "conjunction_sample",
    "until_chain",
    "until_sample",
    "gridworld_mdp",
    "gridworld_strategy",
    "gridworld_sample",
    "write_sample",
    "KINDS",
]


def _variant(seed: int, *menus) -> list[tuple]:
    """One tuple per (default, choices) menu, in menu order.

    Seed 0 returns each default.  Any other seed draws len(default)
    distinct entries of each menu's choices from one Random(seed); a
    one-entry draw takes the one randbelow(len(choices)) that
    rng.choice(choices) takes.
    """
    if seed == 0:
        return [default for default, _ in menus]
    rng = random.Random(seed)
    return [tuple(rng.sample(choices, len(default))) for default, choices in menus]


def reach_chain(p: float) -> Dtmc:
    """Hit an a-state with probability exactly p, else get stuck."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    edges = [(1, 1, 1.0), (2, 2, 1.0)]
    edges.append((0, 1, p))
    if p < 1.0:
        edges.append((0, 2, 1.0 - p))
    return Dtmc(
        n_states=3,
        init=0,
        ap=("a",),
        labels=(frozenset(), frozenset({"a"}), frozenset()),
        transitions=tuple(sorted(edges)),
    )


def reach_sample(seed: int = 0) -> Sample:
    """Planted target: eventually a, F(a); one chain per side."""
    pos, neg = _variant(
        seed, ((1.0,), (1.0, 0.96875, 0.9375)), ((0.3,), (0.25, 0.28125, 0.3125, 0.34375))
    )
    return Sample.build([reach_chain(p) for p in pos], [reach_chain(p) for p in neg])


def safety_chain(d: float) -> Dtmc:
    """Walk a two-step corridor with per-step hazard probability d.

    The run survives both steps with probability (1-d)**2 and then loops
    in the unlabelled safe state 2; the hazard, state 3 labelled h, is
    absorbing.
    """
    if not 0.0 < d < 1.0:
        raise ValueError("d must lie in (0, 1)")
    return Dtmc(
        n_states=4,
        init=0,
        ap=("h",),
        labels=(frozenset(), frozenset(), frozenset(), frozenset({"h"})),
        transitions=(
            (0, 1, 1.0 - d), (0, 3, d), (1, 2, 1.0 - d), (1, 3, d), (2, 2, 1.0), (3, 3, 1.0),
        ),
    )


def safety_sample(seed: int = 0) -> Sample:
    """Planted target: always avoid the hazard, G(!h).

    Hazard rates are dyadic so satisfaction values are exact; positives
    stay below 1/8 per step and negatives at or above 3/8, leaving G(!h)
    a wide margin for any menu choice.
    """
    pos, neg = _variant(
        seed,
        ((0.0625, 0.09375), (0.0625, 0.078125, 0.09375, 0.109375)),
        ((0.375, 0.4375), (0.375, 0.40625, 0.4375, 0.46875)),
    )
    return Sample.build([safety_chain(d) for d in pos], [safety_chain(d) for d in neg])


# Fixed state layout of the two-signal branch chain.  Branch heads sit at
# step 2 so single-step looks are uninformative.
_TS_STATES = 15
_TS_LABELS = {2: "a", 4: "b", 6: "b", 8: "a", 10: "a", 12: "b"}
_TS_CHAINS = [
    (1, 2, 3, 4),  # a then b
    (5, 6, 7, 8),  # b then a
    (9, 10),  # a only
    (11, 12),  # b only
    (13,),  # no signal
]


def two_signal_chain(m_ab: float, m_ba: float, m_a: float, m_b: float, m_rho: float) -> Dtmc:
    """Emit signals a and b in one of five orders with the given masses.

    Every branch passes through an unlabelled state first and ends in a
    shared unlabelled sink, so nothing repeats and single-step looks see
    no signal.
    """
    masses = (m_ab, m_ba, m_a, m_b, m_rho)
    if any(m < 0.0 for m in masses) or abs(sum(masses) - 1.0) > 1e-9:
        raise ValueError(f"branch masses must be nonnegative and sum to 1: {masses}")
    end = _TS_STATES - 1
    edges = [(end, end, 1.0)]
    for mass, chain in zip(masses, _TS_CHAINS):
        if mass > 0.0:
            edges.append((0, chain[0], mass))
        for here, there in zip(chain, chain[1:]):
            edges.append((here, there, 1.0))
        edges.append((chain[-1], end, 1.0))
    labels = [frozenset({_TS_LABELS[i]}) if i in _TS_LABELS else frozenset() for i in range(_TS_STATES)]
    return Dtmc(
        n_states=_TS_STATES,
        init=0,
        ap=("a", "b"),
        labels=tuple(labels),
        transitions=tuple(sorted(edges)),
    )


# Mass tuples (m_ab, m_ba, m_a, m_b, m_rho), all multiples of 1/128.  In
# every variant both eventualities stay above 7/8 on the positive side
# while one of them drops to at most 3/32 on each negative.
_CONJ_POS = (
    (0.75, 0.109375, 0.0234375, 0.0234375, 0.09375),
    (0.625, 0.234375, 0.0234375, 0.0234375, 0.09375),
    (0.6875, 0.171875, 0.03125, 0.03125, 0.078125),
)
_CONJ_NEG = (
    (0.03125, 0.0625, 0.7890625, 0.0, 0.1171875),
    (0.046875, 0.046875, 0.7890625, 0.0, 0.1171875),
    (0.046875, 0.03125, 0.8046875, 0.0, 0.1171875),
)


def _mirror(masses):
    m_ab, m_ba, m_a, m_b, m_rho = masses
    return (m_ba, m_ab, m_b, m_a, m_rho)


def conjunction_sample(seed: int = 0) -> Sample:
    """Planted target: both signals eventually, as a Boolean combination.

    Positives see a and b (in either order) with high probability; each
    negative reliably sees only one of them.  Masses are multiples of
    1/128, and neither F(a) nor F(b) separates the sides by delta.  Only
    the default masses (seeds 0, 2, 15, ...) force their combination: on
    the other 8 of the 9 (positive, negative) mass pairs, the size-4
    atoms (F(a) U b) and (F(b) U a) separate by 0.0625 to 0.1875 first.
    """
    (p,), (n,) = _variant(seed, (_CONJ_POS[:1], _CONJ_POS), (_CONJ_NEG[:1], _CONJ_NEG))
    pos = [two_signal_chain(*p), two_signal_chain(*_mirror(p))]
    neg = [two_signal_chain(*n), two_signal_chain(*_mirror(n))]
    return Sample.build(pos, neg)


def until_chain(p: float) -> Dtmc:
    """See b before any a with probability exactly p.

    Reaching b at all is flat 15/16 and reaching a is certain, so
    neither eventuality separates chains with different p; only the
    first-signal-wins race does.  Branch heads sit at step 2 with fixed
    masses 1/4 (b first) and 1/16 (a first) so bounded-step looks are
    flat as well.  Use dyadic p to keep every value exact.
    """
    if not 0.25 < p < 0.9375:
        raise ValueError("p must lie in (0.25, 0.9375)")
    lab = {2: "b", 3: "a", 4: "a", 6: "b", 7: "a", 9: "a", 10: "b"}
    edges = [
        (0, 1, 1.0),
        (1, 2, 0.25),  # b at step 2, a afterwards
        (1, 4, 0.0625),  # a at step 2
        (1, 5, p - 0.25),  # b at step 3 with no prior a
        (1, 8, 0.9375 - p),  # a at step 3, then b
        (2, 3, 1.0),
        (3, 11, 1.0),
        (4, 11, 1.0),
        (5, 6, 1.0),
        (6, 7, 1.0),
        (7, 11, 1.0),
        (8, 9, 1.0),
        (9, 10, 1.0),
        (10, 11, 1.0),
        (11, 11, 1.0),
    ]
    labels = [frozenset({lab[i]}) if i in lab else frozenset() for i in range(12)]
    return Dtmc(
        n_states=12,
        init=0,
        ap=("a", "b"),
        labels=tuple(labels),
        transitions=tuple(sorted(edges)),
    )


def until_sample(seed: int = 0) -> Sample:
    """Planted target: no a until b, (!a U b)."""
    pos, neg = _variant(
        seed,
        ((0.875, 0.90625), (0.84375, 0.875, 0.90625)),
        ((0.40625, 0.4375), (0.375, 0.40625, 0.4375)),
    )
    return Sample.build([until_chain(p) for p in pos], [until_chain(p) for p in neg])


# ---------------------------------------------------------------------------
# Gridworld MDP demo


_DIRS = {"n": (0, 1), "e": (1, 0), "s": (0, -1), "w": (-1, 0)}
_PERP = {"n": ("e", "w"), "s": ("e", "w"), "e": ("n", "s"), "w": ("n", "s")}


def gridworld_mdp(width: int = 3, height: int = 3, slip: float = 1.0 / 3.0) -> Mdp:
    """Slippery grid with a goal in the far corner and a trap below it.

    Every move goes the chosen way with probability 1-2*slip and to each
    perpendicular neighbour with probability slip, so slip=1/3 gives the
    uniform three-way split; walking into a wall stays put.  Goal and
    trap are absorbing.
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    if not 0.0 < slip < 0.5:
        raise ValueError("slip must lie in (0, 0.5)")
    goal = (width - 1, height - 1)
    trap = (width - 1, 0)

    def idx(x: int, y: int) -> int:
        return x + y * width

    def move(x: int, y: int, d: str) -> int:
        dx, dy = _DIRS[d]
        nx, ny = min(max(x + dx, 0), width - 1), min(max(y + dy, 0), height - 1)
        return idx(nx, ny)

    actions = []
    labels = []
    for y in range(height):
        for x in range(width):
            if (x, y) == goal:
                labels.append(frozenset({"goal"}))
                actions.append({"stay": ((idx(x, y), 1.0),)})
                continue
            if (x, y) == trap:
                labels.append(frozenset({"trap"}))
                actions.append({"stay": ((idx(x, y), 1.0),)})
                continue
            labels.append(NO_LABELS)
            acts = {}
            for d in ("n", "e", "s", "w"):
                merged: dict[int, float] = {}
                outcomes = [(move(x, y, d), 1.0 - 2.0 * slip)]
                for pd in _PERP[d]:
                    outcomes.append((move(x, y, pd), slip))
                for t, q in outcomes:
                    merged[t] = merged.get(t, 0.0) + q
                acts[d] = tuple(sorted(merged.items()))
            actions.append(acts)
    return Mdp(
        n_states=width * height,
        init=0,
        ap=("goal", "trap"),
        labels=tuple(labels),
        actions=tuple(actions),
    )


def gridworld_strategy(width: int, height: int, kind: str) -> dict[int, str]:
    """Memoryless policies: bold hugs the trap row, timid detours."""
    out = {}
    for y in range(height):
        for x in range(width):
            s = x + y * width
            if (x, y) in ((width - 1, height - 1), (width - 1, 0)):
                out[s] = "stay"
            elif kind == "bold":
                out[s] = "e" if x < width - 1 else "n"
            elif kind == "timid":
                out[s] = "n" if y < height - 1 else "e"
            else:
                raise ValueError(f"unknown strategy kind {kind!r}")
    return out


def gridworld_sample(seed: int = 0) -> Sample:
    """Timid (detouring) vs bold (trap-hugging) policies on the 3x3 grid."""
    ((slip,),) = _variant(seed, ((1.0 / 3.0,), (0.25, 0.3125, 0.375)))
    mdp = gridworld_mdp(3, 3, slip)
    pos = [induced_dtmc(mdp, gridworld_strategy(3, 3, "timid"))]
    neg = [induced_dtmc(mdp, gridworld_strategy(3, 3, "bold"))]
    return Sample.build(pos, neg)


# ---------------------------------------------------------------------------
# Serialization for the command line


def write_sample(
    sample: Sample,
    outdir: Path,
    fmt: str = "json",
    params: dict | None = None,
    generator: dict | None = None,
) -> Path:
    """Write chain files plus manifest.json into outdir; returns the manifest path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"ap": list(sample.ap), "positive": [], "negative": []}
    if generator:
        manifest["generator"] = dict(generator)
    for side in ("positive", "negative"):
        for i, m in enumerate(getattr(sample, side)):
            stem = f"{side[:3]}_{i}"
            if fmt == "json":
                (outdir / f"{stem}.json").write_text(dtmc_to_json(m), encoding="utf-8")
                manifest[side].append({"format": "json", "path": f"{stem}.json"})
            elif fmt == "prism":
                tra, lab = dtmc_to_prism(m)
                (outdir / f"{stem}.tra").write_text(tra, encoding="utf-8")
                (outdir / f"{stem}.lab").write_text(lab, encoding="utf-8")
                manifest[side].append(
                    {"format": "prism-explicit", "tra": f"{stem}.tra", "lab": f"{stem}.lab"}
                )
            else:
                raise ValueError(f"unknown output format {fmt!r}")
    if params:
        manifest["params"] = dict(params)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


# kind -> (sample builder, suggested search parameters)
KINDS = {
    "reach": (reach_sample, {"max_size": 2, "max_depth": 1, "delta": 0.05}),
    "safety": (safety_sample, {"max_size": 4, "max_depth": 2, "delta": 0.05}),
    "conjunction": (conjunction_sample, {"max_size": 5, "max_depth": 2, "delta": 0.05}),
    "until": (until_sample, {"max_size": 4, "max_depth": 2, "delta": 0.05}),
    "gridworld": (gridworld_sample, {"max_size": 3, "max_depth": 2, "delta": 0.05}),
}
