"""Discrete-time Markov chains, samples, and the file formats we read/write.

States are 0-based integers.  Labels are stored as frozensets of
proposition names.  Transition structure is kept as a flat edge list
(src, dst, prob); per-state successor lists are built lazily.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .ltl import Lit, LtlParseError, parse_ltl

__all__ = [
    "Dtmc",
    "Sample",
    "Mdp",
    "DtmcError",
    "validate",
    "parse_json_dtmc",
    "parse_prism_explicit",
    "dtmc_to_json",
    "dtmc_to_prism",
    "project",
    "disjoint_union",
    "induced_dtmc",
]

_ROW_TOL = 1e-9

# The label set of every unlabelled state: frozenset() and an empty
# intersection each make a new 216-byte object.
NO_LABELS: frozenset[str] = frozenset()


class DtmcError(ValueError):
    pass


@dataclass(frozen=True)
class Dtmc:
    """A labelled DTMC with a single initial state.

    ``transitions`` is a tuple of (src, dst, prob) triples with positive
    probabilities; every state needs an outgoing distribution summing to
    one.  Construction raises DtmcError naming every problem that
    ``validate`` finds.
    """

    n_states: int
    init: int
    ap: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    transitions: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        errs = validate(self)
        if errs:
            raise DtmcError("; ".join(errs))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-state successor lists, in edge order."""
        out: list[list[tuple[int, float]]] = [[] for _ in range(self.n_states)]
        for s, t, p in self.transitions:
            out[s].append((t, p))
        return tuple(tuple(r) for r in out)


def validate(m: Dtmc) -> list[str]:
    """Every structural problem in m, as human-readable strings."""
    errs: list[str] = []
    if m.n_states <= 0:
        return [f"state count must be positive, got {m.n_states}"]
    if not 0 <= m.init < m.n_states:
        errs.append(f"initial state {m.init} out of range")
    if len(m.labels) != m.n_states:
        errs.append(f"expected {m.n_states} label sets, got {len(m.labels)}")
    apset = set(m.ap)
    if len(m.ap) != len(apset):
        errs.append("duplicate proposition in alphabet")
    for i, lab in enumerate(m.labels):
        extra = lab - apset
        if extra:
            errs.append(f"state {i} labelled with unknown {sorted(extra)}")
    sums = [0.0] * m.n_states
    seen: set[tuple[int, int]] = set()
    for s, t, p in m.transitions:
        if not (0 <= s < m.n_states and 0 <= t < m.n_states):
            errs.append(f"transition ({s},{t}) out of range")
            continue
        if not p > 0.0:
            errs.append(f"transition ({s},{t}) has non-positive probability {p}")
        if (s, t) in seen:
            errs.append(f"duplicate transition ({s},{t})")
        seen.add((s, t))
        sums[s] += p
    for s, total in enumerate(sums):
        if abs(total - 1.0) > _ROW_TOL:
            errs.append(f"state {s} row sums to {total!r}, not 1")
    return errs


@dataclass(frozen=True)
class Sample:
    """Positive and negative chains over a shared alphabet.

    Chains are projected onto the intersection-free union convention:
    the sample alphabet is given explicitly and every chain keeps only
    the listed propositions; names a chain never declares are simply
    false there.

    Sample.build refuses a name that parse_ltl does not read back as
    that proposition, so a learned formula prints as text that parses
    back as itself.  The learner reads every chain through ``union``,
    where chain i is the states from ``offsets[i]`` on; both are cached
    on first read, as ``Dtmc.rows`` is, so every size of a search
    shares them.
    """

    positive: tuple[Dtmc, ...]
    negative: tuple[Dtmc, ...]
    ap: tuple[str, ...]

    def __post_init__(self):
        if not self.positive or not self.negative:
            raise DtmcError("a sample needs at least one chain on each side")

    @cached_property
    def union(self) -> Dtmc:
        """The chains with equal content kept once, in order of first
        appearance among positives then negatives, side by side as one
        chain."""
        return disjoint_union(dict.fromkeys((*self.positive, *self.negative)))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """For each chain, positives then negatives, the state of union
        that is its state 0; chains with equal content share one."""
        chains = (*self.positive, *self.negative)
        at, n = dict.fromkeys(chains, 0), 0
        for m in at:
            at[m], n = n, n + m.n_states
        return tuple(at[m] for m in chains)

    @staticmethod
    def build(
        positive: list[Dtmc], negative: list[Dtmc], ap: list[str] | None = None
    ) -> "Sample":
        if ap is None:
            ap = sorted({a for m in (*positive, *negative) for a in m.ap})
        elif not isinstance(ap, (list, tuple)) or not all(isinstance(a, str) for a in ap):
            raise DtmcError("ap must be a list of names")
        for a in ap:
            try:
                if parse_ltl(a) == Lit(a):
                    continue
            except LtlParseError:
                pass
            raise DtmcError(f"proposition {a!r} is not a name a formula can use")
        ap_t = tuple(ap)
        return Sample(
            tuple(project(m, ap_t) for m in positive),
            tuple(project(m, ap_t) for m in negative),
            ap_t,
        )


def project(m: Dtmc, ap: tuple[str, ...]) -> Dtmc:
    """Restrict the chain's labelling to the given alphabet."""
    keep = set(ap)
    return Dtmc(
        n_states=m.n_states,
        init=m.init,
        ap=tuple(ap),
        labels=tuple(frozenset(lab & keep) or NO_LABELS for lab in m.labels),
        transitions=m.transitions,
    )


def disjoint_union(chains) -> Dtmc:
    """The chains side by side as one chain, in order.

    Every chain needs the same alphabet.  A chain's states are shifted
    by the states of the chains before it, so no transition joins two
    chains and the engine solves each chain's states as it would alone.
    The union starts in the first chain's initial state.  A single chain
    is returned unchanged.
    """
    chains = list(chains)
    if not chains:
        raise DtmcError("a disjoint union needs at least one chain")
    if len(chains) == 1:
        return chains[0]
    ap = chains[0].ap
    labels: list[frozenset[str]] = []
    edges: list[tuple[int, int, float]] = []
    for m in chains:
        if m.ap != ap:
            raise DtmcError(f"alphabets differ: {list(ap)} and {list(m.ap)}")
        base = len(labels)
        labels.extend(m.labels)
        edges.extend((base + s, base + t, p) for s, t, p in m.transitions)
    return Dtmc(
        n_states=len(labels),
        init=chains[0].init,
        ap=ap,
        labels=tuple(labels),
        transitions=tuple(edges),
    )


# ---------------------------------------------------------------------------
# MDPs and memoryless strategies


@dataclass(frozen=True)
class Mdp:
    """States with named action choices; each action is a distribution."""

    n_states: int
    init: int
    ap: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    # actions[s] maps action name -> tuple of (dst, prob)
    actions: tuple[dict[str, tuple[tuple[int, float], ...]], ...]

    def __post_init__(self):
        if len(self.actions) != self.n_states:
            raise DtmcError(
                f"expected {self.n_states} action maps, got {len(self.actions)}"
            )
        for s, acts in enumerate(self.actions):
            if not acts:
                raise DtmcError(f"state {s} has no actions")


def induced_dtmc(mdp: Mdp, strategy: dict[int, str]) -> Dtmc:
    """Resolve every choice with the given memoryless strategy."""
    edges: list[tuple[int, int, float]] = []
    for s in range(mdp.n_states):
        act = strategy.get(s)
        if act is None:
            raise DtmcError(f"strategy leaves state {s} unresolved")
        if act not in mdp.actions[s]:
            raise DtmcError(f"state {s} has no action {act!r}")
        merged: dict[int, float] = {}
        for t, p in mdp.actions[s][act]:
            merged[t] = merged.get(t, 0.0) + p
        edges.extend((s, t, p) for t, p in sorted(merged.items()))
    return Dtmc(
        n_states=mdp.n_states,
        init=mdp.init,
        ap=mdp.ap,
        labels=mdp.labels,
        transitions=tuple(edges),
    )


# ---------------------------------------------------------------------------
# JSON format


def _is(v, kind) -> bool:
    # JSON true and false load as bools, which Python counts as integers.
    return isinstance(v, kind) and not isinstance(v, bool)


def _json(v, kind: type, what: str):
    if not _is(v, kind):
        name = {int: "an integer", str: "a string", list: "a list"}[kind]
        raise DtmcError(f"{what} must be {name}, got {type(v).__name__}")
    return v


def load_json(text: str, what: str = "JSON"):
    """json.loads, with every way it fails as DtmcError("bad <what>: ...")."""
    try:
        return json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer past int's digit limit.
        raise DtmcError(f"bad {what}: {e}") from None
    except RecursionError:
        raise DtmcError(f"bad {what}: nested too deeply") from None


def _decimal(tok: str, err: str) -> int:
    """The integer tok writes as its plain ASCII decimal; DtmcError(err)
    for any other token, since int() alone also reads " 3 ", "+5", "03",
    "1_0" and other scripts' digits."""
    try:
        v = int(tok)
    except ValueError:
        raise DtmcError(err) from None
    if str(v) != tok:
        raise DtmcError(err)
    return v


def _check_state_count(n: int, n_edges: int) -> None:
    # Every state needs an outgoing transition, so a larger count is
    # rejected before anything is built per state.
    if n > n_edges:
        raise DtmcError(f"{n} states declared but only {n_edges} transitions")


def parse_json_dtmc(text: str) -> Dtmc:
    """Read the JSON chain format.

    Expected keys: states (int), init (int), ap (list of names), labels
    (map from a state index written as its plain decimal, or list, to
    lists of names), transitions (list of [src, dst, prob]: integers and
    a number within the float range, none of them true or false).
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise DtmcError(f"a chain must be a JSON object, got {type(doc).__name__}")
    for key in ("states", "init", "ap", "labels", "transitions"):
        if key not in doc:
            raise DtmcError(f"missing key {key!r}")
    n = _json(doc["states"], int, "states")
    init = _json(doc["init"], int, "init")
    edges = []
    for row in _json(doc["transitions"], list, "transitions"):
        if not (_is(row, list) and len(row) == 3 and all(map(_is, row, (int, int, (int, float))))):
            raise DtmcError(f"transition row {json.dumps(row)} is not [src, dst, prob]")
        try:
            p = float(row[2])
        except OverflowError:
            # An integer past the float range, such as 1 and 400 zeros.
            raise DtmcError(f"transition row {json.dumps(row)} has a probability out of range") from None
        edges.append((row[0], row[1], p))
    _check_state_count(n, len(edges))
    raw_labels = doc["labels"]
    if isinstance(raw_labels, dict):
        # No two keys name one state.
        items = [
            (_decimal(k, f"label key {k!r} is not a state index"), v)
            for k, v in raw_labels.items()
        ]
    elif isinstance(raw_labels, list):
        items = list(enumerate(raw_labels))
    else:
        raise DtmcError("labels must be a mapping or a list")
    labels: list[frozenset[str]] = [NO_LABELS] * n
    for idx, names in items:
        if not 0 <= idx < n:
            raise DtmcError(f"label for out-of-range state {idx}")
        names = _json(names, list, f"labels of state {idx}")
        names = frozenset(_json(x, str, f"a label of state {idx}") for x in names)
        labels[idx] = names or NO_LABELS
    return Dtmc(
        n_states=n,
        init=init,
        ap=tuple(_json(a, str, "a proposition in ap") for a in _json(doc["ap"], list, "ap")),
        labels=tuple(labels),
        transitions=tuple(edges),
    )


def dtmc_to_json(m: Dtmc) -> str:
    doc = {
        "states": m.n_states,
        "init": m.init,
        "ap": list(m.ap),
        "labels": {str(i): sorted(lab) for i, lab in enumerate(m.labels) if lab},
        "transitions": [[s, t, p] for s, t, p in m.transitions],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# PRISM explicit format (.tra / .lab pair)


def parse_prism_explicit(tra_text: str, lab_text: str) -> Dtmc:
    """Read a .tra/.lab pair as written by prism -exportmodel.

    The .tra header is "<states> <transitions>"; each following line is
    "src dst prob".  The .lab file starts with a declaration line of
    id="name" pairs, then "state: id id ..." lines.  The built-in labels
    init and deadlock are consumed but never become propositions; init
    must mark exactly one state.  Every integer must be its plain ASCII
    decimal, a probability a float written in ASCII without "_", and
    each label id is declared once.
    """
    tra_lines = [ln.strip() for ln in tra_text.splitlines()]
    tra_lines = [ln for ln in tra_lines if ln]
    if not tra_lines:
        raise DtmcError("empty .tra input")
    head = tra_lines[0].split()
    if len(head) != 2:
        raise DtmcError(f"bad .tra header {tra_lines[0]!r}")
    n, m_edges = (_decimal(tok, f"bad .tra header {tra_lines[0]!r}") for tok in head)
    edges = []
    for ln in tra_lines[1:]:
        parts = ln.split()
        bad = f"bad .tra line {ln!r}"
        if len(parts) != 3 or "_" in parts[2] or not parts[2].isascii():
            raise DtmcError(bad)
        try:
            p = float(parts[2])
        except ValueError:
            raise DtmcError(bad) from None
        edges.append((_decimal(parts[0], bad), _decimal(parts[1], bad), p))
    if len(edges) != m_edges:
        raise DtmcError(f"header promises {m_edges} transitions, found {len(edges)}")
    _check_state_count(n, len(edges))

    lab_lines = [ln.strip() for ln in lab_text.splitlines() if ln.strip()]
    if not lab_lines:
        raise DtmcError("empty .lab input")
    id_to_name: dict[int, str] = {}
    for part in lab_lines[0].split():
        if "=" not in part:
            raise DtmcError(f"bad .lab declaration {part!r}")
        num, name = part.split("=", 1)
        i = _decimal(num, f"bad .lab declaration {part!r} in {lab_lines[0]!r}")
        if i in id_to_name:
            raise DtmcError(f"label id {i} declared twice in {lab_lines[0]!r}")
        id_to_name[i] = name.strip('"')
    labels = [set() for _ in range(n)]
    init_states = []
    for ln in lab_lines[1:]:
        if ":" not in ln:
            raise DtmcError(f"bad .lab line {ln!r}")
        st_s, ids_s = ln.split(":", 1)
        st = _decimal(st_s, f"bad .lab line {ln!r}")
        if not 0 <= st < n:
            raise DtmcError(f"label line for out-of-range state {st}")
        for tok in ids_s.split():
            name = id_to_name.get(_decimal(tok, f"bad .lab line {ln!r}"))
            if name is None:
                raise DtmcError(f"undeclared label id {tok} on state {st}")
            if name == "init":
                init_states.append(st)
            elif name != "deadlock":
                labels[st].add(name)
    if len(init_states) != 1:
        raise DtmcError(f"need exactly one init state, found {len(init_states)}")
    ap = sorted(name for name in id_to_name.values() if name not in ("init", "deadlock"))
    return Dtmc(
        n_states=n,
        init=init_states[0],
        ap=tuple(ap),
        labels=tuple(frozenset(l) or NO_LABELS for l in labels),
        transitions=tuple(edges),
    )


def dtmc_to_prism(m: Dtmc) -> tuple[str, str]:
    """Render (.tra text, .lab text).

    Raises DtmcError for a proposition that parse_prism_explicit would
    not read back: init or deadlock, a name with whitespace, or one that
    starts or ends with a double quote.
    """
    for a in m.ap:
        if a in ("init", "deadlock") or a.strip('"') != a or any(ch.isspace() for ch in a):
            raise DtmcError(f"proposition {a!r} cannot be a PRISM label")
    tra = [f"{m.n_states} {len(m.transitions)}"]
    tra += [f"{s} {t} {p!r}" for s, t, p in m.transitions]
    name_to_id = {"init": 0}
    for a in m.ap:
        name_to_id[a] = len(name_to_id)
    decl = " ".join(f'{i}="{name}"' for name, i in name_to_id.items())
    lab = [decl]
    for s in range(m.n_states):
        ids = []
        if s == m.init:
            ids.append(0)
        ids += sorted(name_to_id[a] for a in m.labels[s])
        if ids:
            lab.append(f"{s}: " + " ".join(str(i) for i in ids))
    return "\n".join(tra) + "\n", "\n".join(lab) + "\n"
