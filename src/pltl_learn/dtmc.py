"""Discrete-time Markov chains, samples, and the file formats we read/write.

States are 0-based integers.  Labels are stored as frozensets of
proposition names.  Transition structure is kept as a flat edge list
(src, dst, prob); per-state successor lists are built lazily.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

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
    "induced_dtmc",
]

_ROW_TOL = 1e-9


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
    """

    positive: tuple[Dtmc, ...]
    negative: tuple[Dtmc, ...]
    ap: tuple[str, ...]

    def __post_init__(self):
        if not self.positive or not self.negative:
            raise DtmcError("a sample needs at least one chain on each side")

    @staticmethod
    def build(
        positive: list[Dtmc], negative: list[Dtmc], ap: list[str] | None = None
    ) -> "Sample":
        if ap is None:
            names: set[str] = set()
            for m in [*positive, *negative]:
                names |= set(m.ap)
            ap = sorted(names)
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
        labels=tuple(frozenset(lab & keep) for lab in m.labels),
        transitions=m.transitions,
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


def _json_int(v, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise DtmcError(f"{what} must be an integer, got {type(v).__name__}")
    return v


def _json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise DtmcError(f"{what} must be a list, got {type(v).__name__}")
    return v


def parse_json_dtmc(text: str) -> Dtmc:
    """Read the JSON chain format.

    Expected keys: states (int), init (int), ap (list of names), labels
    (map from state index as string, or list, to lists of names),
    transitions (list of [src, dst, prob]).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DtmcError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DtmcError(f"a chain must be a JSON object, got {type(doc).__name__}")
    for key in ("states", "init", "ap", "labels", "transitions"):
        if key not in doc:
            raise DtmcError(f"missing key {key!r}")
    n = _json_int(doc["states"], "states")
    init = _json_int(doc["init"], "init")
    raw_labels = doc["labels"]
    labels: list[frozenset[str]] = [frozenset()] * n
    if isinstance(raw_labels, dict):
        items = []
        for k, v in raw_labels.items():
            try:
                items.append((int(k), v))
            except ValueError:
                raise DtmcError(f"label key {k!r} is not a state index") from None
    elif isinstance(raw_labels, list):
        items = list(enumerate(raw_labels))
    else:
        raise DtmcError("labels must be a mapping or a list")
    for idx, names in items:
        if not 0 <= idx < n:
            raise DtmcError(f"label for out-of-range state {idx}")
        labels[idx] = frozenset(str(x) for x in _json_list(names, f"labels of state {idx}"))
    edges = []
    for row in _json_list(doc["transitions"], "transitions"):
        try:
            if not isinstance(row, list) or len(row) != 3:
                raise TypeError
            edges.append((int(row[0]), int(row[1]), float(row[2])))
        except (TypeError, ValueError):
            raise DtmcError(f"transition row {row!r} is not [src, dst, prob]") from None
    return Dtmc(
        n_states=n,
        init=init,
        ap=tuple(str(a) for a in _json_list(doc["ap"], "ap")),
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
    must mark exactly one state.
    """
    tra_lines = [ln.strip() for ln in tra_text.splitlines()]
    tra_lines = [ln for ln in tra_lines if ln]
    if not tra_lines:
        raise DtmcError("empty .tra input")
    head = tra_lines[0].split()
    if len(head) != 2:
        raise DtmcError(f"bad .tra header {tra_lines[0]!r}")
    try:
        n, m_edges = int(head[0]), int(head[1])
    except ValueError:
        raise DtmcError(f"bad .tra header {tra_lines[0]!r}") from None
    edges = []
    for ln in tra_lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise DtmcError(f"bad .tra line {ln!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if len(edges) != m_edges:
        raise DtmcError(f"header promises {m_edges} transitions, found {len(edges)}")

    lab_lines = [ln.strip() for ln in lab_text.splitlines() if ln.strip()]
    if not lab_lines:
        raise DtmcError("empty .lab input")
    id_to_name: dict[int, str] = {}
    for part in lab_lines[0].split():
        if "=" not in part:
            raise DtmcError(f"bad .lab declaration {part!r}")
        num, name = part.split("=", 1)
        id_to_name[int(num)] = name.strip('"')
    labels = [set() for _ in range(n)]
    init_states = []
    for ln in lab_lines[1:]:
        if ":" not in ln:
            raise DtmcError(f"bad .lab line {ln!r}")
        st_s, ids_s = ln.split(":", 1)
        st = int(st_s)
        if not 0 <= st < n:
            raise DtmcError(f"label line for out-of-range state {st}")
        for tok in ids_s.split():
            name = id_to_name.get(int(tok))
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
        labels=tuple(frozenset(l) for l in labels),
        transitions=tuple(edges),
    )


def dtmc_to_prism(m: Dtmc) -> tuple[str, str]:
    """Render (.tra text, .lab text)."""
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
