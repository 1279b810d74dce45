"""LTL in negation normal form, plus probabilistic-threshold formulas on top.

Formula trees are immutable.  Size (operator + literal count), temporal
nesting depth, and a stable 64-bit structural hash are computed once at
construction and cached on the node.  The hash is derived from blake2b so
it does not vary across interpreter runs; equal hashes are always
re-checked by full structural comparison (dict/set semantics do this).

A formula is canonical when every And/Or chain in it is left-associated
with its operands in (structural hash, printed form) order.  ``join``,
``boolean_simplify_applies`` and ``is_complement`` take canonical
operands and do not canonicalize them again; ``canonicalize`` makes any
formula canonical.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "LtlFormula",
    "Lit",
    "And",
    "Or",
    "Next",
    "Finally",
    "Globally",
    "Until",
    "LtlParseError",
    "parse_ltl",
    "print_ltl",
    "canonicalize",
    "join",
    "nnf_dual",
    "is_complement",
    "temporal_simplify_applies",
    "boolean_simplify_applies",
    "PltlAtom",
    "PltlAnd",
    "PltlOr",
    "PltlFormula",
    "print_pltl",
]


def _mix(tag: str, *parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(tag.encode("ascii"))
    for p in parts:
        if isinstance(p, int):
            h.update(p.to_bytes(8, "little"))
        else:
            h.update(b"\x00" + str(p).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def _node_hash(self) -> int:
    return self.hash64


@dataclass(frozen=True)
class LtlFormula:
    """Base class for NNF LTL nodes."""

    size: int = field(init=False, compare=False, repr=False)
    depth: int = field(init=False, compare=False, repr=False)
    hash64: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s, d, h = self._measure()
        object.__setattr__(self, "size", s)
        object.__setattr__(self, "depth", d)
        object.__setattr__(self, "hash64", h)

    def _measure(self):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Lit(LtlFormula):
    name: str = ""
    positive: bool = True

    def _measure(self):
        return 1, 0, _mix("lit", self.name, int(self.positive))

    __hash__ = _node_hash


@dataclass(frozen=True)
class _Unary(LtlFormula):
    """A temporal operator over one child; subclasses set ``symbol``."""

    child: LtlFormula = None

    def _measure(self):
        c = self.child
        return c.size + 1, c.depth + 1, _mix(self.symbol, c.hash64)

    __hash__ = _node_hash


@dataclass(frozen=True)
class _Binary(LtlFormula):
    """An operator over two operands; subclasses set ``symbol``."""

    left: LtlFormula = None
    right: LtlFormula = None

    def _measure(self):
        l, r = self.left, self.right
        return l.size + r.size + 1, max(l.depth, r.depth), _mix(self.symbol, l.hash64, r.hash64)

    __hash__ = _node_hash


class Next(_Unary):
    symbol = "X"


class Finally(_Unary):
    symbol = "F"


class Globally(_Unary):
    symbol = "G"


class And(_Binary):
    symbol = "&"


class Or(_Binary):
    symbol = "|"


class Until(_Binary):
    symbol = "U"

    def _measure(self):
        size, depth, h = super()._measure()
        return size, depth + 1, h


# ---------------------------------------------------------------------------
# Concrete syntax

_UNARY_OPS = {c.symbol: c for c in (Next, Finally, Globally)}
_BIN_CLS = {c.symbol: c for c in (And, Or, Until)}
_RESERVED = {*_UNARY_OPS, Until.symbol}


class LtlParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()!&|":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "op" if word in _RESERVED else "ident"
            toks.append((kind, word, i))
            i = j
            continue
        raise LtlParseError(f"unexpected character {ch!r}", i)
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self):
        node = self._group_body()
        kind, val, pos = self.peek()
        if kind == "eof":
            return node
        if val in _BIN_CLS:
            raise LtlParseError(
                f"binary operator {val!r} requires enclosing parentheses", pos
            )
        raise LtlParseError(f"unexpected token {val!r}", pos)

    def _group_body(self):
        left = self._unary()
        val = self.peek()[1]
        if val in _BIN_CLS:
            self.take()
            right = self._unary()
            _, v2, p2 = self.peek()
            if v2 in _BIN_CLS:
                raise LtlParseError(
                    "chained binary operators need explicit parentheses", p2
                )
            return _BIN_CLS[val](left, right)
        return left

    def _unary(self):
        kind, val, pos = self.take()
        if val == "(":
            node = self._group_body()
            k2, v2, p2 = self.take()
            if v2 != ")":
                raise LtlParseError("expected ')'", p2)
            return node
        if val == "!":
            node = self._unary()
            dual = nnf_dual(node)
            if dual is None:
                raise LtlParseError(
                    f"negation of an until subterm is outside the NNF grammar: "
                    f"{print_ltl(_first_until(node))}"
                )
            return dual
        if kind == "op" and val in _UNARY_OPS:
            return _UNARY_OPS[val](self._unary())
        if kind == "ident":
            return Lit(val)
        raise LtlParseError(f"unexpected token {val!r}", pos)


def _first_until(f: LtlFormula) -> Until | None:
    """The first until subterm of f in pre-order, or None."""
    if isinstance(f, Until):
        return f
    if isinstance(f, _Binary):
        return _first_until(f.left) or _first_until(f.right)
    if isinstance(f, _Unary):
        return _first_until(f.child)
    return None


def parse_ltl(text: str) -> LtlFormula:
    """Parse the ASCII concrete syntax into an NNF formula.

    Binary operators must be parenthesized: ``(a U b)``, ``F(a & F(b))``.
    Each ``!`` applies ``nnf_dual`` to its operand at once; U has no NNF
    dual, so an operand containing an until is rejected, even under ``!!``.
    """
    try:
        return _Parser(_tokenize(text)).parse()
    except RecursionError:
        raise LtlParseError("formula nested too deeply") from None


def print_ltl(f: LtlFormula) -> str:
    if isinstance(f, Lit):
        return f.name if f.positive else f"!{f.name}"
    if isinstance(f, _Unary):
        return f"{f.symbol}({_bare(f.child)})"
    return f"({print_ltl(f.left)} {f.symbol} {print_ltl(f.right)})"


def _bare(f: LtlFormula) -> str:
    # Parentheses of a unary operator already delimit a binary child.
    if isinstance(f, _Binary):
        return f"{print_ltl(f.left)} {f.symbol} {print_ltl(f.right)}"
    return print_ltl(f)


# ---------------------------------------------------------------------------
# Canonical form and syntactic simplification predicates


def _operands(f: LtlFormula, cls) -> list[LtlFormula]:
    """The operands of a left-associated cls chain, in order."""
    return _operands(f.left, cls) + [f.right] if isinstance(f, cls) else [f]


def join(cls, f: LtlFormula, g: LtlFormula) -> LtlFormula:
    """The canonical cls(f, g) of two canonical operands, cls And or Or.

    The operand chains of f and g are merged in (structural hash,
    printed form) order and rebuilt left-associatively; operands are not
    looked into, since they are canonical already.
    """
    ops = sorted(_operands(f, cls) + _operands(g, cls), key=lambda h: h.hash64)
    if len({h.hash64 for h in ops}) < len(ops):  # only ties need printing
        ops.sort(key=lambda h: (h.hash64, print_ltl(h)))
    out = ops[0]
    for h in ops[1:]:
        out = cls(out, h)
    return out


def canonicalize(f: LtlFormula) -> LtlFormula:
    """The canonical form of any f: the bottom-up fold of ``join``.

    Size and semantics are unchanged.  The enumerator builds every
    candidate from canonical operands with ``join`` and never needs this.
    """
    if isinstance(f, Lit):
        return f
    if isinstance(f, _Unary):
        return type(f)(canonicalize(f.child))
    if isinstance(f, Until):
        return Until(canonicalize(f.left), canonicalize(f.right))
    return join(type(f), canonicalize(f.left), canonicalize(f.right))


_DUAL = {Next: Next, Finally: Globally, Globally: Finally, And: Or, Or: And}


def nnf_dual(f: LtlFormula) -> LtlFormula | None:
    """The NNF negation of f in f's operand order (so not always
    canonical), or None when it leaves the grammar (U)."""
    if isinstance(f, Lit):
        return Lit(f.name, not f.positive)
    if isinstance(f, _Unary):
        inner = nnf_dual(f.child)
        return None if inner is None else _DUAL[type(f)](inner)
    if isinstance(f, (And, Or)):
        l, r = nnf_dual(f.left), nnf_dual(f.right)
        return None if l is None or r is None else _DUAL[type(f)](l, r)
    return None


def is_complement(f: LtlFormula, g: LtlFormula) -> bool:
    """True iff g is the canonical NNF dual of f; both must be canonical."""
    if f.size != g.size:  # a dual has the size of its formula
        return False
    d = nnf_dual(f)
    return d is not None and canonicalize(d) == g


def temporal_simplify_applies(f: LtlFormula) -> bool:
    """True iff a rule from the fixed root rule set matches.

    The retained normal forms are: single F/G over anything but X and the
    same operator, XF/XG instead of FX/GX, GF and FG as the only F/G
    alternations, X pushed over binary operators, and right-linear U
    without absorbed repetition.
    """
    if isinstance(f, Finally):
        c = f.child
        if isinstance(c, (Finally, Next)):
            return True  # FF phi = F phi; FX phi = XF phi (retained)
        if isinstance(c, Globally) and isinstance(c.child, Finally):
            return True  # FGF phi = GF phi
        return False
    if isinstance(f, Globally):
        c = f.child
        if isinstance(c, (Globally, Next)):
            return True  # GG phi = G phi; GX phi = XG phi (retained)
        if isinstance(c, Finally) and isinstance(c.child, Globally):
            return True  # GFG phi = FG phi
        return False
    if isinstance(f, Or):
        if isinstance(f.left, Finally) and isinstance(f.right, Finally):
            return True  # F phi | F psi = F(phi | psi)
        return isinstance(f.left, Next) and isinstance(f.right, Next)
    if isinstance(f, And):
        if isinstance(f.left, Globally) and isinstance(f.right, Globally):
            return True  # G phi & G psi = G(phi & psi)
        return isinstance(f.left, Next) and isinstance(f.right, Next)
    if isinstance(f, Until):
        if isinstance(f.left, Next) and isinstance(f.right, Next):
            return True  # X phi U X psi = X(phi U psi)
        if isinstance(f.right, Until) and f.right.left == f.left:
            return True  # phi U (phi U psi) = phi U psi
        if isinstance(f.left, Until) and f.left.right == f.right:
            return True  # (phi U psi) U psi = phi U psi
        return False
    return False


def boolean_simplify_applies(f: LtlFormula, g: LtlFormula) -> bool:
    """Syntactic collapse check for a binary combination of canonical f and g.

    Fires when the operands are equal or NNF complements of each other.
    Either way the combination is equivalent to a strictly smaller
    retained formula or to a constant, so it is never needed.  Operands
    that are not canonical can miss a match.
    """
    return f == g or is_complement(f, g)


# ---------------------------------------------------------------------------
# Probabilistic layer: positive Boolean combinations of P_{>r}[phi] atoms


@dataclass(frozen=True)
class PltlAtom:
    threshold: float
    body: LtlFormula

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1): {self.threshold}")


@dataclass(frozen=True)
class PltlAnd:
    left: "PltlFormula"
    right: "PltlFormula"


@dataclass(frozen=True)
class PltlOr:
    left: "PltlFormula"
    right: "PltlFormula"


PltlFormula = PltlAtom | PltlAnd | PltlOr


def print_pltl(f: PltlFormula) -> str:
    if isinstance(f, PltlAtom):
        return f"P>{f.threshold:.6g} [{print_ltl(f.body)}]"
    sym = "&" if isinstance(f, PltlAnd) else "|"
    return f"({print_pltl(f.left)} {sym} {print_pltl(f.right)})"
