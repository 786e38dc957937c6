"""Poset constructors: chains, products, ordinal sums, ideal lattices.

An expression tree of the frozen nodes below describes how a poset is
assembled; build() turns it into a concrete Poset.  Element keys record the
assembly (pairs of operand keys for products, (side, index in the operand)
for sums, ideal masks for J), so structural encoders can find their way
around the result.  GRAMMAR gives each node's text form, which to_text
prints and parse_poset_expr reads.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Union

from ._record import Record
from .poset import CapExceeded, DEFAULT_CAP, NotGraded, Poset, ideal_masks
from .roots import FAMILY_RANK_RANGE

PosetExpr = Union["Chain", "K", "H", "Prod", "OSum", "DUnion", "J", "Layer"]


class _Node(Record):
    """A frozen expression node.  Its fields are its slots, set once in
    __init__; assigning to one raises AttributeError, so copy and pickle
    rebuild a node through __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


_set = object.__setattr__


class Chain(_Node):
    """Total order on n elements, keys 1..n."""

    __slots__ = _fields = __match_args__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)


class K(_Node):
    """Chain of length r, then two incomparable elements, then a chain of
    length r.  2r+2 elements, height 2r+1; the two middle elements sit at
    rank r+1 with keys str(r+1) and str(r+1)+"'".
    """

    __slots__ = _fields = __match_args__ = ("r",)

    def __init__(self, r: int):
        _set(self, "r", r)


class H(_Node):
    """Pairs (i, j) with 1 <= i <= j <= n ordered componentwise."""

    __slots__ = _fields = __match_args__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)


class _Pair(_Node):
    __slots__ = _fields = __match_args__ = ("left", "right")

    def __init__(self, left: PosetExpr, right: PosetExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class Prod(_Pair):
    """Product order on pairs (a, b)."""

    __slots__ = ()


class OSum(_Pair):
    """Ordinal sum: everything on the left below everything on the right."""

    __slots__ = ()


class DUnion(_Pair):
    """Disjoint union.  Graded only when both parts have equal height."""

    __slots__ = ()


class J(_Node):
    """Lattice of order ideals of the inner poset, ordered by inclusion."""

    __slots__ = _fields = __match_args__ = ("inner",)

    def __init__(self, inner: PosetExpr):
        _set(self, "inner", inner)


class Layer(_Node):
    """Positive roots with pivot coefficient exactly 1 in a root system."""

    __slots__ = _fields = __match_args__ = ("family", "rank", "pivot")

    def __init__(self, family: str, rank: int, pivot: int):
        _set(self, "family", family)
        _set(self, "rank", rank)
        _set(self, "pivot", pivot)


# The text form of every node, read by both to_text and parse_poset_expr:
# the node's name and the kinds of its fields, in order.  "int" is an
# integer of at least 1, "count" one of at least 0, "expr" a nested
# expression, "system" the family letter and rank of a root system written
# as one token (E6), and "pivot" an int of at most that rank.  Names are
# read in any case.
GRAMMAR = {
    Chain: ("chain", ("int",)),
    K: ("K", ("count",)),
    H: ("H", ("int",)),
    Prod: ("prod", ("expr", "expr")),
    OSum: ("osum", ("expr", "expr")),
    DUnion: ("dunion", ("expr", "expr")),
    J: ("J", ("expr",)),
    Layer: ("layer", ("system", "pivot")),
}
_BY_NAME = {name.lower(): (node, kinds)
            for node, (name, kinds) in GRAMMAR.items()}


def to_text(expr: PosetExpr) -> str:
    """Expression in the form parse_poset_expr reads."""
    if type(expr) not in GRAMMAR:
        raise TypeError(f"not a poset expression: {expr!r}")
    name, kinds = GRAMMAR[type(expr)]
    values = iter(expr._values())
    fields = []
    for kind in kinds:
        value = next(values)
        if kind == "expr":
            value = to_text(value)
        elif kind == "system":
            value = f"{value}{next(values)}"
        fields.append(str(value))
    return f"{name}({','.join(fields)})"


class ExprParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


# the deepest nesting parse_poset_expr reads, counted in constructors:
# below the interpreter's recursion limit, with room for build and to_text
MAX_DEPTH = 500


def parse_poset_expr(text: str) -> PosetExpr:
    """The expression that text spells in GRAMMAR, NAME(FIELD,...) nested
    at most MAX_DEPTH constructors deep, with case and whitespace ignored.
    A text that is none raises ExprParseError at the offset of its first
    fault."""
    expr, pos = _parse(text, 0, 1)
    pos = _skip_space(text, pos)
    if pos != len(text):
        raise ExprParseError("unexpected trailing input", pos)
    return expr


def _parse(text: str, pos: int, depth: int) -> tuple[PosetExpr, int]:
    """The expression that starts at pos, depth constructors deep, and the
    offset after it."""
    name, start, pos = _word(text, pos)
    if depth > MAX_DEPTH:
        raise ExprParseError(
            f"expressions nest at most {MAX_DEPTH} constructors deep", start)
    pos = _expect(text, pos, "(")
    if name.lower() not in _BY_NAME:
        raise ExprParseError(f"unknown constructor {name!r}", start)
    node, kinds = _BY_NAME[name.lower()]
    values: list = []
    for k, kind in enumerate(kinds):
        if k:
            pos = _expect(text, pos, ",")
        if kind == "expr":
            value, pos = _parse(text, pos, depth + 1)
            values.append(value)
        elif kind == "system":
            token, start, pos = _word(text, pos)
            family, digits = token[:1].upper(), token[1:]
            if family not in FAMILY_RANK_RANGE or not digits.isdecimal():
                raise ExprParseError("expected a system name like A3 or E6",
                                     start)
            rank = int(digits)
            lo, hi = FAMILY_RANK_RANGE[family]
            if rank < lo or (hi is not None and rank > hi):
                raise ExprParseError(f"{family}{rank} is not a valid system",
                                     start)
            values += (family, rank)
        else:
            digits, start, end = _run(text, pos, str.isdecimal)
            if not digits:
                raise ExprParseError("expected an integer", start)
            value = int(digits)
            if value < 1 and kind != "count":
                raise ExprParseError("integer parameters must be at least 1",
                                     start)
            if kind == "pivot" and value > values[-1]:
                # offset of the field, before any space
                raise ExprParseError(
                    f"pivot {value} outside 1..{values[-1]}", pos)
            values.append(value)
            pos = end
    return node(*values), _expect(text, pos, ")")


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _run(text: str, pos: int, accept) -> tuple[str, int, int]:
    """After any space at pos, the longest run of characters that accept
    passes: (run, its start, its end)."""
    start = end = _skip_space(text, pos)
    while end < len(text) and accept(text[end]):
        end += 1
    return text[start:end], start, end


def _word(text: str, pos: int) -> tuple[str, int, int]:
    word, start, end = _run(text, pos, lambda ch: ch.isalnum() or ch == "_")
    if not word:
        raise ExprParseError("expected a name", start)
    return word, start, end


def _expect(text: str, pos: int, ch: str) -> int:
    pos = _skip_space(text, pos)
    if text[pos:pos + 1] != ch:
        raise ExprParseError(f"expected {ch!r}", pos)
    return pos + 1


def build(expr: PosetExpr, cap: int = DEFAULT_CAP) -> Poset:
    # every poset has more ideals than elements, so the ideal cap also
    # bounds the element count we are willing to materialize
    match expr:
        case Chain(n):
            result = _chain(n) if n <= cap else None
        case K(r):
            result = _k_poset(r) if 2 * (r + 1) <= cap else None
        case H(n):
            result = _h_poset(n) if n * (n + 1) <= 2 * cap else None
        case Prod(a, b):
            pa, pb = build(a, cap), build(b, cap)
            big = pa.n_elements * pb.n_elements > cap
            result = None if big else _product(pa, pb)
        case OSum(a, b):
            result = _side_by_side(build(a, cap), build(b, cap), True)
        case DUnion(a, b):
            result = _side_by_side(build(a, cap), build(b, cap), False)
        case J(inner):
            result = _ideal_lattice(build(inner, cap), cap)
        case Layer(family, rank, pivot):
            from .roots import layer
            result = layer(family, rank, pivot, cap).poset
        case _:
            raise TypeError(f"not a poset expression: {expr!r}")
    if result is None or result.n_elements > cap:
        raise CapExceeded(f"more than {cap} elements")
    return result


def _chain(n: int) -> Poset:
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    elements = [(i, i, str(i)) for i in range(1, n + 1)]
    covers = [(i, i + 1) for i in range(1, n)]
    return Poset.from_cover_data(elements, covers)


def _k_poset(r: int) -> Poset:
    if r < 0:
        raise ValueError("K parameter must be nonnegative")
    mid, mid2 = str(r + 1), str(r + 1) + "'"
    elements = [(str(i), i, str(i)) for i in range(1, r + 1)]
    elements += [(mid, r + 1, mid), (mid2, r + 1, mid2)]
    elements += [(str(i), i, str(i)) for i in range(r + 2, 2 * r + 2)]
    covers = []
    for i in range(1, r):
        covers.append((str(i), str(i + 1)))
    for i in range(r + 2, 2 * r + 1):
        covers.append((str(i), str(i + 1)))
    if r >= 1:
        covers += [(str(r), mid), (str(r), mid2),
                   (mid, str(r + 2)), (mid2, str(r + 2))]
    return Poset.from_cover_data(elements, covers, 2 * r + 4)


def _h_poset(n: int) -> Poset:
    if n < 1:
        raise ValueError("H parameter must be positive")
    elements = [((i, j), i + j - 1, f"({i},{j})")
                for j in range(1, n + 1) for i in range(1, j + 1)]
    covers = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            if i + 1 <= j:
                covers.append(((i, j), (i + 1, j)))
            if j + 1 <= n:
                covers.append(((i, j), (i, j + 1)))
    return Poset.from_cover_data(elements, covers, 1 << n)


def _product(pa: Poset, pb: Poset) -> Poset:
    elements = []
    for i in range(pa.n_elements):
        for j in range(pb.n_elements):
            key = (pa.keys[i], pb.keys[j])
            rank = pa.rank[i] + pb.rank[j] - 1
            elements.append((key, rank, f"({pa.labels[i]},{pb.labels[j]})"))
    covers = []
    for i, i2 in pa.covers:
        for j in range(pb.n_elements):
            covers.append(((pa.keys[i], pb.keys[j]), (pa.keys[i2], pb.keys[j])))
    for j, j2 in pb.covers:
        for i in range(pa.n_elements):
            covers.append(((pa.keys[i], pb.keys[j]), (pa.keys[i], pb.keys[j2])))
    # the product has at least the ideals of each induced subposet: each
    # operand, while the other has an element, and a maximal chain of one
    # times the other, with C(h + n, h) ideals or more
    min_ideals = 1
    if elements:
        min_ideals = max(pa.min_ideals, pb.min_ideals,
                         comb(pa.max_rank + pb.n_elements, pa.max_rank),
                         comb(pb.max_rank + pa.n_elements, pb.max_rank))
    return Poset.from_cover_data(elements, covers, min_ideals)


def _side_by_side(pa: Poset, pb: Poset, ordinal: bool) -> Poset:
    """pa and pb side by side, element i of side s keyed (s, i).  The
    ordinal sum raises pb's ranks by pa's height and puts every bottom of pb
    over every top of pa; the disjoint union adds no cover, and is graded
    only when pa and pb are equally high."""
    if not ordinal and pa.max_rank != pb.max_rank:
        raise NotGraded(
            f"disjoint union of heights {pa.max_rank} and {pb.max_rank} "
            "is not graded"
        )
    shift = pa.max_rank if ordinal else 0
    elements = [((0, i), pa.rank[i], pa.labels[i])
                for i in range(pa.n_elements)]
    elements += [((1, j), pb.rank[j] + shift, pb.labels[j])
                 for j in range(pb.n_elements)]
    covers = [((0, i), (0, j)) for i, j in pa.covers]
    covers += [((1, i), (1, j)) for i, j in pb.covers]
    # an ideal of the ordinal sum is a proper ideal of pa, or all of pa
    # with an ideal of pb; one of the disjoint union is a pair of ideals
    min_ideals = pa.min_ideals * pb.min_ideals
    if ordinal:
        min_ideals = pa.min_ideals + pb.min_ideals - 1
        tops = [i for i in range(pa.n_elements) if pa.rank[i] == pa.max_rank]
        bottoms = [j for j in range(pb.n_elements) if pb.rank[j] == 1]
        covers += [((0, i), (1, j)) for i in tops for j in bottoms]
    return Poset.from_cover_data(elements, covers, min_ideals)


def _ideal_lattice(p: Poset, cap: int) -> Poset:
    masks = list(ideal_masks(p, cap))
    width = max(p.n_elements, 1)
    elements = []
    for mask in masks:
        label = format(mask, f"0{width}b")[::-1] if p.n_elements else "-"
        elements.append((mask, mask.bit_count() + 1, label))
    strict_down = [p.down[i] ^ (1 << i) for i in range(p.n_elements)]
    covers = []
    for mask in masks:
        for x in range(p.n_elements):
            if not mask >> x & 1 and strict_down[x] & ~mask == 0:
                covers.append((mask, mask | (1 << x)))
    return Poset.from_cover_data(elements, covers)


@lru_cache(maxsize=None)
def grid_poset(m: int, n: int) -> Poset:
    """Product of two chains; element (i, j) has rank i + j - 1."""
    return build(Prod(Chain(m), Chain(n)))


@lru_cache(maxsize=None)
def k_product_poset(m: int, n: int) -> Poset:
    """Product of the chain 1..m with the two-strand poset on 2n elements."""
    if n < 1:
        raise ValueError("need n >= 1")
    return build(Prod(Chain(m), K(n - 1)))
