"""The catalog of posets whose orbit averages are constant.

Three infinite families (two-chain grids, shifted staircases, chain-times-K
products) and twenty sporadic entries.  Every entry is realized as a
coefficient-one layer of a root system; the sporadic ones that also have a
combinator expression carry it so the two constructions can be checked
against each other.
"""

from __future__ import annotations

from ._record import TupleRecord
from .constructions import Chain, H, J, K, Layer, PosetExpr, Prod, build
from .poset import Poset
from .roots import RootLayer, layer


class CatalogEntry(TupleRecord):
    __slots__ = ()
    name: str
    expr: PosetExpr | None
    layer_family: str
    layer_rank: int
    layer_pivot: int

    def realize_layer(self, cap: int | None = None) -> RootLayer:
        """The entry's layer; CapExceeded past cap elements."""
        return layer(self.layer_family, self.layer_rank, self.layer_pivot,
                     cap)

    def realize_poset(self) -> Poset:
        return self.realize_layer().poset


def _j2_grid23() -> PosetExpr:
    return J(J(Prod(Chain(2), Chain(3))))


def _j3_grid23() -> PosetExpr:
    return J(_j2_grid23())


SPORADIC: tuple[CatalogEntry, ...] = (
    CatalogEntry("[2]x[3]x[3]",
                 Prod(Chain(2), Prod(Chain(3), Chain(3))), "E", 6, 4),
    CatalogEntry("[2]x[3]x[4]",
                 Prod(Chain(2), Prod(Chain(3), Chain(4))), "E", 7, 4),
    CatalogEntry("[2]x[3]x[5]",
                 Prod(Chain(2), Prod(Chain(3), Chain(5))), "E", 8, 4),
    CatalogEntry("[2]xH4", Prod(Chain(2), H(4)), "E", 6, 3),
    CatalogEntry("[3]xH4", Prod(Chain(3), H(4)), "E", 7, 5),
    CatalogEntry("[4]xH4", Prod(Chain(4), H(4)), "E", 8, 5),
    CatalogEntry("[2]xH5", Prod(Chain(2), H(5)), "E", 7, 3),
    CatalogEntry("[2]xH6", Prod(Chain(2), H(6)), "E", 8, 3),
    CatalogEntry("J2([2]x[3])", _j2_grid23(), "E", 6, 1),
    CatalogEntry("[2]xJ2([2]x[3])",
                 Prod(Chain(2), _j2_grid23()), "E", 7, 6),
    CatalogEntry("[3]xJ2([2]x[3])",
                 Prod(Chain(3), _j2_grid23()), "E", 8, 6),
    CatalogEntry("J3([2]x[3])", _j3_grid23(), "E", 7, 7),
    CatalogEntry("[2]xJ3([2]x[3])",
                 Prod(Chain(2), _j3_grid23()), "E", 8, 7),
    CatalogEntry("layer(F4,4)", None, "F", 4, 4),
    CatalogEntry("layer(E6,2)", None, "E", 6, 2),
    CatalogEntry("layer(E7,1)", None, "E", 7, 1),
    CatalogEntry("layer(E7,2)", None, "E", 7, 2),
    CatalogEntry("layer(E8,1)", None, "E", 8, 1),
    CatalogEntry("layer(E8,2)", None, "E", 8, 2),
    CatalogEntry("layer(E8,8)", None, "E", 8, 8),
)


class FamilyEntry(TupleRecord):
    __slots__ = ()
    name: str
    description: str


FAMILIES: tuple[FamilyEntry, ...] = (
    FamilyEntry("grid", "[m]x[n], two chains"),
    FamilyEntry("staircase", "H(n), shifted staircase"),
    FamilyEntry("kproduct", "[m]xK(n-1), chain times a two-strand diamond"),
)


def grid_entry(m: int, n: int) -> tuple[PosetExpr, Layer]:
    """A grid and its layer realization."""
    if m < 1 or n < 1:
        raise ValueError("grid sides must be positive")
    return Prod(Chain(m), Chain(n)), Layer("A", m + n - 1, m)


def staircase_entry(n: int) -> tuple[PosetExpr, Layer]:
    if n < 1:
        raise ValueError("staircase size must be positive")
    if n == 1:
        # the rank-1 system is labeled A1, not C1
        return H(1), Layer("A", 1, 1)
    return H(n), Layer("C", n, n)


def k_product_entry(m: int, n: int) -> tuple[PosetExpr, Layer]:
    """[m]xK(n-1) and its layer realization; needs n >= 2.  [m]xK(0) is
    two disjoint chains, with two minimal elements, and a coefficient-one
    layer has one, its pivot root."""
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    return Prod(Chain(m), K(n - 1)), Layer("D", m + n, m)


def classical_layer_expr(family: str, rank: int, pivot: int) -> PosetExpr:
    """Combinator realization of a classical layer.

    The correspondence is recorded here and confirmed by isomorphism tests:
    A-layers are grids, B-layers are odd grids or a chain, C-layers are even
    grids or a staircase, D-layers are chain-times-K products or staircases.
    """
    family = family.upper()
    if not 1 <= pivot <= rank:
        raise ValueError(f"pivot {pivot} outside 1..{rank}")
    if family == "A":
        return Prod(Chain(pivot), Chain(rank + 1 - pivot))
    if family == "B":
        if pivot == rank:
            return Chain(rank)
        return Prod(Chain(pivot), Chain(2 * (rank - pivot) + 1))
    if family == "C":
        if pivot == rank:
            return H(rank)
        return Prod(Chain(pivot), Chain(2 * (rank - pivot)))
    if family == "D":
        if pivot >= rank - 1:
            return H(rank - 1)
        return Prod(Chain(pivot), K(rank - pivot - 1))
    raise ValueError(f"no classical realization for family {family!r}")


def find_entry(name: str) -> CatalogEntry | None:
    wanted = name.replace(" ", "").lower()
    for entry in SPORADIC:
        if entry.name.lower() == wanted:
            return entry
    return None


def entry_expr_poset(entry: CatalogEntry) -> Poset | None:
    if entry.expr is None:
        return None
    return build(entry.expr)
