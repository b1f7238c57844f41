"""Determinant tables over an (order, shift) grid, and the leading
minors of one formula's matrix.

A table fixes the prime and the formula family and tabulates the exact
determinant for every matrix order n in a vertical range and every shift
c in a horizontal range. Every cell is read off a number wall (see the
wall module), in O(1) exact integer steps per cell: a difference-family
cell is the Toeplitz determinant W(n, c) of s(m) = [m/p], a sum-family
cell is the same wall read at W(n, c + n + 1) with the sign of reversing
n columns, and each even-power column is the `formula_minors` of its
formula. `formula_minors` reads the order-1..n determinants of any
formula, p = 3 included, off one wall over that formula's own sequence;
the `det` command prints its last value. None of this imports numpy.
Sign classes drive the color-coded views in the render module.
"""

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .matrices import TOEPLITZ, DiffPlusC, EvenPowerPlusC, Formula, SumPlusC, sequence
from .residues import Prime, as_prime
from .wall import number_wall

__all__ = [
    "FAMILIES",
    "EXTENDED_EXTRA_ORDERS",
    "SignClass",
    "sign_classify",
    "family_formula",
    "DeterminantTable",
    "table_box",
    "generate_table",
    "formula_minors",
]

FAMILIES = ("diff", "sum", "even-power")

# extra orders past p in the extended view, where the all-zero band lives
EXTENDED_EXTRA_ORDERS = 10


class SignClass(enum.Enum):
    """Ternary cell classification used for color coding."""

    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


def sign_classify(v: int) -> SignClass:
    """ZERO, NEGATIVE or POSITIVE according to the sign of v."""
    if v == 0:
        return SignClass.ZERO
    return SignClass.NEGATIVE if v < 0 else SignClass.POSITIVE


def family_formula(family: str, c: int, t: int = 1) -> Formula:
    """The concrete formula for one table column."""
    if family == "diff":
        return DiffPlusC(c)
    if family == "sum":
        return SumPlusC(c)
    if family == "even-power":
        return EvenPowerPlusC(t, c)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class DeterminantTable:
    """Exact determinants on an inclusive (n, c) grid for one prime and
    one formula family. t is only meaningful for the even-power family."""

    prime: Prime
    family: str
    t: int
    n_range: tuple[int, int]
    c_range: tuple[int, int]
    cells: Mapping[tuple[int, int], int]

    def orders(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    def shifts(self) -> range:
        return range(self.c_range[0], self.c_range[1] + 1)

    def cell(self, n: int, c: int) -> int:
        return self.cells[n, c]

    def row(self, n: int) -> list[int]:
        return [self.cells[n, c] for c in self.shifts()]

    def column(self, c: int) -> list[int]:
        return [self.cells[n, c] for n in self.orders()]


def table_box(p: "Prime | int", n_range: "tuple | None" = None, c_range: "tuple | None" = None,
              *, extended: bool = False) -> tuple[tuple[int, int], tuple[int, int]]:
    """The inclusive (order, shift) box of a table, as (n_range, c_range).

    Defaults: orders 1..p, or 1..p+EXTENDED_EXTRA_ORDERS when extended (the
    all-zero band past n = p), and shifts 0..2p-1, two horizontal periods.
    An end given as None takes its default. p = 3, an empty box and orders
    below 1 raise ValueError.
    """
    pv = as_prime(p).value
    if pv == 3:
        raise ValueError("tables need a prime of the form 3k+1 or 3k+2; 3 is neither")
    if extended and n_range is not None:
        raise ValueError("pass either n_range or extended, not both")
    n_lo, n_hi = (None, None) if n_range is None else n_range
    c_lo, c_hi = (None, None) if c_range is None else c_range
    n_lo = 1 if n_lo is None else int(n_lo)
    n_hi = (pv + EXTENDED_EXTRA_ORDERS if extended else pv) if n_hi is None else int(n_hi)
    c_lo = 0 if c_lo is None else int(c_lo)
    c_hi = 2 * pv - 1 if c_hi is None else int(c_hi)
    if n_lo < 1:
        raise ValueError(f"orders start at 1, got n_range ({n_lo}, {n_hi})")
    if n_hi < n_lo or c_hi < c_lo:
        raise ValueError("order and shift ranges must be nonempty")
    return (n_lo, n_hi), (c_lo, c_hi)


def generate_table(
    family: str,
    p: "Prime | int",
    n_range: "tuple[int, int] | None" = None,
    c_range: "tuple[int, int] | None" = None,
    *,
    t: int = 1,
    extended: bool = False,
) -> DeterminantTable:
    """Tabulate cell(n, c) = det of the order-n matrix built with shift c.

    The ranges and extended resolve to a box as in `table_box`. A diff or
    sum table is one number wall of s(m) = [m/p], over the terms its box
    reads; an even-power table is one wall per shift, each over the 2n_hi - 1
    terms of its own column. Rows 1..n_hi are computed whatever n_lo is, at
    O(1) exact integer steps per wall cell. Shifts c and c + p are separate
    cells, computed from s(m) over different m. The result is a pure
    function of the arguments.
    """
    p = as_prime(p)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    (n_lo, n_hi), (c_lo, c_hi) = table_box(p, n_range, c_range, extended=extended)
    orders, shifts = range(n_lo, n_hi + 1), range(c_lo, c_hi + 1)
    if family == "diff":
        lo = c_lo - n_hi + 1
        wall = number_wall(sequence(DiffPlusC(0), p, lo, c_hi + n_hi - 1), n_hi, first=lo)
        cells = {(n, c): wall(n, c) for n in orders for c in shifts}
    elif family == "sum":
        # reversing the columns of the Hankel block turns it into a Toeplitz one
        lo = c_lo + 2
        wall = number_wall(sequence(SumPlusC(0), p, lo, c_hi + 2 * n_hi), n_hi, first=lo)
        cells = {(n, c): (-1) ** (n * (n - 1) // 2) * wall(n, c + n + 1)
                 for n in orders for c in shifts}
    else:
        columns = {c: formula_minors(EvenPowerPlusC(t, c), p, n_hi) for c in shifts}
        cells = {(n, c): columns[c][n - 1] for n in orders for c in shifts}
    return DeterminantTable(p, family, t, (n_lo, n_hi), (c_lo, c_hi), MappingProxyType(cells))


def formula_minors(formula: Formula, p: "Prime | int", n: int) -> list[int]:
    """The exact determinant of the formula's order-k matrix for every
    k = 1..n, as a list indexed by k - 1, from one number wall over the
    formula's sequence. A Toeplitz matrix of order k is W(k, 0) over the
    terms 1 - n..n - 1. A Hankel one becomes Toeplitz when its k columns
    are reversed, which is (-1)**(k(k - 1)/2) * W(k, k + 1) over the terms
    2..2n. Any odd prime works, 3 included; n < 1 raises ValueError.
    """
    p = as_prime(p)
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    if formula.kind == TOEPLITZ:
        wall = number_wall(sequence(formula, p, 1 - n, n - 1), n, first=1 - n)
        return [wall(k, 0) for k in range(1, n + 1)]
    wall = number_wall(sequence(formula, p, 2, 2 * n), n, first=2)
    return [(-1) ** (k * (k - 1) // 2) * wall(k, k + 1) for k in range(1, n + 1)]
