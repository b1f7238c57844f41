"""Determinant tables over an (order, shift) grid.

A table fixes the prime and the formula family and tabulates the exact
determinant for every matrix order n in a vertical range and every shift
c in a horizontal range. In every family the entry at (i, j) does not
depend on the order, so the order-n matrix is the leading n x n block of
the largest one: a column of the table is the leading minors of a single
matrix, all read from one `leading_minors` call. Sign classes drive the
color-coded views in the render module.
"""

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .determinant import leading_minors
from .matrices import DiffPlusC, EvenPowerPlusC, Formula, SumPlusC, build_matrix
from .residues import Prime, as_prime

__all__ = [
    "FAMILIES",
    "EXTENDED_EXTRA_ORDERS",
    "SignClass",
    "sign_classify",
    "family_formula",
    "DeterminantTable",
    "table_box",
    "generate_table",
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

    The ranges and extended resolve to a box as in `table_box`. Each shift
    costs one matrix of order n_hi and one `leading_minors` call, whatever
    n_lo is; shifts c and c + p are separate columns, computed
    independently. The result is a pure function of the arguments.
    """
    p = as_prime(p)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    (n_lo, n_hi), (c_lo, c_hi) = table_box(p, n_range, c_range, extended=extended)
    columns = {c: leading_minors(build_matrix(family_formula(family, c, t), p, n_hi))
               for c in range(c_lo, c_hi + 1)}
    cells = {(n, c): columns[c][n - 1]
             for n in range(n_lo, n_hi + 1) for c in range(c_lo, c_hi + 1)}
    return DeterminantTable(p, family, t, (n_lo, n_hi), (c_lo, c_hi), MappingProxyType(cells))
