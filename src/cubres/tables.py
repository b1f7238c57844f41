"""Determinant tables over an (order, shift) grid, and the leading
minors of one formula's matrix.

A table fixes the prime and the formula family and tabulates the exact
determinant for every matrix order n in a vertical range and every shift
c in a horizontal range. This module is the one place that reads
determinants off number walls (see the wall module), in O(1) exact
integer steps per cell. `_shifted_minors` reads one formula's blocks at a
range of shifts off one wall: a Toeplitz block is W(n, c), and a Hankel
one W(n, c + n + 1) with the sign of reversing its n columns. Diff and
sum tables read it, and so does `formula_minors`, whose last value the
`det` command prints. `even_power_minors` reads W(1..n, 0) off one wall
per distinct even-power sequence, for even-power tables and the T3_7
checker. None of this imports numpy.

A `DeterminantTable` computes its own cells from what it is given, and
`generate_table` is one call to it. A table keeps one list per order, a
wall row or a row of transposed wall columns. `DeterminantTable.cells` is
a read-only mapping view over those rows, keyed (n, c) in row-major
order, and `row`, `column` and `cell` read the same lists.
"""

from collections.abc import Iterable, Iterator, Mapping

from .matrices import HANKEL, EvenPowerPlusC, Formula, _order, _window, family_formula, sequence
from .residues import Prime, Record, as_int, as_prime
from .wall import number_wall

__all__ = [
    "FAMILIES",
    "EXTENDED_EXTRA_ORDERS",
    "DeterminantTable",
    "table_box",
    "generate_table",
    "formula_minors",
    "even_power_minors",
]

FAMILIES = ("diff", "sum", "even-power")

# extra orders past p in the extended view, where the all-zero band lives
EXTENDED_EXTRA_ORDERS = 10


class _RowCells(Mapping):
    """A read-only {(n, c): value} view over a table's rows, keyed in
    row-major order: rows[n - n_lo][c - c_lo] holds the cell (n, c)."""

    def __init__(self, rows: list, n_range: tuple[int, int], c_range: tuple[int, int]) -> None:
        self._rows, self._box = rows, (n_range, c_range)

    def __getitem__(self, key) -> int:
        (n_lo, n_hi), (c_lo, c_hi) = self._box
        try:
            n, c = key
            if n_lo <= n <= n_hi and c_lo <= c <= c_hi:
                return self._rows[n - n_lo][c - c_lo]
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        (n_lo, n_hi), (c_lo, c_hi) = self._box
        return ((n, c) for n in range(n_lo, n_hi + 1) for c in range(c_lo, c_hi + 1))

    def __len__(self) -> int:
        (n_lo, n_hi), (c_lo, c_hi) = self._box
        return (n_hi - n_lo + 1) * (c_hi - c_lo + 1)

    def __repr__(self) -> str:
        return f"_RowCells({dict(self)!r})"


class DeterminantTable(Record):
    """Exact determinants cell(n, c) = det of one family's order-n matrix
    built with shift c, on an inclusive (n, c) grid for one prime. t is
    only meaningful for the even-power family.

    The constructor reads the prime by `as_prime`, t by `as_int`, the
    family against FAMILIES and the box, with extended, by `table_box`;
    even-power rejects t < 1. A diff or sum table is one number wall of
    s(m) = [m/p], over the terms its box reads, so shifts c and c + p are
    separate cells, computed from s(m) over different m. Even-power
    columns with equal terms, c and c + p among them, share one wall. No
    claim reads an even-power table from here, so sharing makes no check a
    tautology; a future claim of even-power periodicity must compute its
    own side. Rows 1..n_hi are computed whatever n_lo is. A key outside
    the grid, or a reversed range, raises KeyError. A table is not
    hashable, since its cells are not.
    """

    __slots__ = ("prime", "family", "t", "n_range", "c_range", "cells")

    def __init__(self, family: str, prime: "Prime | int", n_range: "tuple[int, int] | None" = None,
                 c_range: "tuple[int, int] | None" = None, *, t: int = 1, extended: bool = False) -> None:
        prime, t, family = as_prime(prime), as_int(t, "t"), _family(family)
        formula = family_formula(family, 0, t)  # rejects t < 1 for even-power
        (n_lo, n_hi), (c_lo, c_hi) = box = table_box(prime, n_range, c_range, extended=extended)
        if family == "even-power":
            cases = ((t, c) for c in range(c_lo, c_hi + 1))
            columns = [minors for _, minors in even_power_minors(prime, cases, n_hi)]
            rows = [list(row) for row in zip(*columns)]
        else:
            rows = _shifted_minors(formula, prime, n_hi, c_lo, c_hi)
        self._store(prime, family, t, *box, _RowCells(rows[n_lo - 1:], *box))

    def orders(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    def shifts(self) -> range:
        return range(self.c_range[0], self.c_range[1] + 1)

    def cell(self, n: int, c: int) -> int:
        return self.cells[n, c]

    def row(self, n: int, c_lo: "int | None" = None, c_hi: "int | None" = None) -> list[int]:
        """The cells (n, c) for c_lo <= c <= c_hi, by default every shift."""
        c_lo = self.c_range[0] if c_lo is None else c_lo
        c_hi = self.c_range[1] if c_hi is None else c_hi
        self.cell(n, c_lo), self.cell(n, c_hi)
        if c_hi < c_lo:
            raise KeyError(f"shifts {c_lo}..{c_hi} of row {n} are reversed")
        lo = self.c_range[0]
        return self.cells._rows[n - self.n_range[0]][c_lo - lo:c_hi - lo + 1]

    def column(self, c: int, n_lo: "int | None" = None, n_hi: "int | None" = None) -> list[int]:
        """The cells (n, c) for n_lo <= n <= n_hi, by default every order."""
        n_lo = self.n_range[0] if n_lo is None else n_lo
        n_hi = self.n_range[1] if n_hi is None else n_hi
        self.cell(n_lo, c), self.cell(n_hi, c)
        if n_hi < n_lo:
            raise KeyError(f"orders {n_lo}..{n_hi} of column {c} are reversed")
        lo, j = self.n_range[0], c - self.c_range[0]
        return [row[j] for row in self.cells._rows[n_lo - lo:n_hi - lo + 1]]


def _family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


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
    n_lo = 1 if n_lo is None else as_int(n_lo, "n_range")
    n_hi = (pv + EXTENDED_EXTRA_ORDERS if extended else pv) if n_hi is None else as_int(n_hi, "n_range")
    c_lo = 0 if c_lo is None else as_int(c_lo, "c_range")
    c_hi = 2 * pv - 1 if c_hi is None else as_int(c_hi, "c_range")
    if n_lo < 1:
        raise ValueError(f"orders start at 1, got n_range ({n_lo}, {n_hi})")
    if n_hi < n_lo or c_hi < c_lo:
        raise ValueError("order and shift ranges must be nonempty")
    return (n_lo, n_hi), (c_lo, c_hi)


def generate_table(family: str, p: "Prime | int", n_range: "tuple[int, int] | None" = None,
                   c_range: "tuple[int, int] | None" = None, *, t: int = 1,
                   extended: bool = False) -> DeterminantTable:
    """The `DeterminantTable` of these arguments: cell(n, c) = det of the
    order-n matrix built with shift c, over the box `table_box` resolves."""
    return DeterminantTable(family, p, n_range, c_range, t=t, extended=extended)


def _shifted_minors(formula: Formula, p: Prime, n_hi: int, c_lo: int, c_hi: int) -> list[list[int]]:
    """The determinants of the formula's blocks of orders 1..n_hi at the
    shifts c_lo..c_hi, as rows[n - 1][c - c_lo], from one number wall over
    the terms those blocks read."""
    lo, hi = _window(formula.kind, n_hi)
    wall = number_wall(sequence(formula, p, lo + c_lo, hi + c_hi), n_hi, first=lo + c_lo)
    hankel = formula.kind == HANKEL
    rows = []
    for n in range(1, n_hi + 1):
        # reversing the n columns of a Hankel block turns it into a Toeplitz one
        at = n + 1 if hankel else 0
        row = wall.row(n, c_lo + at, c_hi + at)
        rows.append([-v for v in row] if hankel and n * (n - 1) // 2 % 2 else row)
    return rows


def formula_minors(formula: Formula, p: "Prime | int", n: int) -> list[int]:
    """The exact determinant of the formula's order-k matrix for every
    k = 1..n, as a list indexed by k - 1, from one number wall over the
    formula's sequence: W(k, 0) for a Toeplitz formula, and
    (-1)**(k(k - 1)/2) * W(k, k + 1) for a Hankel one. Any odd prime works,
    3 included; n is read by `matrices._order`.
    """
    return [row[0] for row in _shifted_minors(formula, as_prime(p), _order(n), 0, 0)]


def even_power_minors(p: "Prime | int", cases: Iterable[tuple[int, int]],
                      n: int) -> Iterator[tuple[tuple, list[int]]]:
    """Yield (terms, minors) for each (t, c) in cases: the terms
    s(1 - n)..s(n - 1) of s(k) = [k**(2t) + c], and W(1..n, 0), the
    determinants of its blocks of orders 1..n, n read by `matrices._order`.
    The argument is even in k, so only k >= 0 is evaluated and mirrored.
    One wall is built per distinct tuple of terms within the call, keyed on
    the terms and never on t, c or c mod p, so every case reads its own terms.
    """
    n = _order(n)
    walls: dict[tuple, list] = {}
    for t, c in cases:
        half = sequence(EvenPowerPlusC(t, c), p, 0, n - 1)
        terms = (*half[:0:-1], *half)
        if terms not in walls:
            walls[terms] = number_wall(terms, n, first=1 - n).column(0, 1, n)
        yield terms, walls[terms]
