"""Residue-symbol matrix families.

Each formula class declares its kind, Toeplitz (entry (i, j) is seq(j - i))
or Hankel (entry (i, j) is seq(i + j)), and the symbol argument of seq(k)
at one index k. `sequence` is the one place a formula is evaluated: an
order-n matrix reads 2n - 1 consecutive values of it, one entry reads one.

A `ResidueMatrix` is the grid of one (formula, prime, order): its
constructor computes that grid and stores it as a tuple of rows of plain
ints. So the determinants of one are read off the formula's number wall.
Nothing here imports numpy.
"""

from typing import Union

from .residues import Prime, Record, as_int, as_prime, cubic_residue_symbol

__all__ = [
    "DiffPlusC",
    "SumPlusC",
    "CubeDiffPlusOne",
    "EvenPowerPlusC",
    "Formula",
    "family_formula",
    "ResidueMatrix",
    "sequence",
    "entry_value",
    "build_matrix",
    "matrices_equal",
]

# A kind is the coefficient of the 1-based row index i in the sequence
# index k = j + kind * i of entry (i, j).
TOEPLITZ = -1
HANKEL = 1


class DiffPlusC(Record):
    """Entry argument j - i + c: Toeplitz, seq(k) = [k + c]."""

    __slots__ = ("c",)
    kind = TOEPLITZ

    def __init__(self, c: int) -> None:
        self._store(as_int(c, "c"))

    def argument(self, k: int, p: int) -> int:
        return k + self.c


class SumPlusC(Record):
    """Entry argument j + i + c: Hankel, seq(k) = [k + c]."""

    __slots__ = ("c",)
    kind = HANKEL

    def __init__(self, c: int) -> None:
        self._store(as_int(c, "c"))

    def argument(self, k: int, p: int) -> int:
        return k + self.c


class CubeDiffPlusOne(Record):
    """Entry argument (j - i)**3 + 1: Toeplitz, seq(k) = [k**3 + 1]."""

    __slots__ = ()
    kind = TOEPLITZ

    def __init__(self) -> None:
        self._store()

    def argument(self, k: int, p: int) -> int:
        return pow(k, 3, p) + 1


class EvenPowerPlusC(Record):
    """Entry argument (j - i)**(2t) + c: Toeplitz, seq(k) = [k**(2t) + c].

    The power is evaluated by modular exponentiation, so t may be large
    without the argument ever materializing as a huge integer.
    """

    __slots__ = ("t", "c")
    kind = TOEPLITZ

    def __init__(self, t: int, c: int) -> None:
        t = as_int(t, "t")
        if t < 1:
            raise ValueError(f"t must be a positive integer, got {t}")
        self._store(t, as_int(c, "c"))

    def argument(self, k: int, p: int) -> int:
        return pow(k, 2 * self.t, p) + self.c


Formula = Union[DiffPlusC, SumPlusC, CubeDiffPlusOne, EvenPowerPlusC]


def family_formula(family: str, c: int, t: int = 1) -> Formula:
    """The formula of a family named as on the command line; cube-diff reads neither c nor t."""
    if family == "diff":
        return DiffPlusC(c)
    if family == "sum":
        return SumPlusC(c)
    if family == "cube-diff":
        return CubeDiffPlusOne()
    if family == "even-power":
        return EvenPowerPlusC(t, c)
    raise ValueError(f"unknown family {family!r}; expected diff, sum, cube-diff or even-power")


def sequence(formula: Formula, p: "Prime | int", lo: int, hi: int) -> list[int]:
    """Symbol values seq(k) of this formula for k = lo..hi."""
    p = as_prime(p)
    return [cubic_residue_symbol(formula.argument(k, p.value), p) for k in range(lo, hi + 1)]


class ResidueMatrix(Record):
    """The immutable order-n grid of one formula's symbol values at one
    prime, kept as a tuple of rows of plain ints in {-1, 0, 1}.

    The constructor computes the grid from (formula, prime, order), so a
    ResidueMatrix is its formula's grid and its determinants can be read
    off the formula's number wall. It rejects nothing but a bad prime
    (`as_prime`) or order (`_order`). Two matrices are equal only when
    they are the same object.
    """

    __slots__ = ("order", "entries", "prime", "formula")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, formula: Formula, prime: "Prime | int", order: int) -> None:
        prime, order = as_prime(prime), _order(order)
        self._store(order, _grid(formula, prime, order), prime, formula)

    def entry(self, i: int, j: int) -> int:
        """1-based access, matching the formula indexing."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"indices must be in [1, {self.order}], got ({i}, {j})")
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> list[int]:
        """1-based row as plain ints."""
        if not 1 <= i <= self.order:
            raise IndexError(f"row index must be in [1, {self.order}], got {i}")
        return list(self.entries[i - 1])

    def rows(self) -> list[list[int]]:
        """All entries as nested lists."""
        return [list(row) for row in self.entries]


def _window(kind: int, n: int) -> tuple[int, int]:
    """The first and last sequence index k = j + kind * i that an order-n
    block of this kind reads, for 1 <= i, j <= n."""
    return 1 + min(kind, kind * n), n + max(kind, kind * n)


def _grid(formula: Formula, p: "Prime | int", n: int) -> tuple:
    """The formula's order-n grid as a tuple of rows: 2n - 1 sequence
    values, row i the n of them from index 1 + kind * i on."""
    kind = formula.kind
    lo, hi = _window(kind, n)
    line = sequence(formula, p, lo, hi)
    return tuple(tuple(line[s:s + n]) for s in (1 + kind * i - lo for i in range(1, n + 1)))


def _order(n: int) -> int:
    """n as a matrix order: TypeError unless an integer, ValueError below 1."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    return n


def entry_value(formula: Formula, p: "Prime | int", i: int, j: int) -> int:
    """Symbol value at 1-based row i, column j."""
    i, j = as_int(i, "i"), as_int(j, "j")
    if i < 1 or j < 1:
        raise ValueError(f"row and column indices are 1-based, got ({i}, {j})")
    k = j + formula.kind * i
    return sequence(formula, p, k, k)[0]


def build_matrix(formula: Formula, p: "Prime | int", n: int) -> ResidueMatrix:
    """Construct the order-n matrix of symbol values for this formula:
    2n - 1 sequence values, indexed into the grid by the formula's kind."""
    return ResidueMatrix(formula, p, n)


def matrices_equal(a: ResidueMatrix, b: ResidueMatrix) -> bool:
    """Entrywise equality of two matrices; provenance is ignored."""
    return a.entries == b.entries
