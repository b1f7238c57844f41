"""Residue-symbol matrix families.

Each formula class declares its kind, Toeplitz (entry (i, j) is seq(j - i))
or Hankel (entry (i, j) is seq(i + j)), and the symbol argument of seq(k)
at one index k. `sequence` is the one place a formula is evaluated: an
order-n matrix reads 2n - 1 consecutive values of it, one entry reads one.

The formula half of the module (the classes, `sequence` and `entry_value`)
is plain Python. The array half, `ResidueMatrix`, `build_matrix` and
`matrices_equal`, imports numpy when it first runs, so the commands that
read determinants off a number wall never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .residues import Prime, Record, as_prime, cubic_residue_symbol

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiffPlusC",
    "SumPlusC",
    "CubeDiffPlusOne",
    "EvenPowerPlusC",
    "Formula",
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
        self._store(c)

    def argument(self, k: int, p: int) -> int:
        return k + self.c


class SumPlusC(Record):
    """Entry argument j + i + c: Hankel, seq(k) = [k + c]."""

    __slots__ = ("c",)
    kind = HANKEL

    def __init__(self, c: int) -> None:
        self._store(c)

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
        if t < 1:
            raise ValueError(f"t must be a positive integer, got {t}")
        self._store(t, c)

    def argument(self, k: int, p: int) -> int:
        return pow(k, 2 * self.t, p) + self.c


Formula = Union[DiffPlusC, SumPlusC, CubeDiffPlusOne, EvenPowerPlusC]


def sequence(formula: Formula, p: "Prime | int", lo: int, hi: int) -> list[int]:
    """Symbol values seq(k) of this formula for k = lo..hi."""
    p = as_prime(p)
    return [cubic_residue_symbol(formula.argument(k, p.value), p) for k in range(lo, hi + 1)]


class ResidueMatrix(Record):
    """An immutable n x n grid of symbol values plus its provenance.

    The entries are stored as a read-only copy with an integer dtype and
    values in {-1, 0, 1}; the determinant engine relies on all three.
    Two matrices are equal only when they are the same object.
    """

    __slots__ = ("order", "entries", "prime", "formula")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, order: int, entries: np.ndarray, prime: Prime, formula: Formula) -> None:
        if order < 1:
            raise ValueError("matrix must have order >= 1")
        import numpy as np

        # A read-only copy: the caller's array cannot change it later.
        e = np.array(entries)
        e.setflags(write=False)
        if not np.issubdtype(e.dtype, np.integer):
            raise TypeError(f"entries must have an integer dtype, got {e.dtype}")
        if e.shape != (order, order):
            raise ValueError(f"entries must be {order} x {order}, got shape {e.shape}")
        if (np.abs(e) > 1).any():
            raise ValueError("entries must lie in {-1, 0, 1}")
        self._store(order, e, prime, formula)

    def entry(self, i: int, j: int) -> int:
        """1-based access, matching the formula indexing."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"indices must be in [1, {self.order}], got ({i}, {j})")
        return int(self.entries[i - 1, j - 1])

    def row(self, i: int) -> list[int]:
        """1-based row as plain ints."""
        if not 1 <= i <= self.order:
            raise IndexError(f"row index must be in [1, {self.order}], got {i}")
        return [int(v) for v in self.entries[i - 1]]

    def rows(self) -> list[list[int]]:
        """All entries as nested lists."""
        return self.entries.tolist()


def entry_value(formula: Formula, p: "Prime | int", i: int, j: int) -> int:
    """Symbol value at 1-based row i, column j."""
    if i < 1 or j < 1:
        raise ValueError(f"row and column indices are 1-based, got ({i}, {j})")
    k = j + formula.kind * i
    return sequence(formula, p, k, k)[0]


def build_matrix(formula: Formula, p: "Prime | int", n: int) -> ResidueMatrix:
    """Construct the order-n matrix of symbol values for this formula:
    2n - 1 sequence values, indexed into the grid by the formula's kind."""
    p = as_prime(p)
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    import numpy as np

    idx = np.arange(1, n + 1)
    k = idx[None, :] + formula.kind * idx[:, None]
    lo = int(k.min())
    line = np.asarray(sequence(formula, p, lo, int(k.max())), dtype=np.int8)
    return ResidueMatrix(n, line[k - lo], p, formula)


def matrices_equal(a: ResidueMatrix, b: ResidueMatrix) -> bool:
    """Entrywise equality of two matrices; provenance is ignored."""
    import numpy as np

    return a.order == b.order and np.array_equal(a.entries, b.entries)
